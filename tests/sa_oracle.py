"""Per-station Hannan-Rissanen fit: the reference for the batched fit.

This is one ``hannan_rissanen`` call per station, each with two
``np.linalg.lstsq`` solves and one ``np.roots``, kept to check
``blockreg.baselines.hannan_rissanen`` and ``train_sa`` against. Its MA
reflection multiplies the innovation variance by 1/|r|^2 for each reflected
root r, which keeps the autocovariance.

`fleet_model`, `station` and `without` are the per-station view of an
SaModel, for tests that build or read one station at a time.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import compress

import numpy as np

from blockreg.baselines import SaCoefficients, SaModel, ar_long_order
from blockreg.errors import (
    InsufficientHistory,
    InvalidConfig,
    NumericalError,
    SingularSystem,
)
from blockreg.forecaster import training_slice
from blockreg.pipeline import seasonal_difference


def reflect_ma_roots(psi: np.ndarray, sigma2: float) -> tuple[np.ndarray, float]:
    """Move MA polynomial roots outside the unit circle."""
    q = len(psi)
    if q == 0:
        return psi, sigma2
    roots = np.roots(np.concatenate([psi[::-1], [1.0]]))
    inside = np.abs(roots) < 1.0
    if not inside.any():
        return psi, sigma2
    scale = float(np.prod(np.abs(roots[inside]) ** -2.0))
    roots[inside] = 1.0 / np.conj(roots[inside])
    coeffs = np.poly(roots) * np.prod(-1.0 / roots)
    new_psi = np.real(coeffs[::-1][1:])
    return new_psi, sigma2 * scale


def hannan_rissanen(z: np.ndarray, ar: int, ma: int) -> SaCoefficients:
    """Estimate ARMA(ar, ma) coefficients of one series by two-stage lstsq."""
    if ar < 0 or ma < 0:
        raise InvalidConfig(f"orders must be >= 0, got ar={ar} ma={ma}")
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    h = ar_long_order(n) if n >= 4 else 0
    t0 = max(h + ma, ar)
    if h < 1 or n - t0 < ar + ma + 1:
        raise InsufficientHistory(
            f"series of length {n} too short for ARMA({ar}, {ma}) estimation"
        )

    x1 = np.column_stack(
        [np.ones(n - h)] + [z[h - j:n - j] for j in range(1, h + 1)]
    )
    beta1, *_ = np.linalg.lstsq(x1, z[h:], rcond=None)
    e = np.zeros(n)
    e[h:] = z[h:] - x1 @ beta1

    cols = [np.ones(n - t0)]
    cols += [z[t0 - j:n - j] for j in range(1, ar + 1)]
    cols += [e[t0 - j:n - j] for j in range(1, ma + 1)]
    x2 = np.column_stack(cols)
    beta2, *_ = np.linalg.lstsq(x2, z[t0:], rcond=None)
    if not np.all(np.isfinite(beta2)):
        raise SingularSystem("stage-2 least squares produced non-finite coefficients")

    intercept = float(beta2[0])
    phi = beta2[1:1 + ar].copy()
    psi = beta2[1 + ar:1 + ar + ma].copy()
    resid = z[t0:] - x2 @ beta2
    sigma2 = float(resid @ resid) / resid.shape[0]
    psi, sigma2 = reflect_ma_roots(psi, sigma2)
    return SaCoefficients(phi=phi, psi=psi, intercept=intercept, sigma2=sigma2)


def train_sa(t, ar=2, ma=1, s=24, train_hours=240) -> SaModel:
    """One ``hannan_rissanen`` per station of the lag-s differenced corpus."""
    train = training_slice(t, train_hours)
    if train_hours < s + ar + ma + 20:
        raise InsufficientHistory(
            f"training range {train_hours} shorter than s + ar + ma + 20 = "
            f"{s + ar + ma + 20}"
        )
    d = seasonal_difference(train, s)
    per_bs: dict[str, SaCoefficients] = {}
    failed: list[str] = []
    for bs_id, z in zip(t.bs_ids, d.values):
        try:
            per_bs[bs_id] = hannan_rissanen(z, ar, ma)
        except NumericalError:
            failed.append(bs_id)
    return fleet_model(per_bs, s, ar, ma, failed)


def fleet_model(per_bs: dict[str, SaCoefficients], s: int, ar: int, ma: int,
                failed_bs=()) -> SaModel:
    """The SaModel whose rows are the coefficients of each station of
    ``per_bs``, in its order."""
    coefs, n = list(per_bs.values()), len(per_bs)
    return SaModel(
        bs_ids=list(per_bs),
        coef=SaCoefficients(
            phi=np.array([c.phi for c in coefs], dtype=float).reshape(n, ar),
            psi=np.array([c.psi for c in coefs], dtype=float).reshape(n, ma),
            intercept=np.array([c.intercept for c in coefs], dtype=float),
            sigma2=np.array([c.sigma2 for c in coefs], dtype=float),
        ),
        seasonality=s, ar_order=ar, ma_order=ma, failed_bs=list(failed_bs),
    )


def station(model: SaModel, bs: str) -> SaCoefficients:
    """The coefficients of station ``bs`` of ``model``: its row."""
    i, c = model.bs_ids.index(bs), model.coef
    return SaCoefficients(c.phi[i], c.psi[i], float(c.intercept[i]), float(c.sigma2[i]))


def without(model: SaModel, stations) -> SaModel:
    """``model`` less the rows of ``stations``; its ``failed_bs`` is a copy
    of the model's, with no station added."""
    keep = np.array([bs not in stations for bs in model.bs_ids], dtype=bool)
    c = model.coef
    return replace(
        model,
        bs_ids=list(compress(model.bs_ids, keep)),
        coef=SaCoefficients(c.phi[keep], c.psi[keep], c.intercept[keep], c.sigma2[keep]),
        failed_bs=list(model.failed_bs),
    )
