"""Per-station Hannan-Rissanen fit: the reference for the batched fit.

This is one ``hannan_rissanen`` call per station, each with two
``np.linalg.lstsq`` solves and one ``np.roots``, kept to check
``blockreg.baselines.hannan_rissanen`` and ``train_sa`` against. Its MA
reflection multiplies the innovation variance by 1/|r|^2 for each reflected
root r, which keeps the autocovariance.
"""

from __future__ import annotations

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
    return SaModel(
        per_bs=per_bs, seasonality=s, ar_order=ar, ma_order=ma, failed_bs=failed
    )
