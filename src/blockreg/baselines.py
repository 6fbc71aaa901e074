"""Comparison models: undifferenced block linear regression and per-station
seasonal ARIMA.

The LR baseline is a BlockModel trained with no differencing step (m = 0)
and a wide window; its forecast has no lagged-traffic term. The SA baseline fits
one ARMA(ar, ma) per station on the seasonally differenced series using the
Hannan-Rissanen two-stage least-squares procedure, then forecasts by the
standard one-step recursion plus the traffic observed one season earlier.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import TrafficMatrix
from .errors import (
    InsufficientHistory,
    InvalidConfig,
    NumericalError,
    SingularSystem,
    UnknownBs,
)
from .forecaster import (
    ForecastSeries,
    horizon_series,
    train_block_regression,
    training_slice,
    working_matrix,
)
from .pipeline import seasonal_difference
from .regressor import BlockModel


@dataclass
class SaCoefficients:
    """Fitted ARMA coefficients for one station's differenced series."""

    phi: np.ndarray
    psi: np.ndarray
    intercept: float
    sigma2: float


@dataclass
class SaModel:
    """Per-station seasonal ARIMA fleet model.

    Stations whose fit failed are listed in ``failed_bs`` and carry no
    coefficients; parameter accounting covers fitted stations only, at
    ar + ma + 2 each (coefficients, intercept, innovation variance).
    """

    per_bs: dict[str, SaCoefficients]
    seasonality: int
    ar_order: int
    ma_order: int
    failed_bs: list[str] = field(default_factory=list)

    @property
    def n_params(self) -> int:
        return (self.ar_order + self.ma_order + 2) * len(self.per_bs)


def train_lr(t: TrafficMatrix, w: int = 72, train_hours: int = 240) -> BlockModel:
    """Train the undifferenced baseline: the BR pipeline with m = 0."""
    model, _ = train_block_regression(t, m=0, w=w, train_hours=train_hours)
    return model


def ar_long_order(n: int) -> int:
    """Stage-1 autoregression order: ceil(1.5 * sqrt(n)) capped at n // 4."""
    return min(math.ceil(1.5 * math.sqrt(n)), n // 4)


def _reflect_ma_roots(psi: np.ndarray, sigma2: float) -> tuple[np.ndarray, float]:
    """Move MA polynomial roots outside the unit circle.

    Root reflection yields the canonical invertible representation of the
    same autocovariance; the innovation variance is rescaled to match. An
    already invertible psi passes through unchanged. Keeps the forecast
    residual recursion from diverging.
    """
    q = len(psi)
    if q == 0:
        return psi, sigma2
    roots = np.roots(np.concatenate([psi[::-1], [1.0]]))
    inside = np.abs(roots) < 1.0
    if not inside.any():
        return psi, sigma2
    scale = float(np.prod(np.abs(roots[inside]) ** 2))
    roots[inside] = 1.0 / np.conj(roots[inside])
    coeffs = np.poly(roots) * np.prod(-1.0 / roots)
    new_psi = np.real(coeffs[::-1][1:])
    return new_psi, sigma2 * scale


def hannan_rissanen(z: np.ndarray, ar: int, ma: int) -> SaCoefficients:
    """Estimate ARMA(ar, ma) coefficients by two-stage least squares.

    Stage 1 fits a long autoregression of order ceil(1.5 * sqrt(n)) capped at
    n / 4 to obtain residual proxies; stage 2 regresses the series on its own
    ar lags and the ma lagged residual proxies, with an intercept in both
    stages. Non-invertible MA estimates are reflected to the canonical
    invertible form.
    """
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
    psi, sigma2 = _reflect_ma_roots(psi, sigma2)
    return SaCoefficients(phi=phi, psi=psi, intercept=intercept, sigma2=sigma2)


def train_sa(
    t: TrafficMatrix,
    ar: int = 2,
    ma: int = 1,
    s: int = 24,
    train_hours: int = 240,
) -> SaModel:
    """Fit one ARMA(ar, ma) per station on traffic differenced at lag s.

    Stations whose estimation fails numerically are recorded in
    ``failed_bs`` and excluded, not fatal to the run.
    """
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
        per_bs=per_bs,
        seasonality=s,
        ar_order=ar,
        ma_order=ma,
        failed_bs=failed,
    )


def forecast_sa(
    model: SaModel,
    t: TrafficMatrix,
    start: int,
    k: int,
    mode: str = "one_step",
) -> ForecastSeries:
    """Forecast k hours for every fitted station with its ARMA.

    The differenced series is predicted one step at a time with running
    residuals; the observed (or, recursively, forecast) traffic one season
    earlier is added back. One recursion over hours runs on vectors across
    stations. Stations whose fit failed get no row. With all coefficients
    and intercept zero this is exactly the seasonal-naive forecast t_{l-s}.
    """
    failed = set(model.failed_bs)
    missing = [bs for bs in t.bs_ids if bs not in model.per_bs and bs not in failed]
    if missing:
        raise UnknownBs(f"no fitted model for {missing[0]!r}")
    fitted = t
    if any(bs in failed for bs in t.bs_ids):
        rows = [i for i, bs in enumerate(t.bs_ids) if bs in model.per_bs]
        fitted = replace(t, bs_ids=[t.bs_ids[i] for i in rows], values=t.values[rows])
    coefs = [model.per_bs[bs] for bs in fitted.bs_ids]
    s, ar, ma = model.seasonality, model.ar_order, model.ma_order
    n = fitted.n_bs
    phi = np.array([c.phi for c in coefs], dtype=float).reshape(n, ar)
    psi = np.array([c.psi for c in coefs], dtype=float).reshape(n, ma)
    intercept = np.array([c.intercept for c in coefs], dtype=float)

    working = working_matrix(fitted.values, start, k, mode, s + ar)
    base = start - s  # index of the first horizon hour on the differenced scale
    # The last ar differences z and the last ma residuals e, oldest first.
    # Residuals before hour ar, and those of recursive forecast hours, are 0.
    zero = np.zeros(n)
    z = deque((working[:, s + tt] - working[:, tt] for tt in range(ar)), maxlen=ar)
    e = deque([zero] * ma, maxlen=ma)
    forecast = np.empty((n, k))
    for tt in range(ar, base + k):
        zhat = intercept.copy()
        for j in range(1, ar + 1):
            zhat += phi[:, j - 1] * z[-j]
        for j in range(1, ma + 1):
            if tt - j >= 0:
                zhat += psi[:, j - 1] * e[-j]
        if tt < base or mode == "one_step":
            diff = working[:, s + tt] - working[:, tt]
            z.append(diff)
            e.append(diff - zhat)
        else:  # a forecast hour
            z.append(zhat)
            e.append(zero)
        if tt < base:
            continue
        step = tt - base
        forecast[:, step] = zhat + working[:, start + step - s]
        if mode == "recursive":
            working[:, start + step] = forecast[:, step]
    return horizon_series(fitted, start, forecast, mode)
