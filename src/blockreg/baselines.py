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
from itertools import compress

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import pipeline
from .corpus import TrafficMatrix
from .errors import (
    InsufficientHistory,
    InvalidConfig,
    SingularSystem,
    UnknownBs,
)
from .forecaster import (
    ForecastSeries,
    check_horizon,
    horizon_series,
    train_block_regression,
    training_slice,
)
from .pipeline import seasonal_difference
from .regressor import BlockModel


@dataclass
class SaCoefficients:
    """Fitted ARMA coefficients for one station's differenced series.

    `hannan_rissanen` on a stack of series returns one of these whose
    fields are arrays with the stack's leading axes, one row per series.
    """

    phi: np.ndarray
    psi: np.ndarray
    intercept: float | np.ndarray
    sigma2: float | np.ndarray


@dataclass
class SaModel:
    """Per-station seasonal ARIMA fleet model.

    Row i of ``coef`` (``phi`` (n, ar), ``psi`` (n, ma), and ``intercept``
    and ``sigma2`` (n,)) belongs to station ``bs_ids[i]``. Stations whose
    fit failed are listed in ``failed_bs`` and have no row; parameter
    accounting covers fitted stations only, at ar + ma + 2 each
    (coefficients, intercept, innovation variance).
    """

    bs_ids: list[str]
    coef: SaCoefficients
    seasonality: int
    ar_order: int
    ma_order: int
    failed_bs: list[str] = field(default_factory=list)

    @property
    def n_params(self) -> int:
        return (self.ar_order + self.ma_order + 2) * len(self.bs_ids)


def train_lr(t: TrafficMatrix, w: int = 72, train_hours: int = 240) -> BlockModel:
    """Train the undifferenced baseline: the BR pipeline with m = 0."""
    model, _ = train_block_regression(t, m=0, w=w, train_hours=train_hours)
    return model


def ar_long_order(n: int) -> int:
    """Stage-1 autoregression order: ceil(1.5 * sqrt(n)) capped at n // 4."""
    return min(math.ceil(1.5 * math.sqrt(n)), n // 4)


def _reflect_ma_roots(
    psi: np.ndarray, sigma2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Move each row's MA polynomial roots outside the unit circle.

    ``psi`` is (B, q) and ``sigma2`` (B,). A root r of 1 + psi_1 x + ... +
    psi_q x^q inside the unit circle moves to 1/conj(r) and multiplies the
    innovation variance by 1/|r|^2: the canonical invertible form of the
    same autocovariance. For q = 1 that is psi -> 1/psi and sigma2 ->
    sigma2 psi^2 when |psi| > 1. Rows already invertible, and rows with
    non-finite psi, pass through unchanged. Keeps the forecast residual
    recursion from diverging.
    """
    q = psi.shape[1]
    if q == 0:
        return psi, sigma2
    psi, sigma2 = psi.copy(), sigma2.copy()
    # The reciprocals mu of the roots are the eigenvalues of the companion
    # matrix of the monic x^q + psi_1 x^(q-1) + ... + psi_q; r inside the
    # unit circle is |mu| > 1, and r -> 1/conj(r) is mu -> 1/conj(mu).
    rows = np.flatnonzero(np.isfinite(psi).all(axis=1))
    companion = np.zeros((rows.size, q, q))
    companion[:, 0, :] = -psi[rows]
    companion[:, 1:, :-1] = np.eye(q - 1)
    mu = np.linalg.eigvals(companion)
    out = np.abs(mu) > 1.0
    moved = out.any(axis=1)
    rows, mu, out = rows[moved], mu[moved], out[moved]
    sigma2[rows] *= np.prod(np.where(out, np.abs(mu) ** 2, 1.0), axis=1)
    mu = np.where(out, 1.0 / np.conj(mu), mu)
    # psi_j of the reflected polynomial are the coefficients of prod (x - mu).
    coeffs = np.ones((rows.size, 1), dtype=complex)
    pad = np.zeros((rows.size, 1))
    for j in range(q):
        coeffs = np.hstack([coeffs, pad]) - mu[:, j:j + 1] * np.hstack([pad, coeffs])
    psi[rows] = coeffs[:, 1:].real
    return psi, sigma2


def hannan_rissanen(z: np.ndarray, ar: int, ma: int) -> SaCoefficients:
    """Estimate ARMA(ar, ma) coefficients by two-stage least squares.

    Stage 1 fits a long autoregression of order ceil(1.5 * sqrt(n)) capped at
    n / 4 to obtain residual proxies; stage 2 regresses the series on its own
    ar lags and the ma lagged residual proxies, with an intercept in both
    stages. Non-invertible MA estimates are reflected to the canonical
    invertible form.

    ``z`` has shape (..., n), and each series along the last axis is fitted
    on its own: the result holds ``phi`` (..., ar), ``psi`` (..., ma), and
    ``intercept`` and ``sigma2`` of shape (...). A row whose coefficients
    are not finite (its series is not) has NaN coefficients. A 1-D ``z``
    gives one fit with a float intercept and sigma2, and raises
    `SingularSystem` if its coefficients are not finite.

    The series are fitted a block of rows at a time; a block holds as many
    rows as fit their stage-1 designs into `pipeline.CHUNK_BYTES`, and at
    least one.
    """
    if ar < 0 or ma < 0:
        raise InvalidConfig(f"orders must be >= 0, got ar={ar} ma={ma}")
    z = np.asarray(z, dtype=float)
    n = z.shape[-1] if z.ndim else 0
    h = ar_long_order(n) if n >= 4 else 0
    t0 = max(h + ma, ar)
    if h < 1 or n - t0 < ar + ma + 1:
        raise InsufficientHistory(
            f"series of length {n} too short for ARMA({ar}, {ma}) estimation"
        )
    lead = z.shape[:-1]
    rows = z.reshape(-1, n)
    # A row's stage-1 design (see _design) is n - h by h + 2 floats.
    step = max(1, pipeline.CHUNK_BYTES // ((n - h) * (h + 2) * 8))
    fits = [_fit_rows(rows[lo:lo + step], ar, ma, h)
            for lo in range(0, len(rows) or 1, step)]
    beta = np.concatenate([b for b, _ in fits])
    sigma2 = np.concatenate([v for _, v in fits])
    # beta is intercept, psi_ma .. psi_1, phi_ar .. phi_1 (see _design).
    phi = beta[:, :ma:-1]
    psi, sigma2 = _reflect_ma_roots(beta[:, ma:0:-1], sigma2)
    coef = SaCoefficients(
        phi=phi.reshape(lead + (ar,)),
        psi=psi.reshape(lead + (ma,)),
        intercept=beta[:, 0].reshape(lead),
        sigma2=sigma2.reshape(lead),
    )
    if lead:
        return coef
    if not np.isfinite(beta).all():
        raise SingularSystem("stage-2 least squares produced non-finite coefficients")
    return replace(coef, intercept=float(coef.intercept), sigma2=float(coef.sigma2))


# A stage system whose Gram matrix has its smallest eigenvalue at or below
# this fraction of its trace is solved by lstsq on its design instead (see
# _least_squares). Above it the Gram matrix has a condition number below
# 1e6, so its normal equations lose at most about 1e-10 relative to lstsq.
# On synthetic corpora the smallest ratio seen was 7e-6 (2000 x 336 and
# 300 x 2160, seed 1).
GRAM_RCOND = 1e-6


def _fit_rows(z: np.ndarray, ar: int, ma: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Both stages for the rows of ``z`` (B, n): ``(beta, sigma2)``.

    ``beta`` is (B, 1 + ma + ar), ordered as the stage-2 `_design`. Each
    row is scaled by a power of two, which is exact, so that its largest
    magnitude lies in [0.5, 1): the Gram matrices of huge series stay
    finite. The intercept and sigma2 are scaled back at the end. Rows that
    are not finite get NaN.
    """
    n = z.shape[1]
    finite = np.isfinite(z).all(axis=1)
    z = np.where(finite[:, None], z, 0.0)
    _, k = np.frexp(np.abs(z).max(axis=1))
    z = np.ldexp(z, -k[:, None])

    x1 = _design(z, h, h)
    e = np.zeros_like(z)
    e[:, h:] = _residuals(x1, _least_squares(x1, k))

    t0 = max(h + ma, ar)
    x2 = _design(z, ar, t0, e, ma)
    beta = _least_squares(x2, k)
    r = _residuals(x2, beta)
    with np.errstate(over="ignore"):
        beta[:, 0] = np.ldexp(beta[:, 0], k)
        sigma2 = np.ldexp(np.einsum("ij,ij->i", r, r) / (n - t0), 2 * k)
    beta[~finite] = np.nan
    sigma2[~finite] = np.nan
    return beta, sigma2


def _design(
    z: np.ndarray, p: int, t0: int, e: np.ndarray | None = None, q: int = 0
) -> np.ndarray:
    """``[1 | e_{t-q} .. e_{t-1} | z_{t-p} .. z_{t-1} | z_t]`` for t = t0..n-1.

    Returns (B, n - t0, q + p + 2), one design per row of ``z``: the
    regressors, then the target column. Both blocks of lags are windows of
    their series, oldest first.
    """
    b, n = z.shape
    x = np.empty((b, n - t0, q + p + 2))
    x[..., 0] = 1.0
    if q:
        x[..., 1:1 + q] = sliding_window_view(e, q, axis=1)[:, t0 - q:n - q]
    x[..., 1 + q:] = sliding_window_view(z, p + 1, axis=1)[:, t0 - p:n - p]
    return x


def _residuals(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Target minus fit for each design of ``x`` (B, m, p + 1)."""
    coef = np.concatenate([-beta, np.ones((beta.shape[0], 1))], axis=1)
    return np.matmul(x, coef[:, :, None])[..., 0]


def _least_squares(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of each design of ``x`` (B, m, p + 1).

    The last column is the target. Each system is solved by its normal
    equations: one stacked Gram product and one stacked `np.linalg.solve`.
    A row whose Gram matrix is singular or badly conditioned (see
    `GRAM_RCOND`) is solved by `np.linalg.lstsq` on its unscaled design,
    the columns after the first times ``2**k``: the minimum-norm answer of
    a rank-deficient system, as a per-row fit would give.
    """
    gram = np.matmul(x.transpose(0, 2, 1), x)
    g, b = gram[:, :-1, :-1], gram[:, :-1, -1:]
    ok = _well_conditioned(g)
    beta = np.empty(b.shape[:2])
    beta[ok] = np.linalg.solve(g[ok], b[ok])[..., 0]
    for i in np.flatnonzero(~ok):
        raw = np.ldexp(x[i, :, 1:], k[i])
        try:
            beta[i], *_ = np.linalg.lstsq(
                np.column_stack([x[i, :, 0], raw[:, :-1]]), raw[:, -1], rcond=None
            )
        except np.linalg.LinAlgError:
            beta[i] = np.nan
        beta[i, 0] = np.ldexp(beta[i, 0], -k[i])
    return beta


def _well_conditioned(g: np.ndarray) -> np.ndarray:
    """For each Gram matrix of ``g``: is its smallest eigenvalue above
    `GRAM_RCOND` times its trace?

    One Cholesky factorization of the stack shifted by that bound answers
    yes for every matrix at once, at about a third of the cost of the
    eigenvalues (0.05 s of `train_sa` at 2000 x 336); only a stack in which
    it fails gets `np.linalg.eigvalsh`.
    """
    shifted = g.copy()
    diagonal = shifted.reshape(-1, g.shape[1] ** 2)[:, ::g.shape[1] + 1]
    limit = GRAM_RCOND * diagonal.sum(axis=1)
    diagonal -= limit[:, None]
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(g)[:, 0] > limit
    return np.ones(len(g), dtype=bool)


def train_sa(
    t: TrafficMatrix,
    ar: int = 2,
    ma: int = 1,
    s: int = 24,
    train_hours: int = 240,
) -> SaModel:
    """Fit one ARMA(ar, ma) per station on traffic differenced at lag s.

    The differenced fleet is fitted by one `hannan_rissanen` call. Stations
    whose coefficients are not finite are recorded in ``failed_bs`` and
    excluded, not fatal to the run.
    """
    train = training_slice(t, train_hours)
    if train_hours < s + ar + ma + 20:
        raise InsufficientHistory(
            f"training range {train_hours} shorter than s + ar + ma + 20 = "
            f"{s + ar + ma + 20}"
        )
    c = hannan_rissanen(seasonal_difference(train, s).values, ar, ma)
    fitted = (
        np.isfinite(c.phi).all(axis=1)
        & np.isfinite(c.psi).all(axis=1)
        & np.isfinite(c.intercept)
    )
    return SaModel(
        bs_ids=list(compress(t.bs_ids, fitted)),
        coef=SaCoefficients(
            c.phi[fitted], c.psi[fitted], c.intercept[fitted], c.sigma2[fitted]
        ),
        seasonality=s,
        ar_order=ar,
        ma_order=ma,
        failed_bs=list(compress(t.bs_ids, ~fitted)),
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
    index = dict(zip(model.bs_ids, range(len(model.bs_ids))))  # bs_id -> model row
    failed = set(model.failed_bs)
    missing = [bs for bs in t.bs_ids if bs not in index and bs not in failed]
    if missing:
        raise UnknownBs(f"no fitted model for {missing[0]!r}")
    ids, rows = t.bs_ids, None
    if any(bs in failed for bs in ids):
        rows = np.array([i for i, bs in enumerate(ids) if bs in index], dtype=np.intp)
        ids = [ids[i] for i in rows]
    at, c = np.array([index[bs] for bs in ids], dtype=np.intp), model.coef
    phi, psi, intercept = c.phi[at], c.psi[at], c.intercept[at]
    s, ar, ma = model.seasonality, model.ar_order, model.ma_order
    n = len(at)

    check_horizon(t, start, k, mode, s + ar)
    base = start - s  # index of the first horizon hour on the differenced scale
    forecast = np.empty((n, k))

    def column(l: int) -> np.ndarray:
        """Hour ``l`` of the fitted stations, read in place: recorded traffic,
        or the forecast once a recursive horizon has made one."""
        if mode == "recursive" and l >= start:
            return forecast[:, l - start]
        return t.values[:, l] if rows is None else t.values[rows, l]

    # The last ar differences z and the last ma residuals e, oldest first.
    # Residuals before hour ar, and those of recursive forecast hours, are 0.
    zero = np.zeros(n)
    z = deque((column(s + tt) - column(tt) for tt in range(ar)), maxlen=ar)
    e = deque([zero] * ma, maxlen=ma)
    for tt in range(ar, base + k):
        zhat = intercept.copy()
        for j in range(1, ar + 1):
            zhat += phi[:, j - 1] * z[-j]
        for j in range(1, ma + 1):
            if tt - j >= 0:
                zhat += psi[:, j - 1] * e[-j]
        if tt < base or mode == "one_step":
            diff = column(s + tt) - column(tt)
            z.append(diff)
            e.append(diff - zhat)
        else:  # a forecast hour
            z.append(zhat)
            e.append(zero)
        if tt < base:
            continue
        step = tt - base
        forecast[:, step] = zhat + column(start + step - s)
    return horizon_series(t, start, forecast, mode, rows)
