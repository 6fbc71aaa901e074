"""Forecast reconstruction for the differenced block model.

A forecast for hour l is the denormalized model output plus the traffic
observed m hours earlier:

    t~_l = mu_y + (theta0 + sum_j theta_j xhat_j) * sigma_y + t_{l-m}

where the features xhat are the normalized differenced values at hours
l-w .. l-1. One-step mode reads recorded actuals for every lag; recursive
mode substitutes earlier forecasts once a lag falls inside the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import pipeline
from .corpus import TrafficMatrix
from .errors import InsufficientHistory, InvalidConfig
from .pipeline import (
    DifferencedMatrix,
    NormalizationStats,
    apply_normalization,
    fit_normalization,
    identity_difference,
    seasonal_difference,
    slide_windows,
)
from .regressor import BlockModel, NormalSystem, TrainingDiagnostics, train_cg

MODES = ("one_step", "recursive")


@dataclass
class ForecastSeries:
    """Forecasts for a fleet of stations over a contiguous range of hours.

    Row i of ``forecast`` and ``actual`` belongs to ``bs_ids[i]``, so one
    station's forecast is a row slice. ``actual`` is None when the horizon
    runs past the end of the corpus.
    """

    bs_ids: list[str]
    hours: np.ndarray  # (k,) absolute hour indices
    forecast: np.ndarray  # (n, k)
    actual: np.ndarray | None  # (n, k)
    mode: str


def training_slice(t: TrafficMatrix, train_hours: int) -> TrafficMatrix:
    """The first ``train_hours`` columns of the clean corpus ``t``, as a view."""
    t.require_clean()
    if not 0 < train_hours <= t.n_hours:
        raise InvalidConfig(
            f"train_hours={train_hours} outside corpus length {t.n_hours}"
        )
    return replace(t, values=t.values[:, :train_hours])


def train_block_regression(
    t: TrafficMatrix,
    m: int,
    w: int,
    train_hours: int,
) -> tuple[BlockModel, TrainingDiagnostics]:
    """Full training pipeline over the first ``train_hours`` columns.

    Differences at lag m (m = 0 skips differencing) and fits normalization
    on the training samples only. The `NormalSystem` of the normalized
    width-w windows then comes from lag sums of the differenced matrix
    (`_normal_system`), so no window is built, and conjugate gradient
    trains on it. The model carries the fitted stats and the lag m, which
    forecasting needs.
    """
    train = training_slice(t, train_hours)
    if m < 0:
        raise InvalidConfig(f"seasonality m must be >= 0, got {m}")
    d = seasonal_difference(train, m) if m > 0 else identity_difference(train)
    stats = fit_normalization(d, w)
    model, diag = train_cg(_normal_system(d, w, stats))
    return replace(model, stats=stats, seasonality_m=m), diag


def _normal_system(
    d: DifferencedMatrix, w: int, stats: NormalizationStats
) -> NormalSystem:
    """The `NormalSystem` of the windows of ``d``, normalized by ``stats``.

    `pipeline._lag_gram` sums the windows less the mean c of the column with
    the least deviation, scaled by the power of two 2^-e nearest the largest
    deviation; each column's mean and deviation, shifted and scaled alike,
    then map those sums onto the normalized ones. Any other column's mean
    differs from c by about its own deviation, so the map cancels little.
    """
    mu = np.r_[stats.mu_x, stats.mu_y]
    sigma = np.r_[stats.sigma_x, stats.sigma_y]
    c = mu[np.argmin(sigma)]
    _, e = np.frexp(sigma.max())
    gram, sums = pipeline._lag_gram(d.values, w, c, e)
    n = d.n_bs * (d.n_cols - w)
    a = np.ldexp(mu - c, -e)
    scale = np.ldexp(sigma, -e)
    # sum (u_i - a_i)(u_j - a_j) = gram - a_i s_j - s_i a_j + n a_i a_j, with
    # the middle terms as cross + cross.T, which is symmetric bit for bit.
    cross = np.outer(a, sums - 0.5 * n * a)
    centred = gram - (cross + cross.T)
    # The Gram of [1 | xhat | yhat] holds A^T A, A^T y and y^T y for A = [1 | xhat].
    full = np.empty((w + 2, w + 2))
    full[0, 0] = n
    full[0, 1:] = full[1:, 0] = (sums - n * a) / scale
    full[1:, 1:] = centred / np.outer(scale, scale)
    return NormalSystem(w, full[:-1, :-1], full[-1, :-1], float(full[-1, -1]), n)


def _window_features(model: BlockModel, hist: np.ndarray) -> np.ndarray:
    """Differenced lags for the w hours before the forecast target."""
    m, w = model.seasonality_m, model.window_w
    if m > 0:
        return hist[..., m:m + w] - hist[..., :w]
    return hist[..., -w:]


def _predict(model: BlockModel, xhat: np.ndarray) -> np.ndarray:
    """``mu_y + (theta0 + xhat @ theta) * sigma_y`` for each row of ``xhat``.

    The denormalized differenced forecast of normalized features, rounded
    the same for a row wherever it sits: BLAS's matrix-vector product sums
    the trailing rows of a matrix in another order than the others, so one
    window would round differently in a one_step block than in one hour of
    the fleet; einsum sums each row on its own.
    """
    z = model.theta0 + np.einsum("...j,j->...", xhat, model.theta)
    return model.stats.mu_y + z * model.stats.sigma_y


def forecast_one(model: BlockModel, history: np.ndarray) -> float | np.ndarray:
    """Forecast the hour immediately after ``history``.

    ``history`` has shape (..., L) and must cover at least the m + w hours
    preceding the target (w hours for an undifferenced model); only that
    suffix of the last axis is used. A 1-D history gives one float, a
    (N, L) history one forecast per row.
    """
    m, w = model.seasonality_m, model.window_w
    need = m + w
    history = np.asarray(history, dtype=float)
    if history.ndim == 0 or history.shape[-1] < need:
        got = history.shape[-1] if history.ndim else 0
        raise InsufficientHistory(f"need {need} preceding hours, got {got}")
    hist = history[..., -need:]
    lags = _window_features(model, hist)
    # In C order whatever the layout of ``history``, so that the product
    # with theta sums in one order for a view of the corpus and for a copy.
    xhat = np.subtract(lags, model.stats.mu_x, order="C")
    # Divided in place: two (n, w) temporaries freed together hand their
    # memory back to the OS, and every hour of a horizon faults it in again.
    xhat /= model.stats.sigma_x
    value = _predict(model, xhat)
    if m > 0:
        value = value + hist[..., w]
    return value


def check_horizon(t: TrafficMatrix, start: int, k: int, mode: str, need: int) -> None:
    """Check a k-hour horizon from column ``start`` of the corpus ``t``.

    Every forecast reads the ``need`` hours before ``start``. one_step reads
    recorded actuals in every column, so the corpus must cover the whole
    horizon; a recursive horizon may extend past the end of the corpus, but
    may not start past it, and the ``need + k`` hours of every station must
    fit in the address space.
    """
    n_hours = t.n_hours
    if mode not in MODES:
        raise InvalidConfig(f"mode must be one of {MODES}, got {mode!r}")
    if k < 1:
        raise InvalidConfig(f"horizon k must be >= 1, got {k}")
    if start < need:
        raise InsufficientHistory(
            f"start column {start} leaves less than {need} hours of history"
        )
    if start > n_hours:
        raise InsufficientHistory(
            f"start column {start} is past the corpus end at {n_hours}"
        )
    if mode == "one_step" and start + k > n_hours:
        raise InsufficientHistory(
            f"one_step horizon [{start}, {start + k}) exceeds corpus length {n_hours}"
        )
    if t.n_bs * (need + k) * 8 > np.iinfo(np.intp).max:
        raise InvalidConfig(
            f"a {k}-hour horizon of {t.n_bs} stations exceeds the address space")


def horizon_series(
    t: TrafficMatrix,
    start: int,
    forecast: np.ndarray,
    mode: str,
    rows: np.ndarray | None = None,
) -> ForecastSeries:
    """Wrap an (n, k) forecast for the stations of ``t`` with hours and actuals.

    With ``rows``, the forecast belongs to those rows of ``t`` only. The
    actuals are a read-only view of the corpus, or with ``rows`` a copy of
    the horizon.
    """
    k = forecast.shape[1]
    actual = None
    if start + k <= t.n_hours:
        actual = t.values[:, start:start + k]
        if rows is not None:
            actual = actual[rows]
        actual.flags.writeable = False
    return ForecastSeries(
        bs_ids=list(t.bs_ids) if rows is None else [t.bs_ids[i] for i in rows],
        hours=t.start_hour + start + np.arange(k),
        forecast=forecast,
        actual=actual,
        mode=mode,
    )


def forecast_horizon(
    model: BlockModel,
    t: TrafficMatrix,
    start: int,
    k: int,
    mode: str = "one_step",
) -> ForecastSeries:
    """Forecast k hours beginning at corpus column ``start`` for every station.

    one_step: every lag and the t_{l-m} term read recorded actuals, so the
    corpus must cover the whole horizon, and the forecasts are the model
    applied to the windows that training's pipeline builds: a block of
    stations at a time, the m + w hours before ``start`` and the horizon are
    differenced, windowed and normalized (`_one_step`). recursive: one loop
    over the horizon hours serves the whole fleet; each step forecasts one
    column with `forecast_one` from a working copy of the m + w hours before
    ``start`` and the horizon, writes it into the horizon for later steps to
    read, and the horizon may extend past the end of the corpus.
    """
    need = model.seasonality_m + model.window_w
    check_horizon(t, start, k, mode, need)
    if mode == "one_step":
        return horizon_series(t, start, _one_step(model, t, start, k), mode)
    working = np.empty((t.n_bs, need + k))
    working[:, :need] = t.values[:, start - need:start]
    forecast = np.empty((t.n_bs, k))
    for j in range(k):
        forecast[:, j] = forecast_one(model, working[:, j:j + need])
        working[:, need + j] = forecast[:, j]
    return horizon_series(t, start, forecast, mode)


def _one_step(model: BlockModel, t: TrafficMatrix, start: int, k: int) -> np.ndarray:
    """The (n, k) one_step forecasts of a checked horizon, through the pipeline.

    A block holds as many stations as fit their k windows and the windows'
    normalized copy into `pipeline.CHUNK_BYTES`, and at least one. Window
    (i, j) holds the lags of hour ``start + j`` of station i, and `_predict`
    maps it to that hour's differenced forecast, as in `forecast_one`.
    """
    m, w = model.seasonality_m, model.window_w
    hours = t.values[:, start - m - w:start + k]
    step = max(1, pipeline.CHUNK_BYTES // (2 * k * (w + 1) * 8))
    forecast = np.empty((t.n_bs, k))
    for lo in range(0, t.n_bs, step):
        block = TrafficMatrix(t.bs_ids[lo:lo + step], hours[lo:lo + step])
        d = seasonal_difference(block, m) if m > 0 else identity_difference(block)
        f = apply_normalization(slide_windows(d, w), model.stats)
        value = _predict(model, f.x).reshape(-1, k)
        if m > 0:
            value = value + block.values[:, w:w + k]
        forecast[lo:lo + step] = value
    return forecast
