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

    Differences at lag m (m = 0 skips differencing), fits normalization on
    the training samples only, slides windows of width w over chunks of
    stations, normalizes each chunk and adds it into one `NormalSystem`, and
    trains by conjugate gradient on that system. The model carries the
    fitted stats and the lag m, which forecasting needs.
    """
    train = training_slice(t, train_hours)
    if m < 0:
        raise InvalidConfig(f"seasonality m must be >= 0, got {m}")
    d = seasonal_difference(train, m) if m > 0 else identity_difference(train)
    stats = fit_normalization(d, w)
    system = _accumulate(d, w, stats)
    model, diag = train_cg(system)
    return replace(model, stats=stats, seasonality_m=m), diag


def _accumulate(
    d: DifferencedMatrix, w: int, stats: NormalizationStats
) -> NormalSystem:
    """Window, normalize and add every station of ``d``, one chunk at a time.

    Each sample is windowed exactly once.
    """
    station_bytes = (d.n_cols - w) * (w + 1) * 8
    step = max(1, pipeline.CHUNK_BYTES // station_bytes)
    system = NormalSystem.empty(w)
    for lo in range(0, d.n_bs, step):
        # No name holds a chunk's windows, so they are freed before the next
        # chunk is windowed.
        system.add(apply_normalization(slide_windows(d.rows(lo, lo + step), w), stats))
    return system


def _window_features(model: BlockModel, hist: np.ndarray) -> np.ndarray:
    """Differenced lags for the w hours before the forecast target."""
    m, w = model.seasonality_m, model.window_w
    if m > 0:
        return hist[..., m:m + w] - hist[..., :w]
    return hist[..., -w:]


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
    z = model.theta0 + xhat @ model.theta
    value = model.stats.mu_y + z * model.stats.sigma_y
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

    One loop over the horizon hours serves the whole fleet: each step reads
    the m + w hours before it from a working matrix of the m + w hours
    before ``start`` and the horizon, and forecasts one column. one_step:
    every lag and the t_{l-m} term read recorded actuals, so the corpus must
    cover the whole horizon, and the working matrix is a read-only view of
    it. recursive: the working matrix is a copy, each step's forecasts are
    written into its horizon and read by later steps, and the horizon may
    extend past the end of the corpus.
    """
    need = model.seasonality_m + model.window_w
    check_horizon(t, start, k, mode, need)
    if mode == "one_step":
        working = t.values[:, start - need:start + k]
        working.flags.writeable = False
    else:
        working = np.empty((t.n_bs, need + k))
        working[:, :need] = t.values[:, start - need:start]
    forecast = np.empty((t.n_bs, k))
    for j in range(k):
        forecast[:, j] = forecast_one(model, working[:, j:j + need])
        if mode == "recursive":
            working[:, need + j] = forecast[:, j]
    return horizon_series(t, start, forecast, mode)
