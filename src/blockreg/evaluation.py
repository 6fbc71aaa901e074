"""Forecast scoring and fleet-level experiments.

NRMSE is the root mean squared forecast error divided by the mean of the
actual series. Reports aggregate one score per station; the seasonality
sweep trains and scores one differenced block model per candidate lag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .baselines import SaModel, forecast_sa
from .corpus import TrafficMatrix
from .errors import (
    BlockregError,
    EmptyCorpus,
    InvalidConfig,
    LengthMismatch,
    Overflow,
    ZeroMeanActual,
)
from .forecaster import MODES, ForecastSeries, forecast_horizon, train_block_regression
from .regressor import BlockModel

HISTOGRAM_BIN_WIDTH = 0.1
HISTOGRAM_OPEN_LOWER = 1.0


@dataclass(frozen=True)
class Split:
    """Train/test partition in hours; test immediately follows training."""

    train_hours: int = 240
    test_hours: int = 96

    def validate(self, n_hours: int) -> None:
        if self.train_hours < 1 or self.test_hours < 1:
            raise InvalidConfig(
                f"split hours must be positive, got {self.train_hours}/{self.test_hours}"
            )
        if self.train_hours + self.test_hours > n_hours:
            raise InvalidConfig(
                f"split {self.train_hours}+{self.test_hours} exceeds corpus "
                f"length {n_hours}"
            )


@dataclass
class HistogramBin:
    lower: float
    upper: float | None  # None marks the terminal open bin
    count: int


@dataclass
class EvalReport:
    """Per-station NRMSE scores with fleet aggregates."""

    per_bs: dict[str, float]
    average: float
    excluded_count: int
    histogram: list[HistogramBin]
    config: dict


@dataclass
class SweepPoint:
    seasonality_m: int
    average_nrmse: float | None
    error: str | None = None


@dataclass
class SweepResult:
    points: list[SweepPoint] = field(default_factory=list)

    def best_m(self) -> int:
        scored = [p for p in self.points if p.average_nrmse is not None]
        if not scored:
            raise EmptyCorpus("no sweep point produced a score")
        return min(scored, key=lambda p: p.average_nrmse).seasonality_m


def nrmse(actual: np.ndarray, forecast: np.ndarray, *, rows: bool = False):
    """sqrt(mean squared error) divided by mean(actual).

    With ``rows``, ``actual`` and ``forecast`` are ``(n, k)`` and the result
    is the ``(n,)`` array of the rows' scores, each computed as a 1-D call
    computes it. A zero mean raises ZeroMeanActual, and a score that
    overflows the float range raises Overflow.
    """
    actual = np.asarray(actual, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    if (
        actual.shape != forecast.shape
        or actual.ndim != 1 + rows
        or actual.shape[-1] == 0
    ):
        raise LengthMismatch(
            f"actual has shape {actual.shape}, forecast {forecast.shape}"
        )
    mean = actual.mean(axis=-1)
    if np.any(mean == 0.0):
        raise ZeroMeanActual("mean of actual series is zero")
    err = actual - forecast
    err *= err
    score = np.sqrt(np.mean(err, axis=-1)) / mean
    overflow = ~np.isfinite(score)
    if np.any(overflow):
        worst = float(score[overflow][0] if rows else score)
        raise Overflow(f"NRMSE is {worst}: the forecast errors overflow the float range")
    return score if rows else float(score)


def histogram(values: list[float]) -> list[HistogramBin]:
    """Fixed bins of width 0.1 over [0, 1) plus one open bin for >= 1.

    Raises InvalidConfig naming the first value that is negative or NaN.
    """
    bins = [
        HistogramBin(round(i * HISTOGRAM_BIN_WIDTH, 1),
                     round((i + 1) * HISTOGRAM_BIN_WIDTH, 1), 0)
        for i in range(10)
    ]
    bins.append(HistogramBin(HISTOGRAM_OPEN_LOWER, None, 0))
    for v in values:
        if not v >= 0:
            raise InvalidConfig(f"histogram values must be >= 0, got {v!r}")
        if v >= HISTOGRAM_OPEN_LOWER:
            bins[-1].count += 1
        else:
            bins[min(int(v * 10), 9)].count += 1
    return bins


def _model_config(model) -> dict:
    if isinstance(model, BlockModel):
        return {"kind": model.kind, "m": model.seasonality_m, "w": model.window_w}
    if isinstance(model, SaModel):
        return {
            "kind": "sa",
            "seasonality": model.seasonality,
            "ar": model.ar_order,
            "ma": model.ma_order,
        }
    raise InvalidConfig(f"cannot evaluate model of type {type(model).__name__}")


def forecast_fleet(
    model, t: TrafficMatrix, start: int, k: int, mode: str = "one_step"
) -> ForecastSeries:
    """Forecast k hours from corpus column ``start`` for every station.

    Rows follow corpus order. Stations whose SA fit failed have no
    coefficients and get no row. Raises UncleanCorpus if the corpus has a
    missing entry, and Overflow if a forecast is not finite.
    """
    t.require_clean()
    if isinstance(model, SaModel):
        fs = forecast_sa(model, t, start, k, mode)
    else:
        fs = forecast_horizon(model, t, start, k, mode)
    if not np.isfinite(fs.forecast).all():
        raise Overflow("forecasts overflow the float range")
    return fs


def _check_run(t: TrafficMatrix, split: Split, mode: str) -> None:
    """Checks every scoring run makes before any model work."""
    t.require_clean()
    if mode not in MODES:
        raise InvalidConfig(f"mode must be one of {MODES}, got {mode!r}")
    split.validate(t.n_hours)


def evaluate(
    model,
    t: TrafficMatrix,
    split: Split = Split(),
    mode: str = "one_step",
    seed: int | None = None,
) -> EvalReport:
    """Score a model on the test period of a cleaned corpus.

    The fleet is forecast over the test horizon in one call and scored in
    one `nrmse` call over its rows; stations whose test-period mean is not
    positive, and stations whose SA fit failed, are excluded from the
    scores and counted.
    ``seed`` is recorded in the report config for provenance only.
    """
    _check_run(t, split, mode)
    config = _model_config(model)
    config.update(
        {
            "train_hours": split.train_hours,
            "test_hours": split.test_hours,
            "mode": mode,
            "seed": seed,
        }
    )

    fs = forecast_fleet(model, t, split.train_hours, split.test_hours, mode)
    scored = fs.actual.mean(axis=1) > 0.0
    if not scored.any():
        raise EmptyCorpus("no station produced a score")
    actual, forecast = fs.actual, fs.forecast
    if not scored.all():  # copies the scored rows only when some are left out
        actual, forecast = actual[scored], forecast[scored]
    scores = nrmse(actual, forecast, rows=True)
    per_bs = dict(zip(compress(fs.bs_ids, scored.tolist()), scores.tolist()))
    excluded = t.n_bs - len(per_bs)
    average = float(np.mean(list(per_bs.values())))
    return EvalReport(
        per_bs=per_bs,
        average=average,
        excluded_count=excluded,
        histogram=histogram(list(per_bs.values())),
        config=config,
    )


def sweep_seasonality(
    t: TrafficMatrix,
    seasonalities: list[int],
    w: int = 3,
    split: Split = Split(),
    mode: str = "one_step",
) -> SweepResult:
    """Train and score one differenced block model per candidate lag.

    A lag that cannot be trained or scored is recorded as a failed point with
    its error message; the other points are still computed. Settings that
    fail at every lag (corpus, ``w``, split, mode) raise before the first.
    """
    _check_run(t, split, mode)
    if w < 1:
        raise InvalidConfig(f"window w must be >= 1, got {w}")
    if not seasonalities:
        raise InvalidConfig("seasonality grid is empty")
    if any(m < 1 for m in seasonalities):
        raise InvalidConfig("seasonalities must be positive")
    if any(b <= a for a, b in zip(seasonalities, seasonalities[1:])):
        raise InvalidConfig("seasonalities must be strictly increasing")
    result = SweepResult()
    for m in seasonalities:
        try:
            model, _ = train_block_regression(
                t, m=m, w=w, train_hours=split.train_hours
            )
            report = evaluate(model, t, split=split, mode=mode)
            result.points.append(SweepPoint(m, report.average))
        except BlockregError as exc:
            result.points.append(
                SweepPoint(m, None, error=f"{type(exc).__name__}: {exc}")
            )
    return result


def report_doc(report: EvalReport) -> dict:
    """Report as a JSON-ready document; stations sorted by id."""
    return {
        "config": report.config,
        "average": report.average,
        "excluded_count": report.excluded_count,
        "per_bs": {bs: report.per_bs[bs] for bs in sorted(report.per_bs)},
        "histogram": [
            {"lower": b.lower, "upper": b.upper, "count": b.count}
            for b in report.histogram
        ],
    }


def sweep_doc(result: SweepResult) -> list[dict]:
    docs = []
    for p in result.points:
        doc: dict = {"m": p.seasonality_m, "average_nrmse": p.average_nrmse}
        if p.error is not None:
            doc["error"] = p.error
        docs.append(doc)
    return docs


def report_csv(report: EvalReport) -> str:
    lines = ["bs_id,nrmse"]
    lines += [f"{bs},{report.per_bs[bs]!r}" for bs in sorted(report.per_bs)]
    return "\n".join(lines) + "\n"


def sweep_csv(result: SweepResult) -> str:
    lines = ["m,average_nrmse"]
    for p in result.points:
        value = "" if p.average_nrmse is None else repr(p.average_nrmse)
        lines.append(f"{p.seasonality_m},{value}")
    return "\n".join(lines) + "\n"
