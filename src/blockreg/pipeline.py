"""Feature pipeline: seasonal differencing, window sliding, normalization.

Turns a cleaned traffic matrix into a normalized regression problem. The
stages are pure and deterministic; window rows are ordered by
(bs_index, target_hour) regardless of how the work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import TrafficMatrix
from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    InvalidConfig,
    SeasonalityTooLarge,
    WindowTooLarge,
)


@dataclass
class DifferencedMatrix:
    """Seasonally differenced traffic.

    ``values[i, k] = t[i, k + m] - t[i, k]`` for traffic ``t`` and a
    differencing lag ``m = seasonality_m``. ``seasonality_m == 0`` denotes the
    identity transform (values equal the traffic), used by the undifferenced
    baseline.
    """

    seasonality_m: int
    values: np.ndarray

    @property
    def n_bs(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def rows(self, lo: int, hi: int) -> "DifferencedMatrix":
        """Stations ``lo`` to ``hi - 1``, as a view of this matrix."""
        return DifferencedMatrix(self.seasonality_m, self.values[lo:hi])


@dataclass
class FeatureSet:
    """Windowed regression samples.

    Row r of ``x`` holds ``window_w`` consecutive differenced values, oldest
    first; ``y[r]`` is the value immediately after them. ``provenance[r]`` is
    ``(bs_index, target_col)`` where target_col indexes the *undifferenced*
    traffic column of the target hour.
    """

    x: np.ndarray
    y: np.ndarray
    provenance: np.ndarray
    window_w: int

    @property
    def n_samples(self) -> int:
        return self.y.shape[0]


@dataclass
class NormalizationStats:
    """Per-column affine normalization parameters.

    Sample standard deviations (divisor N_s - 1); zero deviations are stored
    as 1 so constant columns normalize to all zeros.
    """

    mu_x: np.ndarray
    sigma_x: np.ndarray
    mu_y: float
    sigma_y: float

    @classmethod
    def identity(cls, w: int) -> "NormalizationStats":
        return cls(np.zeros(w), np.ones(w), 0.0, 1.0)


def seasonal_difference(t: TrafficMatrix, m: int) -> DifferencedMatrix:
    """Subtract the value m hours earlier from every entry.

    Output column k equals ``t[:, k + m] - t[:, k]``; there are L - m columns.
    """
    L = t.n_hours
    if m < 1:
        raise InvalidConfig(f"seasonality m must be >= 1, got {m}")
    if m >= L:
        raise SeasonalityTooLarge(f"m={m} leaves no columns for L={L}")
    values = t.values[:, m:] - t.values[:, :-m]
    return DifferencedMatrix(seasonality_m=m, values=values)


def identity_difference(t: TrafficMatrix) -> DifferencedMatrix:
    """Wrap a matrix unchanged (m = 0), for the undifferenced baseline."""
    return DifferencedMatrix(seasonality_m=0, values=t.values)


def _positions(d: DifferencedMatrix, w: int) -> int:
    """Window positions per station for width w: L - m - w, at least 1."""
    n_cols = d.n_cols
    if w < 1:
        raise InvalidConfig(f"window w must be >= 1, got {w}")
    if w >= n_cols:
        raise WindowTooLarge(
            f"w={w} leaves no window positions for {n_cols} differenced columns"
        )
    return n_cols - w


def slide_windows(d: DifferencedMatrix, w: int) -> FeatureSet:
    """Enumerate every maximal window position over every station.

    For each station and each position p in [w, L - m) one sample is
    produced: features are the w values before p (oldest first), the target
    is the value at p. Exactly (L - m - w) * N rows, ordered by
    (bs_index, target position).
    """
    per_bs = _positions(d, w)
    n_bs = d.n_bs
    windows = np.lib.stride_tricks.sliding_window_view(d.values, w + 1, axis=1)
    x = windows[:, :, :w].reshape(n_bs * per_bs, w).copy()
    y = windows[:, :, w].reshape(n_bs * per_bs).copy()
    bs_idx = np.repeat(np.arange(n_bs), per_bs)
    target_col = np.tile(np.arange(w, d.n_cols) + d.seasonality_m, n_bs)
    provenance = np.column_stack([bs_idx, target_col])
    return FeatureSet(x=x, y=y, provenance=provenance, window_w=w)


def fit_normalization(d: DifferencedMatrix, w: int) -> NormalizationStats:
    """Column means and sample standard deviations of the window samples.

    The samples are those `slide_windows` makes from ``d`` at width ``w``,
    but no window is built: with P positions per station, feature column j
    of every window is the view ``d.values[:, j:j + P]`` and the target
    column is the view at ``j = w``, so the stats cost one column of
    temporaries.
    """
    per_bs = _positions(d, w)
    columns = [d.values[:, j:j + per_bs] for j in range(w + 1)]
    n = columns[0].size
    if n < 2:
        raise InsufficientSamples(
            f"normalization needs at least 2 samples, got {n}"
        )
    mu = np.array([c.mean() for c in columns])
    sigma = np.array([c.std(ddof=1) for c in columns])
    sigma[sigma == 0.0] = 1.0
    return NormalizationStats(
        mu_x=mu[:-1], sigma_x=sigma[:-1], mu_y=float(mu[-1]), sigma_y=float(sigma[-1])
    )


def apply_normalization(f: FeatureSet, s: NormalizationStats) -> FeatureSet:
    """Normalize features and target columns with previously fitted stats."""
    if s.mu_x.shape != (f.window_w,) or s.sigma_x.shape != (f.window_w,):
        raise DimensionMismatch(
            f"stats cover {s.mu_x.shape[0]} columns, features have {f.window_w}"
        )
    x = (f.x - s.mu_x) / s.sigma_x
    y = (f.y - s.mu_y) / s.sigma_y
    return FeatureSet(x=x, y=y, provenance=f.provenance, window_w=f.window_w)
