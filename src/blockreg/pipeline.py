"""Feature pipeline: seasonal differencing, window sliding, normalization.

Turns a cleaned traffic matrix into a normalized regression problem. The
stages are pure and deterministic; window rows are ordered by
(bs_index, target_hour) regardless of how the work is scheduled.
Normalization statistics come from per-column sums of the differenced
matrix, and training's sums over windows from lag sums of it
(`_lag_gram`), so fitting and training build no window.
"""

from __future__ import annotations

from collections.abc import Iterator
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

# Work on the fleet goes a block of stations at a time: a block holds as
# many stations as fit their working data (their rows of the differenced
# matrix in the normalization fit and the lag sums of training, or the
# windows of a one_step horizon and their normalized copy, as float64) into
# this many bytes, and at least one. So no stage holds a copy the size of
# the whole matrix or design.
CHUNK_BYTES = 1024 * 1024


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
    # One copy each, never a view of d: `np.ascontiguousarray` would hand
    # back one station's targets uncopied.
    x = np.array(windows[:, :, :w], order="C").reshape(n_bs * per_bs, w)
    y = np.array(windows[:, :, w], order="C").reshape(n_bs * per_bs)
    bs_idx = np.repeat(np.arange(n_bs), per_bs)
    target_col = np.tile(np.arange(w, d.n_cols) + d.seasonality_m, n_bs)
    provenance = np.column_stack([bs_idx, target_col])
    return FeatureSet(x=x, y=y, provenance=provenance, window_w=w)


def fit_normalization(d: DifferencedMatrix, w: int) -> NormalizationStats:
    """Column means and sample standard deviations of the window samples.

    The samples are those `slide_windows` makes from ``d`` at width ``w``,
    but no window is built. With P positions per station, window column j
    (feature j, or the target at ``j = w``) holds the matrix columns j to
    j + P - 1 of every station, so its stats follow from each matrix
    column's mean and sum of squared deviations: the window's mean is the
    mean of its columns' means, and its sum of squares adds its columns'
    sums and N times the squared spread of their means about that mean.
    Those column moments take one pass over ``d`` a block of stations at a
    time, as values less one scalar shift ``c = d.values[0, w]``, a value
    of the target column. The shift keeps a large common level out of the
    sums, and a constant matrix has exactly zero deviation.
    """
    per_bs = _positions(d, w)
    n = d.n_bs * per_bs
    if n < 2:
        raise InsufficientSamples(
            f"normalization needs at least 2 samples, got {n}"
        )
    c = d.values[0, w]
    col_mean, col_m2 = _column_moments(d.values, c)
    mu = np.empty(w + 1)
    m2 = np.empty(w + 1)
    for j in range(w + 1):
        means = col_mean[j:j + per_bs]
        mu[j] = means.mean()
        spread = means - mu[j]
        m2[j] = col_m2[j:j + per_bs].sum() + d.n_bs * (spread @ spread)
    mu += c
    sigma = np.sqrt(m2 / (n - 1))
    sigma[sigma == 0.0] = 1.0
    return NormalizationStats(
        mu_x=mu[:-1], sigma_x=sigma[:-1], mu_y=float(mu[-1]), sigma_y=float(sigma[-1])
    )


def _row_blocks(
    values: np.ndarray, c: float, e: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(lo, (values[lo:lo + n] - c) * 2**-e)`` for blocks of n rows.

    A block holds as many rows as fit `CHUNK_BYTES`, and at least one; every
    block is written into one reused buffer, so a consumer must be done
    with a block before it asks for the next.
    """
    n_rows, n_cols = values.shape
    step = max(1, min(n_rows, CHUNK_BYTES // (n_cols * 8)))
    buffer = np.empty((step, n_cols))
    for lo in range(0, n_rows, step):
        rows = values[lo:lo + step]
        block = np.subtract(rows, c, out=buffer[:rows.shape[0]])
        np.ldexp(block, -e, out=block)
        yield lo, block


def _column_moments(values: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Per column of ``values - c``: the mean and the sum of squared deviations.

    Reads ``values`` once, a block of rows at a time (`_row_blocks`), and
    merges each block's moments into the running ones (Chan, Golub and
    LeVeque's pairwise update).
    """
    n_cols = values.shape[1]
    mean = np.zeros(n_cols)
    m2 = np.zeros(n_cols)
    for lo, block in _row_blocks(values, c, 0):
        k = block.shape[0]
        block_mean = block.sum(axis=0) / k
        block -= block_mean
        block *= block
        delta = block_mean - mean
        mean += delta * (k / (lo + k))
        m2 += block.sum(axis=0) + delta * delta * (lo * k / (lo + k))
    return mean, m2


def apply_normalization(f: FeatureSet, s: NormalizationStats) -> FeatureSet:
    """Normalize features and target columns with previously fitted stats."""
    if s.mu_x.shape != (f.window_w,) or s.sigma_x.shape != (f.window_w,):
        raise DimensionMismatch(
            f"stats cover {s.mu_x.shape[0]} columns, features have {f.window_w}"
        )
    # Dividing in the arrays the subtractions make saves a temporary of each.
    x = f.x - s.mu_x
    x /= s.sigma_x
    y = f.y - s.mu_y
    y /= s.sigma_y
    return FeatureSet(x=x, y=y, provenance=f.provenance, window_w=f.window_w)


def _lag_gram(
    values: np.ndarray, w: int, c: float, e: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and column sums of the windows of ``(values - c) * 2**-e``.

    The windows are those `slide_windows` makes at width w, features then
    target, over all rows; none is built. With C columns and P = C - w
    positions, window entry (i, i + l) is the sum of the lag-l products
    r_l[q] = sum over rows of v[:, q] * v[:, q + l] for q in [i, i + P).
    One pass over the row blocks (`_row_blocks`) adds every r_l, a column
    product per lag, and a width-P sliding sum of each lag's products then
    gives its window entries, as one of the column sums gives the window
    sums: O(N C k) for N rows and k = w + 1. The sums only add, so a spike
    in a column some windows leave out never cancels in theirs; ``c`` and
    ``e`` keep a common level and the exponent range out of them.
    """
    n_cols = values.shape[1]
    k, per_bs = w + 1, n_cols - w
    products = np.zeros((k, n_cols))  # products[l, q] = r_l[q], 0 past C - l
    totals = np.zeros(n_cols)
    for _, v in _row_blocks(values, c, e):
        totals += v.sum(axis=0)
        for lag in range(k):
            products[lag, :n_cols - lag] += np.einsum(
                "ij,ij->j", v[:, :n_cols - lag], v[:, lag:])
    window = np.lib.stride_tricks.sliding_window_view
    band = window(products, per_bs, axis=1).sum(axis=2)  # band[l, i]: entry (i, i + l)
    i, j = np.triu_indices(k)
    gram = np.empty((k, k))
    gram[i, j] = gram[j, i] = band[j - i, i]
    return gram, window(totals, per_bs).sum(axis=1)
