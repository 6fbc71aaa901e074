"""Reference training paths that build the windows.

This is the training pipeline as it was before training accumulated a
normal system per station chunk: one windowed copy of every sample, one
normalized copy, and the ``[1 | X]`` design whose Gram matrix CG solves.
`accumulate` is the chunked path that followed it, which windowed,
normalized and added one chunk of stations at a time, before training
summed lag products instead. Tests compare the lag-sum path in
``blockreg.forecaster`` against both. It also keeps the normalization fit
that read strided views of the differenced matrix, one window column at a
time, before the fit moved to per-column sums.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from blockreg import (
    FeatureSet,
    NormalizationStats,
    NormalSystem,
    TrafficMatrix,
    pipeline,
    train_cg,
)
from blockreg.errors import InsufficientSamples
from blockreg.pipeline import (
    DifferencedMatrix,
    _positions,
    identity_difference,
    seasonal_difference,
    slide_windows,
)


def fit_normalization(f: FeatureSet) -> NormalizationStats:
    mu_x = f.x.mean(axis=0)
    sigma_x = f.x.std(axis=0, ddof=1)
    sigma_x[sigma_x == 0.0] = 1.0
    mu_y = float(f.y.mean())
    sigma_y = float(f.y.std(ddof=1))
    if sigma_y == 0.0:
        sigma_y = 1.0
    return NormalizationStats(mu_x=mu_x, sigma_x=sigma_x, mu_y=mu_y, sigma_y=sigma_y)


def fit_normalization_views(d: DifferencedMatrix, w: int) -> NormalizationStats:
    """The stats of `slide_windows(d, w)` from one strided view per column.

    With P positions per station, window column j is the (N, P) view
    ``d.values[:, j:j + P]``; each gets a mean and a ``std(ddof=1)``.
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
    x = (f.x - s.mu_x) / s.sigma_x
    y = (f.y - s.mu_y) / s.sigma_y
    return FeatureSet(x=x, y=y, provenance=f.provenance, window_w=f.window_w)


def normal_system(f: FeatureSet) -> tuple[np.ndarray, np.ndarray]:
    """(A^T A, A^T y) for the design A = [1 | X]."""
    a = np.empty((f.n_samples, f.window_w + 1))
    a[:, 0] = 1.0
    a[:, 1:] = f.x
    return a.T @ a, a.T @ f.y


def differenced(t: TrafficMatrix, m: int, train_hours: int) -> DifferencedMatrix:
    """The first ``train_hours`` columns, differenced at lag m (none for 0)."""
    train = TrafficMatrix(
        bs_ids=t.bs_ids, values=t.values[:, :train_hours], start_hour=t.start_hour
    )
    return seasonal_difference(train, m) if m > 0 else identity_difference(train)


def normalized_samples(
    t: TrafficMatrix, m: int, w: int, train_hours: int
) -> tuple[FeatureSet, NormalizationStats]:
    """Every normalized training sample at once, and the stats used."""
    f = slide_windows(differenced(t, m, train_hours), w)
    stats = fit_normalization(f)
    return apply_normalization(f, stats), stats


def train_block_regression(t, m, w, train_hours):
    f_hat, stats = normalized_samples(t, m, w, train_hours)
    model, diag = train_cg(f_hat)
    return replace(model, stats=stats, seasonality_m=m), diag


def accumulate(d: DifferencedMatrix, w: int, stats: NormalizationStats) -> NormalSystem:
    """Window, normalize and add every station of ``d``, one chunk at a time.

    A chunk holds as many stations as fit their windows into
    `pipeline.CHUNK_BYTES`, and at least one; each sample is windowed once.
    """
    station_bytes = (d.n_cols - w) * (w + 1) * 8
    step = max(1, pipeline.CHUNK_BYTES // station_bytes)
    system = NormalSystem.empty(w)
    for lo in range(0, d.n_bs, step):
        rows = DifferencedMatrix(d.seasonality_m, d.values[lo:lo + step])
        system.add(apply_normalization(slide_windows(rows, w), stats))
    return system
