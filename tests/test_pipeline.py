"""Differencing, window sliding, and normalization stages."""

import numpy as np
import pytest

from blockreg import (
    NormalizationStats,
    TrafficMatrix,
    apply_normalization,
    fit_normalization,
    seasonal_difference,
    slide_windows,
)
from blockreg.errors import (
    DimensionMismatch,
    InsufficientSamples,
    InvalidConfig,
    SeasonalityTooLarge,
    WindowTooLarge,
)
from blockreg.pipeline import identity_difference

from conftest import make_corpus


def matrix(values) -> TrafficMatrix:
    values = np.asarray(values, dtype=float)
    ids = [f"s{i}" for i in range(values.shape[0])]
    return TrafficMatrix(bs_ids=ids, values=values, start_hour=0)


def brute_force_windows(d_values, m, w):
    """Reference enumeration: one sample per station per window position."""
    rows_x, rows_y, prov = [], [], []
    n_bs, n_cols = d_values.shape
    for i in range(n_bs):
        for p in range(w, n_cols):
            rows_x.append(d_values[i, p - w:p])
            rows_y.append(d_values[i, p])
            prov.append((i, p + m))
    return np.array(rows_x), np.array(rows_y), np.array(prov)


def test_seasonal_difference_values():
    t = matrix([[1, 2, 4, 8, 16, 32]])
    d = seasonal_difference(t, 2)
    np.testing.assert_array_equal(d.values, [[3, 6, 12, 24]])
    assert d.seasonality_m == 2


def test_seasonal_difference_bounds():
    t = matrix([[1, 2, 3]])
    with pytest.raises(SeasonalityTooLarge):
        seasonal_difference(t, 3)
    with pytest.raises(InvalidConfig):
        seasonal_difference(t, 0)


def test_identity_difference_is_noop():
    t = matrix([[1, 2, 3]])
    d = identity_difference(t)
    assert d.seasonality_m == 0
    np.testing.assert_array_equal(d.values, t.values)


def test_slide_windows_small_example():
    t = matrix([[0, 1, 2, 3, 4, 5]])
    d = identity_difference(t)
    f = slide_windows(d, 2)
    np.testing.assert_array_equal(f.x, [[0, 1], [1, 2], [2, 3], [3, 4]])
    np.testing.assert_array_equal(f.y, [2, 3, 4, 5])
    np.testing.assert_array_equal(f.provenance[:, 1], [2, 3, 4, 5])


def test_slide_windows_matches_brute_force(rng):
    # randomized configurations against the quadratic reference
    for _ in range(40):
        n = int(rng.integers(1, 6))
        L = int(rng.integers(10, 61))
        m = int(rng.integers(1, L - 2))
        w = int(rng.integers(1, L - m))
        t = matrix(rng.normal(size=(n, L)))
        d = seasonal_difference(t, m)
        f = slide_windows(d, w)
        bx, by, bp = brute_force_windows(d.values, m, w)
        assert f.n_samples == (L - m - w) * n
        np.testing.assert_array_equal(f.x, bx)
        np.testing.assert_array_equal(f.y, by)
        np.testing.assert_array_equal(f.provenance, bp)


def test_slide_windows_provenance_points_at_origin():
    t = make_corpus(n_bs=3, n_hours=60)
    m, w = 24, 3
    d = seasonal_difference(t, m)
    f = slide_windows(d, w)
    for r in range(0, f.n_samples, 7):
        i, col = f.provenance[r]
        assert f.y[r] == t.values[i, col] - t.values[i, col - m]


def test_slide_windows_row_ordering():
    t = matrix(np.arange(12.0).reshape(2, 6))
    f = slide_windows(identity_difference(t), 2)
    # station-major, then target position ascending
    assert list(f.provenance[:, 0]) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert list(f.provenance[:, 1]) == [2, 3, 4, 5, 2, 3, 4, 5]


@pytest.mark.parametrize("n_bs", [1, 3])
@pytest.mark.parametrize("w", [1, 4])
def test_slide_windows_copies_the_samples(n_bs, w):
    d = identity_difference(matrix(np.arange(n_bs * 10.0).reshape(n_bs, 10)))
    f = slide_windows(d, w)
    assert f.x.shape == (n_bs * (10 - w), w) and f.y.shape == (n_bs * (10 - w),)
    assert f.x.flags.c_contiguous and f.y.flags.c_contiguous
    assert not np.shares_memory(f.x, d.values)
    assert not np.shares_memory(f.y, d.values)


def test_slide_windows_window_too_large():
    t = matrix([[1, 2, 3, 4]])
    with pytest.raises(WindowTooLarge):
        slide_windows(identity_difference(t), 4)
    with pytest.raises(InvalidConfig):
        slide_windows(identity_difference(t), 0)


def test_fit_normalization_sample_std(rng):
    t = matrix(rng.normal(2.0, 3.0, size=(4, 50)))
    f = slide_windows(identity_difference(t), 3)
    s = fit_normalization(identity_difference(t), 3)
    np.testing.assert_allclose(s.mu_x, f.x.mean(axis=0))
    np.testing.assert_allclose(s.sigma_x, f.x.std(axis=0, ddof=1))
    assert s.sigma_y == pytest.approx(float(f.y.std(ddof=1)))


def test_fit_normalization_zero_variance_guard():
    t = matrix(np.full((2, 10), 5.0))
    f = slide_windows(identity_difference(t), 2)
    s = fit_normalization(identity_difference(t), 2)
    np.testing.assert_array_equal(s.sigma_x, [1.0, 1.0])
    assert s.sigma_y == 1.0
    g = apply_normalization(f, s)
    np.testing.assert_array_equal(g.x, np.zeros_like(g.x))
    np.testing.assert_array_equal(g.y, np.zeros_like(g.y))


def test_fit_normalization_needs_two_samples():
    t = matrix([[1.0, 2.0, 3.0]])
    assert slide_windows(identity_difference(t), 2).n_samples == 1
    with pytest.raises(InsufficientSamples):
        fit_normalization(identity_difference(t), 2)


def test_apply_normalization_standardizes(rng):
    t = matrix(rng.normal(7.0, 2.5, size=(5, 80)))
    f = slide_windows(identity_difference(t), 4)
    g = apply_normalization(f, fit_normalization(identity_difference(t), 4))
    np.testing.assert_allclose(g.x.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(g.x.std(axis=0, ddof=1), 1.0, atol=1e-12)
    assert abs(float(g.y.mean())) < 1e-12


def test_apply_normalization_dimension_check():
    t = matrix(np.arange(20.0).reshape(2, 10))
    f = slide_windows(identity_difference(t), 3)
    with pytest.raises(DimensionMismatch):
        apply_normalization(f, NormalizationStats.identity(5))


def test_identity_stats_are_noop():
    t = matrix(np.arange(20.0).reshape(2, 10))
    f = slide_windows(identity_difference(t), 3)
    g = apply_normalization(f, NormalizationStats.identity(3))
    np.testing.assert_array_equal(g.x, f.x)
    np.testing.assert_array_equal(g.y, f.y)
