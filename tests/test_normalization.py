"""`fit_normalization` from column moments against the window oracles.

The fit merges per-column moments of the differenced matrix, shifted by one
value of the target column. It must give the stats of the windows that
`slide_windows` makes, as exact sums (``math.fsum``) over the windows give
them: standard deviations to 1e-12 relative, and means to 1e-12 on the scale
of the deviation. A double holds a mean near 1e9 only to its last place
(1.2e-7), so a mean may also be off by a unit in the last place.

The two oracles in ``train_oracle`` must agree with it as well:
``fit_normalization_views`` (the fit this one replaced, one strided view per
window column) and ``fit_normalization`` (every window built).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import train_oracle
from blockreg import TrafficMatrix, fit_normalization, pipeline, slide_windows
from blockreg.pipeline import DifferencedMatrix
from train_oracle import differenced

REL = 1e-12
KINDS = ("noise", "common_level", "station_levels")


def exact_stats(d: DifferencedMatrix, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample deviation of each window column, from exact sums."""
    per_bs = d.n_cols - w
    mu, sigma = [], []
    for j in range(w + 1):
        column = d.values[:, j:j + per_bs].ravel().tolist()
        n = len(column)
        mean = math.fsum(column) / n
        # The deviations from the rounded mean, and that mean's own error.
        dev = [v - mean for v in column]
        error = math.fsum(dev) / n
        mu.append(mean + error)
        sigma.append(math.sqrt(
            (math.fsum(e * e for e in dev) - n * error * error) / (n - 1)))
    return np.array(mu), np.array(sigma)


def assert_close(stats, mu, sigma, rel=REL, ulps=2):
    got_mu = np.r_[stats.mu_x, stats.mu_y]
    got_sigma = np.r_[stats.sigma_x, stats.sigma_y]
    assert np.all(np.abs(got_sigma - sigma) <= rel * sigma)
    tol = rel * sigma + ulps * np.spacing(np.abs(mu))
    assert np.all(np.abs(got_mu - mu) <= tol)


@st.composite
def corpora(draw):
    """A differenced matrix and a width w up to P - 1, for P positions.

    A spike may sit at the shift ``d.values[0, w]``, in the first or the
    last column, or anywhere else.
    """
    n = draw(st.integers(1, 6), label="stations")
    hours = draw(st.integers(4, 48), label="hours")
    m = draw(st.sampled_from([0, draw(st.integers(1, hours - 3))]), label="m")
    w = draw(st.integers(1, (hours - m - 1) // 2), label="w")
    assume(n * (hours - m - w) >= 2)
    kind = draw(st.sampled_from(KINDS), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    noise = rng.normal(0.0, 1.0, size=(n, hours))
    if kind == "common_level":
        values = 1e9 + noise
    elif kind == "station_levels":
        values = 10.0 ** rng.uniform(0.0, 5.0, size=(n, 1)) * (1.0 + 0.1 * noise)
    else:
        values = noise
    t = TrafficMatrix(bs_ids=[f"s{i}" for i in range(n)], values=values)
    d = differenced(t, m, hours)
    spike = draw(st.sampled_from([None, "shift", "first", "last", "anywhere"]),
                 label="spike")
    if spike is not None:
        cols = {"shift": st.just(w), "first": st.just(0),
                "last": st.just(d.n_cols - 1), "anywhere": st.integers(0, d.n_cols - 1)}
        row = 0 if spike == "shift" else draw(st.integers(0, n - 1))
        at = (row, draw(cols[spike]))
        spiked = np.array(d.values)
        spiked[at] += draw(st.sampled_from([1e4, -1e8, 1e12]), label="size")
        d = DifferencedMatrix(m, spiked)
    return d, w, kind


@settings(max_examples=400, deadline=None)
@given(case=corpora(), block_rows=st.sampled_from([1, 2, 5, None]))
def test_column_moments_match_window_oracles(case, block_rows):
    d, w, kind = case
    budget = pipeline.CHUNK_BYTES if block_rows is None else block_rows * d.n_cols * 8
    with mock.patch.object(pipeline, "CHUNK_BYTES", budget):
        stats = fit_normalization(d, w)
    mu, sigma = exact_stats(d, w)
    assert_close(stats, mu, sigma)
    # The oracles sum the unshifted values. At a common level of 1e9 their
    # means carry errors near 1e-6 and several units in the last place, and
    # their deviations err by the square of that over the deviation (about
    # 7e-13 at worst over 15000 examples), so there they get 1e-11.
    rel = 1e-11 if kind == "common_level" else REL
    for oracle in (train_oracle.fit_normalization_views(d, w),
                   train_oracle.fit_normalization(slide_windows(d, w))):
        assert_close(stats, np.r_[oracle.mu_x, oracle.mu_y],
                     np.r_[oracle.sigma_x, oracle.sigma_y], rel=rel, ulps=16)


def test_spike_outside_the_shift_column():
    """A spike that some windows leave out does not leak into their stats.

    One shift for every window would subtract a sum of squares that the
    spike inflates, and lose six digits of the other windows' deviations.
    """
    values = np.random.default_rng(3).normal(0.0, 1.0, size=(3, 30))
    values[0, 0] = 1e6
    d = DifferencedMatrix(0, values)
    mu, sigma = exact_stats(d, 10)
    assert_close(fit_normalization(d, 10), mu, sigma)


@pytest.mark.parametrize("level", [0.1, 5.0, -3e9])
@pytest.mark.parametrize("n_bs", [1, 4])
def test_constant_matrix_has_unit_deviation(level, n_bs):
    d = DifferencedMatrix(0, np.full((n_bs, 12), level))
    stats = fit_normalization(d, 3)
    np.testing.assert_array_equal(stats.sigma_x, 1.0)
    assert stats.sigma_y == 1.0
    np.testing.assert_array_equal(stats.mu_x, level)
    assert stats.mu_y == level


def test_oracles_miss_an_inexact_constant():
    """The oracles' sums of 0.1 are not a multiple of 0.1, so they leave a
    deviation near 1e-17 instead of the unit one, and would scale a constant
    column by about 1e17."""
    d = DifferencedMatrix(0, np.full((4, 12), 0.1))
    for oracle in (train_oracle.fit_normalization_views(d, 3),
                   train_oracle.fit_normalization(slide_windows(d, 3))):
        assert 0.0 < oracle.sigma_y < 1e-16
    assert fit_normalization(d, 3).sigma_y == 1.0
