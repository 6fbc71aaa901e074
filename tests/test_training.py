"""Training from a normal system built from lag sums.

``train_oracle`` holds the path that materializes every sample at once, and
`train_oracle.accumulate`, which windowed, normalized and added one chunk
of stations at a time. The lag-sum path must give the same normalization
stats and the same (w+1)^2 normal system to 1e-12 relative. Each comparison
also runs with ``pipeline.CHUNK_BYTES`` cut to 1, so the normalization stats
and the lag sums are read one row at a time.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import train_oracle
from blockreg import (
    NormalSystem,
    TrafficMatrix,
    fit_normalization,
    forecaster,
    pipeline,
    train_block_regression,
    train_cg,
    train_normal_equations,
)
from blockreg.errors import InvalidConfig
from blockreg.pipeline import DifferencedMatrix, slide_windows
from conftest import make_corpus
from test_normalization import corpora
from train_oracle import differenced

REL = 1e-12
# (m, w): the paper's br model and the undifferenced lr baseline.
KINDS = {"br": (24, 3), "lr": (0, 72)}


def assert_rel(actual, expected, rel=REL):
    """Agreement to ``rel`` of the largest magnitude in ``expected``."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


@pytest.fixture(params=["default", 1])
def chunk_bytes(request, monkeypatch):
    if request.param != "default":
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", request.param)
    return request.param


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_stats_and_system_match_oracle(small_corpus, chunk_bytes, kind):
    m, w = KINDS[kind]
    d = differenced(small_corpus, m, 240)
    stats = fit_normalization(d, w)
    f_hat, oracle_stats = train_oracle.normalized_samples(small_corpus, m, w, 240)
    # Means of differenced traffic sit near 0, so they are compared on the
    # scale of the deviations.
    assert_rel(stats.mu_x, oracle_stats.mu_x, REL * oracle_stats.sigma_x.max())
    assert_rel(stats.sigma_x, oracle_stats.sigma_x)
    assert abs(stats.mu_y - oracle_stats.mu_y) <= REL * oracle_stats.sigma_y
    assert stats.sigma_y == pytest.approx(oracle_stats.sigma_y, rel=REL)

    system = forecaster._normal_system(d, w, stats)
    gram, aty = train_oracle.normal_system(f_hat)
    assert system.n_samples == f_hat.n_samples
    assert_rel(system.gram, gram)
    assert_rel(system.aty, aty)
    assert system.yty == pytest.approx(float(f_hat.y @ f_hat.y), rel=REL)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_model_matches_oracle(small_corpus, chunk_bytes, kind):
    m, w = KINDS[kind]
    model, diag = train_block_regression(small_corpus, m=m, w=w, train_hours=240)
    expect, expect_diag = train_oracle.train_block_regression(
        small_corpus, m=m, w=w, train_hours=240
    )
    assert model.kind == expect.kind == kind
    assert diag.converged and expect_diag.converged
    assert diag.n_samples == expect_diag.n_samples == 20 * (240 - m - w)
    assert diag.final_cost == pytest.approx(expect_diag.final_cost, rel=1e-9)
    # CG stops at a gradient norm of RTOL * ||b||; lr's system is
    # ill-conditioned, so its weights agree only to that over its smallest
    # curvature.
    rel = 1e-10 if kind == "br" else 1e-11
    theta = np.r_[model.theta0, model.theta]
    assert_rel(theta, np.r_[expect.theta0, expect.theta], rel)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_training_stamps_stats_and_lag_on_the_solved_model(small_corpus, kind):
    m, w = KINDS[kind]
    model, diag = train_block_regression(small_corpus, m=m, w=w, train_hours=240)
    d = differenced(small_corpus, m, 240)
    stats = fit_normalization(d, w)
    solved, solved_diag = train_cg(forecaster._normal_system(d, w, stats))
    assert (model.seasonality_m, model.window_w, model.kind) == (m, w, kind)
    assert model.theta0 == solved.theta0
    np.testing.assert_array_equal(model.theta, solved.theta)
    for name in ("mu_x", "sigma_x", "mu_y", "sigma_y"):
        np.testing.assert_array_equal(getattr(model.stats, name), getattr(stats, name))
    assert diag == solved_diag


def accumulated(t: TrafficMatrix, kind: str) -> NormalSystem:
    """The normal system `train_block_regression` trains ``kind`` on."""
    m, w = KINDS[kind]
    d = differenced(t, m, 240)
    return forecaster._normal_system(d, w, fit_normalization(d, w))


def full(model) -> np.ndarray:
    return np.r_[model.theta0, model.theta]


@pytest.fixture(scope="module", params=[200, 2000], ids=["paper", "wide"])
def fleet(request):
    """The default corpus, seed 1, at the benchmark's two fleet sizes."""
    return make_corpus(n_bs=request.param)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_cg_matches_normal_equations_on_accumulated_system(small_corpus, kind):
    system = accumulated(small_corpus, kind)
    cg, _ = train_cg(system)
    ne = train_normal_equations(system)
    theta_cg, theta_ne = full(cg), full(ne)
    assert_rel(theta_cg, theta_ne, 1e-11)
    # Both are minimizers of the same quadratic.
    assert system.cost(theta_cg) == pytest.approx(system.cost(theta_ne), rel=1e-9)


def test_lr_lands_on_the_dense_solve(fleet):
    system = accumulated(fleet, "lr")
    cg, diag = train_cg(system)
    assert diag.converged
    assert_rel(full(cg), full(train_normal_equations(system)), 1e-11)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_one_station_chunks_change_models_by_rounding_only(fleet, kind, monkeypatch):
    m, w = KINDS[kind]
    default, _ = train_block_regression(fleet, m=m, w=w, train_hours=240)
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 1)
    one, _ = train_block_regression(fleet, m=m, w=w, train_hours=240)
    assert_rel(full(one), full(default), 1e-11)


@settings(max_examples=20, deadline=None)
@given(
    n_bs=st.integers(2, 20),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(KINDS)),
)
def test_grouping_changes_fitted_values_by_rounding_only(n_bs, seed, kind):
    # Fitted values, ||A d|| / ||A theta|| for the design A and the change d
    # of the weights: lr's systems on a few stations reach a condition
    # number of 2e5, where CG's weights themselves agree to about 1.5e-11.
    t = make_corpus(n_bs=n_bs, seed=seed)
    m, w = KINDS[kind]
    default, _ = train_block_regression(t, m=m, w=w, train_hours=240)
    with mock.patch.object(pipeline, "CHUNK_BYTES", 1):
        one, _ = train_block_regression(t, m=m, w=w, train_hours=240)
    gram = accumulated(t, kind).gram
    d, theta = full(one) - full(default), full(default)
    assert d @ gram @ d <= (1e-11) ** 2 * (theta @ gram @ theta)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_training_builds_no_window(small_corpus, monkeypatch, kind):
    calls = []
    for name in ("slide_windows", "apply_normalization"):
        for module in (pipeline, forecaster):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *a, __name=name, __fn=original: calls.append(__name) or __fn(*a))
    m, w = KINDS[kind]
    _, diag = train_block_regression(small_corpus, m=m, w=w, train_hours=240)
    assert calls == []
    assert diag.n_samples == 20 * (240 - m - w)


@pytest.mark.parametrize("m", [-1, -24])
def test_negative_m_rejected(small_corpus, m):
    with pytest.raises(InvalidConfig, match="m must be >= 0"):
        train_block_regression(small_corpus, m=m, w=3, train_hours=240)


@st.composite
def lagged(draw):
    """A differenced matrix of `test_normalization.corpora` and a width w.

    Those corpora share a large level or have levels of their own, and may
    hold a spike at the fit's shift ``d.values[0, w]``, in the first or the
    last column, or anywhere else; their w is at most P - 1 for P positions,
    and here w may also reach the last column. The matrix is then scaled by
    2^k, |k| <= 500, as far as the fit's squared deviations stay in the
    float range.
    """
    d, w, _ = draw(corpora())
    w = draw(st.sampled_from([w, draw(st.integers(1, d.n_cols - 1), label="wide w")]))
    assume(d.n_bs * (d.n_cols - w) >= 2)
    top = np.frexp(np.abs(d.values).max())[1]
    k = min(draw(st.integers(-500, 500), label="k"), 500 - top)
    return DifferencedMatrix(d.seasonality_m, np.ldexp(d.values, k)), w


def last_column_spike(seed: int, row: int) -> DifferencedMatrix:
    """A `lagged` case: station levels 1 to 1e5 drawn with ``seed``,
    differenced at m = 1 into a 6 x 4 matrix, and a 1e12 spike in the last
    column of ``row``. Its normalized targets sum to 0 up to rounding
    (about 1e-15 on either side), while the largest |aty| is about 1e-3
    for seed 984 and about 7e-5 for seed 7320."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, size=(6, 5))
    values = 10.0 ** rng.uniform(0.0, 5.0, size=(6, 1)) * (1.0 + 0.1 * noise)
    d = differenced(TrafficMatrix([f"s{i}" for i in range(6)], values), 1, 5)
    spiked = np.array(d.values)
    spiked[row, -1] += 1e12
    return DifferencedMatrix(1, spiked)


@settings(max_examples=300, deadline=None)
@given(case=lagged(), chunk_bytes=st.sampled_from([1, pipeline.CHUNK_BYTES]))
@example(case=(last_column_spike(984, 1), 1), chunk_bytes=1)
@example(case=(last_column_spike(7320, 2), 1), chunk_bytes=1)
def test_lag_sums_match_accumulated_windows(case, chunk_bytes):
    d, w = case
    stats = fit_normalization(d, w)
    with mock.patch.object(pipeline, "CHUNK_BYTES", chunk_bytes):
        system = forecaster._normal_system(d, w, stats)
        oracle = train_oracle.accumulate(d, w, stats)
    assert system.n_samples == oracle.n_samples == d.n_bs * (d.n_cols - w)
    assert_rel(system.gram, oracle.gram)
    # Each aty[j] sums the products of the normalized target with its
    # column of the design ([1 | x_hat]); with a spike those cancel to about
    # 0, so each entry is held to the sum of their magnitudes.
    f_hat = train_oracle.apply_normalization(slide_windows(d, w), stats)
    terms = np.abs(np.column_stack([np.ones(f_hat.n_samples), f_hat.x]))
    assert np.all(np.abs(system.aty - oracle.aty) <= REL * (np.abs(f_hat.y) @ terms))
    assert system.yty == pytest.approx(oracle.yty, rel=REL)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_training_holds_the_difference_and_a_few_chunks(kind):
    # A br model holds its training difference, which fit_normalization
    # reads whole; lr's is a view of the corpus. Beyond that, one block of
    # rows. Had training windowed a chunk of stations, the windows, their
    # provenance and their normalized copy would take about 2.5 CHUNK_BYTES.
    t = make_corpus(n_bs=2000)
    m, w = KINDS[kind]
    difference = t.n_bs * (240 - m) * 8 if m > 0 else 0
    bound = difference + 2 * pipeline.CHUNK_BYTES
    assert bound < t.values.nbytes + 2 * pipeline.CHUNK_BYTES
    tracemalloc.start()
    try:
        train_block_regression(t, m=m, w=w, train_hours=240)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB"
