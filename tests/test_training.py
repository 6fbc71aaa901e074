"""Training from a normal system accumulated per station chunk.

``train_oracle`` holds the path that materializes every sample at once;
the chunked path must give the same normalization stats and the same
(w+1)^2 normal system to 1e-12 relative, for any split of the stations into
chunks. Each comparison also runs with ``pipeline.CHUNK_BYTES`` cut to 1,
so every station is its own chunk and the normalization stats are read one
row at a time.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import train_oracle
from blockreg import (
    NormalSystem,
    TrafficMatrix,
    apply_normalization,
    fit_normalization,
    forecaster,
    pipeline,
    slide_windows,
    train_block_regression,
    train_cg,
    train_normal_equations,
)
from blockreg.errors import InvalidConfig
from conftest import make_corpus
from test_io_memory import traced_peak
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

    system = forecaster._accumulate(d, w, stats)
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
    solved, solved_diag = train_cg(forecaster._accumulate(d, w, stats))
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
    return forecaster._accumulate(d, w, fit_normalization(d, w))


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


def test_each_sample_windowed_once(small_corpus, monkeypatch):
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 3 * (240 - 24 - 3) * 4 * 8)
    seen = []

    def counting(d, w):
        f = slide_windows(d, w)
        seen.append(f.n_samples)
        return f

    monkeypatch.setattr(forecaster, "slide_windows", counting)
    _, diag = train_block_regression(small_corpus, m=24, w=3, train_hours=240)
    assert len(seen) == 7  # 20 stations, 3 per chunk
    assert sum(seen) == diag.n_samples == 20 * (240 - 24 - 3)


@pytest.mark.parametrize("m", [-1, -24])
def test_negative_m_rejected(small_corpus, m):
    with pytest.raises(InvalidConfig, match="m must be >= 0"):
        train_block_regression(small_corpus, m=m, w=3, train_hours=240)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    L=st.integers(3, 40),
    data=st.data(),
)
def test_window_count_and_chunk_split(n, L, data):
    m = data.draw(st.integers(0, L - 2), label="m")
    w = data.draw(st.integers(1, L - m - 1), label="w")
    per_chunk = data.draw(st.integers(1, n + 1), label="stations per chunk")
    positions = L - m - w
    assume(n * positions >= 2)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    t = TrafficMatrix(
        bs_ids=[f"s{i}" for i in range(n)],
        values=np.random.default_rng(seed).normal(5.0, 2.0, size=(n, L)),
    )
    d = differenced(t, m, L)

    f = slide_windows(d, w)
    assert f.n_samples == n * positions
    stats = fit_normalization(d, w)
    whole = NormalSystem.empty(w)
    whole.add(apply_normalization(f, stats))
    budget = per_chunk * positions * (w + 1) * 8
    with mock.patch.object(pipeline, "CHUNK_BYTES", budget):
        chunked = forecaster._accumulate(d, w, stats)
    assert chunked.n_samples == whole.n_samples == n * positions
    assert_rel(chunked.gram, whole.gram)
    assert_rel(chunked.aty, whole.aty)
    assert chunked.yty == pytest.approx(whole.yty, rel=REL)


def test_lr_training_memory_is_bounded_by_chunks():
    t = make_corpus(n_bs=500)
    m, w, train_hours = 0, 72, 240
    design_bytes = t.n_bs * (train_hours - m - w) * w * 8
    bound = 4 * pipeline.CHUNK_BYTES + 4 * t.values.nbytes
    assert design_bytes > bound  # the bound would not hold one whole design
    tracemalloc.start()
    try:
        train_block_regression(t, m=m, w=w, train_hours=train_hours)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB"


def test_accumulate_holds_one_chunk_at_a_time():
    # A chunk's windows, its provenance and their normalized copy take about
    # 2.5 MiB for br; had a name kept them while the next chunk is
    # windowed, two chunks would be alive at once.
    m, w = KINDS["br"]
    d = differenced(make_corpus(n_bs=2000), m, 240)
    _, peak = traced_peak(forecaster._accumulate, d, w, fit_normalization(d, w))
    assert peak < 3 * pipeline.CHUNK_BYTES, f"peak {peak / 2**20:.2f} MiB"
