"""Fleet forecasts against the per-station loops in ``forecast_oracle``.

br/lr forecasts may differ from the loop by summation order only, so they
are compared per station within 1e-12 times the station's largest traffic
value; the SA recursion keeps the loop's order of operations and must be
bit-identical. br/lr forecasts must also be bit-identical to the fleet
loop of ``forecast_oracle``, which makes an (n, w) array for the
subtraction and another for the division, and one_step forecasts, scored a
block of stations at a time through the feature pipeline, to the per-hour
`forecast_one` loop they replaced.
"""

from unittest import mock


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockreg import (
    BlockModel,
    pipeline,
    NormalizationStats,
    SaCoefficients,
    TrafficMatrix,
    forecast_horizon,
    forecast_sa,
    train_block_regression,
    train_sa,
)

from forecast_oracle import block_forecast, fleet_forecast, one_step_loop, sa_forecast
from sa_oracle import fleet_model, without

MODES = ("one_step", "recursive")
REL_TOL = 1e-12


def assert_block_rows_match(model, t, start, k, mode):
    fs = forecast_horizon(model, t, start, k, mode)
    assert fs.bs_ids == t.bs_ids
    assert fs.forecast.shape == (t.n_bs, k)
    for i, bs in enumerate(t.bs_ids):
        expect = block_forecast(model, t, bs, start, k, mode)
        bound = REL_TOL * np.max(np.abs(t.values[i]))
        assert np.max(np.abs(fs.forecast[i] - expect)) <= bound, bs


def assert_sa_rows_identical(model, t, start, k, mode):
    fs = forecast_sa(model, t, start, k, mode)
    assert fs.bs_ids == [bs for bs in t.bs_ids if bs in model.bs_ids]
    assert fs.forecast.shape == (len(fs.bs_ids), k)
    for row, bs in zip(fs.forecast, fs.bs_ids):
        np.testing.assert_array_equal(row, sa_forecast(model, t, bs, start, k, mode))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("m,w", [(24, 3), (0, 72)], ids=["br", "lr"])
def test_block_fleet_matches_oracle(small_corpus, m, w, mode):
    model, _ = train_block_regression(small_corpus, m=m, w=w, train_hours=240)
    assert_block_rows_match(model, small_corpus, 240, 96, mode)


@pytest.mark.parametrize("m,w", [(24, 3), (0, 72)], ids=["br", "lr"])
def test_block_recursive_past_corpus_end_matches_oracle(small_corpus, m, w):
    model, _ = train_block_regression(small_corpus, m=m, w=w, train_hours=240)
    assert_block_rows_match(model, small_corpus, 300, 80, "recursive")
    assert_block_rows_match(model, small_corpus, 336, 30, "recursive")


@pytest.mark.parametrize("mode", MODES)
def test_sa_fleet_matches_oracle_with_failed_station(small_corpus, mode):
    model = train_sa(small_corpus, train_hours=240)
    failed = small_corpus.bs_ids[3]
    model = without(model, [failed])
    model.failed_bs.append(failed)
    assert_sa_rows_identical(model, small_corpus, 240, 96, mode)


def test_sa_recursive_past_corpus_end_matches_oracle(small_corpus):
    model = train_sa(small_corpus, train_hours=240)
    assert_sa_rows_identical(model, small_corpus, 300, 80, "recursive")
    assert_sa_rows_identical(model, small_corpus, 336, 30, "recursive")


@st.composite
def fleet_cases(draw):
    """A random corpus, horizon, mode and seed for random model coefficients."""
    n = draw(st.integers(1, 5))
    length = draw(st.integers(40, 120))
    mode = draw(st.sampled_from(MODES))
    # every model below needs at most 30 hours of history before ``start``
    start = draw(st.integers(30, length if mode == "recursive" else length - 1))
    k_max = 2 * length if mode == "recursive" else length - start
    k = draw(st.integers(1, k_max))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, length, start, k, mode, seed


@settings(max_examples=40, deadline=None)
@given(fleet_cases())
def test_fleet_matches_oracle_property(case):
    n, length, start, k, mode, seed = case
    rng = np.random.default_rng(seed)
    t = TrafficMatrix(
        bs_ids=[f"bs_{i}" for i in range(n)],
        values=rng.uniform(0.5, 2.0, size=(n, length)) * rng.uniform(1, 100, (n, 1)),
        start_hour=int(rng.integers(0, 1000)),
    )
    m = int(rng.choice([0, 1, 12, 24]))
    w = int(rng.integers(1, 7))
    stats = NormalizationStats(
        rng.normal(size=w), rng.uniform(0.5, 2.0, w),
        float(rng.normal()), float(rng.uniform(0.5, 2.0)),
    )
    # small weights keep the recursive forecasts from growing without bound
    block = BlockModel(float(rng.normal()), rng.normal(scale=0.2 / w, size=w),
                       stats, m, w)
    assert_block_rows_match(block, t, start, k, mode)

    ar, ma = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    # The model lists its stations in an order of their own, not the corpus's.
    sa = fleet_model(
        {
            t.bs_ids[i]: SaCoefficients(rng.uniform(-0.4, 0.4, ar),
                                        rng.uniform(-0.4, 0.4, ma),
                                        float(rng.normal()), 1.0)
            for i in rng.permutation(n).tolist()
        },
        s=int(rng.integers(1, 25)),
        ar=ar,
        ma=ma,
    )
    if n > 1:
        dropped = t.bs_ids[int(rng.integers(0, n))]
        sa = without(sa, [dropped])
        sa.failed_bs.append(dropped)
    assert_sa_rows_identical(sa, t, start, k, mode)
    fs = forecast_horizon(block, t, start, k, mode)
    np.testing.assert_array_equal(fs.hours, t.start_hour + start + np.arange(k))
    if start + k <= length:
        np.testing.assert_array_equal(fs.actual, t.values[:, start:start + k])
    else:
        assert fs.actual is None


# (stations, widths): one station, and (n, w) features of more than the
# 128 KiB above which glibc maps an allocation by itself.
SIZES = {"one_station": (st.just(1), st.integers(1, 72)),
         "above_128KiB": (st.integers(250, 400), st.just(72))}


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("differenced", [False, True], ids=["m0", "m_pos"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_block_fleet_bitwise_equals_fleet_oracle(size, mode, differenced, data):
    stations, widths = SIZES[size]
    n, w = data.draw(stations), data.draw(widths)
    m = data.draw(st.sampled_from([1, 12, 24])) if differenced else 0
    need = m + w
    length = data.draw(st.integers(need + 1, need + 60))
    start = data.draw(st.integers(need, length if mode == "recursive" else length - 1))
    k = data.draw(st.integers(1, 48 if mode == "recursive" else length - start))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    t = TrafficMatrix(
        bs_ids=[f"bs_{i}" for i in range(n)],
        values=rng.uniform(0.5, 2.0, size=(n, length)) * rng.uniform(1, 100, (n, 1)),
    )
    stats = NormalizationStats(
        rng.normal(size=w), rng.uniform(0.5, 2.0, w),
        float(rng.normal()), float(rng.uniform(0.5, 2.0)),
    )
    model = BlockModel(float(rng.normal()), rng.normal(scale=0.2 / w, size=w),
                       stats, m, w)
    fs = forecast_horizon(model, t, start, k, mode)
    np.testing.assert_array_equal(fs.forecast, fleet_forecast(model, t, start, k, mode))


@pytest.mark.parametrize("chunk_bytes", [1, pipeline.CHUNK_BYTES], ids=["one_station", "default"])
@pytest.mark.parametrize("differenced", [False, True], ids=["lr", "br"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_step_equals_the_per_hour_loop(chunk_bytes, differenced, data):
    # One station, or enough that w = 72 windows fill several blocks; w up
    # to the whole history before the horizon.
    n = data.draw(st.sampled_from([1, data.draw(st.integers(2, 40))]), label="stations")
    m = data.draw(st.integers(1, 30), label="m") if differenced else 0
    start = data.draw(st.integers(m + 1, m + 80), label="start")
    w = data.draw(st.sampled_from([start - m, data.draw(st.integers(1, start - m))]),
                  label="w")
    k = data.draw(st.integers(1, 60), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    t = TrafficMatrix(
        bs_ids=[f"bs_{i}" for i in range(n)],
        values=rng.uniform(0.5, 2.0, size=(n, start + k)) * rng.uniform(1, 100, (n, 1)),
    )
    stats = NormalizationStats(
        rng.normal(size=w), rng.uniform(0.5, 2.0, w),
        float(rng.normal()), float(rng.uniform(0.5, 2.0)),
    )
    model = BlockModel(float(rng.normal()), rng.normal(scale=0.2 / w, size=w),
                       stats, m, w)
    with mock.patch.object(pipeline, "CHUNK_BYTES", chunk_bytes):
        fs = forecast_horizon(model, t, start, k, "one_step")
    np.testing.assert_array_equal(fs.forecast, one_step_loop(model, t, start, k))
