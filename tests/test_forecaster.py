"""End-to-end block model training and the two forecast modes."""

import numpy as np
import pytest

from blockreg import (
    BlockModel,
    NormalizationStats,
    UncleanCorpus,
    forecast_horizon,
    forecast_one,
    train_block_regression,
)
from blockreg.corpus import TrafficMatrix
from blockreg.errors import InsufficientHistory, InvalidConfig

from conftest import make_corpus, periodic_corpus


def naive_model(m, w):
    """theta = 0 everywhere: forecast is exactly t_{l-m} (or mu 0 if m=0)."""
    return BlockModel(
        theta0=0.0,
        theta=np.zeros(w),
        stats=NormalizationStats.identity(w),
        seasonality_m=m,
        window_w=w,
    )


def last_value_model(w):
    theta = np.zeros(w)
    theta[-1] = 1.0
    return BlockModel(
        theta0=0.0,
        theta=theta,
        stats=NormalizationStats.identity(w),
        seasonality_m=0,
        window_w=w,
    )


def test_train_returns_converged_model(small_corpus):
    model, diag = train_block_regression(small_corpus, m=24, w=3, train_hours=240)
    assert diag.converged
    assert model.seasonality_m == 24
    assert model.window_w == 3
    assert model.n_params == 4


def test_train_rejects_unclean():
    t = make_corpus(n_bs=3, n_hours=60)
    t.values[0, 5] = np.nan
    with pytest.raises(UncleanCorpus):
        train_block_regression(t, m=24, w=3, train_hours=48)


def test_train_train_hours_bounds(small_corpus):
    with pytest.raises(InvalidConfig):
        train_block_regression(small_corpus, m=24, w=3, train_hours=0)
    with pytest.raises(InvalidConfig):
        train_block_regression(small_corpus, m=24, w=3, train_hours=10_000)


def test_periodic_corpus_forecast_exact():
    t = periodic_corpus(n_bs=8)
    model, _ = train_block_regression(t, m=24, w=3, train_hours=240)
    fs = forecast_horizon(model, t, 240, 96, "one_step")
    assert fs.bs_ids == t.bs_ids
    assert fs.forecast.shape == fs.actual.shape == (t.n_bs, 96)
    np.testing.assert_allclose(fs.forecast, fs.actual, rtol=0, atol=1e-9)


def test_forecast_one_seasonal_naive_identity():
    model = naive_model(24, 3)
    history = np.arange(27.0) * 2.0
    # zero weights: prediction collapses to the value one season back
    assert forecast_one(model, history) == history[-24]


def test_forecast_one_last_value_identity():
    model = last_value_model(3)
    assert forecast_one(model, np.array([5.0, 6.0, 7.0])) == 7.0


def test_forecast_one_uses_only_suffix():
    model = naive_model(24, 3)
    short = np.arange(27.0)
    long = np.concatenate([np.full(50, -99.0), short])
    assert forecast_one(model, short) == forecast_one(model, long)


def test_forecast_one_insufficient_history():
    model = naive_model(24, 3)
    with pytest.raises(InsufficientHistory):
        forecast_one(model, np.zeros(26))


def test_forecast_horizon_shift_equivariance(small_corpus):
    t = small_corpus
    model, _ = train_block_regression(t, m=24, w=3, train_hours=240)
    cut = 48
    shifted = TrafficMatrix(
        bs_ids=t.bs_ids,
        values=t.values[:, cut:],
        start_hour=t.start_hour + cut,
    )
    a = forecast_horizon(model, t, 240, 48, "one_step")
    b = forecast_horizon(model, shifted, 240 - cut, 48, "one_step")
    np.testing.assert_allclose(a.forecast, b.forecast, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(a.hours, b.hours)


def test_forecast_modes_agree_on_first_step(small_corpus):
    model, _ = train_block_regression(small_corpus, m=24, w=3, train_hours=240)
    one = forecast_horizon(model, small_corpus, 240, 1, "one_step")
    rec = forecast_horizon(model, small_corpus, 240, 1, "recursive")
    np.testing.assert_array_equal(one.forecast, rec.forecast)


def test_forecast_recursive_feeds_back(small_corpus):
    # after the first step the two modes read different histories
    model, _ = train_block_regression(small_corpus, m=24, w=3, train_hours=240)
    one = forecast_horizon(model, small_corpus, 240, 96, "one_step")
    rec = forecast_horizon(model, small_corpus, 240, 96, "recursive")
    assert not np.array_equal(one.forecast[0], rec.forecast[0])
    np.testing.assert_array_equal(one.actual[0], rec.actual[0])


def test_forecast_recursive_past_corpus_end(small_corpus):
    model, _ = train_block_regression(small_corpus, m=24, w=3, train_hours=240)
    fs = forecast_horizon(model, small_corpus, 336, 48, "recursive")
    assert fs.actual is None
    assert fs.forecast[0].shape == (48,)
    assert np.all(np.isfinite(fs.forecast[0]))


def test_forecast_one_step_needs_actuals(small_corpus):
    model, _ = train_block_regression(small_corpus, m=24, w=3, train_hours=240)
    with pytest.raises(InsufficientHistory):
        forecast_horizon(model, small_corpus, 336, 1, "one_step")


def test_forecast_horizon_validation(small_corpus):
    model, _ = train_block_regression(small_corpus, m=24, w=3, train_hours=240)
    with pytest.raises(InvalidConfig):
        forecast_horizon(model, small_corpus, 240, 0)
    with pytest.raises(InvalidConfig):
        forecast_horizon(model, small_corpus, 240, 4, "psychic")
    with pytest.raises(InsufficientHistory):
        forecast_horizon(model, small_corpus, 12, 4)
    with pytest.raises(InsufficientHistory, match="past the corpus end"):
        forecast_horizon(model, small_corpus, 337, 4, "recursive")


def test_forecast_hours_are_absolute(small_corpus):
    model, _ = train_block_regression(small_corpus, m=24, w=3, train_hours=240)
    fs = forecast_horizon(model, small_corpus, 250, 5)
    np.testing.assert_array_equal(fs.hours, [250, 251, 252, 253, 254])


def test_forecast_adds_back_seasonal_level(small_corpus):
    # the differenced-scale prediction is re-anchored at t_{l-m}
    model, _ = train_block_regression(small_corpus, m=24, w=3, train_hours=240)
    bs = small_corpus.bs_ids[5]
    i = small_corpus.bs_ids.index(bs)
    series = small_corpus.values[i]
    got = forecast_one(model, series[:240])
    lags = series[237:240] - series[213:216]  # d_{237}, d_{238}, d_{239}
    xhat = (lags - model.stats.mu_x) / model.stats.sigma_x
    z = model.theta0 + float(model.theta @ xhat)
    expect = model.stats.mu_y + z * model.stats.sigma_y + series[216]
    assert got == pytest.approx(expect, rel=1e-12)
