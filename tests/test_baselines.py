"""Undifferenced linear baseline and per-station seasonal ARIMA baseline."""

import numpy as np
import pytest

import blockreg.baselines as baselines
from blockreg import (
    SaCoefficients,
    TrafficMatrix,
    ar_long_order,
    forecast_horizon,
    forecast_sa,
    hannan_rissanen,
    train_block_regression,
    train_lr,
    train_sa,
)
from blockreg.errors import (
    InsufficientHistory,
    InvalidConfig,
    SingularSystem,
    UnknownBs,
)

import sa_oracle
from conftest import periodic_corpus


def sim_arma(phi, psi, n, seed, warm=300):
    """Simulate a stationary ARMA path, discarding a warmup prefix."""
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    rng = np.random.default_rng(seed)
    total = n + warm
    eps = rng.normal(size=total)
    z = np.zeros(total)
    p, q = len(phi), len(psi)
    for t in range(total):
        acc = eps[t]
        for j in range(1, p + 1):
            if t - j >= 0:
                acc += phi[j - 1] * z[t - j]
        for j in range(1, q + 1):
            if t - j >= 0:
                acc += psi[j - 1] * eps[t - j]
        z[t] = acc
    return z[warm:]


def zero_sa_model(bs_ids, s=24, ar=2, ma=1):
    coef = SaCoefficients(
        phi=np.zeros(ar), psi=np.zeros(ma), intercept=0.0, sigma2=1.0
    )
    return sa_oracle.fleet_model({bs: coef for bs in bs_ids}, s, ar, ma)


# ---------------------------------------------------------------- LR

def test_lr_param_count(small_corpus):
    model = train_lr(small_corpus, w=72, train_hours=240)
    assert model.n_params == 73
    assert model.theta.shape == (72,)


def test_lr_is_block_regression_with_m_zero(small_corpus):
    lr = train_lr(small_corpus, w=10, train_hours=240)
    br, _ = train_block_regression(small_corpus, m=0, w=10, train_hours=240)
    assert lr.theta0 == br.theta0
    np.testing.assert_array_equal(lr.theta, br.theta)


def test_lr_on_predifferenced_corpus_equals_br(small_corpus):
    # feeding the lag-24 differences through the undifferenced baseline
    # must reproduce the differenced model's coefficients
    t = small_corpus
    m, w, train_hours = 24, 3, 240
    br, _ = train_block_regression(t, m=m, w=w, train_hours=train_hours)
    diffed = TrafficMatrix(
        bs_ids=t.bs_ids,
        values=t.values[:, m:] - t.values[:, :-m],
        start_hour=t.start_hour + m,
    )
    lr = train_lr(diffed, w=w, train_hours=train_hours - m)
    assert abs(lr.theta0 - br.theta0) <= 1e-9
    np.testing.assert_allclose(lr.theta, br.theta, rtol=0, atol=1e-9)
    np.testing.assert_allclose(lr.stats.mu_x, br.stats.mu_x, rtol=0, atol=1e-9)
    assert lr.stats.sigma_y == pytest.approx(br.stats.sigma_y, abs=1e-9)


def test_lr_forecast_no_seasonal_readdition(small_corpus):
    lr = train_lr(small_corpus, w=6, train_hours=240)
    fs = forecast_horizon(lr, small_corpus, 240, 8)
    lags = small_corpus.values[0, 234:240]
    xhat = (lags - lr.stats.mu_x) / lr.stats.sigma_x
    z = lr.theta0 + float(lr.theta @ xhat)
    assert fs.forecast[0, 0] == pytest.approx(lr.stats.mu_y + z * lr.stats.sigma_y)


# ---------------------------------------------------------------- Hannan-Rissanen

def test_ar_long_order():
    assert ar_long_order(240) == 24   # ceil(1.5 * sqrt(240)) = 24 < 240 / 4
    assert ar_long_order(100) == 15
    assert ar_long_order(16) == 4     # capped at n // 4


def test_hannan_rissanen_recovers_ar2():
    phi = np.array([1.9, -0.95])
    for seed in range(1, 6):
        z = sim_arma(phi, [], 240, seed)
        coef = hannan_rissanen(z, 2, 1)
        assert np.max(np.abs(coef.phi - phi)) <= 0.1, f"seed {seed}"


def test_hannan_rissanen_white_noise_bounds():
    # On pure noise an ARMA(2,1) is only partially identified: phi1 and psi1
    # trade off along a near-common-factor ridge, so the well-identified
    # quantities are phi1 + psi1 and phi2. Those concentrate at the 1/sqrt(n)
    # scale; the raw coefficients can individually wander much further.
    for seed in range(1, 11):
        z = np.random.default_rng(seed).normal(size=240)
        coef = hannan_rissanen(z, 2, 1)
        assert abs(coef.phi[0] + coef.psi[0]) <= 0.2, f"seed {seed}"
        assert abs(coef.phi[1]) <= 0.2, f"seed {seed}"
        assert max(np.max(np.abs(coef.phi)), abs(coef.psi[0])) <= 0.7, f"seed {seed}"
        # the intercept shares the ridge's variance inflation
        assert abs(coef.intercept) <= 0.35, f"seed {seed}"
        assert 0.5 <= coef.sigma2 <= 1.5, f"seed {seed}"


def test_hannan_rissanen_reflects_noninvertible_ma():
    # data generated with psi = 2 (non-invertible); the canonical estimate
    # must land inside the unit interval
    for seed in (1, 2, 3):
        z = sim_arma([], [2.0], 400, seed)
        coef = hannan_rissanen(z, 0, 1)
        assert abs(coef.psi[0]) < 1.0
        assert coef.sigma2 > 0


def test_hannan_rissanen_ma_roots_outside_unit_circle():
    z = sim_arma([0.5], [0.9], 300, 7)
    coef = hannan_rissanen(z, 1, 1)
    roots = np.roots(np.concatenate([coef.psi[::-1], [1.0]]))
    assert np.all(np.abs(roots) >= 1.0 - 1e-9)


def ma_autocovariance(psi, sigma2):
    """gamma_0 .. gamma_q of an MA(q) with coefficients psi and variance sigma2."""
    c = np.concatenate([[1.0], psi])
    return np.array([sigma2 * c[:len(c) - k] @ c[k:] for k in range(len(c))])


def reflect_one(psi, sigma2):
    new_psi, new_sigma2 = baselines._reflect_ma_roots(
        np.array([psi], dtype=float), np.array([sigma2])
    )
    return new_psi[0], new_sigma2[0]


@pytest.mark.parametrize("reflect", [reflect_one, sa_oracle.reflect_ma_roots])
@pytest.mark.parametrize("psi", [
    [2.0], [-3.0], [0.5], [1.0],
    [-0.75, -2.5],   # (1 - 2x)(1 + 1.25x): both roots inside
    [0.2, 4.0],      # a complex pair of modulus 1/2
    [2.5, 1.0],      # (1 + 2x)(1 + 0.5x): one root inside
    [0.3, -0.1],     # invertible
])
def test_reflection_keeps_autocovariance(reflect, psi):
    new_psi, new_sigma2 = reflect(np.array(psi), 1.5)
    np.testing.assert_allclose(ma_autocovariance(new_psi, new_sigma2),
                               ma_autocovariance(np.array(psi), 1.5), rtol=1e-12)
    roots = np.roots(np.concatenate([new_psi[::-1], [1.0]]))
    assert np.all(np.abs(roots) >= 1.0 - 1e-12)
    if np.all(np.abs(np.roots(np.concatenate([psi[::-1], [1.0]]))) >= 1.0):
        np.testing.assert_array_equal(new_psi, psi)
        assert new_sigma2 == 1.5


@pytest.mark.parametrize("reflect", [reflect_one, sa_oracle.reflect_ma_roots])
def test_reflection_of_psi_two(reflect):
    new_psi, new_sigma2 = reflect(np.array([2.0]), 1.0)
    assert new_psi[0] == pytest.approx(0.5, rel=1e-15)
    assert new_sigma2 == pytest.approx(4.0, rel=1e-15)


def test_batched_reflection_matches_oracle():
    rng = np.random.default_rng(8)
    for q in (1, 2, 3):
        psi = rng.normal(scale=2.0, size=(200, q))
        sigma2 = rng.uniform(0.5, 2.0, size=200)
        got_psi, got_sigma2 = baselines._reflect_ma_roots(psi, sigma2)
        for i in range(200):
            want_psi, want_sigma2 = sa_oracle.reflect_ma_roots(psi[i], sigma2[i])
            np.testing.assert_allclose(got_psi[i], want_psi, rtol=1e-10, atol=1e-12)
            assert got_sigma2[i] == pytest.approx(want_sigma2, rel=1e-10)


def test_hannan_rissanen_too_short():
    with pytest.raises(InsufficientHistory):
        hannan_rissanen(np.zeros(3), 2, 1)
    with pytest.raises(InvalidConfig):
        hannan_rissanen(np.zeros(100), -1, 0)


# ---------------------------------------------------------------- SA training

def test_sa_param_count(small_corpus):
    model = train_sa(small_corpus, ar=2, ma=1, s=24, train_hours=240)
    assert len(model.bs_ids) == small_corpus.n_bs
    assert model.n_params == 5 * small_corpus.n_bs


def test_sa_train_validation(small_corpus):
    with pytest.raises(InsufficientHistory):
        train_sa(small_corpus, s=24, train_hours=40)
    with pytest.raises(InvalidConfig):
        train_sa(small_corpus, s=0)
    with pytest.raises(InvalidConfig):
        train_sa(small_corpus, train_hours=10_000)


def test_sa_failed_station_is_excluded(small_corpus, monkeypatch):
    # train_sa fits the whole fleet in one call; poison the coefficients of
    # fleet row bad_index.
    real = baselines.hannan_rissanen
    bad_index = 2

    def poisoned(z, ar, ma):
        coef = real(z, ar, ma)
        coef.phi[bad_index] = np.nan
        return coef

    monkeypatch.setattr(baselines, "hannan_rissanen", poisoned)
    model = train_sa(small_corpus, train_hours=240)
    bad_bs = small_corpus.bs_ids[bad_index]
    assert model.failed_bs == [bad_bs]
    assert bad_bs not in model.bs_ids
    assert model.n_params == 5 * (small_corpus.n_bs - 1)
    fs = forecast_sa(model, small_corpus, 240, 4)
    assert fs.bs_ids == [bs for bs in small_corpus.bs_ids if bs != bad_bs]
    assert fs.forecast.shape == fs.actual.shape == (small_corpus.n_bs - 1, 4)


# ---------------------------------------------------------------- SA forecasting

def test_sa_zero_coefficients_is_seasonal_naive(small_corpus):
    model = zero_sa_model(small_corpus.bs_ids)
    fs = forecast_sa(model, small_corpus, 240, 96, "one_step")
    np.testing.assert_array_equal(fs.forecast,
                                  small_corpus.values[:, 240 - 24:240 - 24 + 96])


def test_sa_zero_coefficients_recursive_repeats_last_season(small_corpus):
    model = zero_sa_model(small_corpus.bs_ids)
    fs = forecast_sa(model, small_corpus, 240, 96, "recursive")
    season = small_corpus.values[:, 216:240]
    np.testing.assert_array_equal(fs.forecast, np.tile(season, 4))


def test_sa_one_step_hand_example():
    # s=1, AR(1): differenced series is 1,2,3,4,5; the prediction for the
    # last difference is 0.1 + 0.5 * 4 = 2.1, re-anchored at t_4 = 11
    t = TrafficMatrix(
        bs_ids=["a"],
        values=np.array([[1.0, 2.0, 4.0, 7.0, 11.0, 16.0]]),
        start_hour=0,
    )
    model = sa_oracle.fleet_model(
        {"a": SaCoefficients(np.array([0.5]), np.zeros(0), 0.1, 1.0)},
        s=1, ar=1, ma=0,
    )
    fs = forecast_sa(model, t, 5, 1, "one_step")
    assert fs.forecast[0, 0] == pytest.approx(13.1)
    assert fs.actual[0, 0] == 16.0


def test_sa_periodic_corpus_exact():
    t = periodic_corpus(n_bs=5)
    model = train_sa(t, train_hours=240)
    fs = forecast_sa(model, t, 240, 96, "one_step")
    assert fs.bs_ids == t.bs_ids
    np.testing.assert_allclose(fs.forecast, fs.actual, rtol=0, atol=1e-9)


def test_sa_forecast_validation(small_corpus):
    model = train_sa(small_corpus, train_hours=240)
    with pytest.raises(InvalidConfig):
        forecast_sa(model, small_corpus, 240, 0)
    with pytest.raises(InvalidConfig):
        forecast_sa(model, small_corpus, 240, 4, "oracle")
    with pytest.raises(InsufficientHistory):
        forecast_sa(model, small_corpus, 10, 4)
    with pytest.raises(InsufficientHistory):
        forecast_sa(model, small_corpus, 336, 1, "one_step")
    with pytest.raises(InsufficientHistory, match="past the corpus end"):
        forecast_sa(model, small_corpus, 337, 4, "recursive")
    # a corpus station the model neither fitted nor lists as failed
    model = sa_oracle.without(model, [small_corpus.bs_ids[0]])
    with pytest.raises(UnknownBs):
        forecast_sa(model, small_corpus, 240, 4)


def test_sa_recursive_past_corpus_end(small_corpus):
    model = train_sa(small_corpus, train_hours=240)
    fs = forecast_sa(model, small_corpus, 336, 30, "recursive")
    assert fs.actual is None
    assert np.all(np.isfinite(fs.forecast))


def test_sa_modes_agree_on_first_step(small_corpus):
    model = train_sa(small_corpus, train_hours=240)
    one = forecast_sa(model, small_corpus, 240, 1, "one_step")
    rec = forecast_sa(model, small_corpus, 240, 1, "recursive")
    np.testing.assert_allclose(one.forecast, rec.forecast, rtol=1e-12, atol=0)
