"""The batched Hannan-Rissanen fit against the per-station oracle.

``baselines.hannan_rissanen`` fits a stack of series by stacked normal
equations and sends rank-deficient or badly conditioned rows to lstsq;
``sa_oracle.hannan_rissanen`` runs two lstsq per series. They must agree to
1e-9 relative to each row's scale: phi and psi against the row's largest
oracle coefficient (at least 1), the intercept against that times the row's
largest |z| (it is a sum of coefficients times values of z), and sigma2
against the square of that |z| or, if larger, sigma2 itself (reflecting an
MA root multiplies sigma2 by up to psi^2).

Zero, constant, periodic and near-periodic rows (one period repeated, but
for the last value, moved by at least 1) have rank-deficient systems, whose
answer is the minimum-norm one. With ma > 0 all but the zero row are
noise-driven: constant and periodic rows are fitted exactly by the long
autoregression, so their stage-1 residuals are rounding noise, and a
near-periodic row's residuals are noise at every position but one period
class. Stage 2 regresses on that noise, so every coefficient it gives such
a row depends on the solver's rounding: the batched fit and the oracle
differ by 0.08 in phi on an exactly fitted row, and give psi (1.0, 1e-14)
against (0.33, -0.56) on a period-2 near-periodic row with ma = 2; the
oracle's `np.roots` can even raise on the psi it gets. The property
compares no coefficient of a noise-driven row; it checks that the row
leaves the others alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockreg.baselines as baselines
import blockreg.pipeline as pipeline
import sa_oracle
from blockreg import SynthConfig, ar_long_order, hannan_rissanen, synthesize, train_sa
from blockreg.errors import SingularSystem

from conftest import periodic_corpus

RTOL = 1e-9


def assert_matches_oracle(z, got, want):
    """``got`` (one row of a batched fit) equals the oracle's ``want``."""
    coef_scale = max([1.0, *np.abs(want.phi), *np.abs(want.psi)])
    z_scale = max(float(np.max(np.abs(z))), np.finfo(float).tiny)
    np.testing.assert_allclose(got.phi, want.phi, rtol=0, atol=RTOL * coef_scale)
    np.testing.assert_allclose(got.psi, want.psi, rtol=0, atol=RTOL * coef_scale)
    assert abs(got.intercept - want.intercept) <= RTOL * coef_scale * z_scale
    assert abs(got.sigma2 - want.sigma2) <= RTOL * max(z_scale**2, want.sigma2)


def row(coef, i):
    return baselines.SaCoefficients(
        coef.phi[i], coef.psi[i], coef.intercept[i], coef.sigma2[i]
    )


@st.composite
def fleets(draw):
    """A stack of series with injected zero, constant, periodic,
    near-periodic and NaN rows.

    Returns the stack, the NaN row, the noise-driven rows and the orders.
    """
    ar = draw(st.integers(0, 3))
    ma = draw(st.integers(0, 2))
    n = draw(st.integers(24, 160))
    h = ar_long_order(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noisy = draw(st.integers(1, 5))
    z = rng.normal(size=(noisy, n)) * 10.0 ** rng.uniform(-3, 3, size=(noisy, 1))
    z += rng.normal(size=(noisy, 1)) * np.abs(z).max(axis=1, keepdims=True)
    period = draw(st.integers(2, h))
    near_periodic = np.resize(rng.normal(size=period), n)
    near_periodic[-1] += rng.choice([-1.0, 1.0]) * (1.0 + rng.exponential())
    injected = [
        np.zeros(n),
        near_periodic,
        np.full(n, draw(st.floats(-1e3, 1e3, allow_nan=False).filter(bool))),
        np.resize(rng.normal(size=period), n),
    ]
    z = np.concatenate([z, injected])
    order = rng.permutation(len(z))
    # With ma = 0 stage 2 never reads the residuals.
    noise_driven = set(np.flatnonzero(order > noisy).tolist()) if ma else set()
    poisoned = draw(st.integers(0, len(z) - 1))
    return z[order], poisoned, noise_driven, ar, ma


@settings(max_examples=150, deadline=None)
@given(fleets())
def test_batched_fit_matches_oracle(fleet):
    z, poisoned, noise_driven, ar, ma = fleet
    z_nan = z.copy()
    z_nan[poisoned, len(z) % z.shape[1]] = np.nan
    got = hannan_rissanen(z_nan, ar, ma)
    assert got.phi.shape == (len(z), ar) and got.psi.shape == (len(z), ma)
    assert np.isnan(got.phi[poisoned]).all() and np.isnan(got.psi[poisoned]).all()
    assert np.isnan(got.intercept[poisoned])
    for i, series in enumerate(z):
        if i != poisoned and i not in noise_driven:
            want = sa_oracle.hannan_rissanen(series, ar, ma)
            assert_matches_oracle(series, row(got, i), want)


def test_train_sa_matches_oracle_one_station_per_chunk(monkeypatch):
    t = synthesize(SynthConfig(n_bs=12, n_hours=336, seed=5))
    whole = train_sa(t, train_hours=240)
    calls = {"n": 0}
    real = baselines._fit_rows

    def counted(z, ar, ma, h):
        calls["n"] += 1
        return real(z, ar, ma, h)

    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 1)
    monkeypatch.setattr(baselines, "_fit_rows", counted)
    single = train_sa(t, train_hours=240)
    assert calls["n"] == t.n_bs
    oracle = sa_oracle.train_sa(t, train_hours=240)
    z = t.values[:, 24:240] - t.values[:, :216]
    assert single.bs_ids == whole.bs_ids == oracle.bs_ids
    # Chunking does not change a station's digits.
    for name in ("phi", "psi", "intercept", "sigma2"):
        np.testing.assert_array_equal(getattr(single.coef, name), getattr(whole.coef, name))
    for i, bs in enumerate(t.bs_ids):
        assert_matches_oracle(
            z[i], sa_oracle.station(whole, bs), sa_oracle.station(oracle, bs)
        )


def test_periodic_corpus_gets_minimum_norm_answer():
    # z is exactly 0, so every coefficient is the minimum-norm 0.
    t = periodic_corpus(n_bs=40)
    model = train_sa(t, train_hours=240)
    assert not model.failed_bs
    assert not model.coef.phi.any() and not model.coef.psi.any()
    assert (model.coef.intercept == 0.0).all() and (model.coef.sigma2 == 0.0).all()


def test_huge_series_keep_finite_coefficients():
    # Scaled by 1e300 the Gram matrices would overflow; the fit scales each
    # row by a power of two, so only sigma2 (about 1e600) overflows.
    z = np.random.default_rng(3).normal(size=(3, 216))
    small = hannan_rissanen(z, 2, 1)
    huge = hannan_rissanen(z * 1e300, 2, 1)
    np.testing.assert_allclose(huge.phi, small.phi, rtol=1e-12)
    np.testing.assert_allclose(huge.psi, small.psi, rtol=1e-12)
    np.testing.assert_allclose(huge.intercept, small.intercept * 1e300, rtol=1e-12)
    assert np.isinf(huge.sigma2).all()


def test_one_series_gives_floats_and_raises_on_nan():
    z = np.random.default_rng(4).normal(size=216)
    coef = hannan_rissanen(z, 2, 1)
    assert coef.phi.shape == (2,) and coef.psi.shape == (1,)
    assert type(coef.intercept) is float and type(coef.sigma2) is float
    stacked = hannan_rissanen(np.stack([z, z]), 2, 1)
    np.testing.assert_array_equal(stacked.phi[1], coef.phi)
    assert stacked.intercept[1] == coef.intercept
    z[7] = np.nan
    with pytest.raises(SingularSystem):
        hannan_rissanen(z, 2, 1)


def test_leading_axes_are_kept():
    z = np.random.default_rng(6).normal(size=(2, 3, 100))
    coef = hannan_rissanen(z, 3, 2)
    assert coef.phi.shape == (2, 3, 3) and coef.psi.shape == (2, 3, 2)
    assert coef.intercept.shape == coef.sigma2.shape == (2, 3)
    flat = hannan_rissanen(z.reshape(6, 100), 3, 2)
    np.testing.assert_array_equal(coef.phi.reshape(6, 3), flat.phi)
