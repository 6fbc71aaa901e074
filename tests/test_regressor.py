"""Least-squares cost, analytic gradient, and the conjugate gradient trainer.

The trainer works on a convex quadratic, so a dense normal-equations solve
is an exact oracle for it, and a finite-difference stencil is an exact
oracle for the gradient up to truncation error.
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockreg import (
    BlockModel,
    FeatureSet,
    NormalizationStats,
    NormalSystem,
    cost,
    cost_gradient,
    regressor,
    train_cg,
    train_normal_equations,
)
from blockreg.errors import DimensionMismatch, SingularSystem, Underdetermined


def problem(rng, n, w, noise=0.1):
    x = rng.normal(size=(n, w))
    true_theta = rng.normal(size=w)
    y = 1.5 + x @ true_theta + noise * rng.normal(size=n)
    return FeatureSet(x=x, y=y, provenance=np.zeros((n, 2), dtype=int), window_w=w)


def system_of(f):
    system = NormalSystem.empty(f.window_w)
    system.add(f)
    return system


def as_model(theta0, theta, w):
    return BlockModel(
        theta0=theta0,
        theta=np.asarray(theta, dtype=float),
        stats=NormalizationStats.identity(w),
        seasonality_m=0,
        window_w=w,
    )


def numerical_gradient(theta_full, f, step=1e-6):
    g = np.empty(theta_full.shape[0])
    for j in range(theta_full.shape[0]):
        hi = theta_full.copy()
        lo = theta_full.copy()
        hi[j] += step
        lo[j] -= step
        g[j] = (
            cost(as_model(hi[0], hi[1:], f.window_w), f)
            - cost(as_model(lo[0], lo[1:], f.window_w), f)
        ) / (2 * step)
    return g


def test_cost_zero_on_exact_fit(rng):
    f = problem(rng, 50, 3, noise=0.0)
    model, diag = train_cg(f)
    assert diag.final_cost < 1e-20
    assert cost(model, f) < 1e-20


def test_cost_matches_definition(rng):
    f = problem(rng, 30, 2)
    model = as_model(0.3, [1.0, -2.0], 2)
    r = f.y - 0.3 - f.x @ np.array([1.0, -2.0])
    assert cost(model, f) == pytest.approx(float(r @ r) / 60)


def test_gradient_matches_finite_differences(rng):
    for _ in range(10):
        w = int(rng.integers(1, 7))
        f = problem(rng, int(rng.integers(w + 2, 60)), w)
        theta_full = rng.normal(size=w + 1)
        g = cost_gradient(as_model(theta_full[0], theta_full[1:], w), f)
        g_fd = numerical_gradient(theta_full, f)
        np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-8)


def test_gradient_zero_at_solution(rng):
    f = problem(rng, 200, 4)
    model, _ = train_cg(f)
    g = cost_gradient(model, f)
    assert np.linalg.norm(g) <= 1e-10


def test_cg_matches_normal_equations(rng):
    for _ in range(20):
        w = int(rng.integers(1, 9))
        f = problem(rng, 400, w)
        cg_model, diag = train_cg(f)
        ne_model = train_normal_equations(f)
        assert diag.converged
        assert cg_model.theta0 == pytest.approx(ne_model.theta0, abs=1e-8)
        np.testing.assert_allclose(cg_model.theta, ne_model.theta, atol=1e-8)


def test_cg_optimality_probe(rng):
    # random perturbations never beat the trained point
    f = problem(rng, 300, 5)
    model, diag = train_cg(f)
    base = cost(model, f)
    for _ in range(25):
        delta = rng.normal(size=6) * 10.0 ** rng.integers(-4, 1)
        probe = as_model(model.theta0 + delta[0], model.theta + delta[1:], 5)
        assert cost(probe, f) >= base - 1e-15


def test_cg_sample_order_invariance(rng):
    f = problem(rng, 120, 3)
    perm = rng.permutation(120)
    shuffled = FeatureSet(
        x=f.x[perm], y=f.y[perm], provenance=f.provenance[perm], window_w=3
    )
    a, _ = train_cg(f)
    b, _ = train_cg(shuffled)
    assert a.theta0 == pytest.approx(b.theta0, abs=1e-10)
    np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)


def test_cg_iteration_budget_and_nonconvergence(rng, monkeypatch):
    # Features that share a common factor, as the lags of one series do. On
    # such a system the residual CG tracks stays above 0 after convergence;
    # on an uncorrelated one it can reach exactly 0 within the budget.
    x = rng.normal(size=(200, 1)) + 0.1 * rng.normal(size=(200, 6))
    f = FeatureSet(x=x, y=1.5 + x @ rng.normal(size=6) + 0.1 * rng.normal(size=200),
                   provenance=np.zeros((200, 2), dtype=int), window_w=6)
    full, full_diag = train_cg(f)
    assert full_diag.converged
    assert full_diag.iterations <= 10 * 7
    # With no relative stop, CG runs out its budget of 10 (w + 1) iterations
    # and returns the last iterate as a model, not an error.
    monkeypatch.setattr(regressor, "RTOL", 0.0)
    model, diag = train_cg(f)
    assert diag.iterations == 10 * 7
    assert not diag.converged
    assert cost(model, f) == pytest.approx(cost(full, f), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    w=st.sampled_from([*range(1, 9), 72]),
    k=st.integers(-900, 900),
    seed=st.integers(0, 2**32 - 1),
)
@example(w=3, k=-30, seed=0)
@example(w=3, k=-540, seed=0)
@example(w=3, k=520, seed=0)
def test_cg_commutes_with_a_power_of_two_scale(w, k, seed):
    # CG runs on b scaled by a power of two and stops relative to it, so
    # scaling y by 2^k scales the weights by 2^k bit for bit. That holds
    # while every sum of the system is normal, also where y @ y, and so the
    # cost, leaves the float range (|k| > 500).
    f = problem(np.random.default_rng(seed), 3 * (w + 1), w)
    scaled = FeatureSet(x=f.x, y=np.ldexp(f.y, k), provenance=f.provenance, window_w=w)
    model, diag = train_cg(f)
    with np.errstate(over="ignore", invalid="ignore"):
        got, got_diag = train_cg(scaled)
    assert got.theta0 == np.ldexp(model.theta0, k)
    np.testing.assert_array_equal(got.theta, np.ldexp(model.theta, k))
    assert (got_diag.iterations, got_diag.converged) == (diag.iterations, diag.converged)


def test_underdetermined_raises(rng):
    f = problem(rng, 3, 5)
    with pytest.raises(Underdetermined):
        train_cg(f)
    with pytest.raises(Underdetermined):
        train_normal_equations(f)


def test_normal_equations_singular_system(rng):
    x = rng.normal(size=(100, 3))
    x[:, 2] = x[:, 1]  # exact collinearity
    f = FeatureSet(x=x, y=rng.normal(size=100),
                   provenance=np.zeros((100, 2), dtype=int), window_w=3)
    with pytest.raises(SingularSystem, match="condition"):
        train_normal_equations(f)


def test_cg_survives_singular_system(rng):
    # CG on a consistent singular system returns a minimizer without raising
    x = rng.normal(size=(100, 3))
    x[:, 2] = x[:, 1]
    theta = np.array([1.0, 2.0, 0.0])
    f = FeatureSet(x=x, y=0.5 + x @ theta,
                   provenance=np.zeros((100, 2), dtype=int), window_w=3)
    model, diag = train_cg(f)
    assert cost(model, f) < 1e-16


def test_diagnostics_residuals(rng):
    f = problem(rng, 80, 2)
    model, diag = train_cg(f)
    assert diag.final_cost == pytest.approx(cost(model, f), rel=1e-9)


def test_train_from_normal_system(rng):
    f = problem(rng, 80, 4)
    from_samples, diag_f = train_cg(f)
    from_system, diag_s = train_cg(system_of(f))
    assert from_system.theta0 == from_samples.theta0
    np.testing.assert_array_equal(from_system.theta, from_samples.theta)
    assert diag_s.n_samples == diag_f.n_samples == 80
    assert diag_s.final_cost == pytest.approx(diag_f.final_cost, rel=1e-9)
    assert diag_s.final_cost == pytest.approx(cost(from_system, f), rel=1e-9)


def test_normal_system_sums_over_groups(rng):
    f = problem(rng, 90, 3)
    system = NormalSystem.empty(3)
    for rows in (slice(0, 10), slice(10, 11), slice(11, 90)):
        system.add(FeatureSet(x=f.x[rows], y=f.y[rows],
                              provenance=f.provenance[rows], window_w=3))
    whole = system_of(f)
    assert system.n_samples == whole.n_samples == 90
    np.testing.assert_allclose(system.gram, whole.gram, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(system.aty, whole.aty, rtol=1e-12, atol=1e-12)
    a = np.column_stack([np.ones(90), f.x])
    np.testing.assert_allclose(whole.gram, a.T @ a, rtol=1e-12, atol=1e-12)
    assert whole.yty == pytest.approx(float(f.y @ f.y), rel=1e-12)
    with pytest.raises(DimensionMismatch):
        system.add(problem(rng, 10, 2))


def test_solvers_return_identity_stats_and_lag_zero(rng):
    f = problem(rng, 60, 4)
    for source in (f, system_of(f)):
        for model in (train_cg(source)[0], train_normal_equations(source)):
            assert (model.seasonality_m, model.window_w, model.kind) == (0, 4, "lr")
            np.testing.assert_array_equal(model.stats.mu_x, np.zeros(4))
            np.testing.assert_array_equal(model.stats.sigma_x, np.ones(4))
            assert (model.stats.mu_y, model.stats.sigma_y) == (0.0, 1.0)
    for solver in (train_cg, train_normal_equations):
        assert list(inspect.signature(solver).parameters) == ["f"]


def test_cost_dimension_check(rng):
    f = problem(rng, 30, 3)
    with pytest.raises(DimensionMismatch):
        cost(as_model(0.0, [1.0, 2.0], 2), f)


def test_model_param_count():
    assert as_model(0.0, [0.0, 0.0, 0.0], 3).n_params == 4
