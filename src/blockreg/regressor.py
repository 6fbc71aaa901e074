"""Shared linear model trained by conjugate gradient on the least-squares cost.

The cost over N_s normalized samples is

    J(theta) = 1/(2 N_s) * sum_i (y_i - theta0 - sum_j theta_j x_ij)^2

a convex quadratic, so linear conjugate gradient on its normal-equations
system is exact in at most W + 1 steps of exact arithmetic. A direct dense
solve of the same system serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularSystem, Underdetermined
from .pipeline import FeatureSet, NormalizationStats

DEFAULT_TOL = 1e-8
COND_LIMIT = 1e12


@dataclass
class BlockModel:
    """Trained linear model plus everything needed to forecast with it.

    ``theta`` is ordered oldest lag first, matching the feature pipeline.
    ``seasonality_m == 0`` marks a model over raw (undifferenced) windows:
    the LR baseline, whose ``kind`` is "lr"; every other model is "br".
    """

    theta0: float
    theta: np.ndarray
    stats: NormalizationStats
    seasonality_m: int
    window_w: int

    @property
    def n_params(self) -> int:
        return self.window_w + 1

    @property
    def kind(self) -> str:
        return "lr" if self.seasonality_m == 0 else "br"


@dataclass
class TrainingDiagnostics:
    """What training did: final cost, iterations, residuals, convergence."""

    final_cost: float
    iterations: int
    residuals: np.ndarray
    converged: bool


def _check_dims(theta: np.ndarray, f: FeatureSet) -> None:
    if theta.shape != (f.window_w,) or f.x.shape[1] != f.window_w:
        raise DimensionMismatch(
            f"theta has {theta.shape[0]} weights, features have {f.x.shape[1]} columns"
        )


def _residuals(theta0: float, theta: np.ndarray, f: FeatureSet) -> np.ndarray:
    return f.y - theta0 - f.x @ theta


def cost(model: BlockModel, f: FeatureSet) -> float:
    """J(theta) = 1/(2 N_s) * sum of squared residuals."""
    _check_dims(model.theta, f)
    r = _residuals(model.theta0, model.theta, f)
    return float(r @ r) / (2 * f.n_samples)


def cost_gradient(model: BlockModel, f: FeatureSet) -> np.ndarray:
    """Analytic gradient of the cost; entry 0 is d/d theta0."""
    _check_dims(model.theta, f)
    r = _residuals(model.theta0, model.theta, f)
    g = np.empty(f.window_w + 1)
    g[0] = -r.sum() / f.n_samples
    g[1:] = -(f.x.T @ r) / f.n_samples
    return g


def _normal_system(f: FeatureSet) -> tuple[np.ndarray, np.ndarray]:
    """Return (A^T A, A^T y) for the design A = [1 | X]."""
    a = np.empty((f.n_samples, f.window_w + 1))
    a[:, 0] = 1.0
    a[:, 1:] = f.x
    return a.T @ a, a.T @ f.y


def _make_model(
    theta_full: np.ndarray,
    f: FeatureSet,
    stats: NormalizationStats | None,
    seasonality_m: int,
) -> BlockModel:
    if stats is None:
        stats = NormalizationStats.identity(f.window_w)
    return BlockModel(
        theta0=float(theta_full[0]),
        theta=theta_full[1:].copy(),
        stats=stats,
        seasonality_m=seasonality_m,
        window_w=f.window_w,
    )


def train_cg(
    f: FeatureSet,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    stats: NormalizationStats | None = None,
    seasonality_m: int = 0,
) -> tuple[BlockModel, TrainingDiagnostics]:
    """Minimize the cost by linear conjugate gradient from theta = 0.

    Stops when the gradient norm drops to ``tol`` (default 1e-8) or after
    ``max_iter`` iterations (default 10 * (W + 1)); exhausting the budget
    returns the best iterate with ``converged=False`` rather than raising.

    ``stats`` and ``seasonality_m`` are recorded on the returned model for
    forecasting; they do not affect training.
    """
    n, w = f.n_samples, f.window_w
    if n < w + 1:
        raise Underdetermined(f"{n} samples cannot fit {w + 1} parameters")
    if max_iter is None:
        max_iter = 10 * (w + 1)
    gram, aty = _normal_system(f)
    h = gram / n
    b = aty / n

    theta = np.zeros(w + 1)
    r = b - h @ theta
    p = r.copy()
    rs = float(r @ r)
    iterations = 0
    converged = np.sqrt(rs) <= tol
    while not converged and iterations < max_iter:
        hp = h @ p
        php = float(p @ hp)
        if php <= 0:
            # Direction of zero curvature: the system is consistent along it
            # only if the residual is orthogonal, which CG guarantees here.
            break
        alpha = rs / php
        theta += alpha * p
        r -= alpha * hp
        rs_new = float(r @ r)
        iterations += 1
        if np.sqrt(rs_new) <= tol:
            converged = True
        else:
            p = r + (rs_new / rs) * p
        rs = rs_new

    model = _make_model(theta, f, stats, seasonality_m)
    resid = _residuals(model.theta0, model.theta, f)
    diag = TrainingDiagnostics(
        final_cost=float(resid @ resid) / (2 * n),
        iterations=iterations,
        residuals=resid,
        converged=bool(converged),
    )
    return model, diag


def train_normal_equations(
    f: FeatureSet,
    stats: NormalizationStats | None = None,
    seasonality_m: int = 0,
) -> BlockModel:
    """Solve the normal equations directly; oracle for train_cg.

    Raises SingularSystem when the augmented design is rank deficient,
    reporting the condition estimate.
    """
    n, w = f.n_samples, f.window_w
    if n < w + 1:
        raise Underdetermined(f"{n} samples cannot fit {w + 1} parameters")
    gram, aty = _normal_system(f)
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystem(
            f"normal equations rank deficient (condition estimate {cond:.3e})"
        )
    try:
        theta = np.linalg.solve(gram, aty)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"normal equations solve failed: {exc}") from exc
    return _make_model(theta, f, stats, seasonality_m)
