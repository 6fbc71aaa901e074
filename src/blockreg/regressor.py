"""Shared linear model trained by conjugate gradient on the least-squares cost.

The cost over N_s normalized samples is

    J(theta) = 1/(2 N_s) * sum_i (y_i - theta0 - sum_j theta_j x_ij)^2

a convex quadratic, so linear conjugate gradient on its normal-equations
system H theta = b is exact in at most W + 1 steps of exact arithmetic.
Stopped relative to b, it lands within about 1e-11 of lr's least-squares
optimum as a direct dense solve, the oracle, finds it. Both solve from a
`NormalSystem`: the (W+1)^2 sums the cost depends on. Samples may be added
to it a group at a time; training fills it from lag sums of the
differenced matrix instead (`forecaster.train_block_regression`), so its
windows are never built.

The solvers only solve: each returns a model over the windows it was
given, with identity normalization stats and m = 0. The caller that
normalized or differenced the windows stamps its stats and lag on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularSystem, Underdetermined
from .pipeline import FeatureSet, NormalizationStats

RTOL = 1e-14
ITERATIONS_PER_WEIGHT = 10
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
    """What training did: final cost, iterations, convergence, sample count."""

    final_cost: float
    iterations: int
    converged: bool
    n_samples: int


@dataclass
class NormalSystem:
    """Sums over samples that determine the least-squares cost.

    For the design A = [1 | x]: ``gram`` is A^T A, ``aty`` is A^T y and
    ``yty`` is y^T y, over the ``n_samples`` samples added so far. Adding
    the samples in any grouping gives the same sums, up to rounding.
    """

    window_w: int
    gram: np.ndarray
    aty: np.ndarray
    yty: float = 0.0
    n_samples: int = 0

    @classmethod
    def empty(cls, w: int) -> "NormalSystem":
        return cls(w, np.zeros((w + 1, w + 1)), np.zeros(w + 1))

    def add(self, f: FeatureSet) -> None:
        """Add the samples of ``f``."""
        if f.x.shape[1] != self.window_w:
            raise DimensionMismatch(
                f"system has {self.window_w} weights, "
                f"features have {f.x.shape[1]} columns"
            )
        x, y = f.x, f.y
        col_sums = x.sum(axis=0)
        self.gram[0, 0] += f.n_samples
        self.gram[0, 1:] += col_sums
        self.gram[1:, 0] += col_sums
        self.gram[1:, 1:] += x.T @ x
        self.aty[0] += y.sum()
        self.aty[1:] += y @ x
        self.yty += float(y @ y)
        self.n_samples += f.n_samples

    def cost(self, theta_full: np.ndarray) -> float:
        """J at [theta0, theta...], from the sums (clipped at 0 against rounding)."""
        sse = self.yty - 2 * theta_full @ self.aty + theta_full @ self.gram @ theta_full
        return max(float(sse), 0.0) / (2 * self.n_samples)


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


def _as_system(f: FeatureSet | NormalSystem) -> NormalSystem:
    system = f
    if not isinstance(f, NormalSystem):
        system = NormalSystem.empty(f.window_w)
        system.add(f)
    n, w = system.n_samples, system.window_w
    if n < w + 1:
        raise Underdetermined(f"{n} samples cannot fit {w + 1} parameters")
    return system


def _model(theta_full: np.ndarray) -> BlockModel:
    """Weights over normalized windows: identity stats, m = 0."""
    w = len(theta_full) - 1
    return BlockModel(float(theta_full[0]), theta_full[1:].copy(),
                      NormalizationStats.identity(w), 0, w)


def train_cg(f: FeatureSet | NormalSystem) -> tuple[BlockModel, TrainingDiagnostics]:
    """Minimize the cost by linear conjugate gradient from theta = 0.

    ``f`` is the samples or their `NormalSystem`. H = A^T A / n and
    b = A^T y / n for the design A = [1 | x]. CG works on b scaled by a power
    of two, so the weights scale exactly with y, and stops with
    ``converged=True`` once ||H theta - b|| is at most RTOL * ||b||, or after
    ITERATIONS_PER_WEIGHT * (W + 1) iterations with the last iterate and
    ``converged=False`` rather than raising. The model has identity stats
    and m = 0.
    """
    system = _as_system(f)
    n, w = system.n_samples, system.window_w
    h = system.gram / n
    _, k = np.frexp(np.abs(system.aty).max() / n)
    r = np.ldexp(system.aty / n, -k)  # b / 2^k, the residual at theta = 0

    theta = np.zeros(w + 1)
    p = r.copy()
    rs = float(r @ r)
    stop = RTOL * np.sqrt(rs)  # RTOL * ||b|| / 2^k, compared with norms
    iterations = 0
    while np.sqrt(rs) > stop and iterations < ITERATIONS_PER_WEIGHT * (w + 1):
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
        p = r + (rs_new / rs) * p
        rs = rs_new
    theta = np.ldexp(theta, k)

    diag = TrainingDiagnostics(
        final_cost=system.cost(theta),
        iterations=iterations,
        converged=bool(np.sqrt(rs) <= stop),
        n_samples=n,
    )
    return _model(theta), diag


def train_normal_equations(f: FeatureSet | NormalSystem) -> BlockModel:
    """Solve the normal equations directly; oracle for train_cg.

    Raises SingularSystem when the augmented design is rank deficient,
    reporting the condition estimate.
    """
    system = _as_system(f)
    gram = system.gram
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystem(
            f"normal equations rank deficient (condition estimate {cond:.3e})"
        )
    try:
        theta = np.linalg.solve(gram, system.aty)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"normal equations solve failed: {exc}") from exc
    return _model(theta)
