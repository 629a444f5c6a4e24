"""SE(2) poses and residual models for nonlinear factors, and the
relinearize-eliminate Gauss-Newton loop over a hybrid factor graph.

Poses use the group chart as retraction: retract(p, d) composes p with the
pose whose coordinates are d, and local(p, q) inverts it exactly, so
retract(p, local(p, q)) == q to machine precision.  Between/prior residuals
carry analytic Jacobians in this chart; arbitrary user residuals fall back
to central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import elimination
from .discrete import DecisionTree
from .hybrid import HybridBayesNet, HybridFactorGraph, HybridValues

# d/dtheta of a rotation matrix at 0.
_J = np.array([[0.0, -1.0], [1.0, 0.0]])

FD_STEP = 1e-6


def wrap_angle(theta: float) -> float:
    """Map an angle into (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


@dataclass(frozen=True)
class Pose2:
    """SE(2) pose; theta is normalized into (-pi, pi] on construction."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    def rotation(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def as_vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])


def compose(p1: Pose2, p2: Pose2) -> Pose2:
    t = p1.translation() + p1.rotation() @ p2.translation()
    return Pose2(t[0], t[1], p1.theta + p2.theta)


def inverse(p: Pose2) -> Pose2:
    t = -(p.rotation().T @ p.translation())
    return Pose2(t[0], t[1], -p.theta)


def between(p1: Pose2, p2: Pose2) -> Pose2:
    """Relative pose: p1^{-1} o p2."""
    return compose(inverse(p1), p2)


def retract(p: Pose2, delta: np.ndarray) -> Pose2:
    d = np.asarray(delta, dtype=float).reshape(-1)
    return compose(p, Pose2(d[0], d[1], d[2]))


def local(p1: Pose2, p2: Pose2) -> np.ndarray:
    """Chart coordinates of p2 around p1; inverse of retract."""
    return between(p1, p2).as_vector()


def _tangent_dim(value) -> int:
    return 3 if isinstance(value, Pose2) else int(np.asarray(value).size)


def _retract_value(value, delta):
    if isinstance(value, Pose2):
        return retract(value, delta)
    return np.asarray(value, dtype=float) + np.asarray(delta, dtype=float)


def retract_values(values: Mapping[Any, Any], delta: Mapping[Any, np.ndarray]):
    return {vid: _retract_value(v, delta[vid]) if vid in delta else v
            for vid, v in values.items()}


def numerical_jacobians(residual: Callable[[Mapping[Any, Any]], np.ndarray],
                        values: Mapping[Any, Any], variables: Sequence[Any],
                        step: float = FD_STEP) -> Dict[Any, np.ndarray]:
    """Central finite differences in the retraction chart."""
    out: Dict[Any, np.ndarray] = {}
    for vid in variables:
        dim = _tangent_dim(values[vid])
        cols = []
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = step
            plus = dict(values)
            plus[vid] = _retract_value(values[vid], e)
            minus = dict(values)
            minus[vid] = _retract_value(values[vid], -e)
            cols.append((residual(plus) - residual(minus)) / (2.0 * step))
        out[vid] = np.column_stack(cols)
    return out


class BetweenResidual:
    """Relative-pose constraint: r = local(between(x_i, x_j), measured)."""

    def __init__(self, i, j, measurement: Pose2):
        self.variables = (i, j)
        self.dim = 3
        self.measurement = measurement

    def evaluate(self, values) -> np.ndarray:
        rel = between(values[self.variables[0]], values[self.variables[1]])
        return local(rel, self.measurement)

    def jacobians(self, values) -> Dict[Any, np.ndarray]:
        i, j = self.variables
        rel = between(values[i], values[j])
        Rt = rel.rotation().T
        r = local(rel, self.measurement)
        tm = self.measurement.translation()
        J1 = np.zeros((3, 3))
        J1[:2, :2] = Rt
        J1[:2, 2] = Rt @ (_J @ tm)
        J1[2, 2] = 1.0
        J2 = np.zeros((3, 3))
        J2[:2, :2] = -np.eye(2)
        J2[:2, 2] = -(_J @ r[:2])
        J2[2, 2] = -1.0
        return {i: J1, j: J2}


class PriorResidual:
    """Absolute pose constraint: r = local(x_i, mean)."""

    def __init__(self, i, mean: Pose2):
        self.variables = (i,)
        self.dim = 3
        self.mean = mean

    def evaluate(self, values) -> np.ndarray:
        return local(values[self.variables[0]], self.mean)

    def jacobians(self, values) -> Dict[Any, np.ndarray]:
        i = self.variables[0]
        r = self.evaluate(values)
        J = np.zeros((3, 3))
        J[:2, :2] = -np.eye(2)
        J[:2, 2] = -(_J @ r[:2])
        J[2, 2] = -1.0
        return {i: J}


class LinearResidual:
    """r = sum_i H_i x_i - z over plain vector variables (exact Jacobians)."""

    def __init__(self, blocks: Mapping[Any, Any], z):
        self.blocks = {vid: np.atleast_2d(np.asarray(H, dtype=float))
                       for vid, H in blocks.items()}
        self.variables = tuple(sorted(self.blocks))
        self.z = np.atleast_1d(np.asarray(z, dtype=float))
        self.dim = self.z.shape[0]

    def evaluate(self, values) -> np.ndarray:
        r = -self.z
        for vid, H in self.blocks.items():
            r = r + H @ np.atleast_1d(np.asarray(values[vid], dtype=float))
        return r

    def jacobians(self, values) -> Dict[Any, np.ndarray]:
        return dict(self.blocks)


class FuncResidual:
    """Arbitrary residual function; Jacobians by finite differences."""

    def __init__(self, variables: Sequence[Any], dim: int,
                 fn: Callable[[Mapping[Any, Any]], np.ndarray]):
        self.variables = tuple(variables)
        self.dim = dim
        self.fn = fn

    def evaluate(self, values) -> np.ndarray:
        return np.asarray(self.fn(values), dtype=float).reshape(-1)

    def jacobians(self, values) -> Dict[Any, np.ndarray]:
        return numerical_jacobians(self.evaluate, values, self.variables)


# perfbench/tracer.py patches linearize in this name's class __dict__.
HybridNonlinearFactorGraph = HybridFactorGraph


class OptimizationDiverged(RuntimeError):
    """Raised when a step raises the error beyond rounding and nothing else
    changes; carries the current iterate, which is the best one seen, and
    the net of the step taken at it."""

    def __init__(self, message, best_values, best_assignment, bn):
        super().__init__(message)
        self.best_values = best_values
        self.best_assignment = best_assignment
        self.bn = bn


@dataclass
class OptimizeConfig:
    tol: float = 1e-6
    max_iters: int = 20
    prune: Optional[int] = None
    dmr_delta: Optional[float] = None


def gauss_newton_step(graph: HybridFactorGraph,
                      values: Mapping[Any, Any],
                      support: Optional[DecisionTree], prune: Optional[int]
                      ) -> Tuple[HybridBayesNet, Optional[DecisionTree],
                                 HybridValues]:
    """One hybrid Gauss-Newton step at `values`; returns (net, support, step).

    Linearizes once, restricts to the incoming support (live joint
    hypotheses; None keeps every one), eliminates with Sum-Product and, when
    `prune` is set, prunes to that many hypotheses and takes the survivors as
    the new support.  The update in `step.continuous` is the hybrid MAP read
    off the (pruned) net.
    """
    lin = graph.linearize(values)
    if support is not None:
        lin = elimination.restrict_to_support(lin, support)
    bn = elimination.sum_product(lin)
    if prune is not None:
        bn = elimination.prune_bayes_net(bn, prune)
        support = elimination.hypothesis_support(bn)
    return bn, support, elimination.bn_map(bn)


def optimize(g: HybridFactorGraph, init: Mapping[Any, Any],
             config: Optional[OptimizeConfig] = None,
             support: Optional[DecisionTree] = None
             ) -> Tuple[HybridValues, HybridBayesNet]:
    """Gauss-Newton over the hybrid graph, restricted to `support`.

    Each iteration takes a gauss_newton_step, retracts, then optionally
    removes dead modes, carrying the support across iterations.  A step that
    raises the error is rejected; when dead mode removal then fixes nothing
    the next iteration would repeat it, so the loop stops: an increase at
    rounding level means convergence, a larger one raises
    OptimizationDiverged carrying the current iterate and its net.
    """
    cfg = config or OptimizeConfig()
    values = dict(init)
    graph = g
    fixed_total: Dict[Any, int] = {}
    for _ in range(cfg.max_iters):
        bn, support, step = gauss_newton_step(graph, values, support, cfg.prune)
        candidate = retract_values(values, step.continuous)
        err_old = graph.error(values, step.discrete)
        err_new = graph.error(candidate, step.discrete)
        accepted = err_new <= err_old + 1e-12
        if accepted:
            values = candidate
        newly: Dict[Any, int] = {}
        if cfg.dmr_delta is not None:
            graph, newly = elimination.dead_mode_removal(bn, graph, cfg.dmr_delta)
            fixed_total.update(newly)
            if support is not None and newly:
                support = support.choose(newly)
        step_norm = max((float(np.max(np.abs(d))) if np.asarray(d).size else 0.0)
                        for d in step.continuous.values())
        if step_norm < cfg.tol:
            break
        if not accepted and not newly:
            if err_new - err_old <= 1e-9 * max(1.0, abs(err_old)):
                break
            raise OptimizationDiverged(
                f"diverged: step raised the error from {err_old:.6g} to "
                f"{err_new:.6g}", values, {**step.discrete, **fixed_total}, bn)
    bn, _, final = gauss_newton_step(graph, values, support, cfg.prune)
    return (HybridValues(continuous=values,
                         discrete={**final.discrete, **fixed_total}), bn)
