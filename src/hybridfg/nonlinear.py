"""Hybrid nonlinear factors over SE(2), linearization, and the
relinearize-eliminate Gauss-Newton loop.

Poses use the group chart as retraction: retract(p, d) composes p with the
pose whose coordinates are d, and local(p, q) inverts it exactly, so
retract(p, local(p, q)) == q to machine precision.  Between/prior residuals
carry analytic Jacobians in this chart; arbitrary user residuals fall back
to central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import elimination
from .discrete import (Assignment, DecisionTree, DiscreteFactor, DiscreteKey,
                       _sorted_keys)
from .gaussian import (JacobianFactor, log_normalization_constant,
                       sigma_cholesky, whiten)
from .hybrid import (HybridBayesNet, HybridGaussianFactor,
                     HybridGaussianFactorGraph, HybridValues)

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


class NonlinearFactor:
    """A single residual model with Gaussian noise."""

    def __init__(self, residual, sigma):
        self.residual = residual
        self.sigma = sigma

    @property
    def variables(self):
        return tuple(self.residual.variables)

    def error(self, values) -> float:
        r = self.residual.evaluate(values)
        L = sigma_cholesky(self.sigma, r.shape[0])
        w = np.linalg.solve(L, r)
        return 0.5 * float(w @ w)


class HybridNonlinearFactor:
    """Mode-indexed residual models: leaves (residual, sigma) or None."""

    def __init__(self, keys: Sequence[DiscreteKey], components: DecisionTree):
        keys = _sorted_keys(keys)
        if tuple(components.keys) != keys:
            raise ValueError("component tree keys must match factor keys")
        varset = None
        dim = None
        for leaf in components.leaves.reshape(-1):
            if leaf is None:
                continue
            res, _ = leaf
            if varset is None:
                varset = tuple(res.variables)
                dim = res.dim
            elif tuple(res.variables) != varset or res.dim != dim:
                raise ValueError("components must share variables and residual "
                                 "dimension")
        if varset is None:
            raise ValueError("hybrid factor needs at least one live component")
        self.keys = keys
        self.components = components
        self.continuous_ids = varset

    @classmethod
    def from_components(cls, keys, components) -> "HybridNonlinearFactor":
        return cls(keys, DecisionTree(keys, list(components)))

    def component(self, assignment: Assignment):
        return self.components.leaf(assignment)

    def error(self, values, assignment: Assignment) -> float:
        leaf = self.component(assignment)
        if leaf is None:
            return math.inf
        res, sigma = leaf
        r = res.evaluate(values)
        L = sigma_cholesky(sigma, r.shape[0])
        w = np.linalg.solve(L, r)
        return 0.5 * float(w @ w) + log_normalization_constant(sigma, r.shape[0])


def restrict(f: HybridNonlinearFactor, fixed: Assignment):
    """Choose components for fixed modes; with no keys left the factor
    becomes a plain nonlinear factor."""
    sub = {k.id: fixed[k.id] for k in f.keys if k.id in fixed}
    if not sub:
        return f
    tree = f.components.choose(sub)
    if tree.keys:
        return HybridNonlinearFactor(tree.keys, tree)
    leaf = tree.leaves[()]
    if leaf is None:
        raise ValueError("restriction selects a pruned component")
    return NonlinearFactor(leaf[0], leaf[1])


def _linearize_component(res, sigma, values) -> Tuple[JacobianFactor, float]:
    r0 = res.evaluate(values)
    jacs = res.jacobians(values)
    for J in jacs.values():
        if not np.all(np.isfinite(J)):
            raise ValueError("linearization failure: non-finite Jacobian")
    if not np.all(np.isfinite(r0)):
        raise ValueError("linearization failure: non-finite residual")
    factor = whiten(jacs, -r0, sigma)
    return factor, log_normalization_constant(sigma, r0.shape[0])


def linearize(f, values):
    """Linearize at `values`: a hybrid factor yields a HybridGaussianFactor
    whose leaves carry the per-mode constant log sqrt|2 pi Sigma^m|; a plain
    factor yields a JacobianFactor on the update vector."""
    if isinstance(f, NonlinearFactor):
        return _linearize_component(f.residual, f.sigma, values)[0]
    leaves = []
    for leaf in f.components.leaves.reshape(-1):
        leaves.append(None if leaf is None
                      else _linearize_component(leaf[0], leaf[1], values))
    return HybridGaussianFactor(f.keys, DecisionTree(f.keys, leaves))


class HybridNonlinearFactorGraph:
    """Nonlinear hybrid graph: hybrid, plain nonlinear, and discrete factors."""

    def __init__(self):
        self.nonlinear_factors: List[NonlinearFactor] = []
        self.hybrid_factors: List[HybridNonlinearFactor] = []
        self.discrete_factors: List[DiscreteFactor] = []

    def add(self, f):
        if isinstance(f, HybridNonlinearFactor):
            self.hybrid_factors.append(f)
        elif isinstance(f, NonlinearFactor):
            self.nonlinear_factors.append(f)
        elif isinstance(f, DiscreteFactor):
            self.discrete_factors.append(f)
        else:
            raise TypeError(f"cannot add {type(f).__name__} to a nonlinear graph")
        return self

    def continuous_variables(self) -> List[Any]:
        seen = set()
        for f in self.nonlinear_factors:
            seen.update(f.variables)
        for f in self.hybrid_factors:
            seen.update(f.continuous_ids)
        return sorted(seen)

    def discrete_keys(self) -> Tuple[DiscreteKey, ...]:
        from .discrete import _merge_keys
        keys: Tuple[DiscreteKey, ...] = ()
        for f in self.hybrid_factors:
            keys = _merge_keys(keys, f.keys)
        for f in self.discrete_factors:
            keys = _merge_keys(keys, f.keys)
        return keys

    def linearize(self, values) -> HybridGaussianFactorGraph:
        lin = HybridGaussianFactorGraph()
        for f in self.nonlinear_factors:
            lin.add(linearize(f, values))
        for f in self.hybrid_factors:
            lin.add(linearize(f, values))
        for f in self.discrete_factors:
            lin.add(f)
        return lin

    def restrict(self, fixed: Assignment) -> "HybridNonlinearFactorGraph":
        out = HybridNonlinearFactorGraph()
        out.nonlinear_factors = list(self.nonlinear_factors)
        for f in self.hybrid_factors:
            out.add(restrict(f, fixed))
        for f in self.discrete_factors:
            g = f.restrict(fixed)
            if g.keys:
                out.discrete_factors.append(g)
        return out

    def error(self, values, assignment: Assignment) -> float:
        """Negative-log unnormalized posterior at (values, assignment),
        mode-dependent constants included."""
        total = 0.0
        for f in self.nonlinear_factors:
            total += f.error(values)
        for f in self.hybrid_factors:
            total += f.error(values, assignment)
        for f in self.discrete_factors:
            p = f.value(assignment)
            total += -math.log(p) if p > 0 else math.inf
        return total


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


def gauss_newton_step(graph: HybridNonlinearFactorGraph,
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


def optimize(g: HybridNonlinearFactorGraph, init: Mapping[Any, Any],
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
            support = elimination.fix_support(support, newly)
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
