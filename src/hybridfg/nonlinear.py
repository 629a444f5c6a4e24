"""SE(2) poses and residual models for nonlinear factors, and the
relinearize-eliminate Gauss-Newton loop over a hybrid factor graph.

Poses use the group chart as retraction: retract(p, d) composes p with the
pose whose coordinates are d, and local(p, q) inverts it exactly, so
retract(p, local(p, q)) == q to machine precision.  Between/prior residuals
carry analytic Jacobians in this chart; arbitrary user residuals fall back
to central finite differences.

The SE(2) operations work on stacked (N, 3) pose rows, and each residual
class has an evaluate_stacked that evaluates and differentiates N residuals
at once; the one-pose functions and the SE(2) residuals' evaluate and
jacobians are their batches of one, so there is one arithmetic and it is
bit-identical either way.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import elimination
from .discrete import DecisionTree, DiscreteFactor
from .hybrid import HybridBayesNet, HybridFactorGraph, HybridValues

# d/dtheta of a rotation matrix at 0.
_J = np.array([[0.0, -1.0], [1.0, 0.0]])

FD_STEP = 1e-6


def wrap_angle(theta: float) -> float:
    """Map an angle into (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """wrap_angle elementwise: np.remainder is Python's float %, bit for
    bit."""
    return math.pi - np.remainder(math.pi - theta, 2.0 * math.pi)


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

    @classmethod
    def _of(cls, row) -> "Pose2":
        """The pose of a stacked row (x, y, theta) whose angle is already
        wrapped: wrapping twice could move its last bit."""
        p = object.__new__(cls)
        object.__setattr__(p, "x", float(row[0]))
        object.__setattr__(p, "y", float(row[1]))
        object.__setattr__(p, "theta", float(row[2]))
        return p

    def rotation(self) -> np.ndarray:
        return _rotations(np.array([self.theta]))[0]

    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def as_vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])


# Stacked SE(2): N poses as an (N, 3) array of rows (x, y, theta).  Each
# operation does the scalar arithmetic op for op, so row n of a result has
# the bits of the same operation on pose n alone: np.cos/np.sin are
# math.cos/math.sin elementwise, and a stacked (N,2,2) @ (N,2,1) np.matmul
# makes one BLAS matrix-vector call per pose, as (2,2) @ (2,) does.


def _rotations(theta: np.ndarray) -> np.ndarray:
    """(N, 2, 2) rotation matrices of N angles."""
    c, s = np.cos(theta), np.sin(theta)
    R = np.empty(theta.shape + (2, 2))
    R[:, 0, 0] = c
    R[:, 0, 1] = -s
    R[:, 1, 0] = s
    R[:, 1, 1] = c
    return R


def _rotate(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row n is R[n] @ t[n], for (N, 2, 2) R and (N, 2) t."""
    return (R @ t[:, :, None])[:, :, 0]


def compose_stacked(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row n is compose(P[n], Q[n])."""
    out = np.empty(P.shape)
    out[:, :2] = P[:, :2] + _rotate(_rotations(P[:, 2]), Q[:, :2])
    out[:, 2] = wrap_angles(P[:, 2] + Q[:, 2])
    return out


def inverse_stacked(P: np.ndarray) -> np.ndarray:
    """Row n is inverse(P[n])."""
    out = np.empty(P.shape)
    out[:, :2] = -_rotate(_rotations(P[:, 2]).swapaxes(1, 2), P[:, :2])
    out[:, 2] = wrap_angles(-P[:, 2])
    return out


def between_stacked(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row n is between(P[n], Q[n]), which is also local(P[n], Q[n])."""
    return compose_stacked(inverse_stacked(P), Q)


def retract_stacked(P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Row n is retract(P[n], D[n]): the step's angle is wrapped first, as
    the Pose2 it makes would be."""
    D = np.array(D, dtype=float)
    D[:, 2] = wrap_angles(D[:, 2])
    return compose_stacked(P, D)


def pose_rows(poses) -> np.ndarray:
    """(N, 3) rows of an iterable of Pose2."""
    return np.array([(p.x, p.y, p.theta) for p in poses], dtype=float
                    ).reshape(-1, 3)


def compose(p1: Pose2, p2: Pose2) -> Pose2:
    return Pose2._of(compose_stacked(pose_rows((p1,)), pose_rows((p2,)))[0])


def inverse(p: Pose2) -> Pose2:
    return Pose2._of(inverse_stacked(pose_rows((p,)))[0])


def between(p1: Pose2, p2: Pose2) -> Pose2:
    """Relative pose: p1^{-1} o p2."""
    return Pose2._of(local(p1, p2))


def retract(p: Pose2, delta: np.ndarray) -> Pose2:
    d = np.asarray(delta, dtype=float).reshape(1, -1)[:, :3]
    return Pose2._of(retract_stacked(pose_rows((p,)), d)[0])


def local(p1: Pose2, p2: Pose2) -> np.ndarray:
    """Chart coordinates of p2 around p1; inverse of retract."""
    return between_stacked(pose_rows((p1,)), pose_rows((p2,)))[0]


def _tangent_dim(value) -> int:
    return 3 if isinstance(value, Pose2) else int(np.asarray(value).size)


def _retract_value(value, delta):
    if isinstance(value, Pose2):
        return retract(value, delta)
    return np.asarray(value, dtype=float) + np.asarray(delta, dtype=float)


def retract_values(values: Mapping[Any, Any], delta: Mapping[Any, np.ndarray]):
    """`values` with each one that has a step in `delta` retracted by it:
    all Pose2 values in one retract_stacked call."""
    out = dict(values)
    poses = [vid for vid, v in values.items()
             if vid in delta and isinstance(v, Pose2)]
    if poses:
        steps = np.array([np.asarray(delta[vid], dtype=float).reshape(-1)[:3]
                          for vid in poses])
        rows = retract_stacked(pose_rows(values[vid] for vid in poses), steps)
        out.update(zip(poses, map(Pose2._of, rows.tolist())))
    for vid, v in values.items():
        if vid in delta and not isinstance(v, Pose2):
            out[vid] = _retract_value(v, delta[vid])
    return out


def linearization_points(points: Mapping[Any, Any], values: Mapping[Any, Any],
                         threshold: float) -> Dict[Any, Any]:
    """Per variable of `values`, the point to linearize it at: its point in
    `points`, the same object, while its estimate in `values` lies within
    `threshold` of it, else the estimate.  The distance is the largest
    coordinate difference, a pose's angle taken the short way round (all
    Pose2 values in one stacked pass); it is 0 only for equal values, so a
    threshold of 0 keeps exactly the points the estimate equals."""
    out = dict(values)
    poses, others = [], []
    for vid, v in values.items():
        if points.get(vid, v) is not v:
            (poses if isinstance(v, Pose2) else others).append(vid)
    if poses:
        D = np.abs(pose_rows(values[vid] for vid in poses)
                   - pose_rows(points[vid] for vid in poses))
        D[:, 2] = np.minimum(D[:, 2], 2.0 * math.pi - D[:, 2])
        for vid, near in zip(poses, (D.max(axis=1) <= threshold).tolist()):
            if near:
                out[vid] = points[vid]
    for vid in others:
        a = np.asarray(values[vid], dtype=float)
        b = np.asarray(points[vid], dtype=float)
        if a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= threshold:
            out[vid] = points[vid]
    return out


def numerical_jacobians(residual: Callable[[Mapping[Any, Any]], np.ndarray],
                        values: Mapping[Any, Any], variables: Sequence[Any]
                        ) -> Dict[Any, np.ndarray]:
    """Central finite differences of step FD_STEP in the retraction chart."""
    out: Dict[Any, np.ndarray] = {}
    for vid in variables:
        dim = _tangent_dim(values[vid])
        cols = []
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = FD_STEP
            plus = dict(values)
            plus[vid] = _retract_value(values[vid], e)
            minus = dict(values)
            minus[vid] = _retract_value(values[vid], -e)
            cols.append((residual(plus) - residual(minus)) / (2.0 * FD_STEP))
        out[vid] = np.column_stack(cols)
    return out


def _columns(widths) -> Tuple[Tuple[Any, int, int], ...]:
    """Column ranges (vid, start, stop) of a Jacobian [J_1 | J_2 | ...] from
    (vid, width) pairs in column order."""
    out, c = [], 0
    for vid, w in widths:
        out.append((vid, c, c + w))
        c += w
    return tuple(out)


def _one(res, values) -> Tuple[np.ndarray, Dict[Any, np.ndarray]]:
    """The residual and Jacobians of `res` as the batch of one of
    evaluate_stacked."""
    (r,), (H,), (cols,) = res.evaluate_stacked([res], values)
    return r, {vid: H[:, a:b] for vid, a, b in cols}


def _evaluate_each(residuals, values):
    """evaluate_stacked for residual classes whose residuals can differ in
    shape: a loop over evaluate and jacobians that returns lists of
    per-residual residuals, Jacobians [J_1 | J_2 | ...] and column ranges."""
    rs, Hs, cols = [], [], []
    for res in residuals:
        r, jacs = res.evaluate(values), res.jacobians(values)
        mats = [np.atleast_2d(np.asarray(J, dtype=float)) for J in jacs.values()]
        rs.append(r)
        Hs.append(np.hstack(mats) if mats else np.zeros((r.shape[0], 0)))
        cols.append(_columns((vid, m.shape[1]) for vid, m in zip(jacs, mats)))
    return rs, Hs, cols


class BetweenResidual:
    """Relative-pose constraint: r = local(between(x_i, x_j), measured)."""

    def __init__(self, i, j, measurement: Pose2):
        self.variables = (i, j)
        self.dim = 3
        self.measurement = measurement
        self._columns = ((i, 0, 3), (j, 3, 6))

    def evaluate(self, values) -> np.ndarray:
        return _one(self, values)[0]

    def jacobians(self, values) -> Dict[Any, np.ndarray]:
        return _one(self, values)[1]

    @staticmethod
    def evaluate_stacked(residuals: Sequence["BetweenResidual"], values):
        """Residuals (N, 3), Jacobians [J_i | J_j] (N, 3, 6) and column
        ranges of N between residuals at `values`."""
        i, j = zip(*(res.variables for res in residuals))
        rel = between_stacked(pose_rows(map(values.__getitem__, i)),
                              pose_rows(map(values.__getitem__, j)))
        Z = pose_rows(res.measurement for res in residuals)
        r = between_stacked(rel, Z)
        Rt = _rotations(rel[:, 2]).swapaxes(1, 2)
        H = np.zeros((len(residuals), 3, 6))
        H[:, :2, :2] = Rt
        H[:, :2, 2] = _rotate(Rt, _rotate(_J, Z[:, :2]))
        H[:, 2, 2] = 1.0
        H[:, :2, 3:5] = -np.eye(2)
        H[:, :2, 5] = -_rotate(_J, r[:, :2])
        H[:, 2, 5] = -1.0
        return r, H, [res._columns for res in residuals]


class PriorResidual:
    """Absolute pose constraint: r = local(x_i, mean)."""

    def __init__(self, i, mean: Pose2):
        self.variables = (i,)
        self.dim = 3
        self.mean = mean
        self._columns = ((i, 0, 3),)

    def evaluate(self, values) -> np.ndarray:
        return _one(self, values)[0]

    def jacobians(self, values) -> Dict[Any, np.ndarray]:
        return _one(self, values)[1]

    @staticmethod
    def evaluate_stacked(residuals: Sequence["PriorResidual"], values):
        """Residuals (N, 3), Jacobians (N, 3, 3) and column ranges of N prior
        residuals at `values`."""
        r = between_stacked(pose_rows(values[res.variables[0]]
                                      for res in residuals),
                            pose_rows(res.mean for res in residuals))
        H = np.zeros((len(residuals), 3, 3))
        H[:, :2, :2] = -np.eye(2)
        H[:, :2, 2] = -_rotate(_J, r[:, :2])
        H[:, 2, 2] = -1.0
        return r, H, [res._columns for res in residuals]


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

    evaluate_stacked = staticmethod(_evaluate_each)


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

    evaluate_stacked = staticmethod(_evaluate_each)


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

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError("tol must be finite and >= 0")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.prune is not None and self.prune < 1:
            raise ValueError("prune must be None or >= 1")
        if self.dmr_delta is not None and not (0.5 < self.dmr_delta <= 1.0):
            raise ValueError("dmr_delta must be None or in (0.5, 1]")


# The state one hybrid iteration leaves: the graph, values and support to
# go on with, the net and step it took, the modes it fixed, and the linear
# graph it eliminated, whose `points` are the values it linearized at.
Iteration = namedtuple("Iteration", "graph values support bn step fixed lin")


def gauss_newton_step(graph: HybridFactorGraph, values: Mapping[Any, Any],
                      support: DecisionTree, prune: Optional[int],
                      dmr_delta: Optional[float],
                      previous: Optional[Iteration] = None,
                      threshold: float = 0.0) -> Iteration:
    """One hybrid iteration at `values`: linearize once, add the incoming
    support (a 0/1 table of the live joint hypotheses) as a discrete factor,
    eliminate with Sum-Product, which keeps only the mode cells it allows,
    and, when `prune` is set, prune to that many hypotheses and take the
    survivors as the new support.  The step is the hybrid MAP read off the
    (pruned) net, and the linearization points are retracted by it.  When
    `dmr_delta` is set, the modes whose marginal exceeds it leave the graph
    and support.

    Given the `previous` iteration, a variable keeps its linearization
    point while its estimate stays within `threshold` of it (see
    linearization_points), and a factor keeps its linearization while its
    variables keep their points (see HybridFactorGraph.linearize): at
    threshold 0 every variable that moved is relinearized, which gives the
    linearization at `values` bit for bit.  Sum-Product extends previous's
    plan and takes its cliques outside the top whose subtrees are unchanged
    (see elimination.sum_product), which is exact at any threshold.
    """
    if previous is None:
        lin = graph.linearize(values)
    else:
        lin = graph.linearize(linearization_points(
            previous.lin.points, values, threshold), previous.lin)
    if support.keys:
        lin.add(DiscreteFactor(support.keys, support))
    bn = elimination.sum_product(lin, previous=previous and previous.bn)
    if prune is not None:
        bn = elimination.prune_bayes_net(bn, prune)
        support = elimination.hypothesis_support(bn)
    step = elimination.bn_map(bn)
    fixed: Dict[Any, int] = {}
    if dmr_delta is not None:
        graph, fixed = elimination.dead_mode_removal(bn, graph, dmr_delta)
        support = support.choose(fixed)
    return Iteration(graph, retract_values(lin.points, step.continuous),
                     support, bn, step, fixed, lin)


def optimize(g: HybridFactorGraph, init: Mapping[Any, Any],
             config: Optional[OptimizeConfig] = None,
             support: DecisionTree = DecisionTree.constant(1.0),
             previous: Optional[Iteration] = None
             ) -> Tuple[HybridValues, HybridBayesNet]:
    """Gauss-Newton over the hybrid graph, restricted to `support`.

    Each iteration is a gauss_newton_step at threshold 0, which carries the
    support, the iteration before it (the first one's is `previous`, say
    the iteration that led to `init`), whose linearizations of factors
    over unmoved variables and unchanged cliques it reuses and whose plan
    it extends, and,
    with `dmr_delta` set, removes dead modes.  A step that raises the
    error on the graph it was taken on is rejected; when dead mode removal
    then fixes nothing the next iteration would repeat it, so the loop
    stops: an increase at rounding level means convergence, a larger one
    raises OptimizationDiverged carrying the current iterate and its net.
    A support over a key the graph lacks raises ValueError.

    Returns the estimate and a net.  When the last iteration fixed no mode
    and either its step was accepted or it left the values and the support
    as they were, the net is that iteration's: in the first case the
    estimate is its MAP (the values its step retracted to, and its modes),
    in the second a fresh read would repeat it bit for bit.  Otherwise one
    more iteration, without dead mode removal, reads the net at the
    estimate.
    """
    if not {k.id for k in support.keys} <= {k.id for k in g.discrete_keys()}:
        raise ValueError("support mentions keys absent from the graph")
    cfg = config or OptimizeConfig()
    values = dict(init)
    graph = g
    fixed_total: Dict[Any, int] = {}
    # After an accepted step that fixed nothing: its modes and the error at
    # `values` on `graph` under them.
    known: Optional[Tuple[Dict[Any, int], float]] = None
    last: Optional[Iteration] = None    # one whose net and modes are the answer
    for _ in range(cfg.max_iters):
        it = gauss_newton_step(graph, values, support, cfg.prune,
                               cfg.dmr_delta, previous)
        previous, modes = it, it.step.discrete
        err_old = known[1] if known is not None and known[0] == modes \
            else graph.error(values, modes)
        err_new = graph.error(it.values, modes)
        accepted = err_new <= err_old + 1e-12
        if accepted:
            values = it.values
        known = (modes, err_new) if accepted and not it.fixed else None
        unchanged = it.support.keys == support.keys and \
            np.array_equal(it.support.leaves, support.leaves)
        last = it if not it.fixed and (accepted or unchanged) else None
        graph, support = it.graph, it.support
        fixed_total.update(it.fixed)
        step_norm = max((float(np.max(np.abs(d))) if np.asarray(d).size else 0.0
                         for d in it.step.continuous.values()), default=0.0)
        if step_norm < cfg.tol:
            break
        if not accepted and not it.fixed:
            if err_new - err_old <= 1e-9 * max(1.0, abs(err_old)):
                break
            raise OptimizationDiverged(
                f"diverged: step raised the error from {err_old:.6g} to "
                f"{err_new:.6g}", values, {**it.step.discrete, **fixed_total},
                it.bn)
    final = last or gauss_newton_step(graph, values, support, cfg.prune, None,
                                      previous)
    return (HybridValues(continuous=values,
                         discrete={**final.step.discrete, **fixed_total}),
            final.bn)
