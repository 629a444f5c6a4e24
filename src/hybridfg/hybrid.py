"""Hybrid factors and conditionals, and the hybrid factor graph that holds
them: decision trees of per-mode components over continuous variables.

Each hybrid Gaussian factor component is a pair (JacobianFactor, c) whose
potential is exp(-(error + c)); c travels with the factor because
mode-dependent noise covariances make the Gaussian normalizer
mode-dependent.  A hybrid nonlinear factor's components are (residual,
NoiseModel) pairs that linearize into such pairs.  A leaf may be None
("nil"): a pruned, impossible mode with potential 0 / error +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .discrete import (Assignment, DecisionTree, DiscreteFactor, DiscreteKey,
                       _merge_keys, _sorted_keys)
from .gaussian import (GaussianConditional, JacobianFactor, NoiseModel,
                       VectorValues, whiten_stacked)


@dataclass
class HybridValues:
    """A joint instantiation: continuous vectors plus a discrete assignment."""

    continuous: VectorValues = field(default_factory=dict)
    discrete: Dict[Any, int] = field(default_factory=dict)


class HybridGaussianFactor:
    """Per-mode whitened linear factor with constants: leaves (JacobianFactor, c)."""

    __slots__ = ("continuous_ids", "keys", "components")

    def __init__(self, keys: Sequence[DiscreteKey], components: DecisionTree):
        keys = _sorted_keys(keys)
        if tuple(components.keys) != keys:
            raise ValueError("component tree keys must match factor keys")
        cont: Optional[Tuple[Any, ...]] = None
        cols: Optional[Dict[Any, int]] = None
        for jf, c in components.live_leaves():
            if not isinstance(jf, JacobianFactor):
                raise ValueError("component must be (JacobianFactor, constant)")
            if not math.isfinite(float(c)):
                raise ValueError("component constant must be finite")
            if cont is None:
                cont = jf.variables
                cols = {v: jf.dim(v) for v in cont}
            elif jf.variables != cont or any(jf.dim(v) != cols[v] for v in cont):
                raise ValueError("components must share continuous variables "
                                 "and column dimensions")
        if cont is None:
            raise ValueError("hybrid factor needs at least one live component")
        if not cont:
            raise ValueError("hybrid factor needs a continuous variable")
        object.__setattr__(self, "continuous_ids", cont)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("HybridGaussianFactor is immutable")

    @classmethod
    def from_components(cls, keys: Sequence[DiscreteKey],
                        components: Sequence[Optional[Tuple[JacobianFactor, float]]]
                        ) -> "HybridGaussianFactor":
        return cls(keys, DecisionTree(keys, list(components)))

    def component(self, assignment: Assignment) -> Optional[Tuple[JacobianFactor, float]]:
        return self.components.leaf(assignment)

    def restrict(self, partial: Assignment) -> "HybridGaussianFactor":
        fixed = {k.id: partial[k.id] for k in self.keys if k.id in partial}
        if not fixed:
            return self
        tree = self.components.choose(fixed)
        return HybridGaussianFactor(tree.keys, tree)

    def error(self, x: VectorValues, assignment: Assignment) -> float:
        """0.5||A^m x - b^m||^2 + c^m at the mode m selected by `assignment`;
        +inf on a pruned leaf."""
        try:
            leaf = self.component(assignment)
        except ValueError as e:
            raise ValueError(f"incomplete values: {e}") from None
        if leaf is None:
            return math.inf
        jf, c = leaf
        return jf.error(x) + c

    def __repr__(self):
        return (f"HybridGaussianFactor(cont={list(self.continuous_ids)}, "
                f"keys={[k.id for k in self.keys]})")


class HybridGaussianConditional:
    """Mode-indexed Gaussian conditional p(x | parents, modes).  A nil
    component is a mode the conditional does not cover; sum_product leaves
    one only where the joint is 0.  Which hypotheses live is recorded by
    the net's joint alone, so pruning changes no conditional."""

    __slots__ = ("frontals", "parents", "keys", "components")

    def __init__(self, keys: Sequence[DiscreteKey], components: DecisionTree):
        keys = _sorted_keys(keys)
        if tuple(components.keys) != keys:
            raise ValueError("component tree keys must match conditional keys")
        frontals: Optional[Tuple[Any, ...]] = None
        parents: Optional[Tuple[Any, ...]] = None
        for leaf in components.live_leaves():
            if not isinstance(leaf, GaussianConditional):
                raise ValueError("components must be GaussianConditional")
            if frontals is None:
                frontals = (leaf.frontal,)
                parents = leaf.parents
            elif (leaf.frontal,) != frontals or leaf.parents != parents:
                raise ValueError("components must share frontal and parents")
        if frontals is None:
            raise ValueError("hybrid conditional needs at least one live component")
        self._init(frontals, parents, keys, components)

    @classmethod
    def _own(cls, components: DecisionTree, frontals: Tuple[Any, ...],
             parents: Tuple[Any, ...]) -> "HybridGaussianConditional":
        """A conditional over a tree the caller has just built from
        GaussianConditionals of these frontals and parents, at least one
        live (see elimination._Clique): no rescan."""
        c = object.__new__(cls)
        c._init(frontals, parents, components.keys, components)
        return c

    def _init(self, frontals, parents, keys, components):
        object.__setattr__(self, "frontals", frontals)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("HybridGaussianConditional is immutable")

    def component(self, assignment: Assignment) -> Optional[GaussianConditional]:
        return self.components.leaf(assignment)

    def __repr__(self):
        return (f"HybridGaussianConditional(p({list(self.frontals)} | "
                f"{list(self.parents)}, {[k.id for k in self.keys]}))")


def conditional_to_factor(c: HybridGaussianConditional) -> HybridGaussianFactor:
    """Reinsert a hybrid conditional into a factor graph.

    Each leaf becomes (JacobianFactor from [R S | d], C^m) with
    C^m = log_normalizer^m - min log_normalizer, so C^m >= 0 with equality at
    the tightest mode and the potential stays proportional to the density
    with a mode-independent constant.
    """
    base = min(leaf.log_normalizer for leaf in c.components.live_leaves())
    out = [None if leaf is None else (leaf.as_factor(), leaf.log_normalizer - base)
           for leaf in c.components.leaves.flat]
    return HybridGaussianFactor(c.keys, DecisionTree(c.keys, out))


def discrete_factor_from_leaves(tree: DecisionTree) -> DiscreteFactor:
    """Turn negative-log leaves into a max-shift-normalized discrete factor:
    potentials exp(-(leaf - min leaf)), nil leaves -> 0."""
    vals = tree.leaves.reshape(-1)
    if vals.dtype == object:
        vals = np.where(np.equal(vals, None), math.inf, vals).astype(float)
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        return DiscreteFactor(tree.keys, np.zeros_like(vals))
    shifted = vals - float(np.min(finite))
    with np.errstate(over="ignore"):
        pots = np.where(np.isfinite(shifted), np.exp(-shifted), 0.0)
    return DiscreteFactor(tree.keys, pots)


def _evaluate(uses: Sequence[Tuple[Any, NoiseModel]], values):
    """Evaluate each distinct residual object of the (residual, noise) pairs
    `uses` once, with one evaluate_stacked call per residual class.  Returns
    {class: (residuals, Jacobians, column ranges)} and, per use, its
    (class, position) in them."""
    batches: Dict[type, List[Any]] = {}
    seen: Dict[int, Tuple[type, int]] = {}
    where = []
    for res, _ in uses:
        at = seen.get(id(res))
        if at is None:
            batch = batches.setdefault(type(res), [])
            at = seen[id(res)] = (type(res), len(batch))
            batch.append(res)
        where.append(at)
    stacks = {cls: cls.evaluate_stacked(batch, values)
              for cls, batch in batches.items()}
    return stacks, where


def _take(stack, positions: List[int]) -> np.ndarray:
    """The items at `positions` of a stacked array or a list of arrays."""
    if isinstance(stack, np.ndarray):
        return stack[positions]
    return np.stack([stack[p] for p in positions])


def _all_finite(stack) -> bool:
    if isinstance(stack, np.ndarray):
        return bool(np.isfinite(stack).all())
    return all(np.isfinite(a).all() for a in stack)


def _groups(uses, stacks, where, jacobians: bool) -> Dict[Any, List[int]]:
    """Uses grouped by residual class and the shape of their Jacobian (or,
    without `jacobians`, their residual), each checked against its noise
    model's size."""
    groups: Dict[Any, List[int]] = {}
    for n, (cls, pos) in enumerate(where):
        stack = stacks[cls][1 if jacobians else 0]
        shape = stack.shape[1:] if isinstance(stack, np.ndarray) \
            else stack[pos].shape
        uses[n][1].check_rows(shape[0])
        groups.setdefault((cls, shape), []).append(n)
    return groups


def linearize_components(uses: Sequence[Tuple[Any, NoiseModel]], values
                         ) -> List[Tuple[JacobianFactor, float]]:
    """Whitened linearizations (factor, log sqrt|2 pi Sigma|) of the
    (residual, noise) pairs `uses` at `values`, in order, in one stacked
    pass: every distinct residual evaluated and differentiated once (see
    _evaluate), then each group of one class and Jacobian shape whitened
    by whiten_stacked.  A non-finite value makes the evaluation warn; the
    checks after it raise the error instead."""
    with np.errstate(invalid="ignore", over="ignore"):
        stacks, where = _evaluate(uses, values)
    if not all(_all_finite(H) for _, H, _ in stacks.values()):
        raise ValueError("linearization failure: non-finite Jacobian")
    if not all(_all_finite(r) for r, _, _ in stacks.values()):
        raise ValueError("linearization failure: non-finite residual")
    out: List[Any] = [None] * len(uses)
    for (cls, _), members in _groups(uses, stacks, where, True).items():
        r, H, columns = stacks[cls]
        positions = [where[n][1] for n in members]
        noises = [uses[n][1] for n in members]
        W, w = whiten_stacked(np.stack([noise.L for noise in noises]),
                              _take(H, positions), -_take(r, positions))
        # Whitening can overflow; the checking constructor then says where.
        checked = not (np.isfinite(W).all() and np.isfinite(w).all())
        for n, Wn, wn, pos, noise in zip(members, W, w, positions, noises):
            blocks = {vid: Wn[:, a:b] for vid, a, b in columns[pos]}
            jf = JacobianFactor(blocks, wn) if checked else \
                JacobianFactor._own(blocks, wn, tuple(sorted(blocks)))
            out[n] = (jf, noise.log_normalizer)
    return out


def component_errors(uses: Sequence[Tuple[Any, NoiseModel]], values
                     ) -> List[float]:
    """0.5 ||r||^2_Sigma of the (residual, noise) pairs `uses` at `values`,
    in order: the residuals of linearize_components, whitened by one
    batched solve per group, and each squared norm one dot product."""
    stacks, where = _evaluate(uses, values)
    out: List[Any] = [None] * len(uses)
    for (cls, _), members in _groups(uses, stacks, where, False).items():
        r = stacks[cls][0]
        _, w = whiten_stacked(np.stack([uses[n][1].L for n in members]), None,
                              _take(r, [where[n][1] for n in members]))
        errors = 0.5 * (w[:, None, :] @ w[:, :, None])[:, 0, 0]
        for n, e in zip(members, errors.tolist()):
            out[n] = e
    return out


class NonlinearFactor:
    """A single residual model with Gaussian noise, factored on construction."""

    def __init__(self, residual, sigma):
        self.residual = residual
        self.noise = NoiseModel(sigma, residual.dim)

    @classmethod
    def _own(cls, residual, noise: NoiseModel) -> "NonlinearFactor":
        """A factor over a NoiseModel already checked against the
        residual's dimension (a hybrid leaf's): no second factorization."""
        f = object.__new__(cls)
        f.residual = residual
        f.noise = noise
        return f

    @property
    def sigma(self) -> np.ndarray:
        return self.noise.sigma

    @property
    def variables(self):
        return tuple(self.residual.variables)

    def error(self, values) -> float:
        return component_errors(self._uses(), values)[0]

    def _uses(self) -> List[Tuple[Any, NoiseModel]]:
        return [(self.residual, self.noise)]

    def _assemble(self, linearized) -> JacobianFactor:
        return next(linearized)[0]

    def linearize(self, values) -> JacobianFactor:
        """Whitened linear factor on the update vector at `values`."""
        return self._assemble(iter(linearize_components(self._uses(), values)))


class HybridNonlinearFactor:
    """Mode-indexed residual models: leaves (residual, NoiseModel) or None."""

    def __init__(self, keys: Sequence[DiscreteKey], components: DecisionTree):
        keys = _sorted_keys(keys)
        if tuple(components.keys) != keys:
            raise ValueError("component tree keys must match factor keys")
        live = components.live_leaves()
        if not live:
            raise ValueError("hybrid factor needs at least one live component")
        varset, dim = tuple(live[0][0].variables), live[0][0].dim
        for res, noise in live:
            if not isinstance(noise, NoiseModel):
                raise ValueError("component must be (residual, NoiseModel)")
            if tuple(res.variables) != varset or res.dim != dim:
                raise ValueError("components must share variables and residual "
                                 "dimension")
        self.keys = keys
        self.components = components
        self.continuous_ids = varset

    @classmethod
    def from_components(cls, keys, components) -> "HybridNonlinearFactor":
        """From (residual, sigma) pairs or None, each sigma checked and
        factored into a NoiseModel of its residual's dimension."""
        return cls(keys, DecisionTree(keys, [
            None if leaf is None else (leaf[0], NoiseModel(leaf[1], leaf[0].dim))
            for leaf in components]))

    def component(self, assignment: Assignment):
        return self.components.leaf(assignment)

    def error(self, values, assignment: Assignment) -> float:
        leaf = self.component(assignment)
        if leaf is None:
            return math.inf
        return component_errors([leaf], values)[0] + leaf[1].log_normalizer

    def restrict(self, fixed: Assignment):
        """Choose components for fixed modes; with no keys left the factor
        becomes a plain nonlinear factor."""
        sub = {k.id: fixed[k.id] for k in self.keys if k.id in fixed}
        if not sub:
            return self
        tree = self.components.choose(sub)
        if tree.keys:
            return HybridNonlinearFactor(tree.keys, tree)
        leaf = tree.leaves[()]
        if leaf is None:
            raise ValueError("restriction selects a pruned component")
        return NonlinearFactor._own(*leaf)

    def _uses(self) -> List[Tuple[Any, NoiseModel]]:
        return self.components.live_leaves()

    def _assemble(self, linearized) -> HybridGaussianFactor:
        leaves = [None if leaf is None else next(linearized)
                  for leaf in self.components.leaves.flat]
        return HybridGaussianFactor(self.keys, DecisionTree(self.keys, leaves))

    def linearize(self, values) -> HybridGaussianFactor:
        """Hybrid Gaussian factor at `values` whose leaves carry the per-mode
        constant log sqrt|2 pi Sigma^m|.  A residual that several leaves
        share (a switchable loop closure's) is evaluated once."""
        return self._assemble(iter(linearize_components(self._uses(), values)))


class HybridFactorGraph:
    """Hybrid factor graph: continuous, hybrid, and discrete factors.

    It holds a nonlinear model (NonlinearFactor, HybridNonlinearFactor) or
    its linearization (JacobianFactor, HybridGaussianFactor); each factor
    kind supplies its own error, restriction and linearization.  The CLG
    restriction holds structurally: discrete factors never touch continuous
    variables, and hybrid factors are likelihood-shaped.
    """

    def __init__(self):
        self.continuous_factors: List[Any] = []
        self.hybrid_factors: List[Any] = []
        self.discrete_factors: List[DiscreteFactor] = []
        # Set by linearize on the graph it returns: the values it was
        # linearized at, and the nonlinear factors that its continuous and
        # hybrid factors, in that order, linearize.
        self.points: Optional[Dict[Any, Any]] = None
        self.origin: Tuple[Any, ...] = ()

    def add(self, f):
        if isinstance(f, (HybridGaussianFactor, HybridNonlinearFactor)):
            self.hybrid_factors.append(f)
        elif isinstance(f, (JacobianFactor, NonlinearFactor)):
            self.continuous_factors.append(f)
        elif isinstance(f, DiscreteFactor):
            self.discrete_factors.append(f)
        else:
            raise TypeError(f"cannot add {type(f).__name__} to a hybrid factor graph")
        return self

    def all_factors(self) -> List[Any]:
        return list(self.continuous_factors) + list(self.hybrid_factors) \
            + list(self.discrete_factors)

    def continuous_variables(self) -> List[Any]:
        seen = set()
        for f in self.continuous_factors:
            seen.update(f.variables)
        for f in self.hybrid_factors:
            seen.update(f.continuous_ids)
        return sorted(seen)

    def discrete_keys(self) -> Tuple[DiscreteKey, ...]:
        return self._discrete_keys(set(self.continuous_variables()))

    def _discrete_keys(self, continuous) -> Tuple[DiscreteKey, ...]:
        """discrete_keys, checked against `continuous`, a container of
        the graph's continuous ids the caller already holds."""
        keys = _merge_keys((), [k for f in self.hybrid_factors
                                + self.discrete_factors for k in f.keys])
        for k in keys:
            if k.id in continuous:
                raise ValueError(f"id {k.id!r} used as both continuous and discrete")
        return keys

    def linearize(self, values, previous: Optional["HybridFactorGraph"] = None
                  ) -> "HybridFactorGraph":
        """The linearization of a nonlinear model at `values`, every factor
        in one linearize_components pass.

        `previous`, an earlier linearization, lends its linear factors: a
        factor it linearized keeps that linearization, the same object,
        when each of its variables has in `values` the same value object
        as in previous.points; every other factor (a new one, one that
        dead mode removal restricted, one over a variable whose point
        moved) is linearized at `values`."""
        factors = self.continuous_factors + self.hybrid_factors
        kept: Dict[int, Any] = {}
        if previous is not None:
            moved = {v for v, p in previous.points.items()
                     if values.get(v) is not p}
            for f, lf in zip(previous.origin, previous.continuous_factors
                             + previous.hybrid_factors):
                if moved.isdisjoint(_variables(f)):
                    kept[id(f)] = lf
        fresh = [f for f in factors if id(f) not in kept]
        linearized = iter(linearize_components(
            [use for f in fresh for use in f._uses()], values))
        lin = HybridFactorGraph()
        for f in factors:
            lf = kept.get(id(f))
            lin.add(f._assemble(linearized) if lf is None else lf)
        for f in self.discrete_factors:
            lin.add(f)
        lin.points, lin.origin = dict(values), tuple(factors)
        return lin

    def restrict(self, fixed: Assignment) -> "HybridFactorGraph":
        """Fix discrete modes: choose the matching component everywhere.

        A fully fixed hybrid Gaussian factor keeps its zero-key hybrid form so
        the selected component's constant is not lost.
        """
        out = HybridFactorGraph()
        out.continuous_factors = list(self.continuous_factors)
        for f in self.hybrid_factors:
            out.add(f.restrict(fixed))
        for f in self.discrete_factors:
            g = f.restrict(fixed)
            if g.keys:
                out.discrete_factors.append(g)
        return out

    def error(self, values, assignment: Assignment) -> float:
        """Negative-log unnormalized posterior at (values, assignment),
        mode-dependent constants included.  The nonlinear factors' residuals
        are evaluated and whitened in one component_errors pass."""
        nonlinear = [f for f in self.continuous_factors
                     if isinstance(f, NonlinearFactor)]
        # Per hybrid nonlinear factor: its (residual, noise) leaf or None.
        chosen = [f.component(assignment) for f in self.hybrid_factors
                  if isinstance(f, HybridNonlinearFactor)]
        errors = iter(component_errors(
            [(f.residual, f.noise) for f in nonlinear]
            + [use for use in chosen if use is not None], values))
        chosen_iter = iter(chosen)
        total = 0.0
        for f in self.continuous_factors:
            total += next(errors) if isinstance(f, NonlinearFactor) \
                else f.error(values)
        for f in self.hybrid_factors:
            if not isinstance(f, HybridNonlinearFactor):
                total += f.error(values, assignment)
                continue
            use = next(chosen_iter)
            total += math.inf if use is None \
                else next(errors) + use[1].log_normalizer
        for f in self.discrete_factors:
            p = f.value(assignment)
            total += -math.log(p) if p > 0 else math.inf
        return total


def _variables(f) -> Tuple[Any, ...]:
    """The continuous variables of a nonlinear factor."""
    return f.continuous_ids if isinstance(f, HybridNonlinearFactor) \
        else f.residual.variables


# perfbench/workloads.py imports this name.
HybridGaussianFactorGraph = HybridFactorGraph


class HybridBayesNet:
    """Gaussian and hybrid conditionals in elimination order, plus P(M | Z)
    as one normalized table over all of the net's discrete keys (the table
    [1.0] over no keys when it has none).  `plan` is the symbolic
    elimination (elimination.Plan) whose order the conditionals follow and
    `cliques` what a later sum_product takes over of the net
    (elimination._Cliques), both None for a net built by the
    constructor.

    The constructor checks the net: every hybrid conditional's keys are
    the joint's, the joint is a distribution (no negative entry, sum 1)
    and 0 wherever a hybrid conditional has no component, so every live
    hypothesis can be read."""

    def __init__(self, conditionals: Sequence[Any] = (),
                 joint: DecisionTree = DecisionTree.constant(1.0)):
        keys = {k.id for k in joint.keys}
        live = joint.leaves > 0
        for c in conditionals:
            if not isinstance(c, (GaussianConditional, HybridGaussianConditional)):
                raise TypeError(f"cannot add {type(c).__name__} to a hybrid Bayes net")
            if isinstance(c, GaussianConditional):
                continue
            own = {k.id for k in c.keys}
            if not keys.issuperset(own):
                raise ValueError("hybrid conditional keys missing from the joint")
            leaves = c.components.leaves
            nil = np.array([leaf is None for leaf in leaves.flat]).reshape(leaves.shape)
            if nil.any() and (nil & np.any(live, axis=tuple(
                    i for i, k in enumerate(joint.keys) if k.id not in own))).any():
                raise ValueError("the joint is positive where a hybrid "
                                 "conditional has no component")
        if (joint.leaves < 0).any():
            raise ValueError("discrete joint has a negative entry")
        if not math.isclose(float(joint.leaves.sum()), 1.0, abs_tol=1e-9):
            raise ValueError("discrete joint must sum to 1")
        self.conditionals: List[Any] = list(conditionals)
        self._discrete_joint = joint
        self.plan = self.cliques = None

    @classmethod
    def _own(cls, conditionals: List[Any], joint: DecisionTree, plan,
             cliques) -> "HybridBayesNet":
        """A net that sum_product or prune_bayes_net has just made, whose
        joint is normalized and lives only where each hybrid conditional
        has a component: no check."""
        bn = object.__new__(cls)
        bn.conditionals, bn._discrete_joint = conditionals, joint
        bn.plan, bn.cliques = plan, cliques
        return bn

    def __iter__(self):
        return iter(self.conditionals)

    def __len__(self):
        return len(self.conditionals)

    def discrete_keys(self) -> Tuple[DiscreteKey, ...]:
        return self._discrete_joint.keys

    def discrete_joint(self) -> DecisionTree:
        """P(M | Z) as one table (its leaves are read-only)."""
        return self._discrete_joint
