"""Hybrid factors and conditionals, and the hybrid factor graph that holds
them: decision trees of per-mode components over continuous variables.

Each hybrid Gaussian factor component is a pair (JacobianFactor, c) whose
potential is exp(-(error + c)); c travels with the factor because
mode-dependent noise covariances make the Gaussian normalizer
mode-dependent.  A hybrid nonlinear factor's components are (residual,
sigma) pairs that linearize into such pairs.  A leaf may be None ("nil"): a
pruned, impossible mode with potential 0 / error +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .discrete import (Assignment, DecisionTree, DiscreteConditional,
                       DiscreteFactor, DiscreteKey, _merge_keys, _sorted_keys)
from .gaussian import (GaussianConditional, JacobianFactor, NoiseModel,
                       VectorValues)


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
        for leaf in components.leaves.reshape(-1):
            if leaf is None:
                continue
            jf, c = leaf
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
    """Mode-indexed Gaussian conditional p(x | parents, modes)."""

    __slots__ = ("frontals", "parents", "keys", "components")

    def __init__(self, keys: Sequence[DiscreteKey], components: DecisionTree):
        keys = _sorted_keys(keys)
        if tuple(components.keys) != keys:
            raise ValueError("component tree keys must match conditional keys")
        frontals: Optional[Tuple[Any, ...]] = None
        parents: Optional[Tuple[Any, ...]] = None
        for leaf in components.leaves.reshape(-1):
            if leaf is None:
                continue
            if not isinstance(leaf, GaussianConditional):
                raise ValueError("components must be GaussianConditional")
            if frontals is None:
                frontals = (leaf.frontal,)
                parents = leaf.parents
            elif (leaf.frontal,) != frontals or leaf.parents != parents:
                raise ValueError("components must share frontal and parents")
        if frontals is None:
            raise ValueError("hybrid conditional needs at least one live component")
        object.__setattr__(self, "frontals", frontals)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("HybridGaussianConditional is immutable")

    def component(self, assignment: Assignment) -> Optional[GaussianConditional]:
        return self.components.leaf(assignment)

    def log_density(self, v: HybridValues) -> float:
        leaf = self.component(v.discrete)
        if leaf is None:
            return -math.inf
        return leaf.log_density(v.continuous)

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
    leaves = list(c.components.leaves.reshape(-1))
    norms = [leaf.log_normalizer for leaf in leaves if leaf is not None]
    base = min(norms)
    out = [None if leaf is None else (leaf.as_factor(), leaf.log_normalizer - base)
           for leaf in leaves]
    return HybridGaussianFactor(c.keys, DecisionTree(c.keys, out))


def discrete_factor_from_leaves(tree: DecisionTree) -> DiscreteFactor:
    """Turn negative-log leaves into a max-shift-normalized discrete factor:
    potentials exp(-(leaf - min leaf)), nil leaves -> 0."""
    vals = np.array([math.inf if x is None else float(x)
                     for x in tree.leaves.reshape(-1)])
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        return DiscreteFactor(tree.keys, np.zeros_like(vals))
    shifted = vals - float(np.min(finite))
    with np.errstate(over="ignore"):
        pots = np.where(np.isfinite(shifted), np.exp(-shifted), 0.0)
    return DiscreteFactor(tree.keys, pots)


def _linearize_component(res, noise, values) -> Tuple[JacobianFactor, float]:
    r0 = res.evaluate(values)
    jacs = res.jacobians(values)
    for J in jacs.values():
        if not np.all(np.isfinite(J)):
            raise ValueError("linearization failure: non-finite Jacobian")
    if not np.all(np.isfinite(r0)):
        raise ValueError("linearization failure: non-finite residual")
    return noise.whiten(jacs, -r0), noise.log_normalizer


class NonlinearFactor:
    """A single residual model with Gaussian noise, factored on construction."""

    def __init__(self, residual, sigma):
        self.residual = residual
        self.noise = NoiseModel(sigma, residual.dim)

    @property
    def sigma(self) -> np.ndarray:
        return self.noise.sigma

    @property
    def variables(self):
        return tuple(self.residual.variables)

    def error(self, values) -> float:
        return self.noise.error(self.residual.evaluate(values))

    def linearize(self, values) -> JacobianFactor:
        """Whitened linear factor on the update vector at `values`."""
        return _linearize_component(self.residual, self.noise, values)[0]


class HybridNonlinearFactor:
    """Mode-indexed residual models: leaves (residual, sigma) or None, each
    sigma factored on construction into the matching leaf of `noise`."""

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
        noise = components.map_leaves(
            lambda leaf: None if leaf is None else NoiseModel(leaf[1], dim))
        self.keys = keys
        self.components = components.apply(     # leaves keep the read-only sigma
            noise, lambda leaf, n: None if leaf is None else (leaf[0], n.sigma))
        self.noise = noise
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
        noise = self.noise.leaf(assignment)
        return noise.error(leaf[0].evaluate(values)) + noise.log_normalizer

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
        return NonlinearFactor(leaf[0], leaf[1])

    def linearize(self, values) -> HybridGaussianFactor:
        """Hybrid Gaussian factor at `values` whose leaves carry the per-mode
        constant log sqrt|2 pi Sigma^m|."""
        leaves = [None if leaf is None
                  else _linearize_component(leaf[0], noise, values)
                  for leaf, noise in zip(self.components.leaves.reshape(-1),
                                         self.noise.leaves.reshape(-1))]
        return HybridGaussianFactor(self.keys, DecisionTree(self.keys, leaves))


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
        keys: Tuple[DiscreteKey, ...] = ()
        for f in self.hybrid_factors:
            keys = _merge_keys(keys, f.keys)
        for f in self.discrete_factors:
            keys = _merge_keys(keys, f.keys)
        cont = set(self.continuous_variables())
        for k in keys:
            if k.id in cont:
                raise ValueError(f"id {k.id!r} used as both continuous and discrete")
        return keys

    def linearize(self, values) -> "HybridFactorGraph":
        """The linearization of a nonlinear model at `values`."""
        lin = HybridFactorGraph()
        for f in self.continuous_factors:
            lin.add(f.linearize(values))
        for f in self.hybrid_factors:
            lin.add(f.linearize(values))
        for f in self.discrete_factors:
            lin.add(f)
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
        mode-dependent constants included."""
        total = 0.0
        for f in self.continuous_factors:
            total += f.error(values)
        for f in self.hybrid_factors:
            total += f.error(values, assignment)
        for f in self.discrete_factors:
            p = f.value(assignment)
            total += -math.log(p) if p > 0 else math.inf
        return total


# perfbench/workloads.py imports this name.
HybridGaussianFactorGraph = HybridFactorGraph


class HybridBayesNet:
    """Conditionals in elimination order; continuous ones precede discrete."""

    def __init__(self, conditionals: Sequence[Any] = ()):
        self.conditionals: List[Any] = []
        for c in conditionals:
            self.append(c)

    def append(self, c):
        if isinstance(c, DiscreteConditional):
            self.conditionals.append(c)
            return
        if isinstance(c, (GaussianConditional, HybridGaussianConditional)):
            # Only discrete conditionals follow a discrete one.
            if self.conditionals and isinstance(self.conditionals[-1],
                                                DiscreteConditional):
                raise ValueError("continuous conditionals must precede discrete ones")
            self.conditionals.append(c)
            return
        raise TypeError(f"cannot add {type(c).__name__} to a hybrid Bayes net")

    def __iter__(self):
        return iter(self.conditionals)

    def __len__(self):
        return len(self.conditionals)

    def discrete_conditionals(self) -> List[Any]:
        return [c for c in self.conditionals if isinstance(c, DiscreteConditional)]

    def continuous_conditionals(self) -> List[Any]:
        return [c for c in self.conditionals if not isinstance(c, DiscreteConditional)]

    def discrete_keys(self) -> Tuple[DiscreteKey, ...]:
        keys: Tuple[DiscreteKey, ...] = ()
        for c in self.discrete_conditionals():
            keys = _merge_keys(keys, (c.frontal,) + tuple(c.parents))
        for c in self.continuous_conditionals():
            if isinstance(c, HybridGaussianConditional):
                keys = _merge_keys(keys, c.keys)
        return keys

    def discrete_joint(self) -> Optional[DecisionTree]:
        """P(M | Z) as one table: the product of the discrete conditionals."""
        conds = self.discrete_conditionals()
        if not conds:
            return None
        tree = conds[0].potentials
        for c in conds[1:]:
            tree = tree.apply(c.potentials, lambda a, b: a * b)
        return tree
