"""Hybrid Gaussian factors and conditionals: decision trees of whitened
linear components with per-mode negative-log constants.

Each hybrid factor component is a pair (JacobianFactor, c) whose potential is
exp(-(error + c)); c travels with the factor because mode-dependent noise
covariances make the Gaussian normalizer mode-dependent.  A leaf may be None
("nil"): a pruned, impossible mode with potential 0 / error +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .discrete import (Assignment, DecisionTree, DiscreteFactor, DiscreteKey,
                       _merge_keys, _sorted_keys)
from .gaussian import GaussianConditional, JacobianFactor, VectorValues


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

    def __repr__(self):
        return (f"HybridGaussianFactor(cont={list(self.continuous_ids)}, "
                f"keys={[k.id for k in self.keys]})")


def hgf_error(f: HybridGaussianFactor, v: HybridValues) -> float:
    """0.5||A^m x - b^m||^2 + c^m at the mode selected by v.discrete;
    +inf on a pruned leaf."""
    try:
        leaf = f.component(v.discrete)
    except ValueError as e:
        raise ValueError(f"incomplete values: {e}") from None
    if leaf is None:
        return math.inf
    jf, c = leaf
    return jf.error(v.continuous) + c


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

    def with_nil(self, dead_mask: DecisionTree) -> "HybridGaussianConditional":
        """Copy with leaves nil where dead_mask is truthy."""
        tree = self.components.apply(dead_mask, lambda leaf, dead: None if dead else leaf)
        return HybridGaussianConditional(tree.keys, tree)

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


class HybridGaussianFactorGraph:
    """Linear hybrid factor graph: hybrid, plain Gaussian, and discrete factors.

    The CLG restriction holds structurally: discrete factors never touch
    continuous variables, and hybrid factors are likelihood-shaped.
    """

    def __init__(self):
        self.hybrid_factors: List[HybridGaussianFactor] = []
        self.gaussian_factors: List[JacobianFactor] = []
        self.discrete_factors: List[DiscreteFactor] = []

    def add(self, f):
        if isinstance(f, HybridGaussianFactor):
            self.hybrid_factors.append(f)
        elif isinstance(f, JacobianFactor):
            self.gaussian_factors.append(f)
        elif isinstance(f, DiscreteFactor):
            self.discrete_factors.append(f)
        else:
            raise TypeError(f"cannot add {type(f).__name__} to a hybrid Gaussian graph")
        return self

    def all_factors(self) -> List[Any]:
        return list(self.gaussian_factors) + list(self.hybrid_factors) \
            + list(self.discrete_factors)

    def continuous_variables(self) -> List[Any]:
        seen = set()
        for f in self.gaussian_factors:
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

    def restrict(self, fixed: Assignment) -> "HybridGaussianFactorGraph":
        """Fix discrete modes: choose the matching component everywhere.

        A fully fixed hybrid factor keeps its zero-key hybrid form so the
        selected component's constant is not lost.
        """
        out = HybridGaussianFactorGraph()
        out.gaussian_factors = list(self.gaussian_factors)
        for f in self.hybrid_factors:
            out.hybrid_factors.append(f.restrict(fixed))
        for f in self.discrete_factors:
            g = f.restrict(fixed)
            if g.keys:
                out.discrete_factors.append(g)
        return out

    def error(self, v: HybridValues) -> float:
        """Total negative-log potential (up to discrete factor scale)."""
        total = 0.0
        for f in self.gaussian_factors:
            total += f.error(v.continuous)
        for f in self.hybrid_factors:
            total += hgf_error(f, v)
        for f in self.discrete_factors:
            p = f.value(v.discrete)
            total += -math.log(p) if p > 0 else math.inf
        return total


class HybridBayesNet:
    """Conditionals in elimination order; continuous ones precede discrete."""

    def __init__(self, conditionals: Sequence[Any] = ()):
        self.conditionals: List[Any] = []
        for c in conditionals:
            self.append(c)

    def append(self, c):
        from .discrete import DiscreteConditional
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
        from .discrete import DiscreteConditional
        return [c for c in self.conditionals if isinstance(c, DiscreteConditional)]

    def continuous_conditionals(self) -> List[Any]:
        from .discrete import DiscreteConditional
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
