"""Discrete variables, assignments, decision trees, and discrete elimination.

A :class:`DecisionTree` stores one payload per joint assignment of a set of
discrete keys.  Leaves are held densely in a numpy array shaped by the key
cardinalities, with axes ordered by key id; a tree with no keys holds a
single leaf.  Assignments enumerate lexicographically (first key most
significant), which is also the flat C-order of the leaf array, so "smallest
assignment index" tie-breaking is simply the first flat index.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

# Refuse to materialize assignment spaces larger than this.
ENUMERATION_CAP = 1 << 20

# Above this many factors, potential products accumulate in log domain.
LOG_PRODUCT_SWITCH = 64


@dataclass(frozen=True, order=True)
class DiscreteKey:
    """A discrete variable: an orderable id plus its cardinality."""

    id: Any
    cardinality: int

    def __post_init__(self):
        if self.cardinality < 1:
            raise ValueError(f"cardinality must be >= 1, got {self.cardinality}")


# An assignment is a plain mapping from key id to a value in [0, cardinality).
Assignment = Mapping[Any, int]


def _sorted_keys(keys: Sequence[DiscreteKey]) -> Tuple[DiscreteKey, ...]:
    out = tuple(sorted(keys, key=lambda k: k.id))
    ids = [k.id for k in out]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate discrete key ids: {ids}")
    return out


def _merge_keys(a: Sequence[DiscreteKey], b: Sequence[DiscreteKey]) -> Tuple[DiscreteKey, ...]:
    by_id: Dict[Any, DiscreteKey] = {}
    for k in list(a) + list(b):
        seen = by_id.get(k.id)
        if seen is not None and seen.cardinality != k.cardinality:
            raise ValueError(f"key {k.id!r} declared with cardinalities "
                             f"{seen.cardinality} and {k.cardinality}")
        by_id[k.id] = k
    return tuple(sorted(by_id.values(), key=lambda k: k.id))


def check_enumeration(shape: Sequence[int]) -> None:
    """Refuse a joint assignment space of this shape beyond ENUMERATION_CAP."""
    if math.prod(shape) > ENUMERATION_CAP:
        raise ValueError(f"enumeration too large: product of cardinalities "
                         f"exceeds {ENUMERATION_CAP}")


def _leaf_array(shape: Tuple[int, ...], leaves) -> np.ndarray:
    """A fresh leaf array of this shape: a number, a numeric array or a list
    of numbers becomes float64, an object array or any other list an
    object array."""
    if isinstance(leaves, np.ndarray) and leaves.dtype == object:
        arr = leaves.copy()
    elif isinstance(leaves, (np.ndarray, numbers.Real)):
        arr = np.array(leaves, dtype=float)
    else:
        flat = list(leaves)
        if all(isinstance(x, numbers.Real) for x in flat):
            arr = np.asarray(flat, dtype=float)
        else:
            arr = np.empty(len(flat), dtype=object)
            for i, x in enumerate(flat):
                arr[i] = x
    if arr.size != math.prod(shape):
        raise ValueError(f"expected {math.prod(shape)} leaves, got {arr.size}")
    return arr.reshape(shape)


def _expand(arr: np.ndarray, keys: Sequence[DiscreteKey],
            union: Sequence[DiscreteKey]) -> np.ndarray:
    """View of an array over `keys` with a unit axis for each key of `union`
    it lacks, so it broadcasts over `union` (both in id order)."""
    own = {k.id for k in keys}
    return arr.reshape(tuple(k.cardinality if k.id in own else 1 for k in union))


class DecisionTree:
    """Per-assignment payload container over an ordered set of discrete keys."""

    __slots__ = ("keys", "leaves")

    def __init__(self, keys: Sequence[DiscreteKey], leaves):
        keys = tuple(keys)
        skeys = _sorted_keys(keys)
        shape = tuple(k.cardinality for k in keys)
        check_enumeration(shape)
        arr = _leaf_array(shape, leaves)
        if skeys != keys:
            # Canonicalize to id order by permuting axes.
            perm = [keys.index(k) for k in skeys]
            arr = np.ascontiguousarray(np.transpose(arr, perm))
        arr.flags.writeable = False
        object.__setattr__(self, "keys", skeys)
        object.__setattr__(self, "leaves", arr)

    @classmethod
    def _own(cls, keys: Tuple[DiscreteKey, ...], leaves: np.ndarray
             ) -> "DecisionTree":
        """A tree over keys already in id order and a leaf array of their
        shape that the caller has just made: no copy, no re-check."""
        t = object.__new__(cls)
        leaves.flags.writeable = False
        object.__setattr__(t, "keys", keys)
        object.__setattr__(t, "leaves", leaves)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("DecisionTree is immutable")

    @classmethod
    def constant(cls, value) -> "DecisionTree":
        return cls((), [value])

    @property
    def num_leaves(self) -> int:
        return int(self.leaves.size)

    def _index(self, assignment: Assignment) -> Tuple[int, ...]:
        idx = []
        for k in self.keys:
            try:
                v = assignment[k.id]
            except KeyError:
                raise ValueError(f"incomplete assignment: missing {k.id!r}") from None
            if not 0 <= v < k.cardinality:
                raise ValueError(f"invalid assignment: {k.id!r}={v} "
                                 f"out of range [0, {k.cardinality})")
            idx.append(int(v))
        return tuple(idx)

    def leaf(self, assignment: Assignment):
        """Payload at a full assignment of this tree's keys."""
        return self.leaves[self._index(assignment)]

    def live_leaves(self) -> List[Any]:
        """The non-nil leaves in flat (lexicographic) order.  The nil test
        is one array comparison, so nil cells cost no Python step."""
        return self.leaves[np.not_equal(self.leaves, None)].tolist()

    def _aligned(self, union: Tuple[DiscreteKey, ...]) -> np.ndarray:
        """View of the leaf array broadcastable over the union key set."""
        shape = tuple(k.cardinality for k in union)
        return np.broadcast_to(_expand(self.leaves, self.keys, union), shape)

    def apply(self, other: "DecisionTree", op: Callable[[Any, Any], Any]) -> "DecisionTree":
        """Leafwise combination over the union of both key sets.  `op` gets
        both leaf arrays broadcast over the union, so it must act
        elementwise on whole arrays, as numpy ufuncs and arithmetic do."""
        union = _merge_keys(self.keys, other.keys)
        return DecisionTree(union, op(self._aligned(union), other._aligned(union)))

    def choose(self, partial: Assignment) -> "DecisionTree":
        """Restrict to the sub-tree consistent with a partial assignment."""
        index: List[Any] = []
        remaining: List[DiscreteKey] = []
        for k in self.keys:
            if k.id in partial:
                v = int(partial[k.id])
                if not 0 <= v < k.cardinality:
                    raise ValueError(f"invalid assignment: {k.id!r}={v} "
                                     f"out of range [0, {k.cardinality})")
                index.append(v)
            else:
                index.append(slice(None))
                remaining.append(k)
        # The Ellipsis keeps a full assignment a 0-d array, not a scalar.
        return DecisionTree(tuple(remaining), self.leaves[tuple(index) + (...,)])

    def __repr__(self):
        ids = [k.id for k in self.keys]
        return f"DecisionTree(keys={ids}, leaves={self.leaves!r})"


# Log-scores within MAP_TIE_RTOL * max(1, |best|) of the best tie, and so do
# probabilities within MAP_TIE_RTOL times the pruning cut: rounding alone,
# e.g. a different elimination order, must not pick among hypotheses that
# are tied in exact arithmetic.
MAP_TIE_RTOL = 1e-9


def first_best(scores: Sequence[float]) -> int:
    """Index of the first score that ties the largest (see MAP_TIE_RTOL)."""
    best = max(scores)
    floor = best - MAP_TIE_RTOL * max(1.0, abs(best))
    return next(i for i, s in enumerate(scores) if s >= floor)


def enumerate_assignments(keys: Sequence[DiscreteKey]) -> List[Dict[Any, int]]:
    """All joint assignments, lexicographic by key id then value."""
    if not keys:
        raise ValueError("keys must be nonempty")
    skeys = _sorted_keys(keys)
    shape = tuple(k.cardinality for k in skeys)
    check_enumeration(shape)
    out = []
    for idx in np.ndindex(shape):
        out.append({k.id: int(v) for k, v in zip(skeys, idx)})
    return out


class DiscreteFactor:
    """Nonnegative potential table over discrete keys."""

    __slots__ = ("keys", "potentials")

    def __init__(self, keys: Sequence[DiscreteKey], potentials):
        tree = potentials if isinstance(potentials, DecisionTree) else DecisionTree(keys, potentials)
        if tuple(tree.keys) != _sorted_keys(keys):
            raise ValueError("potential tree keys do not match factor keys")
        vals = tree.leaves
        if vals.dtype == object:
            raise ValueError("discrete potentials must be real-valued")
        if not np.all(np.isfinite(vals)):
            raise ValueError("discrete potentials must be finite")
        if np.any(vals < 0):
            raise ValueError("discrete potentials must be nonnegative")
        object.__setattr__(self, "keys", tree.keys)
        object.__setattr__(self, "potentials", tree)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteFactor is immutable")

    def value(self, assignment: Assignment) -> float:
        return float(self.potentials.leaf(assignment))

    def restrict(self, partial: Assignment) -> "DiscreteFactor":
        fixed = {k.id: partial[k.id] for k in self.keys if k.id in partial}
        if not fixed:
            return self
        tree = self.potentials.choose(fixed)
        return DiscreteFactor(tree.keys, tree)

    def __repr__(self):
        return f"DiscreteFactor(keys={[k.id for k in self.keys]})"


def multiply_factors(factors: Sequence[DiscreteFactor]) -> DiscreteFactor:
    """Product of potential tables.

    Large products (> LOG_PRODUCT_SWITCH factors) accumulate in log domain and
    are rescaled by their max, which only changes the unnormalized scale.
    """
    if not factors:
        return DiscreteFactor((), DecisionTree.constant(1.0))
    if len(factors) <= LOG_PRODUCT_SWITCH:
        tree = factors[0].potentials
        for f in factors[1:]:
            tree = tree.apply(f.potentials, np.multiply)
        return DiscreteFactor(tree.keys, tree)
    with np.errstate(divide="ignore"):
        logs = [DecisionTree(f.keys, np.log(f.potentials.leaves)) for f in factors]
    tree = logs[0]
    for t in logs[1:]:
        tree = tree.apply(t, np.add)
    vals = tree.leaves
    shift = float(np.max(vals))
    if not math.isfinite(shift):
        shift = 0.0
    return DiscreteFactor(tree.keys, np.exp(vals - shift))


class DiscreteConditional:
    """P(frontal | parents) as a potential tree over frontal + parents."""

    __slots__ = ("frontal", "parents", "potentials")

    def __init__(self, frontal: DiscreteKey, parents: Sequence[DiscreteKey],
                 potentials: DecisionTree):
        expect = _sorted_keys((frontal,) + tuple(parents))
        if tuple(potentials.keys) != expect:
            raise ValueError("conditional tree keys must be frontal + parents")
        axis = potentials.keys.index(frontal)
        sums = potentials.leaves.sum(axis=axis)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError("conditional rows must sum to 1")
        object.__setattr__(self, "frontal", frontal)
        object.__setattr__(self, "parents", _sorted_keys(parents))
        object.__setattr__(self, "potentials", potentials)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteConditional is immutable")

    def value(self, assignment: Assignment) -> float:
        return float(self.potentials.leaf(assignment))

    def __repr__(self):
        return (f"DiscreteConditional(P({self.frontal.id!r} | "
                f"{[k.id for k in self.parents]}))")


class DiscreteLookup:
    """Argmax table from max-product elimination: parents -> best frontal value."""

    __slots__ = ("frontal", "parents", "choices")

    def __init__(self, frontal: DiscreteKey, parents: Sequence[DiscreteKey],
                 choices: DecisionTree):
        object.__setattr__(self, "frontal", frontal)
        object.__setattr__(self, "parents", _sorted_keys(parents))
        object.__setattr__(self, "choices", choices)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteLookup is immutable")

    def argmax(self, parent_assignment: Assignment) -> int:
        fixed = {k.id: parent_assignment[k.id] for k in self.parents}
        return int(self.choices.choose(fixed).leaves[()])


def eliminate_discrete_sum(product: DiscreteFactor, var: DiscreteKey
                           ) -> Tuple[DiscreteConditional, DiscreteFactor]:
    """Sum out `var`: tau = sum_var psi, conditional = psi / tau.

    All-zero slices (created by pruning) yield a uniform conditional over
    `var`; the zero mass still flows downstream through tau.
    """
    if var not in product.keys:
        raise ValueError(f"variable {var.id!r} not in factor")
    axis = product.keys.index(var)
    psi = product.potentials.leaves
    tau = psi.sum(axis=axis)
    tau_b = np.expand_dims(tau, axis)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(tau_b > 0, psi / np.where(tau_b > 0, tau_b, 1.0),
                        1.0 / var.cardinality)
    rest = tuple(k for k in product.keys if k != var)
    conditional = DiscreteConditional(var, rest, DecisionTree(product.keys, cond))
    return conditional, DiscreteFactor(rest, tau)


def eliminate_discrete_max(product: DiscreteFactor, var: DiscreteKey
                           ) -> Tuple[DiscreteLookup, DiscreteFactor]:
    """Max out `var`: tau = max_var psi plus the argmax lookup.

    Ties break toward the smallest value index (np.argmax convention).
    """
    if var not in product.keys:
        raise ValueError(f"variable {var.id!r} not in factor")
    axis = product.keys.index(var)
    psi = product.potentials.leaves
    tau = psi.max(axis=axis)
    best = psi.argmax(axis=axis).astype(float)
    rest = tuple(k for k in product.keys if k != var)
    lookup = DiscreteLookup(var, rest, DecisionTree(rest, best))
    return lookup, DiscreteFactor(rest, tau)


def prune_to_top(t: DecisionTree, P: int) -> DecisionTree:
    """Zero every leaf outside the P largest.  Values within MAP_TIE_RTOL
    times the P-th largest tie with it, as in first_best: every leaf above
    that band is kept, then the earliest leaves in flat order inside it, so
    rounding cannot move the cut.  Retained values are unchanged."""
    if P < 1:
        raise ValueError("P must be >= 1")
    flat = np.asarray(t.leaves, dtype=float).reshape(-1)
    if P >= flat.size:
        return DecisionTree(t.keys, flat.copy())
    cut = -np.partition(-flat, P - 1)[P - 1]
    band = MAP_TIE_RTOL * abs(cut)
    keep = flat > cut + band
    keep[np.flatnonzero(np.abs(flat - cut) <= band)[:P - keep.sum()]] = True
    return DecisionTree(t.keys, np.where(keep, flat, 0.0))
