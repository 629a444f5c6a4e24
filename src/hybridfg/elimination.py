"""Hybrid variable elimination: Sum-Product to a hybrid Bayes net,
Max-Product to a hybrid MAP, plus pruning and dead mode removal.

Elimination follows a strong ordering (all continuous variables first).
Eliminating a continuous variable factors each mode's product
exp(-(0.5||Ax-b||^2 + c)) into a Gaussian conditional and a separator
factor; under Sum-Product the separator constant drops by the conditional's
log-normalizer so that the separator equals the true integral over the
frontal variable.  When the continuous separator is empty the per-mode
residuals become a discrete factor (the continuous-discrete boundary), and
the remaining discrete graph is eliminated with table operations.
Max-Product keeps the same machinery but takes peak values: separator
constants are carried unchanged, without the normalizer correction.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .discrete import (DecisionTree, DiscreteConditional,
                       DiscreteFactor, DiscreteKey, check_enumeration,
                       eliminate_discrete_max, eliminate_discrete_sum,
                       multiply_factors, prune_to_top, _merge_keys)
from .gaussian import (GaussianConditional, JacobianFactor,
                       UnderconstrainedVariable, eliminate_one)
from .hybrid import (HybridBayesNet, HybridGaussianConditional,
                     HybridGaussianFactor, HybridGaussianFactorGraph,
                     HybridValues, discrete_factor_from_leaves)

ContinuousFactor = Union[JacobianFactor, HybridGaussianFactor]


def strong_ordering(g: HybridGaussianFactorGraph) -> List[Any]:
    """Continuous variables first (minimum-degree, ties by id), then
    discrete variables in id order."""
    cont = g.continuous_variables()
    disc = [k.id for k in g.discrete_keys()]
    if not cont and not disc:
        raise ValueError("graph is empty")
    adj: Dict[Any, set] = {v: set() for v in cont}
    for f in g.gaussian_factors:
        vs = f.variables
        for a in vs:
            adj[a].update(v for v in vs if v != a)
    for f in g.hybrid_factors:
        vs = f.continuous_ids
        for a in vs:
            adj[a].update(v for v in vs if v != a)
    order = []
    remaining = set(cont)
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u] & remaining), u))
        order.append(v)
        neighbors = adj[v] & remaining
        for a in neighbors:
            adj[a].update(n for n in neighbors if n != a)
        remaining.remove(v)
    return order + sorted(disc)


def _validate_ordering(g: HybridGaussianFactorGraph, ordering: Sequence[Any]):
    cont = set(g.continuous_variables())
    disc = {k.id for k in g.discrete_keys()}
    if set(ordering) != cont | disc:
        raise ValueError("ordering must cover exactly the graph's variables")
    if len(set(ordering)) != len(ordering):
        raise ValueError("ordering contains duplicates")
    seen_discrete = False
    for vid in ordering:
        if vid in disc:
            seen_discrete = True
        elif seen_discrete:
            raise ValueError("not a strong ordering: continuous variable "
                             f"{vid!r} after a discrete one")


def _mentions(f, vid) -> bool:
    if isinstance(f, JacobianFactor):
        return vid in f.blocks
    if isinstance(f, HybridGaussianFactor):
        return vid in f.continuous_ids
    return False


def _eliminate_continuous(factors: Sequence[ContinuousFactor], var,
                          use_sum: bool):
    """Eliminate one continuous variable from its product factors.

    Returns (conditional, separator) where the separator is a
    JacobianFactor, HybridGaussianFactor, DiscreteFactor (boundary), or None
    when it carries no content beyond a mode-independent constant.
    """
    plains: List[JacobianFactor] = []
    hybrids: List[HybridGaussianFactor] = []
    base_const = 0.0
    for f in factors:
        if isinstance(f, JacobianFactor):
            plains.append(f)
        elif isinstance(f, HybridGaussianFactor):
            if f.keys:
                hybrids.append(f)
            else:
                # Fully restricted factor: one live component plus constant.
                jf, c = f.components.leaves[()]
                plains.append(jf)
                base_const += c
        else:
            raise TypeError("continuous elimination takes Jacobian/hybrid factors")
    keys: Tuple[DiscreteKey, ...] = ()
    cont_vars = set()
    for f in plains:
        cont_vars.update(f.variables)
    for f in hybrids:
        keys = _merge_keys(keys, f.keys)
        cont_vars.update(f.continuous_ids)
    if var not in cont_vars:
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r}")
    separator_cont = sorted(v for v in cont_vars if v != var)

    if not keys:
        # base_const is mode-independent here and cancels in any posterior.
        conditional, marginal = eliminate_one(list(plains), var)
        if not marginal.blocks:
            # Pure residual: a mode-independent constant, nothing downstream.
            return conditional, None
        return conditional, marginal

    shape = tuple(k.cardinality for k in keys)
    check_enumeration(shape)
    key_pos = {k.id: i for i, k in enumerate(keys)}
    projections = [tuple(key_pos[k.id] for k in f.keys) for f in hybrids]
    cond_leaves: List[Optional[GaussianConditional]] = []
    sep_leaves: List[Optional[Tuple[JacobianFactor, float]]] = []
    bound_leaves: List[Optional[float]] = []
    alive = 0
    for idx in np.ndindex(shape):
        stack: List[JacobianFactor] = list(plains)
        c_in = base_const
        dead = False
        for f, proj in zip(hybrids, projections):
            leaf = f.components.leaves[tuple(idx[p] for p in proj)]
            if leaf is None:
                dead = True
                break
            stack.append(leaf[0])
            c_in += leaf[1]
        if dead:
            cond_leaves.append(None)
            sep_leaves.append(None)
            bound_leaves.append(None)
            continue
        try:
            conditional, marginal = eliminate_one(stack, var)
        except UnderconstrainedVariable:
            cond_leaves.append(None)
            sep_leaves.append(None)
            bound_leaves.append(None)
            continue
        alive += 1
        c_out = c_in - conditional.log_normalizer if use_sum else c_in
        cond_leaves.append(conditional)
        sep_leaves.append((marginal, c_out))
        if not separator_cont:
            bound_leaves.append(marginal.error({}) + c_out)
    if alive == 0:
        raise UnderconstrainedVariable(
            f"variable unconstrained in every mode: {var!r}")
    conditional = HybridGaussianConditional(keys, DecisionTree(keys, cond_leaves))
    if separator_cont:
        separator = HybridGaussianFactor(keys, DecisionTree(keys, sep_leaves))
    else:
        separator = discrete_factor_from_leaves(DecisionTree(keys, bound_leaves))
    return conditional, separator


def eliminate_hybrid_sum(factors: Sequence[ContinuousFactor], var):
    """Sum-Product elimination of a continuous variable; see module docs."""
    return _eliminate_continuous(factors, var, use_sum=True)


def eliminate_hybrid_max(factors: Sequence[ContinuousFactor], var):
    """Max-Product elimination of a continuous variable.  The returned
    "conditional" is the argmax lookup g(separator); separator constants are
    the accumulated input constants (no normalizer correction)."""
    return _eliminate_continuous(factors, var, use_sum=False)


def _split_for(factors, vid):
    involved = [f for f in factors if _mentions(f, vid)]
    rest = [f for f in factors if not _mentions(f, vid)]
    return involved, rest


def _discrete_product(factors, key: DiscreteKey):
    involved = [f for f in factors
                if isinstance(f, DiscreteFactor) and key in f.keys]
    rest = [f for f in factors
            if not (isinstance(f, DiscreteFactor) and key in f.keys)]
    if any(isinstance(f, HybridGaussianFactor) and key in f.keys for f in rest):
        raise ValueError(f"hybrid factor still mentions {key.id!r} during the "
                         "discrete phase; ordering is not strong")
    if not involved:
        raise ValueError(f"variable {key.id!r} not in any factor")
    return multiply_factors(involved), rest


def _eliminate(g: HybridGaussianFactorGraph, ordering: Optional[Sequence[Any]],
               use_sum: bool) -> Tuple[List[Any], List[Any]]:
    """Eliminate the whole graph along a strong ordering.

    Returns the continuous and the discrete results in elimination order:
    conditionals under Sum-Product, argmax lookups under Max-Product.
    """
    if ordering is None:
        ordering = strong_ordering(g)
    _validate_ordering(g, ordering)
    cont = set(g.continuous_variables())
    keymap = {k.id: k for k in g.discrete_keys()}
    factors: List[Any] = g.all_factors()
    cont_out: List[Any] = []
    disc_out: List[Any] = []
    for vid in ordering:
        if vid in cont:
            involved, factors = _split_for(factors, vid)
            conditional, separator = _eliminate_continuous(involved, vid, use_sum)
            cont_out.append(conditional)
            if separator is not None and not (
                    isinstance(separator, DiscreteFactor) and not separator.keys):
                factors.append(separator)
        else:
            product, factors = _discrete_product(factors, keymap[vid])
            eliminate = eliminate_discrete_sum if use_sum else eliminate_discrete_max
            conditional, tau = eliminate(product, keymap[vid])
            disc_out.append(conditional)
            if tau.keys:
                factors.append(tau)
    return cont_out, disc_out


def sum_product(g: HybridGaussianFactorGraph,
                ordering: Optional[Sequence[Any]] = None) -> HybridBayesNet:
    """Eliminate the whole graph into a hybrid Bayes net for P(X, M | Z)."""
    cont, disc = _eliminate(g, ordering, use_sum=True)
    return HybridBayesNet(cont + disc)


def max_product(g: HybridGaussianFactorGraph,
                ordering: Optional[Sequence[Any]] = None) -> HybridValues:
    """Hybrid MAP: max-phase elimination, then back-substitution through the
    mode-selected components."""
    cont_lookups, disc_lookups = _eliminate(g, ordering, use_sum=False)
    modes: Dict[Any, int] = {}
    for lk in reversed(disc_lookups):
        modes[lk.frontal.id] = lk.argmax(modes)
    values = {}
    for lk in reversed(cont_lookups):
        if isinstance(lk, HybridGaussianConditional):
            leaf = lk.component({k.id: modes[k.id] for k in lk.keys})
            if leaf is None:
                raise RuntimeError("MAP assignment selects a pruned component")
            values[leaf.frontal] = leaf.solve(values)
        else:
            values[lk.frontal] = lk.solve(values)
    return HybridValues(continuous=values, discrete=modes)


def _max_marginal(tree: DecisionTree, keys: Sequence[DiscreteKey]) -> DecisionTree:
    """Max-project a float tree onto a subset of its keys."""
    keep = {k.id for k in keys}
    axes = tuple(i for i, k in enumerate(tree.keys) if k.id not in keep)
    vals = np.asarray(tree.leaves, dtype=float)
    if axes:
        vals = vals.max(axis=axes)
    sub = tuple(k for k in tree.keys if k.id in keep)
    return DecisionTree(sub, vals)


def prune_bayes_net(bn: HybridBayesNet, P: int) -> HybridBayesNet:
    """Keep only the top-P joint discrete hypotheses.

    The pruned joint is redistributed into fresh discrete conditionals (zero
    slices become uniform, carried mass stays zero), and hybrid conditionals
    get nil components wherever no surviving hypothesis is consistent.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    joint = bn.discrete_joint()
    if joint is None:
        return HybridBayesNet(list(bn.conditionals))
    pruned = prune_to_top(joint, P)
    if np.array_equal(pruned.leaves, joint.leaves):
        return HybridBayesNet(list(bn.conditionals))
    alive = DecisionTree(joint.keys, (pruned.leaves > 0).astype(float))
    out = HybridBayesNet()
    for c in bn.continuous_conditionals():
        if isinstance(c, HybridGaussianConditional):
            dead = _max_marginal(alive, c.keys).map_leaves(lambda v: v <= 0)
            out.append(c.with_nil(dead))
        else:
            out.append(c)
    prod = DiscreteFactor(pruned.keys, pruned)
    for c in bn.discrete_conditionals():
        cond, tau = eliminate_discrete_sum(prod, c.frontal)
        out.append(cond)
        prod = tau
    return out


def hypothesis_support(bn: HybridBayesNet) -> Optional[DecisionTree]:
    """0/1 indicator over the net's discrete keys marking live hypotheses."""
    joint = bn.discrete_joint()
    if joint is None:
        return None
    return DecisionTree(joint.keys, (np.asarray(joint.leaves) > 0).astype(float))


def restrict_to_support(g: HybridGaussianFactorGraph, support: DecisionTree
                        ) -> HybridGaussianFactorGraph:
    """Bake a pruning decision into a graph: components inconsistent with
    every surviving hypothesis become nil, and the 0/1 indicator joins the
    graph so dead joint hypotheses stay dead in later eliminations."""
    if not support.keys:
        return g
    graph_keys = {k.id for k in g.discrete_keys()}
    if not {k.id for k in support.keys} <= graph_keys:
        raise ValueError("support mentions keys absent from the graph")
    out = HybridGaussianFactorGraph()
    out.gaussian_factors = list(g.gaussian_factors)
    support_ids = {k.id for k in support.keys}
    for hf in g.hybrid_factors:
        shared = tuple(k for k in hf.keys if k.id in support_ids)
        if not shared:
            out.hybrid_factors.append(hf)
            continue
        alive = _max_marginal(support, shared)
        tree = hf.components.apply(alive, lambda leaf, a: leaf if a > 0 else None)
        out.hybrid_factors.append(HybridGaussianFactor(tree.keys, tree))
    out.discrete_factors = list(g.discrete_factors)
    out.discrete_factors.append(DiscreteFactor(support.keys, support))
    return out


def fix_support(support: Optional[DecisionTree], fixed: Dict[Any, int]
                ) -> Optional[DecisionTree]:
    """The support left once dead mode removal fixes the modes in `fixed`:
    the slice of live hypotheses consistent with them."""
    if support is None or not fixed:
        return support
    return support.choose(fixed)


def discrete_marginals(bn: HybridBayesNet) -> Dict[Any, np.ndarray]:
    """Per-key marginal probabilities implied by the net's discrete part."""
    joint = bn.discrete_joint()
    if joint is None:
        return {}
    vals = np.asarray(joint.leaves, dtype=float)
    out = {}
    for i, k in enumerate(joint.keys):
        axes = tuple(j for j in range(len(joint.keys)) if j != i)
        out[k.id] = vals.sum(axis=axes) if axes else vals.copy()
    return out


def dead_mode_removal(bn: HybridBayesNet, graph, delta: float):
    """Fix every mode whose marginal exceeds delta and restrict the graph.

    Returns (reduced_graph, fixed_assignment).  delta must exceed 0.5 so at
    most one value per mode can qualify.
    """
    if not (0.5 < delta <= 1.0):
        raise ValueError("ambiguous threshold: delta must be in (0.5, 1]")
    fixed: Dict[Any, int] = {}
    for kid, probs in discrete_marginals(bn).items():
        best = int(np.argmax(probs))
        if probs[best] > delta:
            fixed[kid] = best
    if not fixed:
        return graph, {}
    return graph.restrict(fixed), fixed


def bn_evaluate(bn: HybridBayesNet, v: HybridValues) -> float:
    """Product of all conditional densities at a full hybrid instantiation."""
    total = 0.0
    for c in bn.conditionals:
        if isinstance(c, DiscreteConditional):
            p = c.value(v.discrete)
            if p <= 0.0:
                return 0.0
            total += math.log(p)
        elif isinstance(c, HybridGaussianConditional):
            ld = c.log_density(v)
            if ld == -math.inf:
                return 0.0
            total += ld
        else:
            total += c.log_density(v.continuous)
    return math.exp(total)


def bn_sample(bn: HybridBayesNet, seed) -> HybridValues:
    """Ancestral sampling in reverse elimination order (roots first)."""
    rng = np.random.default_rng(seed)
    modes: Dict[Any, int] = {}
    values = {}
    for c in reversed(bn.conditionals):
        if isinstance(c, DiscreteConditional):
            dist = c.distribution(modes)
            modes[c.frontal.id] = int(rng.choice(c.frontal.cardinality, p=dist))
        elif isinstance(c, HybridGaussianConditional):
            leaf = c.component({k.id: modes[k.id] for k in c.keys})
            if leaf is None:
                raise RuntimeError("sampled a pruned component; net is inconsistent")
            values[leaf.frontal] = leaf.sample(values, rng)
        else:
            values[c.frontal] = c.sample(values, rng)
    return HybridValues(continuous=values, discrete=modes)
