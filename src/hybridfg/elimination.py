"""Hybrid variable elimination: Sum-Product to a hybrid Bayes net, the
hybrid MAP read off that net, plus pruning and dead mode removal.

Elimination follows a strong ordering (all continuous variables first).
Eliminating a continuous variable factors each mode's product
exp(-(0.5||Ax-b||^2 + c)) into a Gaussian conditional and a separator
factor whose constant drops by the conditional's log-normalizer, so that the
separator equals the true integral over the frontal variable.  When the
continuous separator is empty the per-mode residuals become a discrete factor
(the continuous-discrete boundary), and the remaining discrete graph is
eliminated with table operations.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .discrete import (DecisionTree, DiscreteConditional,
                       DiscreteFactor, DiscreteKey, check_enumeration,
                       eliminate_discrete_sum, multiply_factors, prune_to_top,
                       _expand, _merge_keys)
# Unused here; the benchmark's tracer patches this module's binding of it.
from .discrete import eliminate_discrete_max  # noqa: F401
from .gaussian import JacobianFactor, UnderconstrainedVariable, eliminate_one
from .hybrid import (HybridBayesNet, HybridFactorGraph,
                     HybridGaussianConditional, HybridGaussianFactor,
                     HybridValues, discrete_factor_from_leaves)

ContinuousFactor = Union[JacobianFactor, HybridGaussianFactor]


def strong_ordering(g: HybridFactorGraph) -> List[Any]:
    """Continuous variables first (minimum-degree, ties by id), then
    discrete variables in id order."""
    cont = g.continuous_variables()
    disc = [k.id for k in g.discrete_keys()]
    if not cont and not disc:
        raise ValueError("graph is empty")
    adj: Dict[Any, set] = {v: set() for v in cont}
    for f in g.continuous_factors:
        vs = f.variables
        for a in vs:
            adj[a].update(v for v in vs if v != a)
    for f in g.hybrid_factors:
        vs = f.continuous_ids
        for a in vs:
            adj[a].update(v for v in vs if v != a)
    # adj keeps only uneliminated neighbours, so len(adj[u]) is u's degree;
    # heap entries of eliminated variables or outdated degrees are skipped.
    heap = [(len(adj[v]), v) for v in cont]
    heapq.heapify(heap)
    order = []
    while heap:
        degree, v = heapq.heappop(heap)
        if v not in adj or degree != len(adj[v]):
            continue
        order.append(v)
        neighbors = adj.pop(v)
        for a in neighbors:
            adj[a] |= neighbors
            adj[a] -= {a, v}
            heapq.heappush(heap, (len(adj[a]), a))
    return order + sorted(disc)


def _validate_ordering(g: HybridFactorGraph, ordering: Sequence[Any]):
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


def _variables(f) -> Sequence[Any]:
    """Variables whose elimination consumes f (for hybrids, the continuous)."""
    if isinstance(f, DiscreteFactor):
        return [k.id for k in f.keys]
    if isinstance(f, HybridGaussianFactor):
        return f.continuous_ids
    return f.variables


def eliminate_hybrid_sum(factors: Sequence[ContinuousFactor], var):
    """Sum-Product elimination of a continuous variable; see module docs.

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
    # Live cells: those where every hybrid has a component, in flat order.
    live = np.ones(shape, dtype=bool)
    for f in hybrids:
        live &= _expand(np.not_equal(f.components.leaves, None), f.keys, keys)
    cells = np.nonzero(live)
    pos = {k.id: i for i, k in enumerate(keys)}
    picked = [f.components.leaves[tuple(cells[pos[k.id]] for k in f.keys)]
              for f in hybrids]
    cond_leaves = np.full(shape, None)
    sep_leaves = np.full(shape, None)
    bound_leaves = np.full(shape, math.inf)
    alive = 0
    for cell, *leaves in zip(zip(*cells), *picked):
        stack: List[JacobianFactor] = list(plains)
        c_in = base_const
        for jf, c in leaves:
            stack.append(jf)
            c_in += c
        try:
            conditional, marginal = eliminate_one(stack, var)
        except UnderconstrainedVariable:
            continue
        alive += 1
        c_out = c_in - conditional.log_normalizer
        cond_leaves[cell] = conditional
        sep_leaves[cell] = (marginal, c_out)
        if not separator_cont:
            bound_leaves[cell] = marginal.error({}) + c_out
    if alive == 0:
        raise UnderconstrainedVariable(
            f"variable unconstrained in every mode: {var!r}")
    conditional = HybridGaussianConditional(keys, DecisionTree(keys, cond_leaves))
    if separator_cont:
        separator = HybridGaussianFactor(keys, DecisionTree(keys, sep_leaves))
    else:
        separator = discrete_factor_from_leaves(DecisionTree(keys, bound_leaves))
    return conditional, separator


def sum_product(g: HybridFactorGraph,
                ordering: Optional[Sequence[Any]] = None) -> HybridBayesNet:
    """Eliminate the whole graph into a hybrid Bayes net for P(X, M | Z).

    Each factor, and each separator once produced, waits in the bucket of
    its first variable in the ordering, so no factor is scanned twice.
    """
    if ordering is None:
        ordering = strong_ordering(g)
    _validate_ordering(g, ordering)
    cont = set(g.continuous_variables())
    keymap = {k.id: k for k in g.discrete_keys()}
    position = {vid: i for i, vid in enumerate(ordering)}
    buckets: List[List[Any]] = [[] for _ in ordering]

    def place(f):
        ids = _variables(f)
        if ids:  # a factor without variables is a constant
            buckets[min(position[v] for v in ids)].append(f)

    for f in g.all_factors():
        place(f)
    bn = HybridBayesNet()
    for vid, bucket in zip(ordering, buckets):
        if vid in cont:
            conditional, separator = eliminate_hybrid_sum(bucket, vid)
        else:
            conditional, separator = eliminate_discrete_sum(
                multiply_factors(bucket), keymap[vid])
        bn.append(conditional)
        if separator is not None:
            place(separator)
    return bn


def bn_map(bn: HybridBayesNet) -> HybridValues:
    """Hybrid MAP read off a Sum-Product net.

    With the modes m fixed, the net peaks at the conditional means with value
    P(m | Z) * prod_i exp(-log_normalizer_i(m)).  The MAP modes maximize that
    over the live hypotheses (exact ties keep the first in flat order, as the
    oracle does) and select the components to back-substitute through.
    """
    conditionals = bn.continuous_conditionals()
    hybrids = [c for c in conditionals if isinstance(c, HybridGaussianConditional)]
    joint = bn.discrete_joint()
    modes: Dict[Any, int] = {}
    best = None
    for idx in zip(*np.nonzero(joint.leaves)) if joint is not None else ():
        a = {k.id: int(v) for k, v in zip(joint.keys, idx)}
        score = math.log(joint.leaves[idx])
        for c in hybrids:
            leaf = c.component(a)
            score -= math.inf if leaf is None else leaf.log_normalizer
        if best is None or score > best:
            best, modes = score, a
    values = {}
    for c in reversed(conditionals):
        if isinstance(c, HybridGaussianConditional):
            c = c.component(modes)
            if c is None:
                raise RuntimeError("MAP assignment selects a pruned component")
        values[c.frontal] = c.solve(values)
    return HybridValues(continuous=values, discrete=modes)


def max_product(g: HybridFactorGraph,
                ordering: Optional[Sequence[Any]] = None) -> HybridValues:
    """Hybrid MAP of a graph: the MAP of its Sum-Product net."""
    return bn_map(sum_product(g, ordering))


def _live_mask(support: DecisionTree, keys: Sequence[DiscreteKey]) -> np.ndarray:
    """Project a 0/1 support onto `keys` as a bool mask that broadcasts over
    them: a cell is live when some live hypothesis agrees with it on the
    keys both share.  Keys the support lacks stay free."""
    ids = {k.id for k in keys}
    live = support.leaves > 0
    lacked = tuple(i for i, k in enumerate(support.keys) if k.id not in ids)
    if lacked:
        live = live.any(axis=lacked)
    return _expand(live, [k for k in support.keys if k.id in ids], keys)


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
    out = HybridBayesNet()
    for c in bn.continuous_conditionals():
        if isinstance(c, HybridGaussianConditional):
            tree = c.components.where(_live_mask(pruned, c.keys))
            out.append(HybridGaussianConditional(c.keys, tree))
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


def restrict_to_support(g: HybridFactorGraph, support: DecisionTree
                        ) -> HybridFactorGraph:
    """Bake a pruning decision into a graph: components inconsistent with
    every surviving hypothesis become nil, and the 0/1 indicator joins the
    graph so dead joint hypotheses stay dead in later eliminations."""
    if not support.keys:
        return g
    graph_keys = {k.id for k in g.discrete_keys()}
    if not {k.id for k in support.keys} <= graph_keys:
        raise ValueError("support mentions keys absent from the graph")
    out = HybridFactorGraph()
    out.continuous_factors = list(g.continuous_factors)
    support_ids = {k.id for k in support.keys}
    for hf in g.hybrid_factors:
        if support_ids.isdisjoint(k.id for k in hf.keys):
            out.hybrid_factors.append(hf)
            continue
        tree = hf.components.where(_live_mask(support, hf.keys))
        out.hybrid_factors.append(HybridGaussianFactor(hf.keys, tree))
    out.discrete_factors = list(g.discrete_factors)
    out.discrete_factors.append(DiscreteFactor(support.keys, support))
    return out


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
