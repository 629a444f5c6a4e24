"""Hybrid variable elimination: Sum-Product to a hybrid Bayes net, the
hybrid MAP read off that net, plus pruning and dead mode removal.

Elimination follows a strong ordering (all continuous variables first).
Eliminating a continuous variable factors each mode's product
exp(-(0.5||Ax-b||^2 + c)) into a Gaussian conditional and a separator
factor whose constant drops by the conditional's log-normalizer, so that the
separator equals the true integral over the frontal variable.  When the
continuous separator is empty the per-mode residuals become a discrete factor
(the continuous-discrete boundary); the product of those and the graph's
discrete factors, normalized, is the net's one table P(M | Z).
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from operator import itemgetter
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .discrete import (DecisionTree, DiscreteFactor, DiscreteKey,
                       check_enumeration, first_best, multiply_factors,
                       prune_to_top, _expand, _merge_keys)
# Unused here since the net holds one discrete table; the benchmark's
# tracer patches this module's bindings of them through its __dict__.
from .discrete import eliminate_discrete_max, eliminate_discrete_sum  # noqa: F401
from .gaussian import (JacobianFactor, UnderconstrainedVariable, _dims,
                       _layout, _Marginal, _put, _split, back_substitute,
                       eliminate_stacked)
# Unused here since elimination runs by wavefront; the benchmark's tracer
# patches this module's binding of it.
from .gaussian import eliminate_one  # noqa: F401
from .hybrid import (HybridBayesNet, HybridFactorGraph,
                     HybridGaussianConditional, HybridGaussianFactor,
                     HybridValues, discrete_factor_from_leaves)

ContinuousFactor = Union[JacobianFactor, HybridGaussianFactor]


def strong_ordering(g: HybridFactorGraph) -> List[Any]:
    """Continuous variables first, by multiple minimum degree (Liu, ACM
    TOMS 1985), then discrete variables in id order.  Each round takes the
    variables of the current minimum degree in id order and eliminates
    every one that no variable eliminated earlier in the round is adjacent
    to, so one round adds an independent set to the ordering and the
    elimination tree stays short."""
    cont = g.continuous_variables()
    disc = [k.id for k in g.discrete_keys()]
    if not cont and not disc:
        raise ValueError("graph is empty")
    adj: Dict[Any, set] = {v: set() for v in cont}
    for vs in [f.variables for f in g.continuous_factors] \
            + [f.continuous_ids for f in g.hybrid_factors]:
        for a in vs:
            adj[a].update(v for v in vs if v != a)
    # adj keeps only uneliminated neighbours, so len(adj[u]) is u's degree;
    # heap entries of eliminated variables or outdated degrees are skipped.
    heap = [(len(adj[v]), v) for v in cont]
    heapq.heapify(heap)
    order = []
    while heap:
        # The round's candidates: every variable of the smallest current
        # degree (one pushed twice with that degree pops twice in a row).
        round_: List[Any] = []
        while heap and (not round_ or heap[0][0] == len(adj[round_[0]])):
            degree, v = heapq.heappop(heap)
            if v in adj and degree == len(adj[v]) and v not in round_[-1:]:
                round_.append(v)
        touched = set()
        for v in round_:
            if v in touched:
                continue
            order.append(v)
            neighbors = adj.pop(v)
            for a in neighbors:
                adj[a] |= neighbors
                adj[a] -= {a, v}
            touched |= neighbors
        # Neighbours of the round's variables wait for the next round, at
        # their new degrees.
        for a in touched:
            heapq.heappush(heap, (len(adj[a]), a))
    return order + sorted(disc)


def _validate_ordering(ordering: Sequence[Any], cont: set, disc: set):
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


# A hybrid clique's separator while it waits in sum_product: per mode cell
# of `keys`, in the object array `leaves`, None or (_Marginal, constant).
_HybridMarginal = namedtuple("_HybridMarginal", "keys continuous_ids leaves")


def _variables(f) -> Sequence[Any]:
    """Variables whose elimination consumes f (for hybrids, the continuous)."""
    if isinstance(f, DiscreteFactor):
        return [k.id for k in f.keys]
    if isinstance(f, (HybridGaussianFactor, _HybridMarginal)):
        return f.continuous_ids
    return f.variables


class _Clique:
    """The elimination of one variable from its bucket (whose separators
    of earlier cliques are _Marginal or _HybridMarginal): the row layouts
    of its systems, one or one per live mode cell, then, once
    _eliminate_independent has run them, the conditional and separator."""

    def __init__(self, factors: Sequence[Any], var):
        plains: List[Any] = []
        hybrids: List[Tuple[Tuple[DiscreteKey, ...], np.ndarray]] = []
        base_const = 0.0
        cont_vars = set()
        for f in factors:
            if isinstance(f, (JacobianFactor, _Marginal)):
                plains.append(f)
                cont_vars.update(f.variables)
                continue
            if isinstance(f, _HybridMarginal):
                hybrids.append((f.keys, f.leaves))
            elif not isinstance(f, HybridGaussianFactor):
                raise TypeError("continuous elimination takes Jacobian/hybrid factors")
            elif f.keys:
                hybrids.append((f.keys, f.components.leaves))
            else:
                # Fully restricted factor: one live component plus constant.
                jf, c = f.components.leaves[()]
                plains.append(jf)
                base_const += c
            cont_vars.update(f.continuous_ids)
        keys = _merge_keys((), [k for f_keys, _ in hybrids for k in f_keys]) \
            if hybrids else ()
        if var not in cont_vars:
            raise UnderconstrainedVariable(f"underconstrained variable: {var!r}")
        cont_vars.discard(var)
        separator = tuple(sorted(cont_vars))
        self.var, self.keys, self.separator = var, keys, separator
        self.plains = plains
        rows = sum(f.rows for f in plains)
        self.error: Optional[ValueError] = None
        # Per layout: (rows m of its systems, per hybrid the components of
        # its cells, the cells' indices into self.results: live cells in
        # flat order, 0 without keys).
        self.layouts: List[Tuple[int, List[List[Any]], List[int]]] = []
        if not keys:
            # base_const is mode-independent here and cancels in any posterior.
            dims = _dims(plains)
            self.layouts.append((rows, [], [0]))
            self.results: List[Any] = [None]
        else:
            self.shape = tuple(k.cardinality for k in keys)
            check_enumeration(self.shape)
            # Live cells: those where every hybrid has a component.
            live = np.ones(self.shape, dtype=bool)
            for f_keys, leaves in hybrids:
                live &= _expand(np.not_equal(leaves, None), f_keys, keys)
            cells = np.nonzero(live)
            pos = {k.id: i for i, k in enumerate(keys)}
            picked = [leaves[tuple(cells[pos[k.id]] for k in f_keys)]
                      for f_keys, leaves in hybrids]
            components = [[jf for jf, _ in leaves] for leaves in picked]
            c_in = np.full(len(cells[0]), base_const)
            for leaves in picked:
                c_in += [c for _, c in leaves]
            self.c_in = c_in.tolist()
            self.flat = np.ravel_multi_index(cells, self.shape).tolist()
            self.results = [None] * len(self.flat)
            # Cells whose components have the same row counts share a layout.
            layouts: Dict[Tuple[int, ...], List[int]] = {}
            for i, cell_rows in enumerate(zip(*[[jf.rows for jf in col]
                                                for col in components])):
                layouts.setdefault(cell_rows, []).append(i)
            dims = _dims(plains + [col[0] for col in components if col])
            for cell_rows, members in layouts.items():
                self.layouts.append((rows + sum(cell_rows), [
                    [col[i] for i in members] for col in components], members))
        if self.layouts:
            self.dv = dims[var]
            self.cols, self.offsets, self.width = _layout(var, separator, dims)

    def finish(self):
        """(conditional, separator) where the separator is a _Marginal,
        _HybridMarginal, DiscreteFactor (boundary), or None when it carries
        no content beyond a mode-independent constant."""
        var, separator = self.var, self.separator
        if self.error is not None:
            raise self.error
        if not self.keys:
            result = self.results[0]
            if result is None:
                m = self.layouts[0][0]
                raise UnderconstrainedVariable(
                    f"underconstrained variable: {var!r} has {m} rows, "
                    f"needs {self.dv}" if m < self.dv else
                    f"underconstrained variable: {var!r} is rank deficient")
            conditional, marginal = result
            # Without a separator the marginal is a pure residual: a
            # mode-independent constant, nothing downstream.
            return conditional, marginal if separator else None
        if all(result is None for result in self.results):
            raise UnderconstrainedVariable(
                f"variable unconstrained in every mode: {var!r}")
        size = math.prod(self.shape)
        cond_leaves = np.full(size, None)
        sep_leaves = np.full(size, None)
        bound_leaves = np.full(size, math.inf)
        for cell, c_in, result in zip(self.flat, self.c_in, self.results):
            if result is None:    # rank deficient, or fewer rows than var needs
                continue
            conditional, marginal = result
            c_out = c_in - conditional.log_normalizer
            cond_leaves[cell] = conditional
            sep_leaves[cell] = (marginal, c_out)
            if not separator:
                r = -marginal.data[:, -1]
                bound_leaves[cell] = 0.5 * float(r @ r) + c_out
        keys = self.keys
        conditional = HybridGaussianConditional(
            keys, DecisionTree(keys, cond_leaves.reshape(self.shape)))
        if separator:
            return conditional, _HybridMarginal(keys, separator,
                                                sep_leaves.reshape(self.shape))
        return conditional, discrete_factor_from_leaves(
            DecisionTree(keys, bound_leaves.reshape(self.shape)))


def _eliminate_independent(cliques: Sequence[_Clique]) -> None:
    """Run the QRs of cliques none of which feeds another: their systems,
    grouped by shape (rows, columns and the eliminated variable's
    dimension), are filled by their cliques into one (K, m, n+1) array per
    group, which takes one eliminate_stacked call.  A group with fewer rows
    than the variable needs runs none; its results stay None."""
    groups: Dict[Tuple[int, int, int], List[Tuple[_Clique, Any, List[int]]]] = {}
    for c in cliques:
        for m, per_cell, members in c.layouts:
            groups.setdefault((m, c.width, c.dv), []).append((c, per_cell, members))
    for (m, width, dv), parts in groups.items():
        if m < dv:
            continue
        M = np.zeros((sum(len(members) for _, _, members in parts), m, width))
        heads: List[Any] = []
        cells: List[Tuple[_Clique, int]] = []    # per system: clique, cell
        for c, per_cell, members in parts:
            k = len(members)
            # Rows: the plain factors, the same in every system, then per
            # hybrid its components, one per cell, in bucket order.
            S = M[len(heads)] if k == 1 else M[len(heads):len(heads) + k]
            r = 0
            for f in c.plains:
                r = _put(S, r, f, c.offsets)
            for col in per_cell:
                r = _put(S, r, col[0], c.offsets, col)
            heads += [(c.var, c.cols)] * k
            cells += [(c, i) for i in members]
        try:
            results = _split(eliminate_stacked(M, dv, heads), heads)
        except ValueError:
            # Non-finite entries: one QR per part finds whose.
            results = []
            for c, _, members in parts:
                part = slice(len(results), len(results) + len(members))
                try:
                    results += _split(eliminate_stacked(M[part], dv, heads[part]),
                                      heads[part])
                except ValueError as e:
                    c.error = e
                    results += [None] * len(members)
        for (c, i), result in zip(cells, results):
            c.results[i] = result


def eliminate_hybrid_sum(factors: Sequence[ContinuousFactor], var):
    """Sum-Product elimination of a continuous variable; see module docs.

    Returns (conditional, separator) where the separator is a
    JacobianFactor, HybridGaussianFactor, DiscreteFactor (boundary), or None
    when it carries no content beyond a mode-independent constant."""
    clique = _Clique(factors, var)
    _eliminate_independent([clique])
    conditional, sep = clique.finish()
    if isinstance(sep, _HybridMarginal):
        sep = HybridGaussianFactor(sep.keys, DecisionTree(sep.keys, [
            leaf and (leaf[0].as_factor(), leaf[1]) for leaf in sep.leaves.flat]))
    return conditional, sep.as_factor() if isinstance(sep, _Marginal) else sep


def _levels(ordering: Sequence[Any], position: Dict[Any, int],
            buckets: Sequence[Sequence[Tuple[int, Any]]], n_cont: int
            ) -> List[List[int]]:
    """Positions of the first n_cont variables of the ordering, the
    continuous ones, by level of the elimination tree: a variable's level
    is 1 + the largest level of the variables whose separators land in its
    bucket, 0 without any, so no variable feeds another of its level.
    Symbolic: a separator's variables are those of its bucket but the
    eliminated one, and it lands in the bucket of the first of them."""
    scope = [set() for _ in range(n_cont)]
    for i in range(n_cont):
        for _, f in buckets[i]:
            scope[i].update(_variables(f))
    level = [0] * n_cont
    for i in range(n_cont):
        scope[i].discard(ordering[i])
        if scope[i]:
            t = min(position[v] for v in scope[i])
            scope[t] |= scope[i]
            level[t] = max(level[t], level[i] + 1)
    out: List[List[int]] = [[] for _ in range(max(level, default=-1) + 1)]
    for i, lv in enumerate(level):
        out[lv].append(i)
    return out


def sum_product(g: HybridFactorGraph,
                ordering: Optional[Sequence[Any]] = None) -> HybridBayesNet:
    """Eliminate the whole graph into a hybrid Bayes net for P(X, M | Z):
    the continuous conditionals p(X | M, Z), and P(M | Z) as one table, the
    product of the discrete factors left after continuous elimination
    divided by its sum.  A product that is 0 everywhere raises ValueError,
    as the oracle does.

    Each factor, and each separator once produced, waits in the bucket of
    its first variable in the ordering, so no factor is scanned twice.  The
    continuous variables are eliminated by wavefront: one level of the
    elimination tree at a time, the QRs of all its buckets batched by
    shape (see _eliminate_independent).  A bucket stacks the graph's
    factors in graph order, then separators in the order of the variables
    that produced them, as a one-at-a-time loop would: for a given
    ordering the net is the same bit for bit, and an error is that of the
    first failing variable in the ordering.
    """
    if ordering is None:
        ordering = strong_ordering(g)
    cont, keys = g.continuous_variables(), g.discrete_keys()
    _validate_ordering(ordering, set(cont), {k.id for k in keys})
    n_cont = len(cont)
    position = {vid: i for i, vid in enumerate(ordering)}
    # Bucket entries (position of the variable that produced the factor,
    # factor), the graph's own factors at -1.
    buckets: List[List[Tuple[int, Any]]] = [[] for _ in ordering]

    def place(f, source=-1):
        ids = _variables(f)
        if ids:  # a factor without variables is a constant
            buckets[min(map(position.__getitem__, ids))].append((source, f))

    def bucket(i):
        return [f for _, f in sorted(buckets[i], key=itemgetter(0))]

    for f in g.all_factors():
        place(f)
    conditionals: List[Any] = [None] * n_cont
    # Errors by position: past the first, the loop would not have gone.
    failures: Dict[int, Exception] = {}
    for level in _levels(ordering, position, buckets, n_cont):
        cliques = []
        for i in level:
            if failures and i > min(failures):
                continue
            try:
                cliques.append((i, _Clique(bucket(i), ordering[i])))
            except (TypeError, ValueError) as e:
                failures[i] = e
        _eliminate_independent([c for _, c in cliques])
        for i, c in cliques:
            try:
                conditionals[i], separator = c.finish()
            except ValueError as e:
                failures[i] = e
                continue
            if separator is not None:
                place(separator, i)
    if failures:
        raise failures[min(failures)]
    if not keys:
        return HybridBayesNet(conditionals)
    product = multiply_factors([f for i in range(n_cont, len(ordering))
                                for f in bucket(i)]).potentials
    total = float(product.leaves.sum())
    if not total > 0.0:
        raise ValueError("all discrete assignments are impossible")
    return HybridBayesNet(conditionals,
                          DecisionTree(product.keys, product.leaves / total))


def bn_map(bn: HybridBayesNet) -> HybridValues:
    """Hybrid MAP read off a Sum-Product net.

    With the modes m fixed, the net peaks at the conditional means with value
    P(m | Z) * prod_i exp(-log_normalizer_i(m)).  The MAP modes maximize that
    over the live hypotheses and select the components to back-substitute
    through.  Ties, scores within rounding of the best (see first_best),
    keep the first in flat order, as the oracle does.
    """
    conditionals = bn.conditionals
    hybrids = [c for c in conditionals if isinstance(c, HybridGaussianConditional)]
    joint = bn.discrete_joint()
    candidates: List[Dict[Any, int]] = []
    scores: List[float] = []
    for idx in zip(*np.nonzero(joint.leaves)) if joint is not None else ():
        a = {k.id: int(v) for k, v in zip(joint.keys, idx)}
        score = math.log(joint.leaves[idx])
        for c in hybrids:
            leaf = c.component(a)
            score -= math.inf if leaf is None else leaf.log_normalizer
        candidates.append(a)
        scores.append(score)
    modes = candidates[first_best(scores)] if candidates else {}
    chosen = []
    for c in conditionals:
        if isinstance(c, HybridGaussianConditional):
            c = c.component(modes)
            if c is None:
                raise RuntimeError("MAP assignment selects a pruned component")
        chosen.append(c)
    return HybridValues(continuous=back_substitute(chosen), discrete=modes)


def max_product(g: HybridFactorGraph,
                ordering: Optional[Sequence[Any]] = None) -> HybridValues:
    """Hybrid MAP of a graph: the MAP of its Sum-Product net."""
    return bn_map(sum_product(g, ordering))


def _live_masks(support: DecisionTree
                ) -> Callable[[Sequence[DiscreteKey]], np.ndarray]:
    """Projector of a 0/1 support onto a factor's keys.  The returned
    function gives a bool mask that broadcasts over `keys`: a cell is live
    when some live hypothesis agrees with it on the keys both share; keys
    the support lacks stay free (unit axes).  The live hypotheses are
    found once, so each mask costs their number, not the support's size."""
    hits = np.nonzero(np.atleast_1d(support.leaves > 0))
    rows = dict(zip((k.id for k in support.keys), hits))

    def mask(keys: Sequence[DiscreteKey]) -> np.ndarray:
        live = np.zeros(tuple(k.cardinality if k.id in rows else 1
                              for k in keys), dtype=bool)
        if hits[0].size:
            live[tuple(rows.get(k.id, 0) for k in keys)] = True
        return live
    return mask


def prune_bayes_net(bn: HybridBayesNet, P: int) -> HybridBayesNet:
    """Keep only the top-P joint discrete hypotheses.

    The net's joint becomes prune_to_top(joint, P) divided by its sum, and
    hybrid conditionals get nil components wherever no surviving hypothesis
    is consistent.  A net with at most P live hypotheses is returned as is.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    joint = bn.discrete_joint()
    pruned = None if joint is None else prune_to_top(joint, P)
    if pruned is None or np.array_equal(pruned.leaves, joint.leaves):
        return bn
    live_mask = _live_masks(pruned)
    return HybridBayesNet(
        [HybridGaussianConditional(c.keys, c.components.where(live_mask(c.keys)))
         if isinstance(c, HybridGaussianConditional) else c
         for c in bn.conditionals],
        DecisionTree(pruned.keys, pruned.leaves / pruned.leaves.sum()))


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
    support_ids = {k.id for k in support.keys}
    if not support_ids <= {k.id for k in g.discrete_keys()}:
        raise ValueError("support mentions keys absent from the graph")
    out = HybridFactorGraph()
    out.continuous_factors = list(g.continuous_factors)
    live_mask = _live_masks(support)
    for hf in g.hybrid_factors:
        if support_ids.isdisjoint(k.id for k in hf.keys):
            out.hybrid_factors.append(hf)
            continue
        tree = hf.components.where(live_mask(hf.keys))
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
    """P(m | Z) times every conditional density at a full hybrid
    instantiation (x, m)."""
    joint = bn.discrete_joint()
    p = 1.0 if joint is None else float(joint.leaf(v.discrete))
    if p <= 0.0:
        return 0.0
    total = math.log(p)
    for c in bn.conditionals:
        if isinstance(c, HybridGaussianConditional):
            ld = c.log_density(v)
            if ld == -math.inf:
                return 0.0
            total += ld
        else:
            total += c.log_density(v.continuous)
    return math.exp(total)


def bn_sample(bn: HybridBayesNet, seed) -> HybridValues:
    """Ancestral sampling: the modes as one row of the joint table, drawn
    with its probability, then the continuous conditionals in reverse
    elimination order (roots first)."""
    rng = np.random.default_rng(seed)
    modes: Dict[Any, int] = {}
    joint = bn.discrete_joint()
    if joint is not None:
        row = rng.choice(joint.leaves.size, p=joint.leaves.reshape(-1))
        modes = {k.id: int(v) for k, v in
                 zip(joint.keys, np.unravel_index(row, joint.leaves.shape))}
    values = {}
    for c in reversed(bn.conditionals):
        if isinstance(c, HybridGaussianConditional):
            leaf = c.component({k.id: modes[k.id] for k in c.keys})
            if leaf is None:
                raise RuntimeError("sampled a pruned component; net is inconsistent")
            values[leaf.frontal] = leaf.sample(values, rng)
        else:
            values[c.frontal] = c.sample(values, rng)
    return HybridValues(continuous=values, discrete=modes)
