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
import operator
from collections import namedtuple
from itertools import accumulate
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .discrete import (DecisionTree, DiscreteKey, check_enumeration,
                       first_best, multiply_factors, prune_to_top, _expand,
                       _merge_keys)
# Unused here since the net holds one discrete table; the benchmark's
# tracer patches this module's bindings of them through its __dict__.
from .discrete import eliminate_discrete_max, eliminate_discrete_sum  # noqa: F401
from .gaussian import (GaussianConditional, JacobianFactor,
                       UnderconstrainedVariable, _dims, _layout,
                       _marginal, _put, back_substitute, eliminate_stacked)
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
    variables of degree at most max(d_min, 2), d_min the current minimum
    degree, in (degree, id) order and eliminates every one that no
    variable eliminated earlier in the round is adjacent to, so one round
    adds an independent set to the ordering and the elimination tree stays
    short.  Letting degree 2 join a round of degree 0 or 1 (Liu's delta)
    adds at most one fill edge per such variable, and lets the interior of
    a path go in the round its end goes: the elimination tree of a path of
    2^k variables has k + 1 levels, not 2^(k-1) + 1."""
    adj: Dict[Any, set] = {}
    for vs in [f.variables for f in g.continuous_factors] \
            + [f.continuous_ids for f in g.hybrid_factors]:
        for a in vs:
            adj.setdefault(a, set()).update(v for v in vs if v != a)
    # adj's keys are the continuous variables.
    disc = [k.id for k in g._discrete_keys(adj)]
    if not adj and not disc:
        raise ValueError("graph is empty")
    # adj keeps only uneliminated neighbours, so len(adj[u]) is u's degree;
    # heap entries of eliminated variables or outdated degrees are skipped.
    heap = [(len(neighbors), v) for v, neighbors in adj.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        # The round's candidates: every variable of degree at most
        # max(smallest current degree, 2), in (degree, id) order (one
        # pushed twice with a degree pops twice in a row).
        round_: List[Any] = []
        limit = 0
        while heap and (not round_ or heap[0][0] <= limit):
            degree, v = heapq.heappop(heap)
            if v in adj and degree == len(adj[v]) and v not in round_[-1:]:
                limit = limit or max(degree, 2)
                round_.append(v)
        touched = set()
        for v in round_:
            if v in touched:
                continue
            order.append(v)
            neighbors = adj.pop(v)
            for a in neighbors:
                fill = adj[a]
                fill |= neighbors
                fill.discard(a)
                fill.discard(v)
            touched |= neighbors
        # Neighbours of the round's variables wait for the next round, at
        # their new degrees.
        for a in touched:
            heapq.heappush(heap, (len(adj[a]), a))
    return order + sorted(disc)


def _first_component(f) -> JacobianFactor:
    """f, or a hybrid f's first live component (all share variables and dims)."""
    if type(f) is HybridGaussianFactor:
        return next(leaf for leaf in f.components.leaves.flat if leaf is not None)[0]
    if type(f) is not JacobianFactor:
        raise TypeError("continuous elimination takes Jacobian/hybrid factors")
    return f


# A planned step: eliminating `var`, which the separators of the steps at
# positions `children` reach, onto `separator` (the other variables,
# sorted), with the columns of gaussian._layout.
_Step = namedtuple("_Step", "var children separator dv cols offsets width")

# The symbolic elimination of a graph's continuous variables: the structure
# it was planned for (see _structure), the bucket (position of the first
# variable) of each variable tuple of its factors, a _Step per position and
# the positions by level (1 + the largest level of those sending
# separators to it).  The mode keys, the discrete factors and the factors'
# numbers are filled in per call (see _fill).
Plan = namedtuple("Plan", "structure bucket steps levels")

# What eliminating a planned step reads in one call: the plain factors (a
# restricted hybrid's component too, its constant in base_const) and their
# rows, the hybrid ones and the keys the step's clique spans.
_Fill = namedtuple("_Fill", "plains rows hybrids base_const keys")

# What a later call may reuse of a clique without mode keys, under its
# variable: its separator variables, the inputs of its QR (the plain
# factors of its fill and its children's separators, in order) and the
# conditional and separator it gave.
_Reusable = namedtuple("_Reusable",
                       "parents plains children conditional separator")


def _step(var, scope: set, children: Sequence[int], steps: Sequence[_Step],
          dims: Mapping[Any, int]) -> _Step:
    """Eliminating `var` from factors over the variables `scope` (which
    this consumes) and the separators of steps[c] for c in children."""
    for c in children:
        scope.update(steps[c].separator)
    if var not in scope:
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r}")
    scope.discard(var)
    separator = tuple(sorted(scope))
    return _Step(var, children, separator, dims[var],
                 *_layout(var, separator, dims))


def _fill_step(factors: Sequence[ContinuousFactor], children: Sequence[int],
               fills: Sequence[_Fill]) -> _Fill:
    """The _Fill of a step whose bucket holds `factors` and whose children's
    fills are fills[c]."""
    keys, plains, rows, hybrids, base_const = [], [], 0, [], 0.0
    for f in factors:
        if type(f) is not JacobianFactor:
            if f.keys:
                keys += f.keys
                hybrids.append((f.keys, f.components.leaves, None))
                continue
            f, c = f.components.leaves[()]
            base_const += c
        plains.append(f)
        rows += f.rhs.shape[0]
    for c in children:
        keys += fills[c].keys
    return _Fill(plains, rows, hybrids, base_const,
                 _merge_keys((), keys) if keys else ())


def _structure(g: HybridFactorGraph):
    """What a plan of g depends on: its continuous and hybrid factors, the
    first component of each (see _first_component), the multiset of their
    variable tuples with the variables' dimensions, and the discrete ids."""
    factors = g.continuous_factors + g.hybrid_factors
    firsts = [_first_component(f) for f in factors]
    dims = _dims(firsts)
    disc = [k.id for k in g._discrete_keys(dims)]
    scopes: Dict[Tuple[Any, ...], int] = {}
    for f in firsts:
        scopes[f.variables] = scopes.get(f.variables, 0) + 1
    return factors, firsts, (scopes, dims), disc


def _bucketed(bucket: Dict[Tuple[Any, ...], int],
              factors: Sequence[ContinuousFactor],
              firsts: Sequence[JacobianFactor], size: int,
              position: Optional[Mapping[Any, int]] = None
              ) -> List[List[ContinuousFactor]]:
    """Per position, the factors of its bucket in graph order: a factor's
    position is bucket[its variable tuple], put there when the tuple is new
    (a plan being made) as the first of its variables' `position`s.  A
    factor without variables is a constant and goes nowhere."""
    held: List[List[ContinuousFactor]] = [[] for _ in range(size)]
    for f, first in zip(factors, firsts):
        ids = first.variables
        if ids:
            i = bucket.get(ids)
            if i is None:
                i = bucket[ids] = min(map(position.__getitem__, ids))
            held[i].append(f)
    return held


def _plan(ordering: Sequence[Any], structure, disc: Sequence[Any],
          factors: Sequence[ContinuousFactor],
          firsts: Sequence[JacobianFactor]
          ) -> Tuple[Plan, List[List[ContinuousFactor]]]:
    """The symbolic elimination of a graph of this structure and discrete
    ids under `ordering`: a factor or a separator waits in the bucket of
    its first variable.  Also returns the graph's `factors` by bucket (see
    _bucketed), placed in the same pass."""
    _, dims = structure
    named = set(ordering)
    if named != set(dims) | set(disc):
        raise ValueError("ordering must cover exactly the graph's variables")
    if len(named) != len(ordering):
        raise ValueError("ordering contains duplicates")
    first = next((i for i, v in enumerate(ordering) if v not in dims), len(ordering))
    late = [v for v in ordering[first:] if v in dims]
    if late:
        raise ValueError(f"not a strong ordering: continuous variable {late[0]!r} "
                         "after a discrete one")
    position = {vid: i for i, vid in enumerate(ordering[:first])}
    bucket: Dict[Tuple[Any, ...], int] = {}
    held = _bucketed(bucket, factors, firsts, len(position), position)
    buckets: List[set] = [set() for _ in position]
    for ids, i in bucket.items():
        buckets[i].update(ids)
    steps: List[_Step] = []
    children: List[List[int]] = [[] for _ in position]
    level = [0] * len(position)
    for i, var in enumerate(ordering[:first]):
        steps.append(_step(var, buckets[i], children[i], steps, dims))
        if steps[i].separator:
            t = min(map(position.__getitem__, steps[i].separator))
            children[t].append(i)
            level[t] = max(level[t], level[i] + 1)
    levels: List[List[int]] = [[] for _ in range(max(level, default=-1) + 1)]
    for i, lv in enumerate(level):
        levels[lv].append(i)
    return Plan(structure, bucket, steps, levels), held


def _fill(plan: Plan, held: Sequence[Sequence[ContinuousFactor]],
          discrete_factors, tail: Sequence[Any]):
    """Per planned step its _Fill, from its bucket's factors held[i], and
    per discrete id of `tail`, in that order, its graph factors and the
    positions whose boundary factors wait there."""
    fills: List[_Fill] = []
    for step, factors in zip(plan.steps, held):
        fills.append(_fill_step(factors, step.children, fills))
    at = {vid: t for t, vid in enumerate(tail)}
    waiting: List[Tuple[List[Any], List[int]]] = [([], []) for _ in tail]
    for f in discrete_factors:
        if f.keys:
            waiting[min(at[k.id] for k in f.keys)][0].append(f)
    for i, (step, fill) in enumerate(zip(plan.steps, fills)):
        if not step.separator and fill.keys:
            waiting[min(at[k.id] for k in fill.keys)][1].append(i)
    return fills, waiting


# A separator with keys waiting in sum_product: per mode cell, None or its
# rows' (eliminate_stacked output, system, constant), and the columns of
# those rows (see gaussian._layout); without keys: (output, system, columns).
_HybridSeparator = namedtuple("_HybridSeparator", "keys leaves cols")


def _blocks(cols, rows: np.ndarray):
    """A separator's marginal rows (..., rows, n+1) with column ranges
    `cols`, as gaussian._put's blocks and rhs."""
    return [(vid, rows[..., a:b]) for vid, a, b in cols], rows[..., -1]


class _Clique:
    """The numeric elimination of a planned step and its fill, given the
    finished separators by position and the live-row projectors (see
    _live_masks) of the graph's zero-holding discrete factors: the row
    layouts of its systems, one or one per live mode cell, then, once
    _eliminate_independent has run them, the conditional and separator."""

    def __init__(self, step: _Step, fill: _Fill, separators: Sequence[Any],
                 rules: Sequence[Callable[[Sequence[DiscreteKey]], np.ndarray]]):
        self.step, self.fill = step, fill
        # Rows after the plain factors: separators without keys, hybrid
        # factors, separators with keys.  Per input: its first row, its
        # blocks and rhs (see gaussian._put), one system's or stacked per
        # system.
        r, inputs, hybrids = fill.rows, [], list(fill.hybrids)
        for s in map(separators.__getitem__, step.children):
            if type(s) is _HybridSeparator:
                hybrids.append(s)
            else:
                out, p, cols = s
                inputs.append((r, *_blocks(cols, out.T[p])))
                r += out.T.shape[1]
        # Per layout: (rows, inputs, its cells' indices: live cells in flat
        # order, 0 without keys); once run, (output, its first system).
        keys = fill.keys
        if not keys:
            # base_const is mode-independent here and cancels in any posterior.
            self.layouts, self.results = [(r, inputs, [0])], [None]
            return
        self.shape = tuple(k.cardinality for k in keys)
        check_enumeration(self.shape)
        # Live cells: those where every hybrid input has a component and
        # that agree with a live row of every zero-holding discrete factor.
        # The joint is the product of those factors, so a cell dropped by
        # the second rule has probability 0.  Where it would drop every
        # cell, the joint is 0 everywhere: the clique keeps its cells so
        # that sum_product raises as the oracle does.
        live = np.ones(self.shape, dtype=bool)
        for f_keys, leaves, _ in hybrids:
            live &= _expand(np.not_equal(leaves, None), f_keys, keys)
        allowed = live
        for mask in rules:
            allowed = allowed & mask(keys)
        if allowed.any():
            live = allowed
        cells = np.nonzero(live)
        pos = {k.id: i for i, k in enumerate(keys)}
        # Per hybrid input: its columns (None: a factor) and its cells' leaves.
        picked = [(cols, leaves[tuple(cells[pos[k.id]] for k in f_keys)])
                  for f_keys, leaves, cols in hybrids]
        c_in = np.full(len(cells[0]), fill.base_const)
        for _, leaves in picked:
            c_in += [leaf[-1] for leaf in leaves]
        self.c_in = c_in.tolist()
        self.flat = np.ravel_multi_index(cells, self.shape).tolist()
        # Cells whose hybrid inputs have the same row counts share a layout.
        layouts: Dict[Tuple[int, ...], List[int]] = {}
        for i, cell_rows in enumerate(zip(*[
                [leaf[0].rows if cols is None else leaf[0].T.shape[1] for leaf in leaves]
                for cols, leaves in picked])):
            layouts.setdefault(cell_rows, []).append(i)
        self.layouts = []
        for cell_rows, members in layouts.items():
            per_cell = []
            for r0, (cols, leaves) in zip(accumulate(cell_rows, initial=r), picked):
                if cols is None:    # a hybrid factor's components
                    fs = [leaves[i][0] for i in members]
                    per_cell.append((r0, [(vid, np.array([f.blocks[vid] for f in fs]))
                                          for vid in fs[0].blocks],
                                     np.array([f.rhs for f in fs])))
                else:
                    per_cell.append((r0, *_blocks(cols, np.array(
                        [leaves[i][0].T[leaves[i][1]] for i in members]))))
            self.layouts.append((r + sum(cell_rows), inputs + per_cell, members))
        self.results = [None] * len(self.layouts)

    def finish(self):
        """(conditional, separator): (output, system, columns), a
        _HybridSeparator, a DiscreteFactor (boundary), or None (a
        mode-independent constant)."""
        step = self.step
        var, separator, cols = step.var, step.separator, step.cols
        keys = self.fill.keys
        if not keys:
            if self.results[0] is None or not self.results[0][0].live[self.results[0][1]]:
                m = self.layouts[0][0]
                raise UnderconstrainedVariable(
                    f"underconstrained variable: {var!r} has {m} rows, "
                    f"needs {step.dv}" if m < step.dv else
                    f"underconstrained variable: {var!r} is rank deficient")
            # Without a separator the marginal is a pure residual: a
            # mode-independent constant, nothing downstream.
            out, p = self.results[0]
            return (GaussianConditional._own(var, out.rows, p, cols, out.log_norms[p], separator),
                    (out, p, cols) if separator else None)
        cond_leaves = np.full(math.prod(self.shape), None)
        leaves = np.full(cond_leaves.size, None if separator else math.inf)  # or bound
        cell = None     # the last live cell: None while no cell is live
        for (_, _, members), result in zip(self.layouts, self.results):
            # No result: fewer rows than var needs; not live: rank deficient.
            out, j = result or (None, 0)
            for p, i in enumerate(members if result else (), j):
                if not out.live[p]:
                    continue
                cell = self.flat[i]
                cond_leaves[cell] = GaussianConditional._own(
                    var, out.rows, p, cols, out.log_norms[p], separator)
                c_out = self.c_in[i] - out.log_norms[p]
                if separator:
                    leaves[cell] = (out, p, c_out)
                else:
                    r = -out.T[p][:, -1]
                    leaves[cell] = 0.5 * float(r @ r) + c_out
        if cell is None:
            raise UnderconstrainedVariable(
                f"variable unconstrained in every mode: {var!r}")
        # The keys are in id order and every live leaf eliminates var onto
        # the separator, so the trees need no copy and no rescan.
        conditional = HybridGaussianConditional._own(
            DecisionTree._own(keys, cond_leaves.reshape(self.shape)), (var,),
            separator)
        if separator:
            return conditional, _HybridSeparator(keys, leaves.reshape(self.shape), cols)
        return conditional, discrete_factor_from_leaves(
            DecisionTree._own(keys, leaves.reshape(self.shape)))


def _eliminate_independent(cliques: Sequence[_Clique]) -> None:
    """Run the QRs of cliques none of which feeds another: their systems,
    grouped by shape (rows, columns, the variable's dimension), fill one
    (K, m, n+1) array per group, by slices (gaussian._put), for one
    eliminate_stacked call, whose ValueError on non-finite entries this
    raises.  A group with fewer rows than the variable needs runs none."""
    groups: Dict[Tuple[int, int, int], List[Tuple[_Clique, int]]] = {}
    for c in cliques:
        for li, layout in enumerate(c.layouts):
            groups.setdefault((layout[0], c.step.width, c.step.dv), []).append((c, li))
    for (m, width, dv), parts in groups.items():
        if m < dv:
            continue
        M = np.zeros((sum(len(c.layouts[li][2]) for c, li in parts), m, width))
        heads: List[Any] = []
        for c, li in parts:
            _, inputs, members = c.layouts[li]
            j, k, offsets = len(heads), len(members), c.step.offsets
            # Rows: the plain factors and the separators without keys, the
            # same in every system, then per hybrid input one cell's rows
            # per system.
            S = M[j:j + k]
            r = 0
            for f in c.fill.plains:
                r = _put(S, r, f.blocks.items(), f.rhs, offsets)
            for r, blocks, rhs in inputs:
                _put(S, r, blocks, rhs, offsets)
            c.results[li] = j
            heads += [(c.step.var, c.step.cols)] * k
        out = eliminate_stacked(M, dv, heads)
        for c, li in parts:
            c.results[li] = (out, c.results[li])


def _wavefront(steps: Sequence[_Step], fills: Sequence[_Fill],
               rules: Sequence[Callable[[Sequence[DiscreteKey]], np.ndarray]],
               levels: Sequence[Sequence[int]],
               reusable: Mapping[Any, _Reusable]
               ) -> Tuple[List[Any], List[Any], Dict[Any, _Reusable]]:
    """Eliminate the planned steps a level at a time: each level's cliques
    read the separators of earlier levels by position, and their QRs run
    together (see _eliminate_independent).  A step without mode keys whose
    variable `reusable` holds with its separator and the same QR inputs
    (plain factors compare by identity) takes that clique's conditional
    and separator, which a QR of the same rows would give bit for bit.
    Returns the conditionals and separators by position (see
    _Clique.finish) and the _Reusable of every step without mode keys."""
    conditionals, separators = [None] * len(steps), [None] * len(steps)
    kept: Dict[Any, _Reusable] = {}
    for level in levels:
        fresh, keyless = [], []
        for i in level:
            step, fill = steps[i], fills[i]
            if fill.keys:
                fresh.append(i)
                continue
            children = [separators[c] for c in step.children]
            old = reusable.get(step.var)
            if old is not None and old.parents == step.separator \
                    and old.plains == fill.plains \
                    and len(old.children) == len(children) \
                    and all(map(operator.is_, old.children, children)):
                kept[step.var] = old
                conditionals[i], separators[i] = old.conditional, old.separator
            else:
                fresh.append(i)
                keyless.append((i, children))
        cliques = [_Clique(steps[i], fills[i], separators, rules) for i in fresh]
        _eliminate_independent(cliques)
        for i, c in zip(fresh, cliques):
            conditionals[i], separators[i] = c.finish()
        for i, children in keyless:
            kept[steps[i].var] = _Reusable(steps[i].separator, fills[i].plains,
                                           children, conditionals[i],
                                           separators[i])
    return conditionals, separators, kept


def eliminate_hybrid_sum(factors: Sequence[ContinuousFactor], var):
    """Sum-Product elimination of a continuous variable; see module docs.

    Returns (conditional, separator) where the separator is a
    JacobianFactor, HybridGaussianFactor, DiscreteFactor (boundary), or None
    when it carries no content beyond a mode-independent constant."""
    factors = list(factors)
    firsts = [_first_component(f) for f in factors]
    step = _step(var, {v for f in firsts for v in f.variables}, (), (),
                 _dims(firsts))
    (conditional,), (sep,), _ = _wavefront(
        [step], [_fill_step(factors, (), ())], (), [[0]], {})
    if type(sep) is tuple:
        return conditional, _marginal(sep[0].T[sep[1]], step.cols, step.separator)
    if type(sep) is not _HybridSeparator:
        return conditional, sep
    return conditional, HybridGaussianFactor(sep.keys, DecisionTree(sep.keys, [
        leaf and (_marginal(leaf[0].T[leaf[1]], step.cols, step.separator), leaf[2])
        for leaf in sep.leaves.flat]))


def sum_product(g: HybridFactorGraph, ordering: Optional[Sequence[Any]] = None,
                previous: Optional[HybridBayesNet] = None) -> HybridBayesNet:
    """Eliminate the whole graph into a hybrid Bayes net for P(X, M | Z):
    the continuous conditionals p(X | M, Z), and P(M | Z) as one table, the
    product of the discrete factors left after continuous elimination
    divided by its sum (over no keys, the empty product [1.0]).  A product
    that is 0 everywhere raises ValueError, as the oracle does.

    The symbolic elimination is planned once (see _plan) and kept as the
    net's `plan`.  Given an earlier net, `previous`, and no ordering, its
    plan is reused when g's continuous and hybrid factors have the
    multiset of variable tuples and the dimensions it was planned for (the
    mode keys and discrete factors may differ); the ordering, which for
    strong_ordering depends on that adjacency alone, is then the plan's.
    The wavefront (see _wavefront) then eliminates one level of the
    elimination tree at a time, batching the QRs of its buckets by shape,
    and a finished separator waits by position until its parent reads it.
    A clique without mode keys whose variable, separator, plain factors
    and children's separators are those of one of previous's (the same
    objects, in order) takes that clique's conditional and separator
    instead of a QR; the net keeps its own such cliques as `cliques`.
    For a given ordering the net is a one-at-a-time bucket loop's bit for
    bit.  Where the wavefront fails, the same steps run again one position
    per level, in the ordering's order, so the error raised is that of the
    first failing variable in the ordering, as the bucket loop raises it.
    """
    factors, firsts, structure, disc = _structure(g)
    plan = None if previous is None else previous.plan
    if ordering is not None or plan is None or plan.structure != structure:
        if ordering is None:
            ordering = strong_ordering(g)
        plan, held = _plan(ordering, structure, disc, factors, firsts)
        disc = ordering[len(plan.steps):]   # in the ordering's order
    else:
        held = _bucketed(plan.bucket, factors, firsts, len(plan.steps))
    steps = plan.steps
    fills, tail = _fill(plan, held, g.discrete_factors, disc)
    rules = [_live_masks(f.potentials) for f in g.discrete_factors
             if f.keys and not f.potentials.leaves.all()]
    reusable = {} if previous is None else previous.cliques
    try:
        conditionals, separators, cliques = _wavefront(
            steps, fills, rules, plan.levels, reusable)
    except ValueError:
        conditionals = None
    if conditionals is None:
        # Outside the handler, so the replay's error has no __context__.
        conditionals, separators, cliques = _wavefront(
            steps, fills, rules, [[i] for i in range(len(steps))], reusable)
    product = multiply_factors([f for factors, kids in tail for f in factors
                                + [separators[c] for c in kids]]).potentials
    total = float(product.leaves.sum())
    if not total > 0.0:
        raise ValueError("all discrete assignments are impossible")
    return HybridBayesNet(conditionals,
                          DecisionTree(product.keys, product.leaves / total), plan,
                          cliques)


def _components(bn: HybridBayesNet, modes: Mapping[Any, int]) -> List[Any]:
    """The net's conditionals at the mode assignment `modes`: each hybrid
    one replaced by its component there, None where it has none."""
    return [c.component(modes) if isinstance(c, HybridGaussianConditional)
            else c for c in bn.conditionals]


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
    # np.argwhere, unlike np.nonzero, takes the 0-d table of a net without
    # modes: its one row is the empty assignment.
    for idx in np.argwhere(joint.leaves).tolist():
        a = dict(zip([k.id for k in joint.keys], idx))
        score = math.log(joint.leaves[tuple(idx)])
        for c in hybrids:
            leaf = c.component(a)
            score -= math.inf if leaf is None else leaf.log_normalizer
        candidates.append(a)
        scores.append(score)
    modes = candidates[first_best(scores)]
    chosen = _components(bn, modes)
    if any(c is None for c in chosen):
        raise RuntimeError("MAP assignment selects a pruned component")
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
    """Keep only the top-P joint discrete hypotheses: the same conditionals,
    plan and reusable cliques over prune_to_top(joint, P) divided by its
    sum, or the net itself when it has at most P live hypotheses.

    The joint is the one record of which hypotheses live: every reader of
    a net takes the modes from its nonzero rows, and sum_product leaves a
    component nil only where the joint is 0, so at every surviving
    hypothesis each hybrid conditional has a live component.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    joint = bn.discrete_joint()
    pruned = prune_to_top(joint, P)
    if np.array_equal(pruned.leaves, joint.leaves):
        return bn
    return HybridBayesNet(bn.conditionals, DecisionTree(
        pruned.keys, pruned.leaves / pruned.leaves.sum()), bn.plan, bn.cliques)


def hypothesis_support(bn: HybridBayesNet) -> DecisionTree:
    """0/1 indicator over the net's discrete keys marking live hypotheses."""
    joint = bn.discrete_joint()
    return DecisionTree(joint.keys, (np.asarray(joint.leaves) > 0).astype(float))


def discrete_marginals(bn: HybridBayesNet) -> Dict[Any, np.ndarray]:
    """Per-key marginal probabilities implied by the net's discrete part,
    summed over the live hypotheses that one scan of its table finds."""
    joint = bn.discrete_joint()
    if not joint.keys:      # np.nonzero refuses the 0-d table
        return {}
    rows = np.nonzero(joint.leaves)
    probs = joint.leaves[rows]
    return {k.id: np.bincount(values, probs, k.cardinality)
            for k, values in zip(joint.keys, rows)}


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
    p = float(bn.discrete_joint().leaf(v.discrete))
    if p <= 0.0:
        return 0.0
    chosen = _components(bn, v.discrete)
    if any(c is None for c in chosen):
        return 0.0
    total = math.log(p)
    for c in chosen:
        total += c.log_density(v.continuous)
    return math.exp(total)


def bn_sample(bn: HybridBayesNet, seed) -> HybridValues:
    """Ancestral sampling: the modes as one row of the joint table, drawn
    with its probability (a table over no keys takes no draw), then the
    continuous conditionals in reverse elimination order (roots first)."""
    rng = np.random.default_rng(seed)
    modes: Dict[Any, int] = {}
    joint = bn.discrete_joint()
    if joint.keys:
        row = rng.choice(joint.leaves.size, p=joint.leaves.reshape(-1))
        modes = {k.id: int(v) for k, v in
                 zip(joint.keys, np.unravel_index(row, joint.leaves.shape))}
    chosen = _components(bn, modes)
    if any(c is None for c in chosen):
        raise RuntimeError("sampled a pruned component; net is inconsistent")
    values = {}
    for c in reversed(chosen):
        values[c.frontal] = c.sample(values, rng)
    return HybridValues(continuous=values, discrete=modes)
