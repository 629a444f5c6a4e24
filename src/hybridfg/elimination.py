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
from itertools import accumulate, chain, compress, repeat
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
    """Continuous variables first, by multiple minimum degree (see _mmd)
    over the graph that joins the variables of each factor, then discrete
    variables in id order."""
    adj = _adjacency([f.variables for f in g.continuous_factors]
                     + [f.continuous_ids for f in g.hybrid_factors])
    # adj's keys are the continuous variables.
    disc = [k.id for k in g._discrete_keys(adj)]
    if not adj and not disc:
        raise ValueError("graph is empty")
    return _mmd(adj, {}) + sorted(disc)


def _adjacency(scopes: Sequence[Sequence[Any]]) -> Dict[Any, set]:
    """Per variable of the tuples `scopes`, the others it shares one with."""
    adj: Dict[Any, set] = {}
    for vs in scopes:
        for a in vs:
            adj.setdefault(a, set()).update(v for v in vs if v != a)
    return adj


def _mmd(adj: Dict[Any, set], floors: Mapping[Any, int]) -> List[Any]:
    """An elimination order of the variables of `adj` (consumed) by
    multiple minimum degree (Liu, ACM TOMS 1985).  Each round takes the
    variables of degree at most max(d_min, 2), d_min the current minimum
    degree, in (degree, id) order and eliminates every one that no
    variable eliminated earlier in the round is adjacent to, so one round
    adds an independent set to the ordering and the elimination tree stays
    short.  Letting degree 2 join a round of degree 0 or 1 (Liu's delta)
    adds at most one fill edge per such variable, and lets the interior of
    a path go in the round its end goes: the elimination tree of a path of
    2^k variables has k + 1 levels, not 2^(k-1) + 1.

    A variable with a floor joins the rounds at round floor - base, base
    the smallest floor (0 when some variable has none), so that a variable
    a tall subtree feeds goes no earlier than the rounds that subtree's
    height asks of it (see _plan)."""
    base = min(floors.values()) if floors and len(floors) == len(adj) else 0
    pending: Dict[int, List[Any]] = {}
    for v, floor in floors.items():
        if floor > base:
            pending.setdefault(floor - base, []).append(v)
    waiting = {v for vs in pending.values() for v in vs}
    # adj keeps only uneliminated neighbours, so len(adj[u]) is u's degree;
    # heap entries of eliminated variables or outdated degrees are skipped.
    heap = [(len(neighbors), v) for v, neighbors in adj.items()
            if v not in waiting]
    heapq.heapify(heap)
    order: List[Any] = []
    r = 0
    while heap or pending:
        if pending:
            if not heap:
                r = min(pending)
            for v in pending.pop(r, ()):
                waiting.discard(v)
                heapq.heappush(heap, (len(adj[v]), v))
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
        # Neighbours of the round's variables that have joined wait for the
        # next round, at their new degrees.
        for a in touched:
            if a not in waiting:
                heapq.heappush(heap, (len(adj[a]), a))
        r += 1
    return order


def _first_component(f) -> JacobianFactor:
    """f, or a hybrid f's first live component (all share variables and dims)."""
    if type(f) is HybridGaussianFactor:
        return next(leaf for leaf in f.components.leaves.flat if leaf is not None)[0]
    if type(f) is not JacobianFactor:
        raise TypeError("continuous elimination takes Jacobian/hybrid factors")
    return f


def _variables(f) -> Tuple[Any, ...]:
    """The variable tuple of a Jacobian or hybrid factor."""
    return f.variables if type(f) is JacobianFactor else f.continuous_ids


# A planned step: eliminating `var`, which the separators of the steps of
# the variables `children` reach, onto `separator` (the other variables,
# sorted), with the columns of gaussian._layout, and `level`, 1 + the
# largest level of its children (0 without).
_Step = namedtuple("_Step", "var children separator dv cols offsets width level")

# The symbolic elimination of a graph's continuous variables: per variable
# its _Step, in the ordering's order; per variable tuple of the factors the
# variable whose bucket takes them; every variable's dimension; the
# number of steps at each level; and per variable its rank, larger for a
# later step.  The mode keys, the discrete factors and the factors'
# numbers are filled in per call (see _fill).
Plan = namedtuple("Plan", "steps bucket dims levels rank")

# What eliminating a planned step reads in one call: the plain factors (a
# restricted hybrid's component too, its constant in base_const) and their
# rows, the hybrid ones and the keys the step's clique spans.
_Fill = namedtuple("_Fill", "plains rows hybrids base_const keys")

# What a later call takes over from a net (see sum_product): the
# continuous and hybrid factors it eliminated, each with its place in
# graph order; per variable the factors of its bucket, in graph order;
# the separators of its steps without mode keys, and the variables of the
# steps with them.
_Cliques = namedtuple("_Cliques", "index held separators keyed")

_NO_PLAN = Plan({}, {}, {}, [], {})
_NO_CLIQUES = _Cliques({}, {}, {}, frozenset())


def _step(var, scope: set, children: Sequence[Any],
          steps: Mapping[Any, _Step], dims: Mapping[Any, int]) -> _Step:
    """Eliminating `var` from factors over the variables `scope` (which
    this consumes) and the separators of steps[c] for c in children."""
    level = 0
    for c in children:
        child = steps[c]
        scope.update(child.separator)
        if child.level >= level:
            level = child.level + 1
    if var not in scope:
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r}")
    scope.discard(var)
    separator = tuple(sorted(scope))
    return _Step(var, tuple(children), separator, dims[var],
                 *_layout(var, separator, dims), level)


def _fill_step(factors: Sequence[ContinuousFactor], children: Sequence[Any],
               fills: Mapping[Any, _Fill]) -> _Fill:
    """The _Fill of a step whose bucket holds `factors` and whose children
    have the fills in `fills` (a child without one has no mode keys)."""
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
        if c in fills:
            keys += fills[c].keys
    return _Fill(plains, rows, hybrids, base_const,
                 _merge_keys((), keys) if keys else ())


def _plan(g: HybridFactorGraph, factors: Sequence[ContinuousFactor],
          plan: Plan, cliques: _Cliques, ordering: Optional[Sequence[Any]]):
    """The plan of g's continuous and hybrid `factors`, extending `plan`,
    which an earlier call made for the factors of `cliques`.

    A factor that is not one of cliques' objects is new; one of cliques'
    objects that g lacks is gone.  A variable tuple that a new factor
    brings is added, one whose last factor is gone is removed.  The top is
    every step whose variable lies in an added or removed tuple, and all
    its ancestors.  Every other step keeps its _Step (its subtree and the
    factors of its buckets are the same), its bucket and its level; the
    top alone is ordered, planned and eliminated again.  Its ordering is
    `ordering`'s continuous part when given (plan is then empty), else
    _mmd over the top's own factors and the separators of the kept
    subtrees hanging from it (the graph that eliminating the kept steps
    leaves), where a top variable's floor is 1 + the level of the deepest
    kept subtree whose separator holds it.  The ordering is the kept steps
    in their order, then the top: each of the top's buckets takes its
    tuples by the new order, and each step's children are in the
    ordering's order, so the plan is the one this ordering gives afresh.
    Factors in another order than cliques' (or a variable of another
    dimension) plan the whole graph afresh.

    Returns the plan, the _Cliques of g's factors with the separators of
    the kept steps (keyed is left to the caller), the variables to
    eliminate in the ordering's order (the top, and every step closed
    upward whose bucket gained or lost a factor or that had mode keys),
    and the discrete ids in the ordering's order."""
    index = dict(zip(factors, range(len(factors))))
    was = list(map(cliques.index.get, factors)) if cliques.index else []
    old = list(compress(was, map(operator.is_not, was, repeat(None))))
    if any(map(operator.gt, old, old[1:])):
        return _plan(g, factors, _NO_PLAN, _NO_CLIQUES, ordering)
    steps, bucket, dims, rank = plan.steps, plan.bucket, plan.dims, plan.rank
    # New factors by bucket, or by tuple where the tuple is new, and the
    # dimensions of new variables.
    changed: Dict[Any, List[ContinuousFactor]] = {}
    added: Dict[Tuple[Any, ...], List[ContinuousFactor]] = {}
    extra: Dict[Any, int] = {}
    for f in compress(factors, map(operator.is_, was, repeat(None))) if was \
            else factors:
        first = _first_component(f)
        for vid, A in first.blocks.items():
            d = dims.get(vid)
            if d is None:
                d = extra.setdefault(vid, A.shape[1])
            if d != A.shape[1]:
                if plan is _NO_PLAN:
                    raise ValueError(f"inconsistent dimension for {vid!r}")
                return _plan(g, factors, _NO_PLAN, _NO_CLIQUES, ordering)
        if not first.variables:     # a constant: it goes nowhere
            continue
        b = bucket.get(first.variables)
        if b is None:
            added.setdefault(first.variables, []).append(f)
        else:
            changed.setdefault(b, []).append(f)
    if len(old) < len(cliques.index):
        for f in cliques.index:
            if f not in index and _variables(f):
                changed.setdefault(bucket[_variables(f)], [])
    # The changed buckets' factors, in graph order, and the tuples that
    # lost their last factor.
    held = dict(cliques.held)
    removed = set()
    for b, news in changed.items():
        before = held.get(b, ())
        fs = [f for f in before if f in index] + news
        fs.sort(key=index.__getitem__)
        held[b] = fs
        if len(fs) < len(before) + len(news):
            removed.update(set(map(_variables, before)).difference(
                map(_variables, fs)))
    top = set()
    for vs in chain(added, removed):
        for v in vs:
            while v in steps and v not in top:
                top.add(v)
                separator = steps[v].separator
                if not separator:
                    break
                v = min(separator, key=rank.__getitem__)
    separators = dict(cliques.separators)
    order: List[Any] = []
    if top or added or ordering is not None:
        roots = sorted((c for t in top for c in steps[t].children if c not in top),
                       key=rank.__getitem__)
        # The top's factors by variable tuple, each in graph order.
        factors_of: Dict[Tuple[Any, ...], List[ContinuousFactor]] = {}
        for v in top:
            for f in held.pop(v, ()):
                factors_of.setdefault(_variables(f), []).append(f)
        factors_of.update(added)
        if ordering is None:
            adj = _adjacency(list(factors_of)
                             + [steps[r].separator for r in roots])
            if extra or not top.issubset(adj):
                dims = {v: d for v, d in chain(dims.items(), extra.items())
                        if v in adj or v not in top}
            floors: Dict[Any, int] = {}
            for r in roots:
                for v in steps[r].separator:
                    floors[v] = max(floors.get(v, 0), steps[r].level + 1)
            order = _mmd(adj, floors)
            disc = [k.id for k in g._discrete_keys(dims)]
        else:   # plan is empty
            dims = extra
            disc = _checked(ordering, dims, g)
            order = list(ordering[:len(ordering) - len(disc)])
        position = {v: i for i, v in enumerate(order)}
        bucket = dict(bucket)
        for t in removed:
            del bucket[t]
        scope: Dict[Any, set] = {v: set() for v in order}
        for t, fs in factors_of.items():
            b = bucket[t] = min(t, key=position.__getitem__)
            scope[b].update(t)
            held.setdefault(b, []).extend(fs)
        children: Dict[Any, List[Any]] = {v: [] for v in order}
        for r in roots:
            children[min(steps[r].separator, key=position.__getitem__)].append(r)
        levels = list(plan.levels)
        for v in top:
            levels[steps[v].level] -= 1
        start = rank[next(reversed(steps))] + 1 if steps else 0
        steps, rank = dict(steps), dict(rank)
        for v in top:
            del steps[v], rank[v]
            separators.pop(v, None)
        for i, v in enumerate(order):
            s = steps[v] = _step(v, scope[v], children[v], steps, dims)
            rank[v] = start + i
            if v in held:
                held[v].sort(key=index.__getitem__)
            if s.separator:
                children[min(s.separator, key=position.__getitem__)].append(v)
            if s.level < len(levels):
                levels[s.level] += 1
            else:
                levels.append(1)
        while levels and not levels[-1]:
            levels.pop()
        plan = Plan(steps, bucket, dims, levels, rank)
    else:
        disc = [k.id for k in g._discrete_keys(dims)]
    # Kept steps to eliminate again, closed upward until the top.
    visited = set(order)
    again = []
    for v in chain(changed, cliques.keyed):
        while v in steps and v not in visited:
            visited.add(v)
            again.append(v)
            separator = steps[v].separator
            if not separator:
                break
            v = min(separator, key=rank.__getitem__)
    again.sort(key=rank.__getitem__)
    return plan, _Cliques(index, held, separators, None), again + order, disc


def _checked(ordering: Sequence[Any], dims: Mapping[Any, int],
             g: HybridFactorGraph) -> List[Any]:
    """The discrete part of an explicit ordering, which must name each of
    g's variables once, the continuous ones (those of `dims`) first."""
    disc = [k.id for k in g._discrete_keys(dims)]
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
    return list(ordering[first:])


def _fill(steps: Mapping[Any, _Step], held: Mapping[Any, Sequence[ContinuousFactor]],
          visited: Sequence[Any], discrete_factors, tail: Sequence[Any]):
    """Per step of `visited` (in the ordering's order) its _Fill, from its
    bucket's factors held[var], and per discrete id of `tail`, in that
    order, its graph factors and the variables whose boundary factors wait
    there."""
    fills: Dict[Any, _Fill] = {}
    for v in visited:
        fills[v] = _fill_step(held.get(v, ()), steps[v].children, fills)
    at = {vid: t for t, vid in enumerate(tail)}
    waiting: List[Tuple[List[Any], List[Any]]] = [([], []) for _ in tail]
    for f in discrete_factors:
        if f.keys:
            waiting[min(at[k.id] for k in f.keys)][0].append(f)
    for v, fill in fills.items():
        if fill.keys and not steps[v].separator:
            waiting[min(at[k.id] for k in fill.keys)][1].append(v)
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


def _wavefront(steps: Mapping[Any, _Step], fills: Mapping[Any, _Fill],
               rules: Sequence[Callable[[Sequence[DiscreteKey]], np.ndarray]],
               levels: Sequence[Sequence[Any]], separators: Dict[Any, Any]
               ) -> Dict[Any, Any]:
    """Eliminate the steps of the variables in `levels` a level at a time:
    each level's cliques read their children's separators by variable from
    `separators`, where theirs go too, and their QRs run together (see
    _eliminate_independent).  Returns the conditionals by variable (see
    _Clique.finish)."""
    conditionals: Dict[Any, Any] = {}
    for level in levels:
        cliques = [_Clique(steps[v], fills[v], separators, rules) for v in level]
        _eliminate_independent(cliques)
        for v, c in zip(level, cliques):
            conditionals[v], separators[v] = c.finish()
    return conditionals


def eliminate_hybrid_sum(factors: Sequence[ContinuousFactor], var):
    """Sum-Product elimination of a continuous variable; see module docs.

    Returns (conditional, separator) where the separator is a
    JacobianFactor, HybridGaussianFactor, DiscreteFactor (boundary), or None
    when it carries no content beyond a mode-independent constant."""
    factors = list(factors)
    firsts = [_first_component(f) for f in factors]
    step = _step(var, {v for f in firsts for v in f.variables}, (), {},
                 _dims(firsts))
    separators: Dict[Any, Any] = {}
    conditional = _wavefront({var: step}, {var: _fill_step(factors, (), {})},
                             (), [[var]], separators)[var]
    sep = separators[var]
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

    The symbolic elimination (see _plan) is the net's `plan`.  Without an
    earlier net, `previous`, it is planned afresh under `ordering`, by
    default strong_ordering's.  Given previous and no ordering, its plan
    is extended: only the top of the elimination tree that g's added and
    removed variable tuples touch is ordered and planned again, and
    without such tuples the plan is previous's own.  The wavefront (see
    _wavefront) then eliminates one level of the elimination tree at a
    time, batching the QRs of its buckets by shape, and a finished
    separator waits by variable until its parent reads it.  It visits only
    the top and the kept steps, closed upward, that have mode keys or
    whose bucket gained or lost a factor (plain factors compare by
    identity); every other step takes previous's conditional and
    separator, which the same QR would give bit for bit.  The net keeps
    what a later call takes over as `cliques`.  For the ordering of its
    plan (its steps', then the discrete ids) the net is a one-at-a-time
    bucket loop's bit for bit.  Where the wavefront fails, the same steps
    run again one per level, in the ordering's order, so the error raised
    is that of the first failing variable in the ordering, as the bucket
    loop raises it.
    """
    factors = g.continuous_factors + g.hybrid_factors
    if ordering is None and previous is not None and previous.cliques is not None:
        plan, cliques = previous.plan, previous.cliques
        conditionals = dict(zip(plan.steps, previous.conditionals))
    else:
        plan, cliques, conditionals = _NO_PLAN, _NO_CLIQUES, {}
        if ordering is None:
            ordering = strong_ordering(g)
    plan, cliques, visited, disc = _plan(g, factors, plan, cliques, ordering)
    steps, separators = plan.steps, cliques.separators
    fills, tail = _fill(steps, cliques.held, visited, g.discrete_factors, disc)
    rules = [_live_masks(f.potentials) for f in g.discrete_factors
             if f.keys and not f.potentials.leaves.all()]
    waves: Dict[int, List[Any]] = {}
    for v in visited:
        waves.setdefault(steps[v].level, []).append(v)
    try:
        fresh = _wavefront(steps, fills, rules,
                           [waves[level] for level in sorted(waves)], separators)
    except ValueError:
        fresh = None
    if fresh is None:
        # Outside the handler, so the replay's error has no __context__.
        fresh = _wavefront(steps, fills, rules, [[v] for v in visited],
                           separators)
    product = multiply_factors([f for factors, kids in tail for f in factors
                                + [separators[c] for c in kids]]).potentials
    total = float(product.leaves.sum())
    if not total > 0.0:
        raise ValueError("all discrete assignments are impossible")
    keyed = frozenset(v for v, fill in fills.items() if fill.keys)
    for v in keyed:
        del separators[v]
    conditionals.update(fresh)
    return HybridBayesNet._own(
        list(map(conditionals.__getitem__, steps)),
        DecisionTree(product.keys, product.leaves / total), plan,
        cliques._replace(keyed=keyed))


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
    return HybridBayesNet._own(bn.conditionals, DecisionTree(
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
