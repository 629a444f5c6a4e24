import math

import numpy as np
import pytest

from hybridfg import (DecisionTree, DiscreteFactor, DiscreteKey,
                      GaussianConditional, HybridBayesNet, HybridFactorGraph,
                      HybridGaussianConditional, HybridGaussianFactor,
                      HybridValues, JacobianFactor,
                      bn_evaluate, bn_map, bn_sample, dead_mode_removal,
                      discrete_marginals, eliminate_hybrid_sum, eliminate_one,
                      enumerate_assignments,
                      log_normalization_constant, max_product,
                      prune_bayes_net, strong_ordering, sum_product, whiten)
from hybridfg.discrete import _expand, _merge_keys, prune_to_top
from hybridfg.gaussian import UnderconstrainedVariable
from hybridfg.hybrid import discrete_factor_from_leaves
from hybridfg.elimination import _live_masks, hypothesis_support
from hybridfg.oracle import enumerate_map, enumerate_posterior

from hybridfg import elimination, slam_cli
from hybridfg.dataset import square_loop_dataset, write_dataset

from helpers import (copy_net, hypothesis_chain_graph, mixture_graph,
                     output_differences, plan_ordering, random_hybrid_graph,
                     reference_back_substitute,
                     reference_eliminate_one, reference_sum_product, same_bits,
                     same_conditional, same_marginal, same_net)

MIXTURE_P0 = 1.0 / (1.0 + math.exp(-2.0))


def _joint(bn):
    return np.asarray(bn.discrete_joint().leaves)


class TestStrongOrdering:
    def test_simple_hybrid_chain(self):
        """Two continuous states with one switching link: both continuous
        variables come before the mode."""
        m = DiscreteKey("m1", 2)
        g = HybridFactorGraph()
        g.add(whiten({"x0": [[1.0]]}, [0.0], 1.0))
        g.add(HybridGaussianFactor.from_components([m], [
            (whiten({"x0": [[-1.0]], "x1": [[1.0]]}, [1.0], 1.0), 0.0),
            (whiten({"x0": [[-1.0]], "x1": [[1.0]]}, [2.0], 1.0), 0.0),
        ]))
        order = strong_ordering(g)
        assert set(order[:2]) == {"x0", "x1"}
        assert order[2] == "m1"

    def test_all_discrete_in_id_order(self):
        g = HybridFactorGraph()
        g.add(DiscreteFactor([DiscreteKey("b", 2)], [1.0, 2.0]))
        g.add(DiscreteFactor([DiscreteKey("a", 2)], [1.0, 2.0]))
        assert strong_ordering(g) == ["a", "b"]

    def test_continuous_always_precede_discrete(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            g = random_hybrid_graph(rng, int(rng.integers(1, 5)),
                                    int(rng.integers(0, 4)))
            order = strong_ordering(g)
            cont = set(g.continuous_variables())
            seen_disc = False
            for vid in order:
                if vid in cont:
                    assert not seen_disc
                else:
                    seen_disc = True

    def test_path_plans_logarithmic_levels(self):
        """A path of 2^k scalar variables with a prior on one end: its
        degree-2 interior joins each round its ends go in, so every round
        halves the path and the plan has k + 1 levels (one end per round
        would take 2^(k-1) + 1)."""
        for k in range(7):
            g = HybridFactorGraph()
            g.add(JacobianFactor({0: [[1.0]]}, [0.0]))
            for i in range(2 ** k - 1):
                g.add(JacobianFactor({i: [[-1.0]], i + 1: [[1.0]]}, [1.0]))
            assert len(sum_product(g).plan.levels) == k + 1, k

    def test_hybrid_path_still_continuous_first(self):
        """A path of 8 variables whose links are all two-mode: the same
        4 levels, and every mode after every continuous variable."""
        g = hypothesis_chain_graph(np.random.default_rng(3), n_keys=7)
        order = strong_ordering(g)
        assert sorted(order[:8]) == [f"x{i}" for i in range(8)]
        assert order[8:] == [f"m{i}" for i in range(7)]
        assert len(sum_product(g, order).plan.levels) == 4


def _mmd_reference(g):
    """Reference: multiple minimum degree as a plain loop.  Each round takes
    the remaining variables of degree at most max(minimum degree, 2) in
    (degree, id) order and eliminates each one that no variable eliminated
    earlier in the round touches."""
    cont = g.continuous_variables()
    adj = {v: set() for v in cont}
    for vs in [f.variables for f in g.continuous_factors] \
            + [f.continuous_ids for f in g.hybrid_factors]:
        for a in vs:
            adj[a].update(v for v in vs if v != a)
    order = []
    while adj:
        degree = min(len(n) for n in adj.values())
        touched = set()
        for v in sorted((u for u in adj if len(adj[u]) <= max(degree, 2)),
                        key=lambda u: (len(adj[u]), u)):
            if v in touched:
                continue
            order.append(v)
            neighbors = adj.pop(v)
            for a in neighbors:
                adj[a] = (adj[a] | neighbors) - {a, v}
            touched |= neighbors
    return order + sorted(k.id for k in g.discrete_keys())


def _random_structure_graph(rng, ids):
    """Random factors over `ids`: plain and hybrid, few and many variables,
    so degrees tie often and elimination fills in."""
    g = HybridFactorGraph()
    for _ in range(int(rng.integers(1, 2 * len(ids) + 2))):
        vs = rng.choice(len(ids), size=int(rng.integers(1, min(4, len(ids)) + 1)),
                        replace=False)
        jf = JacobianFactor({ids[i]: [[1.0]] for i in vs}, [0.0])
        if rng.random() < 0.3:
            key = DiscreteKey(("m", int(rng.integers(0, 3))), 2)
            g.add(HybridGaussianFactor.from_components([key], [(jf, 0.0), (jf, 0.5)]))
        else:
            g.add(jf)
    if rng.random() < 0.3:
        g.add(DiscreteFactor([DiscreteKey(("m", 9), 2)], [1.0, 2.0]))
    for v in ids:      # every id is a variable of the graph
        g.add(JacobianFactor({v: [[1.0]]}, [0.0]))
    return g


class TestHeapOrdering:
    def test_matches_plain_loop_mmd(self):
        """The heap returns exactly the plain loop's multiple-minimum-degree
        ordering on random graphs with int ids and with tuple ids like the
        SLAM runner's."""
        rng = np.random.default_rng(12)
        for trial in range(200):
            n = int(rng.integers(1, 16))
            ids = list(range(n)) if trial % 2 else [("x", k) for k in range(n)]
            g = _random_structure_graph(rng, ids)
            assert strong_ordering(g) == _mmd_reference(g), trial

    def test_ties_break_by_id(self):
        """A star: every leaf has degree 1 and no leaf touches another, so
        one round takes all the leaves in id order, then the centre."""
        g = HybridFactorGraph()
        for leaf in (5, 3, 9, 1):
            g.add(JacobianFactor({0: [[1.0]], leaf: [[1.0]]}, [0.0]))
        assert strong_ordering(g) == [1, 3, 5, 9, 0]


def _walk_reference(factors, var, eliminate=eliminate_one):
    """Reference: eliminate_hybrid_sum's former walk over every cell of the
    clique's mode grid with np.ndindex, one leaf lookup per hybrid per cell
    and one `eliminate` per live cell.  Returns the clique keys and, per
    cell in flat order, "nil" (a hybrid has no component), "rank" (x
    underconstrained) or (conditional, marginal, separator constant)."""
    plains = [f for f in factors if isinstance(f, JacobianFactor)]
    hybrids = [f for f in factors if isinstance(f, HybridGaussianFactor)]
    keys = ()
    for f in hybrids:
        keys = _merge_keys(keys, f.keys)
    key_pos = {k.id: i for i, k in enumerate(keys)}
    cells = []
    for idx in np.ndindex(tuple(k.cardinality for k in keys)):
        stack, c_in, dead = list(plains), 0.0, False
        for f in hybrids:
            leaf = f.components.leaves[tuple(idx[key_pos[k.id]] for k in f.keys)]
            if leaf is None:
                dead = True
                break
            stack.append(leaf[0])
            c_in += leaf[1]
        if dead:
            cells.append("nil")
            continue
        try:
            conditional, marginal = eliminate(stack, var)
        except UnderconstrainedVariable:
            cells.append("rank")
            continue
        cells.append((conditional, marginal, c_in - conditional.log_normalizer))
    return keys, cells


def _random_clique(rng):
    """Factors on "x" from a random clique: 1-3 hybrids over shared keys of
    cardinality 2-3, nil leaves, and rank-deficient modes whose x block is
    zero; with no plain prior on x such a mode leaves x underconstrained."""
    pool = [DiscreteKey(f"m{j}", int(rng.integers(2, 4))) for j in range(3)]
    dx = int(rng.integers(1, 3))
    with_y = rng.random() < 0.6
    factors = []
    if rng.random() < 0.3:
        factors.append(JacobianFactor({"x": rng.normal(size=(dx, dx))},
                                      rng.normal(size=dx)))
    for _ in range(int(rng.integers(1, 4))):
        picks = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
        keys = [pool[i] for i in sorted(picks)]
        variables = ["x", "y"] if with_y and rng.random() < 0.7 else ["x"]
        n = math.prod(k.cardinality for k in keys)
        leaves = []
        for _ in range(n):
            if rng.random() < 0.25:
                leaves.append(None)
                continue
            blocks = {v: rng.normal(size=(dx + 1, dx if v == "x" else 1))
                      for v in variables}
            if rng.random() < 0.2:
                blocks["x"] = np.zeros((dx + 1, dx))
            leaves.append((JacobianFactor(blocks, rng.normal(size=dx + 1)),
                           float(rng.normal())))
        if all(leaf is None for leaf in leaves):
            leaves[int(rng.integers(n))] = (
                JacobianFactor({v: np.eye(dx + 1, dx if v == "x" else 1)
                                for v in variables}, np.ones(dx + 1)), 0.0)
        factors.append(HybridGaussianFactor.from_components(keys, leaves))
    return factors


def _mixed_layout_clique(rng):
    """Factors on "x" whose hybrid components differ in row count, so one
    clique holds several layouts: 1-3 hybrids over shared binary or ternary
    keys, nil leaves, zero x blocks (rank-deficient cells), and components
    with fewer rows than x's dimension."""
    pool = [DiscreteKey(f"m{j}", int(rng.integers(2, 4))) for j in range(3)]
    dx = int(rng.integers(1, 3))
    factors = []
    if rng.random() < 0.3:
        factors.append(JacobianFactor({"x": rng.normal(size=(1, dx)),
                                       "z": rng.normal(size=(1, 1))},
                                      rng.normal(size=1)))
    for _ in range(int(rng.integers(1, 4))):
        picks = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
        keys = [pool[i] for i in sorted(picks)]
        variables = [v for v in ("x", "y", "z") if v == "x" or rng.random() < 0.5]
        n = math.prod(k.cardinality for k in keys)
        leaves = []
        for _ in range(n):
            if rng.random() < 0.2:
                leaves.append(None)
                continue
            rows = int(rng.integers(1, dx + 3))
            blocks = {v: rng.normal(size=(rows, dx if v == "x" else 1))
                      for v in variables}
            if rng.random() < 0.15:
                blocks["x"] = np.zeros((rows, dx))
            leaves.append((JacobianFactor(blocks, rng.normal(size=rows)),
                           float(rng.normal())))
        if all(leaf is None for leaf in leaves):
            leaves[0] = (JacobianFactor({v: np.eye(dx + 1, dx if v == "x" else 1)
                                         for v in variables}, np.ones(dx + 1)), 0.0)
        factors.append(HybridGaussianFactor.from_components(keys, leaves))
    return factors


def _layouts(factors, var):
    """Row counts of the hybrids' components over the clique's live cells,
    each with the row count m of its stacked systems, counting only layouts
    with at least as many rows as `var` has columns: a batched elimination
    runs one QR per distinct m.  Every hybrid holds `var`."""
    plains = [f for f in factors if isinstance(f, JacobianFactor)]
    hybrids = [f for f in factors if isinstance(f, HybridGaussianFactor)]
    keys = ()
    for f in hybrids:
        keys = _merge_keys(keys, f.keys)
    pos = {k.id: i for i, k in enumerate(keys)}
    dv = next(leaf[0].dim(var) for leaf in hybrids[0].components.leaves.flat
              if leaf is not None)
    out = set()
    for idx in np.ndindex(tuple(k.cardinality for k in keys)):
        leaves = [f.components.leaves[tuple(idx[pos[k.id]] for k in f.keys)]
                  for f in hybrids]
        if all(leaf is not None for leaf in leaves):
            rows = tuple(leaf[0].rows for leaf in leaves)
            m = sum(rows) + sum(f.rows for f in plains)
            if m >= dv:
                out.add((rows, m))
    return out


def _same_conditional(a, b):
    return (np.array_equal(a.R, b.R) and np.array_equal(a.d, b.d)
            and a.parent_blocks.keys() == b.parent_blocks.keys()
            and all(np.array_equal(a.parent_blocks[v], b.parent_blocks[v])
                    for v in a.parent_blocks)
            and a.log_normalizer == b.log_normalizer)


def _same_jacobian(a, b):
    return (a.blocks.keys() == b.blocks.keys() and np.array_equal(a.rhs, b.rhs)
            and all(np.array_equal(a.blocks[v], b.blocks[v]) for v in a.blocks))


def _nil_by_support_reference(tree, support):
    """Reference: the former nil rule of prune_bayes_net, a max-marginal of
    the 0/1 support onto the keys it shares with the tree, then a leaf kept
    where that max is positive."""
    keep = {k.id for k in tree.keys}
    axes = tuple(i for i, k in enumerate(support.keys) if k.id not in keep)
    vals = np.asarray(support.leaves, dtype=float)
    if axes:
        vals = vals.max(axis=axes)
    alive = DecisionTree(tuple(k for k in support.keys if k.id in keep), vals)
    return DecisionTree(tree.keys, [
        leaf if alive.leaf(a) > 0 else None
        for a, leaf in zip(enumerate_assignments(tree.keys), tree.leaves.flat)])


class TestLiveCells:
    def test_elimination_matches_grid_walk(self):
        """Bitwise the same conditionals, separators, constants and nil
        positions as the dense walk, on 300 random cliques."""
        rng = np.random.default_rng(21)
        seen = {"nil": 0, "rank": 0, "boundary": 0, "all dead": 0}
        for trial in range(300):
            factors = _random_clique(rng)
            keys, ref = _walk_reference(factors, "x")
            for cell in ref:
                if isinstance(cell, str):
                    seen[cell] += 1
            ref = [cell if isinstance(cell, tuple) else None for cell in ref]
            if all(cell is None for cell in ref):
                seen["all dead"] += 1
                with pytest.raises(UnderconstrainedVariable):
                    eliminate_hybrid_sum(factors, "x")
                continue
            cond, sep = eliminate_hybrid_sum(factors, "x")
            assert cond.keys == keys, trial
            conds = cond.components.leaves.reshape(-1)
            for leaf, cell in zip(conds, ref):
                assert (leaf is None) == (cell is None), trial
                if cell is not None:
                    assert _same_conditional(leaf, cell[0]), trial
            if isinstance(sep, DiscreteFactor):
                seen["boundary"] += 1
                bound = [None if cell is None else cell[1].error({}) + cell[2]
                         for cell in ref]
                want = discrete_factor_from_leaves(DecisionTree(keys, bound))
                assert sep.keys == keys, trial
                assert np.array_equal(sep.potentials.leaves,
                                      want.potentials.leaves), trial
            else:
                assert sep.keys == keys, trial
                for leaf, cell in zip(sep.components.leaves.reshape(-1), ref):
                    assert (leaf is None) == (cell is None), trial
                    if cell is not None:
                        assert _same_jacobian(leaf[0], cell[1]), trial
                        assert leaf[1] == cell[2], trial
        assert all(seen.values()), seen

    def test_layout_groups_match_per_cell_reference(self, monkeypatch):
        """Cliques whose components differ in row count are eliminated in
        one QR per shape of their stacked systems (layouts with the same
        total row count share one), and every cell keeps the bits of the
        reference's per-cell elimination: conditional, marginal, constant,
        nil positions and boundary potentials."""
        calls = []
        real_qr = np.linalg.qr

        def counting_qr(M, mode):
            calls.append(M.shape)
            return real_qr(M, mode=mode)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        rng = np.random.default_rng(24)
        seen = {"nil": 0, "rank": 0, "boundary": 0, "all dead": 0,
                "several layouts": 0, "layouts sharing a shape": 0}
        for trial in range(300):
            factors = _mixed_layout_clique(rng)
            keys, ref = _walk_reference(factors, "x", reference_eliminate_one)
            for cell in ref:
                if isinstance(cell, str):
                    seen[cell] += 1
            layouts = _layouts(factors, "x")
            shapes = {m for _, m in layouts}
            seen["several layouts"] += len(layouts) > 1
            seen["layouts sharing a shape"] += len(layouts) > len(shapes)
            calls.clear()
            if all(isinstance(cell, str) for cell in ref):
                seen["all dead"] += 1
                with pytest.raises(UnderconstrainedVariable,
                                   match="unconstrained in every mode"):
                    eliminate_hybrid_sum(factors, "x")
                assert len(calls) == len(shapes), trial
                continue
            cond, sep = eliminate_hybrid_sum(factors, "x")
            assert len(calls) == len(shapes), trial
            ref = [cell if isinstance(cell, tuple) else None for cell in ref]
            assert cond.keys == sep.keys == keys, trial
            for leaf, cell in zip(cond.components.leaves.reshape(-1), ref):
                assert (leaf is None) == (cell is None), trial
                if cell is not None:
                    assert same_conditional(leaf, cell[0]), trial
            if isinstance(sep, DiscreteFactor):
                seen["boundary"] += 1
                bound = [None if cell is None else cell[1].error({}) + cell[2]
                         for cell in ref]
                want = discrete_factor_from_leaves(DecisionTree(keys, bound))
                assert same_bits(sep.potentials.leaves,
                                 want.potentials.leaves), trial
                continue
            for leaf, cell in zip(sep.components.leaves.reshape(-1), ref):
                assert (leaf is None) == (cell is None), trial
                if cell is not None:
                    assert same_marginal(leaf[0], cell[1]), trial
                    assert same_bits(leaf[1], cell[2]), trial
        assert all(seen.values()), seen

    def test_live_masks_match_dense_projection(self):
        """The masks projected from the live rows equal, in shape, dtype
        and every cell, the dense projection they replace (an `any` over
        the support keys a factor lacks), on 200 random supports: some miss
        keys of a factor, some hold keys it lacks, some have no live
        hypothesis, and some factors share no key with the support."""

        def reference(support, keys):
            ids = {k.id for k in keys}
            live = support.leaves > 0
            lacked = tuple(i for i, k in enumerate(support.keys)
                           if k.id not in ids)
            if lacked:
                live = live.any(axis=lacked)
            return _expand(live, [k for k in support.keys if k.id in ids], keys)

        rng = np.random.default_rng(25)
        pool = [DiscreteKey(f"m{j}", int(rng.integers(2, 4))) for j in range(5)]
        seen = {"lacking": 0, "missing": 0, "no live": 0, "disjoint": 0}
        for trial in range(200):
            skeys = [pool[i] for i in sorted(rng.choice(
                5, size=int(rng.integers(1, 5)), replace=False))]
            vals = rng.random(math.prod(k.cardinality for k in skeys)) < 0.3
            if trial % 10 == 0:
                vals[:] = False
            support = DecisionTree(skeys, vals.astype(float))
            live_mask = _live_masks(support)
            sids = {k.id for k in skeys}
            for _ in range(3):
                keys = [pool[i] for i in sorted(rng.choice(
                    5, size=int(rng.integers(0, 4)), replace=False))]
                fids = {k.id for k in keys}
                seen["lacking"] += bool(sids - fids)
                seen["missing"] += bool(fids - sids)
                seen["no live"] += not vals.any()
                seen["disjoint"] += sids.isdisjoint(fids)
                got, want = live_mask(keys), reference(support, keys)
                assert got.dtype == want.dtype == bool, trial
                assert got.shape == want.shape, trial
                assert np.array_equal(got, want), trial
        assert all(seen.values()), seen

class TestEliminateHybridSum:
    def test_single_mode_equals_pure_gaussian(self):
        prior = whiten({"x": [[1.0]]}, [0.5], 1.0)
        link = whiten({"x": [[-1.0]], "y": [[1.0]]}, [1.0], 2.0)
        m = DiscreteKey("m", 1)
        hybrid = HybridGaussianFactor.from_components(
            [m], [(link, log_normalization_constant(2.0))])
        cond_h, sep_h = eliminate_hybrid_sum([prior, hybrid], "x")
        cond_p, sep_p = eliminate_one([prior, link], "x")
        leaf = cond_h.component({"m": 0})
        np.testing.assert_allclose(leaf.R, cond_p.R, atol=1e-12)
        np.testing.assert_allclose(leaf.d, cond_p.d, atol=1e-12)
        jf, _ = sep_h.component({"m": 0})
        np.testing.assert_allclose(jf.blocks["y"], sep_p.blocks["y"], atol=1e-12)

    def test_boundary_discrete_factor_worked_value(self):
        """Eliminating the only continuous variable from the mixture leaves
        the closed-form mode posterior as a discrete factor."""
        g, m = mixture_graph()
        cond, sep = eliminate_hybrid_sum(
            g.continuous_factors + g.hybrid_factors, "x")
        assert isinstance(sep, DiscreteFactor)
        pots = np.asarray(sep.potentials.leaves, dtype=float)
        pots = pots / pots.sum()
        assert pots[0] == pytest.approx(MIXTURE_P0, abs=1e-12)

    def test_boundary_sign_pinned_by_integral_identity(self):
        """The boundary potential ratio must equal the ratio of the actual
        per-mode integrals of psi^m over the eliminated variable, which pins
        the sign of the normalizer term without transcribing it."""
        g, m = mixture_graph()
        factors = g.continuous_factors + g.hybrid_factors
        _, sep = eliminate_hybrid_sum(factors, "x")
        pots = np.asarray(sep.potentials.leaves, dtype=float)
        integrals = []
        xs = np.linspace(-12.0, 12.0, 1 << 15)
        for mode in range(2):
            err = np.zeros_like(xs)
            for f in g.continuous_factors:
                err += 0.5 * (f.blocks["x"][0, 0] * xs - f.rhs[0]) ** 2
            jf, c = g.hybrid_factors[0].component({"m": mode})
            err += 0.5 * (jf.blocks["x"][0, 0] * xs - jf.rhs[0]) ** 2 + c
            integrals.append(np.trapezoid(np.exp(-err), xs))
        assert pots[1] / pots[0] == pytest.approx(integrals[1] / integrals[0],
                                                  rel=1e-6)

    def test_symmetric_modes_uniform_boundary(self):
        m = DiscreteKey("m", 2)
        comp = (whiten({"x": [[1.0]]}, [0.7], 1.0), 0.1)
        f = HybridGaussianFactor.from_components([m], [comp, comp])
        _, sep = eliminate_hybrid_sum([f], "x")
        np.testing.assert_allclose(sep.potentials.leaves, [1.0, 1.0], atol=1e-15)

    def test_rank_deficient_mode_goes_nil(self):
        m = DiscreteKey("m", 2)
        f = HybridGaussianFactor.from_components([m], [
            (whiten({"x": [[1.0]], "y": [[1.0]]}, [0.0], 1.0), 0.0),
            (JacobianFactor({"x": [[0.0]], "y": [[1.0]]}, [0.0]), 0.0),
        ])
        cond, sep = eliminate_hybrid_sum([f], "x")
        assert cond.component({"m": 1}) is None
        assert sep.component({"m": 1}) is None

    def test_all_modes_dead_raises(self):
        m = DiscreteKey("m", 2)
        f = HybridGaussianFactor.from_components([m], [
            (JacobianFactor({"x": [[0.0]], "y": [[1.0]]}, [0.0]), 0.0),
            (JacobianFactor({"x": [[0.0]], "y": [[1.0]]}, [0.0]), 0.0),
        ])
        with pytest.raises(ValueError, match="unconstrained in every mode"):
            eliminate_hybrid_sum([f], "x")

    def test_all_modes_dead_across_layouts_raises(self, monkeypatch):
        """Rank deficient in every cell of two layouts: one QR per layout,
        then the clique is refused."""
        m = DiscreteKey("m", 3)
        f = HybridGaussianFactor.from_components([m], [
            (JacobianFactor({"x": [[0.0]], "y": [[1.0]]}, [0.0]), 0.0),
            (JacobianFactor({"x": [[0.0], [0.0]], "y": [[1.0], [2.0]]},
                            [0.0, 1.0]), 0.0),
            (JacobianFactor({"x": [[0.0]], "y": [[3.0]]}, [1.0]), 0.0),
        ])
        shapes = []
        real_qr = np.linalg.qr

        def counting_qr(M, mode):
            shapes.append(M.shape)
            return real_qr(M, mode=mode)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        with pytest.raises(ValueError, match="unconstrained in every mode"):
            eliminate_hybrid_sum([f], "x")
        assert sorted(shapes) == [(1, 2, 3), (2, 1, 3)]

    def test_plain_factors_with_separator_match_reference(self):
        """Factors without mode keys, one of them a hybrid factor over no
        keys, eliminated onto a separator: the conditional and the marginal
        JacobianFactor keep the bits of the per-stack reference."""
        rng = np.random.default_rng(44)
        dims = {"x": 1, "y": 2, "z": 1}
        for trial in range(50):
            dims["x"] = int(rng.integers(1, 3))
            factors = [JacobianFactor(
                {v: rng.normal(size=(rows, dims[v])) for v in vs},
                rng.normal(size=rows))
                for vs, rows in [(("x",), dims["x"]), (("x", "y"), 2),
                                 (("x", "z"), 1)][:int(rng.integers(2, 4))]]
            hybrid = HybridGaussianFactor.from_components([], [(factors[-1], 0.5)])
            want = reference_eliminate_one(factors, "x")
            for inputs in (factors, factors[:-1] + [hybrid]):
                cond, sep = eliminate_hybrid_sum(inputs, "x")
                assert isinstance(sep, JacobianFactor), trial
                assert same_conditional(cond, want[0]), trial
                assert same_marginal(sep, want[1]), trial

    def test_too_many_modes_refused_before_any_qr(self, monkeypatch):
        """21 binary modes on one variable exceed the enumeration cap: the
        clique fails at once instead of running a QR per mode."""
        factors = [HybridGaussianFactor.from_components(
            [DiscreteKey(f"m{i:02d}", 2)],
            [(whiten({"x": [[1.0]]}, [float(v)], 1.0), 0.0) for v in (0, 1)])
            for i in range(21)]

        def no_qr(*args, **kwargs):
            raise AssertionError("per-mode QR started")
        monkeypatch.setattr(np.linalg, "qr", no_qr)
        with pytest.raises(ValueError, match="enumeration too large"):
            eliminate_hybrid_sum(factors, "x")


class TestSumProduct:
    def test_two_state_chain_shape(self):
        """p(x0 | x1, m1) p(x1 | m1) P(m1): the switching-link graph
        eliminates into exactly this conditional structure."""
        m = DiscreteKey("m1", 2)
        g = HybridFactorGraph()
        g.add(whiten({"x0": [[1.0]]}, [0.0], 1.0))
        g.add(whiten({"x0": [[1.0]]}, [0.1], 1.0))
        g.add(HybridGaussianFactor.from_components([m], [
            (whiten({"x0": [[-1.0]], "x1": [[1.0]]}, [1.0], 1.0),
             log_normalization_constant(1.0)),
            (whiten({"x0": [[-1.0]], "x1": [[1.0]]}, [2.0], 4.0),
             log_normalization_constant(4.0)),
        ]))
        g.add(whiten({"x1": [[1.0]]}, [1.2], 1.0))
        bn = sum_product(g, ["x0", "x1", "m1"])
        assert isinstance(bn.conditionals[0], HybridGaussianConditional)
        assert bn.conditionals[0].frontals == ("x0",)
        assert bn.conditionals[0].parents == ("x1",)
        assert isinstance(bn.conditionals[1], HybridGaussianConditional)
        assert bn.conditionals[1].frontals == ("x1",)
        assert bn.conditionals[1].parents == ()
        assert len(bn.conditionals) == 2
        assert bn.discrete_joint().keys == (m,)

    def test_zero_evidence_raises_like_oracle(self):
        """With every hypothesis at probability 0 there is no posterior:
        elimination raises the oracle's error instead of a uniform joint."""
        m = DiscreteKey("m", 2)
        g = HybridFactorGraph().add(DiscreteFactor([m], [0.0, 0.0]))
        for query in (enumerate_posterior, enumerate_map, sum_product,
                      max_product):
            with pytest.raises(ValueError, match="all discrete assignments "
                                                 "are impossible"):
                query(g)

    def test_tiny_priors_match_oracle(self):
        """40 priors [1e-10, 2e-10] multiply to 1e-400 * [1, 2**40], below
        the smallest double, yet the posterior is the oracle's."""
        m = DiscreteKey("m", 2)
        g = HybridFactorGraph()
        g.add(HybridGaussianFactor.from_components([m], [
            (whiten({"x": [[1.0]]}, [z], 1.0), 0.0) for z in (0.0, 1.0)]))
        for _ in range(40):
            g.add(DiscreteFactor([m], [1e-10, 2e-10]))
        probs, _ = enumerate_posterior(g)
        np.testing.assert_allclose(_joint(sum_product(g)), probs.leaves,
                                   rtol=0.0, atol=1e-9)

    def test_pure_continuous_matches_gaussian_pipeline(self):
        rng = np.random.default_rng(0)
        g = HybridFactorGraph()
        g.add(whiten({"x0": [[1.0]]}, [rng.normal()], 1.0))
        g.add(whiten({"x0": [[-1.0]], "x1": [[1.0]]}, [rng.normal()], 0.5))
        bn = sum_product(g)
        assert all(isinstance(c, GaussianConditional) for c in bn)
        factors = list(g.continuous_factors)
        c0, marg = eliminate_one(factors, "x0")
        np.testing.assert_allclose(bn.conditionals[0].R, c0.R, atol=1e-12)
        c1, _ = eliminate_one([marg], "x1")
        np.testing.assert_allclose(bn.conditionals[1].R, c1.R, atol=1e-12)

    def test_matches_oracle_on_random_graphs(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            g = random_hybrid_graph(rng, int(rng.integers(1, 7)),
                                    int(rng.integers(1, 6)),
                                    two_var_hybrids=True)
            probs, _ = enumerate_posterior(g)
            bn = sum_product(g)
            np.testing.assert_allclose(_joint(bn), np.asarray(probs.leaves),
                                       atol=1e-9)

    def test_posterior_factorization_constant_ratio(self):
        """bn_evaluate is the normalized product of factor potentials: the
        ratio to exp(-total error) is value-independent."""
        rng = np.random.default_rng(1)
        g = random_hybrid_graph(rng, 3, 2)
        bn = sum_product(g)
        ratios = []
        for _ in range(100):
            v = HybridValues(
                continuous={f"x{i}": rng.normal(size=1) for i in range(3)},
                discrete={f"m{j}": int(rng.integers(2)) for j in range(2)})
            num = bn_evaluate(bn, v)
            err = sum(f.error(v.continuous) for f in g.continuous_factors)
            err += sum(f.error(v.continuous, v.discrete) for f in g.hybrid_factors)
            pot = math.exp(-err)
            for df in g.discrete_factors:
                pot *= df.value(v.discrete)
            ratios.append(num / pot)
        ratios = np.asarray(ratios)
        assert ratios.std() / ratios.mean() <= 1e-9

    def test_ordering_invariance(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            g = random_hybrid_graph(np.random.default_rng(seed), 4, 3)
            base = None
            cont = g.continuous_variables()
            disc = [k.id for k in g.discrete_keys()]
            for _ in range(5):
                order = list(rng.permutation(cont)) + list(rng.permutation(disc))
                joint = _joint(sum_product(g, order))
                if base is None:
                    base = joint
                else:
                    np.testing.assert_allclose(joint, base, atol=1e-8)

    def test_rejects_weak_ordering(self):
        g, m = mixture_graph()
        with pytest.raises(ValueError, match="strong ordering"):
            sum_product(g, ["m", "x"])

    def test_separator_leaf_counts_bounded(self):
        """Dense separators stay within the K^{W+1} budget: leaf count equals
        the product of separator key cardinalities; with a pruned support
        appended as a factor, nonzero components stay within P * K."""
        rng = np.random.default_rng(3)
        g = hypothesis_chain_graph(rng, n_keys=6)
        cont = g.continuous_variables()
        factors = g.all_factors()
        for vid in cont:
            involved = [f for f in factors
                        if (isinstance(f, JacobianFactor) and vid in f.blocks)
                        or (isinstance(f, HybridGaussianFactor)
                            and vid in f.continuous_ids)]
            rest = [f for f in factors if f not in involved]
            cond, sep = eliminate_hybrid_sum(involved, vid)
            if isinstance(sep, (HybridGaussianFactor,)):
                budget = int(np.prod([k.cardinality for k in sep.keys]))
                assert sep.components.num_leaves <= budget
            factors = rest + ([sep] if sep is not None else [])
        # Pruned support: P=4 survivors, then one new binary mode enters.
        bn = sum_product(g)
        bn_p = prune_bayes_net(bn, 4)
        support = hypothesis_support(bn_p)
        g.add(DiscreteFactor(support.keys, support))
        new_key = DiscreteKey("z9", 2)
        g.add(HybridGaussianFactor.from_components([new_key], [
            (whiten({"x0": [[1.0]]}, [0.0], 1.0), 0.0),
            (whiten({"x0": [[1.0]]}, [0.5], 1.0), 0.0),
        ]))
        bn2 = sum_product(g)
        assert int(np.count_nonzero(_joint(bn2))) <= 4 * new_key.cardinality


def _random_strong_ordering(rng, g):
    cont = list(g.continuous_variables())
    disc = [k.id for k in g.discrete_keys()]
    rng.shuffle(cont)
    rng.shuffle(disc)
    return cont + disc


def _outcome(fn, *args):
    """A net, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, TypeError) as e:
        return type(e), str(e)


def _slam_graph(num_poses, n_ambiguous, n_loops):
    entries, _, _ = square_loop_dataset(0, num_poses, n_ambiguous, n_loops)
    runner = slam_cli._Runner(slam_cli.RunConfig())
    for index, entry in enumerate(entries):
        runner.add_entry(entry, index)
    return runner.graph.linearize(runner.values)


def _fragile_graph(rng):
    """Plain and hybrid factors over 1-8 variables of dimension 1-2 with
    random coefficients; blocks are zero, factors have fewer rows than a
    variable's dimension and priors are missing often enough that
    elimination fails for some variables and orderings."""
    n = int(rng.integers(1, 9))
    dims = [int(rng.integers(1, 3)) for _ in range(n)]
    key = DiscreteKey("m", 2)

    def factor(vs):
        rows = int(rng.integers(1, 3))
        return JacobianFactor({v: rng.normal(size=(rows, dims[v]))
                               if rng.random() < 0.8 else np.zeros((rows, dims[v]))
                               for v in vs}, rng.normal(size=rows))
    g = HybridFactorGraph()
    for _ in range(int(rng.integers(1, 2 * n + 1))):
        vs = sorted(rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)),
                               replace=False).tolist())
        if rng.random() < 0.25:
            g.add(HybridGaussianFactor.from_components(
                [key], [(factor(vs), 0.0), (factor(vs), 0.5)]))
        else:
            g.add(factor(vs))
    for v in range(n):      # every id is a variable of the graph
        if rng.random() < 0.5 or not any(
                v in vs for vs in [f.variables for f in g.continuous_factors]
                + [f.continuous_ids for f in g.hybrid_factors]):
            g.add(factor([v]))
    return g


def _trusted(c) -> bool:
    """Whether a hybrid conditional built without checks (_own) has the
    attributes its checking constructor derives (which also requires a
    live component), over a read-only tree."""
    checked = HybridGaussianConditional(c.keys, c.components)
    return (not c.components.leaves.flags.writeable
            and (c.frontals, c.parents, c.keys)
            == (checked.frontals, checked.parents, checked.keys))


def _with_zero_factor(rng, g):
    """g plus a random 0/1 discrete factor, with at least one 1, over a
    random nonempty subset of g's keys and of up to two keys that no
    hybrid factor holds."""
    extra = [DiscreteKey(f"u{j}", int(rng.integers(2, 4)))
             for j in range(int(rng.integers(0, 3)))]
    pool = list(g.discrete_keys()) + extra
    keys = [pool[i] for i in rng.choice(len(pool), size=int(
        rng.integers(1, min(3, len(pool)) + 1)), replace=False)]
    size = math.prod(k.cardinality for k in keys)
    table = (rng.random(size) < 0.5).astype(float)
    table[int(rng.integers(size))] = 1.0
    g.add(DiscreteFactor(keys, table))
    return g, keys, table


def _count_qr_systems(monkeypatch):
    """Systems per np.linalg.qr call, appended as they run."""
    calls = []
    real_qr = np.linalg.qr

    def counting_qr(M, mode):
        calls.append(M.shape[0])
        return real_qr(M, mode=mode)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return calls


class TestWavefront:
    """sum_product eliminates one elimination-tree level at a time; for a
    given ordering its net must keep every bit of the one-at-a-time
    bucket loop's (helpers.reference_sum_product), and its errors must be
    those of the first failing variable in the ordering."""

    def test_random_graphs_match_sequential_reference(self):
        rng = np.random.default_rng(41)
        seen = {"hybrid": 0, "boundary": 0, "several levels": 0,
                "explicit ordering": 0}
        for trial in range(150):
            g = random_hybrid_graph(rng, int(rng.integers(1, 7)),
                                    int(rng.integers(0, 5)),
                                    two_var_hybrids=bool(trial % 2))
            for ordering in (strong_ordering(g), _random_strong_ordering(rng, g)):
                seen["explicit ordering"] += ordering != strong_ordering(g)
                bn = sum_product(g, ordering)
                assert same_net(bn, reference_sum_product(g, ordering)), trial
                hybrids = [c for c in bn.conditionals
                           if isinstance(c, HybridGaussianConditional)]
                seen["hybrid"] += bool(hybrids)
                # A hybrid conditional without parents sent a discrete
                # factor across the continuous-discrete boundary.
                seen["boundary"] += any(not c.parents for c in hybrids)
                seen["several levels"] += any(
                    c.parents for c in bn.conditionals)
                assert all(_trusted(c) for c in hybrids), trial
        assert all(seen.values()), seen

    def test_zero_holding_factors_bound_the_cells(self):
        """Random graphs with a random 0/1 factor, some of its keys held by
        no hybrid: cliques eliminate only the cells that agree with a live
        row of it, and under random strong orderings the net keeps the
        reference's bits, the joint the oracle's (C01's 1e-9) and the MAP
        the oracle's."""
        rng = np.random.default_rng(49)
        dropped = 0
        for trial in range(120):
            g, keys, table = _with_zero_factor(rng, random_hybrid_graph(
                rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)),
                two_var_hybrids=bool(trial % 2)))
            probs, _ = enumerate_posterior(g)
            want_map = enumerate_map(g)
            for ordering in (strong_ordering(g), _random_strong_ordering(rng, g)):
                bn = sum_product(g, ordering)
                assert same_net(bn, reference_sum_product(g, ordering)), trial
                np.testing.assert_allclose(_joint(bn), probs.leaves, rtol=0,
                                           atol=1e-9, err_msg=str(trial))
                got_map = bn_map(bn)
                assert got_map.discrete == want_map.discrete, trial
                for vid, vec in want_map.continuous.items():
                    np.testing.assert_allclose(got_map.continuous[vid], vec,
                                               rtol=0, atol=1e-9)
                assert all(_trusted(c) for c in bn.conditionals
                           if isinstance(c, HybridGaussianConditional)), trial
            # The same graph with the zeros raised keeps every cell.
            g.discrete_factors[-1] = DiscreteFactor(keys, table + 0.5)
            full = sum_product(g, ordering)
            live = [len(c.components.live_leaves()) for c in bn.conditionals
                    if isinstance(c, HybridGaussianConditional)]
            dropped += live != [len(c.components.live_leaves())
                                for c in full.conditionals
                                if isinstance(c, HybridGaussianConditional)]
        assert dropped > 20, dropped

    def test_support_over_two_hybrids_keeps_two_cells(self, monkeypatch):
        """x measured under m1 and under m2, with support {(0, 0), (1, 1)}:
        x's clique eliminates 2 cells, not 4, and the other two are nil."""
        m1, m2 = DiscreteKey("m1", 2), DiscreteKey("m2", 2)
        g = HybridFactorGraph()
        g.add(JacobianFactor({"x": [[1.0]]}, [0.0]))
        for k, means in ((m1, (0.0, 1.0)), (m2, (0.5, 2.0))):
            g.add(HybridGaussianFactor.from_components([k], [
                (whiten({"x": [[1.0]]}, [z], 1.0), 0.0) for z in means]))
        g.add(DiscreteFactor([m1, m2], [1.0, 0.0, 0.0, 1.0]))
        calls = _count_qr_systems(monkeypatch)
        bn = sum_product(g)
        assert calls == [2]
        (c,) = bn.conditionals
        assert len(c.components.live_leaves()) == 2 and _trusted(c)
        assert [leaf is None for leaf in c.components.leaves.flat] == \
            [False, True, True, False]
        probs, _ = enumerate_posterior(g)
        np.testing.assert_allclose(_joint(bn), probs.leaves, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("tables", [[[0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    def test_impossible_rules_raise_like_oracle(self, tables):
        """A zero-holding factor without a live row, or two whose live rows
        contradict: the rule would leave x's clique no cell, so the clique
        keeps its cells and the all-zero joint raises as the oracle does."""
        m = DiscreteKey("m", 2)
        g = HybridFactorGraph()
        g.add(JacobianFactor({"x": [[1.0]]}, [0.0]))
        g.add(HybridGaussianFactor.from_components([m], [
            (whiten({"x": [[1.0]]}, [z], 1.0), 0.0) for z in (0.0, 1.0)]))
        for table in tables:
            g.add(DiscreteFactor([m], table))
        message = "all discrete assignments are impossible"
        for fn in (sum_product, enumerate_posterior):
            with pytest.raises(ValueError, match=message):
                fn(g)
        assert _outcome(reference_sum_product, g, ["x", "m"]) == \
            (ValueError, message)

    def test_slam_linearizations_match_sequential_reference(self):
        """Pose graphs (3-D variables, tuple ids) under the MMD ordering and
        under id order, also with a pruned net's support appended and the
        hybrid factors' components outside it nil."""
        g = _slam_graph(65, 4, 2)
        support = hypothesis_support(prune_bayes_net(sum_product(g), 2))
        nil = HybridFactorGraph()
        nil.continuous_factors = list(g.continuous_factors)
        for hf in g.hybrid_factors:
            nil.add(HybridGaussianFactor(
                hf.keys, _nil_by_support_reference(hf.components, support)))
        nil.add(DiscreteFactor(support.keys, support))
        assert any(np.equal(hf.components.leaves, None).any()
                   for hf in nil.hybrid_factors)
        for graph in (g, nil):
            cont = sorted(graph.continuous_variables())
            disc = sorted(k.id for k in graph.discrete_keys())
            for ordering in (strong_ordering(graph), cont + disc):
                assert same_net(sum_product(graph, ordering),
                                reference_sum_product(graph, ordering))

    def test_failures_match_sequential_reference(self):
        """Random graphs whose zero blocks, missing priors and short factors
        leave variables underconstrained: the same net, or the same error
        type and message."""
        rng = np.random.default_rng(42)
        failed = 0
        for trial in range(200):
            g = _fragile_graph(rng)
            ordering = _random_strong_ordering(rng, g) if trial % 2 \
                else strong_ordering(g)
            got = _outcome(sum_product, g, ordering)
            want = _outcome(reference_sum_product, g, ordering)
            if isinstance(want, tuple):
                failed += 1
                assert got == want, trial
            else:
                assert same_net(got, want), trial
        assert 20 < failed < 180, failed

    def test_first_underconstrained_variable_in_ordering_raises(self):
        """q (second in the ordering, level 1: p's separator lands in its
        bucket) and r (third, level 0) are both underconstrained; the
        wavefront meets r first, but q's error is raised, as the
        one-at-a-time loop raises it."""
        g = HybridFactorGraph()
        g.add(JacobianFactor({"p": [[1.0]], "q": [[0.0]]}, [1.0]))
        g.add(JacobianFactor({"r": [[0.0]], "s": [[1.0]]}, [1.0]))
        g.add(JacobianFactor({"s": [[1.0]]}, [0.0]))
        ordering = ["p", "q", "r", "s"]
        with pytest.raises(UnderconstrainedVariable) as err:
            sum_product(g, ordering)
        assert str(err.value) == "underconstrained variable: 'q' has 0 rows, needs 1"
        assert _outcome(reference_sum_product, g, ordering) == \
            (UnderconstrainedVariable, str(err.value))
        with pytest.raises(UnderconstrainedVariable,
                           match="'r' is rank deficient"):
            sum_product(g, ["r", "s", "p", "q"])

    def test_non_finite_bucket_named_in_a_shared_group(self):
        """a and b share a level and a shape, so one QR runs for both; b's
        column norm overflows.  c, rank deficient, is on that level too.
        The error is that of b or c, whichever comes first in the
        ordering."""
        g = HybridFactorGraph()
        g.add(JacobianFactor({"a": [[1.0]] * 3, "z": [[1.0]] * 3}, [1.0] * 3))
        g.add(JacobianFactor({"b": [[1.5e308]] * 3, "z": [[1.0]] * 3}, [1.0] * 3))
        g.add(JacobianFactor({"c": [[0.0]], "z": [[1.0]]}, [1.0]))
        g.add(JacobianFactor({"z": [[1.0]]}, [0.0]))
        for ordering, want in [
                (["a", "b", "c", "z"], "eliminating 'b': non-finite entries"),
                (["a", "c", "b", "z"],
                 "underconstrained variable: 'c' is rank deficient")]:
            with pytest.raises(ValueError) as err:
                sum_product(g, ordering)
            assert str(err.value) == want
            assert _outcome(reference_sum_product, g, ordering) == \
                (type(err.value), want)

    def test_first_error_raised_without_context(self):
        """The error found by replaying the ordering one position at a
        time carries neither the wavefront's error nor any other as its
        context."""
        rng = np.random.default_rng(42)
        cases = []
        for _ in range(60):
            g = _fragile_graph(rng)
            cases.append((g, _random_strong_ordering(rng, g)))
        g = HybridFactorGraph()
        g.add(JacobianFactor({"a": [[1.0]] * 3, "z": [[1.0]] * 3}, [1.0] * 3))
        g.add(JacobianFactor({"b": [[1.5e308]] * 3, "z": [[1.0]] * 3}, [1.0] * 3))
        g.add(JacobianFactor({"c": [[0.0]], "z": [[1.0]]}, [1.0]))
        g.add(JacobianFactor({"z": [[1.0]]}, [0.0]))
        cases += [(g, ["a", "b", "c", "z"]), (g, ["a", "c", "b", "z"])]
        failed = 0
        for trial, (g, ordering) in enumerate(cases):
            try:
                sum_product(g, ordering)
            except ValueError as e:
                failed += 1
                assert e.__context__ is None and e.__cause__ is None, trial
        assert failed > 10, failed

    def test_one_qr_per_level_and_shape(self, monkeypatch):
        """A star's leaves form one level of one shape: one QR for all of
        them, then one for the centre."""
        calls = _count_qr_systems(monkeypatch)
        g = HybridFactorGraph()
        for leaf in (5, 3, 9, 1):
            g.add(JacobianFactor({0: [[1.0]], leaf: [[float(leaf)]]}, [1.0]))
        g.add(JacobianFactor({0: [[1.0]]}, [0.0]))
        sum_product(g)
        assert calls == [4, 1]

    @pytest.mark.parametrize("shape, config, most", [
        ((0, 200, 10, 10), slam_cli.RunConfig(elim_every=1, relin_every=2),
         (585, 4677, 347)),
        ((0, 100, 10, 4), slam_cli.RunConfig(), (121, 1594, 70)),
        ((0, 200, 10, 10), slam_cli.RunConfig(), (207, 3555, 127))])
    def test_qr_calls_and_systems_do_not_grow(self, monkeypatch, shape, config,
                                              most):
        """The batching a whole run gets: QR calls, the systems they take
        and the wavefront levels its eliminations run, on the streaming
        benchmark's input, on C09's and on 200/10/10 with defaults, at most
        as many as when path variables first joined the ordering's rounds,
        so a change to the ordering, to how groups are filled or to which
        cells are picked cannot quietly add to them."""
        entries, _, _ = square_loop_dataset(*shape)
        calls = _count_qr_systems(monkeypatch)
        levels = []
        eliminate = elimination.sum_product

        def counting_sum_product(*args, **kwargs):
            bn = eliminate(*args, **kwargs)
            levels.append(len(bn.plan.levels))
            return bn
        monkeypatch.setattr(elimination, "sum_product", counting_sum_product)
        slam_cli.run(config, entries)
        counts = (len(calls), sum(calls), sum(levels))
        assert all(n <= m for n, m in zip(counts, most)), counts

    def test_streaming_orders_and_eliminates_the_top(self, monkeypatch):
        """The streaming benchmark's input, exact counts over a run: the
        continuous variables that multiple minimum degree orders (2,481
        when every pass ordered the whole graph; now the first call's and
        each top's) and the cliques the wavefront eliminates (1,901 then,
        of 4,186 steps it visited)."""
        entries, _, _ = square_loop_dataset(0, 200, 10, 10)
        ordered = []
        mmd = elimination._mmd

        def counting(adj, floors):
            ordered.append(len(adj))
            return mmd(adj, floors)
        monkeypatch.setattr(elimination, "_mmd", counting)
        seen = _eliminated(monkeypatch)
        slam_cli.run(slam_cli.RunConfig(elim_every=1, relin_every=2), entries)
        assert (sum(ordered), len(seen)) == (381, 1848)

    def test_back_substitution_matches_per_conditional_solve(self):
        """The MAP of random nets and of a pose graph's net, solved a depth
        and a dimension at a time, keeps the bits of solving one conditional
        at a time."""
        rng = np.random.default_rng(43)
        nets = [sum_product(random_hybrid_graph(
            rng, int(rng.integers(1, 7)), int(rng.integers(0, 4)),
            two_var_hybrids=True)) for _ in range(60)]
        nets.append(sum_product(_slam_graph(65, 4, 2)))
        for _ in range(60):     # variables of dimension 1 and 2 mixed
            net = _outcome(sum_product, _fragile_graph(rng))
            if not isinstance(net, tuple):
                nets.append(net)
        for trial, bn in enumerate(nets):
            got = bn_map(bn)
            chosen = [c.component(got.discrete)
                      if isinstance(c, HybridGaussianConditional) else c
                      for c in bn.conditionals]
            want = reference_back_substitute(chosen)
            assert got.continuous.keys() == want.keys(), trial
            for vid in want:
                assert same_bits(got.continuous[vid], want[vid]), trial


class TestNetStorage:
    """A net's conditionals view the arrays of their elimination groups."""

    def test_net_survives_later_work_bit_for_bit(self):
        """A net from sum_product stays bit-identical to a deep copy taken
        right after elimination through pruning, its MAP, sampling and a
        second elimination of the same graph: no later fill, QR or in-place
        row negation writes into the arrays its conditionals view."""
        rng = np.random.default_rng(47)
        graphs = [random_hybrid_graph(rng, int(rng.integers(1, 7)),
                                      int(rng.integers(0, 4)), two_var_hybrids=True)
                  for _ in range(30)]
        graphs.append(_slam_graph(65, 4, 2))
        for trial, g in enumerate(graphs):
            bn = sum_product(g)
            snapshot = copy_net(bn)
            prune_bayes_net(bn, 2)
            bn_map(bn)
            bn_sample(bn, trial)
            sum_product(g)
            assert same_net(bn, snapshot), trial


class TestPlan:
    """The symbolic elimination sum_product plans, or extends, and its
    wavefront reads (elimination._plan, kept as the net's plan), and what
    each call fills it with (elimination._fill)."""

    def test_separators_are_the_net_parents(self):
        """Random graphs and a pose graph under random strong orderings:
        each conditional's frontal, parents and keys are the variable and
        separator the plan gave its step and the keys the call's fill gave
        it, and each step's level is above its children's."""
        rng = np.random.default_rng(47)
        graphs = [random_hybrid_graph(rng, int(rng.integers(1, 7)),
                                      int(rng.integers(0, 5)),
                                      two_var_hybrids=bool(trial % 2))
                  for trial in range(120)]
        graphs.append(_slam_graph(65, 4, 2))
        seen = {"separator": 0, "keys": 0, "boundary": 0}
        for trial, g in enumerate(graphs):
            ordering = _random_strong_ordering(rng, g)
            bn = sum_product(g, ordering)
            steps, levels = bn.plan.steps, bn.plan.levels
            assert list(steps) == ordering[:len(steps)], trial
            fills, tail = elimination._fill(steps, bn.cliques.held, list(steps),
                                            g.discrete_factors,
                                            ordering[len(steps):])
            assert len(steps) == len(bn.conditionals), trial
            for step, c in zip(steps.values(), bn.conditionals):
                fill = fills[step.var]
                if isinstance(c, HybridGaussianConditional):
                    assert c.frontals == (step.var,), trial
                    assert c.keys == fill.keys, trial
                else:
                    assert c.frontal == step.var and fill.keys == (), trial
                assert c.parents == step.separator, trial
                seen["separator"] += bool(step.separator)
                seen["keys"] += bool(fill.keys)
                seen["boundary"] += bool(fill.keys) and not step.separator
            for step in steps.values():
                assert all(steps[c].level < step.level for c in step.children)
                assert step.level == max((steps[c].level + 1 for c in step.children),
                                         default=0), trial
            counts = [0] * len(levels)
            for step in steps.values():
                counts[step.level] += 1
            assert counts == levels, trial
            assert len(tail) == len(ordering) - len(steps), trial
        assert all(seen.values()), seen

    def test_plan_kept_only_for_the_same_structure(self):
        """An earlier net's plan is kept when the graph's continuous and
        hybrid factors keep their variable tuples and dimensions, here
        after modes are fixed and with a discrete factor added, and the net
        is then the freshly planned one bit for bit; after a factor is
        added it is extended, and the net is the one its ordering plans
        afresh, bit for bit; with a variable of another dimension it is
        planned afresh."""
        rng = np.random.default_rng(48)
        g = random_hybrid_graph(rng, 5, 3, two_var_hybrids=True)
        net = sum_product(g)
        plan = net.plan

        def plus(f):
            h = HybridFactorGraph()
            for old in g.all_factors():
                h.add(old)
            return h.add(f)
        for h in (g, g.restrict({"m0": 1, "m2": 0}),
                  plus(DiscreteFactor([DiscreteKey("m1", 2)], [0.3, 0.7]))):
            bn = sum_product(h, previous=net)
            assert bn.plan is plan
            fresh = sum_product(h)
            assert same_net(bn, fresh)
            assert fresh.plan.steps == plan.steps
            assert fresh.plan.levels == plan.levels
        # A new edge, or a second factor over variables already joined.
        for h in (plus(whiten({"x1": [[1.0]], "x3": [[1.0]]}, [0.5], 1.0)),
                  plus(g.continuous_factors[1])):
            bn = sum_product(h, previous=net)
            assert bn.plan is not plan
            assert same_net(bn, sum_product(h, plan_ordering(bn, h)))
        narrow, wide = HybridFactorGraph(), HybridFactorGraph()
        for h, d in ((narrow, 1), (wide, 2)):
            h.add(JacobianFactor({"x": np.eye(d)}, np.zeros(d)))
            h.add(JacobianFactor({"x": -np.eye(d), "y": np.eye(d)}, np.ones(d)))
        net = sum_product(narrow)
        assert sum_product(narrow, previous=net).plan is net.plan
        assert sum_product(wide, previous=net).plan is not net.plan
        # An explicit ordering is always planned.
        assert sum_product(narrow, ["x", "y"], net).plan is not net.plan

    def test_inconsistent_dimension_raises(self):
        """Two factors that give x different widths, plain or hybrid."""
        m = DiscreteKey("m", 2)
        wide = JacobianFactor({"x": [[1.0, 2.0]], "y": [[1.0]]}, [0.0])
        for other in (JacobianFactor({"x": [[1.0]]}, [0.0]),
                      HybridGaussianFactor.from_components([m], [
                          (JacobianFactor({"x": [[1.0]]}, [0.0]), 0.0), None])):
            g = HybridFactorGraph().add(wide).add(other)
            with pytest.raises(ValueError) as err:
                sum_product(g)
            assert str(err.value) == "inconsistent dimension for 'x'"

    def test_id_clash_raises_under_an_explicit_ordering(self, monkeypatch):
        """The plan checks discrete ids against the continuous ids it reads
        dimensions for: an explicit ordering, which skips strong_ordering,
        still meets the clash, and sum_product never calls
        continuous_variables()."""
        g = HybridFactorGraph()
        g.add(JacobianFactor({"x": [[1.0]]}, [0.0]))
        g.add(JacobianFactor({"y": [[1.0]]}, [0.0]))
        g.add(DiscreteFactor([DiscreteKey("x", 2)], [0.5, 0.5]))
        with pytest.raises(ValueError,
                           match="'x' used as both continuous and discrete"):
            sum_product(g, ["x", "y"])

        def scan(self):
            raise AssertionError("continuous_variables() scanned")
        monkeypatch.setattr(HybridFactorGraph, "continuous_variables", scan)
        ok = random_hybrid_graph(np.random.default_rng(3), 3, 2)
        sum_product(ok)
        with pytest.raises(ValueError,
                           match="'x' used as both continuous and discrete"):
            sum_product(g)

    def test_empty_bucket_raises_underconstrained(self):
        """Under sum_product every variable's bucket holds a factor or a
        separator on it; eliminate_hybrid_sum meets a bucket without x."""
        for factors in ([], [JacobianFactor({"y": [[1.0]]}, [0.0])]):
            with pytest.raises(UnderconstrainedVariable) as err:
                eliminate_hybrid_sum(factors, "x")
            assert str(err.value) == "underconstrained variable: 'x'"


class TestCliqueReuse:
    """Given an earlier net, sum_product takes that net's conditional and
    separator for every step outside the top that has no mode keys and
    whose subtree's buckets hold the earlier net's factors, and eliminates
    every other clique again."""

    @staticmethod
    def _changed(lin, index):
        """lin with its continuous factor `index` replaced by a new object
        over the same variables, its rows scaled by 1.5."""
        out = HybridFactorGraph()
        for i, f in enumerate(lin.continuous_factors):
            out.add(f if i != index else JacobianFactor(
                {v: 1.5 * A for v, A in f.blocks.items()}, 1.5 * f.rhs))
        for f in lin.hybrid_factors + lin.discrete_factors:
            out.add(f)
        return out

    def test_reusing_net_is_the_net_from_scratch(self):
        """The C11 pose graph, linearized, with one factor changed: the net
        that reuses the first net's cliques is bit for bit the one that
        its plan eliminates from scratch, and it reuses some cliques,
        each without mode keys.  The unchanged graph reuses every clique
        without mode keys and eliminates every one with them again."""
        lin = _slam_graph(65, 4, 2)
        bn = sum_product(lin)
        changed = self._changed(lin, 5)
        got = sum_product(changed, previous=bn)
        scratch = sum_product(changed, plan_ordering(bn, changed))
        assert got.plan is bn.plan and scratch.plan.steps == bn.plan.steps
        assert not scratch.conditionals[0] is bn.conditionals[0]
        assert same_net(got, scratch)
        old = set(map(id, bn.conditionals))
        reused = [c for c in got.conditionals if id(c) in old]
        assert 0 < len(reused) < len(got.conditionals)
        assert all(isinstance(c, GaussianConditional) for c in reused)
        again = sum_product(lin, previous=bn)
        assert same_net(again, bn)
        keyed = [isinstance(c, HybridGaussianConditional)
                 for c in bn.conditionals]
        assert any(keyed) and not all(keyed)
        for c, d, has_keys in zip(again.conditionals, bn.conditionals, keyed):
            assert (c is d) != has_keys
        assert again.cliques.separators.keys() == bn.cliques.separators.keys()

    @pytest.mark.parametrize("index", [0, 5, 40])
    def test_changed_bucket_factor_eliminated_again(self, index):
        """The clique whose bucket holds the changed factor, and every clique
        above it, is eliminated again; the net stays the fresh one."""
        lin = _slam_graph(65, 4, 2)
        bn = sum_product(lin)
        changed = self._changed(lin, index)
        got = sum_product(changed, previous=bn)
        assert same_net(got, sum_product(changed))
        steps, rank = bn.plan.steps, bn.plan.rank
        before = dict(zip(steps, bn.conditionals))
        after = dict(zip(got.plan.steps, got.conditionals))
        v = bn.plan.bucket[lin.continuous_factors[index].variables]
        while True:
            assert after[v] is not before[v]
            separator = steps[v].separator
            if not separator:
                break
            v = min(separator, key=rank.__getitem__)

    def test_pruned_net_keeps_its_cliques(self):
        """prune_bayes_net passes the reusable cliques on with the plan."""
        lin = _slam_graph(65, 4, 2)
        bn = sum_product(lin)
        pruned = prune_bayes_net(bn, 2)
        assert pruned is not bn
        assert pruned.plan is bn.plan and pruned.cliques is bn.cliques


def _graph_of(factors):
    g = HybridFactorGraph()
    for f in factors:
        g.add(f)
    return g


def _extended_ordering(g, bn):
    """The ordering sum_product(g, previous=bn) eliminates under."""
    plan, _, _, disc = elimination._plan(
        g, g.continuous_factors + g.hybrid_factors, bn.plan, bn.cliques, None)
    return list(plan.steps) + disc


def _top(plan, touched):
    """The variables `touched` and all their ancestors in plan's tree."""
    top = set()
    for v in touched:
        while v not in top:
            top.add(v)
            separator = plan.steps[v].separator
            if not separator:
                break
            v = min(separator, key=plan.rank.__getitem__)
    return top


def _eliminated(monkeypatch):
    """The variables of the cliques the wavefront eliminates, as it runs."""
    seen = []
    original = elimination._eliminate_independent

    def recording(cliques):
        seen.extend(c.step.var for c in cliques)
        return original(cliques)
    monkeypatch.setattr(elimination, "_eliminate_independent", recording)
    return seen


class TestPlanExtension:
    """Given an earlier net, sum_product orders, plans and eliminates only
    the top of the tree that the added and removed variable tuples touch,
    and the net is the one its ordering plans afresh, bit for bit."""

    def test_steps_outside_the_top_are_kept(self, monkeypatch):
        """A prior on one pose of the C11 pose graph: the top is that pose
        and its ancestors; every other step is the earlier plan's _Step
        object, and the wavefront visits the top and the steps with mode
        keys only, so every other clique keeps its conditional."""
        lin = _slam_graph(65, 4, 2)
        bn = sum_product(lin)
        steps = bn.plan.steps
        leaf = next(v for v, s in steps.items()
                    if not s.children and len(s.separator) > 1)
        h = _graph_of(lin.all_factors()
                      + [JacobianFactor({leaf: np.eye(3)}, np.zeros(3))])
        seen = _eliminated(monkeypatch)
        got = sum_product(h, previous=bn)
        top = _top(bn.plan, [leaf])
        assert 1 < len(top) < len(steps) / 4
        assert got.plan.steps.keys() == steps.keys()
        for v in steps:
            assert (got.plan.steps[v] is steps[v]) == (v not in top), v
        assert sorted(seen) == sorted(top | bn.cliques.keyed)
        assert bn.cliques.keyed and not bn.cliques.keyed <= top
        before = dict(zip(steps, bn.conditionals))
        for v, c in zip(got.plan.steps, got.conditionals):
            assert (c is before[v]) == (v not in seen), v
        monkeypatch.undo()
        assert same_net(got, sum_product(h, plan_ordering(got, h)))

    def test_removed_tuple_plans_correctly(self, monkeypatch):
        """Dropping a loop closure removes its variable tuple and keys: the
        net is its ordering's, and the steps outside the top are kept."""
        lin = _slam_graph(65, 4, 2)
        bn = sum_product(lin)
        loop = next(f for f in lin.hybrid_factors if f.continuous_ids[0] != (
            "x", int(f.continuous_ids[1][1]) - 1))
        h = _graph_of([f for f in lin.all_factors() if f is not loop])
        got = sum_product(h, previous=bn)
        assert same_net(got, sum_product(h, plan_ordering(got, h)))
        top = _top(bn.plan, loop.continuous_ids)
        assert len(top) < len(bn.plan.steps)
        for v, step in bn.plan.steps.items():
            assert (got.plan.steps[v] is step) == (v not in top), v
        assert {k.id for k in loop.keys}.isdisjoint(
            k.id for k in got.discrete_keys())

    def test_changed_dimension_plans_afresh(self):
        """A variable of another dimension, in a small graph and in the pose
        graph, is planned afresh: the net and plan are strong_ordering's."""
        narrow, wide = HybridFactorGraph(), HybridFactorGraph()
        for h, d in ((narrow, 1), (wide, 2)):
            h.add(JacobianFactor({"x": np.eye(d)}, np.zeros(d)))
            h.add(JacobianFactor({"x": -np.eye(d), "y": np.eye(d)}, np.ones(d)))
        lin = _slam_graph(65, 4, 2)
        pose = ("x", 30)
        wider = _graph_of(
            [f if pose not in f.variables else JacobianFactor(
                {v: np.hstack([A, np.ones((A.shape[0], 1))]) if v == pose else A
                 for v, A in f.blocks.items()}, f.rhs)
             for f in lin.continuous_factors]
            + lin.hybrid_factors + lin.discrete_factors)
        for g, h in ((narrow, wide), (lin, wider)):
            got = sum_product(h, previous=sum_product(g))
            fresh = sum_product(h)
            assert got.plan.steps == fresh.plan.steps
            assert same_net(got, fresh)

    def test_constant_factor_goes_nowhere(self):
        """A factor without variables is a constant: no bucket takes it,
        in a fresh plan or an extended one, added or removed."""
        constant = JacobianFactor({}, np.array([1.0]))
        prior = JacobianFactor({"x": [[1.0]]}, [0.5])
        edge = JacobianFactor({"x": [[2.0]], "y": [[1.0]]}, [0.0])
        with_it, without = _graph_of([prior, constant]), _graph_of([prior, edge])
        bn = sum_product(with_it)
        assert same_net(bn, sum_product(_graph_of([prior])))
        for g in (without, with_it):
            got = sum_product(g, previous=bn)
            assert same_net(got, sum_product(g, plan_ordering(got, g)))
            bn = got

    def test_fresh_plan_is_strong_orderings_on_the_c01_corpus(self):
        """On C01's corpus of graphs the fresh plan orders by the plain
        multiple-minimum-degree loop and its net is that ordering's bit for
        bit; extending the net of a graph that shares no variable, so that
        every variable is in the top and none has a floor, gives it too."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            g = random_hybrid_graph(rng, n_cont=int(rng.integers(1, 7)),
                                    n_disc=int(rng.integers(0, 6)),
                                    two_var_hybrids=True)
            order = _mmd_reference(g)
            bn = sum_product(g)
            assert list(bn.plan.steps) == order[:len(bn.plan.steps)], seed
            assert same_net(bn, sum_product(g, order)), seed
            other = sum_product(_random_structure_graph(
                rng, [("y", k) for k in range(int(rng.integers(1, 6)))]))
            extended = sum_product(g, previous=other)
            assert extended.plan.steps == bn.plan.steps, seed
            assert same_net(extended, bn), seed

    def test_random_edits_plan_as_their_ordering(self):
        """Random graphs through random edits (a factor added over old or
        new variables, one removed, one replaced by a new object over the
        same variables, modes fixed, the factors shuffled): each net that
        extends the previous one is, bit for bit, the net its ordering
        plans afresh, and an error is the one that ordering raises."""
        rng = np.random.default_rng(49)
        seen = {"kept": 0, "extended": 0, "afresh": 0, "error": 0}
        for trial in range(60):
            g = random_hybrid_graph(rng, int(rng.integers(2, 7)),
                                    int(rng.integers(0, 4)), two_var_hybrids=True)
            net = sum_product(g)
            for edit in range(6):
                factors = g.continuous_factors + g.hybrid_factors
                kind = rng.integers(5)
                if kind == 0:
                    names = sorted(g.continuous_variables()) + ["x9"]
                    vs = rng.choice(len(names), size=int(rng.integers(1, 3)),
                                    replace=False)
                    new = whiten({names[i]: [[rng.normal()]] for i in vs},
                                 [rng.normal()], 1.0)
                    factors = factors + [new]
                elif kind == 1 and len(factors) > 1:
                    del factors[int(rng.integers(len(factors)))]
                elif kind == 2:
                    i = int(rng.integers(len(factors)))
                    f = factors[i]
                    if isinstance(f, JacobianFactor):
                        factors[i] = JacobianFactor(
                            {v: 2.0 * A for v, A in f.blocks.items()}, f.rhs)
                elif kind == 3:
                    factors = [f.restrict({"m0": 1}) if isinstance(
                        f, HybridGaussianFactor) else f for f in factors]
                else:
                    rng.shuffle(factors)
                g = _graph_of(factors + g.discrete_factors)
                got = _outcome(sum_product, g, None, net)
                try:
                    ordering = _extended_ordering(g, net)
                except ValueError as e:
                    assert got == (ValueError, str(e)), (trial, edit)
                    seen["error"] += 1
                    break
                want = _outcome(sum_product, g, ordering)
                if isinstance(want, tuple):
                    assert got == want, (trial, edit)
                    seen["error"] += 1
                    break
                assert same_net(got, want), (trial, edit)
                seen["kept" if got.plan is net.plan else "extended"
                     if got.plan.steps.keys() & net.plan.steps.keys()
                     and any(got.plan.steps[v] is s
                             for v, s in net.plan.steps.items()
                             if v in got.plan.steps) else "afresh"] += 1
                net = got
        assert all(seen.values()), seen


class TestOrderingIndependence:
    """Elimination remaps columns for every ordering; the posterior and the
    MAP must not depend on which valid strong ordering it takes, up to
    rounding (1e-9)."""

    @staticmethod
    def _assert_same_posterior(a, b, trial):
        ma, mb = discrete_marginals(a), discrete_marginals(b)
        assert ma.keys() == mb.keys(), trial
        for kid in ma:
            np.testing.assert_allclose(ma[kid], mb[kid], rtol=0, atol=1e-9,
                                       err_msg=str(trial))
        xa, xb = bn_map(a), bn_map(b)
        assert xa.discrete == xb.discrete, trial
        assert xa.continuous.keys() == xb.continuous.keys(), trial
        for vid in xa.continuous:
            np.testing.assert_allclose(xa.continuous[vid], xb.continuous[vid],
                                       rtol=0, atol=1e-9, err_msg=str(trial))

    def test_random_graphs_under_random_orderings(self):
        rng = np.random.default_rng(44)
        for trial in range(40):
            g = random_hybrid_graph(rng, int(rng.integers(2, 7)),
                                    int(rng.integers(1, 5)),
                                    two_var_hybrids=bool(trial % 2))
            base = sum_product(g)
            for _ in range(4):
                self._assert_same_posterior(
                    base, sum_product(g, _random_strong_ordering(rng, g)), trial)

    def test_slam_linearization_under_random_orderings(self):
        g = _slam_graph(65, 4, 2)
        base = sum_product(g)
        rng = np.random.default_rng(45)
        for trial in range(4):
            self._assert_same_posterior(
                base, sum_product(g, _random_strong_ordering(rng, g)), trial)

    def test_slam_runs_under_random_orderings(self, tmp_path, monkeypatch):
        """The whole streaming run, each solve's plan started from a random
        strong ordering, which every later elimination extends: the same
        modes, numbers within helpers.OUTPUT_TOL."""
        entries, _, _ = square_loop_dataset(0, 65, 4, 2)
        path = str(tmp_path / "data.txt")
        write_dataset(entries, path)
        args = ["--input", path, "--elim-every", "1", "--relin-every", "2"]
        assert slam_cli.main(args + ["--output", str(tmp_path / "base")]) == 0
        rng = np.random.default_rng(46)
        monkeypatch.setattr(elimination, "strong_ordering",
                            lambda g: _random_strong_ordering(rng, g))
        for run in range(2):
            out = str(tmp_path / f"shuffled{run}")
            assert slam_cli.main(args + ["--output", out]) == 0
            assert output_differences(str(tmp_path / "base"), out) == [], run


class TestMaxProduct:
    def test_single_mode_equals_gaussian_map(self):
        g = HybridFactorGraph()
        g.add(whiten({"x": [[1.0]]}, [3.0], 1.0))
        g.add(whiten({"x": [[1.0]]}, [5.0], 1.0))
        out = max_product(g)
        np.testing.assert_allclose(out.continuous["x"], [4.0], atol=1e-12)

    def test_worked_mixture(self):
        g, m = mixture_graph()
        out = max_product(g)
        assert out.discrete == {"m": 0}
        np.testing.assert_allclose(out.continuous["x"], [0.5], atol=1e-12)

    def test_matches_oracle_on_random_graphs(self):
        for seed in range(60):
            rng = np.random.default_rng(1000 + seed)
            g = random_hybrid_graph(rng, int(rng.integers(1, 6)),
                                    int(rng.integers(1, 5)))
            got = max_product(g)
            want = enumerate_map(g)
            assert got.discrete == want.discrete
            for vid, vec in want.continuous.items():
                np.testing.assert_allclose(got.continuous[vid], vec, atol=1e-9)

    def test_max_sum_consistency(self):
        """The Max-Product assignment equals the argmax over the Sum-Product
        posterior weighted by per-mode peak heights."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = random_hybrid_graph(rng, 3, 3)
            got = max_product(g)
            probs, optima = enumerate_posterior(g)
            best, best_val = None, -math.inf
            for a in enumerate_assignments(probs.keys):
                opt = optima.leaf(a)
                if opt is None:
                    continue
                err = sum(f.error(opt) for f in g.continuous_factors)
                err += sum(f.error(opt, a) for f in g.hybrid_factors)
                val = -err
                for df in g.discrete_factors:
                    val += math.log(df.value(a))
                if val > best_val:
                    best_val, best = val, a
            assert got.discrete == best


def _mirrored_tie_graph():
    """A chain x0..x4 and a binary mode m whose two components are mirrored
    about the prior's mean, so both modes tie in exact arithmetic; under the
    reversed order mode 1 rounds higher in the last bits.  Returns the graph
    and the chain's ids."""
    m = DiscreteKey("m", 2)
    xs = [f"x{i}" for i in range(5)]
    g = HybridFactorGraph()
    g.add(whiten({"x0": [[1.0]]}, [-1.38], 0.37))
    for i, var in enumerate([0.33, 1.68, 1.85, 1.33]):
        g.add(whiten({xs[i]: [[-1.0]], xs[i + 1]: [[1.0]]}, [0.0], var))
    c = log_normalization_constant(1.89)
    g.add(HybridGaussianFactor.from_components([m], [
        (whiten({"x2": [[-1.0]], "x4": [[1.0]]}, [z], 1.89), c)
        for z in (1.68, -1.68)]))
    return g, xs


class TestBnMap:
    @pytest.mark.parametrize("P", [1, 2, 4])
    def test_pruned_net_matches_oracle_on_its_support(self, P):
        """The MAP read off a pruned net, as a Gauss-Newton step takes it,
        is the oracle MAP of the graph with the net's support appended."""
        for seed in range(60):
            rng = np.random.default_rng(2000 + seed)
            g = random_hybrid_graph(rng, int(rng.integers(1, 6)),
                                    int(rng.integers(1, 5)),
                                    two_var_hybrids=True)
            pruned = prune_bayes_net(sum_product(g), P)
            got = bn_map(pruned)
            support = hypothesis_support(pruned)
            want = enumerate_map(g.add(DiscreteFactor(support.keys, support)))
            assert got.discrete == want.discrete
            for vid, vec in want.continuous.items():
                np.testing.assert_allclose(got.continuous[vid], vec, atol=1e-9)

    def test_exact_tie_keeps_first_mode(self):
        m = DiscreteKey("m", 2)
        g = HybridFactorGraph()
        g.add(whiten({"x": [[1.0]]}, [0.0], 1.0))
        comp = (whiten({"x": [[1.0]]}, [1.0], 2.0), 0.3)
        g.add(HybridGaussianFactor.from_components([m], [comp, comp]))
        got = bn_map(sum_product(g))
        want = enumerate_map(g)
        assert got.discrete == want.discrete == {"m": 0}
        np.testing.assert_allclose(got.continuous["x"], want.continuous["x"],
                                   atol=1e-12)

    def test_rounding_tie_same_map_under_orderings(self):
        """Two hypotheses mirrored about the prior's mean tie in exact
        arithmetic, but their rounded scores depend on the elimination
        order (mode 1 scores higher in the last bits under the reversed
        order); every order keeps the first, as the oracle does."""
        g, xs = _mirrored_tie_graph()
        want = enumerate_map(g)
        assert want.discrete == {"m": 0}
        for order in (xs, xs[::-1]):
            got = bn_map(sum_product(g, order + ["m"]))
            assert got.discrete == want.discrete, order
            for vid, vec in want.continuous.items():
                np.testing.assert_allclose(got.continuous[vid], vec, atol=1e-9)

    def test_nil_pick_raises(self):
        """The constructor refuses a net whose live row meets a nil
        component; one built without the check fails at the read."""
        m = DiscreteKey("m", 2)
        leaf = GaussianConditional("x", [[1.0]], {}, [0.0])
        parts = ([HybridGaussianConditional([m], DecisionTree([m], [leaf, None]))],
                 DecisionTree([m], [0.0, 1.0]))
        with pytest.raises(ValueError, match="no component"):
            HybridBayesNet(*parts)
        bn = HybridBayesNet._own(*parts, None, None)
        with pytest.raises(RuntimeError, match="pruned component"):
            bn_map(bn)


class TestPruneBayesNet:
    def test_no_op_when_p_large(self):
        rng = np.random.default_rng(0)
        g = random_hybrid_graph(rng, 3, 2)
        bn = sum_product(g)
        bn2 = prune_bayes_net(bn, 100)
        np.testing.assert_array_equal(_joint(bn2), _joint(bn))

    def test_uniform_hypotheses_keep_smallest_index(self):
        a, b = DiscreteKey("a", 2), DiscreteKey("b", 2)
        bn = HybridBayesNet([], DecisionTree([a, b], [0.25] * 4))
        bn2 = prune_bayes_net(bn, 1)
        joint = _joint(bn2).reshape(-1)
        assert joint.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_survivors_match_oracle_top3(self):
        rng = np.random.default_rng(4)
        g = random_hybrid_graph(rng, 4, 4, with_discrete_factor=False)
        probs, _ = enumerate_posterior(g)
        flat = np.asarray(probs.leaves).reshape(-1)
        bn = prune_bayes_net(sum_product(g), 3)
        joint = _joint(bn).reshape(-1)
        assert set(np.flatnonzero(joint)) == set(np.argsort(-flat, kind="stable")[:3])

    @pytest.mark.parametrize("P", [1, 3])
    def test_cut_inside_rounding_tie_same_under_orderings(self, P):
        """The mirrored modes times an independent n: rows (m, n) = (0, 1)
        and (1, 1) tie in exact arithmetic, as do (0, 0) and (1, 0), but
        the reversed order rounds m = 1 higher.  The cut falls inside a tie,
        at P = 3 below two rows, and both orders keep the same rows, the
        earlier ones in flat order."""
        g, xs = _mirrored_tie_graph()
        g.add(DiscreteFactor([DiscreteKey("n", 2)], [0.7, 0.3]))
        joints, kept = [], []
        for order in (xs, xs[::-1]):
            bn = sum_product(g, order + ["m", "n"])
            joints.append(_joint(bn).reshape(-1))
            kept.append(np.flatnonzero(_joint(prune_bayes_net(bn, P))))
        assert not np.array_equal(joints[0], joints[1])
        want = [0] if P == 1 else [0, 1, 2]
        for rows in kept:
            assert rows.tolist() == want

    def test_relative_order_preserved(self):
        rng = np.random.default_rng(5)
        g = random_hybrid_graph(rng, 4, 3)
        bn = sum_product(g)
        before = _joint(bn).reshape(-1)
        after = _joint(prune_bayes_net(bn, 3)).reshape(-1)
        alive = np.flatnonzero(after)
        order_before = alive[np.argsort(-before[alive], kind="stable")]
        order_after = alive[np.argsort(-after[alive], kind="stable")]
        np.testing.assert_array_equal(order_before, order_after)

    def test_pruned_joint_is_normalized_top_p(self):
        """The pruned joint is prune_to_top(joint, P) divided by its sum, bit
        for bit; the support marks exactly its P rows, and pruning again at
        P changes nothing."""
        rng = np.random.default_rng(11)
        g = random_hybrid_graph(rng, 3, 4)
        bn = sum_product(g)
        P = 5
        assert np.count_nonzero(_joint(bn)) > P
        pruned = prune_bayes_net(bn, P)
        top = prune_to_top(bn.discrete_joint(), P).leaves
        assert same_bits(_joint(pruned), top / top.sum())
        assert _joint(pruned).sum() == pytest.approx(1.0, abs=1e-12)
        support = hypothesis_support(pruned)
        assert support.keys == pruned.discrete_joint().keys
        assert np.array_equal(support.leaves, (top > 0).astype(float))
        assert int(support.leaves.sum()) == P
        assert same_bits(_joint(prune_bayes_net(pruned, P)), _joint(pruned))

    def test_conditionals_are_the_inputs(self):
        """Pruning changes only the joint, to the top P normalized: every
        conditional is the input's object, and at every row the pruned
        joint keeps, each hybrid conditional has a live component, also
        where zero-holding factors left nil components in the input."""
        rng = np.random.default_rng(48)
        seen = {"pruned": 0, "nil": 0}
        for trial in range(80):
            g = random_hybrid_graph(rng, int(rng.integers(2, 6)),
                                    int(rng.integers(1, 5)),
                                    two_var_hybrids=bool(trial % 2))
            if trial % 3 == 0:
                g, _, _ = _with_zero_factor(rng, g)
            bn = sum_product(g)
            P = int(rng.integers(1, 5))
            out = prune_bayes_net(bn, P)
            if out is not bn:
                seen["pruned"] += 1
                top = prune_to_top(bn.discrete_joint(), P).leaves
                assert same_bits(_joint(out), top / top.sum()), trial
            assert len(out.conditionals) == len(bn.conditionals), trial
            assert all(c2 is c for c, c2 in zip(bn.conditionals,
                                                out.conditionals)), trial
            hybrids = [c for c in out.conditionals
                       if isinstance(c, HybridGaussianConditional)]
            seen["nil"] += any(np.equal(c.components.leaves, None).any()
                               for c in hybrids)
            joint = out.discrete_joint()
            for idx in zip(*np.nonzero(joint.leaves)):
                a = {k.id: int(v) for k, v in zip(joint.keys, idx)}
                assert all(c.component(a) is not None for c in hybrids), trial
        assert seen["pruned"] > 20 and seen["nil"] > 0, seen

    def test_marginals_sum_the_joint(self):
        """discrete_marginals, summed over the live rows only, equal the
        dense sums over every other axis, on unpruned and pruned nets."""
        rng = np.random.default_rng(49)
        for trial in range(40):
            bn = sum_product(random_hybrid_graph(rng, 3, int(rng.integers(1, 5))))
            for net in (bn, prune_bayes_net(bn, 2)):
                joint = _joint(net)
                got = discrete_marginals(net)
                assert list(got) == [k.id for k in net.discrete_joint().keys]
                for i, k in enumerate(net.discrete_joint().keys):
                    axes = tuple(j for j in range(joint.ndim) if j != i)
                    np.testing.assert_allclose(got[k.id], joint.sum(axis=axes),
                                               rtol=0, atol=1e-15)

class TestDeadModeRemoval:
    def _dominant_graph(self):
        m, n = DiscreteKey("m", 2), DiscreteKey("n", 2)
        g = HybridFactorGraph()
        g.add(whiten({"x": [[1.0]]}, [0.0], 1.0))
        c = log_normalization_constant(1.0)
        g.add(HybridGaussianFactor.from_components([m], [
            (whiten({"x": [[1.0]]}, [6.0], 1.0), c),
            (whiten({"x": [[1.0]]}, [0.1], 1.0), c),
        ]))
        g.add(HybridGaussianFactor.from_components([n], [
            (whiten({"x": [[1.0]]}, [0.4], 1.0), c),
            (whiten({"x": [[1.0]]}, [-0.4], 1.0), c),
        ]))
        return g, m, n

    def test_dominant_mode_fixed(self):
        g, m, n = self._dominant_graph()
        bn = sum_product(g)
        assert discrete_marginals(bn)["m"][1] > 0.95
        red, fixed = dead_mode_removal(bn, g, 0.8)
        assert fixed == {"m": 1}
        assert all(f.keys == (n,) or not f.keys for f in red.hybrid_factors
                   if isinstance(f, HybridGaussianFactor))

    def test_balanced_marginal_not_removed(self):
        rng = np.random.default_rng(7)
        a = DiscreteKey("a", 2)
        bn = HybridBayesNet([], DecisionTree([a], [0.6, 0.4]))
        g = HybridFactorGraph()
        g.add(DiscreteFactor([a], [0.6, 0.4]))
        red, fixed = dead_mode_removal(bn, g, 0.8)
        assert fixed == {}
        assert red is g

    def test_posterior_conditioning_identity(self):
        """Eliminating the reduced graph reproduces the original posterior
        conditioned on the fixed modes, to 1e-9."""
        g, m, n = self._dominant_graph()
        bn = sum_product(g)
        red, fixed = dead_mode_removal(bn, g, 0.8)
        probs_full, _ = enumerate_posterior(g)
        cond = probs_full.choose(fixed)
        want = np.asarray(cond.leaves, dtype=float)
        want = want / want.sum()
        got = _joint(sum_product(red))
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_ambiguous_threshold_rejected(self):
        g, m, n = self._dominant_graph()
        bn = sum_product(g)
        with pytest.raises(ValueError, match="ambiguous threshold"):
            dead_mode_removal(bn, g, 0.5)


class TestBnEvaluate:
    def test_empty_net(self):
        assert bn_evaluate(HybridBayesNet(), HybridValues()) == 1.0

    def test_single_discrete(self):
        m = DiscreteKey("m", 2)
        bn = HybridBayesNet([], DecisionTree([m], [0.25, 0.75]))
        assert bn_evaluate(bn, HybridValues(discrete={"m": 1})) == 0.75

    def test_monte_carlo_normalization(self):
        """Sum over modes and importance-sample over the continuous variable:
        the net must integrate to 1 within 2%."""
        rng = np.random.default_rng(8)
        g = random_hybrid_graph(rng, 1, 1, with_discrete_factor=False)
        bn = sum_product(g)
        proposal_sd = 6.0
        xs = rng.normal(scale=proposal_sd, size=20000)
        q = np.exp(-0.5 * (xs / proposal_sd) ** 2) / (proposal_sd * math.sqrt(2 * math.pi))
        total = 0.0
        for mval in range(2):
            dens = np.array([bn_evaluate(bn, HybridValues({"x0": np.array([x])},
                                                          {"m0": mval}))
                             for x in xs])
            total += float(np.mean(dens / q))
        assert total == pytest.approx(1.0, rel=0.02)


class TestBnSample:
    def test_delta_like_net_matches_map(self):
        m = DiscreteKey("m", 2)
        g = HybridFactorGraph()
        g.add(whiten({"x": [[1.0]]}, [2.0], 1e-10))
        g.add(HybridGaussianFactor.from_components([m], [
            (whiten({"x": [[1.0]]}, [2.0], 1e-10), 0.0),
            (whiten({"x": [[1.0]]}, [-50.0], 1e-10), 0.0),
        ]))
        bn = sum_product(g)
        s = bn_sample(bn, 0)
        mv = max_product(g)
        assert s.discrete == mv.discrete
        np.testing.assert_allclose(s.continuous["x"], mv.continuous["x"], atol=1e-3)

    def test_mode_frequencies_match_posterior(self):
        """Empirical mode frequencies over 1e5 ancestral samples stay inside
        3-sigma binomial bounds of P(M | Z)."""
        g, m = mixture_graph()
        bn = sum_product(g)
        n = 100_000
        rng = np.random.default_rng(123)   # shared generator across draws
        counts = sum(1 for _ in range(n) if bn_sample(bn, rng).discrete["m"] == 0)
        p = float(np.asarray(bn.discrete_joint().leaves)[0])
        bound = 3.0 * math.sqrt(p * (1 - p) * n)
        assert abs(counts - p * n) <= bound

    def test_rows_of_pruned_joint_match_frequencies(self):
        """Over 5e4 samples of a pruned three-key net, only live rows are
        drawn, each within 3-sigma binomial bounds of its probability."""
        rng = np.random.default_rng(12)
        bn = prune_bayes_net(sum_product(random_hybrid_graph(rng, 1, 3)), 4)
        joint = bn.discrete_joint()
        assert len(joint.keys) == 3 and np.count_nonzero(joint.leaves) == 4
        n = 50_000
        counts = np.zeros(joint.leaves.shape)
        draws = np.random.default_rng(321)   # shared generator across draws
        for _ in range(n):
            modes = bn_sample(bn, draws).discrete
            counts[tuple(modes[k.id] for k in joint.keys)] += 1
        p = joint.leaves
        assert np.all(counts[p == 0] == 0)
        assert np.all(np.abs(counts - p * n) <= 3.0 * np.sqrt(p * (1 - p) * n))

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(9)
        g = random_hybrid_graph(rng, 3, 2)
        bn = sum_product(g)
        s1 = bn_sample(bn, 77)
        s2 = bn_sample(bn, 77)
        assert s1.discrete == s2.discrete
        for vid in s1.continuous:
            np.testing.assert_array_equal(s1.continuous[vid], s2.continuous[vid])


class TestNilComponents:
    """A hand-built net whose joint lives where x's hybrid conditional has
    no component (m = 1) and is 0 where it has one (m = 0): the constructor
    refuses it, and built without that check every reader picks the
    conditionals at a mode assignment the same way."""

    def _net(self):
        m = DiscreteKey("m", 2)
        leaf = GaussianConditional("x", [[2.0]], {}, [1.0])
        cond = HybridGaussianConditional([m], DecisionTree([m], [leaf, None]))
        joint = DecisionTree([m], [0.0, 1.0])
        with pytest.raises(ValueError, match="the joint is positive where a "
                                             "hybrid conditional has no component"):
            HybridBayesNet([cond], joint)
        return HybridBayesNet._own([cond], joint, None, None)

    def test_evaluate_is_zero_at_a_zero_row_and_a_nil_component(self):
        bn = self._net()
        x = {"x": np.array([0.5])}
        assert bn_evaluate(bn, HybridValues(x, {"m": 0})) == 0.0
        assert bn_evaluate(bn, HybridValues(x, {"m": 1})) == 0.0

    def test_sample_refuses_a_nil_component(self):
        with pytest.raises(RuntimeError, match="sampled a pruned component"):
            bn_sample(self._net(), 0)

    def test_map_refuses_a_nil_component(self):
        with pytest.raises(RuntimeError, match="selects a pruned component"):
            bn_map(self._net())
