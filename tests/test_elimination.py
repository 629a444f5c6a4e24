import math

import numpy as np
import pytest

from hybridfg import (DecisionTree, DiscreteFactor, DiscreteKey,
                      GaussianConditional, HybridBayesNet, HybridFactorGraph,
                      HybridGaussianConditional, HybridGaussianFactor,
                      HybridValues, JacobianFactor,
                      bn_evaluate, bn_map, bn_sample, dead_mode_removal,
                      discrete_marginals, eliminate_hybrid_sum, eliminate_one,
                      log_normalization_constant, max_product,
                      prune_bayes_net, strong_ordering, sum_product, whiten)
from hybridfg import elimination
from hybridfg.discrete import DiscreteConditional, _merge_keys, prune_to_top
from hybridfg.gaussian import UnderconstrainedVariable
from hybridfg.hybrid import discrete_factor_from_leaves
from hybridfg.elimination import hypothesis_support, restrict_to_support
from hybridfg.oracle import enumerate_map, enumerate_posterior

from helpers import hypothesis_chain_graph, mixture_graph, random_hybrid_graph

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


def _quadratic_ordering(g):
    """Reference: the minimum-degree rule as a min() over all remaining
    variables per step, which strong_ordering used before its heap."""
    cont = g.continuous_variables()
    adj = {v: set() for v in cont}
    for vs in [f.variables for f in g.continuous_factors] \
            + [f.continuous_ids for f in g.hybrid_factors]:
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
    def test_matches_quadratic_min_degree(self):
        """The heap returns exactly the min() rule's ordering on random
        graphs with int ids and with tuple ids like the SLAM runner's."""
        rng = np.random.default_rng(12)
        for trial in range(200):
            n = int(rng.integers(1, 16))
            ids = list(range(n)) if trial % 2 else [("x", k) for k in range(n)]
            g = _random_structure_graph(rng, ids)
            assert strong_ordering(g) == _quadratic_ordering(g), trial

    def test_ties_break_by_id(self):
        """A star: every leaf has degree 1, so the smallest id goes first;
        eliminating it leaves the rest tied again."""
        g = HybridFactorGraph()
        for leaf in (5, 3, 9, 1):
            g.add(JacobianFactor({0: [[1.0]], leaf: [[1.0]]}, [0.0]))
        assert strong_ordering(g) == [1, 3, 5, 0, 9]


def _walk_reference(factors, var):
    """Reference: eliminate_hybrid_sum's former walk over every cell of the
    clique's mode grid with np.ndindex, one leaf lookup per hybrid per cell.
    Returns the clique keys and, per cell in flat order, "nil" (a hybrid
    has no component), "rank" (x underconstrained) or (conditional,
    marginal, separator constant)."""
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
            conditional, marginal = eliminate_one(stack, var)
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
    """Reference: the former nil rule of prune_bayes_net and
    restrict_to_support, a max-marginal of the 0/1 support onto the keys it
    shares with the tree, then an object-tree apply."""
    keep = {k.id for k in tree.keys}
    axes = tuple(i for i, k in enumerate(support.keys) if k.id not in keep)
    vals = np.asarray(support.leaves, dtype=float)
    if axes:
        vals = vals.max(axis=axes)
    alive = DecisionTree(tuple(k for k in support.keys if k.id in keep), vals)
    return tree.apply(alive, lambda leaf, a: leaf if a > 0 else None)


def _same_leaves(a, b):
    return a.keys == b.keys and all(
        x is y for x, y in zip(a.leaves.reshape(-1), b.leaves.reshape(-1)))


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

    def test_restrict_to_support_matches_reference_rule(self):
        """Supports over random subsets of the graph's keys: some miss keys
        of a factor, some hold keys a factor lacks."""
        rng = np.random.default_rng(22)
        pool = [DiscreteKey(f"m{j}", int(rng.integers(2, 4))) for j in range(4)]
        jf = JacobianFactor({"x": [[1.0]]}, [0.0])
        lacking = missing = 0
        for trial in range(200):
            g = HybridFactorGraph()
            for _ in range(int(rng.integers(1, 4))):
                picks = sorted(rng.choice(4, size=int(rng.integers(1, 4)),
                                          replace=False))
                keys = [pool[i] for i in picks]
                n = math.prod(k.cardinality for k in keys)
                g.add(HybridGaussianFactor.from_components(
                    keys, [(jf, float(i)) for i in range(n)]))
            gkeys = g.discrete_keys()
            skeys = [gkeys[i] for i in sorted(rng.choice(
                len(gkeys), size=int(rng.integers(1, len(gkeys) + 1)),
                replace=False))]
            vals = (rng.random(math.prod(k.cardinality for k in skeys)) < 0.4)
            vals[int(rng.integers(vals.size))] = True
            support = DecisionTree(skeys, vals.astype(float))
            sids = {k.id for k in skeys}
            want = []
            for hf in g.hybrid_factors:
                fids = {k.id for k in hf.keys}
                lacking += bool(sids - fids)
                missing += bool(fids - sids)
                want.append(hf.components if sids.isdisjoint(fids)
                            else _nil_by_support_reference(hf.components, support))
            if any(all(leaf is None for leaf in w.leaves.reshape(-1))
                   for w in want):
                with pytest.raises(ValueError, match="live component"):
                    restrict_to_support(g, support)
                continue
            out = restrict_to_support(g, support)
            for hf, w in zip(out.hybrid_factors, want):
                assert _same_leaves(hf.components, w), trial
        assert lacking and missing

    def test_prune_matches_reference_rule(self):
        rng = np.random.default_rng(23)
        nils = 0
        for trial in range(60):
            g = random_hybrid_graph(rng, int(rng.integers(2, 5)),
                                    int(rng.integers(1, 5)),
                                    two_var_hybrids=True)
            bn = sum_product(g)
            P = int(rng.integers(1, 6))
            pruned = prune_to_top(bn.discrete_joint(), P)
            support = DecisionTree(pruned.keys, (pruned.leaves > 0).astype(float))
            out = prune_bayes_net(bn, P)
            for c, c2 in zip(bn.continuous_conditionals(),
                             out.continuous_conditionals()):
                if isinstance(c, HybridGaussianConditional):
                    w = _nil_by_support_reference(c.components, support)
                    assert _same_leaves(c2.components, w), trial
                    nils += sum(leaf is None for leaf in w.leaves.reshape(-1))
                else:
                    assert c2 is c
        assert nils > 0


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

    def test_too_many_modes_refused_before_any_qr(self, monkeypatch):
        """21 binary modes on one variable exceed the enumeration cap: the
        clique fails at once instead of running a QR per mode."""
        factors = [HybridGaussianFactor.from_components(
            [DiscreteKey(f"m{i:02d}", 2)],
            [(whiten({"x": [[1.0]]}, [float(v)], 1.0), 0.0) for v in (0, 1)])
            for i in range(21)]

        def no_qr(*args):
            raise AssertionError("per-mode QR started")
        monkeypatch.setattr(elimination, "eliminate_one", no_qr)
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
        assert isinstance(bn.conditionals[2], DiscreteConditional)
        assert bn.conditionals[2].frontal == m

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
        the product of separator key cardinalities; after restricting to a
        pruned support, nonzero components stay within P * K."""
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
        g2 = restrict_to_support(g, support)
        new_key = DiscreteKey("z9", 2)
        g2.add(HybridGaussianFactor.from_components([new_key], [
            (whiten({"x0": [[1.0]]}, [0.0], 1.0), 0.0),
            (whiten({"x0": [[1.0]]}, [0.5], 1.0), 0.0),
        ]))
        bn2 = sum_product(g2)
        assert int(np.count_nonzero(_joint(bn2))) <= 4 * new_key.cardinality


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
            for a in probs.assignments():
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


class TestBnMap:
    @pytest.mark.parametrize("P", [1, 2, 4])
    def test_pruned_net_matches_oracle_on_its_support(self, P):
        """The MAP read off a pruned net, as a Gauss-Newton step takes it,
        is the oracle MAP of the graph restricted to the net's hypotheses."""
        for seed in range(60):
            rng = np.random.default_rng(2000 + seed)
            g = random_hybrid_graph(rng, int(rng.integers(1, 6)),
                                    int(rng.integers(1, 5)),
                                    two_var_hybrids=True)
            pruned = prune_bayes_net(sum_product(g), P)
            got = bn_map(pruned)
            want = enumerate_map(restrict_to_support(g, hypothesis_support(pruned)))
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

    def test_nil_pick_raises(self):
        m = DiscreteKey("m", 2)
        leaf = GaussianConditional("x", [[1.0]], {}, [0.0])
        bn = HybridBayesNet([
            HybridGaussianConditional([m], DecisionTree([m], [leaf, None])),
            DiscreteConditional(m, [], DecisionTree([m], [0.0, 1.0]))])
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
        bn = HybridBayesNet([
            DiscreteConditional(a, (b,), DecisionTree([a, b], [0.5] * 4)),
            DiscreteConditional(b, (), DecisionTree([b], [0.5, 0.5])),
        ])
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

    def test_hybrid_conditionals_get_nil_leaves(self):
        """A component is nil exactly when no surviving hypothesis agrees
        with it on the conditional's keys."""
        rng = np.random.default_rng(6)
        g = random_hybrid_graph(rng, 2, 2, with_discrete_factor=False)
        bn = prune_bayes_net(sum_product(g), 1)
        alive = [a for a, v in bn.discrete_joint().items() if v > 0]
        hybrids = [c for c in bn.continuous_conditionals()
                   if isinstance(c, HybridGaussianConditional)]
        assert hybrids
        nils = 0
        for c in hybrids:
            for a, leaf in c.components.items():
                agrees = any(all(h[kid] == v for kid, v in a.items())
                             for h in alive)
                assert (leaf is None) == (not agrees), (c, a)
                nils += leaf is None
        assert nils > 0


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
        bn = HybridBayesNet([DiscreteConditional(a, (), DecisionTree([a], [0.6, 0.4]))])
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
        bn = HybridBayesNet([DiscreteConditional(m, (), DecisionTree([m], [0.25, 0.75]))])
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

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(9)
        g = random_hybrid_graph(rng, 3, 2)
        bn = sum_product(g)
        s1 = bn_sample(bn, 77)
        s2 = bn_sample(bn, 77)
        assert s1.discrete == s2.discrete
        for vid in s1.continuous:
            np.testing.assert_array_equal(s1.continuous[vid], s2.continuous[vid])
