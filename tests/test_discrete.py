import math
import operator

import numpy as np
import pytest

from hybridfg.discrete import (DecisionTree, DiscreteConditional,
                               DiscreteFactor, DiscreteKey,
                               eliminate_discrete_max, eliminate_discrete_sum,
                               enumerate_assignments, multiply_factors,
                               prune_to_top)

M = DiscreteKey("m", 2)
N = DiscreteKey("n", 2)
A3 = DiscreteKey("a", 3)
B2 = DiscreteKey("b", 2)


class TestEnumerateAssignments:
    def test_single_binary_key(self):
        assert enumerate_assignments([M]) == [{"m": 0}, {"m": 1}]

    def test_two_binary_keys_all_four_cases(self):
        out = enumerate_assignments([DiscreteKey("m1", 2), DiscreteKey("m2", 2)])
        assert out == [{"m1": 0, "m2": 0}, {"m1": 0, "m2": 1},
                       {"m1": 1, "m2": 0}, {"m1": 1, "m2": 1}]

    def test_product_of_cardinalities(self):
        out = enumerate_assignments([A3, B2])
        assert len(out) == 6
        assert len({tuple(sorted(a.items())) for a in out}) == 6

    def test_enumeration_cap(self):
        keys = [DiscreteKey(f"k{i}", 2) for i in range(21)]
        with pytest.raises(ValueError, match="enumeration too large"):
            enumerate_assignments(keys)

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            enumerate_assignments([])


class TestTreeApply:
    def test_constants_multiply(self):
        t = DecisionTree.constant(2.0).apply(DecisionTree.constant(3.0),
                                             operator.mul)
        assert t.leaf({}) == 6.0

    def test_outer_product(self):
        t1 = DecisionTree([M], [1.0, 2.0])
        t2 = DecisionTree([N], [5.0, 7.0])
        out = t1.apply(t2, operator.mul)
        assert [k.id for k in out.keys] == ["m", "n"]
        assert out.leaves.reshape(-1).tolist() == [5.0, 7.0, 10.0, 14.0]

    def test_identity(self):
        t = DecisionTree([M, N], [1.0, 2.0, 3.0, 4.0])
        out = t.apply(DecisionTree.constant(1.0), operator.mul)
        np.testing.assert_array_equal(out.leaves, t.leaves)

    def test_leafwise_correct_on_random_assignments(self):
        """leaf(apply(t1, t2, op)) == op(leaf(t1), leaf(t2)) exactly."""
        rng = np.random.default_rng(0)
        keys = [DiscreteKey(f"k{i}", int(c)) for i, c in
                enumerate(rng.integers(2, 4, size=4))]
        t1 = DecisionTree(keys[:3], rng.uniform(size=int(np.prod([k.cardinality for k in keys[:3]]))))
        t2 = DecisionTree(keys[1:], rng.uniform(size=int(np.prod([k.cardinality for k in keys[1:]]))))
        out = t1.apply(t2, operator.add)
        full = enumerate_assignments(keys)
        picks = rng.choice(len(full), size=1000)
        for i in picks:
            a = full[i]
            assert out.leaf(a) == t1.leaf(a) + t2.leaf(a)

    def test_infinities_propagate(self):
        t1 = DecisionTree([M], [math.inf, 1.0])
        out = t1.apply(DecisionTree.constant(2.0), operator.mul)
        assert out.leaf({"m": 0}) == math.inf


class TestLiveLeaves:
    """live_leaves() gives exactly the non-nil cells in flat C order."""

    @staticmethod
    def _random_tree(rng, nil_frac):
        keys = [DiscreteKey(f"k{i}", int(c))
                for i, c in enumerate(rng.integers(1, 4, size=rng.integers(0, 4)))]
        n = int(np.prod([k.cardinality for k in keys]))
        payloads = [lambda i: ("leaf", i), lambda i: (object(), float(i)),
                    lambda i: f"s{i}", lambda i: object()]
        make = payloads[rng.integers(len(payloads))]
        leaves = [None if rng.random() < nil_frac else make(i) for i in range(n)]
        # Declared in shuffled order: the tree stores them permuted to id order.
        return DecisionTree([keys[i] for i in rng.permutation(len(keys))], leaves)

    def test_random_object_trees(self):
        rng = np.random.default_rng(21)
        seen = {"keyless": 0, "all_nil": 0, "tuple": 0}
        for _ in range(300):
            t = self._random_tree(rng, rng.choice([0.0, 0.4, 1.0]))
            want = [x for x in t.leaves.flat if x is not None]
            got = t.live_leaves()
            assert len(got) == len(want)
            assert all(g is w for g, w in zip(got, want))
            seen["keyless"] += not t.keys
            seen["all_nil"] += not want
            seen["tuple"] += any(isinstance(x, tuple) for x in want)
        assert all(seen.values()), seen

    def test_keyless_trees(self):
        assert DecisionTree((), [None]).live_leaves() == []
        leaf = ("jf", 0.5)
        assert DecisionTree.constant(leaf).live_leaves()[0] is leaf

    def test_float_tree_is_all_live(self):
        t = DecisionTree([M, N], [0.1, 0.0, math.inf, 2.0])
        assert t.live_leaves() == [0.1, 0.0, math.inf, 2.0]


class TestTreeChoose:
    def test_partial_choice(self):
        t = DecisionTree([DiscreteKey("m0", 2), DiscreteKey("m1", 2)],
                         [1.0, 2.0, 3.0, 4.0])
        out = t.choose({"m0": 1})
        assert [k.id for k in out.keys] == ["m1"]
        assert out.leaves.tolist() == [3.0, 4.0]

    def test_empty_choice_is_identity(self):
        t = DecisionTree([M, N], [1.0, 2.0, 3.0, 4.0])
        out = t.choose({})
        assert out.keys == t.keys
        np.testing.assert_array_equal(out.leaves, t.leaves)

    def test_full_assignment_leaves_scalar(self):
        t = DecisionTree([M, N], [1.0, 2.0, 3.0, 4.0])
        out = t.choose({"m": 1, "n": 0})
        assert out.keys == ()
        assert out.leaf({}) == 3.0

    def test_out_of_range_value(self):
        t = DecisionTree([M], [1.0, 2.0])
        with pytest.raises(ValueError, match="invalid assignment"):
            t.choose({"m": 2})


class TestEliminateDiscreteSum:
    def test_direct_ratio(self):
        psi = DiscreteFactor([M], [1.0, 3.0])
        cond, tau = eliminate_discrete_sum(psi, M)
        assert tau.potentials.leaf({}) == 4.0
        assert cond.value({"m": 0}) == 0.25
        assert cond.value({"m": 1}) == 0.75

    def test_uniform_table(self):
        psi = DiscreteFactor([M, N], np.ones(4))
        cond, tau = eliminate_discrete_sum(psi, M)
        np.testing.assert_allclose(tau.potentials.leaves, [2.0, 2.0])
        np.testing.assert_allclose(cond.potentials.leaves, 0.5)

    def test_random_table_matches_exhaustive_sum(self):
        """tau and the conditional agree with explicit sums over the
        enumerated assignments."""
        rng = np.random.default_rng(1)
        psi = DiscreteFactor([M, N], rng.uniform(0.1, 1.0, size=4))
        cond, tau = eliminate_discrete_sum(psi, M)
        for n_val in range(2):
            total = sum(psi.value({"m": mv, "n": n_val}) for mv in range(2))
            assert tau.potentials.leaf({"n": n_val}) == pytest.approx(total, abs=1e-15)
            for m_val in range(2):
                want = psi.value({"m": m_val, "n": n_val}) / total
                assert cond.value({"m": m_val, "n": n_val}) == pytest.approx(want, abs=1e-15)

    def test_zero_slice_gives_uniform_conditional(self):
        psi = DiscreteFactor([M, N], [0.4, 0.0, 0.6, 0.0])
        cond, tau = eliminate_discrete_sum(psi, M)
        assert tau.potentials.leaf({"n": 1}) == 0.0
        assert cond.value({"m": 0, "n": 1}) == 0.5
        assert cond.value({"m": 1, "n": 1}) == 0.5

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            keys = [M, N, A3]
            psi = DiscreteFactor(keys, rng.uniform(size=12))
            cond, _ = eliminate_discrete_sum(psi, N)
            axis = cond.potentials.keys.index(N)
            sums = cond.potentials.leaves.sum(axis=axis)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_remultiplying_reproduces_product(self):
        """conditional * tau == psi leafwise (1e-12 relative, tau > 0)."""
        rng = np.random.default_rng(3)
        psi = DiscreteFactor([M, N, B2], rng.uniform(0.1, 2.0, size=8))
        cond, tau = eliminate_discrete_sum(psi, M)
        back = cond.potentials.apply(tau.potentials, operator.mul)
        np.testing.assert_allclose(back.leaves, psi.potentials.leaves, rtol=1e-12)


class TestEliminateDiscreteMax:
    def test_argmax_and_max(self):
        psi = DiscreteFactor([M], [1.0, 3.0])
        lookup, tau = eliminate_discrete_max(psi, M)
        assert lookup.argmax({}) == 1
        assert tau.potentials.leaf({}) == 3.0

    def test_tie_breaks_to_smallest_index(self):
        psi = DiscreteFactor([M], [2.0, 2.0])
        lookup, tau = eliminate_discrete_max(psi, M)
        assert lookup.argmax({}) == 0
        assert tau.potentials.leaf({}) == 2.0

    def test_three_key_mpe_matches_brute_force(self):
        rng = np.random.default_rng(4)
        keys = [DiscreteKey("a", 3), DiscreteKey("b", 2), DiscreteKey("c", 2)]
        psi = DiscreteFactor(keys, rng.uniform(size=12))
        mpe = _chain_mpe([psi], keys)
        best = max(enumerate_assignments(keys), key=lambda a: (psi.value(a), ))
        assert mpe == best


def _chain_mpe(factors, keys):
    """Max-product elimination over a discrete factor list, then the
    backward argmax pass."""
    factors = list(factors)
    lookups = []
    for key in sorted(keys, key=lambda k: k.id):
        involved = [f for f in factors if key in f.keys]
        rest = [f for f in factors if key not in f.keys]
        lookup, tau = eliminate_discrete_max(multiply_factors(involved), key)
        lookups.append(lookup)
        factors = rest + ([tau] if tau.keys else [])
    out = {}
    for lk in reversed(lookups):
        out[lk.frontal.id] = lk.argmax(out)
    return out


class TestDiscreteMpeProperty:
    def test_chain_mpe_equals_exhaustive_argmax(self):
        """Sequential max elimination finds the exact MPE on every random
        factor set small enough to enumerate (product of cardinalities
        <= 4096)."""
        rng = np.random.default_rng(5)
        for trial in range(25):
            n = int(rng.integers(2, 7))
            keys = [DiscreteKey(f"k{i}", int(rng.integers(2, 4))) for i in range(n)]
            assert np.prod([k.cardinality for k in keys]) <= 4096
            factors = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(1, min(3, n) + 1))
                sub = sorted(rng.choice(n, size=size, replace=False))
                fkeys = [keys[i] for i in sub]
                card = int(np.prod([k.cardinality for k in fkeys]))
                factors.append(DiscreteFactor(fkeys, rng.uniform(0.05, 1.0, size=card)))
            covered = {k.id for f in factors for k in f.keys}
            used = [k for k in keys if k.id in covered]
            if not used:
                continue
            mpe = _chain_mpe(factors, used)
            def joint(a):
                p = 1.0
                for f in factors:
                    p *= f.value(a)
                return p
            best = max(enumerate_assignments(used), key=joint)
            assert joint(mpe) == pytest.approx(joint(best), rel=1e-12)


class TestPruneToTop:
    def test_basic(self):
        t = DecisionTree([M, N], [0.1, 0.4, 0.3, 0.2])
        out = prune_to_top(t, 2)
        assert out.leaves.reshape(-1).tolist() == [0.0, 0.4, 0.3, 0.0]

    def test_p_larger_than_leaf_count(self):
        t = DecisionTree([M, N], [0.1, 0.4, 0.3, 0.2])
        out = prune_to_top(t, 10)
        np.testing.assert_array_equal(out.leaves, t.leaves)

    def test_random_against_sort_oracle(self):
        rng = np.random.default_rng(6)
        keys = [DiscreteKey(f"k{i}", 2) for i in range(5)]
        vals = rng.uniform(size=32)
        out = prune_to_top(DecisionTree(keys, vals), 3)
        flat = out.leaves.reshape(-1)
        assert np.count_nonzero(flat) == 3
        keep = set(np.argsort(-vals, kind="stable")[:3])
        assert set(np.flatnonzero(flat)) == keep
        np.testing.assert_array_equal(flat[list(keep)], vals[list(keep)])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        t = DecisionTree([M, N, B2], rng.uniform(size=8))
        once = prune_to_top(t, 3)
        twice = prune_to_top(once, 3)
        np.testing.assert_array_equal(once.leaves, twice.leaves)

    def test_cut_ties_keep_earlier_assignment(self):
        t = DecisionTree([M, N], [0.5, 0.2, 0.5, 0.5])
        out = prune_to_top(t, 2)
        assert out.leaves.reshape(-1).tolist() == [0.5, 0.0, 0.5, 0.0]

    def test_rounding_level_ties_keep_earlier_assignment(self):
        """Leaves tied with the cut up to a relative 1e-15 count as tied:
        every perturbation of them keeps the same rows, those above the tie
        and then the earliest tied ones."""
        keys = [DiscreteKey(f"k{i}", 2) for i in range(3)]
        base = np.array([0.1, 0.3, 0.6, 0.3, 0.05, 0.3, 0.3, 0.2])
        tied = np.flatnonzero(base == 0.3)
        rng = np.random.default_rng(8)
        for trial in range(50):
            vals = base.copy()
            vals[tied] *= 1.0 + 1e-15 * rng.choice([-1.0, 0.0, 1.0], tied.size)
            flat = prune_to_top(DecisionTree(keys, vals), 3).leaves.reshape(-1)
            assert np.flatnonzero(flat).tolist() == [1, 2, 3], trial
            np.testing.assert_array_equal(flat[[1, 2, 3]], vals[[1, 2, 3]])


class TestContainers:
    def test_tree_size_cap(self):
        keys = [DiscreteKey(f"k{i}", 2) for i in range(21)]
        with pytest.raises(ValueError, match="enumeration too large"):
            DecisionTree(keys, 0.0)

    def test_potentials_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteFactor([M], [-0.1, 1.0])

    def test_potentials_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            DiscreteFactor([M], [math.inf, 1.0])

    def test_conditional_validates_normalization(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteConditional(M, (), DecisionTree([M], [0.3, 0.3]))

    def test_cardinality_must_be_positive(self):
        with pytest.raises(ValueError):
            DiscreteKey("m", 0)

    def test_key_cardinality_conflict_detected(self):
        t1 = DecisionTree([M], [1.0, 2.0])
        t2 = DecisionTree([DiscreteKey("m", 3)], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="cardinalities"):
            t1.apply(t2, operator.mul)

    def test_log_domain_product_matches_linear(self):
        """A 70-factor product, rescaled whenever it leaves the exponent
        band, keeps the ratios of the plain product."""
        rng = np.random.default_rng(8)
        factors = [DiscreteFactor([M], rng.uniform(0.5, 1.5, size=2))
                   for _ in range(70)]
        big = multiply_factors(factors)
        direct = np.ones(2)
        for f in factors:
            direct *= np.asarray(f.potentials.leaves)
        got = np.asarray(big.potentials.leaves)
        np.testing.assert_allclose(got / got.sum(), direct / direct.sum(),
                                   rtol=1e-10)

    def test_product_of_tiny_tables_does_not_underflow(self):
        """40 tables [1e-10, 2e-10] multiply to 1e-400 * [1, 2**40], below
        the smallest double: rescaling keeps the ratio."""
        f = DiscreteFactor([M], [1e-10, 2e-10])
        got = np.asarray(multiply_factors([f] * 40).potentials.leaves)
        np.testing.assert_allclose(got / got.sum(), np.array(
            [1.0, 2.0 ** 40]) / (1.0 + 2.0 ** 40), rtol=1e-12)

    def test_product_of_huge_tables_does_not_overflow(self):
        """3 tables [1e200, 2e200] multiply to 1e600 * [1, 8], above the
        largest double: rescaling keeps the product finite."""
        f = DiscreteFactor([M], [1e200, 2e200])
        got = np.asarray(multiply_factors([f] * 3).potentials.leaves)
        assert np.isfinite(got).all()
        assert got[1] / got[0] == 8.0

    def test_empty_product_is_one_over_no_keys(self):
        one = multiply_factors([])
        assert one.keys == () and one.potentials.leaves.tolist() == 1.0
