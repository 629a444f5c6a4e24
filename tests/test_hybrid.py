import math

import numpy as np
import pytest

from hybridfg import (DecisionTree, DiscreteKey, GaussianConditional,
                      HybridBayesNet, HybridFactorGraph,
                      HybridGaussianConditional, HybridGaussianFactor,
                      JacobianFactor, conditional_to_factor,
                      discrete_factor_from_leaves, eliminate_hybrid_sum,
                      enumerate_assignments, log_normalization_constant,
                      whiten)
from hybridfg.discrete import DiscreteConditional

M = DiscreteKey("m", 2)


def _mode_factor(sig0, sig1, z=0.0):
    return HybridGaussianFactor.from_components([M], [
        (whiten({"x": [[1.0]]}, [z], sig0 ** 2), log_normalization_constant(sig0 ** 2)),
        (whiten({"x": [[1.0]]}, [z], sig1 ** 2), log_normalization_constant(sig1 ** 2)),
    ])


class TestHgfError:
    def test_identical_modes_same_error(self):
        f = _mode_factor(1.0, 1.0, z=0.5)
        x = {"x": np.array([0.2])}
        e0 = f.error(x, {"m": 0})
        e1 = f.error(x, {"m": 1})
        assert e0 == e1

    def test_constant_shifts_by_log_sigma_ratio(self):
        """sigma 1 vs 2 with zero residual: error difference is exactly the
        normalizer gap log(2)."""
        f = _mode_factor(1.0, 2.0, z=0.0)
        x = {"x": np.array([0.0])}
        e0 = f.error(x, {"m": 0})
        e1 = f.error(x, {"m": 1})
        assert e1 - e0 == pytest.approx(math.log(2.0), abs=1e-12)

    def test_pruned_leaf_is_infinite(self):
        f = HybridGaussianFactor.from_components([M], [
            (whiten({"x": [[1.0]]}, [0.0], 1.0), 0.0),
            None,
        ])
        assert f.error({"x": np.array([0.0])}, {"m": 1}) == math.inf

    def test_missing_assignment(self):
        f = _mode_factor(1.0, 2.0)
        with pytest.raises(ValueError, match="incomplete"):
            f.error({"x": np.array([0.0])}, {})

    def test_mode_selective(self):
        """Selecting a mode gives exactly that leaf's Gaussian error plus its
        constant."""
        f = _mode_factor(0.7, 1.9, z=1.1)
        x = {"x": np.array([0.4])}
        for mode in range(2):
            jf, c = f.component({"m": mode})
            want = jf.error(x) + c
            assert f.error(x, {"m": mode}) == want


def _two_mode_conditional(sig0=1.0, sig1=2.0):
    c0 = GaussianConditional("x", [[1.0 / sig0]], {"y": [[0.3 / sig0]]}, [0.5 / sig0])
    c1 = GaussianConditional("x", [[1.0 / sig1]], {"y": [[-0.2 / sig1]]}, [1.5 / sig1])
    return HybridGaussianConditional([M], DecisionTree([M], [c0, c1]))


class TestConditionalToFactor:
    def test_shared_sigma_gives_zero_constants(self):
        hgc = _two_mode_conditional(1.3, 1.3)
        fac = conditional_to_factor(hgc)
        for leaf in fac.components.leaves.reshape(-1):
            assert leaf[1] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_sigma_ratio(self):
        hgc = _two_mode_conditional(1.0, 2.0)
        fac = conditional_to_factor(hgc)
        c0 = fac.component({"m": 0})[1]
        c1 = fac.component({"m": 1})[1]
        assert c0 == pytest.approx(0.0, abs=1e-12)
        assert c1 == pytest.approx(math.log(2.0), abs=1e-12)

    def test_constants_nonnegative_with_zero_minimum(self):
        hgc = _two_mode_conditional(0.4, 2.7)
        fac = conditional_to_factor(hgc)
        cs = [leaf[1] for leaf in fac.components.leaves.reshape(-1)]
        assert min(cs) == 0.0
        assert all(c >= 0.0 for c in cs)

    def test_round_trip_through_elimination(self):
        """Eliminating the emitted factor reproduces the conditional leafwise."""
        hgc = _two_mode_conditional(1.0, 2.0)
        fac = conditional_to_factor(hgc)
        cond2, _ = eliminate_hybrid_sum([fac], "x")
        for a in enumerate_assignments(hgc.keys):
            l1, l2 = hgc.component(a), cond2.component(a)
            np.testing.assert_allclose(l1.R, l2.R, atol=1e-10)
            np.testing.assert_allclose(l1.d, l2.d, atol=1e-10)
            np.testing.assert_allclose(l1.parent_blocks["y"],
                                       l2.parent_blocks["y"], atol=1e-10)

    def test_density_ratios_preserved(self):
        """exp(-error_m + error_mtilde) matches the conditional density ratio
        between modes up to the constant offsets, within 1e-10."""
        rng = np.random.default_rng(0)
        hgc = _two_mode_conditional(0.8, 1.7)
        fac = conditional_to_factor(hgc)
        for _ in range(20):
            v = {"x": rng.normal(size=1), "y": rng.normal(size=1)}
            dens = []
            errs = []
            for mode in range(2):
                leaf = hgc.component({"m": mode})
                dens.append(leaf.density(v))
                errs.append(fac.error(v, {"m": mode}))
            got = math.exp(-errs[0] + errs[1])
            want = dens[0] / dens[1]
            # The factor drops the mode-independent min normalizer only, so
            # the ratio must match with no leftover offset.
            assert got == pytest.approx(want, rel=1e-10)


class TestDiscreteFactorFromLeaves:
    def test_equal_leaves(self):
        f = discrete_factor_from_leaves(DecisionTree([M], [0.0, 0.0]))
        np.testing.assert_allclose(f.potentials.leaves, [1.0, 1.0])

    def test_gap_of_two(self):
        f = discrete_factor_from_leaves(DecisionTree([M], [0.0, 2.0]))
        np.testing.assert_allclose(f.potentials.leaves, [1.0, math.exp(-2.0)])

    def test_shift_invariance(self):
        f1 = discrete_factor_from_leaves(DecisionTree([M], [1.0, 3.0]))
        f2 = discrete_factor_from_leaves(DecisionTree([M], [101.0, 103.0]))
        np.testing.assert_allclose(f1.potentials.leaves, f2.potentials.leaves)

    def test_nil_leaf_becomes_zero(self):
        t = DecisionTree([M], [0.5, None])
        f = discrete_factor_from_leaves(t)
        np.testing.assert_allclose(f.potentials.leaves, [1.0, 0.0])

    def test_float_leaves_match_object_leaves(self):
        """A float tree, with +inf for nil, gives the bits of the same
        leaves held as objects with None, all-nil trees included."""
        rng = np.random.default_rng(12)
        keys = [M, DiscreteKey("n", 3)]
        for _ in range(200):
            vals = rng.normal(scale=10.0 ** rng.uniform(-2, 3), size=6)
            nil = rng.random(6) < rng.choice([0.0, 0.3, 1.0])
            objects = [None if n else float(v) for v, n in zip(vals, nil)]
            floats = np.where(nil, math.inf, vals)
            want = discrete_factor_from_leaves(DecisionTree(keys, objects))
            got = discrete_factor_from_leaves(DecisionTree(keys, floats))
            assert got.potentials.leaves.tobytes() == want.potentials.leaves.tobytes()
            assert np.all(got.potentials.leaves.reshape(-1)[nil] == 0.0)


class TestStructuralInvariants:
    def test_leaves_must_share_variables(self):
        good = (whiten({"x": [[1.0]]}, [0.0], 1.0), 0.0)
        bad = (whiten({"y": [[1.0]]}, [0.0], 1.0), 0.0)
        with pytest.raises(ValueError, match="share continuous variables"):
            HybridGaussianFactor.from_components([M], [good, bad])

    def test_heterogeneous_dimensions_rejected(self):
        good = (JacobianFactor({"x": [[1.0]]}, [0.0]), 0.0)
        bad = (JacobianFactor({"x": [[1.0, 0.0]]}, [0.0]), 0.0)
        with pytest.raises(ValueError, match="column dimensions"):
            HybridGaussianFactor.from_components([M], [good, bad])

    def test_continuous_variable_required(self):
        """A factor over modes alone belongs in a DiscreteFactor; elimination
        would otherwise never reach its per-mode constants."""
        residual = (JacobianFactor({}, [1.0]), 0.0)
        with pytest.raises(ValueError, match="continuous variable"):
            HybridGaussianFactor.from_components([M], [residual, residual])

    def test_conditional_leaves_share_structure(self):
        c0 = GaussianConditional("x", [[1.0]], {}, [0.0])
        c1 = GaussianConditional("x", [[1.0]], {"y": [[1.0]]}, [0.0])
        with pytest.raises(ValueError, match="share frontal and parents"):
            HybridGaussianConditional([M], DecisionTree([M], [c0, c1]))

    def test_graph_rejects_foreign_objects(self):
        g = HybridFactorGraph()
        with pytest.raises(TypeError):
            g.add(GaussianConditional("x", [[1.0]], {}, [0.0]))
        # Has .components like a hybrid factor, but is a conditional.
        with pytest.raises(TypeError):
            g.add(_two_mode_conditional())

    def test_bayes_net_rejects_discrete_conditionals(self):
        """The discrete part of a net is its joint table, never a chain."""
        dc = DiscreteConditional(M, (), DecisionTree([M], [0.5, 0.5]))
        gc = GaussianConditional("x", [[1.0]], {}, [0.0])
        assert len(HybridBayesNet([gc], DecisionTree([M], [0.5, 0.5]))) == 1
        with pytest.raises(TypeError, match="DiscreteConditional"):
            HybridBayesNet([gc, dc])

    def test_id_shared_between_continuous_and_discrete_rejected(self):
        g = HybridFactorGraph()
        g.add(JacobianFactor({"m": [[1.0]]}, [0.0]))
        g.add(HybridGaussianFactor.from_components([M], [
            (whiten({"m": [[1.0]]}, [0.0], 1.0), 0.0),
            (whiten({"m": [[1.0]]}, [0.0], 1.0), 0.0),
        ]))
        with pytest.raises(ValueError, match="both continuous and discrete"):
            g.discrete_keys()

    def test_normalization_identity_on_elimination_output(self):
        """Every leaf produced by hybrid elimination satisfies the log-det
        normalizer identity within 1e-12."""
        f = _mode_factor(0.6, 2.2, z=0.9)
        prior = whiten({"x": [[1.0]], "y": [[0.5]]}, [0.0, 0.0][:1], 1.0)
        cond, _ = eliminate_hybrid_sum([f, prior], "x")
        for leaf in cond.components.leaves.reshape(-1):
            n = leaf.dim
            want = 0.5 * n * math.log(2.0 * math.pi) \
                - float(np.sum(np.log(np.diag(leaf.R))))
            assert leaf.log_normalizer == pytest.approx(want, abs=1e-12)


class TestDiscreteJoint:
    def test_joint_is_read_only(self):
        """The net holds the table it was given; its leaves are read-only."""
        K = DiscreteKey("k", 3)
        gc = GaussianConditional("x", [[1.0]], {}, [0.0])
        assert HybridBayesNet([gc]).discrete_joint() is None
        table = DecisionTree([K, M], np.array([[0.05, 0.375], [0.075, 0.1875],
                                               [0.125, 0.1875]]))
        bn = HybridBayesNet([gc], table)
        assert bn.discrete_joint() is table
        assert bn.discrete_keys() == (K, M)
        assert not bn.discrete_joint().leaves.flags.writeable

    def test_joint_checked_on_construction(self):
        """The joint must sum to 1 and cover every hybrid conditional's keys."""
        with pytest.raises(ValueError, match="sum to 1"):
            HybridBayesNet([], DecisionTree([M], [0.5, 0.6]))
        with pytest.raises(ValueError, match="missing from the joint"):
            HybridBayesNet([_two_mode_conditional()])
        K = DiscreteKey("k", 2)
        with pytest.raises(ValueError, match="missing from the joint"):
            HybridBayesNet([_two_mode_conditional()],
                           DecisionTree([K], [0.5, 0.5]))
