import math

import numpy as np
import pytest

from hybridfg import (DecisionTree, DiscreteFactor, DiscreteKey,
                      HybridBayesNet, HybridFactorGraph, HybridNonlinearFactor,
                      JacobianFactor,
                      NonlinearFactor, OptimizationDiverged, OptimizeConfig,
                      Pose2, between, compose,
                      log_normalization_constant, local, max_product, optimize,
                      retract)
from hybridfg.nonlinear import (BetweenResidual, FuncResidual, LinearResidual,
                                PriorResidual, between_stacked, compose_stacked,
                                inverse_stacked, numerical_jacobians, pose_rows,
                                retract_stacked, retract_values, wrap_angle,
                                wrap_angles)
from hybridfg.oracle import enumerate_map, enumerate_posterior

from helpers import (random_nonlinear_graph, random_pose, reference_between,
                     reference_compose, reference_graph_error,
                     reference_inverse, reference_linearize,
                     reference_retract_values, same_bits, same_marginal)


def _random_pose(rng):
    return Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5),
                 rng.uniform(-math.pi, math.pi))


class TestPoseOps:
    def test_compose_identity(self):
        p = Pose2(1.2, -0.7, 0.3)
        q = compose(Pose2(), p)
        assert (q.x, q.y, q.theta) == (p.x, p.y, p.theta)

    def test_compose_translations(self):
        q = compose(Pose2(1, 0, 0), Pose2(1, 0, 0))
        np.testing.assert_allclose(q.as_vector(), [2.0, 0.0, 0.0], atol=1e-15)

    def test_compose_quarter_turn(self):
        """(0,0,90deg) then forward 1: rotation matrix sends +x to +y."""
        q = compose(Pose2(0, 0, math.pi / 2), Pose2(1, 0, 0))
        R = Pose2(0, 0, math.pi / 2).rotation()
        want = R @ np.array([1.0, 0.0])
        np.testing.assert_allclose([q.x, q.y], want, atol=1e-15)
        assert q.theta == pytest.approx(math.pi / 2)

    def test_between_recovers_delta(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = _random_pose(rng)
            d = _random_pose(rng)
            q = compose(p, d)
            rel = between(p, q)
            np.testing.assert_allclose(rel.as_vector(), d.as_vector(), atol=1e-12)

    def test_retract_local_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p = _random_pose(rng)
            q = _random_pose(rng)
            np.testing.assert_allclose(
                retract(p, local(p, q)).as_vector(), q.as_vector(), atol=1e-12)

    def test_theta_normalized(self):
        assert Pose2(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(math.pi) == pytest.approx(math.pi)


class TestJacobians:
    def test_between_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            values = {"a": _random_pose(rng), "b": _random_pose(rng)}
            res = BetweenResidual("a", "b", _random_pose(rng))
            analytic = res.jacobians(values)
            numeric = numerical_jacobians(res.evaluate, values, ("a", "b"))
            for vid in ("a", "b"):
                np.testing.assert_allclose(analytic[vid], numeric[vid], atol=1e-6)

    def test_prior_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            values = {"a": _random_pose(rng)}
            res = PriorResidual("a", _random_pose(rng))
            analytic = res.jacobians(values)
            numeric = numerical_jacobians(res.evaluate, values, ("a",))
            np.testing.assert_allclose(analytic["a"], numeric["a"], atol=1e-6)


class TestEvaluateWithJacobians:
    def test_shared_residual_evaluated_once_per_linearize(self, monkeypatch):
        """A switchable loop's loose and tight leaves share one residual:
        one linearization evaluates it once.  Linearization goes through
        the class's stacked evaluator, so count what that receives."""
        received = []
        original = BetweenResidual.evaluate_stacked

        def counting(residuals, values):
            received.extend(residuals)
            return original(residuals, values)
        monkeypatch.setattr(BetweenResidual, "evaluate_stacked",
                            staticmethod(counting))
        loop = BetweenResidual("a", "b", Pose2(1, 0, 0.1))
        f = HybridNonlinearFactor.from_components(
            [DiscreteKey("l", 2)], [(loop, np.full(3, 10.0)), (loop, 0.01)])
        lin = f.linearize({"a": Pose2(), "b": Pose2(1.1, 0.1, 0.0)})
        assert received == [loop]
        loose, tight = lin.component({"l": 0}), lin.component({"l": 1})
        np.testing.assert_allclose(loose[0].blocks["a"] * math.sqrt(10.0),
                                   tight[0].blocks["a"] * 0.1, atol=1e-12)


class TestLinearize:
    def test_linear_residual_exact_anywhere(self):
        res = LinearResidual({"x": [[2.0]]}, [3.0])
        f = NonlinearFactor(res, 1.0)
        jf1 = f.linearize({"x": np.array([0.0])})
        jf2 = f.linearize({"x": np.array([10.0])})
        np.testing.assert_allclose(jf1.blocks["x"], jf2.blocks["x"])
        # Same minimizer in absolute coordinates: x0 + delta*.
        d1 = np.linalg.lstsq(jf1.blocks["x"], jf1.rhs, rcond=None)[0]
        d2 = np.linalg.lstsq(jf2.blocks["x"], jf2.rhs, rcond=None)[0]
        assert 0.0 + d1[0] == pytest.approx(10.0 + d2[0], abs=1e-12)

    def test_hybrid_leaves_share_jacobian_scale(self):
        """Leaves differing only in noise scale whiten the same Jacobian and
        carry different constants."""
        m = DiscreteKey("m", 2)
        res = BetweenResidual("a", "b", Pose2(1, 0, 0))
        f = HybridNonlinearFactor.from_components(
            [m], [(res, np.array([1.0, 1.0, 1.0])),
                  (res, np.array([4.0, 4.0, 4.0]))])
        values = {"a": Pose2(), "b": Pose2(1.2, 0.1, 0.05)}
        lin = f.linearize(values)
        jf0, c0 = lin.component({"m": 0})
        jf1, c1 = lin.component({"m": 1})
        np.testing.assert_allclose(jf0.blocks["a"], 2.0 * jf1.blocks["a"], atol=1e-12)
        assert c1 - c0 == pytest.approx(3 * math.log(2.0), abs=1e-12)

    def test_hybrid_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(4)
        m = DiscreteKey("m", 2)
        for _ in range(20):
            values = {"a": _random_pose(rng), "b": _random_pose(rng)}
            r0 = BetweenResidual("a", "b", _random_pose(rng))
            r1 = BetweenResidual("a", "b", _random_pose(rng))
            f = HybridNonlinearFactor.from_components(
                [m], [(r0, 0.5), (r1, 2.0)])
            lin = f.linearize(values)
            for mode, res in ((0, r0), (1, r1)):
                jf, _ = lin.component({"m": mode})
                sd = math.sqrt(0.5) if mode == 0 else math.sqrt(2.0)
                numeric = numerical_jacobians(res.evaluate, values, ("a", "b"))
                for vid in ("a", "b"):
                    np.testing.assert_allclose(jf.blocks[vid] * sd,
                                               numeric[vid], atol=1e-6)

    def test_non_finite_jacobian_raises(self):
        res = FuncResidual(("x",), 1, lambda v: np.array([math.sqrt(abs(float(v["x"][0])))]))
        f = NonlinearFactor(res, 1.0)
        with pytest.raises(ValueError, match="linearization failure"):
            f.linearize({"x": np.array([float("nan")])})


def _same_pose(p, q) -> bool:
    return same_bits([p.x, p.y, p.theta], [q.x, q.y, q.theta])


def _same_value(a, b) -> bool:
    if isinstance(a, Pose2):
        return isinstance(b, Pose2) and _same_pose(a, b)
    return same_bits(a, b)


class TestStackedLinearize:
    """The stacked pass against the per-residual path it replaced, kept in
    tests/helpers.py as the reference: bit for bit."""

    def test_se2_rows_match_scalar_reference(self):
        rng = np.random.default_rng(30)
        P = [random_pose(rng) for _ in range(300)]
        Q = [random_pose(rng) for _ in range(300)]
        A, B = pose_rows(P), pose_rows(Q)
        for got, want in ((compose_stacked(A, B), map(reference_compose, P, Q)),
                          (inverse_stacked(A), map(reference_inverse, P)),
                          (between_stacked(A, B), map(reference_between, P, Q))):
            assert same_bits(got, pose_rows(want))
        steps = rng.normal(size=(300, 3)) * [1.0, 1.0, 4.0]
        want = [reference_compose(p, Pose2(*d)) for p, d in zip(P, steps)]
        assert same_bits(retract_stacked(A, steps), pose_rows(want))
        theta = np.concatenate([A[:, 2], steps[:, 2] * 3.0, [math.pi, -math.pi]])
        assert same_bits(wrap_angles(theta), [wrap_angle(t) for t in theta])
        # The one-pose functions are batches of one of the same code.
        for p, q, d in zip(P, Q, steps):
            assert _same_pose(compose(p, q), reference_compose(p, q))
            assert _same_pose(between(p, q), reference_between(p, q))
            assert same_bits(local(p, q), reference_between(p, q).as_vector())
            assert _same_pose(retract(p, d), reference_compose(p, Pose2(*d)))

    def test_random_graphs_match_per_residual_reference(self):
        rng = np.random.default_rng(31)
        seen = {"shared": 0, "nil": 0, "inf": 0, "func": 0, "linear": 0}
        for trial in range(150):
            g, values = random_nonlinear_graph(rng)
            lin = g.linearize(values)
            want = reference_linearize(g, values)
            got = lin.continuous_factors + lin.hybrid_factors
            assert len(got) == len(want), trial
            for f, w in zip(got, want):
                if isinstance(w, JacobianFactor):
                    assert same_marginal(f, w), trial
                    continue
                for leaf, wleaf in zip(f.components.leaves.flat, w):
                    assert (leaf is None) == (wleaf is None), trial
                    seen["nil"] += leaf is None
                    if leaf is not None:
                        assert same_marginal(leaf[0], wleaf[0]), trial
                        assert same_bits(leaf[1], wleaf[1]), trial
            for f in g.hybrid_factors:
                live = [leaf[0] for leaf in f.components.leaves.flat if leaf]
                seen["shared"] += len({id(r) for r in live}) < len(live)
            kinds = [type(u[0]) for f in g.continuous_factors + g.hybrid_factors
                     for u in f._uses()]
            seen["func"] += FuncResidual in kinds
            seen["linear"] += LinearResidual in kinds
            for _ in range(3):
                assignment = {k.id: int(rng.integers(k.cardinality))
                              for k in g.discrete_keys()}
                err = g.error(values, assignment)
                seen["inf"] += math.isinf(err)
                assert same_bits(err, reference_graph_error(g, values,
                                                            assignment)), trial
            delta = {vid: rng.normal(size=3 if isinstance(v, Pose2) else v.size)
                     * 2.0 for vid, v in values.items() if rng.random() < 0.8}
            got_values = retract_values(values, delta)
            want_values = reference_retract_values(values, delta)
            assert list(got_values) == list(want_values), trial
            for vid in want_values:
                assert _same_value(got_values[vid], want_values[vid]), trial
        assert all(seen.values()), seen

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pose_raises(self, bad):
        rng = np.random.default_rng(32)
        for field in ("x", "y", "theta"):
            g, values = random_nonlinear_graph(rng)
            pose = ("x", 0)
            p = values[pose]
            values[pose] = Pose2(**{"x": p.x, "y": p.y, "theta": p.theta,
                                    field: bad})
            g.add(NonlinearFactor(PriorResidual(pose, Pose2()), 1.0))
            with pytest.raises(ValueError, match="linearization failure"):
                g.linearize(values)

    def test_whitening_overflow_names_the_block(self):
        f = NonlinearFactor(LinearResidual({"x": [[1e300]]}, [1.0]), 1e-300)
        with pytest.raises(ValueError, match="block 'x' has non-finite"):
            f.linearize({"x": np.zeros(1)})

    def test_func_residual_of_wrong_length_raises(self):
        rng = np.random.default_rng(33)
        g, values = random_nonlinear_graph(rng)
        values[("z", 0)] = np.zeros(1)
        g.add(NonlinearFactor(FuncResidual((("z", 0),), 2, lambda v: np.ones(3)),
                              1.0))
        with pytest.raises(ValueError, match="size mismatch"):
            g.linearize(values)
        with pytest.raises(ValueError, match="size mismatch"):
            g.error(values, {k.id: 0 for k in g.discrete_keys()})


def _plain(residual, sigma):
    return NonlinearFactor(residual, sigma)


def _hybrid(residual, sigma):
    return HybridNonlinearFactor.from_components(
        [DiscreteKey("m", 2)], [(residual, 1.0), (residual, sigma)])


class TestNoiseChecks:
    @pytest.mark.parametrize("build", [_plain, _hybrid])
    @pytest.mark.parametrize("sigma", [
        np.ones((2, 3)),                                # not square
        np.ones((2, 2, 2)),                             # not a matrix
        [[1.0, 0.5], [0.0, 1.0]],                       # asymmetric
        [[1.0, 2.0], [2.0, 1.0]],                       # not positive definite
        [1.0, -1.0],                                    # negative variance
        [1.0, 1.0, 1.0],                                # 3x3 for a 2-vector
        np.eye(1),                                      # 1x1 for a 2-vector
    ])
    def test_bad_noise_refused_on_construction(self, build, sigma):
        res = LinearResidual({"x": np.eye(2)}, [0.0, 0.0])
        with pytest.raises(ValueError, match="invalid noise model"):
            build(res, sigma)

    @pytest.mark.parametrize("build", [_plain, _hybrid])
    def test_residual_longer_than_declared_refused(self, build):
        """A scalar sigma no longer adapts to whatever length evaluate gives."""
        res = FuncResidual(("x",), 1, lambda v: np.array([1.0, 2.0]) * v["x"][0])
        f = build(res, 1.0)
        with pytest.raises(ValueError, match="size mismatch"):
            f.linearize({"x": np.array([1.0])})

    def test_stored_noise_is_read_only(self):
        sigma = np.array([1.0, 4.0])
        res = LinearResidual({"x": np.eye(2)}, [1.0, 1.0])
        f = NonlinearFactor(res, sigma)
        h = _hybrid(res, sigma)
        before = f.linearize({"x": np.zeros(2)})
        sigma[:] = 100.0          # the caller's array is copied, not kept
        after = f.linearize({"x": np.zeros(2)})
        np.testing.assert_array_equal(before.rhs, after.rhs)
        np.testing.assert_array_equal(h.component({"m": 1})[1].sigma, [1.0, 4.0])
        for stored in (f.sigma, f.noise.L, h.component({"m": 1})[1].sigma):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 2.0
        with pytest.raises(AttributeError):
            f.sigma = 2.0
        with pytest.raises(AttributeError):
            f.noise.L = np.eye(2)


class TestRestrict:
    def _factor(self):
        m = DiscreteKey("m", 2)
        r0 = BetweenResidual("a", "b", Pose2(1, 0, 0))
        r1 = BetweenResidual("a", "b", Pose2(2, 0, 0))
        return HybridNonlinearFactor.from_components(
            [m], [(r0, 1.0), (r1, 1.0)]), m

    def test_empty_fixed_unchanged(self):
        f, m = self._factor()
        assert f.restrict({}) is f

    def test_full_fix_gives_plain_factor(self):
        f, m = self._factor()
        out = f.restrict({"m": 1})
        assert isinstance(out, NonlinearFactor)
        assert out.residual.measurement.x == 2.0

    def test_full_fix_reuses_the_leaf_noise_model(self):
        f, m = self._factor()
        out = f.restrict({"m": 1})
        assert out.noise is f.component({"m": 1})[1]

    def test_restricted_error_matches_hybrid_error(self):
        """Plain error of the restricted factor differs from the hybrid error
        at the fixed assignment only by the unit-noise normalizer constant."""
        f, m = self._factor()
        values = {"a": Pose2(), "b": Pose2(1.4, -0.2, 0.1)}
        out = f.restrict({"m": 1})
        normalizer = 0.5 * 3 * math.log(2 * math.pi)
        assert out.error(values) == pytest.approx(
            f.error(values, {"m": 1}) - normalizer, abs=1e-12)

    def test_graph_restrict_commutes_with_linearize(self):
        """Restricting the nonlinear graph and restricting its linearization
        give the same variables and keys, and errors that differ only by
        the fixed component's log-normalizer, which the nonlinear restriction
        drops."""
        m, n = DiscreteKey("m", 2), DiscreteKey("n", 2)
        tight, loose = np.array([0.1, 0.1, 0.01]), np.array([2.0, 2.0, 0.5])
        g = HybridFactorGraph()
        g.add(NonlinearFactor(PriorResidual("a", Pose2()), tight))
        g.add(HybridNonlinearFactor.from_components([m], [
            (BetweenResidual("a", "b", Pose2(1, 0, 0)), loose),
            (BetweenResidual("a", "b", Pose2(2, 0, 0)), tight)]))
        g.add(HybridNonlinearFactor.from_components([n], [
            (BetweenResidual("b", "c", Pose2(1, 0, 0)), tight),
            (BetweenResidual("b", "c", Pose2(1, 1, 0)), loose)]))
        g.add(DiscreteFactor([m, n], [0.1, 0.2, 0.3, 0.4]))
        values = {"a": Pose2(0.1, 0, 0), "b": Pose2(1.5, 0.2, 0.1),
                  "c": Pose2(2.4, 0.3, -0.1)}
        fixed = {"m": 1}
        rest_lin = g.restrict(fixed).linearize(values)
        lin_rest = g.linearize(values).restrict(fixed)
        assert rest_lin.continuous_variables() \
            == lin_rest.continuous_variables() == ["a", "b", "c"]
        assert rest_lin.discrete_keys() == lin_rest.discrete_keys() == (n,)
        normalizer = log_normalization_constant(tight, 3)
        rng = np.random.default_rng(9)
        for _ in range(3):
            x = {vid: rng.normal(size=3) for vid in ("a", "b", "c")}
            for mode in range(2):
                a = {"n": mode}
                assert lin_rest.error(x, a) - rest_lin.error(x, a) \
                    == pytest.approx(normalizer, abs=1e-9)


class TestOptimize:
    def test_linear_graph_converges_immediately(self):
        g = HybridFactorGraph()
        g.add(NonlinearFactor(LinearResidual({"x": [[1.0]]}, [3.0]), 1.0))
        g.add(NonlinearFactor(LinearResidual({"x": [[1.0]]}, [5.0]), 1.0))
        init = {"x": np.array([0.0])}
        est, bn = optimize(g, init, OptimizeConfig(max_iters=5))
        lin = g.linearize(init)
        step = max_product(lin)
        np.testing.assert_allclose(est.continuous["x"],
                                   init["x"] + step.continuous["x"], atol=1e-12)
        np.testing.assert_allclose(est.continuous["x"], [4.0], atol=1e-12)

    def test_graph_without_continuous_variables_gives_the_discrete_map(self):
        """Only discrete factors: the step is empty (norm 0) and the result
        is the discrete MAP, as the oracle enumerates it."""
        a, b = DiscreteKey("a", 2), DiscreteKey("b", 3)
        g = HybridFactorGraph()
        g.add(DiscreteFactor([a], [0.3, 0.7]))
        g.add(DiscreteFactor([a, b], [0.2, 0.5, 0.3, 0.6, 0.1, 0.3]))
        est, bn = optimize(g, {})
        assert est.continuous == {} and bn.conditionals == []
        assert est.discrete == enumerate_map(g).discrete == {"a": 1, "b": 0}

    @pytest.mark.parametrize("field, value", [
        ("prune", 0), ("dmr_delta", 0.3), ("dmr_delta", 1.5),
        ("max_iters", -1), ("tol", -1e-6), ("tol", math.nan),
        ("tol", math.inf)])
    def test_config_checked_when_built(self, field, value):
        """A bad field fails when the config is built, before any
        linearization or elimination, as RunConfig does."""
        with pytest.raises(ValueError, match=field):
            OptimizeConfig(**{field: value})

    def test_config_accepts_its_bounds(self):
        cfg = OptimizeConfig(tol=0.0, max_iters=0, prune=1, dmr_delta=1.0)
        assert (cfg.tol, cfg.max_iters, cfg.prune, cfg.dmr_delta) \
            == (0.0, 0, 1, 1.0)

    def _three_pose_graph(self):
        """Chain with one two-hypothesis odometry; a prior on both ends makes
        hypothesis 1 (the +2 step) the only consistent choice."""
        g = HybridFactorGraph()
        sigma = np.array([1e-4, 1e-4, 1e-6])
        g.add(NonlinearFactor(PriorResidual("a", Pose2()), sigma))
        m = DiscreteKey("m", 2)
        r_bad = BetweenResidual("a", "b", Pose2(1, 0, 0))
        r_good = BetweenResidual("a", "b", Pose2(2, 0, 0))
        g.add(HybridNonlinearFactor.from_components(
            [m], [(r_bad, sigma), (r_good, sigma)]))
        g.add(NonlinearFactor(BetweenResidual("b", "c", Pose2(1, 0, 0)), sigma))
        g.add(NonlinearFactor(PriorResidual("c", Pose2(3, 0, 0)), sigma))
        return g, m

    def test_three_pose_chain_selects_consistent_mode(self):
        g, m = self._three_pose_graph()
        init = {"a": Pose2(), "b": Pose2(1, 0, 0), "c": Pose2(2, 0, 0)}
        est, bn = optimize(g, init)
        assert est.discrete["m"] == 1
        np.testing.assert_allclose(est.continuous["b"].as_vector(),
                                   [2.0, 0.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(est.continuous["c"].as_vector(),
                                   [3.0, 0.0, 0.0], atol=1e-6)

    def test_mode_fixed_equals_restricted_optimization(self):
        """Fixing the discrete mode then optimizing equals optimizing the
        restricted graph directly."""
        g, m = self._three_pose_graph()
        init = {"a": Pose2(), "b": Pose2(0.5, 0.3, 0.1), "c": Pose2(2, -0.2, 0)}
        est_full, _ = optimize(g, init)
        fixed_graph = g.restrict({"m": est_full.discrete["m"]})
        est_fixed, _ = optimize(fixed_graph, init)
        for vid in ("a", "b", "c"):
            np.testing.assert_allclose(est_full.continuous[vid].as_vector(),
                                       est_fixed.continuous[vid].as_vector(),
                                       atol=1e-9)

    def test_error_non_increasing(self):
        rng = np.random.default_rng(5)
        g = HybridFactorGraph()
        sigma = np.array([0.01, 0.01, 0.001])
        g.add(NonlinearFactor(PriorResidual("p0", Pose2()), sigma))
        truth = [Pose2()]
        for i in range(4):
            step = Pose2(1.0, 0.1 * rng.normal(), 0.2 * rng.normal())
            truth.append(compose(truth[-1], step))
            g.add(NonlinearFactor(
                BetweenResidual(f"p{i}", f"p{i+1}", step), sigma))
        init = {f"p{i}": retract(truth[i], rng.normal(scale=0.3, size=3))
                for i in range(5)}
        errors = []
        values = dict(init)
        for _ in range(8):
            lin = g.linearize(values)
            step = max_product(lin)
            errors.append(g.error(values, {}))
            from hybridfg.nonlinear import retract_values
            values = retract_values(values, step.continuous)
        errors.append(g.error(values, {}))
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_dmr_inside_optimize(self):
        g, m = self._three_pose_graph()
        init = {"a": Pose2(), "b": Pose2(2, 0, 0), "c": Pose2(3, 0, 0)}
        est, bn = optimize(g, init, OptimizeConfig(dmr_delta=0.8))
        assert est.discrete["m"] == 1
        # The mode is removed before the final pass.
        assert bn.discrete_joint().keys == ()
        assert bn.discrete_joint().leaves.tolist() == 1.0

    @staticmethod
    def _three_mode_graph():
        """Pose chain a-b-c-d with two ambiguous odometry edges and a
        switchable loop a-d (three binary modes), an initial guess, and a
        support keeping two of the eight joint hypotheses."""
        g = HybridFactorGraph()
        sigma = np.array([0.01, 0.01, 0.001])
        g.add(NonlinearFactor(PriorResidual("a", Pose2()), sigma))
        keys = [DiscreteKey(f"m{i}", 2) for i in range(3)]
        for k, (i, j) in zip(keys[:2], [("a", "b"), ("b", "c")]):
            g.add(HybridNonlinearFactor.from_components([k], [
                (BetweenResidual(i, j, Pose2(1, 0, 0)), sigma),
                (BetweenResidual(i, j, Pose2(1.2, 0.1, 0.05)), sigma)]))
        g.add(NonlinearFactor(BetweenResidual("c", "d", Pose2(1, 0, 0.1)), sigma))
        loop = BetweenResidual("a", "d", Pose2(3.1, 0.05, 0.1))
        g.add(HybridNonlinearFactor.from_components(
            [keys[2]], [(loop, np.full(3, 10.0)), (loop, sigma)]))
        support = DecisionTree(keys, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        init = {"a": Pose2(), "b": Pose2(1, 0, 0), "c": Pose2(2, 0, 0),
                "d": Pose2(3, 0, 0)}
        return g, support, init

    def test_support_argument_matches_support_factor(self, monkeypatch):
        """Carrying a support through optimize gives the estimate of the
        graph with that support appended as a discrete factor.  Both paths
        eliminate only the cells that the support allows, so they run the
        same per-mode QR eliminations."""
        g, support, init = self._three_mode_graph()
        cfg = OptimizeConfig(tol=1e-9, max_iters=15, prune=4, dmr_delta=0.8)
        calls = {"n": 0}
        original = np.linalg.qr

        def counting(M, mode):
            calls["n"] += M.shape[0]    # systems in the stacked batch
            return original(M, mode=mode)
        monkeypatch.setattr(np.linalg, "qr", counting)
        carried, _ = optimize(g, init, cfg, support)
        carried_calls, calls["n"] = calls["n"], 0
        g.add(DiscreteFactor(support.keys, support))
        factored, _ = optimize(g, init, cfg)
        assert carried_calls == calls["n"] <= 27
        assert carried.discrete == factored.discrete
        for vid in init:
            np.testing.assert_allclose(carried.continuous[vid].as_vector(),
                                       factored.continuous[vid].as_vector(),
                                       rtol=0, atol=1e-12)

    def test_support_over_missing_key_refused(self):
        """A support naming a key the graph lacks raises before any step."""
        g, support, init = self._three_mode_graph()
        extra = DecisionTree(support.keys + (DiscreteKey("z", 2),),
                             np.repeat(support.leaves[..., None], 2, axis=-1))
        with pytest.raises(ValueError, match="absent from the graph"):
            optimize(g, init, OptimizeConfig(prune=4), extra)

    def test_divergence_reports_best(self):
        """A residual engineered to worsen under full Gauss-Newton steps
        triggers the divergence guard and carries the best iterate."""
        calls = {"n": 0}

        def nasty(v):
            x = float(v["x"][0])
            return np.array([math.atan(5.0 * x) - 1.4])

        g = HybridFactorGraph()
        g.add(NonlinearFactor(FuncResidual(("x",), 1, nasty), 1e-6))
        with pytest.raises(OptimizationDiverged) as exc:
            optimize(g, {"x": np.array([2.0])}, OptimizeConfig(max_iters=20))
        assert "x" in exc.value.best_values
        assert isinstance(exc.value.bn, HybridBayesNet)


class TestHybridNonlinearFactor:
    def test_leaves_must_share_variables(self):
        m = DiscreteKey("m", 2)
        r0 = BetweenResidual("a", "b", Pose2())
        r1 = BetweenResidual("a", "c", Pose2())
        with pytest.raises(ValueError, match="share variables"):
            HybridNonlinearFactor.from_components([m], [(r0, 1.0), (r1, 1.0)])

    def test_tree_leaves_must_hold_noise_models(self):
        """The constructor takes the stored tree; bare sigmas go through
        from_components."""
        m = DiscreteKey("m", 2)
        r = BetweenResidual("a", "b", Pose2())
        with pytest.raises(ValueError, match="NoiseModel"):
            HybridNonlinearFactor([m], DecisionTree([m], [(r, 1.0), None]))

    def test_linearized_graph_matches_oracle(self):
        """Linearizing a hybrid nonlinear chain and eliminating matches the
        brute-force posterior of the linearized system."""
        from hybridfg import sum_product
        rng = np.random.default_rng(6)
        g, m = self._small_slam_graph(rng)
        values = {"a": Pose2(), "b": Pose2(0.9, 0.1, 0.02)}
        lin = g.linearize(values)
        probs, _ = enumerate_posterior(lin)
        bn = sum_product(lin)
        np.testing.assert_allclose(np.asarray(bn.discrete_joint().leaves),
                                   np.asarray(probs.leaves), atol=1e-12)

    @staticmethod
    def _small_slam_graph(rng):
        g = HybridFactorGraph()
        sigma = np.array([0.01, 0.01, 0.001])
        g.add(NonlinearFactor(PriorResidual("a", Pose2()), sigma))
        m = DiscreteKey("m", 2)
        r0 = BetweenResidual("a", "b", Pose2(1, 0, 0))
        r1 = BetweenResidual("a", "b", Pose2(1.5, 0, 0))
        g.add(HybridNonlinearFactor.from_components([m], [(r0, sigma), (r1, sigma)]))
        g.add(NonlinearFactor(PriorResidual("b", Pose2(1, 0, 0)), sigma))
        return g, m
