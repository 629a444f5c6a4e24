import csv
import logging

import numpy as np
import pytest

from hybridfg import (DiscreteKey, Pose2, discrete, gaussian, nonlinear,
                      sum_product)
from hybridfg.dataset import LoopClosure, Odometry, square_loop_dataset, write_dataset
from hybridfg.elimination import discrete_marginals
from hybridfg.hybrid import (HybridFactorGraph, HybridNonlinearFactor,
                             NonlinearFactor)
from hybridfg.nonlinear import (OptimizationDiverged, OptimizeConfig,
                                PriorResidual, gauss_newton_step, optimize)
from hybridfg.slam_cli import (NoiseModels, RunConfig, RunResults, _Runner,
                               build_loop_factor, build_motion_factor,
                               emit_results, main, run)

from helpers import run_module

TIGHT = np.array([1e-4, 1e-4, 1e-4])


class TestBuildMotionFactor:
    def test_single_hypothesis_plain(self):
        e = Odometry(0, 1, ((1.0, 0.0, 0.0),), 0.01, 0.005)
        f = build_motion_factor(e, 0, NoiseModels())
        assert isinstance(f, NonlinearFactor)

    def test_multi_hypothesis_key_cardinality(self):
        e = Odometry(0, 1, ((1, 0, 0), (2, 0, 0), (3, 0, 0)), 0.01, 0.005)
        f = build_motion_factor(e, 7, NoiseModels())
        assert isinstance(f, HybridNonlinearFactor)
        assert f.keys[0] == DiscreteKey(("m", 7), 3)

    def test_identical_hypotheses_give_uniform_posterior(self):
        e = Odometry(0, 1, ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)), 0.01, 0.005)
        g = HybridFactorGraph()
        g.add(NonlinearFactor(PriorResidual(("x", 0), Pose2()), TIGHT))
        g.add(build_motion_factor(e, 0, NoiseModels()))
        values = {("x", 0): Pose2(), ("x", 1): Pose2(1, 0, 0)}
        bn = sum_product(g.linearize(values))
        marg = discrete_marginals(bn)[("m", 0)]
        np.testing.assert_allclose(marg, [0.5, 0.5], atol=1e-12)

    def test_anchored_pair_prefers_consistent_hypothesis(self):
        """Tight priors on both poses pin the relative motion; the posterior
        must put essentially all mass on the matching hypothesis."""
        e = Odometry(0, 1, ((1.0, 0.0, 0.0), (1.5, 0.3, 0.0)), 0.01, 0.005)
        g = HybridFactorGraph()
        g.add(NonlinearFactor(PriorResidual(("x", 0), Pose2()), TIGHT))
        g.add(NonlinearFactor(PriorResidual(("x", 1), Pose2(1, 0, 0)), TIGHT))
        g.add(build_motion_factor(e, 0, NoiseModels()))
        values = {("x", 0): Pose2(), ("x", 1): Pose2(1, 0, 0)}
        bn = sum_product(g.linearize(values))
        marg = discrete_marginals(bn)[("m", 0)]
        assert marg[0] > 0.99


class TestBuildLoopFactor:
    def test_loose_leaf_covariance(self):
        e = LoopClosure(0, 3, 0.0, 0.0, 0.0, 0.01, 0.005)
        f = build_loop_factor(e, 4, NoiseModels())
        assert f.keys[0] == DiscreteKey(("l", 4), 2)
        _, loose = f.component({("l", 4): 0})
        np.testing.assert_allclose(loose.sigma, [10.0, 10.0, 10.0])
        _, tight = f.component({("l", 4): 1})
        np.testing.assert_allclose(tight.sigma, [1e-4, 1e-4, 0.005 ** 2])

    def _four_pose_graph(self, loop_offset):
        g = HybridFactorGraph()
        g.add(NonlinearFactor(PriorResidual(("x", 0), Pose2()), TIGHT))
        values = {("x", 0): Pose2()}
        for k in range(3):
            e = Odometry(k, k + 1, ((1.0, 0.0, 0.0),), 0.01, 0.005)
            g.add(build_motion_factor(e, k, NoiseModels()))
            values[("x", k + 1)] = Pose2(k + 1.0, 0, 0)
        loop = LoopClosure(0, 3, 3.0 + loop_offset, 0.0, 0.0, 0.01, 0.005)
        g.add(build_loop_factor(loop, 9, NoiseModels()))
        return g, values

    def test_consistent_loop_switches_on(self):
        g, values = self._four_pose_graph(loop_offset=0.0)
        bn = sum_product(g.linearize(values))
        marg = discrete_marginals(bn)[("l", 9)]
        assert marg[1] > 0.9

    def test_wild_loop_switches_off(self):
        g, values = self._four_pose_graph(loop_offset=20.0)
        bn = sum_product(g.linearize(values))
        marg = discrete_marginals(bn)[("l", 9)]
        assert marg[0] > 0.9


@pytest.fixture(scope="module")
def seed1_run():
    entries, truth, modes = square_loop_dataset(seed=1)
    return run(RunConfig(), entries), entries, truth, modes


@pytest.fixture(scope="module")
def seed2_outputs(tmp_path_factory):
    entries, _, _ = square_loop_dataset(seed=2)
    res = run(RunConfig(), entries)
    outdir = tmp_path_factory.mktemp("seed2")
    emit_results(res, str(outdir))
    return res, outdir


class TestRun:
    def _unambiguous_entries(self, n=12):
        rng = np.random.default_rng(0)
        entries = []
        for k in range(n - 1):
            step = (1.0 + rng.normal(scale=0.01), rng.normal(scale=0.01),
                    rng.normal(scale=0.005))
            entries.append(Odometry(k, k + 1, (step,), 0.01, 0.005))
        return entries

    def test_degenerate_dataset_matches_plain_gauss_newton(self):
        """No ambiguity and no loops: the CLI pipeline must coincide with a
        plain pose-graph Gauss-Newton solve."""
        entries = self._unambiguous_entries()
        res = run(RunConfig(), entries)
        g = HybridFactorGraph()
        from hybridfg.slam_cli import ANCHOR_SIGMA, _sigma_diag
        g.add(NonlinearFactor(PriorResidual(("x", 0), Pose2()),
                              _sigma_diag(ANCHOR_SIGMA, ANCHOR_SIGMA)))
        values = {("x", 0): Pose2()}
        from hybridfg.nonlinear import compose
        for i, e in enumerate(entries):
            g.add(build_motion_factor(e, i, NoiseModels()))
            values[("x", e.to)] = compose(values[("x", e.frm)], Pose2(*e.hypotheses[0]))
        est, _ = optimize(g, values, OptimizeConfig(tol=1e-12, max_iters=10))
        for vid, pose in est.continuous.items():
            np.testing.assert_allclose(res.values[vid].as_vector(),
                                       pose.as_vector(), atol=1e-8)

    def test_timing_rows_monotone(self, seed1_run):
        """Pass rows in increasing step order, then one "final" row for
        finalize() with the final graph's factors and net's hypotheses."""
        res, entries, *_ = seed1_run
        steps = [row[0] for row in res.timings[:-1]]
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)
        assert all(row[3] >= 0 for row in res.timings)
        step, factors, hyps, _ = res.timings[-1]
        assert step == "final"
        assert factors == len(entries) + 1      # the anchor prior and one per entry
        joint = res.bn.discrete_joint()
        assert hyps == (np.count_nonzero(joint.leaves) if joint is not None else 1)

    def test_hypothesis_bound(self, seed1_run):
        """Live hypotheses after each pruning pass never exceed prune_P."""
        res, *_ = seed1_run
        for _, _, hyps, _ in res.timings:
            assert hyps <= RunConfig().prune_p
        assert res.bn is not None

    def test_streaming_pass_linearizes_once(self, monkeypatch):
        entries, _, _ = square_loop_dataset(seed=0, num_poses=65,
                                            n_ambiguous=4, n_loops=2)
        runner = _Runner(RunConfig())
        for index, entry in enumerate(entries):
            runner.add_entry(entry, index)
        runner._eliminate_once()
        assert runner.support is not None and runner.support.keys
        calls = {"n": 0}
        original = HybridFactorGraph.linearize

        def counting(self, values):
            calls["n"] += 1
            return original(self, values)
        monkeypatch.setattr(HybridFactorGraph, "linearize", counting)
        runner._eliminate_once()
        assert calls["n"] == 1

    def test_linearize_reuses_factored_noise(self, monkeypatch):
        """Noise models are checked and factored when the factors are built:
        linearizing the C11 graph twice calls neither sigma_cholesky nor
        log_normalization_constant."""
        entries, _, _ = square_loop_dataset(seed=0, num_poses=65,
                                            n_ambiguous=4, n_loops=2)
        runner = _Runner(RunConfig())
        for index, entry in enumerate(entries):
            runner.add_entry(entry, index)
        calls = {"sigma_cholesky": 0, "log_normalization_constant": 0}
        for name in calls:
            original = getattr(gaussian, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(gaussian, name, counting)
        runner.graph.linearize(runner.values)
        runner.graph.linearize(runner.values)
        assert calls == {"sigma_cholesky": 0, "log_normalization_constant": 0}
        # The counters see the calls a factor makes when it is built.
        build_loop_factor(LoopClosure(0, 3, 0.0, 0.0, 0.0, 0.01, 0.005), 0,
                          NoiseModels())
        assert calls["sigma_cholesky"] == 2

    def test_one_noise_model_per_covariance(self, monkeypatch):
        """A run factors each distinct covariance once: C09's odometry and
        loop closures share one, and the loose loop covariance is the
        other, so ingesting all of it calls sigma_cholesky twice."""
        entries, _, _ = square_loop_dataset(0, 100, 10, 4)
        runner = _Runner(RunConfig())
        calls = {"n": 0}
        original = gaussian.sigma_cholesky

        def counting(*args):
            calls["n"] += 1
            return original(*args)
        monkeypatch.setattr(gaussian, "sigma_cholesky", counting)
        for index, entry in enumerate(entries):
            runner.add_entry(entry, index)
        assert calls["n"] == 2
        assert len(runner.noise) == 3      # and the anchor's, made before

    def test_final_batch_converges(self, caplog):
        """A seed whose final batch once stopped on a rounding-level error
        increase: it now converges and its marginals come from the final
        net."""
        entries, _, _ = square_loop_dataset(seed=1729513616)
        with caplog.at_level(logging.WARNING, logger="hybridfg"):
            res = run(RunConfig(), entries)
        assert "diverged" not in caplog.text
        for kid, val in res.assignment.items():
            if kid not in res.fixed:
                assert res.marginals[kid][val] > 0.9, kid

    def test_diverged_final_batch_keeps_its_net(self, monkeypatch):
        """When the final batch diverges, the results carry the net that
        came with the reported iterate, not the last streaming net."""
        entries, _, _ = square_loop_dataset(seed=0, num_poses=65, n_ambiguous=4,
                                            n_loops=2)
        nets = []

        def diverge(graph, values, config, support):
            net, _, step = gauss_newton_step(graph, values, support, config.prune)
            nets.append(net)
            raise OptimizationDiverged("diverged", dict(values), step.discrete, net)
        monkeypatch.setattr(nonlinear, "optimize", diverge)
        res = run(RunConfig(), entries)
        (net,) = nets
        assert res.bn is net
        marginals = discrete_marginals(net)
        assert marginals and res.marginals.keys() == marginals.keys()
        for kid, probs in marginals.items():
            np.testing.assert_array_equal(res.marginals[kid], probs)

    def test_loop_to_unknown_pose_refused(self):
        with pytest.raises(ValueError, match="unknown pose"):
            run(RunConfig(), [LoopClosure(0, 3, 0.0, 0.0, 0.0, 0.01, 0.005)])

    def test_max_steps_limits_ingestion(self):
        entries, _, _ = square_loop_dataset(seed=1)
        res = run(RunConfig(max_steps=10), entries)
        assert len(res.values) == 11


class TestEmitResults:
    def test_single_pose_run(self, tmp_path):
        entries = []
        res = run(RunConfig(), entries)
        emit_results(res, str(tmp_path))
        lines = (tmp_path / "trajectory.txt").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("POSE 0 ")

    def test_values_rounding_to_zero_print_unsigned(self, tmp_path):
        res = RunResults(values={("x", 0): Pose2(-1e-17, -0.0, -4e-10)},
                         bn=None, assignment={}, fixed={}, marginals={},
                         timings=[], history=[(1, 0, -1e-17, 1e-17, -0.0)])
        emit_results(res, str(tmp_path))
        assert (tmp_path / "trajectory.txt").read_text() == \
            "POSE 0 0.000000000 0.000000000 0.000000000\n"
        assert (tmp_path / "history.txt").read_text() == \
            "HIST 1 0 0.000000000 0.000000000 0.000000000\n"

    def test_pose_lines_parse_back(self, seed2_outputs):
        res, outdir = seed2_outputs
        for line in (outdir / "trajectory.txt").read_text().splitlines():
            tag, k, x, y, theta = line.split()
            pose = res.values[("x", int(k))]
            assert float(x) == pytest.approx(pose.x, abs=5e-7)
            assert float(y) == pytest.approx(pose.y, abs=5e-7)
            assert float(theta) == pytest.approx(pose.theta, abs=5e-7)

    def test_dead_removed_modes_have_unit_probability(self, seed2_outputs):
        res, outdir = seed2_outputs
        rows = [l.split() for l in (outdir / "modes.txt").read_text().splitlines()]
        probs = {r[1]: float(r[3]) for r in rows}
        for kid in res.fixed:
            name = f"{kid[0]}{kid[1]}"
            assert probs[name] == 1.0

    def test_timing_csv_format(self, seed2_outputs):
        _, outdir = seed2_outputs
        with open(outdir / "timing.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "num_factors", "num_hypotheses", "millis"]
        steps = [int(r[0]) for r in rows[1:-1]]
        assert steps == sorted(steps)
        assert rows[-1][0] == "final"


class TestCli:
    def test_exit_code_zero_and_outputs(self, tmp_path):
        data = tmp_path / "data.txt"
        entries, _, _ = square_loop_dataset(seed=0, num_poses=65, n_ambiguous=4,
                                            n_loops=2)
        write_dataset(entries, data)
        out = tmp_path / "out"
        assert main(["--input", str(data), "--output", str(out)]) == 0
        for fname in ("trajectory.txt", "modes.txt", "timing.csv", "history.txt"):
            assert (out / fname).exists()

    def test_mode_space_over_the_cap_is_solver_error(self, tmp_path, capsys,
                                                     monkeypatch):
        """A mode grid larger than ENUMERATION_CAP fails early and clearly:
        exit 1, the reason on stderr, and no output directory."""
        monkeypatch.setattr(discrete, "ENUMERATION_CAP", 8)
        data = tmp_path / "data.txt"
        entries, _, _ = square_loop_dataset(0, 65, 4, 2)
        write_dataset(entries, data)
        out = tmp_path / "out"
        assert main(["--input", str(data), "--output", str(out)]) == 1
        assert "enumeration too large" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["--input", str(tmp_path / "nope.txt"),
                     "--output", str(tmp_path)]) == 2

    def test_malformed_input_is_io_error(self, tmp_path):
        data = tmp_path / "bad.txt"
        data.write_text("ODOM 0 1 nonsense\n")
        assert main(["--input", str(data), "--output", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", [
        "LOOP 0 5 0 0 0 0.01 0.005",        # loop to a pose not reached yet
        "ODOM 3 4 1 1 0 0 0.01 0.005",      # odometry from a pose not reached
        "ODOM 1 2 1 nan 0 0 0.01 0.005",    # non-finite hypothesis
        "ODOM 1 2 1 1 0 0 0.01 inf",        # non-finite sigma
        "ODOM 1 1 1 0 0 0 0.01 0.005",      # self-edge
        "ODOM 1 0 1 -1 0 0 0.01 0.005",     # backwards edge
    ])
    def test_inconsistent_dataset_is_input_error(self, tmp_path, capsys, line):
        data = tmp_path / "bad.txt"
        data.write_text(f"ODOM 0 1 1 1 0 0 0.01 0.005\n{line}\n")
        assert main(["--input", str(data), "--output", str(tmp_path / "out")]) == 2
        assert "bad.txt:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        ["--prune", "0"], ["--dmr-delta", "0.3"], ["--elim-every", "0"],
        ["--relin-every", "0"], ["--max-steps", "-1"]])
    def test_bad_argument_is_usage_error(self, tmp_path, option):
        data = tmp_path / "data.txt"
        data.write_text("ODOM 0 1 1 1 0 0 0.01 0.005\n")
        proc = run_module("hybridfg.slam_cli", "--input", str(data),
                          "--output", str(tmp_path / "out"), *option)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()
