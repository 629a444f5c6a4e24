"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import csv
import filecmp
import math
import os
import time

import numpy as np
import pytest

from hybridfg import (HybridGaussianConditional, Pose2,
                      conditional_to_factor, eliminate_hybrid_sum,
                      enumerate_assignments, max_product, prune_bayes_net,
                      sum_product, dead_mode_removal)
from hybridfg.dataset import Odometry, square_loop_dataset, write_dataset
from hybridfg.nonlinear import BetweenResidual, PriorResidual, numerical_jacobians
from hybridfg.oracle import enumerate_map, enumerate_posterior
from hybridfg import slam_cli
from hybridfg.slam_cli import RunConfig, main, run

from helpers import (hypothesis_chain_graph, mixture_graph, output_differences,
                     random_hybrid_graph)

N_CORPUS = 500


def _ok(n, message):
    print(f"[PASS] criterion {n}: {message}")


def _corpus_graph(seed):
    rng = np.random.default_rng(seed)
    return random_hybrid_graph(rng, n_cont=int(rng.integers(1, 7)),
                               n_disc=int(rng.integers(0, 6)),
                               two_var_hybrids=True)


def test_c01_sum_product_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(N_CORPUS):
        g = _corpus_graph(seed)
        probs, _ = enumerate_posterior(g)
        bn = sum_product(g)
        joint = bn.discrete_joint()
        got = np.asarray(joint.leaves)
        diff = float(np.max(np.abs(got - np.asarray(probs.leaves))))
        worst = max(worst, diff)
        assert diff <= 1e-9, f"graph seed {seed}: posterior off by {diff}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"corpus took {elapsed:.1f}s"
    _ok(1, f"{N_CORPUS} random graphs, max |P - oracle| = {worst:.2e}, "
           f"{elapsed:.1f}s < 30s")


def test_c02_max_product_oracle_equivalence():
    worst = 0.0
    for seed in range(N_CORPUS):
        g = _corpus_graph(seed)
        got = max_product(g)
        want = enumerate_map(g)
        assert got.discrete == want.discrete, f"graph seed {seed}"
        for vid, vec in want.continuous.items():
            diff = float(np.max(np.abs(got.continuous[vid] - vec)))
            worst = max(worst, diff)
            assert diff <= 1e-9, f"graph seed {seed}: {vid} off by {diff}"
    _ok(2, f"{N_CORPUS} random graphs, MAP assignments identical, "
           f"max continuous diff = {worst:.2e}")


def test_c03_worked_mixture_value():
    g, m = mixture_graph()
    bn = sum_product(g)
    p0 = float(np.asarray(bn.discrete_joint().leaves)[0])
    assert p0 == pytest.approx(0.880797, abs=1e-6)
    _ok(3, f"P(m=0 | z) = {p0:.9f} = 0.880797 +- 1e-6")


def test_c04_normalization_identities():
    checked = 0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        g = random_hybrid_graph(rng, 3, 3, two_var_hybrids=True)
        bn = sum_product(g)
        for cond in bn.conditionals:
            if not isinstance(cond, HybridGaussianConditional):
                continue
            for leaf in cond.components.leaves.reshape(-1):
                if leaf is None:
                    continue
                n = leaf.dim
                want = 0.5 * n * math.log(2.0 * math.pi) \
                    - float(np.sum(np.log(np.diag(leaf.R))))
                assert abs(leaf.log_normalizer - want) <= 1e-12
                if n == 1 and not leaf.parents:
                    mean = leaf.solve({})[0]
                    sd = 1.0 / leaf.R[0, 0]
                    xs = np.linspace(mean - 8 * sd, mean + 8 * sd, 4096)
                    dens = [leaf.density({leaf.frontal: np.array([x])}) for x in xs]
                    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-4)
                checked += 1
    assert checked > 100
    _ok(4, f"{checked} conditional leaves satisfy the log-det identity at "
           "1e-12; parentless scalar leaves integrate to 1 at 1e-4")


def test_c05_conditional_as_factor_round_trip():
    hgcs = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        g = random_hybrid_graph(rng, 3, 2, two_var_hybrids=True)
        bn = sum_product(g)
        hgcs.extend(c for c in bn.conditionals
                    if isinstance(c, HybridGaussianConditional))
    assert len(hgcs) >= 5
    for hgc in hgcs:
        fac = conditional_to_factor(hgc)
        cs = [leaf[1] for leaf in fac.components.leaves.reshape(-1)
              if leaf is not None]
        assert min(cs) == 0.0 and all(c >= 0.0 for c in cs)
        cond2, _ = eliminate_hybrid_sum([fac], hgc.frontals[0])
        for a in enumerate_assignments(hgc.keys):
            l1, l2 = hgc.component(a), cond2.component(a)
            np.testing.assert_allclose(l1.R, l2.R, atol=1e-10)
            np.testing.assert_allclose(l1.d, l2.d, atol=1e-10)
            for p in l1.parents:
                np.testing.assert_allclose(l1.parent_blocks[p],
                                           l2.parent_blocks[p], atol=1e-10)
    _ok(5, f"{len(hgcs)} conditionals: factor round trip reproduces (R, S, d) "
           "at 1e-10 with C >= 0 and min C = 0")


def test_c06_pruning_contract():
    rng = np.random.default_rng(7)
    g = hypothesis_chain_graph(rng, n_keys=8)   # 2^8 joint hypotheses
    probs, _ = enumerate_posterior(g)
    oracle_flat = np.asarray(probs.leaves).reshape(-1)
    top10 = set(np.argsort(-oracle_flat, kind="stable")[:10])
    bn = sum_product(g)
    for _ in range(2):   # pruning passes are idempotent
        bn = prune_bayes_net(bn, 10)
        flat = np.asarray(bn.discrete_joint().leaves).reshape(-1)
        alive = np.flatnonzero(flat)
        assert len(alive) <= 10
        assert set(alive) == top10
        order_oracle = sorted(alive, key=lambda i: -oracle_flat[i])
        order_pruned = sorted(alive, key=lambda i: -flat[i])
        assert order_oracle == order_pruned
    _ok(6, "2^8-hypothesis chain pruned to exactly the oracle top-10 with "
           "order preserved")


def test_c07_dead_mode_removal():
    rng = np.random.default_rng(11)
    found = 0
    for seed in range(40):
        g = random_hybrid_graph(np.random.default_rng(seed), 3, 3)
        bn = sum_product(g)
        red, fixed = dead_mode_removal(bn, g, 0.8)
        if not fixed:
            continue
        found += 1
        probs_full, _ = enumerate_posterior(g)
        cond = probs_full.choose(fixed)
        want = np.asarray(cond.leaves, dtype=float)
        want = want / want.sum()
        bn2 = sum_product(red)
        joint = bn2.discrete_joint()
        got = np.asarray(joint.leaves)
        np.testing.assert_allclose(got, want, atol=1e-9)
    assert found >= 5
    _ok(7, f"{found} graphs with dominant modes: post-removal posterior "
           "matches the conditioned oracle at 1e-9")


def test_c08_ordering_invariance():
    rng = np.random.default_rng(13)
    for seed in range(25):
        g = random_hybrid_graph(np.random.default_rng(seed), 4, 3)
        cont = g.continuous_variables()
        disc = [k.id for k in g.discrete_keys()]
        base = None
        for _ in range(5):
            order = list(rng.permutation(cont)) + list(rng.permutation(disc))
            joint = np.asarray(sum_product(g, order).discrete_joint().leaves)
            if base is None:
                base = joint
            else:
                np.testing.assert_allclose(joint, base, atol=1e-8)
    _ok(8, "P(M | Z) identical at 1e-8 across 5 random strong orderings on "
           "25 instances")


def test_c09_synthetic_slam_regression():
    entries, truth, true_modes = square_loop_dataset(seed=0)
    amb = [e for e in entries if isinstance(e, Odometry) and len(e.hypotheses) > 1]
    assert len(amb) == 10 and len(truth) == 100
    for e in amb:   # decoy offset >= 10 sigma
        gaps = [np.hypot(h1[0] - h2[0], h1[1] - h2[1])
                for h1 in e.hypotheses for h2 in e.hypotheses if h1 != h2]
        assert max(gaps) >= 10 * e.sigma_xy
    t0 = time.perf_counter()
    res = run(RunConfig(), entries)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"run took {elapsed:.1f}s"
    amb_indices = [i for i, e in enumerate(entries)
                   if isinstance(e, Odometry) and len(e.hypotheses) > 1]
    correct = sum(1 for order, ei in enumerate(amb_indices)
                  if res.assignment.get(("m", ei)) == true_modes[order])
    assert correct >= 9, f"only {correct}/10 modes correct"
    for kid in (k for k in res.assignment if k[0] == "l"):
        assert res.assignment[kid] == 1, f"loop {kid} switched off"
        if kid in res.fixed:
            prob = 1.0
        else:
            prob = float(res.marginals[kid][1])
        assert prob > 0.9, f"loop {kid} marginal {prob}"
    sq = [(res.values[("x", k)].x - truth[k].x) ** 2
          + (res.values[("x", k)].y - truth[k].y) ** 2
          for k in range(len(truth))]
    ate = math.sqrt(float(np.mean(sq)))
    assert ate < 0.1, f"ATE {ate:.3f} m"
    _ok(9, f"{correct}/10 modes, all loops on (>0.9), ATE {ate:.3f} m < 0.1, "
           f"{elapsed:.1f}s < 60s")


# trajectory.txt, modes.txt and history.txt of the C09 run (CLI defaults)
# with streaming relinearizing every variable that moves, kept so that a
# change meant to leave the solver's results alone is checked against them;
# history_beta.txt is the history at the default relinearization threshold.
C09_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "c09")


def _c09_run(tmp_path):
    entries, _, _ = square_loop_dataset(seed=0)
    data = tmp_path / "data.txt"
    write_dataset(entries, data)
    assert main(["--input", str(data), "--output", str(tmp_path / "out")]) == 0
    return str(tmp_path / "out")


def test_c09_outputs_match_golden(tmp_path, monkeypatch):
    """A fresh C09 run at relinearization threshold 0 writes the stored
    outputs: words exactly, numbers within OUTPUT_TOL."""
    monkeypatch.setattr(slam_cli, "RELIN_THRESHOLD", 0.0)
    assert output_differences(C09_GOLDEN, _c09_run(tmp_path)) == []
    _ok(9, "trajectory, modes and history match the stored C09 outputs")


def test_c09_outputs_at_default_threshold(tmp_path):
    """At the default threshold streaming keeps linearization points, so
    only the streaming history moves: the same trajectory and modes as at
    threshold 0, and the stored history_beta.txt."""
    assert output_differences(C09_GOLDEN, _c09_run(tmp_path),
                              history="history_beta.txt") == []


# The same three files of the streaming benchmark's run: 200 poses, 10
# ambiguous edges, 10 loops, every hybrid factor eliminated and every second
# pass relinearized.
STREAM_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "data", "stream")


def _stream_run(tmp_path):
    entries, _, _ = square_loop_dataset(0, 200, 10, 10)
    data = tmp_path / "data.txt"
    write_dataset(entries, data)
    assert main(["--input", str(data), "--output", str(tmp_path / "out"),
                 "--elim-every", "1", "--relin-every", "2"]) == 0
    return str(tmp_path / "out")


def test_streaming_outputs_match_golden(tmp_path, monkeypatch):
    """A fresh streaming run at relinearization threshold 0 writes the
    stored outputs: words exactly, numbers within OUTPUT_TOL."""
    monkeypatch.setattr(slam_cli, "RELIN_THRESHOLD", 0.0)
    assert output_differences(STREAM_GOLDEN, _stream_run(tmp_path)) == []


def test_streaming_outputs_at_default_threshold(tmp_path):
    """The streaming run at the default threshold: the stored trajectory
    and modes, and the stored history_beta.txt."""
    assert output_differences(STREAM_GOLDEN, _stream_run(tmp_path),
                              history="history_beta.txt") == []


def test_c10_jacobian_checks():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        pose = lambda: Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5),
                             rng.uniform(-math.pi, math.pi))
        values = {"a": pose(), "b": pose()}
        res = BetweenResidual("a", "b", pose())
        analytic = res.jacobians(values)
        numeric = numerical_jacobians(res.evaluate, values, ("a", "b"))
        for vid in ("a", "b"):
            worst = max(worst, float(np.max(np.abs(analytic[vid] - numeric[vid]))))
        prior = PriorResidual("a", pose())
        pa = prior.jacobians(values)["a"]
        pn = numerical_jacobians(prior.evaluate, values, ("a",))["a"]
        worst = max(worst, float(np.max(np.abs(pa - pn))))
    assert worst <= 1e-6
    _ok(10, f"100 random points: max |analytic - finite difference| = {worst:.2e}")


def _repeat_runs_identical(tmp_path, extra):
    """Two runs of hybridfg-slam with `extra` arguments on the C11 dataset
    write byte-identical outputs; timing.csv differs only in wall millis."""
    entries, _, _ = square_loop_dataset(seed=0, num_poses=65, n_ambiguous=4,
                                        n_loops=2)
    data = tmp_path / "data.txt"
    write_dataset(entries, data)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--input", str(data), "--output", str(out), *extra]) == 0
        outs.append(out)
    for fname in ("trajectory.txt", "modes.txt", "history.txt"):
        assert filecmp.cmp(outs[0] / fname, outs[1] / fname, shallow=False), fname
    # timing.csv records wall time; everything except the millis column must
    # still be byte-identical.
    rows = []
    for out in outs:
        with open(out / "timing.csv") as fh:
            rows.append([r[:3] for r in csv.reader(fh)])
    assert rows[0] == rows[1]
    assert rows[0][-1][0] == "final"


def test_c11_determinism(tmp_path):
    _repeat_runs_identical(tmp_path, [])
    _ok(11, "repeat runs byte-identical (timing.csv identical except wall "
            "millis)")


def test_c11_determinism_streaming_schedule(tmp_path):
    """The benchmark's streaming schedule, relinearizing the whole graph at
    every second elimination pass, repeats byte for byte too."""
    _repeat_runs_identical(tmp_path, ["--elim-every", "1", "--relin-every", "2"])
