"""The benchmark's tracer (perfbench/tracer.py) wraps hybridfg functions
where their callers look them up at call time.  A rename of a wrapped name,
or a function bound at import time, would make its traced per-layer figures
read 0; this runs one traced solve and checks that every layer shows up.
The workloads (perfbench/workloads.py) import hybridfg names too, so one of
their graphs is built and eliminated here as well."""

import os

import numpy as np
import pytest

from hybridfg import (DiscreteFactor, HybridGaussianConditional,
                      discrete_marginals, prune_bayes_net, slam_cli,
                      sum_product)
from hybridfg.elimination import hypothesis_support
from hybridfg.dataset import square_loop_dataset, write_dataset

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_traced_layers_are_nonzero(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    entries, _, _ = square_loop_dataset(seed=0, num_poses=65, n_ambiguous=4,
                                        n_loops=2)
    data = tmp_path / "data.txt"
    write_dataset(entries, data)
    t = tracer.Tracer()
    t.install()
    try:
        rc = slam_cli.main(["--input", str(data), "--output", str(tmp_path / "out")])
    finally:
        t.uninstall()
    assert rc == 0
    m = t.metrics()
    # The shared Gauss-Newton step looks dead_mode_removal up in
    # elimination when it runs, where the tracer wraps it.
    for name in ("elimination.sum_product_calls", "nonlinear.optimize_s",
                 "slam_cli.finalize_s", "elimination.dmr_s",
                 "elimination.prune_s"):
        assert m[name] > 0, name
    # sum_product eliminates by wavefront through eliminate_stacked, so the
    # tracer's eliminate_one figures read 0 until it counts eliminated
    # systems instead (ROADMAP item 2).
    assert m["gaussian.eliminate_one_calls"] == 0
    # One elimination per Gauss-Newton step: the MAP is read off its net.
    assert m["elimination.max_product_calls"] == 0
    assert m["elimination.sum_product_calls"] == m["nonlinear.linearize_calls"]


def test_workload_graph_eliminates(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    g = workloads.corpus_graph(np.random.default_rng(0), 2, 1)
    marginals = discrete_marginals(sum_product(g))
    assert marginals
    for probs in marginals.values():
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)


def test_tracer_leaf_counts_match_live_leaf_walk(monkeypatch):
    """The tracer counts a net's live hybrid leaves off the dense leaf array
    (its `.flat` and `.size`); on a net with nil leaves the count must equal
    the live-leaf walk's and the largest tree size the largest
    `leaves.size`.  The net is a streaming pass's: the linearization plus
    the support of a net pruned to 2 as a discrete factor."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    entries, _, _ = square_loop_dataset(0, 65, 4, 2)
    runner = slam_cli._Runner(slam_cli.RunConfig())
    for index, entry in enumerate(entries):
        runner.add_entry(entry, index)
    lin = runner.graph.linearize(runner.values)
    support = hypothesis_support(prune_bayes_net(sum_product(lin), 2))
    lin.add(DiscreteFactor(support.keys, support))
    bn = sum_product(lin)
    hybrids = [c.components for c in bn.conditionals
               if isinstance(c, HybridGaussianConditional)]
    live, largest = tracer._hybrid_leaf_counts(bn)
    assert live == sum(len(tree.live_leaves()) for tree in hybrids)
    assert largest == max(tree.leaves.size for tree in hybrids)
    # The support left nil leaves, so the two counts differ.
    assert live < sum(tree.leaves.size for tree in hybrids)
