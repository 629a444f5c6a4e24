"""The benchmark's tracer (perfbench/tracer.py) wraps hybridfg functions
where their callers look them up at call time.  A rename of a wrapped name,
or a function bound at import time, would make its traced per-layer figures
read 0; this runs one traced solve and checks that every layer shows up.
The workloads (perfbench/workloads.py) import hybridfg names too, so one of
their graphs is built and eliminated here as well."""

import os

import numpy as np
import pytest

from hybridfg import discrete_marginals, slam_cli, sum_product
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
    for name in ("elimination.sum_product_calls", "gaussian.eliminate_one_calls",
                 "nonlinear.optimize_s", "slam_cli.finalize_s"):
        assert m[name] > 0, name
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
