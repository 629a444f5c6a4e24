import math

import numpy as np
import pytest

from hybridfg import (DiscreteKey, HybridFactorGraph, HybridGaussianFactor,
                      enumerate_assignments, whiten)
from hybridfg.oracle import (enumerate_map, enumerate_posterior,
                             evidence_by_quadrature)

from helpers import mixture_graph, random_hybrid_graph

# Closed form for the worked mixture, computed independently of the build:
# P(m=0 | z=1) with evidences N(1; 0, 2) and N(1; 4, 2) is 1 / (1 + e^-2).
MIXTURE_P0 = 1.0 / (1.0 + math.exp(-2.0))


class TestEnumeratePosterior:
    def test_single_mode_is_least_squares(self):
        g = HybridFactorGraph()
        g.add(whiten({"x": [[1.0]]}, [3.0], 1.0))
        g.add(whiten({"x": [[1.0]]}, [5.0], 1.0))
        probs, optima = enumerate_posterior(g)
        assert probs.leaf({}) == 1.0
        np.testing.assert_allclose(optima.leaf({})["x"], [4.0], atol=1e-12)

    def test_worked_mixture_value(self):
        g, m = mixture_graph()
        probs, _ = enumerate_posterior(g)
        assert probs.leaf({"m": 0}) == pytest.approx(MIXTURE_P0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            g = random_hybrid_graph(np.random.default_rng(seed), 3, 3)
            probs, _ = enumerate_posterior(g)
            assert float(np.sum(probs.leaves)) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_instances_match_quadrature(self):
        """Dense log-evidence agrees with grid quadrature (4096 points over
        +-8 sigma) on one-variable instances, within 1e-4 relative."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = random_hybrid_graph(rng, 1, 2, with_discrete_factor=True)
            probs, _ = enumerate_posterior(g)
            evs = []
            for a in enumerate_assignments(probs.keys):
                evs.append(evidence_by_quadrature(g, a))
            evs = np.asarray(evs)
            np.testing.assert_allclose(evs / evs.sum(),
                                       np.asarray(probs.leaves).reshape(-1),
                                       atol=1e-4)

    def test_nil_mode_probability_zero(self):
        m = DiscreteKey("m", 2)
        g = HybridFactorGraph()
        g.add(HybridGaussianFactor.from_components([m], [
            (whiten({"x": [[1.0]]}, [0.0], 1.0), 0.0),
            None,
        ]))
        probs, optima = enumerate_posterior(g)
        assert probs.leaf({"m": 1}) == 0.0
        assert optima.leaf({"m": 1}) is None

    def test_enumeration_cap(self):
        g = HybridFactorGraph()
        keys = [DiscreteKey(f"m{i}", 2) for i in range(13)]
        for k in keys:
            g.add(HybridGaussianFactor.from_components([k], [
                (whiten({"x": [[1.0]]}, [0.0], 1.0), 0.0),
                (whiten({"x": [[1.0]]}, [1.0], 1.0), 0.0),
            ]))
        with pytest.raises(ValueError, match="enumeration cap"):
            enumerate_posterior(g)


class TestEnumerateMap:
    def test_single_mode_optimum(self):
        g = HybridFactorGraph()
        g.add(whiten({"x": [[1.0]]}, [3.0], 1.0))
        g.add(whiten({"x": [[1.0]]}, [5.0], 1.0))
        out = enumerate_map(g)
        assert out.discrete == {}
        np.testing.assert_allclose(out.continuous["x"], [4.0], atol=1e-12)

    def test_symmetric_modes_tie_break_smallest(self):
        m = DiscreteKey("m", 2)
        g = HybridFactorGraph()
        comp = (whiten({"x": [[1.0]]}, [0.0], 1.0), 0.0)
        g.add(HybridGaussianFactor.from_components([m], [comp, comp]))
        out = enumerate_map(g)
        assert out.discrete == {"m": 0}

    def test_worked_mixture_map(self):
        g, m = mixture_graph()
        out = enumerate_map(g)
        assert out.discrete == {"m": 0}
        np.testing.assert_allclose(out.continuous["x"], [0.5], atol=1e-12)
