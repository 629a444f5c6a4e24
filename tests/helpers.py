"""Shared builders for randomized test graphs, and a command-line runner."""

import os
import subprocess
import sys

import numpy as np

import hybridfg
from hybridfg import (DiscreteFactor, DiscreteKey, GaussianConditional,
                      HybridFactorGraph, HybridGaussianFactor, JacobianFactor,
                      log_normalization_constant, whiten)
from hybridfg.gaussian import RANK_TOL, UnderconstrainedVariable


def reference_eliminate_one(factors, var):
    """Reference: eliminate_one as it ran before elimination was batched,
    one QR per stack, with the conditional and the marginal built by their
    public, checking constructors and the marginal rows signed row by row."""
    dims = {}
    for f in factors:
        for vid in f.blocks:
            if dims.setdefault(vid, f.dim(vid)) != f.dim(vid):
                raise ValueError(f"inconsistent dimension for {vid!r}")
    if var not in dims:
        raise UnderconstrainedVariable(f"{var!r} appears in no factor")
    separator = sorted(v for v in dims if v != var)
    offsets, c = {}, 0
    for vid in [var] + separator:
        offsets[vid] = c
        c += dims[vid]
    M = np.zeros((sum(f.rows for f in factors), c + 1))
    r = 0
    for f in factors:
        for vid, A in f.blocks.items():
            M[r:r + f.rows, offsets[vid]:offsets[vid] + A.shape[1]] = A
        M[r:r + f.rows, -1] = f.rhs
        r += f.rows
    dv = dims[var]
    if M.shape[0] < dv:
        raise UnderconstrainedVariable(f"{var!r} has too few rows")
    Rfull = np.linalg.qr(M, mode="r")
    tol = RANK_TOL * max(float(np.max(np.abs(Rfull))), 1.0)
    if np.any(np.abs(np.diag(Rfull)[:dv]) <= tol):
        raise UnderconstrainedVariable(f"{var!r} is rank deficient")
    conditional = GaussianConditional(
        var, Rfull[:dv, :dv],
        {vid: Rfull[:dv, offsets[vid]:offsets[vid] + dims[vid]]
         for vid in separator}, Rfull[:dv, -1])
    T = Rfull[dv:].copy()
    for i in range(T.shape[0]):
        nz = np.flatnonzero(np.abs(T[i]) > tol)
        if nz.size and T[i, nz[0]] < 0:
            T[i] *= -1.0
    marginal = JacobianFactor({vid: T[:, offsets[vid]:offsets[vid] + dims[vid]]
                               for vid in separator}, T[:, -1])
    return conditional, marginal


def same_bits(a, b) -> bool:
    """Arrays equal bit for bit, signs of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_conditional(c1, c2) -> bool:
    """Bitwise equal conditionals: R, d, every parent block and the
    log-normalizer."""
    return (c1.frontal == c2.frontal and c1.parents == c2.parents
            and list(c1.parent_blocks) == list(c2.parent_blocks)
            and same_bits(c1.R, c2.R) and same_bits(c1.d, c2.d)
            and all(same_bits(c1.parent_blocks[v], c2.parent_blocks[v])
                    for v in c1.parent_blocks)
            and same_bits(c1.log_normalizer, c2.log_normalizer))


def same_marginal(m1, m2) -> bool:
    """Bitwise equal factors: every block and the rhs."""
    return (m1.variables == m2.variables and list(m1.blocks) == list(m2.blocks)
            and all(same_bits(m1.blocks[v], m2.blocks[v]) for v in m1.blocks)
            and same_bits(m1.rhs, m2.rhs))


def same_elimination(got, want) -> bool:
    """Bitwise equal (conditional, marginal) pairs."""
    return same_conditional(got[0], want[0]) and same_marginal(got[1], want[1])


def random_hybrid_graph(rng, n_cont=4, n_disc=3, with_discrete_factor=True,
                        two_var_hybrids=False):
    """A scalar chain with an anchor prior, plain between factors, and
    hybrid measurements whose modes differ in mean and noise scale.

    Every continuous variable is constrained in every mode, so all modes are
    full rank and the brute-force oracle applies.
    """
    g = HybridFactorGraph()
    xs = [f"x{i}" for i in range(n_cont)]
    g.add(whiten({xs[0]: [[1.0]]}, [rng.normal()], rng.uniform(0.5, 2.0)))
    for i in range(n_cont - 1):
        g.add(whiten({xs[i]: [[-1.0]], xs[i + 1]: [[1.0]]}, [rng.normal()],
                     rng.uniform(0.5, 2.0)))
    keys = [DiscreteKey(f"m{j}", 2) for j in range(n_disc)]
    for k in keys:
        if two_var_hybrids and n_cont >= 2 and rng.random() < 0.5:
            i = int(rng.integers(n_cont - 1))
            blocks = {xs[i]: [[-1.0]], xs[i + 1]: [[1.0]]}
        else:
            blocks = {xs[int(rng.integers(n_cont))]: [[1.0]]}
        comps = []
        for _ in range(2):
            var = rng.uniform(0.3, 3.0) ** 2
            comps.append((whiten(blocks, [rng.normal(scale=2.0)], var),
                          log_normalization_constant(var)))
        g.add(HybridGaussianFactor.from_components([k], comps))
    if with_discrete_factor and n_disc >= 1 and rng.random() < 0.5:
        k = keys[int(rng.integers(n_disc))]
        g.add(DiscreteFactor([k], rng.uniform(0.1, 1.0, size=2)))
    return g


def mixture_graph():
    """The worked single-variable mixture: prior N(0,1) on x, measurement
    z=1 explained by mode means 0 or 4 with unit measurement noise."""
    m = DiscreteKey("m", 2)
    g = HybridFactorGraph()
    g.add(JacobianFactor({"x": [[1.0]]}, [0.0]))
    c = log_normalization_constant(1.0)
    g.add(HybridGaussianFactor.from_components([m], [
        (whiten({"x": [[1.0]]}, [1.0 - 0.0], 1.0), c),
        (whiten({"x": [[1.0]]}, [1.0 - 4.0], 1.0), c),
    ]))
    return g, m


def hypothesis_chain_graph(rng, n_keys=8):
    """Chain of scalar variables whose between measurements are all
    two-mode: a 2**n_keys joint hypothesis space.

    Mode evidences are drawn with widely varying ratios so the sorted joint
    probabilities are well separated and rank cuts are unambiguous.
    """
    g = HybridFactorGraph()
    xs = [f"x{i}" for i in range(n_keys + 1)]
    g.add(whiten({xs[0]: [[1.0]]}, [0.0], 0.1))
    g.add(whiten({xs[-1]: [[1.0]]}, [float(n_keys)], 0.5))
    for i in range(n_keys):
        k = DiscreteKey(f"m{i}", 2)
        comps = []
        for mode in range(2):
            z = 1.0 + rng.uniform(0.1, 1.7) * mode + rng.normal(scale=0.3)
            var = rng.uniform(0.2, 2.5)
            comps.append((whiten({xs[i]: [[-1.0]], xs[i + 1]: [[1.0]]}, [z], var),
                          log_normalization_constant(var)))
        g.add(HybridGaussianFactor.from_components([k], comps))
    return g


def run_module(module, *args):
    """Run `python -m module args` on this checkout; returns the process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hybridfg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=120)
