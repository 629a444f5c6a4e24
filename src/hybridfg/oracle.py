"""Brute-force reference inference for validating elimination.

Everything here enumerates discrete assignments and solves each mode-fixed
Gaussian problem densely via normal equations, deriving the evidence from
the standard Gaussian integral

    log ev(m) = -E_min(m) - c(m) + (N/2) log(2 pi) - 0.5 log |Lambda(m)|

rather than from any sequential factorization, so it shares no code path
with the engine it checks.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .discrete import DecisionTree, enumerate_assignments, first_best
from .gaussian import VectorValues
from .hybrid import HybridFactorGraph, HybridValues

ENUM_CAP = 1 << 12
CONT_DIM_CAP = 32


def _layout(g: HybridFactorGraph) -> Tuple[List[Any], Dict[Any, int], int]:
    dims: Dict[Any, int] = {}
    for f in g.continuous_factors:
        for vid in f.blocks:
            dims[vid] = f.dim(vid)
    for hf in g.hybrid_factors:
        for leaf in hf.components.leaves.reshape(-1):
            if leaf is not None:
                jf = leaf[0]
                for vid in jf.blocks:
                    dims[vid] = jf.dim(vid)
                break
    order = sorted(dims)
    total = sum(dims.values())
    if total > CONT_DIM_CAP:
        raise ValueError(f"continuous dimension {total} exceeds cap {CONT_DIM_CAP}")
    offsets = {}
    at = 0
    for vid in order:
        offsets[vid] = at
        at += dims[vid]
    return order, offsets, total


def _mode_system(g, assignment, offsets, total):
    """Stack the mode-fixed system; returns (A, b, neg_log_c, log_disc) or
    None when the mode is impossible (nil leaf or zero discrete potential)."""
    rows = []
    rhs = []
    const = 0.0
    for f in g.continuous_factors:
        rows.append((f, 0.0))
    for hf in g.hybrid_factors:
        sub = {k.id: assignment[k.id] for k in hf.keys}
        leaf = hf.components.leaf(sub)
        if leaf is None:
            return None
        rows.append(leaf)
    log_disc = 0.0
    for df in g.discrete_factors:
        sub = {k.id: assignment[k.id] for k in df.keys}
        p = df.value(sub)
        if p <= 0.0:
            return None
        log_disc += math.log(p)
    nrows = sum(jf.rows for jf, _ in rows)
    A = np.zeros((nrows, total))
    b = np.zeros(nrows)
    r = 0
    for jf, c in rows:
        const += c
        for vid, blk in jf.blocks.items():
            at = offsets[vid]
            A[r:r + jf.rows, at:at + blk.shape[1]] = blk
        b[r:r + jf.rows] = jf.rhs
        r += jf.rows
    return A, b, const, log_disc


def _check_cap(keys):
    total = 1
    for k in keys:
        total *= k.cardinality
        if total > ENUM_CAP:
            raise ValueError(f"enumeration cap exceeded: more than {ENUM_CAP} "
                             "discrete assignments")


def enumerate_posterior(g: HybridFactorGraph
                        ) -> Tuple[DecisionTree, DecisionTree]:
    """Exact P(M | Z) and the per-mode continuous optima.

    Returns (probabilities, optima) as decision trees over the graph's
    discrete keys; impossible/singular modes get probability 0 and a None
    optimum.  A graph with no discrete keys yields zero-key trees.
    """
    keys = g.discrete_keys()
    _check_cap(keys)
    order, offsets, total = _layout(g)
    optima: List[Optional[VectorValues]] = []
    vals = []
    for assignment in enumerate_assignments(keys) if keys else [{}]:
        sys = _mode_system(g, assignment, offsets, total)
        if sys is None:
            vals.append(-math.inf)
            optima.append(None)
            continue
        A, b, const, log_disc = sys
        lam = A.T @ A
        sign, logdet = np.linalg.slogdet(lam)
        if sign <= 0:
            vals.append(-math.inf)
            optima.append(None)
            continue
        try:
            mu = np.linalg.solve(lam, A.T @ b)
        except np.linalg.LinAlgError:
            vals.append(-math.inf)
            optima.append(None)
            continue
        resid = A @ mu - b
        e_min = 0.5 * float(resid @ resid)
        lev = -e_min - const + 0.5 * total * math.log(2.0 * math.pi) \
            - 0.5 * logdet + log_disc
        vals.append(lev)
        opt: VectorValues = {}
        for i, vid in enumerate(order):
            lo = offsets[vid]
            hi = offsets[order[i + 1]] if i + 1 < len(order) else total
            opt[vid] = mu[lo:hi].copy()
        optima.append(opt)
    arr = np.asarray(vals, dtype=float)
    if not np.any(np.isfinite(arr)):
        raise ValueError("all discrete assignments are impossible")
    shift = float(np.max(arr[np.isfinite(arr)]))
    with np.errstate(over="ignore"):
        w = np.where(np.isfinite(arr), np.exp(arr - shift), 0.0)
    probs = w / w.sum()
    return DecisionTree(keys, probs), DecisionTree(keys, optima)


def enumerate_map(g: HybridFactorGraph) -> HybridValues:
    """Exact hybrid MAP: argmax over modes of the peak unnormalized density
    exp(-(E_min + c)) times discrete potentials; ties (log-peaks within
    rounding of the best, see first_best) keep the smallest assignment
    index."""
    keys = g.discrete_keys()
    _check_cap(keys)
    order, offsets, total = _layout(g)
    peaks: List[float] = []
    candidates: List[HybridValues] = []
    for assignment in enumerate_assignments(keys) if keys else [{}]:
        sys = _mode_system(g, assignment, offsets, total)
        if sys is None:
            continue
        A, b, const, log_disc = sys
        lam = A.T @ A
        sign, _ = np.linalg.slogdet(lam)
        if sign <= 0:
            continue
        mu = np.linalg.solve(lam, A.T @ b)
        resid = A @ mu - b
        opt: VectorValues = {}
        for i, vid in enumerate(order):
            lo = offsets[vid]
            hi = offsets[order[i + 1]] if i + 1 < len(order) else total
            opt[vid] = mu[lo:hi].copy()
        peaks.append(-0.5 * float(resid @ resid) - const + log_disc)
        candidates.append(HybridValues(continuous=opt, discrete=dict(assignment)))
    if not candidates:
        raise ValueError("all discrete assignments are impossible")
    return candidates[first_best(peaks)]


def evidence_by_quadrature(g: HybridFactorGraph, assignment,
                           num_points: int = 4096, half_width_sigmas: float = 8.0
                           ) -> float:
    """Evidence of a single-scalar-variable mode by grid quadrature; used to
    cross-check the dense log-evidence formula."""
    order, offsets, total = _layout(g)
    if total != 1:
        raise ValueError("quadrature oracle only handles one scalar variable")
    sys = _mode_system(g, assignment, offsets, total)
    if sys is None:
        return 0.0
    A, b, const, log_disc = sys
    lam = float((A.T @ A).item())
    mu = float((A.T @ b).item()) / lam
    sigma = 1.0 / math.sqrt(lam)
    xs = np.linspace(mu - half_width_sigmas * sigma, mu + half_width_sigmas * sigma,
                     num_points)
    r = A @ xs[None, :] - b[:, None]
    vals = np.exp(-0.5 * np.sum(r * r, axis=0) - const + log_disc)
    return float(np.trapezoid(vals, xs))
