"""Streaming hybrid SLAM solver.

Ingests a dataset of (possibly ambiguous) odometry and switchable loop
closures and, every elim_every hybrid factors, runs one streaming pass: one
hybrid iteration (nonlinear.gauss_newton_step: eliminate, prune, retract,
dead mode removal), two on every relin_every-th pass.  Streaming passes are
incremental, as in iSAM2 (Kaess et al., IJRR 2012): a variable keeps its
linearization point until its estimate moves more than RELIN_THRESHOLD
from it, a factor keeps its linearization while its variables keep their
points, and a clique without mode keys whose inputs did not change keeps
its conditional.  The final batch repeats the same iteration in
nonlinear.optimize, relinearizing every variable that moves.  Writes the
trajectory, mode decisions, per-update timing, and the history of MAP
estimates.

Exit codes: 0 success, 1 solver error, 2 I/O error, input format error or
bad command-line argument.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .dataset import (DatasetEntry, DatasetParseError, LoopClosure, Odometry,
                      parse_dataset)
from .discrete import DecisionTree, DiscreteKey
from .elimination import discrete_marginals
from .gaussian import GaussianConditional, NoiseModel
from .hybrid import (HybridBayesNet, HybridFactorGraph, HybridNonlinearFactor,
                     NonlinearFactor)
from .nonlinear import (BetweenResidual, Iteration, OptimizationDiverged,
                        OptimizeConfig, Pose2, PriorResidual, compose,
                        gauss_newton_step)

log = logging.getLogger("hybridfg")

ANCHOR_SIGMA = 1e-4
LOOSE_LOOP_VARIANCE = 10.0
# How far (metres or radians, largest coordinate) a streaming estimate may
# move from its linearization point before its factors are relinearized.
RELIN_THRESHOLD = 1e-3

PARSERS = {"custom": parse_dataset}


@dataclass
class RunConfig:
    prune_p: int = 10
    dmr_delta: float = 0.8
    elim_every: int = 3         # hybrid factors per streaming pass
    relin_every: int = 10       # every relin_every-th pass iterates twice
    max_steps: int = 0          # 0 = whole dataset

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.prune_p < 1:
            raise ValueError("prune_p must be >= 1")
        if not (0.5 < self.dmr_delta <= 1.0):
            raise ValueError("dmr_delta must be in (0.5, 1]")
        if self.elim_every < 1 or self.relin_every < 1:
            raise ValueError("schedule constants must be >= 1")


def _sigma_diag(sigma_xy: float, sigma_theta: float) -> Tuple[float, ...]:
    return (sigma_xy ** 2, sigma_xy ** 2, sigma_theta ** 2)


class NoiseModels(dict):
    """NoiseModels of SE(2) residuals by covariance diagonal, each one
    checked and factored on first use: a run holds one of these, so a
    covariance that thousands of factors share is factored once."""

    def __missing__(self, diag: Tuple[float, ...]) -> NoiseModel:
        noise = self[diag] = NoiseModel(np.array(diag), 3)
        return noise


def build_motion_factor(entry: Odometry, index: int, noise: NoiseModels):
    """Hybrid between-factor whose mode picks the odometry hypothesis; a
    single hypothesis degenerates to a plain between-factor.  Its noise
    model comes from `noise`."""
    i, j = ("x", entry.frm), ("x", entry.to)
    model = noise[_sigma_diag(entry.sigma_xy, entry.sigma_theta)]
    residuals = [BetweenResidual(i, j, Pose2(*h)) for h in entry.hypotheses]
    if len(residuals) == 1:
        return NonlinearFactor._own(residuals[0], model)
    keys = (DiscreteKey(("m", index), len(residuals)),)
    return HybridNonlinearFactor(keys, DecisionTree(
        keys, [(r, model) for r in residuals]))


def build_loop_factor(entry: LoopClosure, index: int, noise: NoiseModels
                      ) -> HybridNonlinearFactor:
    """Switchable loop closure: mode 1 uses the measurement covariance, mode
    0 swaps in a loose isotropic covariance so the constraint can switch
    off.  Its noise models come from `noise`."""
    i, j = ("x", entry.frm), ("x", entry.to)
    residual = BetweenResidual(i, j, Pose2(entry.dx, entry.dy, entry.dtheta))
    keys = (DiscreteKey(("l", index), 2),)
    tight = noise[_sigma_diag(entry.sigma_xy, entry.sigma_theta)]
    loose = noise[(LOOSE_LOOP_VARIANCE,) * 3]
    return HybridNonlinearFactor(keys, DecisionTree(
        keys, [(residual, loose), (residual, tight)]))


@dataclass
class RunResults:
    values: Dict[Any, Pose2]
    bn: HybridBayesNet
    assignment: Dict[Any, int]
    fixed: Dict[Any, int]
    marginals: Dict[Any, np.ndarray]
    timings: List[Tuple[Any, int, int, float]]   # step: pass number or "final"
    history: List[Tuple[int, int, float, float, float]]


class _Runner:
    def __init__(self, config: RunConfig):
        self.cfg = config
        self.noise = NoiseModels()
        self.graph = HybridFactorGraph()
        self.values: Dict[Any, Pose2] = {("x", 0): Pose2()}
        self.graph.add(NonlinearFactor._own(
            PriorResidual(("x", 0), Pose2()),
            self.noise[_sigma_diag(ANCHOR_SIGMA, ANCHOR_SIGMA)]))
        self.support = DecisionTree.constant(1.0)
        self.last: Optional[Iteration] = None   # the last hybrid iteration
        self.fixed: Dict[Any, int] = {}
        self.hybrid_count = 0
        self.elim_count = 0
        self.timings: List[Tuple[Any, int, int, float]] = []
        self.history: List[Tuple[int, int, float, float, float]] = []

    def _num_factors(self) -> int:
        return len(self.graph.all_factors())

    def add_entry(self, entry: DatasetEntry, index: int):
        frm, to = ("x", entry.frm), ("x", entry.to)
        if isinstance(entry, Odometry):
            if frm not in self.values:
                raise ValueError(f"odometry from unknown pose {entry.frm}")
            if to not in self.values:
                self.values[to] = compose(self.values[frm],
                                          Pose2(*entry.hypotheses[0]))
            factor = build_motion_factor(entry, index, self.noise)
            self.graph.add(factor)
            if isinstance(factor, HybridNonlinearFactor):
                self.hybrid_count += 1
                return True
            return False
        if frm not in self.values or to not in self.values:
            raise ValueError(f"loop closure {entry.frm}-{entry.to} to an unknown pose")
        factor = build_loop_factor(entry, index, self.noise)
        self.graph.add(factor)
        self.hybrid_count += 1
        return True

    def elimination_pass(self):
        """One hybrid iteration, two on every relin_every-th pass, each
        carrying on from the last at RELIN_THRESHOLD; every step is
        accepted.  Logs what the pass relinearized and reused."""
        self.elim_count += 1
        t0 = time.perf_counter()
        counts = [0, 0, 0, 0]
        iterations = 1 + (self.elim_count % self.cfg.relin_every == 0)
        for _ in range(iterations):
            it = gauss_newton_step(self.graph, self.values, self.support,
                                   self.cfg.prune_p, self.cfg.dmr_delta,
                                   self.last, RELIN_THRESHOLD)
            if log.isEnabledFor(logging.INFO):
                counts = [a + b for a, b in zip(counts, _reuse(self.last, it))]
            self.graph, self.values, self.support = it.graph, it.values, it.support
            self.last = it
            if it.fixed:
                log.info("dead mode removal fixed %s", it.fixed)
                self.fixed.update(it.fixed)
        log.info("elimination %d: relinearized %d of %d factors, reused %d "
                 "of %d key-free cliques over %d iterations", self.elim_count,
                 *counts, iterations)
        self._record_timing(self.elim_count, t0, self.support)
        for (kind, k) in sorted(self.values):
            p = self.values[(kind, k)]
            self.history.append((self.elim_count, k, p.x, p.y, p.theta))

    def _record_timing(self, step, t0: float, table: DecisionTree):
        """timing.csv row: step, factors, live rows of `table`, ms since t0."""
        millis = (time.perf_counter() - t0) * 1000.0
        hyps = int(np.count_nonzero(table.leaves))
        self.timings.append((step, self._num_factors(), hyps, millis))
        log.info("elimination %s: %d factors, %d live hypotheses, %.1f ms",
                 step, self._num_factors(), hyps, millis)

    def finalize(self):
        """Final batch: optimize to convergence with pruning and DMR,
        starting from the streaming support and last iteration; timed as
        step "final"."""
        t0 = time.perf_counter()
        cfg = OptimizeConfig(tol=1e-9, max_iters=15, prune=self.cfg.prune_p,
                             dmr_delta=self.cfg.dmr_delta)
        try:
            from .nonlinear import optimize
            estimate, self.bn = optimize(self.graph, self.values, cfg,
                                         self.support, self.last)
            self.values, assignment = estimate.continuous, estimate.discrete
        except OptimizationDiverged as e:
            log.warning("final optimization diverged; keeping best iterate")
            self.values, assignment, self.bn = e.best_values, e.best_assignment, e.bn
        self.assignment = dict(assignment)
        # Modes absent from the final net were fixed by dead mode removal,
        # in a streaming pass (already in self.fixed) or in this batch.
        live = {k.id for k in self.bn.discrete_keys()}
        self.fixed.update({k: v for k, v in assignment.items() if k not in live})
        self.assignment.update(self.fixed)
        self._record_timing("final", t0, self.bn.discrete_joint())

    def results(self) -> RunResults:
        return RunResults(values=dict(self.values), bn=self.bn,
                          assignment=dict(self.assignment),
                          fixed=dict(self.fixed),
                          marginals=discrete_marginals(self.bn),
                          timings=list(self.timings), history=list(self.history))


def _reuse(before: Optional[Iteration], it: Iteration) -> Tuple[int, ...]:
    """What iteration `it` made anew and took over from `before`: factors
    relinearized (linear factors not among before's), all factors, cliques
    reused (conditionals that are before's own) and all cliques without
    mode keys."""
    factors = it.lin.continuous_factors + it.lin.hybrid_factors
    old = set() if before is None else \
        set(map(id, before.lin.continuous_factors + before.lin.hybrid_factors))
    kept = set() if before is None else set(map(id, before.bn.conditionals))
    keyless = [c for c in it.bn.conditionals if type(c) is GaussianConditional]
    return (sum(id(f) not in old for f in factors), len(factors),
            sum(id(c) in kept for c in keyless), len(keyless))


def run(config: RunConfig, entries: List[DatasetEntry]) -> RunResults:
    runner = _Runner(config)
    limit = config.max_steps if config.max_steps > 0 else len(entries)
    for index, entry in enumerate(entries[:limit]):
        added_hybrid = runner.add_entry(entry, index)
        if added_hybrid and runner.hybrid_count % config.elim_every == 0:
            runner.elimination_pass()
    runner.finalize()
    return runner.results()


def _format_key(kid) -> str:
    if isinstance(kid, tuple) and len(kid) == 2:
        return f"{kid[0]}{kid[1]}"
    return str(kid)


def _text(lines) -> str:
    """Lines whose values are written with 9 decimals, each value that
    rounds to zero as 0.000000000: its sign would only show which way
    rounding went.  Every value is a whole field, so "-0.000000000"
    never matches inside another one."""
    return "".join(lines).replace("-0.000000000", "0.000000000")


def emit_results(results: RunResults, outdir: str):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "trajectory.txt"), "w", encoding="utf-8") as fh:
        fh.write(_text(f"POSE {k} {p.x:.9f} {p.y:.9f} {p.theta:.9f}\n"
                       for (_, k), p in sorted(results.values.items())))
    with open(os.path.join(outdir, "modes.txt"), "w", encoding="utf-8") as fh:
        keys = sorted(set(results.assignment) | set(results.fixed)
                      | set(results.marginals))
        lines = []
        for kid in keys:
            if kid in results.fixed:
                val, prob = results.fixed[kid], 1.0
            else:
                val = results.assignment.get(kid, 0)
                m = results.marginals.get(kid)
                prob = float(m[val]) if m is not None else 1.0
            lines.append(f"MODE {_format_key(kid)} {val} {prob:.9f}\n")
        fh.write(_text(lines))
    with open(os.path.join(outdir, "timing.csv"), "w", encoding="utf-8",
              newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "num_factors", "num_hypotheses", "millis"])
        for step, nf, nh, ms in results.timings:
            w.writerow([step, nf, nh, f"{ms:.3f}"])
    with open(os.path.join(outdir, "history.txt"), "w", encoding="utf-8") as fh:
        fh.write(_text(f"HIST {step} {k} {x:.9f} {y:.9f} {theta:.9f}\n"
                       for step, k, x, y, theta in results.history))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="hybridfg-slam",
        description="Hybrid pose-graph SLAM with ambiguous odometry and "
                    "switchable loop closures.")
    p.add_argument("--input", required=True, help="dataset file")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--prune", type=int, default=10,
                   help="hypotheses kept per pruning pass (default 10)")
    p.add_argument("--dmr-delta", type=float, default=0.8,
                   help="dead-mode-removal marginal threshold (default 0.8)")
    p.add_argument("--elim-every", type=int, default=3,
                   help="hybrid factors per streaming pass (default 3)")
    p.add_argument("--relin-every", type=int, default=10,
                   help="streaming passes per pass that takes a second "
                        "hybrid iteration; each iteration removes dead "
                        "modes (default 10)")
    p.add_argument("--max-steps", type=int, default=0,
                   help="dataset entries to ingest (0 = all)")
    args = p.parse_args(argv)
    try:
        config = RunConfig(prune_p=args.prune, dmr_delta=args.dmr_delta,
                           elim_every=args.elim_every,
                           relin_every=args.relin_every, max_steps=args.max_steps)
    except ValueError as e:
        p.error(str(e))

    level = os.environ.get("HYBRIDFG_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        # Looked up at call time: the benchmark's tracer patches this entry.
        entries = PARSERS["custom"](args.input)
    except (OSError, DatasetParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        results = run(config, entries)
    except (OptimizationDiverged, ValueError, RuntimeError, np.linalg.LinAlgError) as e:
        print(f"solver error: {e}", file=sys.stderr)
        return 1
    try:
        emit_results(results, args.output)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
