"""Pose-graph dataset I/O and the synthetic square-loop generator.

File format (whitespace separated, '#' starts a comment):

    ODOM <from> <to> <n> <dx1> <dy1> <dth1> ... <dxn> <dyn> <dthn> <sxy> <sth>
    LOOP <from> <to> <dx> <dy> <dth> <sxy> <sth>

ODOM lines carry n candidate relative poses for the same edge; n >= 2 makes
the edge ambiguous (one discrete mode of cardinality n).  LOOP lines are
switchable loop closures with a binary on/off mode.  Every number must be
finite, an ODOM line must lead from a pose to a later one, and poses other
than 0 exist only once an earlier ODOM line has led to them.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .nonlinear import Pose2, between_stacked, compose, local, pose_rows


class DatasetParseError(ValueError):
    pass


def _check_finite(*values: float):
    if not all(math.isfinite(v) for v in values):
        raise ValueError("numbers must be finite")


@dataclass(frozen=True)
class Odometry:
    frm: int
    to: int
    hypotheses: Tuple[Tuple[float, float, float], ...]
    sigma_xy: float
    sigma_theta: float

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("odometry needs at least one hypothesis")
        _check_finite(*(v for h in self.hypotheses for v in h),
                      self.sigma_xy, self.sigma_theta)
        if self.sigma_xy <= 0 or self.sigma_theta <= 0:
            raise ValueError("sigmas must be positive")
        if self.frm < 0 or self.frm >= self.to:
            raise ValueError("odometry needs 0 <= from < to")


@dataclass(frozen=True)
class LoopClosure:
    frm: int
    to: int
    dx: float
    dy: float
    dtheta: float
    sigma_xy: float
    sigma_theta: float

    def __post_init__(self):
        _check_finite(self.dx, self.dy, self.dtheta, self.sigma_xy, self.sigma_theta)
        if self.sigma_xy <= 0 or self.sigma_theta <= 0:
            raise ValueError("sigmas must be positive")
        if self.frm < 0 or self.frm >= self.to:
            raise ValueError("loop closure needs 0 <= from < to")


DatasetEntry = Union[Odometry, LoopClosure]


def parse_dataset(path) -> List[DatasetEntry]:
    entries: List[DatasetEntry] = []
    reached = {0}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            try:
                if tok[0] == "ODOM":
                    frm, to, n = int(tok[1]), int(tok[2]), int(tok[3])
                    if n <= 0:
                        raise ValueError("hypothesis count must be positive")
                    vals = [float(t) for t in tok[4:]]
                    if len(vals) != 3 * n + 2:
                        raise ValueError(f"expected {3 * n + 2} numbers after "
                                         f"the count, got {len(vals)}")
                    hyps = tuple((vals[3 * i], vals[3 * i + 1], vals[3 * i + 2])
                                 for i in range(n))
                    entry = Odometry(frm, to, hyps, vals[-2], vals[-1])
                    needs = {frm}
                elif tok[0] == "LOOP":
                    frm, to = int(tok[1]), int(tok[2])
                    vals = [float(t) for t in tok[3:]]
                    if len(vals) != 5:
                        raise ValueError(f"expected 5 numbers, got {len(vals)}")
                    entry = LoopClosure(frm, to, *vals)
                    needs = {frm, to}
                else:
                    raise ValueError(f"unknown record type {tok[0]!r}")
                if not needs <= reached:
                    raise ValueError(f"pose {min(needs - reached)} is not reached "
                                     "by an earlier ODOM line")
            except (ValueError, IndexError) as e:
                raise DatasetParseError(f"{path}:{lineno}: {e}") from None
            reached.add(entry.to)
            entries.append(entry)
    return entries


def write_dataset(entries: Sequence[DatasetEntry], path):
    # repr() emits the shortest digits that round-trip a float64 exactly.
    fmt = lambda v: repr(float(v))
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            if isinstance(e, Odometry):
                nums = " ".join(fmt(v) for hyp in e.hypotheses for v in hyp)
                fh.write(f"ODOM {e.frm} {e.to} {len(e.hypotheses)} {nums} "
                         f"{fmt(e.sigma_xy)} {fmt(e.sigma_theta)}\n")
            else:
                fh.write(f"LOOP {e.frm} {e.to} {fmt(e.dx)} {fmt(e.dy)} "
                         f"{fmt(e.dtheta)} {fmt(e.sigma_xy)} {fmt(e.sigma_theta)}\n")


# ---------------------------------------------------------------------------
# Synthetic generator: two laps around a rectangle with ambiguous odometry on
# the second lap and loop closures tying it back to the first.
# ---------------------------------------------------------------------------

_SIDES = (12, 13, 12, 13)  # edges per side; one lap = 50 unit steps
_LAP = sum(_SIDES)
# (dx, dy, dtheta) added to the measured step to make an ambiguous edge's decoy.
DECOY_OFFSET = (1.0, -0.8, 0.0)


def _lap_steps() -> List[Pose2]:
    """Relative poses of one lap: unit forward steps, 90 deg turn at corners."""
    steps = []
    for side in _SIDES:
        for k in range(side):
            turn = math.pi / 2.0 if k == side - 1 else 0.0
            steps.append(Pose2(1.0, 0.0, turn))
    return steps


def square_loop_truth(num_poses: int = 100) -> List[Pose2]:
    """Ground-truth trajectory: repeat the lap until num_poses poses exist."""
    steps = _lap_steps()
    poses = [Pose2()]
    k = 0
    while len(poses) < num_poses:
        poses.append(compose(poses[-1], steps[k % _LAP]))
        k += 1
    return poses


def square_loop_dataset(seed: int = 0, num_poses: int = 100,
                        n_ambiguous: int = 10, n_loops: int = 4,
                        sigma_xy: float = 0.01, sigma_theta: float = 2e-4
                        ) -> Tuple[List[DatasetEntry], List[Pose2], dict]:
    """Build the regression dataset.

    Loop closures connect second-lap poses to the matching first-lap poses;
    ambiguous odometry entries sit between consecutive loop anchors so every
    decoy is contradicted by a closed cycle before too many accumulate.
    Returns (entries, ground_truth, true_modes) where true_modes maps the
    0-based ambiguous-entry order to the correct hypothesis index.
    """
    if num_poses < _LAP + 2:
        raise ValueError(f"need at least {_LAP + 2} poses for a two-lap course")
    if n_loops < 1:
        raise ValueError("need at least one loop closure")
    if n_ambiguous < 0:
        raise ValueError("ambiguous edge count must be >= 0")
    rng = np.random.default_rng(seed)
    truth = square_loop_truth(num_poses)
    loop_targets = np.linspace(_LAP + 10, num_poses - 1, n_loops).round().astype(int)
    loop_targets = sorted(set(int(t) for t in loop_targets))
    # Spread ambiguous edges over the stretches between loop anchors.
    brackets = []
    lo = _LAP
    for t in loop_targets:
        brackets.append((lo, t))
        lo = t
    quota = [n_ambiguous // len(brackets)] * len(brackets)
    for i in range(n_ambiguous - sum(quota)):
        quota[i] += 1
    ambiguous = set()
    for (lo, hi), q in zip(brackets, quota):
        picks = np.linspace(lo + 1, hi - 2, q).round().astype(int)
        ambiguous.update(int(p) for p in picks)

    def noisy(rel: List[float]) -> Tuple[float, float, float]:
        return (rel[0] + rng.normal(scale=sigma_xy),
                rel[1] + rng.normal(scale=sigma_xy),
                rel[2] + rng.normal(scale=sigma_theta))

    entries: List[DatasetEntry] = []
    true_modes = {}
    loops_by_target = {t: t - _LAP for t in loop_targets}
    amb_index = 0
    rows = pose_rows(truth)
    steps = between_stacked(rows[:-1], rows[1:]).tolist()
    for k in range(num_poses - 1):
        meas = noisy(steps[k])
        if k in ambiguous:
            decoy = (meas[0] + DECOY_OFFSET[0], meas[1] + DECOY_OFFSET[1],
                     meas[2] + DECOY_OFFSET[2])
            true_first = bool(rng.integers(2))
            hyps = (meas, decoy) if true_first else (decoy, meas)
            entries.append(Odometry(k, k + 1, hyps, sigma_xy, sigma_theta))
            true_modes[amb_index] = 0 if true_first else 1
            amb_index += 1
        else:
            entries.append(Odometry(k, k + 1, (meas,), sigma_xy, sigma_theta))
        if k + 1 in loops_by_target:
            frm = loops_by_target[k + 1]
            lrel = noisy(local(truth[frm], truth[k + 1]).tolist())
            entries.append(LoopClosure(frm, k + 1, lrel[0], lrel[1], lrel[2],
                                       sigma_xy, sigma_theta))
    placed = sum(isinstance(e, LoopClosure) for e in entries)
    if (amb_index, placed) != (n_ambiguous, n_loops):
        raise ValueError(f"{num_poses} poses can place only {amb_index} ambiguous "
                         f"edges and {placed} loop closures, not {n_ambiguous} "
                         f"and {n_loops}")
    return entries, truth, true_modes


def generate_main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="hybridfg-gen",
        description="Generate a synthetic square-loop dataset with ambiguous "
                    "odometry and switchable loop closures.")
    p.add_argument("--output", required=True, help="output dataset file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--poses", type=int, default=100)
    p.add_argument("--ambiguous", type=int, default=10)
    p.add_argument("--loops", type=int, default=4)
    p.add_argument("--sigma-xy", type=float, default=0.01)
    p.add_argument("--sigma-theta", type=float, default=2e-4)
    p.add_argument("--truth", help="optional file for the ground-truth poses")
    args = p.parse_args(argv)
    try:
        entries, truth, _ = square_loop_dataset(
            seed=args.seed, num_poses=args.poses, n_ambiguous=args.ambiguous,
            n_loops=args.loops, sigma_xy=args.sigma_xy,
            sigma_theta=args.sigma_theta)
    except ValueError as e:
        p.error(str(e))
    try:
        write_dataset(entries, args.output)
        if args.truth:
            with open(args.truth, "w", encoding="utf-8") as fh:
                for k, pose in enumerate(truth):
                    fh.write(f"POSE {k} {pose.x:.9f} {pose.y:.9f} "
                             f"{pose.theta:.9f}\n")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(generate_main())
