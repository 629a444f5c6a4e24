"""One benchmark workload, run in its own process (started by ``run.py``).

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
                                   [--trace 0|1] [--setup-only]

Prints one JSON object as its last stdout line: ``correct``, ``attempted``,
``failed``, ``metrics`` (name -> value), ``env`` and ``notes``.  ``run.py``
picks the metrics named in BENCHMARK.json and attaches units.

Set-up is timed from the first line of this file, so it covers importing
numpy and hybridfg as well as generating and writing the inputs.

The speed of a shared host drifts by up to a third over minutes, and
process CPU time drifts with it.  So every timed stretch is paired with a
fixed reference loop that does not use hybridfg (``reference_s``), run right
before and after it, and the reported times are rescaled to a host on which
that loop takes REFERENCE_NOMINAL_S.  The raw wall times are printed too.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Dict, List  # noqa: E402

import numpy as np  # noqa: E402

import hybridfg  # noqa: E402
from hybridfg import dataset, elimination, oracle, slam_cli  # noqa: E402
from hybridfg import (DiscreteFactor, DiscreteKey, HybridGaussianFactor,  # noqa: E402
                      HybridGaussianFactorGraph, log_normalization_constant,
                      whiten)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402

WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")

# SLAM workloads: square_loop_dataset(seed, poses, ambiguous, loops) solved by
# the hybridfg-slam CLI with these extra arguments.
SLAM = {
    "slam_batch": ((100, 10, 4), []),
    "slam_stream": ((200, 10, 10), ["--elim-every", "1", "--relin-every", "2"]),
}
MODES_CORRECT_MIN = 0.9
LOOP_MARGINAL_MIN = 0.9
# Every written position must lie within one odometry sigma of the
# least-squares optimum of the pose graph with every mode true.
OPTIMUM_TOL_M = 0.01

# Library corpus: every (continuous count, mode count) shape of the C01
# corpus appears GRAPHS_PER_SHAPE times, with random coefficients.
CORPUS_SHAPES = [(n_cont, n_disc) for n_cont in range(1, 7) for n_disc in range(6)]
GRAPHS_PER_SHAPE = 3
SAMPLES_PER_GRAPH = 4
PRUNE_P = 4
ORACLE_TOL = 1e-9

# Reference loop: interpreter work and small QRs, like the solver's own mix.
REFERENCE_LOOPS = 6000
REFERENCE_NOMINAL_S = 0.11
_REFERENCE_A = np.random.default_rng(0).normal(size=(6, 4))


def _env() -> Dict[str, object]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "hybridfg": hybridfg.__version__,
            "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def reference_s() -> float:
    """Wall time of a fixed loop that touches no hybridfg code."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(REFERENCE_LOOPS):
        r = np.linalg.qr(_REFERENCE_A, mode="r")
        acc += float(r[0, 0])
        table[(i % 97, i % 13)] = [acc, i]
    return time.perf_counter() - t0


def rescaled(wall_s: float, ref_s: float) -> float:
    """WALL_S as it would read on a host where the reference loop takes
    REFERENCE_NOMINAL_S, given that it took REF_S around the timing."""
    return wall_s * REFERENCE_NOMINAL_S / ref_s


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# SLAM workloads
# ---------------------------------------------------------------------------

@dataclass
class SlamCase:
    path: str
    entries: list
    truth: list
    true_modes: Dict[int, int]      # entry index of ambiguous odometry -> mode
    loops: List[int]                # entry indices of loop closures


def slam_setup(workload: str, seed: int, workdir: str) -> SlamCase:
    (poses, ambiguous, loops), _ = SLAM[workload]
    entries, truth, true_modes = dataset.square_loop_dataset(
        seed, poses, ambiguous, loops)
    path = os.path.join(workdir, "data.txt")
    dataset.write_dataset(entries, path)
    amb = [k for k, e in enumerate(entries)
           if isinstance(e, dataset.Odometry) and len(e.hypotheses) > 1]
    return SlamCase(path, entries, truth,
                    {k: true_modes[order] for order, k in enumerate(amb)},
                    [k for k, e in enumerate(entries)
                     if isinstance(e, dataset.LoopClosure)])


def reference_optimum(case: SlamCase) -> np.ndarray:
    """(x, y, theta) per pose minimising the whitened squared residuals of
    the anchor prior, every odometry at its true mode and every loop
    closure.  Plain dense Gauss-Newton from the ground truth, written here
    without hybridfg so that it checks the solver independently.  Sigmas
    are isotropic in x and y, so these residuals have the same norms as the
    solver's own."""
    rows = []
    for k, e in enumerate(case.entries):
        if isinstance(e, dataset.LoopClosure):
            meas = (e.dx, e.dy, e.dtheta)
        else:
            meas = e.hypotheses[case.true_modes.get(k, 0)]
        rows.append((e.frm, e.to, *meas, 1.0 / e.sigma_xy, 1.0 / e.sigma_theta))
    rows = np.array(rows)
    i, j = rows[:, 0].astype(int), rows[:, 1].astype(int)
    meas, wxy, wth = rows[:, 2:5], rows[:, 5], rows[:, 6]
    m, n = len(rows), len(case.truth)
    e_ = np.arange(m)
    x = np.array([[p.x, p.y, p.theta] for p in case.truth])
    for _ in range(50):
        c, s = np.cos(x[i, 2]), np.sin(x[i, 2])
        dx, dy = x[j, 0] - x[i, 0], x[j, 1] - x[i, 1]
        dth = np.angle(np.exp(1j * (x[j, 2] - x[i, 2] - meas[:, 2])))
        r = np.concatenate([(c * dx + s * dy - meas[:, 0]) * wxy,
                            (c * dy - s * dx - meas[:, 1]) * wxy, dth * wth,
                            x[0] / slam_cli.ANCHOR_SIGMA])
        A = np.zeros((3 * m + 3, 3 * n))
        for row, (a, b, th) in enumerate([(c, s, c * dy - s * dx),
                                          (-s, c, -c * dx - s * dy)]):
            A[row * m + e_, 3 * i] = -a * wxy
            A[row * m + e_, 3 * i + 1] = -b * wxy
            A[row * m + e_, 3 * j] = a * wxy
            A[row * m + e_, 3 * j + 1] = b * wxy
            A[row * m + e_, 3 * i + 2] = th * wxy
        A[2 * m + e_, 3 * i + 2] = -wth
        A[2 * m + e_, 3 * j + 2] = wth
        A[3 * m:, :3] = np.eye(3) / slam_cli.ANCHOR_SIGMA
        step = np.linalg.lstsq(A, -r, rcond=None)[0].reshape(n, 3)
        x += step
        if np.max(np.abs(step)) < 1e-12:
            break
    return x


def ate(xy: np.ndarray, truth) -> float:
    """RMS error of the positions XY (one row per pose) against TRUTH."""
    diff = xy[:, :2] - np.array([[p.x, p.y] for p in truth])
    return float(np.sqrt(np.mean(np.sum(diff ** 2, axis=1))))


def slam_finish(case: SlamCase, scores: List[Dict[str, object]]) -> None:
    """Fail every solve with a position more than OPTIMUM_TOL_M from the
    reference optimum.  Run once after the timed repeats, when peak memory
    has been read, since the reference solve holds dense matrices."""
    optimum = reference_optimum(case)
    for score in scores:
        score["ate_optimum_m"] = ate(optimum, case.truth)
        if score["trajectory"] is None:
            continue
        gap = score["trajectory"] - optimum[:, :2]
        score["optimum_gap_m"] = float(np.max(np.hypot(gap[:, 0], gap[:, 1])))
        if score["optimum_gap_m"] > OPTIMUM_TOL_M:
            score["failed"] = 1


def slam_solve(workload: str, case: SlamCase, outdir: str):
    """One timed run of the CLI on the dataset, scored outside the timing."""
    argv = ["--input", case.path, "--output", outdir] + SLAM[workload][1]
    t0 = time.perf_counter()
    rc = slam_cli.main(argv)
    dt = time.perf_counter() - t0
    score = slam_check(case, rc, outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    return dt, score


def slam_check(case: SlamCase, rc: int, outdir: str) -> Dict[str, object]:
    """Score the written trajectory.txt and modes.txt against ground truth.
    The trajectory is held against the reference optimum later, by
    slam_finish()."""
    score = {"attempted": 1, "failed": 1, "modes_correct": 0,
             "modes": len(case.true_modes), "loops_on": 0,
             "loops": len(case.loops), "ate_m": math.inf,
             "optimum_gap_m": math.inf, "trajectory": None, "fingerprint": None}
    if rc != 0:
        return score
    with open(os.path.join(outdir, "trajectory.txt"), "rb") as fh:
        traj = fh.read()
    with open(os.path.join(outdir, "modes.txt"), "rb") as fh:
        modes_txt = fh.read()
    score["fingerprint"] = hashlib.sha256(traj + b"\0" + modes_txt).hexdigest()
    pos = {}
    for line in traj.decode().splitlines():
        _, k, x, y, _ = line.split()
        pos[int(k)] = (float(x), float(y))
    modes = {}
    for line in modes_txt.decode().splitlines():
        _, name, val, prob = line.split()
        modes[(name[0], int(name[1:]))] = (int(val), float(prob))
    score["modes_correct"] = sum(1 for k, want in case.true_modes.items()
                                 if modes.get(("m", k), (None,))[0] == want)
    score["loops_on"] = sum(1 for k in case.loops
                            if modes.get(("l", k), (0, 0.0))[0] == 1
                            and modes[("l", k)][1] > LOOP_MARGINAL_MIN)
    if sorted(pos) == list(range(len(case.truth))):
        score["trajectory"] = np.array([pos[k] for k in range(len(case.truth))])
        score["ate_m"] = ate(score["trajectory"], case.truth)
    ok = (score["modes_correct"] >= MODES_CORRECT_MIN * score["modes"]
          and score["loops_on"] == score["loops"]
          and score["trajectory"] is not None)
    score["failed"] = int(not ok)
    return score


# ---------------------------------------------------------------------------
# Library corpus
# ---------------------------------------------------------------------------

def corpus_graph(rng, n_cont: int, n_disc: int) -> HybridGaussianFactorGraph:
    """A C01-style graph: scalar chain with an anchor prior, plain between
    factors, one- or two-variable hybrid measurements whose modes differ in
    mean and noise, and an optional discrete prior.

    A frozen copy of ``tests/helpers.random_hybrid_graph(rng, n_cont, n_disc,
    two_var_hybrids=True)``, so the benchmark inputs stay fixed if the test
    helpers change."""
    g = HybridGaussianFactorGraph()
    xs = [f"x{i}" for i in range(n_cont)]
    g.add(whiten({xs[0]: [[1.0]]}, [rng.normal()], rng.uniform(0.5, 2.0)))
    for i in range(n_cont - 1):
        g.add(whiten({xs[i]: [[-1.0]], xs[i + 1]: [[1.0]]}, [rng.normal()],
                     rng.uniform(0.5, 2.0)))
    keys = [DiscreteKey(f"m{j}", 2) for j in range(n_disc)]
    for k in keys:
        if n_cont >= 2 and rng.random() < 0.5:
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
    if n_disc >= 1 and rng.random() < 0.5:
        g.add(DiscreteFactor([keys[int(rng.integers(n_disc))]],
                             rng.uniform(0.1, 1.0, size=2)))
    return g


def corpus_setup(seed: int) -> List[HybridGaussianFactorGraph]:
    rng = np.random.default_rng(seed)
    return [corpus_graph(rng, n_cont, n_disc)
            for _ in range(GRAPHS_PER_SHAPE) for n_cont, n_disc in CORPUS_SHAPES]


def corpus_pass(graphs, oracle_cache: dict):
    """One timed pass that eliminates, queries and samples every graph,
    scored against the brute-force oracle outside the timing."""
    results = []
    t0 = time.perf_counter()
    for gi, g in enumerate(graphs):
        try:
            bn = elimination.sum_product(g)
            elimination.discrete_marginals(bn)
            mp = elimination.max_product(g)
            pruned = elimination.prune_bayes_net(bn, PRUNE_P)
            samples = [elimination.bn_sample(pruned, gi * SAMPLES_PER_GRAPH + s)
                       for s in range(SAMPLES_PER_GRAPH)]
            dens = [elimination.bn_evaluate(pruned, v) for v in samples]
            results.append((bn, mp, dens))
        except Exception as e:  # a failed graph is counted, never dropped
            results.append(e)
    dt = time.perf_counter() - t0
    return dt, corpus_check(graphs, results, oracle_cache)


def corpus_check(graphs, results, oracle_cache: dict) -> Dict[str, object]:
    """Per graph: the sum-product joint and the MAP must match the oracle to
    ORACLE_TOL and every sample must have positive density."""
    failed = agree = 0
    prints = []
    for gi, (g, res) in enumerate(zip(graphs, results)):
        if isinstance(res, Exception):
            print(f"graph {gi}: {type(res).__name__}: {res}", file=sys.stderr)
            failed += 1
            prints.append(None)
            continue
        if gi not in oracle_cache:
            probs, _ = oracle.enumerate_posterior(g)
            oracle_cache[gi] = (np.asarray(probs.leaves, dtype=float),
                                oracle.enumerate_map(g))
        want_joint, want_map = oracle_cache[gi]
        bn, mp, dens = res
        joint = bn.discrete_joint()
        got = np.asarray(joint.leaves if joint is not None else 1.0, dtype=float)
        ok = got.shape == want_joint.shape and \
            float(np.max(np.abs(got - want_joint))) <= ORACLE_TOL
        map_ok = mp.discrete == want_map.discrete
        agree += map_ok
        ok = ok and map_ok and all(
            float(np.max(np.abs(mp.continuous[v] - x))) <= ORACLE_TOL
            for v, x in want_map.continuous.items())
        ok = ok and all(math.isfinite(d) and d > 0.0 for d in dens)
        failed += not ok
        prints.append((got.tobytes(), repr(sorted(mp.discrete.items())),
                       b"".join(np.asarray(mp.continuous[v]).tobytes()
                                for v in sorted(mp.continuous)), tuple(dens)))
    return {"attempted": len(graphs), "failed": failed, "modes_correct": agree,
            "modes": len(graphs), "fingerprint": prints}


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def measure(solve, seconds: float, ref_s: float, finish):
    """Repeat SOLVE until the time is up (at least once), with the
    reference loop between repeats; REF_S is the one timed before the
    first.  Then read peak memory and let FINISH check the scores further.
    Every repeat must give the same outputs."""
    deadline = time.perf_counter() + seconds
    times, refs, scaled, scores = [], [ref_s], [], []
    while not times or time.perf_counter() < deadline:
        dt, score = solve()
        refs.append(reference_s())
        times.append(dt)
        scaled.append(rescaled(dt, (refs[-2] + refs[-1]) / 2))
        scores.append(score)
    peak_rss_mb = _peak_rss_mb()
    finish(scores)
    total = lambda key: sum(s[key] for s in scores)
    notes = []
    if any(s["fingerprint"] != scores[0]["fingerprint"] for s in scores):
        notes.append("repeat solves gave different outputs")
    metrics = {
        "solve_s": statistics.median(scaled),
        "solve_wall_s": statistics.median(times),
        "reference_s": statistics.median(refs),
        "graphs_per_s": total("attempted") / sum(times),
        "modes_correct_frac": total("modes_correct") / total("modes"),
        "failed_frac": total("failed") / total("attempted"),
        "repeats": len(times),
        "peak_rss_mb": peak_rss_mb,
    }
    if "ate_m" in scores[0]:
        metrics["ate_m"] = scores[0]["ate_m"]
        metrics["ate_optimum_m"] = scores[0]["ate_optimum_m"]
        metrics["optimum_gap_m"] = max(s["optimum_gap_m"] for s in scores)
        metrics["loops_on_frac"] = total("loops_on") / total("loops")
    return total("attempted"), total("failed"), metrics, notes


def trace(solve, seconds: float, tracer: Tracer, finish):
    """Alternate untraced and traced repeats of SOLVE until the time is up
    and at least two are traced, then let FINISH check the scores further.
    Tracing must change no output and every count must repeat exactly
    across traced repeats."""
    deadline = time.perf_counter() + seconds
    times = {False: [], True: []}
    layers, scores = [], []
    while len(times[True]) < 2 or time.perf_counter() < deadline:
        for traced in (False, True):
            if traced:
                tracer.reset()
                tracer.install()
            try:
                dt, score = solve()
            finally:
                tracer.uninstall()
            if traced:
                layers.append(tracer.metrics())
            times[traced].append(dt)
            scores.append(score)
    peak_rss_mb = _peak_rss_mb()
    finish(scores)
    notes = []
    if any(s["fingerprint"] != scores[0]["fingerprint"] for s in scores):
        notes.append("traced and untraced solves gave different outputs")
    metrics = {"peak_rss_mb": peak_rss_mb}
    for name in layers[0]:
        vals = [m[name] for m in layers]
        if name.endswith("_s") or name.endswith("_ms_p50"):
            metrics[name] = statistics.median(vals)
        else:
            if len(set(vals)) != 1:
                notes.append(f"{name} differs across traced solves: {vals}")
            metrics[name] = vals[0]
    metrics["trace.solve_s"] = statistics.median(times[True])
    metrics["trace.overhead_s"] = metrics["trace.solve_s"] \
        - statistics.median(times[False])
    return (sum(s["attempted"] for s in scores),
            sum(s["failed"] for s in scores), metrics, notes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(SLAM) + ["library_corpus"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up alone and exit")
    args = p.parse_args(argv)

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    tracer = Tracer()
    try:
        if args.trace:
            tracer.install()    # set-up is traced for dataset.generate_s
        if args.workload in SLAM:
            case = slam_setup(args.workload, args.seed, workdir)
            outdir = os.path.join(workdir, "out")
            solve = lambda: slam_solve(args.workload, case, outdir)
            finish = lambda scores: slam_finish(case, scores)
        else:
            graphs = corpus_setup(args.seed)
            cache: dict = {}
            solve = lambda: corpus_pass(graphs, cache)
            finish = lambda scores: None
        setup_wall_s = time.perf_counter() - _T0
        ref_s = reference_s()
        setup_s = rescaled(setup_wall_s, ref_s)
        generate_s = tracer.metrics()["dataset.generate_s"]
        tracer.uninstall()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            attempted, failed, metrics, notes = trace(solve, args.seconds,
                                                      tracer, finish)
            metrics["dataset.generate_s"] = generate_s
        else:
            attempted, failed, metrics, notes = measure(solve, args.seconds,
                                                        ref_s, finish)
            metrics["setup_s"] = setup_s
            metrics["setup_wall_s"] = setup_wall_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and not notes,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics, "env": _env(), "notes": notes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
