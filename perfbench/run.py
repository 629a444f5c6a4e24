"""hybridfg benchmark: SLAM batch, SLAM streaming and library-corpus workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a checkout.  Each workload runs in a fresh child
process (perfbench/workloads.py) with BLAS/OpenMP pinned to one thread, so
peak memory and lazy set-up cannot leak from one workload to the next.
Set-up time is the median over SETUP_PROBES extra child processes and the
workload's own.  With --trace 0 the last stdout line reports the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics; every
figure the workload measured is printed above that line with its unit.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("slam_batch", "slam_stream", "library_corpus")
SETUP_PROBES = 6
DEADLINE_S = 170.0      # per workload, set-up probes included
PINNED_THREADS = "1"

# Units of the figures printed beside the BENCHMARK.json metrics.
EXTRA_UNITS = {"ate_m": "m", "ate_optimum_m": "m", "optimum_gap_m": "m",
               "loops_on_frac": "frac", "failed_frac": "frac",
               "graphs_per_s": "1/s", "solve_wall_s": "s",
               "reference_s": "s", "setup_wall_s": "s",
               "repeats": "count", "peak_rss_mb": "MB",
               "trace.solve_s": "s", "trace.overhead_s": "s"}


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = PINNED_THREADS
    env["PYTHONHASHSEED"] = "0"
    env["HYBRIDFG_LOG"] = "WARNING"
    return env


def _child(args, timeout):
    """Run workloads.py with ARGS; returns its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "workloads.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          timeout=timeout, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload, seed, seconds, trace, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            left = deadline - time.monotonic()
            setup.append(_child(common + ["--seconds", "0", "--setup-only"],
                                left)["setup_s"])
    out = _child(common + ["--seconds", str(seconds), "--trace", str(trace)],
                 deadline - time.monotonic())
    if not trace:
        setup.append(out["metrics"]["setup_s"])
        out["metrics"]["setup_s"] = statistics.median(setup)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds "
                        "from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="also write the full results as JSON here")
    args = p.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isdir(os.path.join(ROOT, "src", "hybridfg"))
            and os.path.isfile(spec_path)):
        print("error: run from a hybridfg checkout (src/hybridfg and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {**EXTRA_UNITS, **{m["name"]: m["unit"]
                               for m in spec["end_to_end"] + spec["per_layer"]}}

    # Build: byte-compile the sources once so every run imports cached code.
    compileall.compile_dir(os.path.join(ROOT, "src", "hybridfg"), quiet=1)
    compileall.compile_dir(os.path.join(ROOT, "perfbench"), quiet=1, maxlevels=0)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[workload] = run_workload(workload, args.seed, seconds,
                                             args.trace, deadline)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                ValueError, KeyError) as e:
            print(f"error: workload {workload} did not finish: {e}",
                  file=sys.stderr)
            return 1
        res = results[workload]
        for name, value in sorted(res["metrics"].items()):
            print(f"# {workload} {name} = {value!r} {units.get(name, '')}")
        for note in res["notes"]:
            print(f"# {workload} NOTE {note}")
    env = dict(next(iter(results.values()))["env"], git_sha=_git_sha(),
               pinned_threads=int(PINNED_THREADS))
    print("# env " + json.dumps(env, sort_keys=True))

    def pick(res):
        return {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                for m in wanted}

    if len(workloads) == 1:
        res = results[workloads[0]]
        metrics = pick(res)
    else:
        metrics = {f"{w}.{name}": v for w in workloads
                   for name, v in pick(results[w]).items()}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": seconds, "trace": args.trace,
                       "env": env, "workloads": results}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
