"""blowlab benchmark: time fixed workloads to a checked answer, whole and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Every workload run happens in a fresh child process (perfbench/child.py), so
peak_rss_mb is that run's own high-water mark.  A measurement starts runs one
after another while the next should end within --seconds (at least one run),
then reports medians: wall_s (first call into the package after set-up
through artifacts written), setup_s (process start through config
validation, grid and initial state; at least MIN_SETUPS samples, topped up
with set-up-only processes) and peak_rss_mb.  Every run's outputs are
checked (perfbench/workloads.py).

With --trace 1 the runs alternate untraced and traced; the traced ones wrap
the package's public functions (perfbench/tracing.py) and give the per-layer
metrics, and trace.overhead_s is the traced minus the untraced median
wall_s.  --all does both for every workload and prints one table; --self-test
drives the whole harness on tiny inputs.

The last line of standard output is one JSON object: correct, attempted and
failed count correctness checks over all runs, and metrics holds the
end-to-end metrics (or, with --trace 1, the per-layer ones).  A verifier
check of the known quadratic-bounds defect that fails is reported, and
counted in checks.failed_frac, but not in failed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
MIN_SETUPS = 5
# a measurement starts no run that could end later than this after its start
TIME_LIMIT_S = 160.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def machine_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "blas_threads": nproc()}


def spawn(name, seed, mode, traced, tiny, deadline):
    """One child process; its report, or None if it failed or ran out of time."""
    # relative to the checkout, so the config (and run_header.json) is the
    # same wherever the checkout lives
    out = os.path.join(os.path.basename(OUT), f"{name}-run")
    spans = os.path.join(OUT, f"{name}-seed{seed}.spans.json")
    env = dict(os.environ, **{var: str(nproc()) for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed),
           repr(time.monotonic()), out, mode, str(int(traced)), str(int(tiny)), spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"{name} seed {seed}: {mode} run timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(os.path.join(ROOT, out), ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    print(f"{name} seed {seed}: {mode} run exited {proc.returncode}\n"
          f"{proc.stderr[-2000:]}", file=sys.stderr)
    return None


def measure(name, seed, seconds, trace, tiny=False, rounds=1):
    """Runs of one workload for `seconds` (at least `rounds` rounds); a summary dict."""
    os.makedirs(OUT, exist_ok=True)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    kinds = (False, True) if trace else (False,)
    runs = []
    while True:
        traced = kinds[len(runs) % len(kinds)]
        runs.append((traced, spawn(name, seed, "run", traced, tiny, deadline)))
        now = time.monotonic()
        # start another run only if it should end inside the window
        mean = (now - start) / len(runs)
        if len(runs) >= rounds * len(kinds) and now + mean > start + seconds:
            break
        if now + 1.5 * mean > deadline:
            break

    checks = []
    for _, rep in runs:
        checks += (rep["checks"] if rep else workloads.check(name, seed, None, None, tiny))
    plain = [rep for traced, rep in runs if rep and not traced]
    traced_reps = [rep for traced, rep in runs if rep and traced]
    if len(traced_reps) >= 2:
        first = traced_reps[0]["layers"]
        same = all(rep["layers"][k] == first[k] for rep in traced_reps for k in tracing.COUNTS)
        checks.append(("trace.counts_repeat", same, False))

    setups = [rep["setup_s"] for rep in plain]
    while not trace and setups and len(setups) < MIN_SETUPS:
        rep = spawn(name, seed, "setup", False, tiny, deadline)
        if rep is None:
            checks.append(("setup_run", False, False))
            break
        setups.append(rep["setup_s"])

    summary = {
        "workload": name, "seed": seed,
        "attempted": len(checks),
        "failed": sum(1 for _, ok, known in checks if not ok and not known),
        "known_failed": sum(1 for _, ok, known in checks if not ok and known),
        "known_names": sorted({label for label, ok, known in checks if not ok and known}),
        "unexpected": sorted({label for label, ok, known in checks if not ok and not known}),
        "versions": plain[0]["versions"] if plain else {},
        "samples": {},
        "metrics": {},
    }
    summary["failed_frac"] = (summary["failed"] + summary["known_failed"]) / max(
        1, summary["attempted"])
    if not plain or (trace and not traced_reps):
        return summary
    wall = statistics.median(rep["wall_s"] for rep in plain)
    if not trace:
        values = {"wall_s": [rep["wall_s"] for rep in plain], "setup_s": setups,
                  "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain]}
        for metric, unit in END_TO_END:
            summary["metrics"][metric] = {"value": statistics.median(values[metric]),
                                          "unit": unit}
            summary["samples"][metric] = len(values[metric])
        return summary
    units = {metric: unit for metric, unit, _ in tracing.LAYER_METRICS}
    layers = {key: statistics.median(rep["layers"][key] for rep in traced_reps)
              for key in traced_reps[0]["layers"]}
    layers["trace.overhead_s"] = statistics.median(
        rep["wall_s"] for rep in traced_reps) - wall
    layers["checks.failed_frac"] = summary["failed_frac"]
    for metric, _, _ in tracing.LAYER_METRICS:
        summary["metrics"][metric] = {"value": layers[metric], "unit": units[metric]}
        summary["samples"][metric] = len(traced_reps)
    return summary


def describe(summary):
    """Human-readable lines for one measurement."""
    lines = [f"workload {summary['workload']} seed {summary['seed']}: "
             f"{summary['attempted'] - summary['failed'] - summary['known_failed']}"
             f"/{summary['attempted']} checks passed, failed_frac "
             f"{summary['failed_frac']:.4g}"]
    if summary["known_names"]:
        lines.append("  known defect, failing: " + " ".join(summary["known_names"]))
    if summary["unexpected"]:
        lines.append("  FAILED: " + " ".join(summary["unexpected"]))
    for metric, m in summary["metrics"].items():
        lines.append(f"  {metric:<30} {m['value']:>16.6g} {m['unit']:<6}"
                     f" (median of {summary['samples'][metric]})")
    return lines


def totals(summaries):
    """The contract's correct, attempted and failed over some measurements."""
    return {
        "correct": all(s["failed"] == 0 and s["metrics"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
    }


def print_machine(versions):
    info = dict(machine_info(), **versions)
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))


def run_all(seed, seconds):
    table = {}
    for name in workloads.WORKLOADS:
        table[name] = [measure(name, seed, seconds, False), measure(name, seed, seconds, True)]
    print_machine(table[workloads.WORKLOADS[0]][0]["versions"])
    for name, pair in table.items():
        print(f"# {name}: {workloads.WHY[name]}")
        for summary in pair:
            print("\n".join(describe(summary)))
    result = totals([s for pair in table.values() for s in pair])
    result["workloads"] = {
        name: {"end_to_end": untraced["metrics"], "per_layer": traced["metrics"],
               "failed_frac": untraced["failed_frac"]}
        for name, (untraced, traced) in table.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def self_test():
    """Drive the harness end to end on tiny inputs; exit 0 when every step holds."""
    results = []

    def expect(label, ok):
        results.append(ok)
        print(f"self-test {label}: {'PASS' if ok else 'FAIL'}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect("workloads match BENCHMARK.json",
           [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS))
    expect("end-to-end metrics match BENCHMARK.json",
           [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END))
    expect("per-layer metrics match BENCHMARK.json",
           [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == list(tracing.LAYER_METRICS))
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            s = measure(name, 0, 0, trace, tiny=True, rounds=2)
            want = [m for m, *_ in (tracing.LAYER_METRICS if trace else END_TO_END)]
            expect(f"{name} trace={int(trace)}",
                   s["attempted"] > 0 and s["failed"] == 0 and list(s["metrics"]) == want
                   and all(math.isfinite(m["value"]) for m in s["metrics"].values()))

    # the benchmark must refuse to run without the program's sources
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload",
         workloads.WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    expect("refuses a checkout without src/", proc.returncode != 0 and not proc.stdout.strip())
    return 0 if all(results) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--self-test", action="store_true", help="tiny end-to-end harness check")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "blowlab", "__init__.py")):
        print(f"error: no blowlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required unless --all or --self-test is given")
    summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not summary["metrics"]:
        print("\n".join(describe(summary)), file=sys.stderr)
        print("error: no run produced measurements", file=sys.stderr)
        return 1
    print_machine(summary["versions"])
    print("\n".join(describe(summary)))
    print(json.dumps(dict(totals([summary]), metrics=summary["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
