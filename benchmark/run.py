#!/usr/bin/env python3
"""Build and run the qpinn system benchmark (see benchmark/README.md).

One run (the interface BENCHMARK.json names; the last stdout line is the
run's JSON result). A traced run is preceded by an untraced run of the same
workload and seed, which its trace overhead is measured against:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

A set of runs of every workload, each in its own process, workload order
rotated every rep, rep r on seed N+r; prints median, quartiles and sample
counts per metric and exits non-zero when any check fails:

    python3 benchmark/run.py [--reps 5] [--seed 7] [--trace 1]
                             [--out results.json]

Compare two saved sets against the bounds in BENCHMARK.json:

    python3 benchmark/run.py --compare A.json B.json

The benchmark builds from source into .bench_build/ at the repository
root, so it needs the repository's src/ next to benchmark/.
"""

import argparse
import fcntl
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "qpinn_bench"
RUN_TIMEOUT_S = 170
ROW = re.compile(r"^\s+(\S+) = (\S+) (\S+)(?: \[n=(\d+)\])?$")
HEADER = re.compile(r"^# qpinn_bench .*isa=(\S+) compiler=\"([^\"]*)\"")
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---- statistics ------------------------------------------------------------

def tail_percentile(n):
    """Highest percentile of the ladder with at least 10 of n samples
    beyond it, or None when n is too small for any."""
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a, b, bound, better):
    """ok / regressed / unresolved for B's runs against A's runs.

    Unresolved: the run-to-run spread of either side is wider than the
    bound, unless every run of B beats every run of A."""
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "ok"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    med_a = quartiles(a)[1]
    worse = sign * (quartiles(b)[1] - med_a) / abs(med_a)
    return "regressed" if worse > bound else "ok"


# ---- build and run ---------------------------------------------------------

def build():
    """Configures once and builds qpinn_bench; the build log goes to
    stderr only when the build fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no src/CMakeLists.txt beside benchmark/; the "
                 "benchmark builds the library from source")
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B",
                          str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "qpinn_bench", "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def run_once(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace", str(trace_dir / f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout if isinstance(e.stdout, str) else ""
        return 124, out + f"\nrun.py: {workload} timed out\n"
    return done.returncode, done.stdout


def run_traced(workload, seed, seconds):
    """An untraced run, then a traced run of the same workload and seed.
    trace.overhead_frac is the traced run's quiet-window latency over the
    untraced one's, minus 1. Returns (exit code, stdout) like run_once: the
    traced run's output with the overhead row and metric added."""
    code, plain = run_once(workload, seed, seconds, False)
    base, base_rows, _ = parse_run(code, plain)
    if base is None:
        return code or 1, plain
    code, stdout = run_once(workload, seed, seconds, True)
    result, rows, _ = parse_run(code, stdout)
    if result is None:
        return code or 1, stdout
    overhead = (rows["op_ms_quiet_p50"]["value"] /
                base_rows["op_ms_quiet_p50"]["value"] - 1.0)
    result["metrics"]["trace.overhead_frac"] = {"value": overhead,
                                                "unit": "1"}
    result["correct"] = result["correct"] and base["correct"]
    lines = stdout.strip().splitlines()[:-1]
    lines += [f"  trace.overhead_frac = {overhead:.6g} 1", json.dumps(result)]
    return code, "\n".join(lines) + "\n"


def parse_run(code, stdout):
    """The run's JSON result plus its human-readable rows and header."""
    lines = stdout.strip().splitlines()
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    rows, header = {}, {}
    for line in lines:
        m = ROW.match(line)
        if m:
            rows[m.group(1)] = {"value": float(m.group(2)),
                                "unit": m.group(3),
                                "samples": int(m.group(4) or -1)}
        h = HEADER.match(line)
        if h:
            header = {"isa": h.group(1), "compiler": h.group(2)}
    return result, rows, header


def run_problems(result, rows, expected):
    """Why a run does not count: failed checks, missing metrics, or a tail
    percentile its sample count does not support."""
    if result is None:
        return ["no JSON result"]
    problems = []
    if not result.get("correct"):
        problems.append("checks failed")
    if result.get("failed", 0) > 0:
        problems.append(f"{result['failed']} failed operations")
    missing = sorted(set(expected) - set(result.get("metrics", {})))
    if missing:
        problems.append("missing metrics " + ", ".join(missing))
    tail = rows.get("tail_percentile", {}).get("value")
    n = rows.get("op_ms_tail", {}).get("samples", -1)
    if tail is not None and n >= 0:
        best = tail_percentile(n)
        if best is None or best < tail:
            problems.append(f"p{tail:g} has fewer than 10 of {n} samples "
                            "beyond it")
    return problems


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# ---- modes -------------------------------------------------------------------

def single_run(args):
    build()
    if args.trace:
        code, stdout = run_traced(args.workload, args.seed, args.seconds)
    else:
        code, stdout = run_once(args.workload, args.seed, args.seconds, False)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    result, _, _ = parse_run(code, stdout)
    return 0 if result is not None else (code or 1)


def runner(args, spec):
    build()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    runs, header, ok = [], {}, True
    plan = [(rep, w, False) for rep in range(args.reps)
            for w in workloads[rep % len(workloads):] +
            workloads[:rep % len(workloads)]]
    if args.trace:
        plan += [(0, w, True) for w in workloads]
    for rep, workload, traced in plan:
        t0 = time.monotonic()
        seed = args.seed + rep
        if traced:
            code, stdout = run_traced(workload, seed, seconds)
        else:
            code, stdout = run_once(workload, seed, seconds, False)
        result, rows, head = parse_run(code, stdout)
        header = header or head
        problems = run_problems(result, rows, per_layer if traced else e2e)
        ok = ok and not problems
        print(f"[rep {rep} {'traced ' if traced else ''}{workload}] "
              f"{time.monotonic() - t0:.1f}s "
              f"{'ok' if not problems else '; '.join(problems)}",
              flush=True)
        if problems and result is None:
            sys.stdout.write(stdout[-2000:])
        runs.append({"workload": workload, "rep": rep, "seed": seed,
                     "traced": traced, "exit": code, "result": result,
                     "rows": rows, "problems": problems})
    header.update({"nproc": os.cpu_count(), "git_rev": git_rev(),
                   "seed": args.seed, "seconds": seconds,
                   "reps": args.reps})
    print(f"\n# nproc={header['nproc']} isa={header.get('isa')} "
          f"compiler=\"{header.get('compiler')}\" rev={header['git_rev']} "
          f"seeds={args.seed}..{args.seed + args.reps - 1} "
          f"seconds={seconds} reps={args.reps}")
    summarize(runs, workloads, spec)
    out = Path(args.out or BUILD_DIR / f"results-{int(time.time())}.json")
    out.write_text(json.dumps({"header": header, "runs": runs}, indent=1))
    print(f"\nresults written to {out}")
    return 0 if ok else 1


def metric_values(runs, workload, name, traced=False):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if r["workload"] == workload and r["traced"] == traced and
            r["result"] and name in r["result"]["metrics"]]


def summarize(runs, workloads, spec):
    print(f"{'workload':18} {'metric':30} {'unit':8} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'iqr/med':>8} {'runs':>4} {'samples':>8}")
    groups = [(m, False) for m in spec["end_to_end"]] + \
             [(m, True) for m in spec["per_layer"]]
    for workload in workloads:
        for metric, traced in groups:
            values = metric_values(runs, workload, metric["name"], traced)
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            samples = [r["rows"].get(metric["name"], {}).get("samples", -1)
                       for r in runs if r["workload"] == workload and
                       r["traced"] == traced]
            n = int(statistics.median(samples)) if samples else -1
            print(f"{workload:18} {metric['name']:30} {metric['unit']:8} "
                  f"{med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread(values):8.3f} {len(values):4d} "
                  f"{n if n >= 0 else '':>8}")


def compare(path_a, path_b, spec):
    a = json.loads(Path(path_a).read_text())["runs"]
    b = json.loads(Path(path_b).read_text())["runs"]
    workloads = [w["name"] for w in spec["workloads"]]
    bad = 0
    print(f"{'workload':18} {'metric':16} {'median A':>12} {'median B':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            va = metric_values(a, workload, metric["name"])
            vb = metric_values(b, workload, metric["name"])
            if not va or not vb:
                continue
            v = verdict(va, vb, metric["bound"], metric["better"])
            bad += v != "ok"
            print(f"{workload:18} {metric['name']:16} "
                  f"{quartiles(va)[1]:12.6g} {quartiles(vb)[1]:12.6g} "
                  f"{max(spread(va), spread(vb)):7.3f} "
                  f"{metric['bound']:6.3f}  {v}")
        fa = failed_frac(a, workload)
        fb = failed_frac(b, workload)
        if fa is not None and fb is not None:
            v = "regressed" if fb > fa else "ok"
            bad += v != "ok"
            print(f"{workload:18} {'failed_frac':16} {fa:12.6g} {fb:12.6g} "
                  f"{'':>7} {0:6.3f}  {v}")
    return 1 if bad else 0


def failed_frac(runs, workload):
    mine = [r["result"] for r in runs
            if r["workload"] == workload and not r["traced"] and r["result"]]
    if not mine:
        return None
    return (sum(r["failed"] for r in mine) /
            sum(r["attempted"] for r in mine))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload once")
    p.add_argument("--seed", type=int, default=7,
                   help="the run's seed; a set's first seed")
    p.add_argument("--seconds", type=int, default=0,
                   help="measured seconds per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", help="where the runner saves its results")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    args.seconds = args.seconds or spec["run_seconds"]
    if args.workload:
        return single_run(args)
    return runner(args, spec)


if __name__ == "__main__":
    sys.exit(main())
