#!/usr/bin/env python3
"""Reruns the smoke experiments and checks their accuracy columns.

Every ``bench/exp_*`` binary is run once in smoke mode, in a temporary
directory, on a pool of 4 threads (the pool the committed CSVs were made
at) with every other QPINN_* variable cleared. Each CSV it writes is
compared cell by cell with the committed copy at the repository root,
skipping the columns that measure the machine rather than the mathematics
(wall time, speedup, cores used, host serialized, hardware threads). The
remaining cells must match digit for digit: the committed tables are
deterministic at a fixed pool size, compiler and ISA, so a changed digit
means the program computes something else.

Exit code 0 when every compared cell matches, 1 otherwise.

Usage: tools/check_experiments.py [--build build] [--committed DIR]
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Experiment binary (under <build>/bench/) -> the CSVs it writes.
EXPERIMENTS = {
    "exp_t1_accuracy": ["exp_t1_accuracy.csv"],
    "exp_t2_eigenvalues": ["exp_t2_eigenvalues.csv"],
    "exp_t3_scaling": ["exp_t3_scaling.csv", "exp_t3b_dist_scaling.csv"],
    "exp_t4_autodiff_cost": ["exp_t4_autodiff_cost.csv"],
    "exp_f1_convergence": ["exp_f1_convergence.csv"],
    "exp_f2_ablation": ["exp_f2_ablation.csv"],
    "exp_f3_norm_drift": ["exp_f3_norm_drift.csv"],
    "exp_f4_solver_orders": ["exp_f4_cn_order.csv",
                             "exp_f4_splitstep_order.csv"],
}

# Columns that read the host, not the computation; never compared.
MACHINE_COLUMNS = {
    "train s", "step ms", "total ms", "ns / point", "x forward", "speedup",
    "efficiency", "cores used", "host serialized", "hw threads",
}

THREADS = "4"


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def compare_csv(name: str, committed: list[list[str]],
                fresh: list[list[str]]) -> list[str]:
    """Findings for one CSV: header or row-count changes, and every
    differing cell outside MACHINE_COLUMNS."""
    if not committed or not fresh:
        return [f"{name}: empty CSV"]
    if committed[0] != fresh[0]:
        return [f"{name}: header {fresh[0]} != committed {committed[0]}"]
    if len(committed) != len(fresh):
        return [f"{name}: {len(fresh) - 1} rows, committed "
                f"{len(committed) - 1}"]
    header = committed[0]
    findings = []
    for r, (want, got) in enumerate(zip(committed[1:], fresh[1:]), start=1):
        for c, column in enumerate(header):
            if column in MACHINE_COLUMNS:
                continue
            w = want[c] if c < len(want) else "<missing>"
            g = got[c] if c < len(got) else "<missing>"
            if w != g:
                findings.append(f"{name}: row {r} '{column}': {g} "
                                f"(committed {w})")
    return findings


def compare_dirs(committed_dir: Path, fresh_dir: Path) -> list[str]:
    findings = []
    for csvs in EXPERIMENTS.values():
        for name in csvs:
            fresh = fresh_dir / name
            if not fresh.exists():
                findings.append(f"{name}: not written")
                continue
            findings += compare_csv(name, read_csv(committed_dir / name),
                                    read_csv(fresh))
    return findings


def run_experiments(bench_dir: Path, out_dir: Path) -> list[str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QPINN_")}
    env["QPINN_THREADS"] = THREADS
    failures = []
    for binary in EXPERIMENTS:
        path = bench_dir / binary
        if not path.exists():
            failures.append(f"{binary}: not built ({path})")
            continue
        print(f"check_experiments: running {binary}", flush=True)
        result = subprocess.run([str(path)], cwd=out_dir, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        if result.returncode != 0:
            failures.append(f"{binary}: exit {result.returncode}\n"
                            f"{result.stderr}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default=str(REPO / "build"),
                        help="CMake build directory (default: build)")
    parser.add_argument("--committed", default=str(REPO),
                        help="directory holding the committed CSVs "
                             "(default: the repository root)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="qpinn_exp_") as tmp:
        findings = run_experiments(Path(args.build).resolve() / "bench",
                                   Path(tmp))
        if not findings:
            findings = compare_dirs(Path(args.committed), Path(tmp))
    for finding in findings:
        print(f"  {finding}")
    print(f"check_experiments: {len(findings)} finding(s) "
          f"[{'FAIL' if findings else 'OK'}]")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
