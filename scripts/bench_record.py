#!/usr/bin/env python3
"""Record one before/after point of the benchmark in BENCH_<label>.json.

For the checkout at --root (this one by default) it records:
- the last two output lines (environment and summary, then the result
  object) of perfbench/run.py for every workload, with --trace 0 and
  --trace 1, --seed 1 and --seconds 36;
- the median wall time over fresh interpreters of each subcommand on each
  configs/*.cfg (the runs scripts/cli_bytes.py makes);
- the wall time and summary line of the tier-1 test suite, and the time
  each acceptance criterion reports (one entry per parametrized case).

It only calls perfbench/run.py, so the benchmark itself stays as it is.
Two labels compare only when measured on the same host in one sitting.

Usage:
    python3 scripts/bench_record.py <label> [--root CHECKOUT] [--out FILE]
"""
import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import cli_bytes

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("simulate_cli", "fine_grid", "scan")
SEED = 1
SECONDS = 36
CLI_REPEATS = 5
# the line tests/test_acceptance.py prints per criterion, ending in its time
CRITERION = re.compile(r"^\[(?:PASS|FAIL)\] criterion (\d+): .*\(([\d.]+)s\)$", re.M)
# single-threaded BLAS, as perfbench/run.py sets for its own process
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def perfbench(root: Path, workload: str, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    summary, result = proc.stdout.strip().splitlines()[-2:]
    return {"summary": json.loads(summary), "result": json.loads(result)}


def cli_walls(root: Path) -> dict:
    walls = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in cli_bytes.configs(root):
            for command in cli_bytes.COMMANDS:
                times, codes = [], set()
                for _ in range(CLI_REPEATS):
                    t0 = time.perf_counter()
                    proc = cli_bytes.run(root, cfg, command, Path(tmp) / cfg.stem / command, ENV)
                    times.append(time.perf_counter() - t0)
                    codes.add(proc.returncode)
                walls[f"{cfg.stem}/{command}"] = {"median_s": median(times), "exit_codes": sorted(codes)}
    return walls


def tier1(root: Path) -> dict:
    # -rP reports the passed tests' output, the criteria's timed lines among it
    argv = [sys.executable, "-m", "pytest", "-q", "-rP", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=dict(ENV, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    criteria = {}
    for number, seconds in CRITERION.findall(proc.stdout):
        criteria.setdefault(number, []).append(float(seconds))
    return {"wall_s": wall, "summary": proc.stdout.strip().splitlines()[-1], "criterion_s": criteria}


def checkout(root: Path) -> dict:
    """The commit the checkout is at, and whether its files differ from it."""
    git = ["git", "-C", str(root)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True).stdout
    return {"head": head or None, "modified": bool(status.strip())}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("label")
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    ap.add_argument("--out", type=Path, help="output file (default BENCH_<label>.json here)")
    args = ap.parse_args()
    root = args.root.resolve()

    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"perfbench {workload} --trace {trace}", flush=True)
            runs[f"{workload}/trace{trace}"] = perfbench(root, workload, trace)
    print("cli walls", flush=True)
    walls = cli_walls(root)
    print("tier-1", flush=True)
    tests = tier1(root)
    record = {
        "label": args.label,
        "checkout": checkout(root),
        "environment": runs[f"{WORKLOADS[0]}/trace0"]["summary"]["environment"],
        "perfbench": {"seed": SEED, "seconds": SECONDS, "runs": runs},
        "cli_wall": {"repeats": CLI_REPEATS, "blas_threads": 1, "runs": walls},
        "tier1": tests,
    }
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
