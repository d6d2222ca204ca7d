#!/usr/bin/env python3
"""Record a before/after pair of the benchmark, the parent checkout in
BENCH_<label>_parent.json and the change (--root, this checkout by
default) in BENCH_<label>.json, from one sitting.

For each checkout it records:
- the last two output lines (environment and summary, then the result
  object) of perfbench/run.py for every workload, with --trace 0 and
  --trace 1, --seed 1 and --seconds 36;
- the median wall time over fresh interpreters of each subcommand on each
  configs/*.cfg, with --seed 5 (scripts/same_outputs.py's `run`, each side
  from its own checkout on its own configs);
- the wall time and summary line of the tier-1 test suite, and the time
  each acceptance criterion reports (one entry per parametrized case);
- the commit it is at and the tracked paths that differ from it.

Each part runs on both checkouts before the next starts, and the side that
runs first alternates from one run to the next (each perfbench run, each
repeat of each CLI wall, tier-1), so drift of the host's speed during the
sitting falls on both records alike. It only calls perfbench/run.py, so
the benchmark itself stays as it is. Records from different sittings do
not compare.

Usage:
    python3 scripts/bench_record.py <label> PARENT [--root CHECKOUT]
"""
import argparse
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from same_outputs import COMMANDS, configs, run

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


def cli_walls(roots: dict, turns) -> dict:
    walls = {side: {} for side in roots}
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in configs(roots["change"]):
            for command in COMMANDS:
                times, codes = {side: [] for side in roots}, {side: set() for side in roots}
                for _ in range(CLI_REPEATS):
                    for side in next(turns):
                        root = roots[side]
                        t0 = time.perf_counter()
                        proc = run(root / "src", root / "configs" / cfg.name, command,
                                   Path(tmp) / side / cfg.stem / command, ENV, cwd=root)
                        times[side].append(time.perf_counter() - t0)
                        codes[side].add(proc.returncode)
                for side in roots:
                    walls[side][f"{cfg.stem}/{command}"] = {"median_s": median(times[side]),
                                                            "exit_codes": sorted(codes[side])}
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
    """The commit the checkout is at, whether its tracked files differ from
    it, and which do (git status's paths, "old -> new" for a rename), so a
    record tells a doc edit from a change to src/ or perfbench/."""
    git = ["git", "-C", str(root)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True).stdout
    paths = [line[3:] for line in status.splitlines() if line.strip()]
    return {"head": head or None, "modified": bool(paths), "modified_paths": paths}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("label")
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout of the change")
    args = ap.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.root.resolve()}
    # both sides, the parent first on every other draw
    turns = itertools.cycle((("parent", "change"), ("change", "parent")))

    runs, tests = {side: {} for side in roots}, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            for side in next(turns):
                print(f"{side}: perfbench {workload} --trace {trace}", flush=True)
                runs[side][f"{workload}/trace{trace}"] = perfbench(roots[side], workload, trace)
    print("cli walls", flush=True)
    walls = cli_walls(roots, turns)
    for side in next(turns):
        print(f"{side}: tier-1", flush=True)
        tests[side] = tier1(roots[side])
    for side, label in (("parent", f"{args.label}_parent"), ("change", args.label)):
        record = {
            "label": label,
            "checkout": checkout(roots[side]),
            "environment": runs[side][f"{WORKLOADS[0]}/trace0"]["summary"]["environment"],
            "perfbench": {"seed": SEED, "seconds": SECONDS, "runs": runs[side]},
            "cli_wall": {"repeats": CLI_REPEATS, "blas_threads": 1, "runs": walls[side]},
            "tier1": tests[side],
        }
        out = ROOT / f"BENCH_{label}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
