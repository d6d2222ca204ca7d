#!/usr/bin/env python3
"""Time one benchmark workload's ops on two checkouts in one process.

The parent checkout's and this checkout's ``nonfourier`` are loaded side by
side, as the packages ``nf_parent`` and ``nf_change`` (each from its own
``src/``). The ops come from perfbench/workloads.py, built once per side
from the same seed, so both sides run the same inputs. After one untimed
round, each round runs every op on both sides back to back, the side that
goes first alternating from one round to the next. Freed heap goes back to
the OS between ops (perfbench's ``release_heap``) and BLAS runs
single-threaded, as in perfbench. Each op's outputs are checked after its
timing, as perfbench checks them. That the two sides' outputs are the same
is scripts/same_outputs.py's question.

For each op it prints the median time of each side and the median change /
parent ratio of the rounds with its quartiles and a 95% distribution-free
interval of that median: (r_(k), r_(n+1-k)) of the n sorted ratios, k the
largest rank whose binomial coverage is at least 95% (k = 6 at n = 20,
k = 10 at n = 30), exact for independent rounds. The two runs of an op in
a round are back to back, so drift of the host's speed, which misleads a
comparison of two processes, mostly cancels in their ratio; rounds that
share the host's noise are not independent, so read an interval beside a
same-commit run. A record pair from scripts/bench_record.py stays the claim
of record; this is evidence beside it.

Usage:
    python3 scripts/ab.py PARENT --workload scan [--ops audit:] [--rounds 30]
"""
import argparse
import importlib
import importlib.util
import math
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402  (sets single-threaded BLAS before numpy loads)
import workloads  # noqa: E402

SEED = 1
MODULES = ("cli", "config", "consistency", "energetics", "modal", "models", "pde1d", "tensors")


def load(root: Path, name: str) -> SimpleNamespace:
    """root's src/nonfourier as the package `name`, with the modules a
    workload calls into (workloads.load_program's namespace)."""
    pkg = root / "src" / "nonfourier"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def rank(n: int) -> int:
    """k, the largest rank whose order statistics (r_(k), r_(n+1-k)) of n
    independent values cover their median with probability at least 95%:
    1 - 2 P(Binomial(n, 1/2) < k); 0 where no rank does (n < 6)."""
    k, tail = 0, 0  # tail: of the 2^n equally likely sign patterns about the median, those with < k below it
    while 40 * (tail + math.comb(n, k)) <= 2**n:  # 2 P(Binomial(n, 1/2) <= k) <= 5%
        tail += math.comb(n, k)
        k += 1
    return k


def interval(ratios: list) -> tuple:
    """The 95% distribution-free interval of the median of `ratios`."""
    r, k = sorted(ratios), rank(len(ratios))
    return r[k - 1], r[-k]


def timed(op) -> tuple:
    """(seconds, error or None) of one op, its check outside the timing."""
    out, error = None, None
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as e:  # a failed op is reported, and the rounds go on
        error = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    if error is None:
        try:
            op.check(out)
        except Exception as e:
            error = f"{type(e).__name__}: {e}"
    out = None
    perfbench.release_heap()
    return seconds, error


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--ops", default="", help="time only the ops whose label contains this")
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args()
    if args.rounds < 1 or rank(args.rounds) < 1:
        ap.error("--rounds: need at least 6 for a 95% interval of the median")
    roots = {"parent": args.parent.resolve(), "change": ROOT}
    ops, times, errors = {}, {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for side, root in roots.items():
            work = Path(tmp) / side
            work.mkdir()
            built = workloads.WORKLOADS[args.workload](load(root, f"nf_{side}"), SEED, work)
            ops[side] = [op for op in built if args.ops in op.label]
            times[side] = [[] for _ in ops[side]]
        if not ops["change"]:
            ap.error(f"no {args.workload} op label contains {args.ops!r}")
        if [op.label for op in ops["parent"]] != [op.label for op in ops["change"]]:
            ap.error("the two checkouts' workloads build different ops")
        # round -1 is untimed: it fills what each side builds on first use
        # (the scipy kernels, the CSV tables), which the first side to run
        # an op would otherwise pay alone
        for r in range(-1, args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for i in range(len(ops["change"])):
                for side in order:
                    seconds, error = timed(ops[side][i])
                    if r >= 0:
                        times[side][i].append(seconds)
                    if error:
                        errors.append(f"round {r} {side} {ops[side][i].label}: {error}")
    print(f"{args.workload}, {args.rounds} rounds, seed {SEED}: parent {roots['parent']}, change {roots['change']}")
    print(f"{'op':<28} {'parent ms':>10} {'change ms':>10} {'ratio':>7} {'q1':>7} {'q3':>7} {'lo95':>7} {'hi95':>7}")
    for i, op in enumerate(ops["change"]):
        a, b = times["parent"][i], times["change"][i]
        ratios = [y / x for x, y in zip(a, b)]
        q1, _, q3 = quantiles(ratios, n=4)
        lo, hi = interval(ratios)
        print(f"{op.label:<28} {1e3 * median(a):>10.2f} {1e3 * median(b):>10.2f} "
              f"{median(ratios):>7.3f} {q1:>7.3f} {q3:>7.3f} {lo:>7.3f} {hi:>7.3f}")
    for line in errors:
        print(f"failed: {line}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
