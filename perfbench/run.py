"""Benchmark of the nonfourier package: one workload per invocation.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload simulate_cli --seed 1 --seconds 36 --trace 0

One process drives the program with a single closed-loop caller: an op
starts when the previous one has returned. Ops run in rounds, a round being
every op the workload's generator made from ``--seed``; rounds repeat while
one more still fits in ``--seconds``. Every op's outputs are checked; an op that raises,
exits nonzero or writes a wrong output counts as failed and the run goes on.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds, wraps the module attributes the program calls
through only for the traced ones, and prints the per-layer metrics. Times
are scaled to a reference host speed (see calibrate.py). The last line of
standard output is the result object; the line before it holds the run
environment, the tail percentile and raw times; the full record (per-op
results and, when traced, every span) goes to ``.bench_out/`` in the
checkout.
"""
from __future__ import annotations

import os

# One closed-loop caller is the only worker: BLAS runs single-threaded. With
# the default two threads, the idle BLAS worker spins for ~50 ms after each
# call; on a 2-vCPU Intel Xeon VM that halved the caller's speed meanwhile.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def measure_setup(root: Path, cal) -> tuple:
    """Seconds from spawning a fresh interpreter until it has imported
    nonfourier.cli: (at the reference speed, raw). The child reports the
    moment it is done, because a wait with a timeout polls in 50 ms steps."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import nonfourier.cli, time; print(repr(time.time()))"
    raw, kernel = [], [cal.sample()]
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S).stdout
        raw.append(float(done) - t0)
        kernel.append(cal.sample())
    return calibrate.scale(raw, kernel), raw


def _heap_trimmer():
    """glibc's malloc_trim, or a no-op where there is none."""
    import ctypes

    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return lambda: trim(0)


# Between ops, freed heap pages go back to the OS, so an op's peak RSS is
# its own working set and not the fragmentation left by the ops before it
# (without this, peak RSS on fine_grid wandered between 140 and 200 MB).
release_heap = _heap_trimmer()


class OpResult:
    """``seconds`` is the op's time at the reference speed, ``raw`` as timed."""

    __slots__ = ("label", "kind", "op_id", "raw", "seconds", "error", "counts", "node_steps")

    def __init__(self, op, op_id, raw, error, counts):
        self.label, self.kind, self.node_steps = op.label, op.kind, op.node_steps
        self.op_id, self.raw, self.seconds = op_id, raw, raw
        self.error, self.counts = error, counts

    def record(self) -> dict:
        return {"label": self.label, "seconds": self.seconds, "raw_seconds": self.raw,
                "error": self.error, "counts": self.counts}


def run_round(ops, cal, tracer=None) -> list:
    results, kernel = [], []
    for op in ops:
        kernel.append(cal.sample())
        if tracer is not None:
            tracer.op_id += 1
        t0 = time.perf_counter()
        try:
            out = op.run() if tracer is None else tracer.call("op", op.run)
        except Exception as e:  # an op that raises is a failed op; the run goes on
            error, out = f"{type(e).__name__}: {e}", None
        else:
            error = None
        seconds = time.perf_counter() - t0
        counts = {}
        if error is None:
            try:
                counts = op.check(out)
            except Exception as e:
                error = f"{type(e).__name__}: {e}"
        out = None
        release_heap()
        results.append(OpResult(op, tracer.op_id if tracer else -1, seconds, error, counts))
    kernel.append(cal.sample())
    for r, scaled in zip(results, calibrate.scale([r.raw for r in results], kernel)):
        r.seconds = scaled
    return results


def total(results, key) -> float:
    return sum(r.counts.get(key, 0.0) for r in results)


def throughput(results) -> dict:
    """Untraced work per second of the op kinds that do that work."""
    def rate(kinds, key):
        rs = [r for r in results if r.kind in kinds and r.error is None]
        secs = sum(r.seconds for r in rs)
        work = sum(r.node_steps for r in rs) if key == "node_steps" else total(rs, key)
        return work / secs if secs else 0.0

    return {
        "node_steps_per_s": rate(("simulate", "compare", "gk", "neumann"), "node_steps"),
        "sweep_points_per_s": rate(("sweep",), "sweep_points"),
        "audit_states_per_s": rate(("audit",), "audit_states"),
        "modal_linf_rel": max((r.counts.get("linf_rel", 0.0) for r in results), default=0.0),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it says."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    fn = getattr(dll, sym)
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": blas_threads(),
        "commit": git_commit(root),
        "seed": seed,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nonfourier" / "cli.py").is_file():
        print("error: run from the root of a nonfourier checkout (no src/nonfourier)", file=sys.stderr)
        return 2

    cal = calibrate.Calibrator()
    setup = None if args.trace else measure_setup(root, cal)
    nf = workloads.load_program(root / "src")
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_work"))
    try:
        ops = workloads.WORKLOADS[args.workload](nf, args.seed, work)
        if args.trace:
            record, metrics, attempted, failed = traced_run(args, ops, nf, cal)
        else:
            record, metrics, attempted, failed = untraced_run(args, ops, cal, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's work directory is still there
            pass

    record["environment"] = environment(root, args.seed)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        spantrace.write_spans(out_dir / f"{stem}-spans.csv", *spans)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"], **record["summary"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _timed(args, step) -> list:
    """Repeat ``step`` while another one, as long as the mean so far, still
    ends within --seconds; at least once."""
    t0 = time.perf_counter()
    done = []
    while True:
        done.extend(step())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(done) + 1) / len(done) > args.seconds:
            return done


def end_to_end(rounds, setup, key) -> dict:
    op_ms = [getattr(r, key) * 1e3 for rnd in rounds for r in rnd]
    return {
        "setup_s": median(setup),
        "wall_s": median(sum(getattr(r, key) for r in rnd) for rnd in rounds),
        "op_p50_ms": median(op_ms),
        "op_tail_ms": layers.tail(op_ms)[0],
    }


def untraced_run(args, ops, cal, setup):
    rounds = _timed(args, lambda: [run_round(ops, cal)])
    results = [r for rnd in rounds for r in rnd]
    failed = [r.record() for r in results if r.error]
    values = end_to_end(rounds, setup[0], "seconds")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: metric(values[name], unit) for name, unit, _, _ in layers.END_TO_END}
    _, tail_pct, n = layers.tail([r.seconds for r in results])
    summary = {
        "rounds": len(rounds), "ops": len(results), "failed_ops": failed[:20],
        "op_tail_percentile": tail_pct, "op_tail_samples": n,
        "raw": end_to_end(rounds, setup[1], "raw"),
        **throughput(results),
    }
    record = {"summary": summary, "ops": [r.record() for r in results]}
    return record, metrics, len(results), len(failed)


def traced_run(args, ops, nf, cal):
    tracer = spantrace.Tracer()

    def pair():
        plain = run_round(ops, cal)
        layers.install(tracer, nf)
        try:
            traced = run_round(ops, cal, tracer)
        finally:
            tracer.restore()
        return [(plain, traced)]

    pairs = _timed(args, pair)
    plain = [r for p, _ in pairs for r in p]
    traced = [r for _, t in pairs for r in t]
    selfs = spantrace.self_times(tracer.spans)
    values = layers.derive(
        tracer.spans, selfs, {r.op_id: r.seconds / r.raw for r in traced},
        node_steps=sum(r.node_steps for r in traced),
        rows=total(traced, "rows"), nbytes=total(traced, "bytes"),
    )
    values.update(throughput(plain))
    both = plain + traced
    failed = [r.record() for r in both if r.error]
    values["failed_ops_ratio"] = len(failed) / len(both)
    values["trace_overhead_ratio"] = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
    metrics = {name: metric(values[name], unit) for name, unit, _, _ in layers.PER_LAYER}
    summary = {"round_pairs": len(pairs), "ops": len(both), "spans": len(tracer.spans),
               "failed_ops": failed[:20]}
    record = {"summary": summary, "ops": [r.record() for r in both],
              "spans": (tracer.spans, selfs)}
    return record, metrics, len(both), len(failed)


if __name__ == "__main__":
    sys.exit(main())
