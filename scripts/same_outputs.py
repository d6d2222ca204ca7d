#!/usr/bin/env python3
"""Show that this checkout writes and returns what a parent checkout does,
bit for bit.

The parent's and this checkout's ``nonfourier`` are loaded side by side in
one process (scripts/ab.py's ``load``), and three groups of outputs are
compared case by case, by fingerprint: arrays by dtype, shape and bytes (so
a zero whose sign flipped counts, as np.array_equal's 0.0 == -0.0 would
not), floats by float.hex.

- library: every local kind the 1-D layer simulates, at N = 100, 333 and
  2000, with Dirichlet and with Neumann data, and its compare_modal_vs_pde
  errors (Dirichlet, mode 2); and the coupled, the relaxing (imposed
  gradient, tau > 0) and the steady (tau = 0) Guyer-Krumhansl runs at each
  N. A run's arrays are its snapshot times, its theta and flux snapshots
  and every audit column. Each side builds the cases from its own classes.
- cli: each subcommand on each configs/*.cfg and tests/data/*/*.cfg with
  --seed 5, in a fresh interpreter on the side's src/, from this
  checkout's directory on this checkout's configs (so the headers, which
  hold the config path, agree): the exit code, stdout and stderr (the
  --out path replaced by <out>) and the bytes of each file written.
- simulate_cli, fine_grid, scan: one untimed call of every op of
  perfbench's workloads (seed 1), built per side: the op's result and the
  body of each file it wrote, after the '#' header lines, which hold the
  side's config path.

It prints the number of cases of each group, then "outputs identical", or
"outputs differ:" and each differing case, and exits 1 on a difference.

Usage:
    python3 scripts/same_outputs.py PARENT
"""
import argparse
import dataclasses
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from ab import load, workloads  # ab loads perfbench's run module, which sets single-threaded BLAS first

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("check", "modal", "simulate", "sweep", "audit")
SEED = 1
SIZES = (100, 333, 2000)
DT, STEPS = 1e-3, 300
# the cases compared, as printed ("<group> <case>"): None for every case
ONLY = None


def fingerprint(value):
    """value as nested tuples of strings: arrays by dtype, shape and a hash
    of their bytes, floats by float.hex, dataclasses field by field."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, hashlib.sha256(value.tobytes()).hexdigest()
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return tuple((key, fingerprint(v)) for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    return repr(value)


def bump(x: np.ndarray) -> np.ndarray:
    """A smooth, lopsided initial field on [0, 1]."""
    return 0.1 * np.sin(np.pi * x) + 0.05 * np.cos(3.0 * x)


def trajectory(pde1d, cfg) -> dict:
    traj = pde1d.simulate(cfg)
    return {"times": traj.times, "theta": np.array(traj.thetas), "flux": np.array(traj.fluxes),
            **{f"audit/{column}": values for column, values in traj.audit.items()}}


def library(nf):
    """(case, a function returning the case's arrays by name, or its modal
    errors) pairs, built from nf's classes."""
    m, pde1d = nf.models, nf.pde1d
    mat = m.MaterialConstants(rho=1.0, cv=1.0)
    # GN3 with kappa = 0 produces no entropy: the audit's zero-sigma branch
    kinds = (m.Fourier(kappa=2.0), m.GN2(K=1.5), m.MCV(tau=0.7, kappa=2.0), m.Jeffreys(tau=0.8, xi=2.0, kappa=0.5),
             m.GN3(xi=1.5, kappa=2.0), m.GN3(xi=1.5, kappa=0.0), m.Quintanilla(tau=0.5, xi=1.0, kappa=2.0),
             m.Burgers(lambda_b=1.0, tau=2.0, mu=1.0, nu=1.0))
    for N in SIZES:
        grid = pde1d.Grid1D(L=1.0, N=N)
        for i, model in enumerate(kinds):
            for bc in ("dirichlet", "neumann"):
                cfg = pde1d.SimConfig(model=model, material=mat, grid=grid, dt=DT, t_end=STEPS * DT, bc_kind=bc,
                                      bc_value=(0.3, -0.2), theta0=bump, theta_dot0=lambda x: 0.2 * x,
                                      q0=lambda x: 0.1 * x * (1.0 - x), snapshot_every=7)
                yield f"{type(model).__name__}{i}/{bc}/{N}", lambda cfg=cfg: trajectory(pde1d, cfg)
            cfg = pde1d.SimConfig(model=model, material=mat, grid=grid, dt=DT, t_end=STEPS * DT)
            yield f"{type(model).__name__}{i}/modal/{N}", lambda cfg=cfg: pde1d.compare_modal_vs_pde(cfg, 2)
        for name, tau, setup in (
            ("coupled", 0.1, dict(theta0=bump, bc_value=(0.05, -0.02))),
            ("relaxing", 0.05, dict(imposed_gradient=1.0)),
            ("steady", 0.0, dict(imposed_gradient=1.0)),
        ):
            cfg = pde1d.SimConfig(model=m.GKLinear(tau, ell=math.sqrt(1e-3), varkappa=m.CoefficientFn(1.0)),
                                  material=mat, grid=grid, dt=DT, t_end=STEPS * DT,
                                  q0=lambda x: 0.3 * x * (1.0 - x), theta_ref=1.0, **setup)
            yield f"gk_{name}/{N}", lambda cfg=cfg: trajectory(pde1d, cfg)


def configs(root: Path) -> list:
    """The shipped configs, configs/*.cfg."""
    return sorted((root / "configs").glob("*.cfg"))


def run(src: Path, cfg: Path, command: str, out: Path, env=None, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """One fresh-interpreter run of `command` on `cfg` with --seed 5, on the
    package under `src`, from the checkout `cwd` that holds cfg, writing
    into `out`."""
    env = dict(env or os.environ, PYTHONPATH=str(src))
    # a relative config path keeps the checkout's location out of the headers
    argv = [sys.executable, "-m", "nonfourier.cli", command,
            "--config", str(cfg.relative_to(cwd)), "--out", str(out), "--seed", "5"]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)


def cli_outputs(src: Path, cfg: Path, command: str, out: Path) -> tuple:
    proc = run(src, cfg, command, out)
    written = [(str(p.relative_to(out)), hashlib.sha256(p.read_bytes()).hexdigest())
               for p in sorted(out.rglob("*")) if p.is_file()]
    shutil.rmtree(out, ignore_errors=True)
    return proc.returncode, proc.stdout.replace(str(out), "<out>"), proc.stderr.replace(str(out), "<out>"), written


def cli(root: Path, tmp: Path):
    """(case, a function returning the run's outputs) pairs, on root's
    package."""
    for cfg in configs(ROOT) + sorted((ROOT / "tests" / "data").glob("*/*.cfg")):
        for command in COMMANDS:
            yield (f"{cfg.relative_to(ROOT)} {command}",
                   lambda cfg=cfg, command=command: cli_outputs(root / "src", cfg, command, tmp / "out"))


def body_hash(path: Path) -> str:
    """The hash of a written file's bytes after its first three lines
    where they start with '#' (version, seed and config path)."""
    data = path.read_bytes()
    for _ in range(3):
        if data.startswith(b"#"):
            data = data.partition(b"\n")[2]
    return hashlib.sha256(data).hexdigest()


def op_outputs(op, work: Path) -> tuple:
    """op's result, and the body hash of each file it wrote or rewrote."""
    def stamps():
        return {p: p.stat().st_mtime_ns for p in work.rglob("*") if p.is_file()}
    before, result = stamps(), op.run()
    return result, sorted((str(p.relative_to(work)), body_hash(p)) for p, t in stamps().items() if before.get(p) != t)


def ops(nf, workload: str, work: Path):
    """(op label, a function returning the op's outputs) pairs of the
    workload, built from nf."""
    work.mkdir(parents=True)
    for op in workloads.WORKLOADS[workload](nf, SEED, work):
        yield op.label, lambda op=op: op_outputs(op, work)


def outcome(case):
    """The fingerprint of what case() returns, or the error it raises."""
    try:
        return fingerprint(case())
    except Exception as e:
        return f"{type(e).__name__}: {e}"


def compare(group: str, parent, change, differ: list) -> list:
    """The change side's fingerprint of each case of the group; a case
    whose fingerprints on the two sides differ goes on differ."""
    got = []
    for (case, a), (_, b) in zip(parent, change, strict=True):
        if ONLY is None or f"{group} {case}" in ONLY:
            before, after = outcome(a), outcome(b)
            got.append(after)
            if before != after:
                differ.append(f"{group} {case}")
    return got


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    roots = {"parent": ap.parse_args(argv).parent.resolve(), "change": ROOT}
    nf = {side: load(root, f"nf_{side}") for side, root in roots.items()}
    differ = []
    got = compare("library", library(nf["parent"]), library(nf["change"]), differ)
    arrays = sum(len(f) for f in got if isinstance(f, tuple))
    print(f"library: {len(got)} cases ({arrays} arrays)", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = {side: Path(tmp) / side for side in roots}
        got = compare("cli", *(cli(roots[side], work[side]) for side in roots), differ)
        print(f"cli: {len(got)} runs", flush=True)
        for workload in workloads.WORKLOADS:
            got = compare(workload, *(ops(nf[side], workload, work[side] / workload) for side in roots), differ)
            print(f"{workload}: {len(got)} ops", flush=True)
    print("outputs differ:" if differ else "outputs identical")
    for case in differ:
        print(f"  {case}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
