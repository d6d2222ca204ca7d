#!/usr/bin/env python3
"""Edit the numbers of the shipped and test configs and run every
subcommand on each edit, looking for a traceback, a warning or a hang.

The configs are configs/*.cfg and tests/data/*/*.cfg. A config's number
keys are the keys it holds other than the kind, string and sweep.param
keys, plus material.rho, material.cv and spectral.L (which every config
may read); sweep.values is set to the value. Each edit runs check, modal
and audit, plus simulate when the config has the grid.* and time.* keys
and sweep when it has the sweep.* keys, through cli.main in this process,
with warnings as errors and an alarm of TIMEOUT_S seconds.

  one    each number key alone, set to each of VALUES (inside the
         magnitude envelope, at its edges and outside it), or of INTS for
         an integer key.
  multi  --runs random edits of 2 or 3 float keys of a random config,
         each set to +-1e+-20, 50 or 100, with grid.N drawn from 8 to
         MAX_N wherever the config runs simulate.

A run passes when cli.main returns 0, 1 or 2 (1 only for an aborted run:
a PositivityError or DivergenceError) within the alarm and warns of
nothing. Every failure is printed with its config, edit and subcommand,
and the exit status is 1 if there is one.

Usage:
    PYTHONPATH=src python3 scripts/envelope_probe.py one
    PYTHONPATH=src python3 scripts/envelope_probe.py multi --runs 500 --seed 1
"""
import argparse
import contextlib
import io
import signal
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from nonfourier.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
VALUES = ("-0.0", "0", "1e-100", "-1e-100", "1e100", "-1e100", "1e-50", "1e50", "-1e50", "1e-20", "1e20", "-1",
          "2", "5e-324", "1e-300", "1e300", "-1e300")
INTS = ("-1", "0", "1", "8", "1" + "0" * 100, "1" + "0" * 101)
INT_KEYS = {"grid.N", "ic.mode", "spectral.n_max", "time.snapshot_every", "audit.samples"}
TEXT_KEYS = {"model.kind", "spectral.bc", "bc.kind", "ic.kind", "sweep.param"}
MAX_N = 64
TIMEOUT_S = 10.0


class Hang(Exception):
    pass


def _hang(signum, frame):
    raise Hang


def configs() -> list:
    return sorted((ROOT / "configs").glob("*.cfg")) + sorted((ROOT / "tests" / "data").glob("*/*.cfg"))


def read(path: Path) -> dict:
    pairs = (line.split("#", 1)[0].split("=", 1) for line in path.read_text().splitlines())
    return {p[0].strip(): p[1].strip() for p in pairs if len(p) == 2}


def number_keys(cfg: dict) -> list:
    return sorted({k for k in cfg if k not in TEXT_KEYS} | {"material.rho", "material.cv", "spectral.L"})


def commands(cfg: dict) -> list:
    simulate = {"grid.L", "grid.N", "time.dt", "time.t_end"} <= set(cfg)
    return ["check", "modal", "audit"] + ["simulate"] * simulate + ["sweep"] * ("sweep.param" in cfg)


def run(cfg: dict, command: str):
    """The exit code (None for none), stderr, and '' for a pass, else what
    went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _hang)
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = cli_main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        except Hang:
            return None, err.getvalue(), f"no exit within {TIMEOUT_S:g} s"
        except Exception as e:  # a traceback, or a warning raised as one
            return None, err.getvalue(), f"{type(e).__name__}: {e}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    # cmd_simulate returns 1 only after printing the abort as "error: ..."
    if code not in (0, 1, 2) or (code == 1 and "\nerror: " not in "\n" + err.getvalue()):
        return code, err.getvalue(), f"exit {code}: {err.getvalue().strip()}"
    return code, err.getvalue(), ""


def edits_one():
    for path in configs():
        cfg = read(path)
        for key in number_keys(cfg):
            for value in INTS if key in INT_KEYS else VALUES:
                yield path, cfg, {key: value}


def edits_multi(runs: int, seed: int):
    rng = np.random.default_rng(seed)
    paths = configs()
    for _ in range(runs):
        path = paths[rng.integers(len(paths))]
        cfg = read(path)
        keys = [k for k in number_keys(cfg) if k not in INT_KEYS]
        chosen = rng.choice(keys, size=min(len(keys), rng.integers(2, 4)), replace=False)
        edit = {str(k): f"{rng.choice([-1, 1]) * 10.0 ** (rng.choice([-1, 1]) * rng.choice([20, 50, 100])):g}"
                for k in chosen}
        if "simulate" in commands(cfg):
            edit["grid.N"] = str(rng.integers(8, MAX_N + 1))
        yield path, cfg, edit


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("one", "multi"))
    ap.add_argument("--runs", type=int, default=500, help="edits of the multi mode")
    ap.add_argument("--seed", type=int, default=0, help="the multi mode's draws")
    args = ap.parse_args()

    codes, failures = Counter(), 0
    for path, cfg, edit in edits_one() if args.mode == "one" else edits_multi(args.runs, args.seed):
        for command in commands(cfg):
            code, _, what = run({**cfg, **edit}, command)
            codes[code] += 1
            if what:
                failures += 1
                print(f"{path.relative_to(ROOT)} {edit} {command}: {what}", flush=True)
    print(f"{failures} failures in {sum(codes.values())} runs; exit codes {dict(sorted(codes.items(), key=str))}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
