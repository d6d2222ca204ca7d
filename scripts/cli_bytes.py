#!/usr/bin/env python3
"""Run every subcommand on every shipped and test config and keep all that
it wrote.

Each of check, modal, simulate, sweep and audit runs on each configs/*.cfg
and each tests/data/*/*.cfg with --seed 5, in a fresh interpreter on this
checkout's src/. For a run <cfg>/<command>/ holds the files the command
wrote, plus stdout.txt, stderr.txt and exit_code.txt, with the --out path
replaced by <out>; <cfg> is the config's path without its suffix, so
configs/gk_plug.cfg's runs are under configs/gk_plug/. Two checkouts'
outputs are byte-identical when `diff -r` of them is empty.

Usage:
    python3 scripts/cli_bytes.py <outdir>
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("check", "modal", "simulate", "sweep", "audit")
SEED = "5"


def configs(root: Path) -> list:
    """The shipped configs, configs/*.cfg."""
    return sorted((root / "configs").glob("*.cfg"))


def test_configs(root: Path) -> list:
    """The configs of the golden-file tests, tests/data/*/*.cfg."""
    return sorted((root / "tests" / "data").glob("*/*.cfg"))


def run(root: Path, cfg: Path, command: str, out: Path, env=None) -> subprocess.CompletedProcess:
    """One fresh-interpreter run of `command` on `cfg` with --seed 5, on the
    checkout at `root`, writing into `out`."""
    env = dict(env or os.environ, PYTHONPATH=str(root / "src"))
    # a relative config path keeps the checkout's location out of the headers
    argv = [sys.executable, "-m", "nonfourier.cli", command,
            "--config", str(cfg.relative_to(root)), "--out", str(out), "--seed", SEED]
    return subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path)
    args = ap.parse_args()

    for cfg in configs(ROOT) + test_configs(ROOT):
        for command in COMMANDS:
            out = (args.outdir / cfg.relative_to(ROOT).with_suffix("") / command).resolve()
            out.mkdir(parents=True, exist_ok=True)
            proc = run(ROOT, cfg, command, out)
            (out / "stdout.txt").write_text(proc.stdout.replace(str(out), "<out>"))
            (out / "stderr.txt").write_text(proc.stderr.replace(str(out), "<out>"))
            (out / "exit_code.txt").write_text(f"{proc.returncode}\n")
            print(f"{cfg.relative_to(ROOT)} {command}: exit {proc.returncode}")


if __name__ == "__main__":
    main()
