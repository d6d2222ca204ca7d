#!/usr/bin/env python3
"""Run every subcommand on every shipped config and keep all that it wrote.

Each of check, modal, simulate, sweep and audit runs on each configs/*.cfg
with --seed 5, in a fresh interpreter on this checkout's src/. For a run
<cfg>/<command>/ holds the files the command wrote, plus stdout.txt,
stderr.txt and exit_code.txt, with the --out path replaced by <out>. Two
checkouts' outputs are byte-identical when `diff -r` of them is empty.

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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path)
    args = ap.parse_args()

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for command in COMMANDS:
            out = (args.outdir / cfg.stem / command).resolve()
            out.mkdir(parents=True, exist_ok=True)
            # a relative config path keeps the checkout's location out of the headers
            argv = [sys.executable, "-m", "nonfourier.cli", command,
                    "--config", str(cfg.relative_to(ROOT)), "--out", str(out), "--seed", SEED]
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
            (out / "stdout.txt").write_text(proc.stdout.replace(str(out), "<out>"))
            (out / "stderr.txt").write_text(proc.stderr.replace(str(out), "<out>"))
            (out / "exit_code.txt").write_text(f"{proc.returncode}\n")
            print(f"{cfg.name} {command}: exit {proc.returncode}")


if __name__ == "__main__":
    main()
