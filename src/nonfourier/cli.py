"""Config-driven command-line front end.

Subcommands: check | modal | simulate | sweep | audit. All outputs are plain
CSV (or flat key=value for verdicts) with a comment header recording the
tool version, the seed and the config path, so identical (config, seed)
pairs give byte-identical files.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

from . import __version__
from .config import (
    SPECTRAL_KEYS,
    ConfigError,
    build_audit_samples,
    build_model,
    build_sim_config,
    build_spectral,
    parse_config,
)
from .consistency import CHECKS, check_burgers_full
from .energetics import SingularParameterError, dissipation_terms, entropy_production, free_energy, sample_state
from .modal import InvalidKindError, mode_reports
from .models import Burgers, DegenerateModelError, ModelParams
from .pde1d import ConfigurationError, DivergenceError, PositivityError, simulate
from .tensors import InvalidInputError

# perfbench's traced run still wraps these two names; gk runs go through
# build_sim_config and simulate, and the names go with the next change to
# the benchmark
build_gk_sim_config, simulate_coupled_gk = build_sim_config, simulate

# what a malformed config raises; main maps these to exit code 2
INPUT_ERRORS = (ConfigError, ConfigurationError, InvalidInputError, InvalidKindError,
                DegenerateModelError, SingularParameterError)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _float_rows(*columns: np.ndarray) -> List[str]:
    """CSV lines of equal-length float columns, each cell as _fmt writes a
    float; one %-format per row instead of one call per cell. Rows become
    Python floats a block at a time, which bounds the transient memory."""
    table = np.column_stack(columns)
    row = ",".join(["%.12g"] * len(columns))
    return [row % tuple(r) for i in range(0, len(table), 4096) for r in table[i : i + 4096].tolist()]


def _snapshot_rows(traj) -> List[str]:
    """The t,x,theta,q lines of each snapshot as one string, cells as _fmt
    writes a float. The x cells are formatted once into a template of the
    snapshot's lines; per snapshot its t goes in for a sentinel that %.12g
    output cannot contain, then one %-format fills every theta and q."""
    template = "\n".join(f"@{v:.12g},%.12g,%.12g" for v in traj.x.tolist())
    return [template.replace("@", "%.12g," % t) % tuple(np.column_stack((theta, q)).ravel().tolist())
            for t, theta, q in zip(traj.times.tolist(), traj.thetas, traj.fluxes)]


def _header(args) -> List[str]:
    return [
        f"# nonfourier {__version__}",
        f"# seed={args.seed}",
        f"# config={args.config}",
    ]


def _write(path: Path, lines: List[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def run_check(model: ModelParams) -> Dict[str, str]:
    """The record of the model's consistency proposition (consistency.CHECKS)."""
    check = CHECKS.get(type(model))
    if check is None:
        raise ConfigError(f"no consistency check for {type(model).__name__}")
    v = check(model)
    record = {
        "pass": _fmt(v.passed),
        "case": v.case_tag,
        "margin": _fmt(v.margin),
        "failed_condition": v.failed_condition,
        "failure_mode": v.failure_mode,
        "marginal": _fmt(v.marginal),
    }
    if isinstance(model, Burgers):
        full = check_burgers_full(model)
        record["full.pass"] = _fmt(full.passed)
        record["full.margin"] = _fmt(full.margin)
        record["full.failed_condition"] = full.failed_condition
    return record


def cmd_check(args) -> int:
    cfg = parse_config(args.config)
    record = run_check(build_model(cfg))
    lines = _header(args) + [f"{k}={v}" for k, v in record.items()]
    _write(Path(args.out) / "verdict.txt", lines)
    for line in lines:
        print(line)
    return 0


def cmd_modal(args) -> int:
    cfg = parse_config(args.config)
    model = build_model(cfg)
    problem = build_spectral(cfg)
    s = mode_reports(problem, model)
    lines = _header(args) + [
        "n,Lambda,Lambda_tilde,root1_re,root1_im,root2_re,root2_im,root3_re,root3_im,"
        "rh_pass,discriminant,class"
    ]
    # one %-format per row; cells as _fmt writes them, absent roots as nan
    degree = s.roots.shape[1]
    row = ("%d,%.12g,%.12g" + ",%.12g,%.12g" * degree + ",nan,nan" * (3 - degree)
           + ",%s," + ("%.12g" if degree == 3 else "%s") + ",%s")
    table = np.column_stack((s.n, s.Lambda, s.Lambda_tilde, s.roots.view(float))).tolist()
    for r, rh, disc, cls in zip(table, s.rh_pass.tolist(), s.discriminant or [""] * len(s), s.classification):
        lines.append(row % (*r, _fmt(rh), disc, cls))
    _write(Path(args.out) / "modes.csv", lines)
    print(f"wrote {len(s)} mode reports to {args.out}/modes.csv")
    return 0


def _warn_if_inconsistent(model: ModelParams) -> None:
    try:
        record = run_check(model)
    except ConfigError:
        return
    if record["pass"] == "false":
        print(
            "warning: consistency check fails "
            f"({record['failed_condition']}); simulating anyway",
            file=sys.stderr,
        )


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    _warn_if_inconsistent(build_model(cfg))
    out = Path(args.out)
    try:
        traj = simulate(build_sim_config(cfg))
    except (PositivityError, DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    _write(out / "snapshots.csv", _header(args) + ["t,x,theta,q"] + _snapshot_rows(traj))
    audit = _float_rows(*traj.audit.values())
    _write(out / "audit.csv", _header(args) + [",".join(traj.audit)] + audit)
    print(f"wrote {len(traj.times)} snapshots and {len(audit)} audit rows to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    param = cfg.get("sweep.param")
    raw_values = cfg.get("sweep.values")
    if not param or not raw_values:
        raise ConfigError("sweep needs sweep.param and sweep.values")
    if not param.startswith("model.") and param not in SPECTRAL_KEYS:
        raise ConfigError(f"key 'sweep.param': sweep varies model.* and {', '.join(SPECTRAL_KEYS)}, not {param!r}")
    values = [v.strip() for v in raw_values.split(",")]
    lines = _header(args) + [
        f"{param},pass,case,margin,max_re_root,worst_class"
    ]
    for value in values:
        local = dict(cfg)
        local[param] = value
        model = build_model(local)
        record = run_check(model)
        problem = build_spectral(local)
        s = mode_reports(problem, model)
        # argmax takes the first largest real part, with its sign of zero,
        # as a max over the modes in order does
        re = s.roots.real.ravel()
        max_re = re[re.argmax()]
        rank = {"unstable": 4, "mixed": 3, "neutral_oscillation": 2, "oscillatory_decaying": 1, "decaying": 0}
        worst = max(s.classification, key=rank.__getitem__)
        lines.append(
            ",".join(
                [value, record["pass"], record["case"], record["margin"], _fmt(max_re), worst]
            )
        )
    _write(Path(args.out) / "sweep.csv", lines)
    print(f"wrote {len(values)} sweep rows to {args.out}/sweep.csv")
    return 0


def cmd_audit(args) -> int:
    cfg = parse_config(args.config)
    model = build_model(cfg)
    samples = build_audit_samples(cfg)
    # one stack of states, drawn in the per-state order; each row has the
    # bits of auditing its state alone
    s = sample_state(model, np.random.default_rng(args.seed), size=samples)
    terms = dissipation_terms(model, s)
    res = np.sum(terms, axis=-1)
    rel = np.abs(res) / np.fmax(np.abs(terms).max(axis=-1), 1e-300)
    sig = entropy_production(model, s)
    table = np.column_stack((s.theta, free_energy(model, s), sig, res, rel)).tolist()
    lines = _header(args) + ["sample,theta,psi,sigma,residual,rel_residual"]
    lines += ["%d,%.12g,%.12g,%.12g,%.12g,%.12g" % (i, *r) for i, r in enumerate(table)]
    _write(Path(args.out) / "residuals.csv", lines)
    # fmax/fmin skip a nan as the running max/min of the rows would
    print(
        f"audited {samples} random states: max relative residual {np.fmax.reduce(rel, initial=0.0):.3e}, "
        f"min sigma {np.fmin.reduce(sig, initial=np.inf):.3e}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonfourier",
        description="Consistency checking, modal stability analysis and 1-D "
        "simulation of rate-type heat-conduction models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("check", cmd_check),
        ("modal", cmd_modal),
        ("simulate", cmd_simulate),
        ("sweep", cmd_sweep),
        ("audit", cmd_audit),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
