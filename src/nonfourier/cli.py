"""Config-driven command-line front end.

Subcommands: check | modal | simulate | sweep | audit. All outputs are plain
CSV (or flat key=value for verdicts) with a comment header recording the
tool version, the seed and the config path, so identical (config, seed)
pairs give byte-identical files.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Dict, List, Sequence

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
from .energetics import dissipation_terms, entropy_production, free_energy, sample_state
from .modal import mode_reports
from .models import Burgers, ModelParams
from .pde1d import DivergenceError, PositivityError, simulate
from .tensors import InvalidInputError

# perfbench's traced run still wraps these two names; gk runs go through
# build_sim_config and simulate, and the names go with the next change to
# the benchmark
build_gk_sim_config, simulate_coupled_gk = build_sim_config, simulate


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return f"{float(v):.12g}"


@functools.lru_cache(maxsize=None)
def _cell_tables():
    """_cells' lookup tables: 10^0..10^299 (exact to 10^22); the trailing
    zeros of each 3-digit group g; the word of g's first `kept` digits with
    a '.' after digit `dot` (0: none) at g*16 + kept*4 + dot; the (kept,
    dot) of the four groups of K kept digits with a '.' after digit p, row
    K*13 + p; the sign-and-'0.000' words and the exponent-and-comma words."""
    i = np.arange(1000, dtype=np.uint64)
    digits = [48 + i // 100, 48 + i // 10 % 10, 48 + i % 10]
    words = np.zeros((1000, 4, 4), np.uint32)
    for kept in range(1, 4):
        for dot in range(kept + 1):
            chars = digits[:dot] + [46] + digits[dot:kept] if dot else digits[:kept]
            words[:, kept, dot] = sum(c << 8 * n for n, c in enumerate(chars))
    K, p = np.divmod(np.arange(169), 13)
    j = 3 * np.arange(4)[:, None]
    variant = (np.clip(K - j, 0, 3) * 4 + np.where((p > j) & (p <= j + 3), p - j, 0)).T.astype(np.int32)
    lead = [b"", b"0.", b"0.0", b"0.00", b"0.000", b""]
    lead = b"".join(s.ljust(8, b"\0") for s in lead + [b"-" + s for s in lead])
    suffix = b"".join(s.ljust(7, b"\0") + b"," for s in [b""] + [b"e%+03d" % x for x in range(-330, 331)])
    tables = (np.array([float(f"1e{m}") for m in range(300)]),
              sum((i % m == 0).astype(np.uint8) for m in (10, 100, 1000)),
              words.ravel(), variant, np.frombuffer(lead, np.uint64), np.frombuffer(suffix, np.uint64))
    for t in tables:
        t.flags.writeable = False  # shared by every call
    return tables


def _cells(v: np.ndarray) -> np.ndarray:
    """(len(v), 32) uint8, row i the bytes of "%.12g," % v[i] with NULs
    inside: a word of the sign and any '0.000', four of 3-digit groups and
    the point, one of any exponent and the comma. N = rint(|v| 10^(11 - X)),
    X = floor(log10|v|), is off by a few ulp of N at most, so it holds the
    12 correctly rounded digits unless it is within 1e-3 of a tie; those
    values and the non-finite and subnormal ones are formatted by Python,
    in one call."""
    pow10, zeros, words, variant, lead, suffix = _cell_tables()
    a = np.abs(v)
    zero = a == 0
    normal = (a >= np.finfo(float).tiny) & (a <= np.finfo(float).max)
    a = np.where(normal, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int32)
    e = 11 - X
    s = a * pow10.take(np.clip(e, 0, 22))
    for far, op in ((e > 22, np.multiply), (e < 0, np.divide)):
        if far.any():
            m = np.abs(e[far])
            s[far] = op(op(a[far], pow10.take(np.minimum(m, 22))), pow10.take(np.maximum(m - 22, 0)))
    N = np.rint(s)
    # a log10 that rounds across a power of ten still leaves N at 1e11 or
    # 1e12 (the right digits); any other N outside them goes to Python
    fallback = ~(normal | zero) | (np.abs(s - N) >= 0.499) | (N < 1e11) | (N > 1e12)
    X += N == 1e12  # rounding carried into a 13th digit
    N[N == 1e12] = 1e11
    N[zero] = 0
    hi = np.floor(N / 1e6)
    g = np.empty((4, len(v)), np.int32)
    np.divmod(hi.astype(np.int32), 1000, out=(g[0], g[1]))
    np.divmod((N - hi * 1e6).astype(np.int32), 1000, out=(g[2], g[3]))
    z = zeros.take(g)
    for zj in z[1:]:
        z[0] *= zj == 3
        z[0] += zj
    k = 12 - z[0].astype(np.int32)  # significant digits
    exp = (X < -4) | (X >= 12)
    p = np.where(exp, 1, np.maximum(X + 1, 0))  # digits before the point
    groups = variant.take(np.maximum(k, p) * 13 + np.where(k > p, p, 0), axis=0) + g.T * 16
    out = np.empty((len(v), 4), np.uint64)
    out[:, 0] = lead.take(np.signbit(v) * 6 + np.clip(-X, 0, 5))
    out[:, 1:3] = words.take(groups).view(np.uint64)
    out[:, 3] = suffix.take(np.where(exp, X + 331, 0))
    out = out.view(np.uint8)
    if fallback.any():
        text = np.frombuffer(("%-31.12g," * int(fallback.sum()) % tuple(v[fallback].tolist())).encode(), np.uint8)
        out[fallback] = np.where(text == 32, np.uint8(0), text).reshape(-1, 32)
    return out


def _header(args) -> List[str]:
    return [
        f"# nonfourier {__version__}",
        f"# seed={args.seed}",
        f"# config={args.config}",
    ]


def _write(path: Path, head: List[str], columns: Sequence[np.ndarray] = ()) -> None:
    """head's lines, then one CSV row per index of the columns: a float
    column's cells as _cells writes them, a bytes column's as they are.
    A block of rows, up to 8192 float cells, is one uint8 matrix of
    NUL-padded cells, written with the NULs dropped."""
    path.parent.mkdir(parents=True, exist_ok=True)
    step = 8192 // max(1, sum(c.dtype.kind == "f" for c in columns))
    with path.open("wb") as f:
        f.write(("\n".join(head) + "\n").encode())
        for i in range(0, len(columns[0]) if columns else 0, step):
            chunk = [c[i : i + step] for c in columns]
            rows, floats = len(chunk[0]), [c for c in chunk if c.dtype.kind == "f"]
            cells = iter(_cells(np.column_stack(floats).ravel()).reshape(rows, -1, 32).transpose(1, 0, 2) if floats else [])
            comma = np.full((rows, 1), ord(","), np.uint8)
            block = np.concatenate([part for c in chunk for part in (
                [next(cells)] if c.dtype.kind == "f" else [c.view(np.uint8).reshape(rows, -1), comma])], axis=1)
            block[:, -1] = ord("\n")
            f.write(block.tobytes().translate(None, b"\0"))


def run_check(model: ModelParams) -> Dict[str, str]:
    """The record of the model's consistency proposition (consistency.CHECKS
    has one for every kind)."""
    v = CHECKS[type(model)](model)
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
    # absent roots as nan, no discriminant below degree 3
    degree, absent = s.roots.shape[1], np.full(len(s), b"nan")
    _write(Path(args.out) / "modes.csv", lines, [
        s.n.astype("S"), s.Lambda, s.Lambda_tilde, *s.roots.view(float).T, *[absent] * (6 - 2 * degree),
        np.where(s.rh_pass, b"true", b"false"),
        s.discriminant if degree == 3 else np.full(len(s), b""), np.array(s.classification, dtype="S")])
    print(f"wrote {len(s)} mode reports to {args.out}/modes.csv")
    return 0


def _snapshot_columns(traj) -> List[np.ndarray]:
    """The t, x, theta, q columns of the snapshots; the t and x cells are
    formatted once, into bytes columns."""
    t, x = (np.array(_cells(v).tobytes().translate(None, b"\0").split(b",")[:-1]) for v in (traj.times, traj.x))
    return [np.repeat(t, len(traj.x)), np.tile(x, len(traj.times)), np.ravel(traj.thetas), np.ravel(traj.fluxes)]


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    record = run_check(build_model(cfg))
    if record["pass"] == "false":
        print(f"warning: consistency check fails ({record['failed_condition']}); simulating anyway", file=sys.stderr)
    out = Path(args.out)
    try:
        traj = simulate(build_sim_config(cfg))
    except (PositivityError, DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    _write(out / "snapshots.csv", _header(args) + ["t,x,theta,q"], _snapshot_columns(traj))
    _write(out / "audit.csv", _header(args) + [",".join(traj.audit)], list(traj.audit.values()))
    print(f"wrote {len(traj.times)} snapshots and {len(traj.audit['t'])} audit rows to {args.out}")
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
    multi = next((v for v in values if v.startswith(("diag:", "full:", "power:"))), None)
    if multi:  # its components would be split into values of their own
        raise ConfigError(f"key 'sweep.values': each value is one number, not a {multi.partition(':')[0]}: value")
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
    with np.errstate(over="ignore", invalid="ignore"):  # an audit that overflows is refused below
        s = sample_state(model, np.random.default_rng(args.seed), size=samples)
        terms, psi, sig = dissipation_terms(model, s), free_energy(model, s), entropy_production(model, s)
    if not all(np.isfinite(a).all() for a in (terms, psi, sig)):
        raise InvalidInputError("keys model.*: the audited states' rates, energies and entropy production leave "
                                "the float range")
    res = np.sum(terms, axis=-1)
    rel = np.abs(res) / np.fmax(np.abs(terms).max(axis=-1), 1e-300)
    _write(Path(args.out) / "residuals.csv", _header(args) + ["sample,theta,psi,sigma,residual,rel_residual"],
           [np.arange(samples).astype("S"), s.theta, psi, sig, res, rel])
    # fmax/fmin skip a nan as the running max/min of the rows would
    print(
        f"audited {samples} random states: max relative residual {np.fmax.reduce(rel, initial=0.0):.3e}, "
        f"min sigma {np.fmin.reduce(sig, initial=np.inf):.3e}"
    )
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
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
    except InvalidInputError as e:  # a malformed config, or a model or run it cannot take
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
