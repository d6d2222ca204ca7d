"""Seeded workload inputs, the ops that feed them to the program, and the
per-op output checks.

An op is one closed-loop call into the program: an in-process ``nonfourier``
subcommand (``simulate_cli``, ``scan``) or one library call into ``pde1d``
(``fine_grid``). The generator writes every config into the run's work
directory; the program receives only those files and the objects built from
the generated numbers. Each op carries the check that its outputs must pass
and the work it does in the units the throughput metrics count.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List

import numpy as np

# simulate_cli: the shipped-config size (configs/mgt_stable.cfg)
SIM_N = 200
SIM_DT = 1e-3
SIM_T_END = 1.0

# fine_grid: the size where factorization and the per-step solve dominate
FINE_N = 20000
FINE_DT = 1e-3
FINE_T_END = 0.05
FINE_MODES = (1, 2, 3)
# the modal oracle matches the PDE up to the O(dt^2) trapezoid error
MODAL_TOL = FINE_DT**2

# scan
SWEEP_VALUES = 8
SWEEP_NMAX = 300
MODAL_NMAX = 2500
MODAL_STABLE = ("fourier", "jeffreys", "quintanilla")
# per-state audit cost differs tenfold between kinds; these sizes make each
# audit op cost about as much as one sweep or modal op (~0.3 s at the
# reference speed), so no tier of slow ops sits alone at the tail
AUDIT_SAMPLES = {
    "fourier": 8000, "gn2": 4000, "mcv": 3000, "jeffreys": 1000, "gn3": 3000,
    "quintanilla": 1200, "burgers": 3000, "gk": 4000, "gk_nonlinear": 4000,
}
AUDIT_REL_TOL = 1e-9

TEMPERATURE_KINDS = ("fourier", "mcv", "jeffreys", "gn3", "quintanilla", "burgers")
ALL_KINDS = ("fourier", "gn2", "mcv", "jeffreys", "gn3", "quintanilla", "burgers", "gk", "gk_nonlinear")
ORDER = {"fourier": 1, "mcv": 2, "jeffreys": 2, "gn3": 2, "quintanilla": 3, "burgers": 3}
SWEEP_PARAM = {k: "kappa" for k in TEMPERATURE_KINDS}
SWEEP_PARAM["burgers"] = "nu"


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    label: str
    kind: str
    run: Callable[[], Any]
    # validates run()'s result and returns the op's work counts
    check: Callable[[Any], Dict[str, float]]
    node_steps: int = 0


def _r(v: float) -> float:
    """Round to the 6 significant digits the config files carry."""
    return float(f"{v:.6g}")


def _jit(rng: np.random.Generator, base: float, rel: float = 0.1) -> float:
    return _r(base * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def model_params(kind: str, rng: np.random.Generator, admissible: bool = True) -> Dict[str, Any]:
    """Seeded parameters on the chosen side of the kind's admissibility
    boundary, never within 20% of it."""
    sign = 1.0 if admissible else -1.0
    u = rng.uniform(0.2, 0.8)
    if kind == "fourier":
        return {"kappa": sign * _jit(rng, 1.0)}
    if kind == "mcv":
        return {"tau": _jit(rng, 0.5), "kappa": sign * _jit(rng, 1.0)}
    if kind == "jeffreys":
        return {"tau": _jit(rng, 0.5), "xi": _jit(rng, 1.0), "kappa": sign * _jit(rng, 0.5)}
    if kind == "gn3":
        return {"xi": _jit(rng, 1.0), "kappa": sign * _jit(rng, 1.0)}
    if kind == "quintanilla":
        tau, xi = _jit(rng, 1.0), _jit(rng, 1.0)
        return {"tau": tau, "xi": xi, "kappa": _r(tau * xi * (1.0 + sign * u))}
    if kind == "burgers":
        lam, tau, mu = _jit(rng, 0.5), _jit(rng, 1.0), _jit(rng, 1.0)
        return {"lambda_b": lam, "tau": tau, "mu": mu, "nu": _r(lam * mu / tau**2 * (1.0 + sign * u))}
    if kind == "gn2":
        return {"K": _jit(rng, 1.0)}
    if kind == "gk":
        return {"tau": _jit(rng, 0.5), "ell": _jit(rng, 0.1), "varkappa": f"constant:{_jit(rng, 1.0)!r}"}
    if kind == "gk_nonlinear":
        return {
            "tau": _jit(rng, 0.5),
            "ell": _jit(rng, 0.1),
            "varkappa": f"power:{_jit(rng, 1.0)!r},{_jit(rng, 0.5)!r}",
            "delta": _jit(rng, 0.3),
        }
    raise ValueError(kind)


def admissible(kind: str, p: Dict[str, Any]) -> bool:
    """Closed-form admissibility. For the six temperature kinds it is also
    the boundary of modal stability on a spectrum reaching Lambda in the
    tens of thousands (for Burgers, the dynamic boundary nu*tau^2 = lambda_b*mu)."""
    if kind in ("fourier", "mcv", "gn3", "jeffreys"):
        return p["kappa"] > 0
    if kind == "quintanilla":
        return p["kappa"] > p["tau"] * p["xi"]
    if kind == "burgers":
        return p["nu"] * p["tau"] ** 2 > p["lambda_b"] * p["mu"]
    return True


def sweep_values(kind: str, p: Dict[str, Any], rng: np.random.Generator) -> List[float]:
    """Half the values below and half above the boundary in the swept
    parameter, between 5% and 90% of the boundary (or base) value away."""
    if kind == "quintanilla":
        boundary = p["tau"] * p["xi"]
    elif kind == "burgers":
        boundary = p["lambda_b"] * p["mu"] / p["tau"] ** 2
    else:
        boundary = 0.0
    scale = boundary if boundary else abs(p[SWEEP_PARAM[kind]])
    half = SWEEP_VALUES // 2
    us = rng.uniform(0.05, 0.9, SWEEP_VALUES)
    vals = [boundary - scale * u for u in us[:half]] + [boundary + scale * u for u in us[half:]]
    return sorted(_r(v) for v in vals)


def write_cfg(path: Path, entries: Dict[str, Any]) -> str:
    path.write_text("".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                            for k, v in entries.items()))
    return str(path)


def _model_entries(kind: str, p: Dict[str, Any]) -> Dict[str, Any]:
    return {"model.kind": kind, **{f"model.{k}": v for k, v in p.items()}}


# --- output parsing ----------------------------------------------------------

def _data_rows(path: Path) -> List[List[str]]:
    """CSV rows after the '#' header and the column line."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _numeric(path: Path, columns: str) -> np.ndarray:
    with open(path) as fh:
        head = [next(fh) for _ in range(4)]
    if head[3].strip() != columns:
        raise CheckFailed(f"{path.name}: columns {head[3].strip()!r}, expected {columns!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=4, ndmin=2)
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path.name}: non-finite values")
    return data


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _n_steps(t_end: float, dt: float) -> int:
    return max(1, int(round(t_end / dt)))


def _n_snapshots(nsteps: int) -> int:
    every = max(1, nsteps // 200)
    return 1 + sum(1 for i in range(nsteps) if (i + 1) % every == 0 or i + 1 == nsteps)


def _sigma_ok(lo: np.ndarray, hi: np.ndarray) -> bool:
    """Minimum entropy production nonnegative up to rounding of the largest."""
    return bool(lo.min() >= -1e-9 * max(float(np.abs(hi).max()), 1e-300))


def _cli_op(nf, label: str, kind: str, argv: List[str], check) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = nf.cli.main(argv)
        return rc, err.getvalue()

    return Op(label, kind, run, check)


def _file_counts(*paths: Path) -> Dict[str, float]:
    return {"bytes": float(sum(os.path.getsize(p) for p in paths))}


# --- simulate_cli ------------------------------------------------------------

def simulate_cli(nf, seed: int, work: Path) -> List[Op]:
    """The shipped-config-size `nonfourier simulate` on one config per
    temperature-equation kind (Quintanilla on both sides of kappa = tau*xi)
    and the two coupled gk setups. gk_nonlinear is left out: `simulate`
    drops its delta, so it would time the linear model under another name."""
    rng = np.random.default_rng([seed, 1])
    nsteps = _n_steps(SIM_T_END, SIM_DT)
    cases = [(k, True) for k in ("fourier", "mcv", "jeffreys", "gn3", "burgers", "quintanilla")]
    cases.append(("quintanilla", False))
    ops = []
    for i, (kind, adm) in enumerate(cases):
        p = model_params(kind, rng, adm)
        entries = {
            **_model_entries(kind, p),
            "grid.L": math.pi, "grid.N": SIM_N,
            "time.dt": SIM_DT, "time.t_end": SIM_T_END,
            "ic.kind": "sine", "ic.mode": int(rng.integers(1, 4)), "ic.amplitude": _jit(rng, 1.0),
        }
        label = f"simulate:{kind}:{'stable' if adm else 'unstable'}"
        ops.append(_simulate_op(nf, work, i, label, entries, admissible(kind, p), ORDER[kind] * SIM_N * nsteps))
    for j, imposed in enumerate((True, False)):
        p = model_params("gk", rng)
        entries = {
            **_model_entries("gk", p),
            "model.ell": _jit(rng, 0.05),
            "grid.L": 1.0, "grid.N": SIM_N,
            "time.dt": SIM_DT, "time.t_end": SIM_T_END,
            "sim.theta_ref": 1.0,
        }
        if imposed:
            entries["gk.imposed_gradient"] = _jit(rng, 1.0)
            unknowns = SIM_N
        else:
            entries.update({"ic.kind": "sine", "ic.mode": 1, "ic.amplitude": _jit(rng, 0.1)})
            unknowns = 2 * SIM_N
        label = f"simulate:gk:{'imposed' if imposed else 'coupled'}"
        ops.append(_simulate_op(nf, work, len(cases) + j, label, entries, True, unknowns * nsteps))
    return ops


def _simulate_op(nf, work: Path, i: int, label: str, entries, adm: bool, node_steps: int) -> Op:
    cfg = write_cfg(work / f"simulate_{i}.cfg", entries)
    out = work / f"out_simulate_{i}"
    nsteps = _n_steps(entries["time.t_end"], entries["time.dt"])
    gk = entries["model.kind"] == "gk"
    audit_cols = "t,min_zeta,k_boundary,k_inf,max_residual" if gk else \
        "t,min_sigma,max_sigma,max_residual,theta_min,max_amp"

    def check(result) -> Dict[str, float]:
        rc, err = result
        _expect(rc == 0, f"{label}: exit code {rc}")
        _expect(("consistency check fails" in err) != adm, f"{label}: consistency warning mismatch")
        snap = _numeric(out / "snapshots.csv", "t,x,theta,q")
        aud = _numeric(out / "audit.csv", audit_cols)
        want = _n_snapshots(nsteps) * SIM_N
        _expect(snap.shape[0] == want, f"{label}: {snap.shape[0]} snapshot rows, expected {want}")
        _expect(aud.shape[0] == nsteps, f"{label}: {aud.shape[0]} audit rows, expected {nsteps}")
        if adm:
            hi = aud[:, 1] if gk else aud[:, 2]
            _expect(_sigma_ok(aud[:, 1], hi), f"{label}: negative entropy production")
        counts = _file_counts(out / "snapshots.csv", out / "audit.csv")
        counts["rows"] = float(snap.shape[0] + aud.shape[0])
        return counts

    op = _cli_op(nf, label, "simulate", ["simulate", "--config", cfg, "--out", str(out)], check)
    op.node_steps = node_steps
    return op


# --- fine_grid ---------------------------------------------------------------

def fine_grid(nf, seed: int, work: Path) -> List[Op]:
    """Library-level runs at N = 20000: the modal cross-check for three
    third/second-order models and several sine modes, one coupled gk run and
    one Neumann run."""
    rng = np.random.default_rng([seed, 2])
    m, pde = nf.models, nf.pde1d
    material = m.MaterialConstants(rho=1.0, cv=1.0)
    grid = pde.Grid1D(L=math.pi, N=FINE_N)
    nsteps = _n_steps(FINE_T_END, FINE_DT)
    builders = {
        "quintanilla": lambda p: m.Quintanilla(p["tau"], p["xi"], p["kappa"]),
        "burgers": lambda p: m.Burgers(p["lambda_b"], p["tau"], p["mu"], p["nu"]),
        "jeffreys": lambda p: m.Jeffreys(p["tau"], p["xi"], p["kappa"]),
    }
    ops = []
    for kind, build in builders.items():
        cfg = pde.SimConfig(model=build(model_params(kind, rng)), material=material,
                            grid=grid, dt=FINE_DT, t_end=FINE_T_END)
        for n in FINE_MODES:
            ops.append(_compare_op(nf, kind, cfg, n, ORDER[kind] * FINE_N * nsteps))

    gk_cfg = pde.GKSimConfig(
        tau=_jit(rng, 0.05), kappa=_jit(rng, 1.0), lambda2=_jit(rng, 1e-3),
        grid=pde.Grid1D(L=1.0, N=FINE_N), dt=FINE_DT, t_end=FINE_T_END,
        theta0=0.1 * np.sin(np.pi * pde.Grid1D(L=1.0, N=FINE_N).interior_x()),
    )

    def check_gk(traj) -> Dict[str, float]:
        _expect(all(np.all(np.isfinite(a)) for a in traj.thetas + traj.qs), "gk: non-finite field")
        _expect(traj.audit["t"].size == nsteps, "gk: audit length")
        _expect(_sigma_ok(traj.audit["min_zeta"], traj.audit["min_zeta"]), "gk: negative zeta")
        return {}

    ops.append(Op("fine:gk:coupled", "gk", lambda: nf.pde1d.simulate_coupled_gk(gk_cfg),
                  check_gk, 2 * FINE_N * nsteps))

    offset, amp = _jit(rng, 1.0), _jit(rng, 0.5)
    neu_cfg = pde.SimConfig(
        model=builders["quintanilla"](model_params("quintanilla", rng)), material=material,
        grid=grid, dt=FINE_DT, t_end=FINE_T_END, bc_kind="neumann",
        theta0=lambda x: offset + amp * np.cos(np.pi * x / math.pi),
    )

    def check_neumann(traj) -> Dict[str, float]:
        _expect(all(np.all(np.isfinite(a)) for a in traj.thetas + traj.fluxes), "neumann: non-finite field")
        _expect(traj.audit["t"].size == nsteps, "neumann: audit length")
        _expect(_sigma_ok(traj.audit["min_sigma"], traj.audit["max_sigma"]), "neumann: negative sigma")
        # zero-flux walls conserve the trapezoid-weighted mean of theta
        w = np.full(traj.x.size, grid.dx)
        w[0] = w[-1] = grid.dx / 2
        drift = abs(w @ traj.thetas[-1] - w @ traj.thetas[0]) / w.sum()
        _expect(drift <= 1e-9 * (abs(offset) + abs(amp)), f"neumann: mean drifted by {drift:.3e}")
        return {}

    ops.append(Op("fine:neumann:quintanilla", "neumann", lambda: nf.pde1d.simulate(neu_cfg),
                  check_neumann, 3 * (FINE_N + 2) * nsteps))
    return ops


def _compare_op(nf, kind: str, cfg, n: int, node_steps: int) -> Op:
    label = f"fine:modal:{kind}:n{n}"

    def check(res) -> Dict[str, float]:
        _expect(math.isfinite(res.linf_rel), f"{label}: non-finite error")
        _expect(res.linf_rel < MODAL_TOL, f"{label}: modal error {res.linf_rel:.3e} >= {MODAL_TOL:.1e}")
        return {"linf_rel": res.linf_rel}

    return Op(label, "compare", lambda: nf.pde1d.compare_modal_vs_pde(cfg, n), check, node_steps)


# --- scan --------------------------------------------------------------------

def scan(nf, seed: int, work: Path) -> List[Op]:
    """`check` and `audit` on every model kind, `sweep` and `modal` on every
    kind with a separated temperature equation."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for kind in ALL_KINDS:
        side = kind not in TEMPERATURE_KINDS or bool(rng.integers(0, 2))
        p = model_params(kind, rng, side)
        cfg = write_cfg(work / f"check_{kind}.cfg", _model_entries(kind, p))
        ops.append(_check_op(nf, work, kind, cfg, admissible(kind, p)))

        p = model_params(kind, rng)
        cfg = write_cfg(work / f"audit_{kind}.cfg",
                        {**_model_entries(kind, p), "audit.samples": AUDIT_SAMPLES[kind]})
        ops.append(_audit_op(nf, work, kind, cfg, int(rng.integers(0, 2**31))))

        if kind not in TEMPERATURE_KINDS:
            continue
        p = model_params(kind, rng)
        values = sweep_values(kind, p, rng)
        param = SWEEP_PARAM[kind]
        cfg = write_cfg(work / f"sweep_{kind}.cfg", {
            **_model_entries(kind, p), "spectral.n_max": SWEEP_NMAX,
            "sweep.param": f"model.{param}", "sweep.values": ", ".join(repr(v) for v in values),
        })
        expected = [admissible(kind, {**p, param: v}) for v in values]
        ops.append(_sweep_op(nf, work, kind, cfg, values, expected))

        # the side is fixed per kind, not seeded: unstable spectra cost 5-20%
        # less to report, and the op mix should not change with the seed
        p = model_params(kind, rng, kind in MODAL_STABLE)
        cfg = write_cfg(work / f"modal_{kind}.cfg", {**_model_entries(kind, p), "spectral.n_max": MODAL_NMAX})
        ops.append(_modal_op(nf, work, kind, cfg))
    return ops


def _argv(cmd: str, cfg: str, out: Path, seed: int = 0) -> List[str]:
    return [cmd, "--config", cfg, "--out", str(out), "--seed", str(seed)]


def _check_op(nf, work: Path, kind: str, cfg: str, adm: bool) -> Op:
    out = work / f"out_check_{kind}"
    label = f"check:{kind}"

    def check(result) -> Dict[str, float]:
        rc, _ = result
        _expect(rc == 0, f"{label}: exit code {rc}")
        lines = (out / "verdict.txt").read_text().splitlines()
        want = f"pass={'true' if adm else 'false'}"
        _expect(want in lines, f"{label}: verdict differs from the closed form ({want})")
        return _file_counts(out / "verdict.txt")

    return _cli_op(nf, label, "check", _argv("check", cfg, out), check)


def _audit_op(nf, work: Path, kind: str, cfg: str, seed: int) -> Op:
    out = work / f"out_audit_{kind}"
    label = f"audit:{kind}"

    def check(result) -> Dict[str, float]:
        rc, _ = result
        _expect(rc == 0, f"{label}: exit code {rc}")
        data = _numeric(out / "residuals.csv", "sample,theta,psi,sigma,residual,rel_residual")
        _expect(data.shape[0] == AUDIT_SAMPLES[kind], f"{label}: {data.shape[0]} rows")
        worst = float(data[:, 5].max())
        _expect(worst < AUDIT_REL_TOL, f"{label}: relative residual {worst:.3e}")
        counts = _file_counts(out / "residuals.csv")
        counts.update(rows=float(data.shape[0]), audit_states=float(data.shape[0]))
        return counts

    return _cli_op(nf, label, "audit", _argv("audit", cfg, out, seed), check)


def _sweep_op(nf, work: Path, kind: str, cfg: str, values: List[float], expected: List[bool]) -> Op:
    out = work / f"out_sweep_{kind}"
    label = f"sweep:{kind}"

    def check(result) -> Dict[str, float]:
        rc, _ = result
        _expect(rc == 0, f"{label}: exit code {rc}")
        rows = _data_rows(out / "sweep.csv")
        _expect(len(rows) == len(values), f"{label}: {len(rows)} rows")
        for row, v, adm in zip(rows, values, expected):
            _expect(float(row[0]) == v, f"{label}: row value {row[0]} != {v!r}")
            _expect(row[1] == ("true" if adm else "false"), f"{label}: verdict at {v!r} is {row[1]}")
            _expect((float(row[4]) < 0) == adm, f"{label}: stability at {v!r} (max re {row[4]})")
        counts = _file_counts(out / "sweep.csv")
        counts.update(rows=float(len(rows)), sweep_points=float(len(rows)))
        return counts

    return _cli_op(nf, label, "sweep", _argv("sweep", cfg, out), check)


def _modal_op(nf, work: Path, kind: str, cfg: str) -> Op:
    out = work / f"out_modal_{kind}"
    label = f"modal:{kind}"

    def check(result) -> Dict[str, float]:
        rc, _ = result
        _expect(rc == 0, f"{label}: exit code {rc}")
        rows = _data_rows(out / "modes.csv")
        _expect(len(rows) == MODAL_NMAX, f"{label}: {len(rows)} rows")
        for row in rows:
            re = [float(v) for v in row[3:9:2]]
            re = [v for v in re if not math.isnan(v)]
            _expect(len(re) == ORDER[kind], f"{label}: mode {row[0]} has {len(re)} roots")
            _expect(row[9] == ("true" if max(re) < 0 else "false"),
                    f"{label}: mode {row[0]} rh_pass={row[9]} but max re root {max(re)!r}")
        counts = _file_counts(out / "modes.csv")
        counts["rows"] = float(len(rows))
        return counts

    return _cli_op(nf, label, "modal", _argv("modal", cfg, out), check)


WORKLOADS = {"simulate_cli": simulate_cli, "fine_grid": fine_grid, "scan": scan}


def load_program(src: Path):
    """Import the program's modules from ``src`` (the checkout's sources)."""
    import importlib
    import sys

    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"nonfourier.{name}")
            for name in ("cli", "config", "consistency", "energetics", "modal", "models", "pde1d", "tensors")}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"nonfourier imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)
