"""End-to-end exercises of the command-line front end via main(argv)."""
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import energetics_oracle as oracle
import nonfourier
from nonfourier.cli import _cells, _fmt, _snapshot_columns, _write, build_parser, main
from nonfourier.config import MAX_AUDIT_SAMPLES, MODEL_KINDS, build_audit_samples, build_model, parse_config
from nonfourier.consistency import CHECKS
from nonfourier.tensors import InvalidInputError

QUINTANILLA_CFG = """
model.kind = quintanilla
model.tau = 1.0
model.xi = 1.0
model.kappa = 2.0
material.rho = 1.0
material.cv = 1.0
grid.L = 3.141592653589793
grid.N = 60
time.dt = 1e-3
time.t_end = 0.2
spectral.n_max = 5
ic.kind = sine
ic.mode = 1
ic.amplitude = 1.0
audit.samples = 50
"""

UNSTABLE_CFG = QUINTANILLA_CFG.replace("model.kappa = 2.0", "model.kappa = 0.5")

GK_CFG = """
model.kind = gk
model.tau = 0.05
model.ell = 0.0577350269189626
model.varkappa = constant:1.0
grid.L = 1.0
grid.N = 100
time.dt = 1e-3
time.t_end = 0.2
gk.imposed_gradient = 1.0
sim.theta_ref = 1.0
"""

# coupled theta-q run whose -2 sin dip takes theta_ref + theta below zero
GK_CFG_COUPLED_DIP = GK_CFG.replace("gk.imposed_gradient = 1.0\n", "ic.kind = sine\nic.amplitude = -2.0\n")

GOLDEN = Path(__file__).resolve().parent / "data" / "simulate"
MODAL_GOLDEN = Path(__file__).resolve().parent / "data" / "modal"
AUDIT_GOLDEN = Path(__file__).resolve().parent / "data" / "audit"

SWEEP_CFG = QUINTANILLA_CFG + """
sweep.param = model.kappa
sweep.values = 0.5, 1.0, 2.0, 4.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _set(text, *pairs):
    """text with each key's line set to its value, or the line added (a
    config that gives a key twice is refused); pairs is key, value, key,
    value, ..."""
    for key, value in zip(pairs[::2], pairs[1::2]):
        text, found = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
        if not found:
            text += f"{key} = {value}\n"
    return text


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(list(argv) + ["--out", str(out)]), out


def test_check_writes_verdict(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUINTANILLA_CFG)
    code, out = run(tmp_path, "check", "--config", cfg)
    assert code == 0
    text = (out / "verdict.txt").read_text()
    assert "pass=true" in text
    assert "# seed=0" in text
    assert "pass=true" in capsys.readouterr().out


def test_check_reports_failure(tmp_path):
    cfg = write_cfg(tmp_path, UNSTABLE_CFG)
    code, out = run(tmp_path, "check", "--config", cfg)
    assert code == 0
    text = (out / "verdict.txt").read_text()
    assert "pass=false" in text
    assert "failure_mode=sign" in text


def test_modal_writes_reports(tmp_path):
    cfg = write_cfg(tmp_path, QUINTANILLA_CFG)
    code, out = run(tmp_path, "modal", "--config", cfg)
    assert code == 0
    lines = (out / "modes.csv").read_text().splitlines()
    header = lines[3]
    assert header.startswith("n,Lambda,Lambda_tilde")
    rows = lines[4:]
    assert len(rows) == 5
    first = rows[0].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(1.0)
    assert first[-1] == "oscillatory_decaying"
    assert first[-2] != "" and float(first[-2]) == pytest.approx(-23.0)


def test_simulate_writes_snapshots_and_audit(tmp_path):
    cfg = write_cfg(tmp_path, QUINTANILLA_CFG)
    code, out = run(tmp_path, "simulate", "--config", cfg)
    assert code == 0
    snap = (out / "snapshots.csv").read_text().splitlines()
    assert snap[3] == "t,x,theta,q"
    audit = (out / "audit.csv").read_text().splitlines()
    assert audit[3].startswith("t,min_sigma")
    sigmas = [float(line.split(",")[1]) for line in audit[4:]]
    assert min(sigmas) >= -1e-12


def test_simulate_warns_but_runs_for_inconsistent_model(tmp_path, capsys):
    cfg = write_cfg(tmp_path, UNSTABLE_CFG.replace("time.t_end = 0.2", "time.t_end = 0.05"))
    code, out = run(tmp_path, "simulate", "--config", cfg)
    assert code == 0
    assert "warning: consistency check fails" in capsys.readouterr().err
    assert (out / "snapshots.csv").exists()


def test_simulate_gk_uses_coupled_solver(tmp_path):
    cfg = write_cfg(tmp_path, GK_CFG)
    code, out = run(tmp_path, "simulate", "--config", cfg)
    assert code == 0
    audit = (out / "audit.csv").read_text().splitlines()
    assert audit[3] == "t,min_zeta,k_boundary,k_inf,max_residual"
    zetas = [float(line.split(",")[1]) for line in audit[4:]]
    assert min(zetas) >= 0.0
    # the theta column is the deviation G (x - L/2) from theta_ref, as in every run
    snap = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=4)
    np.testing.assert_allclose(snap[:, 2], 1.0 * (snap[:, 1] - 0.5), rtol=0, atol=1e-12)


def test_simulate_gk_rejects_temperature_dependent_varkappa(tmp_path, capsys):
    """The coupled solver freezes varkappa at theta_ref, so a power law with
    p != 0 would be ignored without a word: it is a config error."""
    coupled = GK_CFG.replace("gk.imposed_gradient = 1.0\n", "ic.kind = sine\nic.amplitude = 0.5\n")
    cfg = write_cfg(tmp_path, coupled.replace("constant:1.0", "power:1.0,3.0"))
    code, out = run(tmp_path, "simulate", "--config", cfg)
    assert code == 2
    assert "config error: key 'model.varkappa'" in capsys.readouterr().err
    assert not (out / "snapshots.csv").exists()
    # p = 0 is the constant law
    constant = write_cfg(tmp_path, coupled.replace("constant:1.0", "power:1.0,0"), "p0.cfg")
    assert main(["simulate", "--config", constant, "--out", str(tmp_path / "p0")]) == 0


def test_simulate_gk_nonpositive_imposed_profile_exits_2(tmp_path, capsys):
    """G = 3 about theta_ref = 1 puts the frozen profile theta_ref + G (x - L/2)
    below zero near x = 0; the run is refused, not written."""
    cfg = write_cfg(tmp_path, GK_CFG.replace("gk.imposed_gradient = 1.0", "gk.imposed_gradient = 3.0"))
    code, out = run(tmp_path, "simulate", "--config", cfg)
    assert code == 2
    assert "config error: imposed gradient 3: theta_ref + G (x - L/2) reaches" in capsys.readouterr().err
    assert not (out / "snapshots.csv").exists()


def test_simulate_gk_nonlinear_at_delta_zero_runs_as_gk(tmp_path):
    """delta = 0 is the linear law, which the coupled solver simulates."""
    outputs = []
    for name, text in (("gk.cfg", GK_CFG), ("nl.cfg", GK_CFG.replace("model.kind = gk", "model.kind = gk_nonlinear"))):
        out = tmp_path / f"out_{name}"
        assert main(["simulate", "--config", write_cfg(tmp_path, text, name), "--out", str(out)]) == 0
        outputs.append([(out / f).read_text().splitlines()[3:] for f in ("snapshots.csv", "audit.csv")])
    assert outputs[0] == outputs[1]


def test_simulate_gk_positivity_abort_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GK_CFG_COUPLED_DIP)
    code, out = run(tmp_path, "simulate", "--config", cfg)
    assert code == 1
    assert "error: theta <= 0 first reached at step" in capsys.readouterr().err
    assert not (out / "audit.csv").exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("text", [QUINTANILLA_CFG, GK_CFG], ids=["local", "gk"])
def test_simulate_nonpositive_or_nonfinite_theta_ref_exits_2(tmp_path, capsys, text, value):
    """sim.theta_ref is checked once, before any coefficient is evaluated
    at it, for every kind."""
    cfg = write_cfg(tmp_path, _set(text, "sim.theta_ref", value))
    code, out = run(tmp_path, "simulate", "--config", cfg)
    assert code == 2
    assert "config error: key 'sim.theta_ref'" in capsys.readouterr().err
    assert not (out / "snapshots.csv").exists()


@pytest.mark.parametrize(
    "text, code",
    [
        (GK_CFG + "bc.kind = bogus\n", 2),
        (GK_CFG + "time.snapshot_every = 50\n", 0),
        (QUINTANILLA_CFG + "gk.imposed_gradient = 1.0\n", 2),
        (GK_CFG + "ic.kind = sine\n", 2),
    ],
    ids=["gk_bc_kind", "gk_snapshot_every", "local_imposed_gradient", "imposed_gradient_ic"],
)
def test_simulate_uses_or_refuses_every_key(tmp_path, capsys, text, code):
    """Each simulate key either changes the run or is a config error: a gk
    run takes only Dirichlet walls and honours time.snapshot_every, only a
    gk run takes an imposed gradient, and a frozen theta takes no ic.*."""
    got, out = run(tmp_path, "simulate", "--config", write_cfg(tmp_path, text))
    assert got == code
    if code == 2:
        assert "config error: " in capsys.readouterr().err
        assert not (out / "snapshots.csv").exists()
    else:  # 200 steps: t = 0 and every 50th step
        snap = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=4)
        np.testing.assert_array_equal(np.unique(snap[:, 0]), [0.0, 0.05, 0.1, 0.15, 0.2])


SLOW_BLOW_UP_CFG = """
model.kind = fourier
model.kappa = -1.0
grid.L = 1.0
grid.N = 200
time.dt = 0.12
time.t_end = 60.0
sim.theta_ref = 1.0
ic.kind = sine
ic.amplitude = 1e-3
"""


def test_simulate_audit_overflow_exits_1_without_warning(tmp_path, capsys):
    """Backward heat flow whose state stays finite for all 500 steps but
    passes 1e154, where the audit's squares overflow, on the way."""
    cfg = write_cfg(tmp_path, SLOW_BLOW_UP_CFG)
    code, out = run(tmp_path, "simulate", "--config", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "error: non-finite audit values at step 265 (t = 31.8)" in err
    assert "RuntimeWarning" not in err
    assert not (out / "audit.csv").exists()


def test_sweep_orders_verdicts_by_value(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    code, out = run(tmp_path, "sweep", "--config", cfg)
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()[4:]
    assert len(rows) == 4
    passes = [r.split(",")[1] for r in rows]
    # kappa < tau*xi fails, kappa >= tau*xi passes (the boundary value 1.0
    # has zero margin and is reported as a pass with margin 0)
    assert passes == ["false", "true", "true", "true"]
    worst = [r.split(",")[-1] for r in rows]
    assert worst[0] == "unstable"


def test_audit_closes_dissipation_identity(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUINTANILLA_CFG)
    code, out = run(tmp_path, "audit", "--config", cfg, "--seed", "3")
    assert code == 0
    rows = (out / "residuals.csv").read_text().splitlines()[4:]
    assert len(rows) == 50
    rels = np.array([float(r.split(",")[-1]) for r in rows])
    assert rels.max() <= 1e-12
    assert "# seed=3" in (out / "residuals.csv").read_text()


@pytest.mark.parametrize("command", ["check", "modal", "simulate", "sweep", "audit"])
def test_outputs_are_deterministic(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    runs = []
    for out in (tmp_path / "o1", tmp_path / "o2"):
        assert main([command, "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((files, capsys.readouterr().out.replace(str(out), "OUT")))
    assert runs[0][0]
    assert runs[0] == runs[1]


def test_float_rows_format_cells_as_fmt(tmp_path):
    tiny = np.nextafter(0.0, 1.0)
    cells = [-0.0, 0.0, 1e-300, tiny, -5e-320, 1e16, 2.0, -3.0, 1e15 + 0.5, 1.0 / 3.0, np.pi * 1e-7, np.inf, np.nan]
    # long enough to cross the writer's row blocks
    cols = [np.tile(cells, 700), np.tile(cells[::-1], 700) * np.repeat([1.0, -1.0], 350 * len(cells))]
    want = [f"{_fmt(a)},{_fmt(b)}" for a, b in zip(*cols)]
    _write(tmp_path / "t.csv", ["# head"], cols)
    assert (tmp_path / "t.csv").read_text() == "\n".join(["# head"] + want) + "\n"


def test_snapshot_rows_format_cells_as_fmt(tmp_path):
    cells = np.array([-0.0, 0.0, 1e-300, -5e-320, 1e16, 1e15 + 0.5, 1.0 / 3.0, np.inf, -np.inf, np.nan])
    # 500 snapshots of 10 nodes cross the writer's row blocks
    times = np.tile(cells[:4], 125)
    traj = SimpleNamespace(x=cells[::-1].copy(), times=times,
                           thetas=[np.roll(cells, k) for k in range(500)], fluxes=[-np.roll(cells, -k) for k in range(500)])
    want = [",".join(map(_fmt, (t, x, theta, q)))
            for t, thetas, qs in zip(traj.times, traj.thetas, traj.fluxes)
            for x, theta, q in zip(traj.x, thetas, qs)]
    _write(tmp_path / "s.csv", ["t,x,theta,q"], _snapshot_columns(traj))
    assert (tmp_path / "s.csv").read_text() == "\n".join(["t,x,theta,q"] + want) + "\n"


def _cell_text(values):
    """The cells _cells makes of values, NULs dropped."""
    return _cells(np.asarray(values, dtype=float)).tobytes().translate(None, b"\0").decode().split(",")[:-1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_cells_match_percent_g(values):
    """Every float, nan, infinities and subnormals included, as %.12g."""
    assert _cell_text(values) == ["%.12g" % v for v in values]


@pytest.mark.parametrize("v", [
    0.0, 5e-324, 1e-4, np.nextafter(1e-4, 0), 9.99999999999995e-5, 999999999999.5, 1e12, 1e16, 1e22, 1e23,
    1.7976931348623157e308, 123456789012.5, 123456789013.5, 1e-5, 99999.99999995, 2.2250738585072014e-308])
def test_cells_pinned_values(v):
    """Zeros, the fixed/exponent boundary on both sides, carries into a 13th
    digit, exact ties (round half to even) and the ends of the range."""
    assert _cell_text([v, -v]) == ["%.12g" % v, "%.12g" % -v]


def test_cells_near_ties_and_powers_of_ten():
    """Decimal 12th-digit halves (the band Python formats), 12-digit values
    and their neighbours around each power of ten."""
    rng = np.random.default_rng(5)
    digits, exps = rng.integers(10**11, 10**12, 3000), rng.integers(-320, 300, 3000)
    halves = [float(f"{d}5e{e}") for d, e in zip(digits, exps)]
    powers = [float(f"1e{e}") for e in range(-323, 309)]
    values = np.array(halves + powers + [float(f"{d}e{e}") for d, e in zip(digits, exps)])
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf), -values])
    assert _cell_text(values) == ["%.12g" % v for v in values.tolist()]


def test_cli_import_loads_no_scipy():
    """Only simulate needs scipy (its CSR matvec kernel and LAPACK's band
    LU); the CLI and the other subcommands' modules import without it."""
    code = "import sys, nonfourier.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(nonfourier.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", ["fourier", "gn2", "mcv", "jeffreys", "gn3", "quintanilla", "burgers", "gk",
                                  "small_amplitude"])
def test_simulate_matches_golden_output(tmp_path, kind):
    """Output bodies, after the 3-line header, against stored files written
    by an earlier version. max_residual is rounding noise of a sum that
    cancels, so it is bounded instead of compared: by 1e-12, and by 1e-12 of
    the row's max_sigma where the audit has one and it is in (0, 1) (so that
    small_amplitude's residuals, about 1e-211, are bounded too). GN II
    produces no entropy, so its max_sigma is 0 in every row, and its
    residual, the rounding of (1/K)(K theta_x) q against q theta_x, has
    the absolute bound."""
    code, out = run(tmp_path, "simulate", "--config", str(GOLDEN / f"{kind}.cfg"))
    assert code == 0
    snap = (out / "snapshots.csv").read_bytes().split(b"\n", 3)[3]
    assert snap == (GOLDEN / f"{kind}.snapshots.csv").read_bytes()
    got = [line.split(",") for line in (out / "audit.csv").read_text().splitlines()[3:]]
    want = [line.split(",") for line in (GOLDEN / f"{kind}.audit.csv").read_text().splitlines()]
    assert len(got) == len(want) and got[0] == want[0]
    col = want[0].index("max_residual")
    scale = want[0].index("max_sigma") if "max_sigma" in want[0] else None
    for g, w in zip(got[1:], want[1:]):
        assert g[:col] + g[col + 1 :] == w[:col] + w[col + 1 :]
        sigma = float(g[scale]) if scale is not None else 0.0
        assert float(g[col]) <= 1e-12 * (min(1.0, sigma) if sigma > 0 else 1.0)


@pytest.mark.parametrize("kind", sorted(p.stem for p in MODAL_GOLDEN.glob("*.cfg")))
@pytest.mark.parametrize("command, name", [("modal", "modes.csv"), ("sweep", "sweep.csv")])
def test_spectral_output_matches_golden(tmp_path, kind, command, name):
    """modes.csv and sweep.csv bodies, after the 3-line header, against
    stored files written by an earlier version: every temperature kind,
    Dirichlet and Neumann (from n = 0), stable and unstable spectra with
    rho*cv != 1, and Quintanilla within 1e-9 of kappa = tau*xi."""
    code, out = run(tmp_path, command, "--config", str(MODAL_GOLDEN / f"{kind}.cfg"))
    assert code == 0
    body = (out / name).read_bytes().split(b"\n", 3)[3]
    assert body == (MODAL_GOLDEN / f"{kind}.{name}").read_bytes()


@pytest.mark.parametrize("kind", ["jeffreys", "burgers", "gk"])
def test_audit_matches_golden_output(tmp_path, kind):
    """residuals.csv body against a stored file written by an earlier version:
    sample, theta, psi and sigma byte for byte; residual and rel_residual are
    rounding noise of sums that cancel, so they are bounded instead."""
    code, out = run(tmp_path, "audit", "--config", str(AUDIT_GOLDEN / f"{kind}.cfg"), "--seed", "3")
    assert code == 0
    got = [line.split(",") for line in (out / "residuals.csv").read_text().splitlines()[3:]]
    want = [line.split(",") for line in (AUDIT_GOLDEN / f"{kind}.residuals.csv").read_text().splitlines()]
    assert len(got) == len(want) and got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g[:4] == w[:4]
        assert abs(float(g[4])) <= 1e-12 and float(g[5]) <= 1e-12


# model.* lines of one config per kind, for the audit's byte checks
AUDIT_MODELS = {
    "fourier": "model.kappa = full:2,3,4,0.3,0.2,0.1",
    "gn2": "model.K = 1.5",
    "mcv": "model.tau = 0.7\nmodel.kappa = 2.0",
    "jeffreys": "model.tau = 0.8\nmodel.xi = 2.0\nmodel.kappa = 0.5",
    "gn3": "model.xi = 1.5\nmodel.kappa = 2.0",
    "quintanilla": "model.tau = 0.5\nmodel.xi = 1.0\nmodel.kappa = 2.0",
    "burgers": "model.lambda_b = 1.0\nmodel.tau = 2.0\nmodel.mu = 1.0\nmodel.nu = 1.0",
    "gk": "model.tau = 0.5\nmodel.ell = 0.3\nmodel.varkappa = power:2.0,1.5",
    "gk_nonlinear": "model.tau = 0.5\nmodel.ell = 0.3\nmodel.varkappa = power:2.0,-0.5\nmodel.delta = 0.4",
}


@pytest.mark.parametrize("kind", AUDIT_MODELS)
def test_audit_writes_the_bytes_of_the_per_state_loop(tmp_path, capsys, kind):
    """residuals.csv and the summary line are those of auditing one state
    at a time, residual columns included."""
    cfg = write_cfg(tmp_path, f"model.kind = {kind}\n{AUDIT_MODELS[kind]}\naudit.samples = 300\n")
    code, out = run(tmp_path, "audit", "--config", cfg, "--seed", "11")
    assert code == 0
    rows = oracle.audit(build_model(parse_config(cfg)), np.random.default_rng(11), 300)
    want = ["%d,%.12g,%.12g,%.12g,%.12g,%.12g" % (i, th, psi, sig, res, rel)
            for i, (th, psi, sig, _, res, rel) in enumerate(rows)]
    assert (out / "residuals.csv").read_text().splitlines()[4:] == want
    worst, least = max([0.0] + [r[5] for r in rows]), min([np.inf] + [r[2] for r in rows])
    assert f"audited 300 random states: max relative residual {worst:.3e}, min sigma {least:.3e}" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["abc", "1.5", "-5", "0", str(MAX_AUDIT_SAMPLES + 1), "10000000000000"])
def test_audit_samples_must_be_a_positive_integer(tmp_path, capsys, value):
    """10000000000000 samples was a 72.8 TiB allocation (a MemoryError
    traceback); a count above the budget is refused before any draw."""
    cfg = write_cfg(tmp_path, QUINTANILLA_CFG.replace("audit.samples = 50", f"audit.samples = {value}"))
    code, out = run(tmp_path, "audit", "--config", cfg)
    assert code == 2
    assert "config error: key 'audit.samples'" in capsys.readouterr().err
    assert not (out / "residuals.csv").exists()


def test_audit_budget_takes_the_shipped_sizes():
    """The default and the benchmark's largest audit (8000 states) sit far
    inside the budget, which is itself accepted."""
    assert build_audit_samples({}) == 1000 and 8000 * 100 <= MAX_AUDIT_SAMPLES
    assert build_audit_samples({"audit.samples": str(MAX_AUDIT_SAMPLES)}) == MAX_AUDIT_SAMPLES


@pytest.mark.parametrize("samples", [10, 1000])
def test_audit_nonfinite_varkappa_exits_2(tmp_path, capsys, samples):
    """varkappa = theta**2000 overflows above theta = 1.43 and underflows to
    0 below 0.71 on the sampled range [0.5, 2]: a config error before any
    rate is taken, with no RuntimeWarning (an error under tier-1) and no
    residuals.csv of nan rows."""
    cfg = write_cfg(tmp_path, "model.kind = gk\nmodel.tau = 0.5\nmodel.ell = 0.3\n"
                              f"model.varkappa = power:1.0,2000\naudit.samples = {samples}\n")
    code, out = run(tmp_path, "audit", "--config", cfg)
    assert code == 2
    assert "config error: varkappa(theta) must be finite and positive" in capsys.readouterr().err
    assert not (out / "residuals.csv").exists()


def test_check_nonfinite_varkappa_exits_2(tmp_path, capsys):
    """On the check's theta grid (1 to 10) varkappa = theta**2000 overflows;
    the coupling defect is then nan, which must not read as a pass."""
    cfg = write_cfg(tmp_path, "model.kind = gk\nmodel.tau = 0.5\nmodel.ell = 0.3\nmodel.varkappa = power:1.0,2000\n")
    code, out = run(tmp_path, "check", "--config", cfg)
    assert code == 2
    assert "config error: varkappa(theta) must be finite" in capsys.readouterr().err
    assert not (out / "verdict.txt").exists()


@pytest.mark.parametrize(
    "setting, key",
    [
        (("time.dt", "nan"), "time.dt"),
        (("time.dt", "inf"), "time.dt"),
        (("time.t_end", "inf"), "time.t_end"),
        (("time.t_end", "nan"), "time.t_end"),
        (("time.dt", "1e-300", "time.t_end", "1e300"), "time.dt"),
    ],
    ids=["dt_nan", "dt_inf", "t_end_inf", "t_end_nan", "ratio_inf"],
)
def test_simulate_nonfinite_time_settings_exit_2(tmp_path, capsys, setting, key):
    """A non-finite dt or t_end is a config error, not a traceback from the
    time loop; so is a dt that would make t_end / dt overflow, which the
    magnitude envelope refuses."""
    code, out = run(tmp_path, "simulate", "--config", write_cfg(tmp_path, _set(QUINTANILLA_CFG, *setting)))
    assert code == 2
    assert f"config error: key '{key}'" in capsys.readouterr().err
    assert not (out / "snapshots.csv").exists()


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model.kind = quintanilla\nmodel.tau = not_a_number\n")
    assert main(["check", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    cfg2 = write_cfg(tmp_path, "model.kind = warp_drive\n", "bad.cfg")
    assert main(["check", "--config", cfg2]) == 2
    # errors raised past config parsing, by the modal, energetics and 1-D layers
    gk_plug = str(Path(__file__).resolve().parent.parent / "configs" / "gk_plug.cfg")
    anisotropic = write_cfg(
        tmp_path, QUINTANILLA_CFG.replace("model.xi = 1.0", "model.xi = diag:1,2,3"), "aniso.cfg"
    )
    coarse = write_cfg(tmp_path, QUINTANILLA_CFG.replace("grid.N = 60", "grid.N = 4"), "coarse.cfg")
    # kappa = tau*xi leaves the Quintanilla entropy audit without a free energy
    no_audit = write_cfg(tmp_path, QUINTANILLA_CFG.replace("model.kappa = 2.0", "model.kappa = 1.0"), "no_audit.cfg")
    nonlinear = write_cfg(
        tmp_path, GK_CFG.replace("model.kind = gk", "model.kind = gk_nonlinear\nmodel.delta = 0.3"), "gk_nl.cfg"
    )
    for command, path in (
        ("modal", gk_plug),
        ("audit", gk_plug),
        ("simulate", anisotropic),
        ("simulate", coarse),
        ("simulate", no_audit),
        ("simulate", nonlinear),
    ):
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2, (command, path)
        assert "config error: " in capsys.readouterr().err


def test_overflowing_coefficient_scale_exits_2(tmp_path, capsys):
    """tau = 1.4e-278 puts an MCV root near -7e277, whose square overflows
    the root screen: a config error, not a warning and a written table."""
    cfg = write_cfg(tmp_path, "model.kind = mcv\nmodel.tau = 1.4e-278\nmodel.kappa = 1.0\n")
    code, out = run(tmp_path, "modal", "--config", cfg)
    assert code == 2
    assert "config error: " in capsys.readouterr().err
    assert not (out / "modes.csv").exists()


def _edited(config, *pairs):
    """configs/<config> with _set's edits."""
    return _set((Path(__file__).resolve().parents[1] / "configs" / config).read_text(), *pairs)


@pytest.mark.parametrize(
    "edits",
    [("spectral.n_max", "100000000000"), ("spectral.L", "1e-100", "material.rho", "1e-100", "material.cv", "1e-100"),
     ("spectral.L", "inf"), ("spectral.L", "1e-60", "material.rho", "1e-100", "material.cv", "1e-100"),
     ("spectral.L", "1e-100", "material.rho", "1e-100", "model.kappa", "1e100")],
    ids=["n_max_huge", "L_tiny", "L_inf", "rho_subnormal", "coefficient_overflow"],
)
def test_spectral_inputs_are_checked_up_front(tmp_path, capsys, edits):
    """An n_max beyond the mode budget (a MemoryError), an L whose spectrum
    overflows (an OverflowError), an infinite L (an all-zero spectrum, exit
    0) and a rho_c that overflows Lambda_tilde (a RuntimeWarning) are each
    refused before any spectrum is built; a coefficient Lambda_tilde * kappa
    that overflows is refused without the RuntimeWarning it printed. The
    overflows are reached with every number inside the magnitude envelope
    (the ids name the inputs first pinned, outside it)."""
    code, out = run(tmp_path, "modal", "--config", write_cfg(tmp_path, _edited("mgt_stable.cfg", *edits)))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, edits, message",
    [
        ("modal", ("spectral.n_max", "200000"), "key 'spectral.n_max': need 1 <= n_max <= 100000, got 200000"),
        ("modal", ("spectral.n_max", "0"), "key 'spectral.n_max': need 1 <= n_max <= 100000, got 0"),
        ("modal", ("spectral.L", "-2"), "key 'spectral.L': need a finite length > 0, got -2"),
        ("modal", ("material.rho", "-1"), "key 'material.rho': need a density > 0, got -1"),
        ("simulate", ("material.cv", "0"), "key 'material.cv': need a specific heat > 0, got 0"),
        ("simulate", ("grid.L", "-2"), "key 'grid.L': need a domain length > 0, got -2"),
        ("simulate", ("grid.N", "5"), "key 'grid.N': need at least 8 interior points, got 5"),
        ("simulate", ("bc.kind", "bogus"), "key 'bc.kind': need dirichlet or neumann, got 'bogus'"),
        ("modal", ("spectral.bc", "bogus"), "key 'spectral.bc': need dirichlet or neumann, got 'bogus'"),
    ],
    ids=["n_max_huge", "n_max_zero", "spectral_L_negative", "rho_negative", "cv_zero", "grid_L_negative",
         "grid_N_small", "bc_kind_bogus", "spectral_bc_bogus"],
)
def test_range_refusals_name_the_key_and_the_condition(tmp_path, capsys, command, edits, message):
    """The range checks of the grid, the material and the spectrum, and the
    boundary kinds, name the config key and the one condition that failed
    (each printed the same message for every key of its class, and the
    boundary kinds named no key)."""
    code, out = run(tmp_path, command, "--config", write_cfg(tmp_path, _edited("mgt_stable.cfg", *edits)))
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, key, value, named",
    [
        ("check", "burgers_sweep.cfg", "model.nu", "nan", "model.nu"),
        ("check", "burgers_sweep.cfg", "model.tau", "-inf", "model.tau"),
        ("sweep", "burgers_sweep.cfg", "sweep.values", "nan, 1", "model.nu"),
        ("sweep", "burgers_sweep.cfg", "sweep.values", "1, inf", "model.nu"),
        ("simulate", "mgt_stable.cfg", "grid.L", "inf", "grid.L"),
        ("simulate", "mgt_stable.cfg", "ic.amplitude", "nan", "ic.amplitude"),
        ("simulate", "mgt_stable.cfg", "bc.value", "nan", "bc.value"),
        ("audit", "gk_plug.cfg", "model.ell", "nan", "model.ell"),
    ],
    ids=["nu_nan", "tau_minus_inf", "sweep_nan", "sweep_inf", "grid_L_inf", "amplitude_nan", "bc_value_nan",
         "ell_nan"],
)
def test_nonfinite_float_key_exits_2(tmp_path, capsys, command, config, key, value, named):
    """A float key holding nan or +-inf is a config error naming the key: a
    Burgers nu = nan ended in a LinAlgError traceback, and a non-finite L,
    amplitude or wall value in a run aborted at step 1 (exit 1)."""
    code, out = run(tmp_path, command, "--config", write_cfg(tmp_path, _edited(config, key, value)))
    assert code == 2
    assert f"config error: key {named!r}: not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("check", GK_CFG + "model.delta = 0.3\n", "model.delta"),
        ("sweep", "model.kind = mcv\nmodel.tau = 0.5\nmodel.kappa = 1.0\n"
                  "sweep.param = model.xi\nsweep.values = 0.5, 2.0\n", "model.xi"),
    ],
    ids=["gk_delta", "mcv_sweep_xi"],
)
def test_unknown_model_key_exits_2(tmp_path, capsys, command, text, key):
    """A model.* key the kind has no field for is a config error naming the
    key, not a parameter silently dropped (a linear gk given a delta, or a
    sweep whose every row is the same MCV)."""
    code, out = run(tmp_path, command, "--config", write_cfg(tmp_path, text))
    assert code == 2
    assert f"config error: key {key!r}: model kind" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, edits, command, key",
    [
        ("burgers_sweep.cfg", ("sweep.param", "grid.N"), "sweep", "sweep.param"),
        ("burgers_sweep.cfg", ("sweep.param", "time.dt"), "sweep", "sweep.param"),
        ("mgt_stable.cfg", ("audit.sample", "5"), "audit", "audit.sample"),
        ("mgt_stable.cfg", ("grid.n", "50"), "simulate", "grid.n"),
    ],
    ids=["sweep_grid_N", "sweep_time_dt", "audit_sample", "simulate_grid_n"],
)
def test_key_no_subcommand_reads_exits_2(tmp_path, capsys, config, edits, command, key):
    """A key that the subcommand would not read is a config error naming
    it, not a run that ignores it: a sweep over grid.N gave six identical
    rows, a misspelt audit.sample audited the default 1000 states."""
    code, out = run(tmp_path, command, "--config", write_cfg(tmp_path, _edited(config, *edits)))
    assert code == 2
    assert f"config error: key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_key_exits_2(tmp_path, capsys):
    """A key given twice is a config error naming it and both lines, not a
    run that keeps the later value (check judged model.tau = 5 here)."""
    code, out = run(tmp_path, "check", "--config", write_cfg(tmp_path, QUINTANILLA_CFG + "model.tau = 5.0\n"))
    assert code == 2
    assert capsys.readouterr().err == "config error: key 'model.tau': given twice, on lines 3 and 17\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_seed_below_zero_or_not_an_integer_is_a_usage_error(tmp_path, capsys, seed):
    """--seed -1 ended in numpy's ValueError traceback (exit 1); the parser
    refuses it, as it refuses a seed that is not an integer."""
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "mgt_stable.cfg")
    with pytest.raises(SystemExit) as exit_:
        run(tmp_path, "audit", "--config", cfg, "--seed", seed)
    assert exit_.value.code == 2
    assert f"argument --seed: need an integer >= 0, got '{seed}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["-5", "0"])
def test_nonpositive_snapshot_every_exits_2(tmp_path, capsys, value):
    """time.snapshot_every = -5 was an IndexError traceback and 0 was taken
    as the default spacing; both are config errors naming the key."""
    code, out = run(tmp_path, "simulate", "--config",
                    write_cfg(tmp_path, _edited("mgt_stable.cfg", "time.snapshot_every", value)))
    assert code == 2
    assert f"config error: key 'time.snapshot_every': need a positive integer, got {int(value)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, extra, key",
    [("zero", "ic.amplitude = 5\n", "ic.amplitude"), ("zero", "ic.mode = 2\n", "ic.mode"),
     ("constant", "ic.mode = 2\n", "ic.mode")],
    ids=["zero_amplitude", "zero_mode", "constant_mode"],
)
def test_ic_key_the_kind_does_not_read_exits_2(tmp_path, capsys, kind, extra, key):
    """An ic.* key that the initial condition does not read is a config
    error naming it: ic.kind = zero with ic.amplitude = 5 ran a zero field."""
    text = _edited("mgt_stable.cfg", "ic.kind", kind)
    text = re.sub(r"^ic\.(mode|amplitude) = .*\n", "", text, flags=re.M) + extra
    code, out = run(tmp_path, "simulate", "--config", write_cfg(tmp_path, text))
    assert code == 2
    assert f"config error: key {key!r}: ic.kind {kind!r} does not read it" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["0", "-1"])
def test_sine_mode_below_one_exits_2(tmp_path, capsys, mode):
    """ic.mode = 0 with ic.kind = sine ran an all-zero field (sin 0 at every
    node), the amplitude silently ignored; a sine mode below 1 is a config
    error naming the key."""
    text = (GOLDEN / "burgers.cfg").read_text()
    assert "ic.kind = sine\nic.mode = 3\n" in text
    cfg = write_cfg(tmp_path, text.replace("ic.mode = 3", f"ic.mode = {mode}"))
    code, out = run(tmp_path, "simulate", "--config", cfg)
    assert code == 2
    assert f"config error: key 'ic.mode': need a positive integer, got {mode}" in capsys.readouterr().err
    assert not out.exists()


def test_one_parser_serves_every_call(tmp_path, capsys):
    """main builds its parser once per process: calls after the first, with
    other subcommands, write what the same calls on a fresh parser write,
    and --version and an unknown subcommand exit as they did."""
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    calls = [["check", "--config", cfg], ["audit", "--config", cfg, "--seed", "7"], ["--version"],
             ["sweep", "--config", cfg], ["frobnicate"], ["check", "--config", cfg]]
    runs = {}
    for fresh in (False, True):
        runs[fresh] = []
        for i, argv in enumerate(calls):
            if fresh:
                build_parser.cache_clear()
            out = tmp_path / f"{fresh}{i}"
            try:
                code = main(argv + ["--out", str(out)])
            except SystemExit as e:
                code = e.code
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
            printed = capsys.readouterr()
            runs[fresh].append((code, files, printed.out.replace(str(out), "OUT"), printed.err))
    assert build_parser() is build_parser()
    assert runs[False] == runs[True]
    assert [r[0] for r in runs[False]] == [0, 0, 0, 0, 2, 0]
    assert runs[False][2][2] == f"{nonfourier.__version__}\n"
    assert "invalid choice: 'frobnicate'" in runs[False][4][3]


def _huge(kind, command):
    """A config with coefficients at the magnitude envelope's edge, 1e100.
    Quintanilla's check reads tau = -1e100 and xi = 1e100: the plain
    Frobenius norm of kappa - tau xi, its tolerance scale, overflows. Its
    run reads tau = 1e100, xi = 1e-100 and kappa = 1 + 1e-9, whose energy
    form overflows. GN III xi and GN II K of 1e100 have a determinant of
    1e300."""
    gn3 = (GOLDEN / "gn3.cfg").read_text()
    quintanilla = ("model.tau", "-1e100", "model.xi", "1e100") if command == "check" else (
        "model.tau", "1e100", "model.xi", "1e-100", "model.kappa", "1.000000001", "time.t_end", "1e-2")
    return {"quintanilla": _edited("mgt_stable.cfg", *quintanilla),
            "gn3": gn3.replace("model.xi = 1.5", "model.xi = 1e100"),
            "gn2": gn3.replace("model.kind = gn3\nmodel.xi = 1.5\nmodel.kappa = 2.0", "model.kind = gn2\nmodel.K = 1e100")}[kind]


@pytest.mark.parametrize("kind, command, code", [
    ("quintanilla", "check", 0), ("quintanilla", "simulate", 2), ("gn3", "check", 0), ("gn3", "simulate", 0),
    ("gn2", "check", 0), ("gn2", "simulate", 0)])
def test_huge_coefficient_prints_no_warning(tmp_path, kind, command, code):
    """At the envelope's edge, under -W error, neither check (a verdict)
    nor simulate (a run, or a config error for an energy form that
    overflows) prints a warning or a traceback. (These cases read 1e160
    before the envelope, which now refuses it:
    test_oversized_inputs_exit_2_without_warning.)"""
    cfg = write_cfg(tmp_path, _huge(kind, command))
    env = dict(os.environ, PYTHONPATH=str(Path(nonfourier.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "nonfourier.cli", command, "--config", cfg,
                           "--out", str(tmp_path / "out")], env=env, capture_output=True, text=True)
    assert proc.returncode == code
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    if command == "check":
        assert "pass=true" in proc.stdout


@pytest.mark.parametrize("config, old, new, command, named", [
    ("mgt_stable.cfg", "grid.N = 200", "grid.N 200", "simulate", "line 11: expected key = value"),
    ("mgt_stable.cfg", "model.kappa = 2.0", "model.kappa = full:2,2,2,0,0", "check", "need 6 components"),
    ("gk_plug.cfg", "model.varkappa = constant:1.0", "model.varkappa = power:1.0", "simulate", "bad coefficient"),
    ("mgt_stable.cfg", "ic.kind = sine", "ic.kind = gaussian", "simulate", "unknown initial condition 'gaussian'"),
    ("burgers_sweep.cfg", "sweep.values = 0.5, 1.0, 1.5, 2.0, 2.5, 3.0", "", "sweep", "sweep needs sweep.param and"),
    *[("burgers_sweep.cfg", "sweep.values = 0.5, 1.0, 1.5, 2.0, 2.5, 3.0", f"sweep.values = {values}", "sweep",
       f"config error: key 'sweep.values': each value is one number, not a {form}: value\n")
      for values, form in (("diag:2,2,2, 3", "diag"), ("3, full:2,2,2,0,0,0", "full"), ("power:1,2", "power"))],
    ("burgers_sweep.cfg", "sweep.values = 0.5, 1.0, 1.5, 2.0, 2.5, 3.0", "sweep.values = 1.0, 2.0,", "sweep",
     "config error: key 'sweep.values': each value is one number, not an empty entry\n"),
], ids=["no_equals", "full_of_5", "power_without_p", "unknown_ic_kind", "sweep_without_values", "sweep_diag",
        "sweep_full", "sweep_power", "sweep_empty"])
def test_malformed_config_line_exits_2(tmp_path, capsys, config, old, new, command, named):
    """A line without '=', a full: tensor of 5 components, a power:
    coefficient without its exponent, an unknown ic.kind, a sweep without
    sweep.values, a sweep value of several components (split on its
    commas, diag:2,2,2 was refused as "bad tensor value 'diag:2'") and an
    empty sweep value (a trailing comma was refused as the swept key's
    "not a finite number: ''") are config errors."""
    text = (Path(__file__).resolve().parents[1] / "configs" / config).read_text()
    assert old in text
    code, _ = run(tmp_path, command, "--config", write_cfg(tmp_path, text.replace(old, new)))
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "modal", "sweep"])
@pytest.mark.parametrize("kind", ["mcv", "jeffreys"])
def test_vanishing_tau_prints_the_laws_limit(tmp_path, capsys, kind, command):
    """tau = 0 leaves MCV and Jeffreys without their rate term: every
    subcommand that solves the temperature equation prints the law's limit
    (modal and sweep printed the root solver's "leading coefficient must be
    nonzero")."""
    text = (GOLDEN / f"{kind}.cfg").read_text()
    text = re.sub(r"^model.tau = .*$", "model.tau = 0", text, flags=re.M)
    code, out = run(tmp_path, command, "--config", write_cfg(tmp_path, text + "sweep.param = model.kappa\n"
                                                                             "sweep.values = 1.0, 2.0\n"))
    assert code == 2
    assert capsys.readouterr().err == "config error: tau = 0: reduce to the Fourier model\n"
    assert not out.exists()


def test_constant_initial_condition_fills_the_grid(tmp_path):
    text = _edited("mgt_stable.cfg", "time.t_end", "0.01").replace(
        "ic.kind = sine\nic.mode = 1\nic.amplitude = 1.0", "ic.kind = constant\nic.amplitude = 0.25")
    code, out = run(tmp_path, "simulate", "--config", write_cfg(tmp_path, text))
    assert code == 0
    first = [row.split(",") for row in (out / "snapshots.csv").read_text().splitlines()[4:] if row.startswith("0,")]
    assert len(first) == 200 and {row[2] for row in first} == {"0.25"}


def test_bare_number_varkappa_is_a_constant(tmp_path):
    """model.varkappa = c reads as constant:c: the run's files are the same."""
    bodies = []
    for name, value in (("constant", "constant:1.0"), ("bare", "1.0")):
        cfg = write_cfg(tmp_path, _edited("gk_plug.cfg", "model.varkappa", value), name=f"{name}.cfg")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        bodies.append([(tmp_path / name / f).read_bytes().split(b"\n", 3)[3] for f in ("snapshots.csv", "audit.csv")])
    assert bodies[0] == bodies[1]


# the 1-D set-up overflows with every number inside the envelope
_HUGE_SYSTEM = ("grid.L", "1e-100", "grid.N", "8", "time.dt", "1e100", "time.t_end", "1e100", "model.kappa", "1e100")


@pytest.mark.parametrize("config, edits, command, named", [
    ("mgt_stable.cfg", ("grid.L", "1e-300"), "simulate", "key 'grid.L': outside the magnitude envelope"),
    ("mgt_stable.cfg", ("grid.L", "1e300"), "simulate", "key 'grid.L': outside the magnitude envelope"),
    ("mgt_stable.cfg", _HUGE_SYSTEM, "simulate", "keys grid.*, material.*, model.* and time.dt: the 1-D system"),
    ("gk_plug.cfg", ("model.ell", "1e300"), "simulate", "key 'model.ell': outside the magnitude envelope"),
    ("gk_plug.cfg", ("model.ell", "1e300"), "audit", "key 'model.ell': outside the magnitude envelope"),
    *[("burgers_sweep.cfg", ("model.mu", "1e300"), command, "key 'model.mu': outside the magnitude envelope")
      for command in ("check", "sweep", "simulate", "audit")],
], ids=["tiny_L", "huge_L", "huge_dt", "huge_ell-simulate", "huge_ell-audit",
        *[f"huge_mu-{c}" for c in ("check", "sweep", "simulate", "audit")]])
def test_overflowing_square_exits_2(tmp_path, capsys, config, edits, command, named):
    """A grid spacing, ell or Burgers scale whose square would leave the
    float range comes from a number outside the magnitude envelope, which
    is refused naming its key. A set-up whose system, times dt/2, leaves the
    float range with every number inside it is refused naming the keys that
    set the system. Each is a config error with warnings as errors, where
    each was a traceback or a RuntimeWarning and exit 1."""
    cfg = write_cfg(tmp_path, _edited(config, *edits))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(tmp_path, command, "--config", cfg)
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("config", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_every_shipped_config_key_is_read(config):
    """Every key of configs/*.cfg passes the unknown-key check."""
    assert parse_config(config)


def test_every_package_error_but_the_run_aborts_exits_2():
    """main turns an InvalidInputError into exit 2, so every exception class
    of the package is one, except the two aborts of a run (exit 1)."""
    errors = set()
    for info in pkgutil.iter_modules(nonfourier.__path__):
        mod = importlib.import_module(f"nonfourier.{info.name}")
        errors |= {cls for cls in vars(mod).values()
                   if isinstance(cls, type) and issubclass(cls, BaseException) and cls.__module__ == mod.__name__}
    assert len(errors) > 2
    assert {cls.__name__ for cls in errors if not issubclass(cls, InvalidInputError)} == {"PositivityError",
                                                                                        "DivergenceError"}


def test_every_model_kind_has_a_consistency_check():
    assert set(CHECKS) == set(MODEL_KINDS.values())


_ENVELOPE = "outside the magnitude envelope (0, or 1e-100 <= |v| <= 1e+100)"
_POLYS = "keys model.*, spectral.* and material.*: the characteristic polynomials they set: "
_SWEEP_XI = "sweep.param = model.xi\nsweep.values = 1.0, 2.0\n"
_TINY_SPECTRUM = ("spectral.L", "1e-100", "material.rho", "1e-100")
_GN2 = (GOLDEN / "gn3.cfg").read_text().replace("model.kind = gn3\nmodel.xi = 1.5\nmodel.kappa = 2.0",
                                                 "model.kind = gn2\nmodel.K = 1e160")


# the ids of the first five name the inputs first pinned; the magnitude
# envelope now refuses 1e102 and 1e-300, and the cases read 1e100 and 1e-100
@pytest.mark.parametrize("command, text, message", [
    ("modal", _edited("mgt_stable.cfg", "model.kappa", "1e100"), f"{_POLYS}coefficient scale out of range: the cubic"),
    ("sweep", _edited("mgt_stable.cfg", "model.kappa", "1e100") + "sweep.param = model.kappa\nsweep.values = 2, 1e100\n",
     f"{_POLYS}coefficient scale out of range: the cubic"),
    ("simulate", _edited("mgt_stable.cfg", "time.t_end", "1e9"), "key 'time.t_end': 1e+12 steps"),
    ("simulate", _edited("mgt_stable.cfg", "time.dt", "1e-100"), "key 'time.t_end': 2e+100 steps"),
    ("simulate", _edited("mgt_stable.cfg", "grid.N", "1000000000"), "key 'grid.N': 1e+09 nodes"),
    ("simulate", _edited("mgt_stable.cfg", "grid.N", "1" + "0" * 400), f"key 'grid.N': {_ENVELOPE}"),
    ("simulate", _edited("mgt_stable.cfg", "ic.mode", "1" + "0" * 400), f"key 'ic.mode': {_ENVELOPE}"),
    ("check", _edited("mgt_stable.cfg", "model.kappa", "1e160"), f"key 'model.kappa': {_ENVELOPE}"),
    ("simulate", (GOLDEN / "gn3.cfg").read_text().replace("model.xi = 1.5", "model.xi = 1e160"),
     f"key 'model.xi': {_ENVELOPE}"),
    ("simulate", _GN2, f"key 'model.K': {_ENVELOPE}"),
    ("audit", _edited("mgt_stable.cfg", "model.tau", "1e100", "model.xi", "1e-100", "model.kappa", "1.000000001"),
     "keys model.*: the audited states' rates, energies and entropy production leave the float range"),
    ("audit", "model.kind = gk\nmodel.tau = 1e-100\nmodel.ell = 1e100\nmodel.varkappa = 1e100\n",
     "keys model.*: the audited states' rates, energies and entropy production leave the float range"),
    ("modal", _edited("mgt_stable.cfg", "model.tau", "1e-100", "model.kappa", "0"),
     f"{_POLYS}coefficient scale out of range: the roots leave the float range (divide by zero"),
    ("modal", "model.kind = mcv\nmodel.tau = -1e-100\nmodel.kappa = 1e100\nspectral.L = 1e-100\n",
     f"{_POLYS}coefficient scale out of range: the roots leave the float range (overflow"),
    *[(command, _edited("mgt_stable.cfg", *edits) + _SWEEP_XI, message) for command in ("modal", "sweep")
      for edits, message in [
          ((*_TINY_SPECTRUM, "model.kappa", "1e100"), f"{_POLYS}non-finite coefficient"),
          (_TINY_SPECTRUM, f"{_POLYS}coefficient scale out of range: the roots leave the float range (overflow"),
          ((*_TINY_SPECTRUM, "material.cv", "1e-100"),
           "keys spectral.* and material.*: (n pi / L)^2 / rho_c overflows at L = 1e-100, rho_c = 1e-200")]],
], ids=["modal_kappa_1e102", "sweep_kappa_1e102", "t_end_1e9", "dt_1e-300", "N_1e9", "N_1e400", "mode_1e400",
        "kappa_1e160", "xi_1e160", "K_1e160", "energy_form", "gk_rate", "zero_derivative_root", "companion_overflow",
        *[f"{case}-{command}" for command in ("modal", "sweep")
          for case in ("nonfinite_coefficient", "tiny_spectrum_roots", "spectrum_overflow")]])
def test_oversized_inputs_exit_2_without_warning(tmp_path, capsys, command, text, message):
    """Each of these ended in a traceback (exit 1) or printed a warning: an
    OverflowError from the cubic discriminant, a MemoryError or "maximum
    allowed dimension exceeded" from sizing the run's arrays, an
    OverflowError from an integer past the float range (grid.N in the grid
    spacing, ic.mode in the initial field); a tensor of 1e160, whose norm
    and determinant overflow, needed guards of its own. Inside the
    envelope, a Quintanilla energy form of 1e309 and a gk rate of
    ell^2 varkappa / tau = 1e400 (audit), a Newton step on
    a root where the derivative is 0 (numpy.roots gives 0, 0 for the +-i of
    1e-100 s^3 + s^2 + 1) and an MCV companion entry Lambda kappa / tau
    past the float range printed RuntimeWarnings. Each is now a config error, raised before
    anything is written or allocated. A refusal of the spectrum or of its
    polynomials names the model.*, spectral.* and material.* keys that set
    it (a non-finite coefficient, a cubic discriminant or roots past the
    float range, and an overflowing spectrum named none)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, command, "--config", write_cfg(tmp_path, text))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_missing_required_key_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "model.kind = mcv\nmodel.tau = 1.0\n")
    assert main(["check", "--config", cfg]) == 2
