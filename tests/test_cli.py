"""End-to-end exercises of the command-line front end via main(argv)."""
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nonfourier
from nonfourier.cli import _float_rows, _fmt, _snapshot_rows, main

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
    cfg = write_cfg(tmp_path, text + f"sim.theta_ref = {value}\n")
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


def test_float_rows_format_cells_as_fmt():
    tiny = np.nextafter(0.0, 1.0)
    cells = [-0.0, 0.0, 1e-300, tiny, -5e-320, 1e16, 2.0, -3.0, 1e15 + 0.5, 1.0 / 3.0, np.pi * 1e-7, np.inf, np.nan]
    # long enough to cross the formatter's row blocks
    cols = [np.tile(cells, 700), np.tile(cells[::-1], 700) * np.repeat([1.0, -1.0], 350 * len(cells))]
    want = [f"{_fmt(a)},{_fmt(b)}" for a, b in zip(*cols)]
    assert _float_rows(*cols) == want


def test_snapshot_rows_format_cells_as_fmt():
    cells = np.array([-0.0, 0.0, 1e-300, -5e-320, 1e16, 1e15 + 0.5, 1.0 / 3.0, np.inf, -np.inf, np.nan])
    traj = SimpleNamespace(x=cells[::-1].copy(), times=cells[:4].copy(),
                           thetas=[np.roll(cells, k) for k in range(4)], fluxes=[-np.roll(cells, -k) for k in range(4)])
    want = [",".join(map(_fmt, (t, x, theta, q)))
            for t, thetas, qs in zip(traj.times, traj.thetas, traj.fluxes)
            for x, theta, q in zip(traj.x, thetas, qs)]
    # one string per snapshot, joined into lines as _write joins them
    assert len(_snapshot_rows(traj)) == len(traj.times)
    assert "\n".join(_snapshot_rows(traj)) == "\n".join(want)


def test_cli_import_loads_no_scipy():
    """Only simulate needs scipy (sparse operators, band LU); the CLI and
    the other subcommands' modules import without it."""
    code = "import sys, nonfourier.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(nonfourier.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", ["fourier", "mcv", "jeffreys", "gn3", "quintanilla", "burgers", "gk"])
def test_simulate_matches_golden_output(tmp_path, kind):
    """Output bodies, after the 3-line header, against stored files written
    by an earlier version. max_residual is rounding noise of a sum that
    cancels, so it is bounded instead of compared."""
    code, out = run(tmp_path, "simulate", "--config", str(GOLDEN / f"{kind}.cfg"))
    assert code == 0
    snap = (out / "snapshots.csv").read_bytes().split(b"\n", 3)[3]
    assert snap == (GOLDEN / f"{kind}.snapshots.csv").read_bytes()
    got = [line.split(",") for line in (out / "audit.csv").read_text().splitlines()[3:]]
    want = [line.split(",") for line in (GOLDEN / f"{kind}.audit.csv").read_text().splitlines()]
    assert len(got) == len(want) and got[0] == want[0]
    col = want[0].index("max_residual")
    for g, w in zip(got[1:], want[1:]):
        assert g[:col] + g[col + 1 :] == w[:col] + w[col + 1 :]
        assert float(g[col]) <= 1e-12


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


def test_missing_required_key_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "model.kind = mcv\nmodel.tau = 1.0\n")
    assert main(["check", "--config", cfg]) == 2
