"""Whole configs drawn by Hypothesis, each run through cli.main under every
subcommand: whatever numbers the config format accepts, a run returns 0,
1 (an aborted run: PositivityError or DivergenceError) or 2 (a config
error), within the alarm of scripts/envelope_probe.py's run and with no
warning.

A draw is a model kind with its keys and any of the other keys, several at
once. Its numbers are the magnitude envelope's edges (+-1e-100, +-1e100),
+-0, small values, values outside the envelope and each kind's
admissibility boundaries (a parameter equal to another, as xi = kappa for
Jeffreys, or kappa = tau xi for Quintanilla at tau = 1). grid.N is at most
64 and a run takes at most 200 steps, unless its step count is past the
run's budget. The example budget is SCHEMA_EXAMPLES from the environment,
40 by default: a search for inputs that escape the envelope sets it in the
thousands.
"""
import os
import runpy
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nonfourier.config import IC_KEYS, MODEL_KINDS, SPECTRAL_KEYS, parse_config

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("check", "modal", "simulate", "sweep", "audit")
EXAMPLES = int(os.environ.get("SCHEMA_EXAMPLES", "40"))

EDGES = [0.0, -0.0, 1e-100, -1e-100, 1e100, -1e100, 1.0, -1.0, 2.0, 0.5, 1e-20, 1e20, 1e-50, -1e50]
# values outside the envelope or a key's range, and the envelope's largest
# integer, one of which a draw may put in any key
OUTSIDE = ["5e-324", "1e-101", "1e101", "-1e300", "nan", "-inf", "x", "2.5", "0", "-1", "1" + "0" * 101,
           "1" + "0" * 100]
# for the keys that must be positive, so that most draws run
positives = st.one_of(st.sampled_from([e for e in EDGES if e > 0]), st.floats(1e-3, 10.0)).map(repr)
numbers = st.one_of(st.sampled_from(EDGES).map(repr), positives, positives.map("-".__add__))
ints = lambda lo, hi: st.integers(lo, hi).map(str)
tensors = st.one_of(numbers, numbers, st.lists(numbers, min_size=3, max_size=3).map(lambda v: "diag:" + ",".join(v)),
                    st.lists(numbers, min_size=6, max_size=6).map(lambda v: "full:" + ",".join(v)))
coefficients = st.one_of(numbers, numbers.map("constant:".__add__),
                         st.tuples(numbers, st.sampled_from(["0", "1", "-1", "2", "1e100", "-1e100", "1e-100"]))
                         .map(lambda cp: "power:" + ",".join(cp)))
FIELD_VALUES = {"float": numbers, "SymTensor3": tensors, "CoefficientFn": coefficients}


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(sorted(MODEL_KINDS)))
    cfg = {"model.kind": kind}
    for f in fields(MODEL_KINDS[kind]):
        if f.default is MISSING or draw(st.booleans()):
            cfg[f"model.{f.name}"] = draw(FIELD_VALUES[f.type])
    # an admissibility boundary: one scalar parameter equal to another
    params = [key for key in cfg if key != "model.kind" and ":" not in cfg[key]]
    if len(params) > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(params))[:2]
        cfg[a] = cfg[b]
    optional = lambda key, values: cfg.update({key: draw(values)} if draw(st.booleans()) else {})
    for key in ("material.rho", "material.cv", "sim.theta_ref", "spectral.L"):
        optional(key, positives)
    optional("bc.value", numbers)
    cfg["grid.L"], cfg["grid.N"], dt = draw(positives), draw(ints(8, 64)), draw(positives)
    # t_end = dt times 1 to 200 steps, or past the run's budget of steps
    steps = draw(st.sampled_from([*range(1, 201), *[1e7] * 10]))
    cfg["time.dt"], cfg["time.t_end"] = dt, repr(float(dt) * steps)
    optional("time.snapshot_every", ints(1, 300))
    optional("bc.kind", st.sampled_from(["dirichlet", "neumann"]))
    ic = draw(st.sampled_from(sorted(IC_KEYS)))
    cfg["ic.kind"] = ic
    for key in IC_KEYS[ic]:
        optional(key, ints(-3, 10) if key == "ic.mode" else numbers)
    if kind.startswith("gk"):
        optional("gk.imposed_gradient", numbers)
    optional("spectral.bc", st.sampled_from(["dirichlet", "neumann"]))
    optional("spectral.n_max", ints(1, 64))
    cfg["audit.samples"] = draw(ints(1, 20))
    cfg["sweep.param"] = draw(st.sampled_from([k for k in cfg if k.startswith("model.") and k != "model.kind"]
                                              + list(SPECTRAL_KEYS)))
    cfg["sweep.values"] = ", ".join(draw(st.lists(st.one_of(numbers, ints(1, 64)), min_size=1, max_size=3)))
    if draw(st.integers(0, 3)) == 0:
        cfg[draw(st.sampled_from(sorted(cfg)))] = draw(st.sampled_from(OUTSIDE))
    return cfg


def _edited(path, **edits):
    cfg = parse_config(ROOT / path)
    cfg.update({key.replace("__", "."): value for key, value in edits.items()})
    return cfg


# 1-D set-ups whose system overflows with every key inside the envelope
SETUP_OVERFLOWS = [
    _edited("configs/mgt_stable.cfg", grid__L="1e-100", grid__N="16", material__rho="1e-100", model__kappa="1e100",
            time__t_end="1e-2"),
    _edited("tests/data/simulate/gk.cfg", grid__L="1e-100", grid__N="64", model__varkappa="constant:1e100",
            material__rho="1e-100"),
]


# Burgers with tau = -1 at dt = 2, where dt/2 is the inverse of an
# eigenvalue of the flux law's companion A: its trapezoid step I - dt/2 A is
# singular (it was a LinAlgError traceback)
SINGULAR_FLUX_STEP = {
    "model.kind": "burgers", "model.lambda_b": "1e-100", "model.tau": "-1.0", "model.mu": "1e-100", "model.nu": "0.0",
    "grid.L": "1e-100", "grid.N": "8", "time.dt": "2.0", "time.t_end": "2.0",
}


# Burgers whose sigma form is nan (tau / lambda_b past the float range):
# check's witness search raised LinAlgError on it
NAN_SIGMA_FORM = {"model.kind": "burgers", "model.lambda_b": "1e-100", "model.tau": "1e100", "model.mu": "1e100",
                  "model.nu": "-1e100"}


# the probe's run: cli.main with warnings as errors and an alarm, classified
run = runpy.run_path(str(ROOT / "scripts" / "envelope_probe.py"), run_name="envelope_probe")["run"]


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None,
          suppress_health_check=list(HealthCheck))
@example(SETUP_OVERFLOWS[0])
@example(SETUP_OVERFLOWS[1])
@example(SINGULAR_FLUX_STEP)
@example(NAN_SIGMA_FORM)
@given(configs())
def test_every_drawn_config_exits_0_1_or_2_without_warning(cfg):
    for command in COMMANDS:
        _, _, what = run(cfg, command)
        assert not what, (command, cfg, what)


@pytest.mark.parametrize("cfg, message", [
    (SETUP_OVERFLOWS[0], "keys grid.*, material.*, model.* and time.dt: the 1-D system they set up, times dt/2"),
    (SETUP_OVERFLOWS[1], "keys grid.*, material.*, model.* and time.dt: the 1-D system they set up, times dt/2"),
    (SINGULAR_FLUX_STEP, "key 'time.dt': the flux law's trapezoid step I - dt/2 A is singular at dt = 2"),
], ids=["mgt_stable", "gk", "singular_flux_step"])
def test_refused_set_up_names_the_keys_that_set_it(cfg, message):
    """dt/2 times the assembled system leaves the float range (the message
    named only time.dt, or the run printed an overflow warning), or the
    flux law's step is singular (a LinAlgError traceback): exit 2, naming
    the keys."""
    code, err, _ = run(cfg, "simulate")
    assert code == 2
    assert f"config error: {message}" in err
