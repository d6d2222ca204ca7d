"""The names perfbench/ reads from the program still exist.

The benchmark wraps module attributes of the program, builds its ops from
its classes and functions and checks the outputs they write. A rename that
breaks any of these fails here, in the tier-1 run, rather than in the
traced benchmark run alone.
"""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    # load_program inserts src/ into sys.path too; the copy undoes both
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    import layers
    import spantrace
    import workloads

    return layers, spantrace, workloads, workloads.load_program(ROOT / "src")


def test_traced_run_wraps_and_restores_every_attribute(bench):
    layers, spantrace, _, nf = bench
    modules = [getattr(nf, name) for name in vars(nf)]
    before = [dict(vars(m)) for m in modules]
    tracer = spantrace.Tracer()
    try:
        layers.install(tracer, nf)  # getattr raises on a missing attribute
        assert tracer._patched
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in modules] == before


@pytest.mark.parametrize("name", ["simulate_cli", "fine_grid", "scan"])
def test_workload_builds_its_ops(bench, tmp_path, name):
    _, _, workloads, nf = bench
    ops = workloads.WORKLOADS[name](nf, 1, tmp_path)
    assert ops and all(callable(op.run) and callable(op.check) for op in ops)
    assert len({op.label for op in ops}) == len(ops)


def test_scan_check_ops_pass_their_output_checks(bench, tmp_path):
    _, _, workloads, nf = bench
    ops = [op for op in workloads.WORKLOADS["scan"](nf, 1, tmp_path) if op.label.startswith("check:")]
    assert len(ops) == len(workloads.ALL_KINDS)
    for op in ops:
        op.check(op.run())


def test_traced_run_keeps_the_bits_of_every_step(bench):
    """The traced run wraps each stepper in a one-argument step u -> u'.
    Runs through it (a local kind, gk with tau = 0, whose steady state is
    one such step, and the modal comparison) keep every bit of the
    untraced runs, and each of their steps is traced."""
    layers, spantrace, _, nf = bench
    pde, models = nf.pde1d, nf.models
    mat, grid = models.MaterialConstants(1.0, 1.0), pde.Grid1D(1.0, 30)
    mcv = pde.SimConfig(models.MCV(tau=0.7, kappa=2.0), mat, grid, 1e-3, 0.05, theta0=0.2, theta_ref=1.0)
    gk = pde.SimConfig(models.GKLinear(0.0, 0.03, models.CoefficientFn(1.0)), mat, grid, 1e-3, 0.05,
                       imposed_gradient=0.5)

    def bits():
        runs = [pde.simulate(mcv), pde.simulate(gk)]
        modal = pde.compare_modal_vs_pde(mcv, 2)
        return [modal.linf_rel.hex(), modal.l2_rel.hex()] + [
            a.tobytes() for r in runs for a in [r.times, *r.thetas, *r.fluxes, *r.audit.values()]]

    plain = bits()
    tracer = spantrace.Tracer()
    layers.install(tracer, nf)
    try:
        traced = bits()
    finally:
        tracer.restore()
    assert traced == plain
    assert sum(s[0] == "pde1d.step" for s in tracer.spans) == 50 + 1 + 50
