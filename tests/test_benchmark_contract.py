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
