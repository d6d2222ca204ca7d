"""Span bookkeeping of the traced run.

Run with ``python -m pytest perfbench``.
"""
import json
import types
from pathlib import Path

import pytest

import calibrate
import layers
from spantrace import Tracer, covered, self_times


def span(name, start, end, parent=-1, count=None):
    return [name, start, end, parent, 0, count]


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        span("op", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: the union is [1, 6]
        span("a.inner", 2.0, 3.5, parent=1),  # grandchild: not a child of op
        span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
        span("d", 7.0, 8.0, parent=4),  # child of c lying outside c
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1.5, 3, 1.5, 3, 1])


def test_covered_merges_nested_and_disjoint_intervals():
    assert covered([(1, 5), (2, 3), (6, 7)], 0, 10) == pytest.approx(5)
    assert covered([(1, 5)], 2, 4) == pytest.approx(2)
    assert covered([], 0, 1) == 0
    assert covered([(3, 4)], 5, 6) == 0


def test_wrapped_calls_nest_count_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: [x] * x
    mod.outer = lambda x: mod.inner(x)
    originals = (mod.inner, mod.outer)

    tracer = Tracer()
    tracer.wrap(mod, "inner", "layer.inner", count=lambda args, out: len(out))
    tracer.wrap(mod, "outer", "layer.outer")
    tracer.op_id = 7
    tracer.call("op", mod.outer, 3)
    tracer.restore()

    names = [s[0] for s in tracer.spans]
    assert names == ["op", "layer.outer", "layer.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert {s[4] for s in tracer.spans} == {7}
    assert tracer.spans[2][5] == 3
    assert (mod.inner, mod.outer) == originals


def test_span_ends_when_the_call_raises():
    mod = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(mod, "fail", "layer.fail")
    with pytest.raises(ZeroDivisionError):
        mod.fail()
    tracer.restore()
    assert tracer.spans[0][2] is not None
    assert tracer.call("op", lambda: 5) == 5
    assert tracer.spans[1][3] == -1


def test_derive_counts_self_time_per_layer():
    spans = [
        span("op", 0.0, 1.0),
        span("cli.main", 0.0, 1.0, parent=0),
        span("energetics.sample_state", 0.1, 0.2, parent=1),
        span("energetics.sample_state", 0.3, 0.4, parent=1),
        span("modal.mode_reports", 0.5, 0.9, parent=1, count=4),
        span("tensors.solve_poly", 0.6, 0.7, parent=4),
    ]
    m = layers.derive(spans, self_times(spans), {0: 1.0}, node_steps=0, rows=10, nbytes=100)
    assert m["cli.self_ms_per_op"] == pytest.approx(400.0)
    assert m["cli.us_per_row"] == pytest.approx(40000.0)
    assert m["energetics.states"] == 2
    assert m["energetics.us_per_state"] == pytest.approx(1e5)
    assert m["modal.modes"] == 4
    assert m["modal.us_per_mode"] == pytest.approx(1e5)
    assert m["tensors.solve_poly_calls"] == 1
    assert m["pde1d.spans_per_op"] == 0
    assert m["pde1d.solve_us_per_step"] == 0


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = layers.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    assert layers.tail([3, 1, 2]) == (3, 100.0, 3)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in layers.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in layers.PER_LAYER]


def test_scale_divides_by_the_median_of_nearby_kernel_times():
    ref = calibrate.REF_S
    kernel = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert calibrate.scale([1.0] * 5, kernel) == pytest.approx([1.0, 1.0, 2 / 3, 0.5, 0.5])
    # one outlier among the kernel times near an op moves nothing
    assert calibrate.scale([1.0], [ref, ref, 9 * ref]) == pytest.approx([1.0])
