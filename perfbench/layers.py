"""Metric definitions, the module attributes the traced run wraps, and the
derivation of per-layer metrics from spans.

The layers are the program's modules: tensors, models, energetics,
consistency, modal, pde1d, config and cli. Each wrapped attribute is one the
program calls through at run time, so the span sits on a layer boundary.
A span's name is ``<layer>.<function>``.
"""
from __future__ import annotations

from typing import Dict, List, Sequence

from spantrace import COUNT, END, NAME, OP, PARENT, START, layer_of

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# (name, unit, better, what it should move: end-to-end metric on workload)
PER_LAYER = [
    ("node_steps_per_s", "1/s", "higher", "end to end on simulate_cli and fine_grid; 0 on scan"),
    ("sweep_points_per_s", "1/s", "higher", "end to end on scan; 0 elsewhere"),
    ("audit_states_per_s", "1/s", "higher", "end to end on scan; 0 elsewhere"),
    ("modal_linf_rel", "1", "lower", "end to end on fine_grid; 0 elsewhere"),
    ("failed_ops_ratio", "1", "lower", "end to end on every workload"),
    ("pde1d.solve_us_per_step", "us", "lower", "node_steps_per_s, op_p50_ms on fine_grid"),
    ("pde1d.factor_ms", "ms", "lower", "node_steps_per_s, op_p50_ms on fine_grid"),
    ("pde1d.loop_self_us_per_step", "us", "lower", "op_p50_ms, node_steps_per_s on simulate_cli"),
    ("pde1d.assemble_ms", "ms", "lower", "op_p50_ms, node_steps_per_s on simulate_cli"),
    ("pde1d.steps", "count/op", "lower", "op_p50_ms, node_steps_per_s on simulate_cli"),
    ("pde1d.us_per_node_step", "us", "lower", "op_p50_ms, node_steps_per_s on simulate_cli"),
    ("pde1d.gk_us_per_step", "us", "lower", "op_p50_ms on simulate_cli and fine_grid"),
    ("cli.self_ms_per_op", "ms", "lower", "wall_s on simulate_cli"),
    ("cli.rows_written", "count/op", "lower", "wall_s on simulate_cli"),
    ("cli.bytes_written", "B/op", "lower", "wall_s on simulate_cli"),
    ("cli.us_per_row", "us", "lower", "wall_s on simulate_cli"),
    ("energetics.states", "count/op", "lower", "audit_states_per_s on scan"),
    ("energetics.us_per_state", "us", "lower", "audit_states_per_s on scan"),
    ("modal.modes", "count/op", "lower", "sweep_points_per_s on scan"),
    ("modal.us_per_mode", "us", "lower", "sweep_points_per_s on scan"),
    ("tensors.solve_poly_calls", "count/op", "lower", "sweep_points_per_s on scan"),
    ("tensors.solve_poly_us", "us", "lower", "sweep_points_per_s on scan"),
    ("consistency.calls", "count/op", "lower", "sweep_points_per_s on scan"),
    ("consistency.us_per_call", "us", "lower", "sweep_points_per_s on scan"),
    ("config.parse_ms_per_op", "ms", "lower", "op_p50_ms on scan"),
    ("pde1d.spans_per_op", "count/op", "lower", "0 on scan"),
    ("cli.spans_per_op", "count/op", "lower", "0 on fine_grid"),
    ("energetics.spans_per_op", "count/op", "lower", "0 on fine_grid and simulate_cli"),
    ("trace_overhead_ratio", "1", "lower", "none: traced over untraced wall, minus 1"),
]


def _steps(args, traj) -> int:
    return int(traj.audit["t"].size)


def _traced_step(tracer, step):
    def traced_step(u):
        return tracer.call("pde1d.step", step, u)

    return traced_step


def install(tracer, nf) -> None:
    """Wrap the attributes the program calls through, layer by layer."""
    for attr in ("parse_config", "build_model", "build_spectral", "build_sim_config", "build_gk_sim_config"):
        tracer.wrap(nf.cli, attr, f"config.{attr}")
    tracer.wrap(nf.cli, "run_check", "consistency.run_check")
    tracer.wrap(nf.cli, "mode_reports", "modal.mode_reports", count=lambda a, r: len(r))
    for attr in ("sample_state", "dissipation_terms", "free_energy", "entropy_production"):
        tracer.wrap(nf.cli, attr, f"energetics.{attr}")
    for mod in (nf.cli, nf.pde1d):
        tracer.wrap(mod, "simulate", "pde1d.simulate", count=_steps)
        tracer.wrap(mod, "simulate_coupled_gk", "pde1d.simulate_coupled_gk", count=_steps)
    tracer.wrap(nf.pde1d, "compare_modal_vs_pde", "pde1d.compare_modal_vs_pde")
    tracer.wrap(nf.pde1d, "assemble_rhs", "pde1d.assemble_rhs")
    tracer.wrap(nf.pde1d, "trapezoid_stepper", "pde1d.trapezoid_stepper", wrap_result=_traced_step)
    for mod in (nf.modal, nf.pde1d):
        tracer.wrap(mod, "solve_poly", "tensors.solve_poly")
    tracer.wrap(nf.cli, "main", "cli.main")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(
    spans: Sequence[list],
    selfs: Sequence[float],
    speed: Dict[int, float],
    node_steps: float,
    rows: float,
    nbytes: float,
) -> Dict[str, float]:
    """Per-layer metrics of the traced ops. Counts are per op; times per
    unit of work, 0 where the layer did no work. ``speed`` maps each traced
    op's id to the factor that takes its times to the reference speed.
    ``node_steps``, ``rows`` and ``nbytes`` are the traced ops' totals from
    their generated inputs and checked outputs."""
    n_ops = len(speed)
    dur: Dict[str, List[float]] = {}
    self_sum: Dict[str, float] = {}
    count: Dict[str, float] = {}
    layer_spans: Dict[str, int] = {}
    layer_time: Dict[str, float] = {}
    for s, st in zip(spans, selfs):
        f = speed[s[OP]]
        name, d, st = s[NAME], (s[END] - s[START]) * f, st * f
        dur.setdefault(name, []).append(d)
        self_sum[name] = self_sum.get(name, 0.0) + st
        count[name] = count.get(name, 0.0) + (s[COUNT] or 0)
        layer = layer_of(name)
        layer_spans[layer] = layer_spans.get(layer, 0) + 1
        # time in a layer: its spans not nested in another span of that layer
        if s[PARENT] < 0 or layer_of(spans[s[PARENT]][NAME]) != layer:
            layer_time[layer] = layer_time.get(layer, 0.0) + d

    def total(name):
        return sum(dur.get(name, ()))

    def mean(name):
        return _ratio(total(name), len(dur.get(name, ())))

    def n(name):
        return len(dur.get(name, ()))

    sim, gk = "pde1d.simulate", "pde1d.simulate_coupled_gk"
    states = n("energetics.sample_state")
    modes = count.get("modal.mode_reports", 0.0)
    return {
        "pde1d.solve_us_per_step": mean("pde1d.step") * 1e6,
        "pde1d.factor_ms": mean("pde1d.trapezoid_stepper") * 1e3,
        "pde1d.loop_self_us_per_step": _ratio(self_sum.get(sim, 0.0), count.get(sim, 0.0)) * 1e6,
        "pde1d.assemble_ms": mean("pde1d.assemble_rhs") * 1e3,
        "pde1d.steps": _ratio(count.get(sim, 0.0) + count.get(gk, 0.0), n_ops),
        "pde1d.us_per_node_step": _ratio(total(sim) + total(gk), node_steps) * 1e6,
        "pde1d.gk_us_per_step": _ratio(self_sum.get(gk, 0.0), count.get(gk, 0.0)) * 1e6,
        "cli.self_ms_per_op": _ratio(self_sum.get("cli.main", 0.0), n_ops) * 1e3,
        "cli.rows_written": _ratio(rows, n_ops),
        "cli.bytes_written": _ratio(nbytes, n_ops),
        "cli.us_per_row": _ratio(self_sum.get("cli.main", 0.0), rows) * 1e6,
        "energetics.states": _ratio(states, n_ops),
        "energetics.us_per_state": _ratio(layer_time.get("energetics", 0.0), states) * 1e6,
        "modal.modes": _ratio(modes, n_ops),
        "modal.us_per_mode": _ratio(total("modal.mode_reports"), modes) * 1e6,
        "tensors.solve_poly_calls": _ratio(n("tensors.solve_poly"), n_ops),
        "tensors.solve_poly_us": mean("tensors.solve_poly") * 1e6,
        "consistency.calls": _ratio(n("consistency.run_check"), n_ops),
        "consistency.us_per_call": mean("consistency.run_check") * 1e6,
        "config.parse_ms_per_op": _ratio(layer_time.get("config", 0.0), n_ops) * 1e3,
        "pde1d.spans_per_op": _ratio(layer_spans.get("pde1d", 0), n_ops),
        "cli.spans_per_op": _ratio(layer_spans.get("cli", 0), n_ops),
        "energetics.spans_per_op": _ratio(layer_spans.get("energetics", 0), n_ops),
    }


def tail(values: Sequence[float]):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n
