"""Which public callables make up each layer, and the per-layer metrics.

Every per-layer value is per operation. A time is the median, over the
traced ops of a run, of the summed self time of the layer's spans in one op.
A count is the mean per traced op, so that counts from workloads whose ops
differ (random trees) still add up to the work done.
"""

from __future__ import annotations

import statistics
from typing import Any

from tracing import Tracer

# (span name, metric name) of every per-layer time, in report order.
TIME_METRICS = [
    ("cutset.solve", "cutset.solve_s"),
    ("cutset.brute_force", "cutset.brute_force_s"),
    ("cutset.witness", "cutset.witness_s"),
    ("sysmodel.parse", "sysmodel.parse_s"),
    ("sysmodel.groups", "sysmodel.groups_s"),
    ("stpa.structure", "stpa.structure_s"),
    ("stpa.ucas", "stpa.ucas_s"),
    ("faulttree.build", "faulttree.build_s"),
    ("faulttree.integrate", "faulttree.integrate_s"),
    ("faulttree.filter", "faulttree.filter_s"),
    ("faulttree.exchange", "faulttree.exchange_s"),
    ("ccf.inject", "ccf.inject_s"),
    ("ccf.catalog", "ccf.catalog_s"),
    ("report.worksheets", "report.worksheets_s"),
    ("report.render", "report.render_s"),
    ("cli.write", "cli.write_s"),
    ("cli.run_analysis", "cli.self_s"),
]
CUT_SET_ORDERS = ["o1", "o2", "o3", "o4", "o5plus"]
COUNT_METRICS = (
    ["cutset.solve_calls"]
    + [f"cutset.cut_sets.{o}" for o in CUT_SET_ORDERS]
    + ["stpa.uca_slots", "faulttree.gates", "faulttree.events",
       "ccf.injected", "ccf.skipped", "report.bytes"]
)
UNITS = {"report.bytes": "bytes"}


def per_layer_spec() -> list[dict[str, str]]:
    """The ``per_layer`` entries of BENCHMARK.json, derived from the tables above."""
    spec = [{"name": m, "unit": "s", "better": "lower"} for _, m in TIME_METRICS]
    spec += [{"name": "cli.import_s", "unit": "s", "better": "lower"},
             {"name": "trace.overhead_s", "unit": "s", "better": "lower"}]
    for name in COUNT_METRICS:
        better = "higher" if name.startswith("cutset.cut_sets.") else "lower"
        spec.append({"name": name, "unit": UNITS.get(name, "count"), "better": better})
    return spec


def _count_solve(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("cutset.solve_calls", 1)
    for order, n in getattr(result, "per_order", {}).items():
        tracer.add(f"cutset.cut_sets.{CUT_SET_ORDERS[min(order, 5) - 1]}", n)
    tree = args[0] if args else kwargs.get("ft")
    if tree is not None and tracer.first_solve_of(tree):
        tracer.add("faulttree.gates", len(tree.gates))
        tracer.add("faulttree.events", len(tree.events))


def _count_ucas(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("stpa.uca_slots", len(result))


def _count_injected(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tree = args[0] if args else kwargs.get("ft")
    tracer.add("ccf.injected", len(result.events) - len(tree.events))


def _count_bytes(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("report.bytes", len(result.encode("utf-8")))


def install_hooks(tracer: Tracer) -> None:
    """Register the layer boundaries of the resha pipeline with ``tracer``."""
    from resha import ccf, cli, cutset, report, stpa
    from resha.faulttree import FaultTree

    hooks = [
        (cli, "run_analysis", "cli.run_analysis", None),
        (cli, "write_artifacts", "cli.write", None),
        (cli, "parse_system_model", "sysmodel.parse", None),
        (cli, "derive_redundancy_groups", "sysmodel.groups", None),
        (stpa, "build_layered_control_structure", "stpa.structure", None),
        (stpa, "enumerate_ucas", "stpa.ucas", _count_ucas),
        (stpa, "select_ucas_for_top_event", "stpa.ucas", None),
        (stpa, "uca_table_to_csv", "stpa.ucas", None),
        (stpa, "uca_table_to_markdown", "stpa.ucas", None),
        (cli, "build_hardware_fault_tree", "faulttree.build", None),
        (cli, "integrate_ucas", "faulttree.integrate", None),
        (FaultTree, "fail_gate_ids", "faulttree.integrate", None),
        (cli, "filter_events", "faulttree.filter", None),
        (cli, "to_exchange_json", "faulttree.exchange", None),
        (ccf, "inject_ccfs", "ccf.inject", _count_injected),
        (ccf, "enumerate_ccf_catalog", "ccf.catalog", None),
        (ccf, "catalog_to_csv", "ccf.catalog", None),
        (cutset, "solve_minimal_cut_sets", "cutset.solve", _count_solve),
        (cutset, "brute_force_cut_sets", "cutset.brute_force", None),
        (cutset, "witness_check", "cutset.witness", None),
        (report, "generate_worksheets", "report.worksheets", None),
        (report, "render_analysis_report", "report.render", _count_bytes),
        (report, "spof_table_to_csv", "report.render", None),
    ]
    for owner, attr, span, count in hooks:
        tracer.hook(owner, attr, span, count)


def layer_metrics(tracer: Tracer, factors: dict[int, float]) -> dict[str, float]:
    """Per-op median of each per-layer time and per-op mean of each count.

    ``factors`` maps each correct op to its reference seconds per wall
    second; only the traced ones among them are used.
    """
    self_times = tracer.self_times()
    traced_ops = [op for op in factors if op in self_times]
    values: dict[str, float] = {}
    for span, metric in TIME_METRICS:
        values[metric] = statistics.median(
            self_times[op].get(span, 0.0) * factors[op] for op in traced_ops
        )
    for metric in COUNT_METRICS:
        values[metric] = statistics.fmean(tracer.counts[op].get(metric, 0) for op in traced_ops)
    return values
