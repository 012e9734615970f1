"""Experiment harnesses — one module per reproduced figure/theorem/table.

See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
recorded results. Every experiment is callable as a plain function,
rendered by a ``repro`` subcommand (``repro all`` runs them in order)
and asserted under ``tests/experiments``.
"""

from repro.experiments.ablation import render_ablation, run_ablation
from repro.experiments.coordinator_log import render_cl, run_cl_experiment
from repro.experiments.costs import cost_table, run_cost_experiment
from repro.experiments.flows import (
    FIGURES,
    FlowCase,
    FlowResult,
    flow_lanes,
    render_flow,
    reproduce_figure,
)
from repro.experiments.iyv import render_iyv, run_iyv_experiment
from repro.experiments.latency import latency_sweep, render_latency
from repro.experiments.read_only import render_read_only, run_read_only_experiment
from repro.experiments.recovery import recovery_experiment, render_recovery
from repro.experiments.selection import render_selection, selection_ablation
from repro.experiments.throughput import (
    measure_throughput,
    render_throughput,
    run_throughput_experiment,
)
from repro.experiments.theorem1 import (
    Theorem1Result,
    render_theorem1,
    run_theorem1,
)
from repro.experiments.theorem2 import (
    Theorem2Result,
    render_theorem2,
    run_theorem2,
)
from repro.experiments.theorem3 import (
    Theorem3Result,
    render_theorem3,
    run_theorem3,
)

__all__ = [
    "FIGURES",
    "FlowCase",
    "FlowResult",
    "Theorem1Result",
    "Theorem2Result",
    "Theorem3Result",
    "cost_table",
    "render_cl",
    "run_cl_experiment",
    "render_ablation",
    "run_ablation",
    "measure_throughput",
    "render_throughput",
    "run_throughput_experiment",
    "flow_lanes",
    "latency_sweep",
    "render_iyv",
    "render_read_only",
    "run_iyv_experiment",
    "run_read_only_experiment",
    "recovery_experiment",
    "render_flow",
    "render_latency",
    "render_recovery",
    "render_selection",
    "render_theorem1",
    "render_theorem2",
    "render_theorem3",
    "reproduce_figure",
    "run_cost_experiment",
    "run_theorem1",
    "run_theorem2",
    "run_theorem3",
    "selection_ablation",
]
