"""Experiment harnesses — one module per reproduced figure/theorem/table.

See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
recorded results. Every measured experiment is a row of
:data:`EXPERIMENTS` (:class:`~repro.experiments.table.Experiment`): the
``repro`` subcommands, ``repro all`` and the ``experiment-*`` rows of
``repro bench`` are derived from the table, and ``tests/experiments``
asserts each row's claims. The flow figures (:mod:`.flows`) are traced
lanes, not measured tables, and stay outside it.
"""

from repro.experiments.ablation import ABLATION
from repro.experiments.coordinator_log import CL
from repro.experiments.costs import COSTS
from repro.experiments.flows import (
    FIGURES,
    FlowCase,
    FlowResult,
    flow_lanes,
    render_flow,
    reproduce_figure,
)
from repro.experiments.iyv import IYV
from repro.experiments.latency import LATENCY
from repro.experiments.read_only import READ_ONLY
from repro.experiments.recovery import RECOVERY
from repro.experiments.selection import SELECTION
from repro.experiments.table import Experiment, ExperimentResult
from repro.experiments.theorem1 import THEOREM1
from repro.experiments.theorem2 import THEOREM2
from repro.experiments.theorem3 import THEOREM3
from repro.experiments.throughput import THROUGHPUT

#: The measured experiments, in the order ``repro list`` names them and
#: ``repro all`` runs them.
EXPERIMENTS: tuple[Experiment, ...] = (
    THEOREM1,
    THEOREM2,
    THEOREM3,
    COSTS,
    LATENCY,
    SELECTION,
    READ_ONLY,
    IYV,
    ABLATION,
    THROUGHPUT,
    CL,
    RECOVERY,
)

__all__ = [
    "EXPERIMENTS",
    "FIGURES",
    "Experiment",
    "ExperimentResult",
    "FlowCase",
    "FlowResult",
    "flow_lanes",
    "render_flow",
    "reproduce_figure",
]
