"""Workload generation: topologies, transaction streams, failure plans."""

from repro.workloads.failure_schedules import (
    CrashPoint,
    coordinator_crash_points,
    participant_crash_points,
)
from repro.workloads.generator import (
    WorkloadSpec,
    build_mdbs,
    generate_transactions,
    run_workload,
)
from repro.workloads.openloop import (
    OpenLoopSpec,
    generate_open_loop,
    offered_load_row,
    run_open_loop,
    run_rate_sweep,
    saturation_knee,
)
from repro.workloads.mixes import (
    MIXES,
    ProtocolMix,
    homogeneous,
    mixed_pra_prc,
    three_way,
)

__all__ = [
    "CrashPoint",
    "MIXES",
    "OpenLoopSpec",
    "ProtocolMix",
    "WorkloadSpec",
    "build_mdbs",
    "coordinator_crash_points",
    "generate_open_loop",
    "generate_transactions",
    "homogeneous",
    "mixed_pra_prc",
    "offered_load_row",
    "participant_crash_points",
    "run_open_loop",
    "run_rate_sweep",
    "run_workload",
    "saturation_knee",
    "three_way",
]
