"""Live runtime: the unmodified protocol engines over real sockets.

The simulator (``repro.sim``) and this package host the *same* engine,
TM, log and site code through the same four-member seam (``now`` /
``record`` / ``schedule`` / ``set_timer`` plus ``network.send``):

* :class:`~repro.rt.runtime.LiveRuntime` — the simulator facade over an
  asyncio event loop (wall-clock virtual time, timers, shared trace);
* :mod:`~repro.rt.codec` — length-prefixed JSON wire framing for
  :class:`~repro.net.message.Message`;
* :class:`~repro.rt.transport.LiveTransport` — the network facade over
  TCP connections with the simulator's omission-failure semantics;
* :class:`~repro.rt.host.SiteHost` — one site as a live service with a
  file-backed log and store, supporting kill/restart recovery;
* :class:`~repro.rt.cluster.LiveCluster` — a whole MDBS over sockets,
  conformant with the simulated one (see ``tests/rt/``);
* :mod:`~repro.rt.proc` — the same cluster with every site as its own
  supervised OS process (``SIGKILL`` crash injection, recovery-first
  boot, heartbeat monitoring); both are
  :class:`~repro.rt.cluster.ClusterDriver` subclasses.
"""

from repro.rt.codec import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    decode_body,
    encode_frame,
    encode_message,
)
from repro.rt.cluster import (
    LIVE_TIMEOUTS,
    ClusterDriver,
    LiveCluster,
    run_workload,
)
from repro.rt.host import SiteConfig, SiteHost, build_site
from repro.rt.proc import (
    KillSpec,
    ProcessCluster,
    ProcessControlError,
    SiteProcess,
    SiteProcessConfig,
)
from repro.rt.runtime import LiveRuntime, LiveTimer
from repro.rt.store import FileBackedStore
from repro.rt.transport import LiveTransport

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "decode_body",
    "encode_frame",
    "encode_message",
    "LIVE_TIMEOUTS",
    "ClusterDriver",
    "LiveCluster",
    "run_workload",
    "SiteConfig",
    "SiteHost",
    "build_site",
    "KillSpec",
    "ProcessCluster",
    "ProcessControlError",
    "SiteProcess",
    "SiteProcessConfig",
    "LiveRuntime",
    "LiveTimer",
    "FileBackedStore",
    "LiveTransport",
]
