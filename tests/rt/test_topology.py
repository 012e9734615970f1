"""The one topology value, and the three builders that materialise it.

``Topology.sites`` is the only derivation of "which sites exist, which
host a coordinator engine, which are acceptors"; the simulator, the
in-process cluster and the process-per-site cluster must lay out, accept
and reject exactly what it says.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cli import main
from repro.errors import WorkloadError
from repro.mdbs.topology import Topology
from repro.replication import ReplicationConfig
from repro.rt.cluster import LiveCluster
from repro.rt.proc import ProcessCluster
from repro.workloads.generator import build_mdbs
from repro.workloads.mixes import homogeneous, three_way

MIX_SITES = ["site0_prn", "site1_pra", "site2_prc"]
MIX_PROTOCOLS = ["PrN", "PrA", "PrC"]
ACCEPTORS = ["acc0", "acc1", "acc2"]

#: shape -> (site ids, participant protocols, coordinator hosts, acceptors)
LAYOUTS = {
    "single": (
        Topology.single(),
        MIX_SITES + ["tm"],
        MIX_PROTOCOLS + ["PrN"],
        ["tm"],
        [],
    ),
    "sharded": (Topology.sharded(), MIX_SITES, MIX_PROTOCOLS, MIX_SITES, []),
    "replicated": (
        Topology.replicated(3),
        MIX_SITES + ["tm"] + ACCEPTORS,
        MIX_PROTOCOLS + ["PrN"] * 4,
        ["tm"] + ACCEPTORS,
        ACCEPTORS,
    ),
}


@pytest.mark.parametrize("shape", LAYOUTS)
def test_sites_table(shape):
    topology, ids, protocols, coordinators, acceptors = LAYOUTS[shape]
    layout = topology.sites(three_way(3), "dynamic")
    assert [site.site_id for site in layout] == ids
    assert [site.protocol for site in layout] == protocols
    assert [s.site_id for s in layout if s.coordinator == "dynamic"] == coordinators
    assert all(s.coordinator is None for s in layout if s.site_id not in coordinators)
    # The acceptor group is attached to its members (leader + acceptors).
    grouped = [s.site_id for s in layout if s.replication is not None]
    assert grouped == (["tm"] + acceptors if acceptors else [])
    if acceptors:
        assert list(topology.replication.acceptors) == acceptors
        assert topology.replication.leader == "tm"


def _sim_sites(topology, tmp_path):
    return build_mdbs(three_way(3), "dynamic", topology=topology).sites


def _cluster_sites(cluster_cls):
    def materialise(topology, tmp_path):
        async def go():
            cluster = cluster_cls(
                three_way(3), tmp_path, topology=topology, fsync=False
            )
            await cluster.start()
            await cluster.shutdown()
            return cluster.sites

        return asyncio.run(go())

    return materialise


BUILDERS = {
    "sim": _sim_sites,
    "live": _cluster_sites(LiveCluster),
    "multiproc": _cluster_sites(ProcessCluster),
}


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("shape", LAYOUTS)
def test_builders_materialise_the_layout(shape, builder, tmp_path):
    topology, ids, protocols, _, _ = LAYOUTS[shape]
    sites = BUILDERS[builder](topology, tmp_path)
    assert sorted(sites) == sorted(ids)
    assert {s: sites[s].protocol for s in sites} == dict(zip(ids, protocols))


def test_flags_round_trip():
    for flags in ({}, {"sharded": True}, {"replicated": 3}):
        assert Topology.from_flags(**flags).flags() == flags


def test_sharded_and_replicated_is_the_one_rejected_combination():
    with pytest.raises(WorkloadError, match="mutually exclusive topologies"):
        Topology.from_flags(True, 3)


@pytest.mark.parametrize("command", ["explore", "live", "loadgen"])
def test_cli_refuses_sharded_with_replicated(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--sharded", "--replicated", "3"])
    assert exit_info.value.code != 0
    assert "not allowed with argument --sharded" in capsys.readouterr().err


def _build(builder, tmp_path, mix=three_way(3), **options):
    """Construct (never start) one of the three builders."""
    if builder == "sim":
        options.pop("codec", None)
        return build_mdbs(mix, "dynamic", **options)
    cluster_cls = LiveCluster if builder == "live" else ProcessCluster
    return cluster_cls(mix, tmp_path, **options)


@pytest.mark.parametrize("builder", BUILDERS)
class TestBuildersValidateAlike:
    @pytest.mark.parametrize("protocol", ["IYV", "CL"])
    def test_extension_protocols_rejected_under_replication(
        self, builder, protocol, tmp_path
    ):
        with pytest.raises(WorkloadError, match="extension protocols"):
            _build(
                builder,
                tmp_path,
                mix=homogeneous(protocol, 3),
                topology=Topology.replicated(3),
            )

    def test_replication_config_accepted(self, builder, tmp_path):
        group = ReplicationConfig(
            acceptors=("a", "b", "c"), failover_timeout=900.0
        )
        _build(builder, tmp_path, topology=Topology.replicated(group))

    def test_one_site_cannot_be_sharded(self, builder, tmp_path):
        with pytest.raises(WorkloadError, match="at least 2 sites"):
            _build(
                builder,
                tmp_path,
                mix=homogeneous("PrN", 1),
                topology=Topology.sharded(),
            )

    def test_unknown_codec_rejected_at_construction(self, builder, tmp_path):
        if builder == "sim":
            pytest.skip("the simulator has no wire codec")
        with pytest.raises(WorkloadError, match="unknown codec"):
            _build(builder, tmp_path, codec="msgpack")
