"""The child's boot file: ``proc.json`` is a per-process envelope
around the :class:`~repro.rt.host.SiteConfig` an in-process host takes,
and it must come back from disk as exactly what the supervisor wrote.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import WorkloadError
from repro.protocols.base import RELAXED_TIMEOUTS
from repro.replication import ReplicationConfig
from repro.rt.host import SiteConfig
from repro.rt.proc import KillSpec, SiteProcessConfig

GROUP = ReplicationConfig.for_group(3)

SITES = {
    "plain": SiteConfig("site0_pra", "PrA", "/data/site0_pra"),
    "tuned": SiteConfig(
        "site1_prc",
        "PrC",
        "/data/site1_prc",
        timeouts=RELAXED_TIMEOUTS,
        fsync=False,
        codec="binary",
    ),
    "replicated-leader": SiteConfig(
        "tm", "PrN", "/data/tm", coordinator="dynamic", replication=GROUP
    ),
    "acceptor": SiteConfig(
        "acc1",
        "PrN",
        "/data/acc1",
        coordinator="dynamic",
        replication=GROUP,
        read_only_optimization=False,
    ),
}


def envelope(site: SiteConfig, **extra) -> SiteProcessConfig:
    return SiteProcessConfig(
        site=site,
        control_host="127.0.0.1",
        control_port=4000,
        directory={site.site_id: ["127.0.0.1", 4001], "tm": ["127.0.0.1", 4002]},
        site_protocols={site.site_id: site.protocol, "tm": "PrN"},
        coordinator_sites=["tm"],
        time_scale=0.005,
        wall_epoch=1727500000.25,
        seed=1303,
        **extra,
    )


CONFIGS = {name: envelope(site) for name, site in SITES.items()}
CONFIGS["kill-spec"] = envelope(
    SITES["plain"], kill=KillSpec(point="part-after-prepared", txn="t1")
)


@pytest.mark.parametrize("name", CONFIGS)
def test_boot_file_round_trips(name, tmp_path):
    config = CONFIGS[name]
    config.save(tmp_path / "proc.json")
    assert SiteProcessConfig.load(tmp_path / "proc.json") == config


@pytest.mark.parametrize("section", ("envelope", "site"))
def test_unknown_key_rejected(section, tmp_path):
    path = tmp_path / "proc.json"
    CONFIGS["plain"].save(path)
    data = json.loads(path.read_text())
    (data if section == "envelope" else data["site"])["control_codec"] = "binary"
    path.write_text(json.dumps(data))
    with pytest.raises(WorkloadError, match="cannot load site config"):
        SiteProcessConfig.load(path)
