"""Shared hand-built fixtures.

``tiny_instance`` is the 3-node / 1-app workhorse: a cloud priced per the
replication cost table and two fog nodes, one interior (rated high) and one
near the boundary (rated low).  The app's numbers are chosen so objective
terms are hand-checkable: three modules with execution delay 0.1 s and
storage 0.5 Gb each, 0.002 Gb sensor input and 0.001 Gb user output.
"""

from __future__ import annotations

import pytest

from fogplace.model import (
    Application,
    AppModule,
    FarmGeometry,
    Instance,
    LinkTable,
    ResourceNode,
    SecurityLevel,
    Tier,
)
from fogplace.scenario import ScenarioConfig, generate_instance
from fogplace.security import rate_infrastructure

CLOUD_KW = dict(
    tier=Tier.CLOUD,
    proc_capacity=1e6, mem_capacity=1e6, stor_capacity=1e6,
    proc_cost=0.03, stor_cost=0.001,
    sensor_bw_cost=3.0, user_bw_cost=3.0,
    sensor_delay=0.5, user_delay=0.5,
)

FOG_KW = dict(
    tier=Tier.FOG,
    proc_capacity=50.0, mem_capacity=5.0, stor_capacity=50.0,
    proc_cost=0.02, stor_cost=0.02,
    sensor_bw_cost=5.0, user_bw_cost=5.0,
    sensor_delay=0.01, user_delay=0.01,
    tx_range=100.0,
)


def make_cloud(node_id: str = "cloud", **over) -> ResourceNode:
    return ResourceNode(id=node_id, **{**CLOUD_KW, **over})


def make_fog(node_id: str, position: tuple[float, float], **over) -> ResourceNode:
    return ResourceNode(id=node_id, position=position, **{**FOG_KW, **over})


def make_links(nodes, cloud_fog_delay=0.5, fog_fog_delay=0.01,
               cloud_bw=3.0, fog_bw=5.0) -> LinkTable:
    def matrix(fog_fog, cloud):
        return tuple(tuple(0.0 if u is v else fog_fog if u.tier is v.tier is Tier.FOG else cloud
                           for v in nodes) for u in nodes)
    return LinkTable(delay=matrix(fog_fog_delay, cloud_fog_delay), bw_cost=matrix(fog_bw, cloud_bw))


def make_app(app_id: str = "a1", n: int = 3, qos: float = 5.0,
             security: SecurityLevel = SecurityLevel.LOW,
             exec_delay: float = 0.1, stor: float = 0.5,
             proc: float = 1.0, mem: float = 0.02,
             input_traffic: float = 0.002, output_traffic: float = 0.001,
             inter: tuple[float, ...] | None = None) -> Application:
    if inter is None:
        inter = tuple(0.3 for _ in range(n - 1))
    return Application(
        id=app_id,
        modules=tuple(AppModule(proc_req=proc, mem_req=mem, stor_req=stor,
                                exec_delay=exec_delay) for _ in range(n)),
        input_traffic=input_traffic,
        inter_traffic=inter,
        output_traffic=output_traffic,
        qos_threshold=qos,
        security_req=security,
    )


def make_instance(apps, nodes=None, farm: FarmGeometry | None = None, rated: bool = True) -> Instance:
    if farm is None:
        farm = FarmGeometry(1000.0, 1000.0)
    if nodes is None:
        nodes = (make_cloud(), make_fog("fog_lo", (50.0, 500.0)), make_fog("fog_hi", (500.0, 500.0)))
    inst = Instance(nodes=tuple(nodes), links=make_links(nodes), apps=tuple(apps), farm=farm)
    return rate_infrastructure(inst) if rated else inst


def packing_instance(key: str) -> Instance:
    """The benchmark's packing_search instance ``f<n_fog>_n<n_apps>_q<max_qos>_s<seed>``:
    random fog positions and ranges."""
    n_fog, n_apps, max_qos, seed = (part[1:] for part in key.split("_"))
    return generate_instance(ScenarioConfig(n_fog=int(n_fog), n_apps=int(n_apps), max_qos=float(max_qos),
                                            seed=int(seed), fog_positions=None, tx_ranges=None))


@pytest.fixture
def tiny_instance() -> Instance:
    return make_instance([make_app()])


@pytest.fixture
def two_app_instance() -> Instance:
    return make_instance([
        make_app("a1", qos=5.0, security=SecurityLevel.LOW, inter=(0.3, 0.2)),
        make_app("a2", qos=2.0, security=SecurityLevel.MEDIUM, exec_delay=0.2,
                 stor=0.4, input_traffic=0.003, output_traffic=0.0008, inter=(0.5, 0.1)),
    ])
