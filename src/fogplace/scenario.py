"""Seeded random instance generation for the replication scenarios.

Randomness discipline: every application index owns an independent child
stream of the instance seed (numpy PCG64 seeded via ``SeedSequence([seed,
domain, index])``), and draws inside a stream happen in a fixed documented
order.  Consequences that the experiment harness relies on:

  * instances are byte-identical for identical (config, seed), on any
    platform;
  * the app list for ``n_apps = k`` is a prefix of the list for ``k + 1``;
  * the QoS threshold is derived from a raw uniform variate scaled into
    (min_qos, max_qos), so tightening max_qos only tightens each app's
    threshold;
  * the security requirement uses one raw variate per app, and the
    high-security fraction ``alpha`` only forces a prefix of apps to HIGH,
    so raising alpha never lowers any app's requirement.

Per-app draw order: (proc, mem, stor) for each module in chain order, then
input traffic, the internal edge traffics, output traffic, the QoS variate,
and the security variate: 4m + 3 variates for m modules.  A randomly placed
fog node draws x, then y.

Each stream is read once, as one block of uniforms in [0, 1)
(``Generator.random(n)``), by ``_draws``.  A variate ``u`` maps onto a
range (lo, hi) as ``lo + (hi - lo) * u``, numpy's own formula for
``Generator.uniform``, so the values are bit-identical to drawing them one
scalar call at a time.  ``_draws`` is memoized in a bounded LRU cache of
compact ``array('d')`` blocks (1024 streams, well under 1 MB), because a
sweep redraws the same (seed, app) stream in many cells.

numpy is imported inside ``_draws``, the one function that reads the
random streams, so importing the package, reading instances and solving
never load it.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Any, Mapping

from .instance_io import require_keys
from .model import (
    Application,
    AppModule,
    FarmGeometry,
    Instance,
    LinkTable,
    ResourceNode,
    SecurityLevel,
    Tier,
)
from .security import rate_infrastructure

_STREAM_INFRA = 0
_STREAM_APP = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """Generation parameters; defaults reproduce the desk-scale study setup.

    Ranges are (low, high) pairs sampled uniformly.  Traffic and memory are
    Gb, processing demand is MI, delays are seconds, costs are currency
    units per second or per Gb.  ``alpha`` forces the first
    ``ceil(alpha * n_apps)`` apps to a HIGH security requirement and draws
    the rest from {LOW, MEDIUM}; when None, requirements are uniform over
    all three levels.  ``fog_positions`` None means positions are drawn
    uniformly inside the farm with ``default_tx_range``.
    """

    n_fog: int = 2
    n_apps: int = 7
    modules_per_app: int = 3
    proc_req_range: tuple[float, float] = (0.100, 2.100)
    mem_req_range: tuple[float, float] = (0.010, 0.040)
    stor_req_range: tuple[float, float] = (0.256, 0.768)
    input_traffic_range: tuple[float, float] = (0.001, 0.004)
    inter_traffic_range: tuple[float, float] = (0.1, 1.0)
    output_traffic_range: tuple[float, float] = (0.0005, 0.001)
    min_qos: float = 0.5
    max_qos: float = 1.5
    alpha: float | None = None
    cloud_proc_cost: float = 0.03
    fog_proc_cost: float = 0.02
    cloud_stor_cost: float = 0.001
    fog_stor_cost: float = 0.02
    cloud_comm_cost: float = 3.0
    fog_comm_cost: float = 5.0
    cloud_fog_delay: float = 0.5
    fog_fog_delay: float = 0.01
    cloud_access_delay: float = 0.5
    fog_access_delay: float = 0.01
    cloud_proc_capacity: float = 1e6
    cloud_mem_capacity: float = 1e6
    cloud_stor_capacity: float = 1e6
    fog_proc_capacity: float = 22.0
    fog_mem_capacity: float = 0.45
    fog_stor_capacity: float = 8.0
    farm_width: float = 1000.0
    farm_height: float = 1000.0
    fog_positions: tuple[tuple[float, float], ...] | None = ((50.0, 500.0), (500.0, 500.0))
    tx_ranges: tuple[float, ...] | None = (100.0, 100.0)
    default_tx_range: float = 100.0
    proc_speed_ref: float = 15.0  # MIPS used to derive execution delays
    exec_delay_overrides: tuple[tuple[int, int, float], ...] = ()
    seed: int = 0


_RANGE_FIELDS = (
    "proc_req_range", "mem_req_range", "stor_req_range",
    "input_traffic_range", "inter_traffic_range", "output_traffic_range",
)
_CONFIG_FIELDS = {f.name for f in ScenarioConfig.__dataclass_fields__.values()}  # type: ignore[attr-defined]
# Every cost, delay and capacity: node and link quantities, so finite and >= 0.
_PRICE_FIELDS = tuple(name for name in ScenarioConfig.__dataclass_fields__  # type: ignore[attr-defined]
                      if name.endswith(("_cost", "_delay", "_capacity")))


def _require(ok: bool, name: str, rule: str, value: Any) -> None:
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def validate_config(cfg: ScenarioConfig) -> None:
    """Raise ValueError, naming the field, on an unusable configuration."""
    if cfg.n_fog < 0 or cfg.n_apps < 0 or cfg.modules_per_app < 1:
        raise ValueError("counts must be positive (n_fog/n_apps >= 0, modules_per_app >= 1)")
    for name in _RANGE_FIELDS:
        lo, hi = getattr(cfg, name)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0 or lo > hi:
            raise ValueError(f"{name} must satisfy 0 <= low <= high, got ({lo}, {hi})")
    if not (0 < cfg.min_qos <= cfg.max_qos and math.isfinite(cfg.max_qos)):
        raise ValueError(f"need 0 < min_qos <= max_qos < inf, got ({cfg.min_qos}, {cfg.max_qos})")
    if cfg.alpha is not None and not 0.0 <= cfg.alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {cfg.alpha}")
    for name in _PRICE_FIELDS:
        value = getattr(cfg, name)
        _require(math.isfinite(value) and value >= 0, name, "finite and >= 0", value)
    for name in ("farm_width", "farm_height", "proc_speed_ref", "default_tx_range"):
        value = getattr(cfg, name)
        _require(math.isfinite(value) and value > 0, name, "finite and > 0", value)
    if cfg.fog_positions is not None and len(cfg.fog_positions) != cfg.n_fog:
        raise ValueError(f"fog_positions has {len(cfg.fog_positions)} entries for n_fog={cfg.n_fog}")
    if cfg.tx_ranges is not None:
        if len(cfg.tx_ranges) != cfg.n_fog:
            raise ValueError(f"tx_ranges has {len(cfg.tx_ranges)} entries for n_fog={cfg.n_fog}")
        for f, value in enumerate(cfg.tx_ranges):
            _require(math.isfinite(value) and value > 0, f"tx_ranges[{f}]", "finite and > 0", value)
    # An app index may exceed n_apps: a sweep varies n_apps over one base
    # config, and the override applies whenever that app is drawn.
    for k, (i, j, value) in enumerate(cfg.exec_delay_overrides):
        _require(i >= 0 and 0 <= j < cfg.modules_per_app, f"exec_delay_overrides[{k}]",
                 f"[app >= 0, module in 0..{cfg.modules_per_app - 1}, delay]", [i, j, value])
        _require(math.isfinite(value) and value >= 0, f"exec_delay_overrides[{k}] delay",
                 "finite and >= 0", value)
    if cfg.seed < 0:
        raise ValueError("seed must be a nonnegative integer")


@functools.lru_cache(maxsize=1024)
def _draws(seed: int, domain: int, index: int, n: int) -> array:
    """The first ``n`` uniforms in [0, 1) of stream (seed, domain, index).

    The block is shared by every caller that asks for it: read it, never
    write to it.
    """
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, domain, index])))
    return array("d", rng.random(n).tobytes())


def _uniform(bounds: tuple[float, float], u: float) -> float:
    """``Generator.uniform(lo, hi)`` given its variate ``u``, bit for bit."""
    lo, hi = bounds
    return lo + (hi - lo) * u


def _build_nodes(cfg: ScenarioConfig) -> list[ResourceNode]:
    nodes = [ResourceNode(
        id="cloud",
        tier=Tier.CLOUD,
        proc_capacity=cfg.cloud_proc_capacity,
        mem_capacity=cfg.cloud_mem_capacity,
        stor_capacity=cfg.cloud_stor_capacity,
        proc_cost=cfg.cloud_proc_cost,
        stor_cost=cfg.cloud_stor_cost,
        sensor_bw_cost=cfg.cloud_comm_cost,
        user_bw_cost=cfg.cloud_comm_cost,
        sensor_delay=cfg.cloud_access_delay,
        user_delay=cfg.cloud_access_delay,
    )]
    for f in range(cfg.n_fog):
        if cfg.fog_positions is not None:
            position = cfg.fog_positions[f]
        else:
            x, y = _draws(cfg.seed, _STREAM_INFRA, f, 2)
            position = (_uniform((0.0, cfg.farm_width), x), _uniform((0.0, cfg.farm_height), y))
        tx = cfg.tx_ranges[f] if cfg.tx_ranges is not None else cfg.default_tx_range
        nodes.append(ResourceNode(
            id=f"fog{f + 1}",
            tier=Tier.FOG,
            proc_capacity=cfg.fog_proc_capacity,
            mem_capacity=cfg.fog_mem_capacity,
            stor_capacity=cfg.fog_stor_capacity,
            proc_cost=cfg.fog_proc_cost,
            stor_cost=cfg.fog_stor_cost,
            sensor_bw_cost=cfg.fog_comm_cost,
            user_bw_cost=cfg.fog_comm_cost,
            sensor_delay=cfg.fog_access_delay,
            user_delay=cfg.fog_access_delay,
            position=position,
            tx_range=tx,
        ))
    return nodes


def _build_links(cfg: ScenarioConfig, nodes: list[ResourceNode]) -> LinkTable:
    delay: dict[tuple[str, str], float] = {}
    bw: dict[tuple[str, str], float] = {}
    for u in nodes:
        for v in nodes:
            if u.id == v.id:
                delay[(u.id, v.id)] = 0.0
                bw[(u.id, v.id)] = 0.0
            elif u.tier is Tier.FOG and v.tier is Tier.FOG:
                delay[(u.id, v.id)] = cfg.fog_fog_delay
                bw[(u.id, v.id)] = cfg.fog_comm_cost
            else:
                # Any link touching the cloud is priced at the cloud rate,
                # consistent with sensor/user attach pricing by node tier.
                delay[(u.id, v.id)] = cfg.cloud_fog_delay
                bw[(u.id, v.id)] = cfg.cloud_comm_cost
    return LinkTable(delay=delay, bw_cost=bw)


def _draw_app(cfg: ScenarioConfig, app_idx: int, forced_high: bool) -> Application:
    u = iter(_draws(cfg.seed, _STREAM_APP, app_idx, 4 * cfg.modules_per_app + 3))
    overrides = {(i, j): v for i, j, v in cfg.exec_delay_overrides}
    modules = []
    for j in range(cfg.modules_per_app):
        proc = _uniform(cfg.proc_req_range, next(u))
        mem = _uniform(cfg.mem_req_range, next(u))
        stor = _uniform(cfg.stor_req_range, next(u))
        exec_delay = overrides.get((app_idx, j), proc / cfg.proc_speed_ref)
        modules.append(AppModule(proc_req=proc, mem_req=mem, stor_req=stor, exec_delay=exec_delay))
    input_traffic = _uniform(cfg.input_traffic_range, next(u))
    inter = tuple(_uniform(cfg.inter_traffic_range, next(u)) for _ in range(cfg.modules_per_app - 1))
    output_traffic = _uniform(cfg.output_traffic_range, next(u))
    u_qos = next(u)
    u_sec = next(u)
    qos = cfg.min_qos + u_qos * (cfg.max_qos - cfg.min_qos)
    if forced_high:
        sec = SecurityLevel.HIGH
    elif cfg.alpha is None:
        sec = SecurityLevel(1 + min(2, int(u_sec * 3)))
    else:
        sec = SecurityLevel(1 + min(1, int(u_sec * 2)))
    return Application(
        id=f"app{app_idx + 1}",
        modules=tuple(modules),
        input_traffic=input_traffic,
        inter_traffic=inter,
        output_traffic=output_traffic,
        qos_threshold=qos,
        security_req=sec,
    )


def generate_instance(cfg: ScenarioConfig) -> Instance:
    """Generate and rate a random instance; deterministic in (cfg, seed)."""
    validate_config(cfg)
    nodes = _build_nodes(cfg)
    links = _build_links(cfg, nodes)
    forced = 0 if cfg.alpha is None else math.ceil(cfg.alpha * cfg.n_apps)
    apps = tuple(_draw_app(cfg, i, forced_high=(i < forced)) for i in range(cfg.n_apps))
    inst = Instance(
        nodes=tuple(nodes),
        links=links,
        apps=apps,
        farm=FarmGeometry(width=cfg.farm_width, height=cfg.farm_height),
    )
    return rate_infrastructure(inst)


def config_from_dict(d: Mapping[str, Any]) -> ScenarioConfig:
    """Build a config from a (possibly partial) mapping.

    Raises ValueError, naming the field, on an unknown key or a value of
    the wrong shape or type.
    """
    require_keys(d, set(), _CONFIG_FIELDS, "scenario config")
    kwargs: dict[str, Any] = {}
    for name, value in d.items():
        try:
            if name in _RANGE_FIELDS:
                kwargs[name] = (float(value[0]), float(value[1]))
            elif name == "fog_positions":
                kwargs[name] = None if value is None else tuple((float(p[0]), float(p[1])) for p in value)
            elif name == "tx_ranges":
                kwargs[name] = None if value is None else tuple(float(x) for x in value)
            elif name == "exec_delay_overrides":
                kwargs[name] = tuple((int(o[0]), int(o[1]), float(o[2])) for o in value)
            elif name == "alpha":
                kwargs[name] = None if value is None else float(value)
            elif name in ("n_fog", "n_apps", "modules_per_app", "seed"):
                kwargs[name] = int(value)
            else:
                kwargs[name] = float(value)
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ValueError(f"scenario config: bad {name} {value!r} ({exc})") from None
    cfg = ScenarioConfig(**kwargs)
    validate_config(cfg)
    return cfg
