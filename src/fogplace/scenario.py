"""Seeded random instance generation for the replication scenarios.

Randomness discipline: every application index owns an independent child
stream of the instance seed, and draws inside a stream happen in a fixed
documented order.  Consequences that the experiment harness relies on:

  * instances are byte-identical for identical (config, seed), on any
    platform and any supported Python;
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

Each stream is read once, as one block of uniforms in [0, 1), by
``_draws``.  The stream of (seed, domain, index) is numpy's
``Generator(PCG64(SeedSequence([seed, domain, index]))).random(n)``, bit
for bit, computed here in pure Python from the published algorithms:

  * ``SeedSequence`` is O'Neill's ``seed_seq_fe`` ("Developing a seed_seq
    alternative", 2015): the seed words are hashed and mixed into a pool
    of four 32-bit words, which ``generate_state`` hashes out into four
    64-bit words;
  * those words seed PCG64, a 128-bit LCG with XSL-RR output (O'Neill,
    "PCG: A family of simple fast space-efficient statistically good
    algorithms for random number generation", 2014);
  * a uniform is the top 53 bits of one 64-bit output times 2**-53.

A variate ``u`` maps onto a range (lo, hi) as ``lo + (hi - lo) * u``,
numpy's own formula for ``Generator.uniform``, so the values are the ones
numpy's scalar calls would draw.  numpy is the reference in the tests, not
a dependency.  ``_draws`` is memoized in a bounded LRU cache of compact
``array('d')`` blocks (1024 streams, well under 1 MB), because a sweep
redraws the same (seed, app) stream in many cells.
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
    first_overflow,
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
    _check_bounds(cfg)


def _check_bounds(cfg: ScenarioConfig) -> None:
    """``validate_instance``'s cost and delay bounds for any instance drawn
    from cfg: every range at its maximum, every price at the dearer tier's."""
    def dearer(kind: str) -> tuple[str, float]:  # e.g. kind "fog_delay": cloud_fog_delay or fog_fog_delay
        cloud, fog = getattr(cfg, "cloud_" + kind), getattr(cfg, "fog_" + kind)
        return ("cloud_" + kind, cloud) if cloud >= fog else ("fog_" + kind, fog)
    m, apps = cfg.modules_per_app, cfg.n_apps
    exec_name, exec_max = "proc_speed_ref", cfg.proc_req_range[1] / cfg.proc_speed_ref
    for _, _, v in cfg.exec_delay_overrides:
        if v > exec_max:
            exec_name, exec_max = "exec_delay_overrides", v
    # Delay first: an infinite execution delay would make the cost bound NaN.
    field = first_overflow(((exec_name, exec_max, m), (*dearer("access_delay"), 2),
                            (*dearer("fog_delay"), m - 1)))
    if field:
        raise ValueError(f"{field}: an app's delay can overflow to inf")
    field = first_overflow((
        (*dearer("proc_cost"), apps * m * exec_max), (*dearer("stor_cost"), apps * m * cfg.stor_req_range[1]),
        (*dearer("comm_cost"), apps * cfg.input_traffic_range[1]),
        (*dearer("comm_cost"), apps * cfg.output_traffic_range[1]),
        (*dearer("comm_cost"), apps * (m - 1) * cfg.inter_traffic_range[1]),
    ))
    if field:
        raise ValueError(f"{field}: the cost of a placement can overflow to inf")


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def _hash_consts(first: int, mult: int, count: int) -> tuple[int, ...]:
    """seed_seq_fe's running hash constant: ``first`` and its next ``count``
    multiples by ``mult``, mod 2**32.  Hash k XORs with entry k and
    multiplies by entry k + 1."""
    out = [first]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


_MIX_MULT = 0x931E8875
_MIX_HASH = _hash_consts(0x43B0D7E5, _MIX_MULT, 16)  # the 16 hashes mixing 4 words or fewer
_STATE_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # generate_state's 8 hashes
(_S0, _S1, _S2, _S3, _S4, _S5, _S6, _S7, _S8) = _STATE_HASH


def _hashmix(value: int, k: int) -> int:
    """The k-th hash of seed_seq_fe's entropy mixing."""
    value = (value ^ _MIX_HASH[k]) * _MIX_HASH[k + 1] & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


def _words(value: int) -> list[int]:
    """A nonnegative int as little-endian 32-bit words; 0 is one word."""
    out = [value & _MASK32]
    while value := value >> 32:
        out.append(value & _MASK32)
    return out


def _mix_entropy(words: list[int]) -> tuple[int, ...]:
    """seed_seq_fe's pool of four words for entropy ``words``, any length."""
    const = _MIX_HASH[0]

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MIX_MULT & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return tuple(pool)


@functools.lru_cache(maxsize=256)
def _pool_head(seed: int, domain: int) -> tuple[int, int, int, int, int]:
    """``_mix_entropy([seed, domain, index])`` up to where index is read,
    for one-word values: pool words 0, 1, 3 and the two hashes of words 0
    and 1 that mix into word 2.  Every stream of one instance shares it."""
    m0, m1, m3 = _hashmix(seed, 0), _hashmix(domain, 1), _hashmix(0, 3)
    m1, from_m0, m3 = _mix(m1, _hashmix(m0, 4)), _hashmix(m0, 5), _mix(m3, _hashmix(m0, 6))
    m0, from_m1, m3 = _mix(m0, _hashmix(m1, 7)), _hashmix(m1, 8), _mix(m3, _hashmix(m1, 9))
    return m0, m1, m3, from_m0, from_m1


def _pool(seed: int, domain: int, index: int) -> tuple[int, ...]:
    """seed_seq_fe's pool for entropy [seed, domain, index]; memoized per
    (seed, domain) when all three are one 32-bit word each."""
    if seed <= _MASK32 and domain <= _MASK32 and index <= _MASK32:
        m0, m1, m3, from_m0, from_m1 = _pool_head(seed, domain)
        m2 = _mix(_mix(_hashmix(index, 2), from_m0), from_m1)
        m0, m1, m3 = _mix(m0, _hashmix(m2, 10)), _mix(m1, _hashmix(m2, 11)), _mix(m3, _hashmix(m2, 12))
        return _mix(m0, _hashmix(m3, 13)), _mix(m1, _hashmix(m3, 14)), _mix(m2, _hashmix(m3, 15)), m3
    return _mix_entropy(_words(seed) + _words(domain) + _words(index))


@functools.lru_cache(maxsize=1024)
def _draws(seed: int, domain: int, index: int, n: int) -> array:
    """The first ``n`` uniforms in [0, 1) of stream (seed, domain, index).

    The block is shared by every caller that asks for it: read it, never
    write to it.
    """
    m0, m1, m2, m3 = _pool(seed, domain, index)
    # generate_state(4, uint64): eight hashes of the pool words, cycled, paired
    # little-endian into four 64-bit words.  PCG64 takes words 0 and 1 as
    # the 128-bit state (high, low), and words 2 and 3, shifted left and
    # made odd, as the increment.
    w0 = (m0 ^ _S0) * _S1 & _MASK32
    w1 = (m1 ^ _S1) * _S2 & _MASK32
    w2 = (m2 ^ _S2) * _S3 & _MASK32
    w3 = (m3 ^ _S3) * _S4 & _MASK32
    w4 = (m0 ^ _S4) * _S5 & _MASK32
    w5 = (m1 ^ _S5) * _S6 & _MASK32
    w6 = (m2 ^ _S6) * _S7 & _MASK32
    w7 = (m3 ^ _S7) * _S8 & _MASK32
    state = (w1 ^ w1 >> 16) << 96 | (w0 ^ w0 >> 16) << 64 | (w3 ^ w3 >> 16) << 32 | w2 ^ w2 >> 16
    inc = ((w5 ^ w5 >> 16) << 97 | (w4 ^ w4 >> 16) << 65 | (w7 ^ w7 >> 16) << 33
           | (w6 ^ w6 >> 16) << 1 | 1) & _MASK128
    # Seeding steps the LCG from 0, adds the state and steps again.  Each
    # output steps, XORs the state's halves and rotates right by its top 6
    # bits: the doubled word shifted by (rotation + 11) is the top 53 bits.
    s = ((state + inc) * _PCG64_MULT + inc) & _MASK128
    out = array("d", bytes(8 * n))
    for i in range(n):
        s = (s * _PCG64_MULT + inc) & _MASK128
        out[i] = (((s >> 64 ^ s) & _MASK64) * 0x10000000000000001 >> (s >> 122) + 11
                  & 0x1FFFFFFFFFFFFF) * 2.0 ** -53
    return out


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
    # Any link touching the cloud is priced at the cloud rate, consistent
    # with sensor/user attach pricing by node tier.
    def matrix(fog_fog: float, cloud: float) -> tuple[tuple[float, ...], ...]:
        return tuple([tuple([0.0 if u is v else fog_fog if u.tier is v.tier is Tier.FOG else cloud
                             for v in nodes]) for u in nodes])
    return LinkTable(delay=matrix(cfg.fog_fog_delay, cfg.cloud_fog_delay),
                     bw_cost=matrix(cfg.fog_comm_cost, cfg.cloud_comm_cost))


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
    return _generate(cfg)


def _generate(cfg: ScenarioConfig) -> Instance:
    """``generate_instance`` for a config that has passed ``validate_config``."""
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
