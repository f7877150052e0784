"""Domain model: infrastructure, applications, placements, and their invariants.

All types are immutable after construction; every operation here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from functools import cached_property
from typing import Iterable


class SecurityLevel(IntEnum):
    """Three-level protection scale; numeric values encode the ordering."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3

    @classmethod
    def from_name(cls, name: str) -> "SecurityLevel":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown security level {name!r}") from None

    @property
    def label(self) -> str:
        return self.name.lower()


class Tier(Enum):
    CLOUD = "cloud"
    FOG = "fog"


@dataclass(frozen=True)
class FarmGeometry:
    """Axis-aligned deployment rectangle with origin at (0, 0), in meters."""

    width: float
    height: float

    def contains(self, position: tuple[float, float]) -> bool:
        x, y = position
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height


@dataclass(frozen=True)
class ResourceNode:
    """A compute node, either the remote cloud or an on-farm fog box.

    Capacities are processing (MIPS), memory (Gb), storage (Gb).  Unit costs
    follow the infrastructure price list: processing per second, storage per
    Gb, sensor/user attach bandwidth per Gb.  ``sensor_delay``/``user_delay``
    are the attach latencies in seconds.  Fog nodes carry a position inside
    the farm and a radio transmission range, from which their rating
    follows (``Instance.ratings``).
    """

    id: str
    tier: Tier
    proc_capacity: float
    mem_capacity: float
    stor_capacity: float
    proc_cost: float
    stor_cost: float
    sensor_bw_cost: float
    user_bw_cost: float
    sensor_delay: float
    user_delay: float
    position: tuple[float, float] | None = None
    tx_range: float | None = None


@dataclass(frozen=True)
class LinkTable:
    """Pairwise link delays (seconds) and bandwidth costs (per Gb) between nodes.

    Each is a square matrix in ``Instance.nodes`` order, as in the instance
    file: ``delay[u][v]`` is the link from node u to node v, and
    ``Instance.node_index`` maps a node id to its row and column.  The
    diagonal is zero by convention: co-located adjacent modules exchange
    data on-node, incurring no communication delay or cost.
    """

    delay: tuple[tuple[float, ...], ...]
    bw_cost: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class AppModule:
    """One stage of an application chain and its per-deployment demands."""

    proc_req: float  # MI
    mem_req: float  # Gb
    stor_req: float  # Gb
    exec_delay: float  # seconds, node-independent


# The numeric fields every node and module carries, in declaration order: the
# instance file format and ``validate_instance`` both read these.  A node's
# quantities are exactly its fields annotated plain ``float``.
NODE_QUANTITIES = tuple(f.name for f in fields(ResourceNode) if f.type == "float")
MODULE_FIELDS = tuple(f.name for f in fields(AppModule))


@dataclass(frozen=True)
class Application:
    """A linear chain of modules with traffic sizes and service requirements.

    ``inter_traffic[j]`` is the volume (Gb) exchanged on the internal edge
    from module j to module j+1, so its length is ``len(modules) - 1``.
    ``qos_threshold`` bounds the end-to-end delay; ``security_req`` is the
    minimum rating a hosting node must have.
    """

    id: str
    modules: tuple[AppModule, ...]
    input_traffic: float  # Gb, sensor -> first module
    inter_traffic: tuple[float, ...]  # Gb per internal edge
    output_traffic: float  # Gb, last module -> end user
    qos_threshold: float  # seconds
    security_req: SecurityLevel

    @property
    def n_modules(self) -> int:
        return len(self.modules)

    @property
    def exec_total(self) -> float:
        # Left to right on every Python: builtin ``sum`` compensates from 3.12 on.
        total = 0.0
        for m in self.modules:
            total += m.exec_delay
        return total


@dataclass(frozen=True)
class Instance:
    """A complete problem instance: nodes, links, applications, farm."""

    nodes: tuple[ResourceNode, ...]
    links: LinkTable
    apps: tuple[Application, ...]
    farm: FarmGeometry

    @cached_property
    def node_index(self) -> dict[str, int]:
        """Node id -> position in ``nodes``: its row and column in ``links``."""
        return {n.id: k for k, n in enumerate(self.nodes)}

    @cached_property
    def app_by_id(self) -> dict[str, Application]:
        return {a.id: a for a in self.apps}

    @cached_property
    def ratings(self) -> dict[str, SecurityLevel]:
        """Node id -> rating, derived once from geometry; ValueError if a fog node cannot be rated."""
        from .security import _rate_nodes  # local: security imports this module
        return _rate_nodes(self)

    @property
    def total_modules(self) -> int:
        return sum(a.n_modules for a in self.apps)


@dataclass(frozen=True)
class Placement:
    """A full assignment of modules to nodes.

    ``assign[(app_id, j)]`` is the node hosting module j (0-based) of the
    app.  The internal edge from module j to j+1 runs on the ordered node
    pair ``(assign[(app_id, j)], assign[(app_id, j + 1)])`` (the self-pair
    (u, u) for co-located neighbours); edges are derived from ``assign``
    wherever they are read, never stored.
    """

    assign: dict[tuple[str, int], str]

    def hosts(self, app: Application) -> list[str]:
        """The nodes hosting app's modules, in chain order."""
        try:
            return [self.assign[(app.id, j)] for j in range(app.n_modules)]
        except KeyError as exc:
            raise ValueError(f"app {app.id} module {exc.args[0][1]} is not placed") from None


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def first_overflow(terms: Iterable[tuple[str, float, float]]) -> str | None:
    """The name of the first (name, unit price, amount) term at which the
    running sum of price * amount stops being finite; None if it never does."""
    total = 0.0
    for name, price, amount in terms:
        total += price * amount
        if not math.isfinite(total):
            return name
    return None


def validate_instance(inst: Instance) -> list[str]:
    """Return every invariant violation found in the instance (empty = valid).

    Checks node fields, link-matrix shape, entries and zero diagonal, app
    chain shapes and traffic sizes, and fog geometry against the farm
    rectangle.  Never raises and never mutates.
    """
    out: list[str] = []

    if inst.farm.width <= 0 or inst.farm.height <= 0:
        out.append(f"farm rectangle must have positive size, got {inst.farm.width}x{inst.farm.height}")

    seen_nodes: set[str] = set()
    for n in inst.nodes:
        if n.id in seen_nodes:
            out.append(f"duplicate node id {n.id!r}")
        seen_nodes.add(n.id)
        for name in NODE_QUANTITIES:
            v = getattr(n, name)
            if not _finite(v) or v < 0:
                out.append(f"node {n.id}: {name} must be finite and nonnegative, got {v!r}")
        if n.tier is Tier.FOG:
            if n.position is None:
                out.append(f"node {n.id}: fog node needs a position")
            elif not inst.farm.contains(n.position):
                out.append(f"node {n.id}: fog node outside farm rectangle at {n.position}")
            if n.tx_range is None:
                out.append(f"node {n.id}: fog node needs a transmission range")
            elif not _finite(n.tx_range) or n.tx_range <= 0:
                out.append(f"node {n.id}: tx_range must be finite and > 0, got {n.tx_range!r}")

    n_nodes = len(inst.nodes)
    for label in ("delay", "bw_cost"):
        matrix = getattr(inst.links, label)
        if len(matrix) != n_nodes or any(len(row) != n_nodes for row in matrix):
            out.append(f"links.{label} must be a {n_nodes}x{n_nodes} matrix in node order")
            continue
        for u, row in zip(inst.nodes, matrix):
            for v, val in zip(inst.nodes, row):
                if not _finite(val) or val < 0:
                    out.append(f"links.{label}[{u.id}, {v.id}] must be finite and nonnegative, got {val!r}")
                elif u is v and val != 0:
                    out.append(f"links.{label}[{u.id}, {u.id}] must be 0 (co-location), got {val!r}")

    seen_apps: set[str] = set()
    for a in inst.apps:
        if a.id in seen_apps:
            out.append(f"duplicate application id {a.id!r}")
        seen_apps.add(a.id)
        n = len(a.modules)
        if n == 0:
            out.append(f"app {a.id}: module chain must be nonempty")
        if len(a.inter_traffic) != max(n - 1, 0):
            out.append(f"app {a.id}: edge count must be n-1 = {n - 1}, got {len(a.inter_traffic)}")
        for j, m in enumerate(a.modules):
            for name in MODULE_FIELDS:
                v = getattr(m, name)
                if not _finite(v) or v < 0:
                    out.append(f"app {a.id} module {j}: {name} must be finite and nonnegative, got {v!r}")
        for label, v in (("input_traffic", a.input_traffic), ("output_traffic", a.output_traffic)):
            if not _finite(v) or v < 0:
                out.append(f"app {a.id}: {label} must be finite and nonnegative, got {v!r}")
        for j, v in enumerate(a.inter_traffic):
            if not _finite(v) or v < 0:
                out.append(f"app {a.id}: inter_traffic[{j}] must be finite and nonnegative, got {v!r}")
        if not _finite(a.qos_threshold) or a.qos_threshold <= 0:
            out.append(f"app {a.id}: qos_threshold must be finite and > 0, got {a.qos_threshold!r}")

    # Every answer must be finite.  Each bound prices every term at its
    # largest unit price or delay, so no placement costs or takes more.
    if not out and inst.nodes:
        def top(name: str) -> float:
            return max(getattr(n, name) for n in inst.nodes)
        apps, mods = inst.apps, [m for a in inst.apps for m in a.modules]
        field = first_overflow((
            ("proc_cost", top("proc_cost"), sum(m.exec_delay for m in mods)),
            ("stor_cost", top("stor_cost"), sum(m.stor_req for m in mods)),
            ("sensor_bw_cost", top("sensor_bw_cost"), sum(a.input_traffic for a in apps)),
            ("user_bw_cost", top("user_bw_cost"), sum(a.output_traffic for a in apps)),
            ("links.bw_cost", max(map(max, inst.links.bw_cost)), sum(sum(a.inter_traffic) for a in apps)),
        ))
        if field:
            out.append(f"{field}: the cost of a placement can overflow to inf")
        field = first_overflow((
            ("exec_delay", 1.0, max((a.exec_total for a in apps), default=0.0)),
            ("sensor_delay", top("sensor_delay"), 1.0), ("user_delay", top("user_delay"), 1.0),
            ("links.delay", max(map(max, inst.links.delay)), max((a.n_modules - 1 for a in apps), default=0)),
        ))
        if field:
            out.append(f"{field}: an app's delay can overflow to inf")

    return out


def placement_is_consistent(inst: Instance, p: Placement) -> bool:
    """True iff p assigns every module of inst exactly once and nothing else.

    Raises ValueError when p refers to app or node ids absent from inst.
    """
    for (app_id, _), node_id in p.assign.items():
        if app_id not in inst.app_by_id:
            raise ValueError(f"placement refers to unknown app {app_id!r}")
        if node_id not in inst.node_index:
            raise ValueError(f"placement refers to unknown node {node_id!r}")

    # Every module present and no more keys than modules: nothing stray.
    return (len(p.assign) == inst.total_modules
            and all((a.id, j) in p.assign for a in inst.apps for j in range(a.n_modules)))
