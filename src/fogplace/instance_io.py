"""Reading and writing instance and report files.

Instances are stored as a single UTF-8 JSON document.  Field names mirror
the domain types; the link table's two matrices are written as they are
held, square and in node order, with no node ids.  The reader is strict:
unknown fields and repeated keys are rejected, and a written instance
reads back equal (floats survive via shortest-repr JSON encoding).  Scenario
configs and grid documents are read by the same ``read_json``.
Each node's ``security_rating`` comes from ``Instance.ratings``; read back, it is checked and ignored.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Any, Mapping, Sequence

from .model import (
    Application,
    AppModule,
    FarmGeometry,
    Instance,
    LinkTable,
    MODULE_FIELDS,
    NODE_QUANTITIES,
    Placement,
    ResourceNode,
    SecurityLevel,
    Tier,
)


def require_keys(obj: Mapping[str, Any], required: set[str], optional: set[str], where: str) -> None:
    """Raise ValueError unless ``obj`` is a mapping whose keys are all of
    ``required`` and any of ``optional``."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - required - optional)
    if unknown:
        raise ValueError(f"{where}: unknown fields {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        raise ValueError(f"{where}: missing fields {missing}")


def strict_float(v: Any) -> float:
    """``float(v)`` for an int or a float; a TypeError for a bool or a string."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def strict_int(v: Any) -> int:
    """``v`` as an int if it is integral; a TypeError for a bool, a string or a fraction."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def strict_bool(v: Any) -> bool:
    """``v`` if it is a bool; a TypeError for the strings and numbers ``bool`` coerces."""
    if not isinstance(v, bool):
        raise TypeError(f"expected true or false, got {v!r}")
    return v


def _num(v: Any, where: str) -> float:
    """``strict_float(v)``, or a ValueError naming the entry ``where``."""
    try:
        return strict_float(v)
    except (TypeError, OverflowError):
        raise ValueError(f"{where}: expected a number, got {v!r}") from None


def _id(obj: Mapping[str, Any], where: str) -> str:
    v = obj["id"]
    if not isinstance(v, str):
        raise ValueError(f"{where}.id: expected a string, got {v!r}")
    return v


def _level(v: Any, where: str) -> SecurityLevel:
    try:
        return SecurityLevel.from_name(str(v))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _list(v: Any, where: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{where}: expected a list, got {v!r}")
    return v


def _node_to_dict(n: ResourceNode, rating: SecurityLevel) -> dict[str, Any]:
    d: dict[str, Any] = {"id": n.id, "tier": n.tier.value,
                         **{name: getattr(n, name) for name in NODE_QUANTITIES}}
    if n.position is not None:
        d["position"] = [n.position[0], n.position[1]]
    if n.tx_range is not None:
        d["tx_range"] = n.tx_range
    d["security_rating"] = rating.label
    return d


def _node_from_dict(d: Mapping[str, Any], where: str) -> ResourceNode:
    require_keys(d, {"id", "tier", *NODE_QUANTITIES}, {"position", "tx_range", "security_rating"}, where)
    try:
        tier = Tier(d["tier"])
    except ValueError:
        raise ValueError(f"{where}.tier: unknown tier {d['tier']!r}") from None
    position = None
    if "position" in d:
        raw = d["position"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ValueError(f"{where}.position: expected [x, y]")
        position = (_num(raw[0], f"{where}.position[0]"), _num(raw[1], f"{where}.position[1]"))
    if "security_rating" in d:
        _level(d["security_rating"], f"{where}.security_rating")  # checked, then ignored
    return ResourceNode(
        id=_id(d, where),
        tier=tier,
        **{name: _num(d[name], f"{where}.{name}") for name in NODE_QUANTITIES},
        position=position,
        tx_range=_num(d["tx_range"], f"{where}.tx_range") if "tx_range" in d else None,
    )


def _app_to_dict(a: Application) -> dict[str, Any]:
    return {
        "id": a.id,
        "modules": [{name: getattr(m, name) for name in MODULE_FIELDS} for m in a.modules],
        "input_traffic": a.input_traffic,
        "inter_traffic": list(a.inter_traffic),
        "output_traffic": a.output_traffic,
        "qos_threshold": a.qos_threshold,
        "security_req": a.security_req.label,
    }


def _module_from_dict(d: Mapping[str, Any], where: str) -> AppModule:
    require_keys(d, set(MODULE_FIELDS), set(), where)
    return AppModule(**{name: _num(d[name], f"{where}.{name}") for name in MODULE_FIELDS})


def _app_from_dict(d: Mapping[str, Any], where: str) -> Application:
    require_keys(d, {f.name for f in fields(Application)}, set(), where)
    return Application(
        id=_id(d, where),
        modules=tuple(_module_from_dict(md, f"{where}.modules[{j}]")
                      for j, md in enumerate(_list(d["modules"], f"{where}.modules"))),
        input_traffic=_num(d["input_traffic"], f"{where}.input_traffic"),
        inter_traffic=tuple(_num(x, f"{where}.inter_traffic[{j}]")
                            for j, x in enumerate(_list(d["inter_traffic"], f"{where}.inter_traffic"))),
        output_traffic=_num(d["output_traffic"], f"{where}.output_traffic"),
        qos_threshold=_num(d["qos_threshold"], f"{where}.qos_threshold"),
        security_req=_level(d["security_req"], f"{where}.security_req"),
    )


def instance_to_dict(inst: Instance) -> dict[str, Any]:
    return {
        "nodes": [_node_to_dict(n, inst.ratings[n.id]) for n in inst.nodes],
        "links": {"delay": [list(row) for row in inst.links.delay],
                  "bw_cost": [list(row) for row in inst.links.bw_cost]},
        "apps": [_app_to_dict(a) for a in inst.apps],
        "farm": {"width": inst.farm.width, "height": inst.farm.height},
    }


def instance_from_dict(d: Mapping[str, Any]) -> Instance:
    require_keys(d, {"nodes", "links", "apps", "farm"}, set(), "instance")
    nodes = tuple(_node_from_dict(nd, f"nodes[{i}]") for i, nd in enumerate(_list(d["nodes"], "nodes")))
    n = len(nodes)
    require_keys(d["links"], {"delay", "bw_cost"}, set(), "links")
    links = {}
    for label in ("delay", "bw_cost"):
        matrix = d["links"][label]
        if not isinstance(matrix, list) or len(matrix) != n:
            raise ValueError(f"links.{label}: expected a {n}x{n} matrix")
        for i, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != n:
                raise ValueError(f"links.{label}[{i}]: expected {n} entries")
        links[label] = tuple(tuple(_num(val, f"links.{label}[{i}][{j}]") for j, val in enumerate(row))
                             for i, row in enumerate(matrix))

    apps = tuple(_app_from_dict(ad, f"apps[{i}]") for i, ad in enumerate(_list(d["apps"], "apps")))
    require_keys(d["farm"], {"width", "height"}, set(), "farm")
    farm = FarmGeometry(width=_num(d["farm"]["width"], "farm.width"),
                        height=_num(d["farm"]["height"], "farm.height"))
    return Instance(nodes=nodes, links=LinkTable(**links), apps=apps, farm=farm)


def _write_json(doc: dict[str, Any], path: str | Path) -> None:
    """Write strict JSON: a NaN or infinity raises ValueError rather than reach the file."""
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def save_instance(inst: Instance, path: str | Path) -> None:
    _write_json(instance_to_dict(inst), path)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    doc: dict[str, Any] = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def read_json(path: str | Path) -> Any:
    """The JSON document at ``path``, read as UTF-8.  Raises ValueError on
    text that is not JSON and on an object that repeats a key, naming it,
    instead of keeping the last value."""
    return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(read_json(path))


def _edge_map(assign: Mapping[str, Sequence[str]]) -> dict[str, list[list[str]]]:
    """Each app's internal edges as the [source, target] hosts of its chain."""
    return {app_id: [[u, v] for u, v in zip(hosts, hosts[1:])] for app_id, hosts in assign.items()}


def placement_to_dict(inst: Instance, p: Placement) -> dict[str, Any]:
    assign = {a.id: p.hosts(a) for a in inst.apps}
    return {"assign": assign, "edge_map": _edge_map(assign)}


def placement_from_dict(d: Mapping[str, Any]) -> Placement:
    """Read a placement; its ``edge_map`` must be the one its ``assign`` implies."""
    require_keys(d, {"assign", "edge_map"}, set(), "placement")
    assign = d["assign"]
    if not isinstance(assign, Mapping) or not all(
            isinstance(ids, list) and all(isinstance(i, str) for i in ids) for ids in assign.values()):
        raise ValueError(f"placement.assign: expected app ids mapped to lists of node ids, got {assign!r}")
    if d["edge_map"] != _edge_map(assign):
        raise ValueError("placement.edge_map: differs from the edges its assign implies")
    return Placement({app_id: tuple(node_ids) for app_id, node_ids in assign.items()})


def report_to_dict(inst: Instance, report) -> dict[str, Any]:
    """Serialize a SolveReport against its instance (apps give the ordering)."""
    out: dict[str, Any] = {
        "status": report.status.value,
        "relax": {"drop_qos": report.relax.drop_qos, "drop_security": report.relax.drop_security},
        "search_stats": report.search_stats.to_dict(),
    }
    if report.placement is not None:
        out["placement"] = placement_to_dict(inst, report.placement)
        out["cost"] = report.cost.to_dict()
        out["per_app_delay"] = {
            a.id: {"comm": report.per_app_delay[a.id][0], "exec": report.per_app_delay[a.id][1]}
            for a in inst.apps
        }
    return out


def save_report(inst: Instance, report, path: str | Path) -> None:
    _write_json(report_to_dict(inst, report), path)
