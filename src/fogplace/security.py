"""Security rating of resource nodes from farm geometry.

A fog node whose radio range reaches past any farm boundary can be
eavesdropped from outside the farm, so it is rated low; fog nodes whose
range stays inside are rated high.  The cloud sits behind the public
internet and is rated medium regardless of geometry.  Ratings are never
stored: ``Instance.ratings`` applies this rule once per instance and caches it.
"""

from __future__ import annotations

from .model import FarmGeometry, Instance, ResourceNode, SecurityLevel, Tier


def boundary_distances(position: tuple[float, float], farm: FarmGeometry) -> tuple[float, float, float, float]:
    """Perpendicular distances from a point to the west/east/south/north farm edges.

    Raises ValueError if the point lies outside the rectangle.
    """
    x, y = position
    if not farm.contains(position):
        raise ValueError(f"position {position} outside farm rectangle {farm.width}x{farm.height}")
    return (x, farm.width - x, y, farm.height - y)


def rate_fog_node(node: ResourceNode, farm: FarmGeometry) -> SecurityLevel:
    """Rate a fog node: LOW when its range crosses a boundary, HIGH otherwise.

    The test is strict: a node whose nearest boundary is exactly tx_range
    away does not leak past the fence and rates HIGH.
    """
    if node.tier is not Tier.FOG:
        raise ValueError(f"node {node.id} is not a fog node")
    if node.position is None or node.tx_range is None:
        raise ValueError(f"fog node {node.id} needs position and tx_range to be rated")
    if min(boundary_distances(node.position, farm)) < node.tx_range:
        return SecurityLevel.LOW
    return SecurityLevel.HIGH


def rate_infrastructure(inst: Instance) -> Instance:
    """Compute ``inst.ratings`` now and return ``inst`` itself, so that bad fog
    geometry raises ValueError here rather than at first use."""
    inst.ratings
    return inst


def _rate_nodes(inst: Instance) -> dict[str, SecurityLevel]:
    """The rating rule behind ``Instance.ratings``: cloud MEDIUM, fog by geometry."""
    return {n.id: SecurityLevel.MEDIUM if n.tier is Tier.CLOUD else rate_fog_node(n, inst.farm)
            for n in inst.nodes}
