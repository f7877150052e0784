"""Evaluation metrics computed from a solved placement.

Three metrics: total resource cost, module counts per infrastructure tier,
and the volume of unprotected data.  A module's data counts as unprotected
when its host's security rating falls below the owning application's
requirement; the volume attributed to it is its inbound traffic - the
sensor stream for a chain's first module, otherwise the traffic arriving
over the edge from its predecessor.  Inbound is what an eavesdropper in the
host's radio neighbourhood captures; outbound volumes belong to the
receiving module, so nothing is double counted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, Placement, Tier
from .solver import SolveReport, SolveStatus

GB_TO_MB = 1000.0


@dataclass(frozen=True)
class MetricsReport:
    resource_cost: float
    modules_on_cloud: int
    modules_on_fog: int
    unprotected_data: float  # Gb


def resource_cost(report: SolveReport) -> float:
    """Objective value of a solved placement; errors on infeasible reports."""
    if report.status is SolveStatus.INFEASIBLE or report.cost is None:
        raise ValueError("no placement to report a cost for")
    return report.cost.total


def count_deployed(inst: Instance, p: Placement) -> tuple[int, int]:
    """(modules on cloud, modules on fog) under placement p."""
    cloud = fog = 0
    nodes, index = inst.nodes, inst.node_index
    for a in inst.apps:
        for j in range(a.n_modules):
            if nodes[index[p.assign[(a.id, j)]]].tier is Tier.CLOUD:
                cloud += 1
            else:
                fog += 1
    return cloud, fog


def unprotected_data(inst: Instance, p: Placement) -> float:
    """Total inbound traffic (Gb) of modules hosted below their required rating."""
    total = 0.0
    ratings = inst.ratings
    for a in inst.apps:
        for j in range(a.n_modules):
            if ratings[p.assign[(a.id, j)]] < a.security_req:
                total += a.input_traffic if j == 0 else a.inter_traffic[j - 1]
    return total


def metrics_for(inst: Instance, report: SolveReport) -> MetricsReport:
    """Assemble all three metrics for a report that carries a placement."""
    cost = resource_cost(report)
    cloud, fog = count_deployed(inst, report.placement)
    return MetricsReport(
        resource_cost=cost,
        modules_on_cloud=cloud,
        modules_on_fog=fog,
        unprotected_data=unprotected_data(inst, report.placement),
    )
