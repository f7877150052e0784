"""Cost-minimal placement of chained IoT application modules on cloud-fog
infrastructure, under capacity, end-to-end delay, and security constraints."""

from .ilp import (
    CostBreakdown,
    IlpModel,
    Relaxations,
    Violation,
    build_model,
    check_feasibility,
    eval_cost,
    eval_delay,
    export_lp,
)
from .instance_io import load_instance, save_instance, save_report
from .metrics import MetricsReport, count_deployed, metrics_for, resource_cost, unprotected_data
from .model import (
    Application,
    AppModule,
    FarmGeometry,
    Instance,
    LinkTable,
    Placement,
    ResourceNode,
    SecurityLevel,
    Tier,
    placement_is_consistent,
    validate_instance,
)
from .scenario import ScenarioConfig, generate_instance
from .security import boundary_distances, rate_fog_node, rate_infrastructure
from .experiment import SweepGrid, check_trends, preset_grid, run_sweep, to_csv
from .solver import (
    SolveOptions,
    SolveReport,
    SolveStatus,
    solve_bruteforce,
    solve_exact,
    solve_greedy,
)

__all__ = [
    "Application", "AppModule", "CostBreakdown", "FarmGeometry", "IlpModel",
    "Instance", "LinkTable", "MetricsReport", "Placement", "Relaxations",
    "ResourceNode", "ScenarioConfig", "SecurityLevel", "SolveOptions",
    "SolveReport", "SolveStatus", "SweepGrid", "Tier", "Violation",
    "boundary_distances", "build_model", "check_feasibility", "check_trends",
    "count_deployed", "eval_cost", "eval_delay", "export_lp",
    "generate_instance", "load_instance", "metrics_for",
    "placement_is_consistent", "preset_grid", "rate_fog_node",
    "rate_infrastructure", "resource_cost", "run_sweep",
    "save_instance", "save_report", "solve_bruteforce", "solve_exact",
    "solve_greedy", "to_csv", "unprotected_data", "validate_instance",
]

__version__ = "0.1.0"
