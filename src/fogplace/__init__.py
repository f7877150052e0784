"""Cost-minimal placement of chained IoT application modules on cloud-fog
infrastructure, under capacity, end-to-end delay, and security constraints.

Public names are loaded from their submodule on first use (PEP 562), so
``import fogplace`` runs no submodule and a command loads only what it calls.
"""

from importlib import import_module

_EXPORTS = {
    "ilp": ("CostBreakdown", "IlpModel", "Relaxations", "Violation", "build_model",
            "check_feasibility", "eval_cost", "eval_delay", "export_lp"),
    "instance_io": ("load_instance", "save_instance", "save_report"),
    "metrics": ("MetricsReport", "count_deployed", "metrics_for", "resource_cost",
                "unprotected_data"),
    "model": ("Application", "AppModule", "FarmGeometry", "Instance", "LinkTable", "Placement",
              "ResourceNode", "SecurityLevel", "Tier", "placement_is_consistent",
              "validate_instance"),
    "scenario": ("ScenarioConfig", "generate_instance"),
    "security": ("boundary_distances", "rate_fog_node", "rate_infrastructure"),
    "experiment": ("SweepGrid", "check_trends", "preset_grid", "run_sweep", "to_csv"),
    "solver": ("SolveOptions", "SolveReport", "SolveStatus", "solve_bruteforce", "solve_exact",
               "solve_greedy"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
