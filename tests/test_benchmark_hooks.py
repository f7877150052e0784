"""The benchmark's span tracer (benchmarks/spans.py) rebinds fogplace module
attributes by name.  Renaming or dropping one of them breaks every traced
benchmark run, so these tests pin that each one still exists.  A minimal
untraced run of each workload checks that the harness still runs against
the package and verifies every answer."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import run  # noqa: E402
import spans  # noqa: E402
from fogplace import experiment, solver  # noqa: E402


def test_every_traced_attribute_exists_and_is_callable():
    targets = spans.boundary_targets()
    missing = [f"{module.__name__}.{attr}" for module, attr, _layer, _describe in targets
               if not callable(getattr(module, attr, None))]
    assert targets and missing == []
    assert {layer for _module, _attr, layer, _describe in targets} <= set(spans.LAYERS)


def test_tracer_records_spans_and_restores_bindings(tiny_instance):
    original = solver.solve_exact
    tracer = spans.Tracer()
    with tracer.installed():
        assert solver.solve_exact is not original
        solver.solve_exact(tiny_instance)
    assert solver.solve_exact is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "solver.search" and "solver.preprocess" in names


def test_traced_sweep_keeps_one_span_per_solve_and_instance():
    # run_sweep passes its per-seed memos through the traced names
    # ``generate_instance``, ``solve_exact`` and ``_Problem``.
    grid = experiment.preset_grid("fig5")
    untraced = experiment.to_csv(experiment.run_sweep(grid, [0, 1]))
    tracer = spans.Tracer()
    with tracer.installed():
        traced = experiment.to_csv(experiment.run_sweep(grid, [0, 1]))
    assert traced == untraced
    runs = 2 * len(grid.cells)
    names = [s.name for s in tracer.spans]
    assert names.count("solver.search") == names.count("solver.preprocess") == runs
    assert names.count("scenario") == runs
    assert all(tracer.spans[s.parent].name == "solver.search"
               for s in tracer.spans if s.name == "solver.preprocess")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_minimal_benchmark_run_verifies_every_op(workload, tmp_path, monkeypatch):
    pytest.importorskip("scipy")  # the harness checks answers with HiGHS
    monkeypatch.setattr(run, "WORK", tmp_path)  # cli_solve writes its instance files there
    result = run.run_benchmark(workload, 0, seconds=0, trace=False, small=True)["result"]
    assert result["correct"] and result["failed"] == 0, result
