"""The benchmark's span tracer (benchmarks/spans.py) rebinds fogplace module
attributes by name.  Renaming or dropping one of them breaks every traced
benchmark run, so these tests pin that each one still exists."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

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
