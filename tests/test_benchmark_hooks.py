"""The benchmark's span tracer (benchmarks/spans.py) rebinds fogplace module
attributes by name.  Renaming or dropping one of them breaks every traced
benchmark run, so these tests pin that each one still exists."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import spans  # noqa: E402
from fogplace import solver  # noqa: E402


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
