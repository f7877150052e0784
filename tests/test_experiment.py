import hashlib
import json
from pathlib import Path

import pytest

from fogplace import experiment, scenario
from fogplace.ilp import Relaxations, eval_cost
from fogplace.instance_io import placement_from_dict
from fogplace.experiment import (
    CSV_COLUMNS,
    Cell,
    SweepGrid,
    SweepRow,
    aggregate_rows,
    cell_label,
    check_trends,
    grid_from_lists,
    preset_grid,
    run_sweep,
    to_csv,
)
from fogplace.scenario import ScenarioConfig, generate_instance, validate_config


TINY_GRID = SweepGrid("tiny", (
    Cell(1, 1.5, None, Relaxations()),
    Cell(2, 1.5, None, Relaxations()),
    Cell(2, 3.0, None, Relaxations()),
))


class TestPresets:
    def test_fig4_axes(self):
        grid = preset_grid("fig4")
        assert len(grid.cells) == 14
        assert {c.n_apps for c in grid.cells} == set(range(1, 8))
        assert {c.max_qos for c in grid.cells} == {1.5, 3.0}
        assert all(c.alpha is None and c.relax == Relaxations() for c in grid.cells)

    def test_fig5_axes(self):
        grid = preset_grid("fig5")
        assert len(grid.cells) == 10
        assert {c.alpha for c in grid.cells} == {0.0, 0.25, 0.5, 0.75, 1.0}
        assert all(c.n_apps == 7 for c in grid.cells)

    def test_fig6_mirrors_fig4(self):
        assert preset_grid("fig6").cells == preset_grid("fig4").cells

    def test_fig7_scenarios(self):
        grid = preset_grid("fig7")
        assert len(grid.cells) == 21
        assert all(c.alpha == 0.25 for c in grid.cells)
        assert all(c.relax.drop_security for c in grid.cells)
        noqos = [c for c in grid.cells if c.relax.drop_qos]
        assert len(noqos) == 7

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_grid("fig9")


class TestRunSweep:
    def test_row_count(self):
        rows = run_sweep(TINY_GRID, [0, 1])
        assert len(rows) == 3 * 2 + 3  # seed rows + one mean row per cell

    def test_rows_follow_cell_then_seed_order(self):
        rows = run_sweep(TINY_GRID, [0, 1])
        seed_rows = [r for r in rows if not r.is_aggregate]
        assert [(r.n_apps, r.max_qos, r.seed) for r in seed_rows] == [
            (1, 1.5, 0), (1, 1.5, 1), (2, 1.5, 0), (2, 1.5, 1), (2, 3.0, 0), (2, 3.0, 1)]

    def test_deterministic_csv(self):
        a = to_csv(run_sweep(TINY_GRID, [0, 1]))
        b = to_csv(run_sweep(TINY_GRID, [0, 1]))
        assert a == b

    def test_aggregate_means_over_optimal_rows(self):
        rows = run_sweep(TINY_GRID, [0, 1, 2])
        for agg in (r for r in rows if r.is_aggregate):
            group = [r for r in rows
                     if not r.is_aggregate and r.cell_key() == agg.cell_key()
                     and r.status == "optimal"]
            assert agg.status == f"mean_of_{len(group)}"
            if group:
                expected = sum(r.cost_total for r in group) / len(group)
                assert agg.cost_total == pytest.approx(expected, rel=1e-12)

    def test_mean_row_sums_left_to_right(self):
        # Ten optimal rows of 0.1: the left-to-right mean is 0.09999999999999999;
        # a correctly rounded sum (builtin ``sum`` from Python 3.12) gives 0.1.
        rows = [SweepRow(1, 1.5, None, False, False, seed, "optimal") for seed in range(10)]
        for row in rows:
            for name in CSV_COLUMNS[CSV_COLUMNS.index("cost_processing"):]:
                setattr(row, name, 0.1)
        agg, = aggregate_rows(rows)
        assert agg.status == "mean_of_10"
        assert agg.cost_total == 0.09999999999999999

    def test_placement_dump_audits_costs(self, tmp_path):
        rows = run_sweep(TINY_GRID, [0, 1], dump_dir=tmp_path)
        checked = 0
        for row in rows:
            if row.is_aggregate or row.status != "optimal":
                continue
            path = tmp_path / (cell_label(
                Cell(row.n_apps, row.max_qos, row.alpha,
                     Relaxations(row.drop_qos, row.drop_security)), row.seed) + ".json")
            doc = json.loads(path.read_text())
            placement = placement_from_dict(doc["placement"])
            cfg = ScenarioConfig(n_apps=row.n_apps, max_qos=row.max_qos,
                                 alpha=row.alpha, seed=row.seed)
            inst = generate_instance(cfg)
            assert eval_cost(inst, placement).total == pytest.approx(row.cost_total, rel=1e-12)
            checked += 1
        assert checked > 0

    def test_csv_header_fixed(self):
        text = to_csv(run_sweep(TINY_GRID, [0]))
        header = text.splitlines()[0]
        assert header == ("n_apps,max_qos,alpha,drop_qos,drop_security,seed,status,"
                          "cost_processing,cost_storage,cost_sensor_comm,cost_inter_comm,"
                          "cost_user_comm,cost_total,modules_on_cloud,modules_on_fog,"
                          "unprotected_gb,nodes_explored,pruned_bound,pruned_capacity,"
                          "pruned_qos,pruned_security")

    def test_failing_cell_recorded_without_aborting(self):
        grid = SweepGrid("mixed", (
            Cell(1, 1.5, 2.0, Relaxations()),  # alpha out of range: generation fails
            Cell(1, 1.5, None, Relaxations()),
        ))
        rows = run_sweep(grid, [0])
        seed_rows = [r for r in rows if not r.is_aggregate]
        assert seed_rows[0].status == "error:ValueError"
        assert seed_rows[0].cost_total is None
        assert seed_rows[1].status == "optimal"

    def test_each_cell_config_validated_once(self, monkeypatch):
        calls = []

        def counting(cfg):
            calls.append(cfg)
            validate_config(cfg)

        monkeypatch.setattr(experiment, "validate_config", counting)
        monkeypatch.setattr(scenario, "validate_config", counting)
        run_sweep(TINY_GRID, [0, 1, 2])
        assert len(calls) == len(TINY_GRID.cells)

    def test_error_rows_pinned(self):
        # An invalid cell (alpha out of range, max_qos below min_qos) errors
        # every row; a negative seed errors its own row in each valid cell.
        grid = SweepGrid("mixed", (
            Cell(1, 1.5, 2.0, Relaxations()),
            Cell(1, 1.5, None, Relaxations()),
            Cell(2, 0.1, None, Relaxations()),
        ))
        rows = run_sweep(grid, [0, -1, 1])
        assert [(r.seed, r.status) for r in rows] == [
            (0, "error:ValueError"), (-1, "error:ValueError"), (1, "error:ValueError"),
            (0, "optimal"), (-1, "error:ValueError"), (1, "optimal"),
            (0, "error:ValueError"), (-1, "error:ValueError"), (1, "error:ValueError"),
            ("mean", "mean_of_0"), ("mean", "mean_of_2"), ("mean", "mean_of_0"),
        ]
        for row in rows:
            if row.status.startswith("error:"):
                assert all(getattr(row, name) is None for name in CSV_COLUMNS[7:])


REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"


@pytest.mark.parametrize("preset", ["fig4", "fig5", "fig7"])
def test_desk_sweep_csv_matches_benchmark_reference(preset):
    # The benchmark's desk_sweep pass: every drawn instance, status, cost,
    # tier count and search counter over seeds 0-19 is pinned by its digest.
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["desk_sweep"]["csv_sha256"][preset]
    csv_text = to_csv(run_sweep(preset_grid(preset), list(range(20))))
    assert hashlib.sha256(csv_text.encode("utf-8")).hexdigest() == expected


class TestCheckTrends:
    def test_single_cell_is_vacuous(self):
        rows = run_sweep(SweepGrid("one", (Cell(1, 1.5, None, Relaxations()),)), [0])
        report = check_trends(rows)
        assert all(not c.applicable for c in report.checks)
        assert report.all_passed

    def test_tiny_grid_trends(self):
        report = check_trends(run_sweep(TINY_GRID, [0, 1, 2]))
        by_name = {c.name: c for c in report.checks}
        assert by_name["cost_nondecreasing_in_n_apps"].applicable
        assert by_name["cost_nondecreasing_in_n_apps"].passed
        assert by_name["cost_tighter_qos_not_cheaper"].applicable
        assert by_name["cost_tighter_qos_not_cheaper"].passed
        assert not by_name["cost_nondecreasing_in_alpha"].applicable

    # A cube of cells, every one optimal on seed 0, so each cell has a
    # neighbour along n_apps, max_qos and alpha.
    CUBE = grid_from_lists("cube", [1, 2], [1.5, 3.0], [0.0, 1.0], [Relaxations()])

    @pytest.mark.parametrize("cell, change, check", [
        # Each change sits at a corner where it can break only its own check.
        ((2, 3.0, 0.0), {"cost_total": 0.0}, "cost_nondecreasing_in_n_apps"),
        ((1, 1.5, 0.0), {"cost_total": 0.0}, "cost_tighter_qos_not_cheaper"),
        ((1, 3.0, 1.0), {"cost_total": 0.0}, "cost_nondecreasing_in_alpha"),
        ((2, 1.5, 0.0), {"status": "infeasible", "cost_total": None}, "cost_nondecreasing_in_alpha"),
    ])
    def test_one_violation_fails_its_check(self, cell, change, check):
        rows = run_sweep(self.CUBE, [0])
        seed_rows = [r for r in rows if not r.is_aggregate]
        assert all(r.status == "optimal" for r in seed_rows)
        assert check_trends(rows).all_passed
        target, = [r for r in seed_rows if (r.n_apps, r.max_qos, r.alpha) == cell]
        for name, value in change.items():
            setattr(target, name, value)
        by_name = {c.name: c for c in check_trends(rows).checks}
        assert not by_name[check].passed
        assert by_name[check].details.endswith(", 1 violations")
        others = [c for c in by_name.values() if c.name != check and c.applicable]
        assert all(c.passed for c in others)

    def test_format_mentions_every_check(self):
        report = check_trends(run_sweep(TINY_GRID, [0]))
        text = report.format()
        for check in report.checks:
            assert check.name in text


def test_grid_from_lists_cross_product():
    grid = grid_from_lists("g", [1, 2], [1.5], [None, 0.5], [Relaxations()])
    assert len(grid.cells) == 4
