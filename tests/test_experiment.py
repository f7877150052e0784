import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from fogplace import experiment, scenario, security
from fogplace.ilp import Relaxations, eval_cost
from fogplace.instance_io import placement_from_dict, save_report
from fogplace.metrics import count_deployed, unprotected_data
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
from fogplace.solver import SolveStatus, solve_exact, solve_greedy


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


def fresh_row(cell, seed, base_cfg, dump_dir):
    """A sweep row's measured columns from a fresh, memo-free generate and
    solve; writes the report into ``dump_dir`` as the sweep would."""
    try:
        inst = generate_instance(replace(base_cfg, n_apps=cell.n_apps, max_qos=cell.max_qos,
                                         alpha=cell.alpha, seed=seed))
    except ValueError:
        return {"status": "error:ValueError"}
    report = solve_exact(inst, cell.relax)
    out = {"status": report.status.value, **report.search_stats.to_dict()}
    if report.placement is not None:
        out.update({f"cost_{k}": v for k, v in report.cost.to_dict().items()})
        out["modules_on_cloud"], out["modules_on_fog"] = count_deployed(inst, report.placement)
        out["unprotected_gb"] = unprotected_data(inst, report.placement)
        save_report(inst, report, dump_dir / f"{cell_label(cell, seed)}.json")
    return out


# Random fog positions, execution-delay overrides, every alpha kind, every
# relaxation and an invalid cell (max_qos below min_qos).
CUSTOM_GRID = SweepGrid("custom", grid_from_lists(
    "custom", [1, 3], [1.5, 3.0], [None, 0.0, 1.0],
    [Relaxations(q, s) for q in (False, True) for s in (False, True)]).cells
    + (Cell(2, 0.1, None, Relaxations()),))
CUSTOM_CFG = ScenarioConfig(n_fog=3, fog_positions=None, tx_ranges=None,
                            exec_delay_overrides=((0, 1, 0.05), (2, 0, 0.3)))


# App prefixes visited out of order (7, 3, 5, 1 apps) under two thresholds,
# two security mixes and every relaxation, on tight fog capacity: seed 0
# has cells where greedy fails at an inner app and where the search beats
# greedy (``test_prefix_grid_reaches_greedy_failure_and_search_win``).
PREFIX_GRID = grid_from_lists("prefixes", [7, 3, 5, 1], [1.5, 3.0], [None, 0.5],
                              [Relaxations(q, s) for q in (False, True) for s in (False, True)])
PREFIX_CFG = ScenarioConfig(n_fog=3, fog_positions=None, tx_ranges=None, fog_proc_capacity=6.0)


@pytest.mark.parametrize("grid, seeds, base_cfg, statuses", [
    (preset_grid("fig4"), [0, 1], ScenarioConfig(), {"optimal"}),
    (preset_grid("fig5"), [0, 1], ScenarioConfig(), {"optimal", "infeasible"}),
    (preset_grid("fig7"), [0, 1], ScenarioConfig(), {"optimal"}),
    (CUSTOM_GRID, [5, -1, 6], CUSTOM_CFG, {"optimal", "error:ValueError"}),
    (PREFIX_GRID, [0], PREFIX_CFG, {"optimal", "infeasible"}),
], ids=["fig4", "fig5", "fig7", "custom", "prefixes"])
def test_sweep_rows_match_fresh_solves(grid, seeds, base_cfg, statuses, tmp_path):
    # The sweep reuses app draws, solver domains and app-prefix states
    # within a seed; every row and dumped report must be what a fresh
    # generate and solve give.
    rows = run_sweep(grid, seeds, base_cfg, dump_dir=tmp_path / "sweep")
    (tmp_path / "fresh").mkdir()
    measured = CSV_COLUMNS[CSV_COLUMNS.index("status"):]
    got = [[(name, repr(getattr(row, name))) for name in measured if getattr(row, name) is not None]
           for row in rows if not row.is_aggregate]
    expected = []
    for cell in grid.cells:
        for seed in seeds:
            fresh = fresh_row(cell, seed, base_cfg, tmp_path / "fresh")
            expected.append([(name, repr(fresh[name])) for name in measured if name in fresh])
    assert got == expected
    assert {row.status for row in rows if not row.is_aggregate} == statuses
    dumped = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert dumped == sorted(p.name for p in (tmp_path / "fresh").iterdir())
    for name in dumped:
        assert (tmp_path / "sweep" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_prefix_grid_reaches_greedy_failure_and_search_win():
    def instance(n_apps, alpha):
        return generate_instance(replace(PREFIX_CFG, n_apps=n_apps, max_qos=1.5, alpha=alpha, seed=0))

    # Greedy places the first three apps and fails at the fourth of seven;
    # the exact search still finds a placement.
    inst, relax = instance(7, 0.5), Relaxations(drop_qos=True)
    assert solve_greedy(inst.with_apps(inst.apps[:3]), relax).status is SolveStatus.FEASIBLE
    assert solve_greedy(inst.with_apps(inst.apps[:4]), relax).status is SolveStatus.HEURISTIC_FAILED
    assert solve_exact(inst, relax).status is SolveStatus.OPTIMAL
    inst = instance(7, None)
    assert solve_exact(inst).cost.total < solve_greedy(inst).cost.total


def test_each_seed_shares_its_infrastructure_and_domains_with_itself_only(monkeypatch):
    rated, made, memos = [], [], []
    rate, generate, solve = security._rate_nodes, experiment.generate_instance, experiment.solve_exact

    def generating(cfg, seed, drawn):
        made.append(generate(cfg, seed, drawn))
        return made[-1]

    def solving(inst, relax, _domains):
        memos.append(_domains)
        return solve(inst, relax, _domains=_domains)

    monkeypatch.setattr(security, "_rate_nodes", lambda inst: rated.append(inst) or rate(inst))
    monkeypatch.setattr(experiment, "generate_instance", generating)
    monkeypatch.setattr(experiment, "solve_exact", solving)
    grid = preset_grid("fig7")
    rows = run_sweep(grid, [0, 1])
    assert len(rated) == 2  # one rating pass per seed
    n = len(grid.cells)
    assert len(made) == len(memos) == 2 * n
    for insts, seed_memos in ((made[:n], memos[:n]), (made[n:], memos[n:])):
        assert all(inst.nodes is insts[0].nodes and inst.links is insts[0].links for inst in insts)
        assert all(memo is seed_memos[0] for memo in seed_memos)
    assert made[0].nodes is not made[n].nodes and made[0].links is not made[n].links
    assert made[0].nodes == made[n].nodes  # fixed fog positions: equal, yet rebuilt
    first, second = memos[0], memos[n]
    assert first is not second
    assert not {id(v) for v in first.values()} & {id(v) for v in second.values()}
    assert {row.status for row in rows[:2 * n]} == {"optimal"}


REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"


@pytest.mark.parametrize("preset, draws", [("fig4", 140), ("fig5", 280), ("fig7", 160)])
def test_desk_sweep_csv_matches_benchmark_reference(preset, draws, monkeypatch):
    # The benchmark's desk_sweep pass: every drawn instance, status, cost,
    # tier count and search counter over seeds 0-19 is pinned by its digest.
    # Each seed draws an app once per security kind, whatever its max_qos:
    # 580 draws a pass, 29 a seed.
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["desk_sweep"]["csv_sha256"][preset]
    drawn, draw_app = [], scenario._draw_app
    monkeypatch.setattr(scenario, "_draw_app", lambda *args, **kw: drawn.append(args) or draw_app(*args, **kw))
    csv_text = to_csv(run_sweep(preset_grid(preset), list(range(20))))
    assert hashlib.sha256(csv_text.encode("utf-8")).hexdigest() == expected
    assert len(drawn) == draws


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

    @pytest.mark.parametrize("rows, check, details", [
        # Looser QoS puts more modules on fog than tighter QoS does.
        ([{"max_qos": 1.5, "modules_on_fog": 1.0}, {"max_qos": 3.0, "modules_on_fog": 2.0}],
         "mean_fog_modules_higher_under_tight_qos", "mean_fog[max_qos=1.5]=1.000, mean_fog[max_qos=3.0]=2.000"),
        # The fully relaxed baseline leaks more than the QoS-constrained scenario.
        ([{"drop_security": True, "drop_qos": True, "unprotected_gb": 2.0},
          {"drop_security": True, "unprotected_gb": 1.0}],
         "mean_unprotected_noqos_is_smallest", "mean_unprotected[noqos]=2.0000, mean_unprotected[max_qos=1.5]=1.0000"),
    ])
    def test_seed_mean_violation_fails_its_check(self, rows, check, details):
        base = dict(n_apps=1, max_qos=1.5, alpha=None, drop_qos=False, drop_security=False, seed=0,
                    status="optimal", cost_total=1.0)
        report = check_trends([SweepRow(**{**base, **row}) for row in rows])
        by_name = {c.name: c for c in report.checks}
        assert by_name[check].applicable and not by_name[check].passed
        assert by_name[check].details == details
        assert f"[FAIL] {check}: {details}" in report.format()
        assert [c.name for c in report.checks if c.applicable and not c.passed] == [check]

    def test_format_mentions_every_check(self):
        report = check_trends(run_sweep(TINY_GRID, [0]))
        text = report.format()
        for check in report.checks:
            assert check.name in text


def test_grid_from_lists_cross_product():
    grid = grid_from_lists("g", [1, 2], [1.5], [None, 0.5], [Relaxations()])
    assert len(grid.cells) == 4
