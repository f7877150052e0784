import dataclasses
import itertools

import pytest

from fogplace.ilp import (
    Relaxations,
    build_model,
    check_feasibility,
    eval_cost,
    eval_delay,
    export_lp,
    objective_value,
    placement_to_vector,
    x_name,
)
from fogplace.model import Placement, SecurityLevel

from conftest import make_app, make_cloud, make_fog, make_instance

RELAX_ALL = Relaxations(drop_qos=True, drop_security=True)


def all_placements(inst):
    ids = [n.id for n in inst.nodes]
    for chains in itertools.product(*(itertools.product(ids, repeat=a.n_modules) for a in inst.apps)):
        yield Placement({a.id: chain for a, chain in zip(inst.apps, chains)})


def row_value(row, vec):
    return sum(c * vec.get(name, 0.0) for name, c in row.coeffs.items())


def row_satisfied(row, vec, tol=1e-12):
    value = row_value(row, vec)
    if row.sense == "<=":
        return value <= row.rhs + tol
    if row.sense == ">=":
        return value >= row.rhs - tol
    return abs(value - row.rhs) <= tol


class TestBuildModel:
    def test_variable_counts(self, tiny_instance, two_app_instance):
        model = build_model(tiny_instance, RELAX_ALL)
        xs = [v for v in model.variables if v.startswith("x_")]
        zs = [v for v in model.variables if v.startswith("z_")]
        assert len(xs) == 9 and len(zs) == 18
        model2 = build_model(two_app_instance)
        assert len(model2.variables) == 2 * 3 * 3 + 2 * 2 * 9

    def test_relaxations_remove_their_rows(self, two_app_instance):
        model = build_model(two_app_instance, RELAX_ALL)
        assert model.rows_tagged("eq7") == []
        assert model.rows_tagged("eq8") == []
        for tag in ("eq2", "eq3", "eq4", "eq9", "eq11", "eq12", "eq13", "eq14"):
            assert model.rows_tagged(tag), f"missing {tag} rows"

    def test_full_model_has_qos_and_security_rows(self, two_app_instance):
        model = build_model(two_app_instance)
        assert len(model.rows_tagged("eq7")) == 2  # one per app
        assert len(model.rows_tagged("eq8")) == 6  # one per module

    def test_assignment_row_count(self, two_app_instance):
        model = build_model(two_app_instance, RELAX_ALL)
        assert len(model.rows_tagged("eq9")) == 6

    def test_one_module_delay_row_sums_both_attaches_and_exec(self):
        # build_model adds sensor + user, then exec.  The fog node's delays
        # round apart if exec comes first (0.9999999999999999 against 1.0).
        assert (0.3 + 0.6) + 0.1 != (0.1 + 0.3) + 0.6
        nodes = (make_cloud(), make_fog("f", (500.0, 500.0), sensor_delay=0.3, user_delay=0.6))
        inst = make_instance([make_app(n=1, exec_delay=0.1)], nodes=nodes)
        row, = build_model(inst).rows_tagged("eq7")
        assert row.coeffs == {x_name(0, 0, k): (n.sensor_delay + n.user_delay) + 0.1
                              for k, n in enumerate(inst.nodes)}

    def test_unrated_instance_needs_relaxation(self, tiny_instance):
        no_range = dataclasses.replace(make_fog("f", (500.0, 500.0)), tx_range=None)
        unrated = make_instance([make_app()], nodes=(make_cloud(), no_range), rated=False)
        with pytest.raises(ValueError, match="to be rated"):
            build_model(unrated)
        build_model(unrated, Relaxations(drop_security=True))  # fine without eq8


class TestEvalCost:
    def test_hand_computed_cloud_chain(self, tiny_instance):
        p = Placement({"a1": ("cloud",) * 3})
        cost = eval_cost(tiny_instance, p)
        assert cost.processing == pytest.approx(0.009, abs=1e-12)
        assert cost.storage == pytest.approx(0.0015, abs=1e-12)
        assert cost.sensor_comm == pytest.approx(0.006, abs=1e-12)
        assert cost.inter_comm == 0.0  # co-located chain, self-loop links are free
        assert cost.user_comm == pytest.approx(0.003, abs=1e-12)
        assert cost.total == pytest.approx(0.0195, abs=1e-12)

    def test_zero_demand_costs_nothing(self):
        app = make_app(exec_delay=0.0, stor=0.0, proc=0.0, mem=0.0,
                       input_traffic=0.0, output_traffic=0.0, inter=(0.0, 0.0))
        inst = make_instance([app])
        for p in all_placements(inst):
            assert eval_cost(inst, p).total == 0.0

    def test_doubling_unit_costs_doubles_every_term(self, tiny_instance):
        doubled_nodes = tuple(dataclasses.replace(
            n, proc_cost=2 * n.proc_cost, stor_cost=2 * n.stor_cost,
            sensor_bw_cost=2 * n.sensor_bw_cost, user_bw_cost=2 * n.user_bw_cost,
        ) for n in tiny_instance.nodes)
        doubled_links = dataclasses.replace(
            tiny_instance.links,
            bw_cost=tuple(tuple(2 * v for v in row) for row in tiny_instance.links.bw_cost))
        doubled = dataclasses.replace(tiny_instance, nodes=doubled_nodes, links=doubled_links)
        for p in all_placements(tiny_instance):
            a = eval_cost(tiny_instance, p)
            b = eval_cost(doubled, p)
            assert b.processing == 2 * a.processing
            assert b.storage == 2 * a.storage
            assert b.sensor_comm == 2 * a.sensor_comm
            assert b.inter_comm == 2 * a.inter_comm
            assert b.user_comm == 2 * a.user_comm

    def test_total_is_sum_of_parts(self, two_app_instance):
        for p in all_placements(two_app_instance):
            cost = eval_cost(two_app_instance, p)
            parts = (cost.processing + cost.storage + cost.sensor_comm
                     + cost.inter_comm + cost.user_comm)
            assert cost.total == pytest.approx(parts, rel=1e-12)

    def test_positive_costs_and_demand_give_positive_total(self, two_app_instance):
        for p in all_placements(two_app_instance):
            assert eval_cost(two_app_instance, p).total > 0.0

    def test_inconsistent_placement_rejected(self, tiny_instance):
        p = Placement({"a1": ("cloud", "cloud")})
        with pytest.raises(ValueError):
            eval_cost(tiny_instance, p)


class TestEvalDelay:
    def test_co_located_on_fog(self, tiny_instance):
        p = Placement({"a1": ("fog_hi",) * 3})
        comm, exe = eval_delay(tiny_instance, p, tiny_instance.apps[0])
        assert comm == pytest.approx(0.01 + 0.01)
        assert exe == pytest.approx(0.3)

    def test_fog_cloud_fog_round_trip(self, tiny_instance):
        p = Placement({"a1": ("fog_hi", "cloud", "fog_hi")})
        comm, _ = eval_delay(tiny_instance, p, tiny_instance.apps[0])
        # two cloud hops at 0.5 s each, plus the fog attach delays
        assert comm == pytest.approx(0.01 + 0.5 + 0.5 + 0.01)

    def test_exec_delay_is_placement_independent(self, tiny_instance):
        app = tiny_instance.apps[0]
        for p in all_placements(tiny_instance):
            assert eval_delay(tiny_instance, p, app)[1] == pytest.approx(0.3)

    def test_unplaced_app_rejected(self, tiny_instance):
        p = Placement({"a1": ("cloud",)})
        with pytest.raises(ValueError):
            eval_delay(tiny_instance, p, tiny_instance.apps[0])


class TestCheckFeasibility:
    def test_capacity_overload_reported(self):
        apps = [make_app(f"a{i}", proc=3.0, qos=50.0) for i in range(7)]
        inst = make_instance(apps)
        p = Placement({a.id: ("fog_hi",) * 3 for a in inst.apps})
        violations = check_feasibility(inst, p, RELAX_ALL)
        eq2 = [v for v in violations if v.tag == "eq2"]
        assert len(eq2) == 1
        assert eq2[0].slack == pytest.approx(63.0 - 50.0)

    def test_security_violation_unless_relaxed(self):
        inst = make_instance([make_app(security=SecurityLevel.HIGH, qos=50.0)])
        p = Placement({"a1": ("cloud",) * 3})
        tags = {v.tag for v in check_feasibility(inst, p)}
        assert "eq8" in tags
        assert check_feasibility(inst, p, Relaxations(drop_security=True)) == []

    def test_delay_violation_slack(self):
        app = make_app(n=1, exec_delay=0.68, qos=0.5)
        inst = make_instance([app])
        p = Placement({"a1": ("fog_hi",)})
        violations = check_feasibility(inst, p)
        eq7 = [v for v in violations if v.tag == "eq7"]
        assert len(eq7) == 1
        assert eq7[0].slack == pytest.approx(0.2, abs=1e-9)  # 0.7 s against a 0.5 s bound

    def test_feasible_under_full_stays_feasible_under_any_relaxation(self, two_app_instance):
        relaxed = [Relaxations(drop_qos=True), Relaxations(drop_security=True), RELAX_ALL]
        for p in all_placements(two_app_instance):
            if not check_feasibility(two_app_instance, p):
                for r in relaxed:
                    assert check_feasibility(two_app_instance, p, r) == []

    def test_incomplete_placement_reports_eq9_and_eq14(self, tiny_instance):
        p = Placement({"a1": ("cloud", "cloud")})
        tags = {v.tag for v in check_feasibility(tiny_instance, p, RELAX_ALL)}
        assert "eq9" in tags


    def test_missing_module_gets_no_delay_or_security_check(self):
        # A HIGH app on the low-rated fog, far over its delay bound, were it whole.
        inst = make_instance([make_app(security=SecurityLevel.HIGH, qos=0.01)])
        p = Placement({"a1": ("fog_lo", "fog_lo")})
        assert [(v.tag, v.indices) for v in check_feasibility(inst, p)] == [
            ("eq9", ("a1", 2)), ("eq8", ("a1", 0, "fog_lo")), ("eq8", ("a1", 1, "fog_lo"))]

    def test_unknown_node_is_a_value_error(self, tiny_instance):
        p = Placement({"a1": ("cloud", "nope", "cloud")})
        for check in (check_feasibility, eval_cost):
            with pytest.raises(ValueError, match="unknown node 'nope'"):
                check(tiny_instance, p)

    @pytest.mark.parametrize("assign", [{"a1": ("cloud",) * 4},  # 4 hosts for 3 modules
                                        {"a1": ("cloud",) * 3, "ghost": ("cloud",)}])
    def test_stray_host_or_app_is_a_value_error(self, tiny_instance, assign):
        p = Placement(assign)
        for check in (check_feasibility, eval_cost):
            with pytest.raises(ValueError):
                check(tiny_instance, p)
        with pytest.raises(ValueError):
            eval_delay(tiny_instance, p, tiny_instance.apps[0])


class TestLinearization:
    def test_binary_points_admit_exactly_the_products(self, tiny_instance):
        model = build_model(tiny_instance, RELAX_ALL)
        rows_by_name = {r.name: r for r in model.constraints}
        for p in all_placements(tiny_instance):
            vec = placement_to_vector(tiny_instance, p)
            for row in model.constraints:
                assert row_satisfied(row, vec), f"{row.name} violated at binary point"
            # Any z flipped away from the product of its endpoints breaks a row.
            for j in range(2):
                for u in range(3):
                    for v in range(3):
                        name = f"z_0_{j}_{u}_{v}"
                        flipped = dict(vec)
                        flipped[name] = 1.0 - vec.get(name, 0.0)
                        trio = [rows_by_name[f"eq{k}_app0_edge{j}_u{u}_v{v}"]
                                for k in (11, 12, 13)]
                        assert not all(row_satisfied(r, flipped) for r in trio)

    def test_objective_equals_eval_cost_exhaustively(self, two_app_instance):
        model = build_model(two_app_instance, RELAX_ALL)
        count = 0
        for p in all_placements(two_app_instance):
            vec = placement_to_vector(two_app_instance, p)
            cost = eval_cost(two_app_instance, p).total
            assert objective_value(model, vec) == pytest.approx(cost, rel=1e-9)
            count += 1
        assert count == 3 ** 6


class TestExportLp:
    def test_one_binary_declaration_per_variable(self, two_app_instance):
        model = build_model(two_app_instance)
        text = export_lp(model)
        body = text.split("Binary\n", 1)[1].split("\nEnd", 1)[0]
        declared = [line.strip() for line in body.splitlines() if line.strip()]
        assert declared == list(model.variables)

    def test_relaxed_model_has_no_security_rows(self, two_app_instance):
        text = export_lp(build_model(two_app_instance, Relaxations(drop_security=True)))
        assert "eq8" not in text
        assert "eq7_app0" in text

    def test_sections_present(self, tiny_instance):
        text = export_lp(build_model(tiny_instance))
        for section in ("Minimize", "Subject To", "Binary", "End"):
            assert section in text

    def test_export_is_byte_stable(self, two_app_instance):
        a = export_lp(build_model(two_app_instance))
        b = export_lp(build_model(two_app_instance))
        assert a == b
