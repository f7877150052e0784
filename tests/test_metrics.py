import dataclasses
import itertools

import pytest

from fogplace.metrics import count_deployed, metrics_for, resource_cost, unprotected_data
from fogplace.model import Placement, SecurityLevel
from fogplace.scenario import ScenarioConfig, generate_instance
from fogplace.solver import SolveStatus, solve_exact

from conftest import make_app, make_cloud, make_fog, make_instance


class TestResourceCost:
    def test_equals_breakdown_total(self, tiny_instance):
        report = solve_exact(tiny_instance)
        assert resource_cost(report) == report.cost.total

    def test_hand_computed_case(self, tiny_instance):
        # Force the all-cloud chain by relaxing nothing; it is also optimal here.
        p = Placement({"a1": ("cloud",) * 3})
        from fogplace.ilp import eval_cost
        assert eval_cost(tiny_instance, p).total == pytest.approx(0.0195, abs=1e-12)

    def test_infeasible_report_rejected(self):
        inst = make_instance([make_app(qos=0.05)])  # exec delay alone is 0.3 s
        report = solve_exact(inst)
        assert report.status is SolveStatus.INFEASIBLE
        with pytest.raises(ValueError):
            resource_cost(report)


class TestCountDeployed:
    def test_all_on_fog(self):
        apps = [make_app(f"a{i}", proc=0.1) for i in range(7)]
        inst = make_instance(apps)
        p = Placement({a.id: ("fog_hi",) * 3 for a in inst.apps})
        assert count_deployed(inst, p) == (0, 21)

    def test_missing_module_is_a_value_error(self, tiny_instance):
        with pytest.raises(ValueError, match="2 of its 3 modules placed"):
            count_deployed(tiny_instance, Placement({"a1": ("cloud", "cloud")}))

    def test_partition_over_all_placements(self, two_app_instance):
        ids = [n.id for n in two_app_instance.nodes]
        for combo in itertools.islice(itertools.product(ids, repeat=6), 0, 729, 7):
            p = Placement({"a1": combo[:3], "a2": combo[3:]})
            cloud, fog = count_deployed(two_app_instance, p)
            assert cloud + fog == two_app_instance.total_modules


class TestUnprotectedData:
    def test_inbound_attribution(self):
        # First two modules sit on the medium cloud while the app needs high:
        # the sensor stream and the first internal edge leak, nothing else.
        app = make_app(security=SecurityLevel.HIGH, input_traffic=0.002, inter=(0.3, 0.2))
        inst = make_instance([app])
        p = Placement({"a1": ("cloud", "cloud", "fog_hi")})
        assert unprotected_data(inst, p) == pytest.approx(0.302, abs=1e-12)

    def test_enforced_solution_leaks_nothing(self, two_app_instance):
        report = solve_exact(two_app_instance)
        assert unprotected_data(two_app_instance, report.placement) == 0.0

    def test_low_requirement_never_leaks(self):
        inst = make_instance([make_app(security=SecurityLevel.LOW)])
        ids = [n.id for n in inst.nodes]
        for combo in itertools.product(ids, repeat=3):
            p = Placement({"a1": combo})
            assert unprotected_data(inst, p) == 0.0

    def test_monotone_in_requirement(self, two_app_instance):
        ids = [n.id for n in two_app_instance.nodes]
        levels = [SecurityLevel.LOW, SecurityLevel.MEDIUM, SecurityLevel.HIGH]
        for combo in itertools.islice(itertools.product(ids, repeat=6), 0, 729, 11):
            p = Placement({"a1": combo[:3], "a2": combo[3:]})
            previous = None
            for level in levels:
                apps = tuple(dataclasses.replace(a, security_req=level)
                             for a in two_app_instance.apps)
                raised = dataclasses.replace(two_app_instance, apps=apps)
                value = unprotected_data(raised, p)
                if previous is not None:
                    assert value >= previous
                previous = value

    def test_unrated_nodes_rejected(self):
        no_range = dataclasses.replace(make_fog("f", (500.0, 500.0)), tx_range=None)
        inst = make_instance([make_app()], nodes=(make_cloud(), no_range), rated=False)
        p = Placement({"a1": ("cloud",) * 3})
        with pytest.raises(ValueError, match="to be rated"):
            unprotected_data(inst, p)


class TestMetricsFor:
    def test_assembles_all_three(self):
        inst = generate_instance(ScenarioConfig(n_apps=3, seed=1))
        report = solve_exact(inst)
        m = metrics_for(inst, report)
        assert m.resource_cost == report.cost.total
        assert m.modules_on_cloud + m.modules_on_fog == 9
        assert m.unprotected_data == 0.0  # security constraint was active
