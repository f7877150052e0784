import dataclasses
import json

import pytest

from fogplace.model import (
    FarmGeometry,
    Placement,
    SecurityLevel,
    placement_is_consistent,
    validate_instance,
)
from fogplace import instance_io
from fogplace.ilp import Relaxations
from fogplace.solver import solve_exact

from conftest import make_app, make_cloud, make_fog, make_instance


def full_assignment(inst, node_id="cloud"):
    return {a.id: (node_id,) * a.n_modules for a in inst.apps}


class TestValidateInstance:
    def test_wellformed_instance_is_clean(self, tiny_instance):
        assert validate_instance(tiny_instance) == []

    def test_inter_traffic_length_mismatch(self):
        app = dataclasses.replace(make_app(), inter_traffic=(0.1, 0.2, 0.3))
        inst = make_instance([app])
        report = validate_instance(inst)
        assert any("n-1 = 2" in v for v in report)

    def test_fog_outside_farm(self):
        nodes = (make_cloud(), make_fog("f1", (-5.0, 10.0)))
        inst = make_instance([make_app()], nodes=nodes, farm=FarmGeometry(100.0, 100.0), rated=False)
        assert any("outside farm" in v for v in validate_instance(inst))

    def test_negative_cost_flagged(self):
        nodes = (make_cloud(proc_cost=-0.1), make_fog("f1", (500.0, 500.0)))
        inst = make_instance([make_app()], nodes=nodes, rated=False)
        assert any("proc_cost" in v for v in validate_instance(inst))

    @staticmethod
    def with_links(inst, **matrices):
        return dataclasses.replace(inst, links=dataclasses.replace(inst.links, **matrices))

    def test_ragged_link_row(self, tiny_instance):
        delay = list(tiny_instance.links.delay)
        delay[1] = delay[1][:2]
        inst = self.with_links(tiny_instance, delay=tuple(delay))
        assert validate_instance(inst) == ["links.delay must be a 3x3 matrix in node order"]

    def test_wrong_link_row_count(self, tiny_instance):
        inst = self.with_links(tiny_instance, bw_cost=tiny_instance.links.bw_cost[:2])
        assert validate_instance(inst) == ["links.bw_cost must be a 3x3 matrix in node order"]

    def test_negative_link_entry_names_both_nodes(self, tiny_instance):
        bw = [list(row) for row in tiny_instance.links.bw_cost]
        bw[2][1] = -1.0
        inst = self.with_links(tiny_instance, bw_cost=tuple(map(tuple, bw)))
        assert validate_instance(inst) == [
            "links.bw_cost[fog_hi, fog_lo] must be finite and nonnegative, got -1.0"]

    def test_nonzero_self_loop_flagged(self, tiny_instance):
        delay = [list(row) for row in tiny_instance.links.delay]
        delay[0][0] = 0.25
        inst = self.with_links(tiny_instance, delay=tuple(map(tuple, delay)))
        assert any("co-location" in v for v in validate_instance(inst))

    def test_overflowing_link_cost_is_named(self):
        # Each entry is finite, but 2 Gb on the dearest link cost 2e308.
        inst = make_instance([make_app(inter=(1.0, 1.0))])
        bw = [list(row) for row in inst.links.bw_cost]
        bw[1][2] = 1e308
        inst = self.with_links(inst, bw_cost=tuple(map(tuple, bw)))
        assert validate_instance(inst) == ["links.bw_cost: the cost of a placement can overflow to inf"]

    def test_overflowing_delay_is_named(self):
        nodes = (make_cloud(sensor_delay=1e308, user_delay=1e308), make_fog("f1", (500.0, 500.0)))
        inst = make_instance([make_app()], nodes=nodes)
        assert validate_instance(inst) == ["user_delay: an app's delay can overflow to inf"]

    @pytest.mark.parametrize("apps, nodes, farm, named", [
        ([make_app("a1"), make_app("a1")], None, None, "duplicate application id 'a1'"),
        ([dataclasses.replace(make_app(), modules=(), inter_traffic=())], None, None,
         "app a1: module chain must be nonempty"),
        ([make_app(stor=-0.5)], None, None, "app a1 module 0: stor_req must be finite and nonnegative"),
        ([make_app(input_traffic=-0.1)], None, None, "app a1: input_traffic must be finite and nonnegative"),
        ([make_app(inter=(0.3, -0.2))], None, None, "app a1: inter_traffic[1] must be finite and nonnegative"),
        ([make_app(qos=0.0)], None, None, "app a1: qos_threshold must be finite and > 0"),
        ([make_app()], (make_cloud(),), FarmGeometry(0.0, 100.0), "farm rectangle must have positive size"),
        ([make_app()], (make_cloud(), make_fog("f1", None)), None, "node f1: fog node needs a position"),
        ([make_app()], (make_cloud(), make_fog("f1", (500.0, 500.0), tx_range=None)), None,
         "node f1: fog node needs a transmission range"),
        ([make_app()], (make_cloud(), make_fog("f1", (500.0, 500.0), tx_range=0.0)), None,
         "node f1: tx_range must be finite and > 0"),
    ])
    def test_app_and_node_fields_flagged(self, apps, nodes, farm, named):
        inst = make_instance(apps, nodes=nodes, farm=farm, rated=False)
        assert named in "\n".join(validate_instance(inst))

    def test_duplicate_node_ids(self):
        nodes = (make_cloud(), make_fog("f1", (500.0, 500.0)), make_fog("f1", (400.0, 400.0)))
        inst = make_instance([make_app()], nodes=nodes, rated=False)
        assert any("duplicate node id" in v for v in validate_instance(inst))

    def test_idempotent_and_pure(self, tiny_instance):
        first = validate_instance(tiny_instance)
        second = validate_instance(tiny_instance)
        assert first == second == []


class TestPlacementConsistency:
    def test_identity_edge_map_is_consistent(self, tiny_instance):
        p = Placement(full_assignment(tiny_instance))
        assert placement_is_consistent(tiny_instance, p)

    def test_missing_module_is_inconsistent(self, tiny_instance):
        assign = full_assignment(tiny_instance)
        assign["a1"] = assign["a1"][:2]
        p = Placement(assign)
        assert not placement_is_consistent(tiny_instance, p)

    def test_stray_module_is_inconsistent(self, tiny_instance):
        assign = full_assignment(tiny_instance)
        assign["a1"] += ("cloud",)  # the chain has modules 0..2 only
        assert not placement_is_consistent(tiny_instance, Placement(assign))

    def test_unknown_app_id_raises(self, tiny_instance):
        p = Placement(assign={"ghost": ("cloud",)})
        with pytest.raises(ValueError):
            placement_is_consistent(tiny_instance, p)

    def test_unknown_node_id_raises(self, tiny_instance):
        p = Placement(assign={"a1": ("nowhere",)})
        with pytest.raises(ValueError):
            placement_is_consistent(tiny_instance, p)


class TestInstanceFiles:
    def test_round_trip_is_lossless(self, two_app_instance, tmp_path):
        path = tmp_path / "inst.json"
        instance_io.save_instance(two_app_instance, path)
        again = instance_io.load_instance(path)
        assert again == two_app_instance
        instance_io.save_instance(again, tmp_path / "inst2.json")
        assert (tmp_path / "inst.json").read_bytes() == (tmp_path / "inst2.json").read_bytes()

    def test_unknown_field_rejected(self, tiny_instance, tmp_path):
        doc = instance_io.instance_to_dict(tiny_instance)
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            instance_io.instance_from_dict(doc)

    def test_unknown_node_field_rejected(self, tiny_instance):
        doc = instance_io.instance_to_dict(tiny_instance)
        doc["nodes"][0]["favourite_colour"] = "green"
        with pytest.raises(ValueError, match="unknown fields"):
            instance_io.instance_from_dict(doc)

    def test_bad_matrix_shape_rejected(self, tiny_instance):
        doc = instance_io.instance_to_dict(tiny_instance)
        doc["links"]["delay"] = doc["links"]["delay"][:2]
        with pytest.raises(ValueError, match="matrix"):
            instance_io.instance_from_dict(doc)

    @pytest.mark.parametrize("edit", ["source", "target", "drop"])
    def test_report_edge_map_must_match_its_assign(self, two_app_instance, tmp_path, edit):
        path = tmp_path / "report.json"
        report = solve_exact(two_app_instance, Relaxations(drop_qos=True, drop_security=True))
        instance_io.save_report(two_app_instance, report, path)
        doc = json.loads(path.read_text())["placement"]
        assert instance_io.placement_from_dict(doc) == report.placement
        pairs = doc["edge_map"]["a1"]
        others = [n.id for n in two_app_instance.nodes if n.id not in pairs[0]]
        if edit == "source":
            pairs[0][0] = others[0]
        elif edit == "target":
            pairs[0][1] = others[0]
        else:
            del pairs[-1]
        with pytest.raises(ValueError, match="edge_map"):
            instance_io.placement_from_dict(doc)

    @pytest.mark.parametrize("assign", [5, {"a1": 5}, {"a1": "xy"}, {"a1": ["x", 7]}])
    def test_report_assign_must_be_lists_of_node_ids(self, assign):
        doc = {"assign": assign, "edge_map": {"a1": [["x", "y"]]}}
        with pytest.raises(ValueError, match=r"placement\.assign"):
            instance_io.placement_from_dict(doc)

    def test_non_finite_values_are_never_written(self, tiny_instance, two_app_instance, tmp_path):
        nodes = (dataclasses.replace(tiny_instance.nodes[0], proc_cost=float("nan")), *tiny_instance.nodes[1:])
        with pytest.raises(ValueError, match="JSON compliant"):
            instance_io.save_instance(dataclasses.replace(tiny_instance, nodes=nodes), tmp_path / "i.json")
        report = solve_exact(two_app_instance, Relaxations(drop_qos=True))
        report = dataclasses.replace(report, per_app_delay={"a1": (float("inf"), 0.0), "a2": (0.0, 0.0)})
        with pytest.raises(ValueError, match="JSON compliant"):
            instance_io.save_report(two_app_instance, report, tmp_path / "r.json")
        assert list(tmp_path.iterdir()) == []

    def test_loaded_instance_still_validates(self, two_app_instance, tmp_path):
        path = tmp_path / "inst.json"
        instance_io.save_instance(two_app_instance, path)
        assert validate_instance(instance_io.load_instance(path)) == []


def test_exec_total_sums_left_to_right():
    # Ten 0.1 s modules: 0.9999999999999999 left to right, 1.0 correctly
    # rounded (what builtin ``sum`` gives from Python 3.12 on).
    assert make_app(n=10, exec_delay=0.1).exec_total == 0.9999999999999999


def test_security_level_numeric_image():
    assert int(SecurityLevel.LOW) == 1
    assert int(SecurityLevel.MEDIUM) == 2
    assert int(SecurityLevel.HIGH) == 3
    assert SecurityLevel.LOW < SecurityLevel.MEDIUM < SecurityLevel.HIGH
    assert SecurityLevel.from_name("medium") is SecurityLevel.MEDIUM
    with pytest.raises(ValueError):
        SecurityLevel.from_name("ultra")
