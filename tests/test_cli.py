import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

REPO_ROOT = Path(__file__).resolve().parent.parent

from fogplace.cli import (
    EXIT_HEURISTIC_FAILED,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    main,
)
from fogplace.experiment import PRESETS
from fogplace.instance_io import instance_to_dict, save_instance
from fogplace.scenario import _COUNT_MAX, ScenarioConfig, generate_instance

from conftest import make_app, make_cloud, make_fog, make_instance


@pytest.fixture
def instance_file(tmp_path, two_app_instance):
    path = tmp_path / "inst.json"
    save_instance(two_app_instance, path)
    return path


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


# The instance written by `generate --seed 0` and the report `solve --out`
# writes for it: these pin both file formats byte for byte.
GENERATE_SEED0_SHA256 = "b94a2527e5fdf0588521789d1b63455775d1e2c8b799043829614e009fea5d51"
SOLVE_SEED0_REPORT_SHA256 = "d9e897ca50a983e6a67e3dbf611200a1f1fe466b389085d7dcf0eb04b0b35a6a"
# The `solve --export-lp` text for that instance, full model and --no-security.
EXPORT_LP_SEED0_SHA256 = {
    (): "f812f270073880138613dc7b3a579deb2c9aaefe79ae28fee3b89a3655a7adc7",
    ("--no-security",): "d613ee709f73c51658b7a369f863737041e3b5b7c145aa9ee10731b3f751f7aa",
}


def test_instance_and_report_bytes_pinned(tmp_path):
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    assert main(["generate", "--seed", "0", "--out", str(inst)]) == EXIT_OK
    assert main(["solve", str(inst), "--out", str(report)]) == EXIT_OK
    assert sha(inst) == GENERATE_SEED0_SHA256
    assert sha(report) == SOLVE_SEED0_REPORT_SHA256


@pytest.mark.parametrize("flags", sorted(EXPORT_LP_SEED0_SHA256))
def test_export_lp_bytes_pinned(tmp_path, flags):
    inst, lp = tmp_path / "inst.json", tmp_path / "model.lp"
    assert main(["generate", "--seed", "0", "--out", str(inst)]) == EXIT_OK
    assert main(["solve", str(inst), *flags, "--export-lp", str(lp)]) == EXIT_OK
    assert sha(lp) == EXPORT_LP_SEED0_SHA256[flags]


# The `solve --export-lp` text of 1-, 2- and 4-module apps on fog nodes with
# zero access delay, where the second app of each length runs its first
# module in zero time: the delay row's first, last and only-module terms,
# and the coefficients it leaves out for being zero.
EXPORT_LP_MIXED_CHAINS_SHA256 = "df4f0c053218f3f019f6acf359bca4f203e14f79307c6ee83a5de1bd95cd9749"


def test_export_lp_bytes_pinned_mixed_chains(tmp_path):
    apps = []
    for m in (1, 2, 4):
        inst = generate_instance(ScenarioConfig(n_apps=2, modules_per_app=m, fog_access_delay=0.0,
                                                exec_delay_overrides=((1, 0, 0.0),), seed=m))
        apps += [replace(app, id=f"m{m}_{app.id}") for app in inst.apps]
    path, lp = tmp_path / "inst.json", tmp_path / "model.lp"
    save_instance(inst.with_apps(tuple(apps)), path)
    assert main(["solve", str(path), "--export-lp", str(lp)]) == EXIT_OK
    assert sha(lp) == EXPORT_LP_MIXED_CHAINS_SHA256


# Values of the right type that no instance can hold: each once passed
# validate_config and then failed validate_instance (exit 1), was
# silently ignored, wrote an infinite farm (exit 0), or drew instances whose
# placements cost, or whose apps take, more than the float range holds.
BAD_CONFIG_VALUES = [
    ({"proc_speed_ref": float("nan")}, "proc_speed_ref must be"),
    ({"proc_speed_ref": float("inf")}, "proc_speed_ref must be"),
    ({"fog_proc_capacity": -5}, "fog_proc_capacity must be"),
    ({"cloud_comm_cost": float("inf")}, "cloud_comm_cost must be"),
    ({"fog_fog_delay": -1}, "fog_fog_delay must be"),
    ({"farm_width": float("inf")}, "farm_width must be"),
    ({"tx_ranges": [-5, 100]}, "tx_ranges[0] must be"),
    ({"exec_delay_overrides": [[0, 0, -1.0]]}, "exec_delay_overrides[0] delay must be"),
    ({"exec_delay_overrides": [[0, 7, 1.0]]}, "exec_delay_overrides[0] must be"),
    ({"fog_stor_cost": 1e308}, "fog_stor_cost: the cost of a placement can overflow"),
    ({"cloud_comm_cost": 1e308, "n_apps": 3}, "cloud_comm_cost: the cost of a placement can overflow"),
    ({"cloud_access_delay": 1e308}, "cloud_access_delay: an app's delay can overflow"),
    ({"proc_speed_ref": 1e-320}, "proc_speed_ref: an app's delay can overflow"),
    ({"n_apps": 2.7}, "bad n_apps 2.7 (expected an integer"),
    ({"n_apps": "3"}, "bad n_apps '3' (expected an integer"),
    ({"max_qos": True}, "bad max_qos True (expected a number"),
    ({"seed": 1.9}, "bad seed 1.9 (expected an integer"),
    ({"seed": True}, "bad seed True (expected an integer"),
    ({"proc_req_range": ["0.1", 2.0]}, "bad proc_req_range"),
    ({"exec_delay_overrides": [[0, 0.5, 1.0]]}, "bad exec_delay_overrides"),
    ({"fog_positions": [[5000, 1], [500, 500]]}, "fog_positions[0] must be inside the 1000.0x1000.0 farm"),
    # A count over its maximum: 1e308 once exited 1 (OverflowError) and 1e30 never ended.
    ({"n_apps": 1e308}, "n_apps must be at most"),
    ({"n_apps": 2**70}, "n_apps must be at most"),
    ({"n_fog": 3, "fog_positions": None, "tx_ranges": None, "n_apps": 1e30}, "n_apps must be at most"),
    *(({name: most + 1, "fog_positions": None, "tx_ranges": None}, f"{name} must be at most {most}, got")
      for name, most in _COUNT_MAX.items()),
]


def _value_paths(value, path=()):
    """The path of every value nested in a JSON document, outermost first."""
    if isinstance(value, (dict, list)):
        for key in value if isinstance(value, dict) else range(len(value)):
            yield path + (key,)
            yield from _value_paths(value[key], path + (key,))


DEFAULT_CONFIG = json.loads((REPO_ROOT / "configs" / "default.json").read_text())
HOSTILE_VALUES = [None, True, False, "", "1", [], {}, [[1, 2]], [[[0]]], 1e308, -1e308, 2**70, 0, -1, 0.5]
# Each mutation replaces one value of the shipped config, deletes it, or
# repeats it (a list entry only: a repeated object key reads as one).
CONFIG_MUTATIONS = [(path, op, value) for path in _value_paths(DEFAULT_CONFIG)
                    for op, value in [("delete", None), ("repeat", None),
                                      *(("replace", v) for v in HOSTILE_VALUES)]
                    if op != "repeat" or isinstance(path[-1], int)]


class TestGenerate:
    def test_stable_output_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--seed", "3", "--out", str(out1)]) == EXIT_OK
        assert main(["generate", "--seed", "3", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_config_is_input_error(self, tmp_path):
        code = main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT

    def test_shipped_default_config_matches_builtin(self, tmp_path):
        shipped = REPO_ROOT / "configs" / "default.json"
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--config", str(shipped), "--out", str(out1)]) == EXIT_OK
        assert main(["generate", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_config_value_is_input_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0}))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == EXIT_INPUT

    @pytest.mark.parametrize("doc", [
        {"proc_req_range": 5},
        {"proc_req_range": [0.1]},
        {"fog_positions": [[1.0], [2.0]]},
        {"n_fog": None},
        {"seed": "x"},
        [1, 2],
        # A pair or triple is a list of exactly that many entries.
        {"proc_req_range": {"a": 1}},
        {"proc_req_range": [0.1, 2.1, 99]},
        {"fog_positions": [[50, 500, 1], [500, 500]]},
        {"exec_delay_overrides": [[0, 0, 0.1, 5]]},
        {"tx_ranges": {"0": 100.0}},
        {"proc_req_range": [2, 1]},
        {"tx_ranges": [100.0]},
    ])
    def test_malformed_config_is_input_error(self, tmp_path, capsys, doc):
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "x.json"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        if isinstance(doc, dict):
            assert next(iter(doc)) in capsys.readouterr().err

    @pytest.mark.parametrize("doc,named", BAD_CONFIG_VALUES)
    def test_bad_config_value_names_the_field(self, tmp_path, capsys, doc, named):
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "x.json"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert named in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(mutation=st.sampled_from(CONFIG_MUTATIONS))
    def test_mutated_config_exits_0_or_2(self, tmp_path_factory, mutation):
        path, op, value = mutation
        doc = json.loads(json.dumps(DEFAULT_CONFIG))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "delete":
            del parent[path[-1]]
        elif op == "repeat":
            parent.insert(path[-1], parent[path[-1]])
        else:
            parent[path[-1]] = value
        work = tmp_path_factory.mktemp("mutant")
        cfg = write_json(work / "cfg.json", doc)
        code = main(["generate", "--config", str(cfg), "--out", str(work / "x.json")])
        assert code in (EXIT_OK, EXIT_INPUT)

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["generate", "--seed", "-1", "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert "seed must be" in capsys.readouterr().err

    def test_override_for_an_app_beyond_n_apps_is_kept(self, tmp_path):
        # A sweep varies n_apps over one base config, so an override may
        # name an app that a smaller cell does not draw.
        cfg = write_json(tmp_path / "cfg.json", {"n_apps": 2, "exec_delay_overrides": [[5, 0, 0.3]]})
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == EXIT_OK


class TestRate:
    def test_fig_style_layout(self, tmp_path, capsys):
        # Two fog nodes, one safely interior, one whose range crosses the fence.
        nodes = (make_cloud(), make_fog("f1", (500.0, 500.0)), make_fog("f2", (60.0, 500.0)))
        inst = make_instance([make_app()], nodes=nodes, rated=False)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert main(["rate", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        table = {line.split()[0]: line.split()[-1] for line in lines[1:]}
        assert table == {"cloud": "medium", "f1": "high", "f2": "low"}

    def test_cloud_only(self, tmp_path, capsys):
        inst = make_instance([make_app()], nodes=(make_cloud(),), rated=False)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert main(["rate", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "medium" in out and "fog" not in out.splitlines()[1]


@pytest.mark.parametrize("command", ["solve", "rate"])
class TestFogGeometry:
    @pytest.fixture
    def doc(self):
        return instance_to_dict(generate_instance(ScenarioConfig(n_apps=2)))

    @pytest.mark.parametrize("position", [[5000.0, 1.0], None])
    def test_bad_fog_position_is_input_error(self, tmp_path, doc, command, position):
        if position is None:
            del doc["nodes"][1]["position"]
        else:
            doc["nodes"][1]["position"] = position
        path = write_json(tmp_path / "inst.json", doc)
        assert main([command, str(path)]) == EXIT_INPUT

    def test_stored_ratings_are_rerated(self, tmp_path, capsys, doc, command):
        for node in doc["nodes"]:
            node["security_rating"] = "high"
        path = write_json(tmp_path / "inst.json", doc)
        assert main([command, str(path)]) == EXIT_OK
        if command == "rate":
            lines = capsys.readouterr().out.splitlines()
            table = {line.split()[0]: line.split()[-1] for line in lines[1:]}
            assert table == {"cloud": "medium", "fog1": "low", "fog2": "high"}


@pytest.mark.parametrize("command", ["solve", "rate"])
class TestMalformedInstance:
    @pytest.fixture
    def doc(self):
        return instance_to_dict(generate_instance(ScenarioConfig(seed=0)))

    @pytest.mark.parametrize("keys, value, named", [
        (("apps", 0, "inter_traffic"), [None, 0.5], "apps[0].inter_traffic[0]"),
        (("nodes",), 5, "nodes"),
        (("apps",), 5, "apps"),
        (("apps", 0, "modules"), 5, "apps[0].modules"),
        (("apps", 0, "inter_traffic"), 5, "apps[0].inter_traffic"),
        (("nodes", 1, "position"), [None, 1], "nodes[1].position[0]"),
        (("links", "delay", 0, 1), None, "links.delay[0][1]"),
        (("nodes", 1, "position"), [True, 500.0], "nodes[1].position[0]"),
        (("apps", 0, "inter_traffic"), [0.5, True], "apps[0].inter_traffic[1]"),
        (("links", "delay", 0, 1), True, "links.delay[0][1]"),
        (("links", "bw_cost", 2, 1), False, "links.bw_cost[2][1]"),
        (("apps", 0, "inter_traffic"), "12", "apps[0].inter_traffic"),
        (("apps", 0, "input_traffic"), 10 ** 400, "apps[0].input_traffic"),
        (("apps", 0, "id"), None, "apps[0].id"),
        (("nodes", 1, "id"), [1], "nodes[1].id"),
        (("nodes", 0, "id"), 7, "nodes[0].id"),
        (("nodes", 1, "security_rating"), "ultra", "nodes[1].security_rating"),
        (("nodes", 1, "tier"), "edge", "nodes[1].tier: unknown tier 'edge'"),
        (("nodes", 1, "position"), [50.0, 500.0, 1.0], "nodes[1].position: expected [x, y]"),
        (("links", "delay", 1), [0.5, 0.0], "links.delay[1]: expected 3 entries"),
        (("apps", 0, "security_req"), "ultra", "apps[0].security_req"),
        (("apps", 0, "security_req"), 3, "apps[0].security_req"),
    ])
    def test_malformed_field_is_input_error(self, tmp_path, capsys, doc, command, keys, value, named):
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path = write_json(tmp_path / "inst.json", doc)
        assert main([command, str(path)]) == EXIT_INPUT
        assert named in capsys.readouterr().err

    def test_unknown_stored_rating_is_input_error(self, tmp_path, capsys, doc, command):
        doc["nodes"][1]["security_rating"] = "ultra"
        path = write_json(tmp_path / "inst.json", doc)
        assert main([command, str(path)]) == EXIT_INPUT
        assert "'ultra'" in capsys.readouterr().err

    def test_overflowing_cost_is_input_error(self, tmp_path, capsys, doc, command):
        # Every field is finite, but each placement's cost overflows to inf.
        for node in doc["nodes"]:
            node["stor_cost"] = 1e308
        path = write_json(tmp_path / "inst.json", doc)
        out = tmp_path / "report.json"
        extra = ["--out", str(out)] if command == "solve" else []
        assert main([command, str(path), *extra]) == EXIT_INPUT
        assert "stor_cost: the cost of a placement can overflow to inf" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_strings_in_lists_still_parse(self, tmp_path, doc, command):
        doc["apps"][0]["inter_traffic"] = [str(x) for x in doc["apps"][0]["inter_traffic"]]
        doc["nodes"][1]["position"] = [str(x) for x in doc["nodes"][1]["position"]]
        doc["links"]["delay"][0][1] = str(doc["links"]["delay"][0][1])
        path = write_json(tmp_path / "inst.json", doc)
        assert main([command, str(path)]) == EXIT_OK


@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_invalid_json_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "doc.json"
    path.write_text("{not json")
    argv = {"generate": ["generate", "--config", str(path), "--out", str(tmp_path / "x.json")],
            "experiment": ["experiment", str(path), "--out", str(tmp_path / "x.csv")]}[command]
    assert main(argv) == EXIT_INPUT
    assert "not valid JSON" in capsys.readouterr().err


# json.loads keeps the last of repeated keys, so each of these once exited 0:
# with 5 apps, with fig4's grid, and with the farm's second width.
@pytest.mark.parametrize("kind, text, named", [
    ("config", '{"n_apps": 2, "n_apps": 5}', "repeated key 'n_apps'"),
    ("grid", '{"preset": "fig5", "preset": "fig4", "seeds": [0]}', "repeated key 'preset'"),
    ("instance", None, "repeated key 'width'"),
])
def test_repeated_key_is_input_error(tmp_path, capsys, instance_file, kind, text, named):
    path = tmp_path / "doc.json"
    out = tmp_path / "out"
    if text is None:  # the instance's farm object names its width twice
        text = instance_file.read_text().replace('"farm": {', '"farm": {"width": 1.0, ', 1)
        assert text.count('"width"') == 2
    path.write_text(text)
    argv = {"config": ["generate", "--config", str(path), "--out", str(out)],
            "grid": ["experiment", str(path), "--out", str(out)],
            "instance": ["solve", str(path), "--out", str(out)]}[kind]
    assert main(argv) == EXIT_INPUT
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "{dir}"],
    ["rate", "{dir}"],
    ["solve", "{inst}", "--out", "{dir}"],
    ["solve", "{inst}", "--export-lp", "{dir}"],
    ["generate", "--out", "{dir}"],
    ["experiment", "fig5", "--out", "{dir}"],
    ["solve", "{inst}", "--out", "{dir}/missing/r.json"],
])
def test_os_error_on_a_path_is_input_error(tmp_path, capsys, instance_file, argv):
    argv = [arg.format(dir=tmp_path, inst=instance_file) for arg in argv]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and argv[-1] in err


class TestSolve:
    def test_relaxed_run_is_no_dearer(self, instance_file, tmp_path, capsys):
        out_full = tmp_path / "full.json"
        out_relaxed = tmp_path / "relaxed.json"
        assert main(["solve", str(instance_file), "--out", str(out_full)]) == EXIT_OK
        assert main(["solve", str(instance_file), "--no-qos", "--no-security",
                     "--out", str(out_relaxed)]) == EXIT_OK
        full = json.loads(out_full.read_text())
        relaxed = json.loads(out_relaxed.read_text())
        assert relaxed["cost"]["total"] <= full["cost"]["total"] + 1e-12

    def test_export_lp(self, instance_file, tmp_path):
        lp = tmp_path / "model.lp"
        assert main(["solve", str(instance_file), "--export-lp", str(lp)]) == EXIT_OK
        text = lp.read_text()
        assert "Minimize" in text and "Binary" in text and "eq9_app0_mod0" in text

    # A model without apps has no variables and one without nodes has rows
    # over none: every expression of either reads 0.
    @pytest.mark.parametrize("apps, nodes, code", [
        ((), None, EXIT_OK),
        ((make_app(),), (), EXIT_INFEASIBLE),
    ])
    def test_export_lp_of_an_empty_model(self, tmp_path, apps, nodes, code):
        path, lp = tmp_path / "inst.json", tmp_path / "model.lp"
        save_instance(make_instance(apps, nodes=nodes), path)
        assert main(["solve", str(path), "--export-lp", str(lp)]) == code
        text = lp.read_text()
        assert text.startswith("\\ module placement model\nMinimize\n obj: 0\nSubject To\n")
        assert text.endswith("\nBinary\nEnd\n")
        rows = text[text.index("Subject To\n") + 11:text.index("Binary\n")].splitlines()
        assert rows and all(re.fullmatch(r" eq\w+: 0 (<=|>=|=) \S+", row) for row in rows)

    @pytest.mark.parametrize("qos, code", [(5.0, EXIT_OK), (0.05, EXIT_HEURISTIC_FAILED)])
    def test_greedy_solver(self, tmp_path, capsys, qos, code):
        path, out = tmp_path / "inst.json", tmp_path / "report.json"
        save_instance(make_instance([make_app(qos=qos)]), path)
        assert main(["solve", str(path), "--solver", "greedy", "--out", str(out)]) == code
        status = "feasible" if code == EXIT_OK else "heuristic_failed"
        assert f"status: {status}" in capsys.readouterr().out
        assert json.loads(out.read_text())["status"] == status

    def test_brute_matches_exact_on_one_app(self, tmp_path):
        inst = make_instance([make_app()])
        path = tmp_path / "one.json"
        save_instance(inst, path)
        out_e, out_b = tmp_path / "e.json", tmp_path / "b.json"
        assert main(["solve", str(path), "--out", str(out_e)]) == EXIT_OK
        assert main(["solve", str(path), "--solver", "brute", "--out", str(out_b)]) == EXIT_OK
        cost_e = json.loads(out_e.read_text())["cost"]["total"]
        cost_b = json.loads(out_b.read_text())["cost"]["total"]
        assert cost_e == pytest.approx(cost_b, rel=1e-9)

    def test_infeasible_exit_code(self, tmp_path):
        inst = make_instance([make_app(qos=0.05)])
        path = tmp_path / "bad.json"
        save_instance(inst, path)
        assert main(["solve", str(path)]) == EXIT_INFEASIBLE

    def test_oversized_brute_is_input_error(self, tmp_path):
        inst = make_instance([make_app(f"a{i}") for i in range(5)])
        path = tmp_path / "big.json"
        save_instance(inst, path)
        assert main(["solve", str(path), "--solver", "brute"]) == EXIT_INPUT

    def test_missing_instance_is_input_error(self, tmp_path):
        assert main(["solve", str(tmp_path / "ghost.json")]) == EXIT_INPUT

    @pytest.mark.parametrize("limit", ["0", "-1", "nan"])
    def test_bad_time_limit_is_input_error(self, instance_file, tmp_path, limit):
        lp = tmp_path / "model.lp"
        code = main(["solve", str(instance_file), "--time-limit", limit, "--export-lp", str(lp)])
        assert code == EXIT_INPUT
        assert not lp.exists()

    @pytest.mark.parametrize("solver", ["greedy", "brute"])
    def test_time_limit_needs_the_exact_solver(self, instance_file, tmp_path, capsys, solver):
        # Neither solver reads a clock: the limit would be silently ignored.
        out = tmp_path / "report.json"
        code = main(["solve", str(instance_file), "--solver", solver, "--time-limit", "0.5",
                     "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "--time-limit" in err and solver in err
        assert not out.exists()

    def test_inputs_never_mutated(self, instance_file):
        before = sha(instance_file)
        main(["solve", str(instance_file)])
        main(["rate", str(instance_file)])
        assert sha(instance_file) == before


class TestExperiment:
    def test_custom_grid_runs_and_repeats_identically(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "name": "mini",
            "cells": [
                {"n_apps": 1, "max_qos": 1.5},
                {"n_apps": 2, "max_qos": 3.0, "drop_security": True, "alpha": 0.5},
            ],
            "seeds": [0, 1],
        }))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["experiment", str(grid), "--out", str(out1)]) == EXIT_OK
        assert main(["experiment", str(grid), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("n_apps,")

    def test_preset_by_name(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"preset": "fig5", "seeds": [0]}))
        out = tmp_path / "fig5.csv"
        assert main(["experiment", str(grid), "--out", str(out)]) == EXIT_OK
        assert out.exists()
        assert "cost_nondecreasing_in_alpha" in capsys.readouterr().out

    def test_unknown_grid_field_is_input_error(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cells": [], "seed": [0]}))
        assert main(["experiment", str(grid), "--out", str(tmp_path / "x.csv")]) == EXIT_INPUT

    @pytest.mark.parametrize("doc", [
        {"preset": "fig9"},
        {"cells": [{"max_qos": 1.5}]},
        {"cells": [{"n_apps": None, "max_qos": 1.5}]},
        {"cells": [3]},
        {"cells": 5},
        {"preset": "fig5", "seeds": ["x"]},
        {"preset": "fig5", "seeds": 5},
        {"preset": "fig5", "base_config": {"n_fog": None}},
        {"preset": "fig5", "base_config": [1]},
        {"preset": "fig5", "seeds": [0], "base_config": {"proc_req_range": {"a": 1}}},
        {"seeds": [0]},
        [1, 2],
    ])
    def test_malformed_grid_is_input_error(self, tmp_path, doc):
        grid = write_json(tmp_path / "grid.json", doc)
        out = tmp_path / "x.csv"
        assert main(["experiment", str(grid), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()

    # Each of these once exited 0: the first three with a CSV whose rows all
    # read error:ValueError, the others with the value silently coerced.
    @pytest.mark.parametrize("doc,named", [
        ({"preset": "fig5", "seeds": [-1]}, "cells[0] with seed -1: seed must be"),
        ({"cells": [{"n_apps": -2, "max_qos": 1.5}], "seeds": [0]}, "cells[0] with seed 0: counts must"),
        ({"cells": [{"n_apps": 2, "max_qos": 3.0}, {"n_apps": 2, "max_qos": 0.1}], "seeds": [0]},
         "cells[1] with seed 0: need 0 < min_qos <= max_qos"),
        ({"cells": [{"n_apps": 2, "max_qos": 1.5, "drop_qos": "false"}], "seeds": [0]},
         "cells[0]: drop_qos: expected true or false"),
        ({"cells": [{"n_apps": 2.7, "max_qos": 1.5}], "seeds": [0]}, "cells[0]: n_apps: expected an integer"),
        ({"cells": [{"n_apps": "3", "max_qos": 1.5}], "seeds": [0]}, "cells[0]: n_apps: expected an integer"),
        ({"cells": [{"n_apps": 2, "max_qos": True}], "seeds": [0]}, "cells[0]: max_qos: expected a number"),
        ({"preset": "fig5", "seeds": [1.9]}, "seeds must be a list of integers"),
        ({"preset": "fig5", "seeds": [True]}, "seeds must be a list of integers"),
        ({"preset": "fig5", "seeds": "12"}, "seeds must be a list of integers"),
        ({"preset": "fig5", "seeds": [0, 0]}, "seeds: seed 0 is repeated"),
        ({"preset": "fig5", "seeds": [3, 0, 1, 0, 3]}, "seeds: seed 3 is repeated"),
        ({"cells": [{"n_apps": 2, "max_qos": 1.5}, {"n_apps": 1, "max_qos": 1.5},
                    {"n_apps": 2.0, "max_qos": 1.5, "alpha": None}], "seeds": [0, 1]},
         "cells[2] repeats cells[0]"),
        ({"cells": [{"n_apps": _COUNT_MAX["n_apps"] + 1, "max_qos": 1.5}], "seeds": [0]},
         f"cells[0] with seed 0: n_apps must be at most {_COUNT_MAX['n_apps']}"),
        ({"cells": [{"n_apps": 1e308, "max_qos": 1.5}], "seeds": [0]},
         "cells[0] with seed 0: n_apps must be at most"),
        ({"preset": "fig5", "seeds": list(range(1001))}, "seeds must hold at most 1000 seeds, got 1001"),
    ])
    def test_unusable_cell_or_seed_names_it(self, tmp_path, capsys, doc, named):
        grid = write_json(tmp_path / "grid.json", doc)
        out = tmp_path / "x.csv"
        assert main(["experiment", str(grid), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("doc,named", BAD_CONFIG_VALUES)
    def test_bad_base_config_value_names_the_field(self, tmp_path, capsys, doc, named):
        grid = write_json(tmp_path / "grid.json", {"preset": "fig5", "seeds": [0], "base_config": doc})
        out = tmp_path / "x.csv"
        assert main(["experiment", str(grid), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert named in capsys.readouterr().err

    def test_unknown_preset_name_lists_the_presets(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["experiment", "fig9", "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "fig9" in err and all(name in err for name in PRESETS)
        assert not out.exists()

    def test_help_names_exactly_the_presets(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--help"])
        assert exc.value.code == 0
        listed = re.search(r"preset name \(([^)]*)\)", " ".join(capsys.readouterr().out.split()))
        assert listed is not None
        assert listed.group(1).split(", ") == sorted(PRESETS)

    def test_preset_name_is_the_preset_document(self, tmp_path, capsys):
        grid = write_json(tmp_path / "grid.json", {"preset": "fig5"})
        by_name, by_doc = tmp_path / "name.csv", tmp_path / "doc.csv"
        assert main(["experiment", "fig5", "--out", str(by_name)]) == EXIT_OK
        name_stdout = capsys.readouterr().out
        assert main(["experiment", str(grid), "--out", str(by_doc)]) == EXIT_OK
        assert by_name.read_bytes() == by_doc.read_bytes()
        assert capsys.readouterr().out == name_stdout.replace("-> " + str(by_name), "-> " + str(by_doc))


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "fogplace.cli", "--help"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "experiment" in proc.stdout


# Run in a fresh interpreter: no command loads numpy, drawing scenarios
# included; the package has no runtime dependency.
_NUMPY_PROBE = """
import sys
from fogplace.cli import main
inst, grid, out = sys.argv[1:]
seen = []
for argv in (["rate", inst], ["solve", inst, "--out", out + ".report", "--export-lp", out + ".lp"],
             ["generate", "--seed", "0", "--out", out + ".inst"], ["experiment", grid, "--out", out + ".csv"]):
    assert main(argv) == 0
    seen.append(f"{argv[0]} {'numpy' in sys.modules}")
print(*seen, sep="\\n")
"""


def test_no_command_loads_numpy(instance_file, tmp_path):
    grid = write_json(tmp_path / "grid.json", {"cells": [{"n_apps": 2, "max_qos": 1.5}], "seeds": [0]})
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, str(instance_file), str(grid),
                           str(tmp_path / "out")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-4:] == ["rate False", "solve False", "generate False", "experiment False"]


# Run in a fresh interpreter: rating and solving must load neither the
# scenario generator nor the sweep harness; each loads with its own command.
_COMMAND_MODULES_PROBE = """
import sys
from fogplace.cli import main
inst, grid, out = sys.argv[1:]
seen = []
def loaded():
    seen.append(" ".join(str(name in sys.modules) for name in ("fogplace.scenario", "fogplace.experiment")))
assert main(["rate", inst]) == 0
seen.append(" ".join(sorted(name for name in sys.modules if name.partition(".")[0] == "fogplace")))
assert main(["solve", inst, "--out", out + ".report", "--export-lp", out + ".lp"]) == 0
loaded()
assert main(["generate", "--seed", "0", "--out", out + ".inst"]) == 0
loaded()
assert main(["experiment", grid, "--out", out + ".csv"]) == 0
loaded()
print(*seen, sep="\\n")
"""


def test_solve_and_rate_load_neither_scenario_nor_experiment(instance_file, tmp_path):
    grid = write_json(tmp_path / "grid.json", {"cells": [{"n_apps": 1, "max_qos": 1.5}], "seeds": [0]})
    proc = subprocess.run([sys.executable, "-c", _COMMAND_MODULES_PROBE, str(instance_file), str(grid),
                           str(tmp_path / "out")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    *_, rate_modules, solved, generated, swept = proc.stdout.splitlines()
    # The start-up cost of `rate` (and of `solve`, which adds nothing) is what
    # these modules take to import; a new one here is a new cost.
    assert rate_modules.split() == ["fogplace", *(f"fogplace.{name}" for name in (
        "cli", "ilp", "instance_io", "metrics", "model", "security", "solver"))]
    assert [solved, generated, swept] == ["False False", "True False", "True True"]
