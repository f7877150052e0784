"""Byte-identical output under every installed CPython 3.10+.

The scenario streams, the solver and the file writers are pure Python, so
``generate``, ``solve --out --export-lp``, a timed ``solve --time-limit
--out`` and ``experiment`` must write the same bytes under any supported
interpreter.  The timed solve is a packing_search-layout instance (random
fog positions) that the chain search decides after backtracking, so its
report holds that search's counters.  Each pyenv-installed CPython 3.1x
found runs the commands with the sources on ``PYTHONPATH``; the test skips
when none is installed.  The versions directory is globbed directly, since
pyenv shims resolve only the versions a project selects.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fogplace.cli import EXIT_OK, main

SRC = Path(__file__).resolve().parent.parent / "src"
PYENV_ROOT = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
PYTHONS = sorted(PYENV_ROOT.glob("versions/3.1[0-9]*/bin/python"))

GRID = {"cells": [{"n_apps": 3, "max_qos": 1.5}, {"n_apps": 5, "max_qos": 3.0, "alpha": 0.5}],
        "seeds": [0, 1]}
PACKING = {"n_fog": 4, "n_apps": 14, "max_qos": 1.5, "fog_positions": None, "tx_ranges": None}
PACKING_SEED = "629"  # f4_n14_q1.5_s629: the chain search decides it in about 250 app placements
OUTPUTS = ("inst.json", "report.json", "model.lp", "sweep.csv", "packing.json", "packing.report.json")

_PROBE = """
import sys
from fogplace.cli import main
grid, packing, seed, out = sys.argv[1:]
assert main(["generate", "--seed", "0", "--out", out + "/inst.json"]) == 0
assert main(["solve", out + "/inst.json", "--out", out + "/report.json",
             "--export-lp", out + "/model.lp"]) == 0
assert main(["experiment", grid, "--out", out + "/sweep.csv"]) == 0
assert main(["generate", "--config", packing, "--seed", seed, "--out", out + "/packing.json"]) == 0
assert main(["solve", out + "/packing.json", "--time-limit", "5",
             "--out", out + "/packing.report.json"]) == 0
"""


@pytest.mark.skipif(not PYTHONS, reason="no pyenv CPython 3.1x installed")
def test_outputs_identical_across_interpreters(tmp_path, capsys):
    grid, packing = tmp_path / "grid.json", tmp_path / "packing.json"
    grid.write_text(json.dumps(GRID))
    packing.write_text(json.dumps(PACKING))
    here = tmp_path / "here"
    here.mkdir()
    assert main(["generate", "--seed", "0", "--out", str(here / "inst.json")]) == EXIT_OK
    assert main(["solve", str(here / "inst.json"), "--out", str(here / "report.json"),
                 "--export-lp", str(here / "model.lp")]) == EXIT_OK
    assert main(["experiment", str(grid), "--out", str(here / "sweep.csv")]) == EXIT_OK
    assert main(["generate", "--config", str(packing), "--seed", PACKING_SEED,
                 "--out", str(here / "packing.json")]) == EXIT_OK
    assert main(["solve", str(here / "packing.json"), "--time-limit", "5",
                 "--out", str(here / "packing.report.json")]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((here / "packing.report.json").read_text())
    assert report["status"] == "optimal" and report["search_stats"]["nodes_explored"] > PACKING["n_apps"]
    expected = {name: (here / name).read_bytes() for name in OUTPUTS}
    for python in PYTHONS:
        out = tmp_path / python.parent.parent.name
        out.mkdir()
        proc = subprocess.run([str(python), "-c", _PROBE, str(grid), str(packing), PACKING_SEED, str(out)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, f"{python}: {proc.stderr}"
        for name in OUTPUTS:
            assert (out / name).read_bytes() == expected[name], f"{python}: {name} differs from {sys.version}"
