"""Byte-identical output under every installed CPython 3.10+.

The scenario streams, the solver and the file writers are pure Python, so
``generate``, ``solve --out --export-lp`` and ``experiment`` must write the
same bytes under any supported interpreter.  Each pyenv-installed CPython
3.1x found runs the three commands with the sources on ``PYTHONPATH``; the
test skips when none is installed.  The versions directory is globbed
directly, since pyenv shims resolve only the versions a project selects.
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
OUTPUTS = ("inst.json", "report.json", "model.lp", "sweep.csv")

_PROBE = """
import sys
from fogplace.cli import main
grid, out = sys.argv[1:]
assert main(["generate", "--seed", "0", "--out", out + "/inst.json"]) == 0
assert main(["solve", out + "/inst.json", "--out", out + "/report.json",
             "--export-lp", out + "/model.lp"]) == 0
assert main(["experiment", grid, "--out", out + "/sweep.csv"]) == 0
"""


@pytest.mark.skipif(not PYTHONS, reason="no pyenv CPython 3.1x installed")
def test_outputs_identical_across_interpreters(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(GRID))
    here = tmp_path / "here"
    here.mkdir()
    assert main(["generate", "--seed", "0", "--out", str(here / "inst.json")]) == EXIT_OK
    assert main(["solve", str(here / "inst.json"), "--out", str(here / "report.json"),
                 "--export-lp", str(here / "model.lp")]) == EXIT_OK
    assert main(["experiment", str(grid), "--out", str(here / "sweep.csv")]) == EXIT_OK
    capsys.readouterr()
    expected = {name: (here / name).read_bytes() for name in OUTPUTS}
    for python in PYTHONS:
        out = tmp_path / python.parent.parent.name
        out.mkdir()
        proc = subprocess.run([str(python), "-c", _PROBE, str(grid), str(out)], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, f"{python}: {proc.stderr}"
        for name in OUTPUTS:
            assert (out / name).read_bytes() == expected[name], f"{python}: {name} differs from {sys.version}"
