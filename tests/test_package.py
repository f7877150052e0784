import os
import subprocess
import sys
from pathlib import Path

import pytest

import fogplace

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", fogplace.__all__)
def test_public_name_is_its_submodule_object(name):
    value = getattr(fogplace, name)
    assert value is getattr(sys.modules[value.__module__], name)


def test_names_resolve_from_their_submodule():
    assert fogplace.solve_exact is fogplace.solver.solve_exact
    assert fogplace.solver is sys.modules["fogplace.solver"]


def test_dir_lists_every_public_name():
    assert set(fogplace.__all__) <= set(dir(fogplace))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fogplace import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fogplace.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fogplace.no_such_name


def test_bare_import_loads_no_submodule_until_first_use():
    probe = ("import sys, fogplace\n"
             "print(*(m in sys.modules for m in ('fogplace.experiment', 'fogplace.scenario', "
             "'fogplace.solver')))\n"
             "print(fogplace.solver is sys.modules['fogplace.solver'])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False", "True"]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert "\nMinimize\n" in (tmp_path / "model.lp").read_text(encoding="utf-8")
    assert capsys.readouterr().out.startswith("SolveStatus.OPTIMAL ")
