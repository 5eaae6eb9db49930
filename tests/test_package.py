"""Every public name the package declares resolves to an object, and
scipy is imported only for beta arms."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cbandits

MODULES = ("core", "strategies", "analysis", "bounds", "harness", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"cbandits.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(cbandits.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(node.module)
        for alias in node.names:
            assert getattr(cbandits, alias.asname or alias.name) is getattr(source, alias.name)


FINITE_CONFIG = """\
instance:
  constraint_level: 0.5
  arms:
    - reward: {kind: bernoulli, p: 0.7}
      cost: {kind: discrete, values: [0.2, 0.6], probabilities: [0.5, 0.5]}
    - reward: {kind: point_mass, value: 0.5}
      cost: {kind: bernoulli, p: 0.7}
schedule: {kind: inverse_time, k: 3}
experiment: {checkpoints: [5, 20], replications: 30, master_seed: 3}
"""

# Runs main on each argv in turn, and after each prints whether scipy
# has been imported.
_IMPORT_PROBE = """\
import contextlib, io, json, sys
from cbandits.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print("scipy" in sys.modules)
"""


def scipy_imported_after(tmp_path, argvs):
    env = dict(os.environ)
    src = str(Path(cbandits.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return [line == "True" for line in proc.stdout.splitlines()]


def test_finite_support_commands_do_not_import_scipy(tmp_path):
    config = tmp_path / "finite.yaml"
    config.write_text(FINITE_CONFIG, encoding="utf-8")
    argvs = [
        ["bound", "--num-arms", "2", "--delta", "0.1", "--rho", "0.2", "--k", "3",
         "--t-grid", "10", "100"],
        ["oracle", "--config", str(config), "--t", "3"],
        ["run", "--config", str(config), "--out-dir", str(tmp_path / "out")],
    ]
    assert scipy_imported_after(tmp_path, argvs) == [False, False, False]


def test_beta_arm_imports_scipy(tmp_path):
    # The probe can see the import it guards against.
    config = tmp_path / "beta.yaml"
    config.write_text(
        FINITE_CONFIG.replace("{kind: point_mass, value: 0.5}",
                              "{kind: beta, shape1: 2, shape2: 2}"),
        encoding="utf-8",
    )
    argv = ["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    assert scipy_imported_after(tmp_path, [argv]) == [True]
