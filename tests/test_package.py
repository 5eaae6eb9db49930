"""Every public name the package declares resolves to an object, and
each subcommand imports only the libraries it uses: numpy for Monte
Carlo runs, PyYAML for config files, scipy for beta arms and the process
pool for more than one worker."""

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
    # The harness names are served on first use.
    harness = importlib.import_module("cbandits.harness")
    assert cbandits._HARNESS_NAMES
    for name in cbandits._HARNESS_NAMES:
        assert getattr(cbandits, name) is getattr(harness, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        cbandits.no_such_name


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

# Imports the CLI, then runs main on each argv in turn; prints which of
# the probed modules are loaded after the import and after each argv.
_IMPORT_PROBE = """\
import contextlib, io, json, sys
probed = json.loads(sys.argv[2])
def loaded():
    print(json.dumps([m for m in probed if m in sys.modules]))
from cbandits.cli import main
loaded()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded()
"""

PROBED = ("numpy", "yaml", "scipy", "concurrent.futures.process")


def modules_loaded_after(tmp_path, argvs):
    """The probed modules loaded in a fresh interpreter after ``import
    cbandits.cli`` and then after each of ``argvs``, as sets."""
    env = dict(os.environ)
    src = str(Path(cbandits.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs), json.dumps(PROBED)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return [set(json.loads(line)) for line in proc.stdout.splitlines()]


def test_each_command_imports_only_what_it_uses(tmp_path):
    config = tmp_path / "finite.yaml"
    config.write_text(FINITE_CONFIG, encoding="utf-8")
    no_checkpoints = tmp_path / "no-checkpoints.yaml"
    no_checkpoints.write_text(FINITE_CONFIG.rsplit("experiment:", 1)[0], encoding="utf-8")
    argvs = [
        ["bound", "--num-arms", "2", "--delta", "0.1", "--rho", "0.2", "--k", "3",
         "--t-grid", "10", "100"],
        ["oracle", "--config", str(config), "--t", "3"],
        ["validate", "--config", str(no_checkpoints)],
        ["validate", "--config", str(config)],
        ["run", "--config", str(config), "--out-dir", str(tmp_path / "out"), "--workers", "1"],
    ]
    # The sets accumulate: each command loads what the earlier ones did.
    assert modules_loaded_after(tmp_path, argvs) == [
        set(),  # import cbandits.cli
        set(),  # bound
        {"yaml"},  # oracle
        {"yaml"},  # validate without checkpoints
        {"yaml"},  # validate with checkpoints
        {"yaml", "numpy"},  # run --workers 1
    ]


def test_beta_arm_imports_scipy(tmp_path):
    # The probe can see the imports it guards against.
    config = tmp_path / "beta.yaml"
    config.write_text(
        FINITE_CONFIG.replace("{kind: point_mass, value: 0.5}",
                              "{kind: beta, shape1: 2, shape2: 2}"),
        encoding="utf-8",
    )
    argv = ["run", "--config", str(config), "--out-dir", str(tmp_path / "out"),
            "--workers", "2"]
    assert modules_loaded_after(tmp_path, [argv])[-1] == set(PROBED)
