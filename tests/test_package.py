"""Every public name the package declares resolves to an object, and
each subcommand imports only the libraries it uses: numpy for Monte
Carlo runs, PyYAML for config files, scipy for beta arms, the process
pool for more than one worker and the harness only where an experiment
is built; and an interpreter that exits with a stream drawing ahead
neither hangs nor reports an error."""

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

PROBED = ("numpy", "yaml", "scipy", "concurrent.futures.process", "cbandits.harness")


def run_fresh(tmp_path, code, *args, timeout=None):
    """Lines printed by ``code`` run with ``args`` in a fresh interpreter,
    which must exit with status 0, within ``timeout`` seconds if given."""
    env = dict(os.environ)
    src = str(Path(cbandits.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        cwd=tmp_path, env=env, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def modules_loaded_after(tmp_path, argvs):
    """The probed modules loaded in a fresh interpreter after ``import
    cbandits.cli`` and then after each of ``argvs``, as sets."""
    lines = run_fresh(tmp_path, _IMPORT_PROBE, json.dumps(argvs), json.dumps(PROBED))
    return [set(json.loads(line)) for line in lines]


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
        {"yaml", "cbandits.harness"},  # validate with checkpoints
        {"yaml", "cbandits.harness", "numpy"},  # run --workers 1
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


def test_finite_quantile_loads_no_numpy(tmp_path):
    # ``quantile`` reads the kind's table with ``bisect``; arrays of
    # variates are the harness's sampler's.
    probe = """\
import sys
from cbandits.core import Bernoulli, Discrete, PointMass
dists = (PointMass(0.3), Bernoulli(0.25), Discrete((0.0, 0.5, 1.0), (0.2, 0.3, 0.5)))
print([d.quantile(u) for d in dists for u in (0.0, 0.25, 0.5, 0.999)])
print("numpy" in sys.modules)
"""
    assert run_fresh(tmp_path, probe) == [
        "[0.3, 0.3, 0.3, 0.3, 1.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0]",
        "False",
    ]


# Leaves two drawing-ahead streams open at exit, one in a module global
# and one in a reference cycle, each with its draws in flight done.  An
# error raised while they close at exit is printed to stdout.
_OPEN_STREAMS_AT_EXIT = """\
import sys, threading, time
sys.stderr = sys.stdout
import cbandits.core as core
core._DRAW_AHEAD_REPLICATIONS = 1
core._usable_cpus = lambda: 2
stream = core.step_uniforms(1, 0, 8)
class Holder:
    pass
cycle = Holder()
cycle.stream, cycle.self = core.step_uniforms(2, 0, 8), cycle
next(stream), next(cycle.stream)
time.sleep(0.2)
print(sum(t.name.startswith("cbandits.step_uniforms") for t in threading.enumerate()))
"""


def test_streams_left_open_at_exit_do_not_hang(tmp_path):
    assert run_fresh(tmp_path, _OPEN_STREAMS_AT_EXIT, timeout=60) == ["2"]
