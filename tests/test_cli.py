"""End-to-end tests for the command-line interface: exit codes, resolved
config echo round trips, deterministic file outputs, and the bound /
oracle / validate subcommands."""

from __future__ import annotations

import ast
import collections
import hashlib
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import cbandits.cli as cli
import cbandits.core as core
from cbandits.core import ValidationError
from cbandits.bounds import _check_parameters, closed_form_lower_bound, selection_lower_bound
from cbandits.cli import (
    BOUNDS_CSV_COLUMNS,
    experiment_from_mapping,
    load_config_file,
    main,
)
from cbandits.harness import RESULTS_CSV_COLUMNS
from cbandits.strategies import InverseTimeSchedule

TWO_ARM_CONFIG = """\
instance:
  constraint_level: 0.5
  arms:
    - reward: {kind: bernoulli, p: 0.7}
      cost: {kind: bernoulli, p: 0.3}
    - reward: {kind: bernoulli, p: 0.5}
      cost: {kind: bernoulli, p: 0.7}
schedule:
  kind: inverse_time
  k: 20
experiment:
  checkpoints: [5, 25]
  deltas: [0.0, 0.1]
  replications: 60
  master_seed: 7
"""

# Row B of the acceptance panel, with the oracle checks' schedule.
ROW_B_CONFIG = TWO_ARM_CONFIG.replace("k: 20", "k: 3")

ORACLE_CONFIG = """\
instance:
  constraint_level: 0.5
  arms:
    - reward: {kind: point_mass, value: 1.0}
      cost: {kind: point_mass, value: 0.0}
    - reward: {kind: point_mass, value: 0.0}
      cost: {kind: point_mass, value: 1.0}
schedule:
  kind: constant
  epsilon: 0.5
"""


# Bernoulli, discrete and point-mass arms in both quantities.  Arm 0 has
# the best reward but is infeasible; arm 1's rewards share the lattice
# {0, 0.5, 1} with arm 2's point mass, so the tie rules have real ties;
# arm 1's 0.25 atom has probability zero, which repeats a cut.
GOLDEN_CONFIG = """\
instance:
  constraint_level: 0.5
  arms:
    - reward: {kind: bernoulli, p: 0.7}
      cost: {kind: discrete, values: [0.4, 0.8], probabilities: [0.5, 0.5]}
    - reward: {kind: discrete, values: [0.0, 0.25, 0.5, 1.0], probabilities: [0.2, 0.0, 0.3, 0.5]}
      cost: {kind: point_mass, value: 0.45}
    - reward: {kind: point_mass, value: 0.5}
      cost: {kind: bernoulli, p: 0.3}
schedule: {kind: inverse_time, k: 5}
strategy: {kind: %s, tie_rule: %s}
experiment:
  checkpoints: [10, 50, 200]
  deltas: [0.0, 0.1]
  replications: 200
  master_seed: 2024
"""

# (policy, tie_rule): SHA-256 of results.csv and of summary.json without
# its metadata, as json.dumps(..., indent=2, sort_keys=True).
GOLDEN_DIGESTS = {
    ("constrained_eps_greedy", "lowest_index"): (
        "095c56a3f0680a12a3669e63010460cfd7fe4ba5acbfc865589c1b5e99a0b223",
        "24ccac81d728274421134f6868072817d0eca7c4a4e2425f8d8f0e3bdbd2dab6",
    ),
    ("constrained_eps_greedy", "uniform"): (
        "ca48b6f4980a8a867f3a1e5c7cdb23ed3e2ed109f7c6d89c59bcc22c07b75a5d",
        "059a657864cf79cda2e8cab48b588442d4b459b4d21626ab1c3cb5d38353334a",
    ),
    ("uniform", "lowest_index"): (
        "4491039fc4b5bf1b72c5bdc7564ef7f9db68e4b012b971e59296ec80111cdbf1",
        "f7317732b5d38e5ece502a0fcb28ef5d97df541a716bdb236e858c5573a73f9a",
    ),
    ("uniform", "uniform"): (
        "4491039fc4b5bf1b72c5bdc7564ef7f9db68e4b012b971e59296ec80111cdbf1",
        "a5cb3660c5b07bebbb5f8c41a439a8b884880fb9cb7bd2354f6e89068313ff89",
    ),
    ("unconstrained_eps_greedy", "lowest_index"): (
        "9f52b58227810a3308bfac484cd20fcc20fd3ad7fba4005d99235a84fa2f4594",
        "2dff48c6f6a258845a0bab9f6215f2099bce82ae18363fadb703cdb24cadcc1d",
    ),
    ("unconstrained_eps_greedy", "uniform"): (
        "0b69b40217234254c625adf7ea2c4ce0b6cdf4cfb41b7d96865fd43bc9555ec3",
        "b351159725727bca81298a0a2a7feeed9a9b25cbe84df0f05bf14b469b274064",
    ),
}


def golden_digests(tmp_path, policy, tie_rule):
    """SHA-256 of ``results.csv`` and of ``summary.json`` outside
    ``metadata`` for ``GOLDEN_CONFIG`` under one strategy."""
    out_dir = tmp_path / f"{policy}-{tie_rule}"
    out_dir.mkdir()
    config_path = write_config(out_dir, GOLDEN_CONFIG % (policy, tie_rule))
    assert main(["run", "--config", config_path, "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    summary.pop("metadata")
    return (
        hashlib.sha256((out_dir / "results.csv").read_bytes()).hexdigest(),
        hashlib.sha256(json.dumps(summary, indent=2, sort_keys=True).encode()).hexdigest(),
    )


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestRun:
    def test_writes_outputs_and_echoes_resolved_config(self, tmp_path, capsys):
        config_path = write_config(tmp_path, TWO_ARM_CONFIG)
        out_dir = tmp_path / "out"
        code = main(["run", "--config", config_path, "--out-dir", str(out_dir)])
        assert code == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.err

        header, rows = read_csv_rows(out_dir / "results.csv")
        assert header == list(RESULTS_CSV_COLUMNS)
        assert len(rows) == 4  # two checkpoints x two deltas
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert "elapsed_seconds" in summary["metadata"]
        assert summary["metadata"]["workers"] == 1

        echoed = yaml.safe_load(captured.out)
        # Defaults are explicit in the echo.
        assert echoed["strategy"] == {
            "kind": "constrained_eps_greedy",
            "tie_rule": "lowest_index",
        }
        assert echoed["output"] == {
            "results_csv": "results.csv",
            "summary_json": "summary.json",
        }
        # Re-parsing the echo reproduces the experiment exactly.
        config_echo, _ = experiment_from_mapping(echoed)
        config_base, _ = experiment_from_mapping(load_config_file(config_path))
        assert config_echo == config_base

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        config_path = write_config(tmp_path, TWO_ARM_CONFIG)
        for name in ("a", "b"):
            assert main(["run", "--config", config_path, "--out-dir", str(tmp_path / name)]) == 0
        capsys.readouterr()
        csv_a = (tmp_path / "a" / "results.csv").read_bytes()
        csv_b = (tmp_path / "b" / "results.csv").read_bytes()
        assert csv_a == csv_b
        summary_a = json.loads((tmp_path / "a" / "summary.json").read_text())
        summary_b = json.loads((tmp_path / "b" / "summary.json").read_text())
        summary_a.pop("metadata")
        summary_b.pop("metadata")
        assert summary_a == summary_b

    def test_worker_count_does_not_change_results(self, tmp_path, capsys, chunk_layouts):
        config_path = write_config(tmp_path, TWO_ARM_CONFIG)
        for name, workers in (("w1", "1"), ("w3", "3")):
            code = main([
                "run", "--config", config_path,
                "--out-dir", str(tmp_path / name), "--workers", workers,
            ])
            assert code == 0
        capsys.readouterr()
        # Three workers must split the work.
        assert [len(layout) for layout in chunk_layouts] == [1, 3]
        assert (tmp_path / "w1" / "results.csv").read_bytes() == (
            tmp_path / "w3" / "results.csv"
        ).read_bytes()

    def test_scipy_version_recorded_only_for_beta_arms(self, tmp_path, capsys):
        # Beta variates follow the scipy build; finite-support ones do not.
        import scipy

        beta_config = TWO_ARM_CONFIG.replace(
            "reward: {kind: bernoulli, p: 0.5}", "reward: {kind: beta, shape1: 2, shape2: 3}"
        )
        assert beta_config != TWO_ARM_CONFIG
        metadata = {}
        for name, text in (("finite", TWO_ARM_CONFIG), ("beta", beta_config)):
            config_path = write_config(tmp_path, text, f"{name}.yaml")
            out_dir = tmp_path / name
            assert main(["run", "--config", config_path, "--out-dir", str(out_dir)]) == 0
            summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
            metadata[name] = summary["metadata"]
        capsys.readouterr()
        assert "scipy_version" not in metadata["finite"]
        assert metadata["beta"]["scipy_version"] == scipy.__version__

    def test_flag_overrides_apply(self, tmp_path, capsys):
        config_path = write_config(tmp_path, TWO_ARM_CONFIG)
        code = main([
            "run", "--config", config_path, "--out-dir", str(tmp_path / "out"),
            "--replications", "17", "--master-seed", "99", "--tie-rule", "uniform",
        ])
        assert code == 0
        echoed = yaml.safe_load(capsys.readouterr().out)
        assert echoed["experiment"]["replications"] == 17
        assert echoed["experiment"]["master_seed"] == 99
        assert echoed["strategy"]["tie_rule"] == "uniform"
        _, rows = read_csv_rows(tmp_path / "out" / "results.csv")
        assert all(row["R"] == "17" for row in rows)

    @pytest.mark.parametrize(
        ("text", "flags", "section", "key", "value"),
        [
            pytest.param(TWO_ARM_CONFIG + "strategy: {tie_rule: bogus}\n",
                         ["--tie-rule", "uniform"], "strategy", "tie_rule", "uniform",
                         id="tie-rule"),
            pytest.param(TWO_ARM_CONFIG.replace("replications: 60", "replications: -1"),
                         ["--replications", "5"], "experiment", "replications", 5,
                         id="replications"),
            pytest.param(TWO_ARM_CONFIG.replace("master_seed: 7", "master_seed: -3"),
                         ["--master-seed", "4"], "experiment", "master_seed", 4,
                         id="master-seed"),
        ],
    )
    def test_flag_replaces_config_value_before_checks(
        self, tmp_path, capsys, text, flags, section, key, value
    ):
        config_path = write_config(tmp_path, text)
        code = main(["run", "--config", config_path, "--out-dir", str(tmp_path / "out"), *flags])
        assert code == 0
        assert yaml.safe_load(capsys.readouterr().out)[section][key] == value

    def test_output_section_renames_files(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path,
            TWO_ARM_CONFIG + "output:\n  results_csv: custom.csv\n",
        )
        code = main(["run", "--config", config_path, "--out-dir", str(tmp_path / "out")])
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "custom.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        config_path = write_config(tmp_path, TWO_ARM_CONFIG + "extra_section: 1\n")
        code = main(["run", "--config", config_path, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error [unknown_key]" in err
        assert "extra_section" in err

    def test_epsilon_above_one_cites_schedule_constraint(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path,
            TWO_ARM_CONFIG.replace("kind: inverse_time\n  k: 20",
                                   "kind: constant\n  epsilon: 1.5"),
        )
        code = main(["run", "--config", config_path, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error [bad_schedule]" in err
        assert "(0, 1]" in err

    def test_missing_checkpoints_is_rejected(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path,
            TWO_ARM_CONFIG.replace("  checkpoints: [5, 25]\n", ""),
        )
        code = main(["run", "--config", config_path, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "checkpoints" in capsys.readouterr().err

    def test_malformed_yaml_is_bad_config(self, tmp_path, capsys):
        config_path = write_config(tmp_path, TWO_ARM_CONFIG.replace("[5, 25]", "[5, 25"))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", config_path, "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out_dir.exists()
        assert captured.err.startswith(
            f"config error [bad_config]: config file {config_path} is not valid YAML: "
        )

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.yaml"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_non_mapping_config_is_rejected(self, tmp_path, capsys):
        config_path = write_config(tmp_path, "- 1\n- 2\n")
        code = main(["run", "--config", config_path, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "mapping" in capsys.readouterr().err

    def test_zero_workers_rejected(self, tmp_path, capsys):
        config_path = write_config(tmp_path, TWO_ARM_CONFIG)
        code = main(["run", "--config", config_path,
                     "--out-dir", str(tmp_path / "o"), "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err


class TestGoldenRun:
    """A sampled end-to-end output, pinned: finite-support arms give the
    same bits on every machine."""

    @pytest.mark.parametrize(("policy", "tie_rule"), list(GOLDEN_DIGESTS))
    def test_outputs_are_frozen(self, tmp_path, capsys, policy, tie_rule, draw_path):
        assert golden_digests(tmp_path, policy, tie_rule) == GOLDEN_DIGESTS[policy, tie_rule]



class TestBound:
    def run_bound(self, capsys, extra):
        code = main(["bound", "--num-arms", "2", "--delta", "0.1", "--rho", "0.3",
                     *extra])
        out = capsys.readouterr().out
        return code, out

    def test_stdout_grid_matches_library(self, capsys):
        grid = (10, 40, 1000, 100000)
        code, out = self.run_bound(capsys, ["--k", "40", "--t-grid", *map(str, grid)])
        assert code == 0
        lines = out.splitlines()
        variants = ("rho_squared", "rho_linear")
        header = BOUNDS_CSV_COLUMNS + tuple(f"closed_form_{v}" for v in variants)
        assert lines[0] == ",".join(header)
        assert len(lines) == len(grid) + 1
        schedule = InverseTimeSchedule(40.0)
        # Every cell is the repr of the report field it comes from.
        fields = [{"raw": "raw_product"}.get(c, c) for c in BOUNDS_CSV_COLUMNS[:-1]]
        for line, t in zip(lines[1:], grid):
            report = selection_lower_bound(schedule, t, 2, 0.1, 0.3)
            expected = [repr(getattr(report, field)) for field in fields]
            expected.append("true" if report.vacuous else "false")
            for variant in variants:
                if t < 40:
                    expected.append("")
                else:
                    closed = closed_form_lower_bound(40.0, 2, 0.1, 0.3, float(t), variant)
                    expected.append(repr(closed.clamped))
            assert line.split(",") == expected

    def test_full_output_is_frozen(self, capsys):
        # (argv, grid, SHA-256 of stdout): grids run over t = 1..ceil(k),
        # then eight points a decade up to 10**8.  n = 3 makes x_t round
        # twice; the last run has a factor negative at every t.
        def grid(k):
            decades = {round(10 ** (i / 8)) for i in range(65)}
            return sorted(set(range(1, math.ceil(k) + 1)) | decades)

        runs = [
            (["--num-arms", "3", "--delta", "0.3", "--rho", "0.4", "--k", "8.5"], grid(8.5),
             "32022c615eba6cc8bd60bbc73fdb2bd2ece819b77db0ff0620917f56e301be27"),
            (["--num-arms", "2", "--delta", "0.5", "--rho", "0.5", "--k", "40"], grid(40),
             "5405175a2a24a6833370712cee799fd3ad17e23d5533d10c557cfeaff9ac5ea9"),
            (["--num-arms", "8", "--delta", "0.1", "--rho", "0.2", "--k", "800"], grid(800),
             "fc8ffac4164edb84789589f32d4cf72c60272a1b22445223b103de2312d779d9"),
            (["--num-arms", "3", "--delta", "0.25", "--rho", "0.2", "--k", "40",
              "--variant", "rho_squared"], grid(40),
             "93d0addec8e893fdd012eb9af6fd3a20a804903665a6818a31ad8b6d36332b35"),
            (["--num-arms", "3", "--delta", "0.25", "--rho", "0.2", "--k", "40",
              "--variant", "rho_linear"], grid(40),
             "432cd5e5a5603e336be003b96abbe63d8af88c4ec8c7850d5f1df39ad8bb3759"),
            (["--num-arms", "3", "--delta", "0.3", "--rho", "0.4", "--epsilon", "0.3"], grid(8.5),
             "1cb6dc2e43521f9931fba54adbfffb4228dc6ada90307ec1b6da785f5ff084e9"),
            (["--num-arms", "2", "--delta", "0.0", "--rho", "0.0", "--k", "8.5"], grid(8.5),
             "83ebff49d94014745b1dc5a608d6ee4ca80af164df560a9823f52da90daba73f"),
        ]
        for argv, t_grid, digest in runs:
            assert main(["bound", *argv, "--t-grid", *map(str, t_grid)]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    # SHA-256 of stdout at each (k, num_arms, delta, rho) point of the
    # benchmark's bound-grid panel, on the same seeded 1,000-point grid.
    BENCHMARK_PANEL_DIGESTS = {
        (40.0, 2, 0.5, 0.5):
            "0a62188376df288c58f80aeab6478956a76f695ed9509a690d7216add83dfbdf",
        (120.0, 4, 0.2, 0.3):
            "f636edf38df76048895e06e75fa8851df8fc91e8b0d0945eddff27fd04e4afaf",
        (8.5, 3, 0.3, 0.4):
            "e99e1f4e67330e10eeb723cba3e0ecae1c9e315901b7527e3a18d5bc0b0102be",
        (800.0, 8, 0.1, 0.2):
            "8f220d8f578d1e4fbbf7aa4ece255c775baa4c31a9376fa8ccb7b7d7f9e328b9",
    }

    def test_benchmark_panel_is_frozen(self, capsys):
        # t = 1..40 and 10**8, then log-uniform t up to 10**8.
        rng = random.Random(20261020)
        grid = set(range(1, 41)) | {10**8}
        while len(grid) < 1000:
            grid.add(int(10 ** rng.uniform(math.log10(41), 8.0)))
        for (k, n, delta, rho), digest in self.BENCHMARK_PANEL_DIGESTS.items():
            argv = ["bound", "--num-arms", str(n), "--delta", repr(delta), "--rho", repr(rho),
                    "--k", repr(k), "--t-grid", *map(str, sorted(grid))]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (k, n, delta, rho)

    @pytest.mark.parametrize("token", ["2x", "1e3", "0x10", ""])
    def test_bad_t_grid_token_exits_2(self, capsys, token):
        for argv in (["--num-arms", "2"], []):
            # Without --num-arms, the bad token is still what is reported.
            with pytest.raises(SystemExit) as exc:
                main(["bound", *argv, "--delta", "0.1", "--rho", "0.3", "--k", "40",
                      "--t-grid", "1", token])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == ""
            assert captured.err.splitlines()[-1] == (
                f"cbandits bound: error: argument --t-grid: invalid int value: {token!r}"
            )

    def test_t_grid_accepts_what_int_accepts(self, capsys):
        code, out = self.run_bound(capsys, ["--k", "40", "--t-grid", "+3", " 7", "1_000"])
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["3", "7", "1000"]

    def test_vacuous_row_reads_zero_whatever_its_raw(self, capsys, monkeypatch):
        # A vacuous raw of -0.0 compares equal to 0.0 but prints as -0.0;
        # the clamped cells still read 0.0.
        selection, closed_form = cli._selection_terms, cli._closed_form_terms

        def selection_at_1000(schedule, t, *rest):
            terms = selection(schedule, t, *rest)
            return (*terms[:6], -0.0, 0.0, True) if t == 1000 else terms

        def closed_form_at_1000(k, n, t, *rest):
            terms = closed_form(k, n, t, *rest)
            return (*terms[:2], -0.0, 0.0, True) if t == 1000.0 else terms

        monkeypatch.setattr(cli, "_selection_terms", selection_at_1000)
        monkeypatch.setattr(cli, "_closed_form_terms", closed_form_at_1000)
        code, out = self.run_bound(capsys, ["--k", "40", "--t-grid", "1000", "100000"])
        assert code == 0
        header, *lines = out.splitlines()
        patched, plain = (dict(zip(header.split(","), line.split(","))) for line in lines)
        assert (patched["raw"], patched["clamped"], patched["vacuous"]) == ("-0.0", "0.0", "true")
        assert patched["closed_form_rho_squared"] == patched["closed_form_rho_linear"] == "0.0"
        assert plain["vacuous"] == "false" and plain["clamped"] == plain["raw"] != "0.0"

    @pytest.mark.parametrize("schedule", [["--k", "40"], ["--epsilon", "0.5"]])
    @pytest.mark.parametrize(
        ("params", "message"),
        [
            pytest.param(["--num-arms", "1", "--delta", "0.1", "--rho", "0.3"],
                         "[bad_parameter]: num_arms must be an integer >= 2, got 1", id="arms"),
            pytest.param(["--num-arms", "2", "--delta", "-0.1", "--rho", "0.3"],
                         "[bad_parameter]: delta must be finite and >= 0.0, got -0.1",
                         id="delta-negative"),
            pytest.param(["--num-arms", "2", "--delta", "nan", "--rho", "0.3"],
                         "[bad_parameter]: delta must be finite and >= 0.0, got nan",
                         id="delta-nan"),
            pytest.param(["--num-arms", "2", "--delta", "0.1", "--rho", "inf"],
                         "[bad_parameter]: rho must be finite and >= 0.0, got inf", id="rho-inf"),
        ],
    )
    def test_bad_parameter_rejected(self, capsys, params, message, schedule):
        code = main(["bound", *params, *schedule, "--t-grid", "1", "10", "100"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"config error {message}\n"

    @pytest.mark.parametrize(
        ("schedule", "message"),
        [
            (["--k", "1.0"], "[bad_schedule]: inverse_time schedule requires k > 1, got 1.0"),
            (["--epsilon", "1.5"], "[bad_schedule]: schedule epsilon must lie in (0, 1], got 1.5"),
        ],
    )
    def test_bad_schedule_rejected(self, capsys, schedule, message):
        code = main(["bound", "--num-arms", "1", "--delta", "-0.1", "--rho", "0.3",
                     *schedule, "--t-grid", "1", "10", "100"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"config error {message}\n"

    def test_one_exploration_mass_per_row(self, capsys, monkeypatch):
        steps = []
        cumulative = InverseTimeSchedule.cumulative

        def counted(self, t):
            steps.append(t)
            return cumulative(self, t)

        monkeypatch.setattr(InverseTimeSchedule, "cumulative", counted)
        code, out = self.run_bound(capsys, ["--k", "40", "--t-grid", "1", "40", "1000"])
        assert code == 0 and len(out.splitlines()) == 4
        assert steps == [1, 40, 1000]

    def test_golden_row(self, capsys):
        # Frozen full row; the underlying values are oracle-checked in the
        # bound unit tests, so this pins the CSV formatting end to end.
        code, out = self.run_bound(capsys, ["--k", "40", "--t-grid", "100000"])
        assert code == 0
        assert out.splitlines()[1] == (
            "100000,2,0.1,0.3,0.0004,88.11603090927052,0.9998,"
            "0.9999999556014489,0.31341569488346266,0.9241446490951115,"
            "0.28958349622441615,0.28958349622441615,false,0.0,0.0"
        )

    def test_closed_form_exponents_once_per_variant(self, capsys, monkeypatch):
        calls = []
        original = cli.closed_form_exponents

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "closed_form_exponents", counted)
        code, out = self.run_bound(capsys, ["--k", "40", "--t-grid", "40", "1000", "100000"])
        assert code == 0 and len(out.splitlines()) == 4
        assert calls == [(40.0, 2, 0.1, 0.3, "rho_squared"), (40.0, 2, 0.1, 0.3, "rho_linear")]

    def test_closed_form_blank_before_schedule_knee(self, capsys):
        code, out = self.run_bound(capsys, ["--k", "40", "--t-grid", "10", "40"])
        assert code == 0
        row_10 = out.splitlines()[1].split(",")
        row_40 = out.splitlines()[2].split(",")
        assert row_10[-2:] == ["", ""]
        assert row_40[-2:] != ["", ""]

    def test_constant_schedule_has_no_closed_form(self, capsys):
        code, out = self.run_bound(capsys, ["--epsilon", "0.5", "--t-grid", "10", "1000"])
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split(",")[-2:] == ["", ""]

    def test_variant_selects_columns(self, capsys):
        code, out = self.run_bound(
            capsys, ["--k", "40", "--t-grid", "100", "--variant", "rho_linear"]
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[-1] == "closed_form_rho_linear"
        assert "closed_form_rho_squared" not in header

    def test_rho_zero_makes_every_row_vacuous(self, capsys):
        code = main(["bound", "--num-arms", "2", "--delta", "0.1", "--rho", "0.0",
                     "--k", "40", "--t-grid", "10", "1000", "100000"])
        out = capsys.readouterr().out
        assert code == 0
        for line in out.splitlines()[1:]:
            cells = dict(zip(out.splitlines()[0].split(","), line.split(",")))
            assert cells["vacuous"] == "true"
            assert cells["clamped"] == "0.0"

    @pytest.mark.parametrize(
        ("grid", "needle"),
        [
            pytest.param(["1000", "100"], "strictly increasing", id="descending"),
            pytest.param(["100", "100"], "strictly increasing", id="duplicate"),
            pytest.param(["0", "5"], ">= 1", id="zero"),
        ],
    )
    def test_bad_grid_rejected(self, capsys, grid, needle):
        code = main(["bound", "--num-arms", "2", "--delta", "0.1", "--rho", "0.3",
                     "--k", "40", "--t-grid", *grid])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error [bad_config]" in err and needle in err

    def test_exactly_one_schedule_required(self, capsys):
        code = main(["bound", "--num-arms", "2", "--delta", "0.1", "--rho", "0.3",
                     "--t-grid", "100"])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err
        code = main(["bound", "--num-arms", "2", "--delta", "0.1", "--rho", "0.3",
                     "--k", "40", "--epsilon", "0.5", "--t-grid", "100"])
        assert code == 2

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        args = ["--k", "40", "--t-grid", "40", "1000"]
        code, out = self.run_bound(capsys, args)
        assert code == 0
        path = tmp_path / "bounds.csv"
        code = main(["bound", "--num-arms", "2", "--delta", "0.1", "--rho", "0.3",
                     *args, "--out", str(path)])
        assert code == 0
        capsys.readouterr()
        assert path.read_text(encoding="utf-8") == out


class TestOracle:
    def test_frozen_point_mass_probabilities(self, tmp_path, capsys):
        config_path = write_config(tmp_path, ORACLE_CONFIG)
        code = main(["oracle", "--config", config_path, "--t", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["arm_probabilities_exact"] == ["5/8", "3/8"]
        assert payload["arm_probabilities"] == [0.625, 0.375]
        assert payload["delta_events"] == [{"delta": 0.0, "probability": 0.625}]
        assert payload["method"] == "fraction"

    # The flag replaces the config's deltas before they are checked.
    @pytest.mark.parametrize("experiment", ["", "experiment: {deltas: [-1]}\n"])
    def test_deltas_flag_overrides_config(self, tmp_path, capsys, experiment):
        config_path = write_config(tmp_path, ORACLE_CONFIG + experiment)
        code = main(["oracle", "--config", config_path, "--t", "2",
                     "--deltas", "0.0", "0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [event["delta"] for event in payload["delta_events"]] == [0.0, 0.5]

    def test_float_method_has_no_exact_fractions(self, tmp_path, capsys):
        config_path = write_config(tmp_path, ORACLE_CONFIG)
        code = main(["oracle", "--config", config_path, "--t", "2",
                     "--method", "float"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "arm_probabilities_exact" not in payload
        assert payload["arm_probabilities"] == pytest.approx([0.625, 0.375])

    def test_out_file(self, tmp_path, capsys):
        config_path = write_config(tmp_path, ORACLE_CONFIG)
        path = tmp_path / "oracle.json"
        code = main(["oracle", "--config", config_path, "--t", "2", "--out", str(path)])
        assert code == 0
        capsys.readouterr()
        assert json.loads(path.read_text(encoding="utf-8"))["t"] == 2

    def test_continuous_support_exits_2(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path,
            ORACLE_CONFIG.replace(
                "reward: {kind: point_mass, value: 1.0}",
                "reward: {kind: beta, shape1: 2.0, shape2: 3.0}",
            ),
        )
        code = main(["oracle", "--config", config_path, "--t", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error [continuous_support]" in err
        assert "continuous support" in err

    def test_follows_strategy_kind(self, tmp_path, capsys):
        def oracle(text, name):
            config_path = write_config(tmp_path, text, name)
            assert main(["oracle", "--config", config_path, "--t", "3"]) == 0
            return capsys.readouterr().out

        default = oracle(ORACLE_CONFIG, "default.yaml")
        # By hand: once arm 0 is played it is picked w.p. 3/4, and after two
        # steps it is unplayed w.p. 1/4: 3/4 * 3/4 + 1/4 * 1/2 = 11/16.
        assert json.loads(default)["arm_probabilities_exact"] == ["11/16", "5/16"]
        explicit = ORACLE_CONFIG + "strategy: {kind: constrained_eps_greedy}\n"
        assert oracle(explicit, "explicit.yaml") == default
        uniform = oracle(ORACLE_CONFIG + "strategy: {kind: uniform}\n", "uniform.yaml")
        assert json.loads(uniform)["arm_probabilities_exact"] == ["1/2", "1/2"]

    def test_unknown_strategy_kind_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, ORACLE_CONFIG + "strategy: {kind: thompson}\n")
        code = main(["oracle", "--config", config_path, "--t", "2"])
        assert code == 2
        assert "config error [bad_config]" in capsys.readouterr().err

    def test_row_b_reaches_t10(self, tmp_path, capsys):
        config_path = write_config(tmp_path, ROW_B_CONFIG)
        assert main(["oracle", "--config", config_path, "--t", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["nodes"] == 12_727

    @pytest.mark.parametrize("t", ["40", "1000000000"])
    def test_state_budget_exits_2(self, tmp_path, capsys, t):
        # Row B spends the state budget before t = 40; a horizon above the
        # budget fails before any step is built.
        config_path = write_config(tmp_path, ROW_B_CONFIG)
        code = main(["oracle", "--config", config_path, "--t", t])
        assert code == 2
        assert "config error [oracle_tree_too_large]" in capsys.readouterr().err

    def test_scalar_deltas_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, ORACLE_CONFIG + "experiment: {deltas: 0.1}\n")
        code = main(["oracle", "--config", config_path, "--t", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error [bad_config]" in err
        assert "experiment.deltas must be a list" in err


class TestValidate:
    def test_valid_config_reports_profile(self, tmp_path, capsys):
        config_path = write_config(tmp_path, TWO_ARM_CONFIG)
        code = main(["validate", "--config", config_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok: feasible arms: [0]" in out
        assert "rho = " in out
        assert out.splitlines()[-1] == "valid"

    def test_inverse_time_k_at_most_one_is_violation(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path, TWO_ARM_CONFIG.replace("k: 20", "k: 1.0")
        )
        code = main(["validate", "--config", config_path])
        assert code == 2
        out = capsys.readouterr().out
        assert "violation [bad_schedule]" in out
        assert "k > 1" in out

    def test_epsilon_out_of_range_is_violation(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path,
            TWO_ARM_CONFIG.replace("kind: inverse_time\n  k: 20",
                                   "kind: constant\n  epsilon: 0.0"),
        )
        code = main(["validate", "--config", config_path])
        assert code == 2
        out = capsys.readouterr().out
        assert "violation [bad_schedule]" in out
        assert "(0, 1]" in out

    def test_short_explicit_schedule_is_violation(self, tmp_path, capsys):
        # Three schedule values cannot drive a run to checkpoint 10.
        config_path = write_config(
            tmp_path,
            TWO_ARM_CONFIG.replace("kind: inverse_time\n  k: 20",
                                   "kind: explicit\n  values: [1.0, 0.5, 0.5]")
            .replace("checkpoints: [5, 25]", "checkpoints: [2, 10]"),
        )
        code = main(["validate", "--config", config_path])
        assert code == 2
        out = capsys.readouterr().out
        assert "violation [bad_schedule]" in out
        assert "experiment: valid" not in out
        code = main(["run", "--config", config_path, "--out-dir", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad_schedule" in captured.err

    def test_empty_feasible_set_is_violation(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path, TWO_ARM_CONFIG.replace("constraint_level: 0.5",
                                             "constraint_level: 0.1")
        )
        code = main(["validate", "--config", config_path])
        assert code == 2
        assert "violation" in capsys.readouterr().out

    def test_rho_zero_config_is_valid_with_note(self, tmp_path, capsys):
        # Equal reward means collapse the reward separation to zero.
        config_path = write_config(
            tmp_path,
            TWO_ARM_CONFIG.replace("reward: {kind: bernoulli, p: 0.5}",
                                   "reward: {kind: bernoulli, p: 0.7}"),
        )
        code = main(["validate", "--config", config_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho = 0.0" in out
        assert "vacuous" in out

    def test_bad_strategy_is_violation(self, tmp_path, capsys):
        # Without experiment.checkpoints no ExperimentConfig is built, so
        # the strategy must be checked while parsing the sections.
        config_path = write_config(
            tmp_path, ORACLE_CONFIG + "strategy: {kind: thompson, tie_rule: coin}\n"
        )
        code = main(["validate", "--config", config_path])
        assert code == 2
        out = capsys.readouterr().out
        assert "violation [bad_config]" in out
        assert out.splitlines()[-1] == "invalid: 1 violation(s)"

    def test_scalar_deltas_is_violation(self, tmp_path, capsys):
        # No checkpoints, so no ExperimentConfig is built: the deltas must
        # be checked while parsing the sections.
        config_path = write_config(tmp_path, ORACLE_CONFIG + "experiment: {deltas: 0.1}\n")
        code = main(["validate", "--config", config_path])
        assert code == 2
        out = capsys.readouterr().out
        assert "violation [bad_config]: experiment.deltas must be a list" in out
        assert out.splitlines()[-1] == "invalid: 1 violation(s)"

    def test_builds_each_part_once(self, tmp_path, capsys, monkeypatch):
        calls = collections.Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "instance_from_config")
        counted(cli, "schedule_from_config")
        counted(core, "distribution_from_config")
        config_path = write_config(tmp_path, TWO_ARM_CONFIG)
        assert main(["validate", "--config", config_path]) == 0
        assert "experiment: valid" in capsys.readouterr().out
        assert calls == {
            "instance_from_config": 1,
            "schedule_from_config": 1,
            "distribution_from_config": 4,
        }

    def test_config_without_experiment_section_notes_incomplete(self, tmp_path, capsys):
        config_path = write_config(tmp_path, ORACLE_CONFIG)
        code = main(["validate", "--config", config_path])
        assert code == 0
        assert "incomplete" in capsys.readouterr().out


def edited(edit):
    """``TWO_ARM_CONFIG`` as YAML, after ``edit`` changes its parsed mapping."""
    config = yaml.safe_load(TWO_ARM_CONFIG)
    edit(config)
    return yaml.safe_dump(config)


def arm(config, i):
    return config["instance"]["arms"][i]


# One malformed config shape per row: text, error code, and a part of the
# message naming the fault.
REJECTED_CONFIGS = [
    pytest.param("- 1\n- 2\n", "bad_config", "mapping", id="not-a-mapping"),
    pytest.param(edited(lambda c: c.pop("instance")), "bad_config", "'instance'",
                 id="missing-instance"),
    pytest.param(edited(lambda c: c.pop("schedule")), "bad_config", "'schedule'",
                 id="missing-schedule"),
    pytest.param(edited(lambda c: c.update(strategy={"kind": "uniform", "speed": 2})),
                 "unknown_key", "'speed'", id="strategy-unknown-key"),
    pytest.param(edited(lambda c: c["experiment"].update(horizon=10)),
                 "unknown_key", "'horizon'", id="experiment-unknown-key"),
    pytest.param(edited(lambda c: c.update(output={"plots": "p.png"})),
                 "unknown_key", "'plots'", id="output-unknown-key"),
    pytest.param(edited(lambda c: c.update(output={"results_csv": "same.out",
                                                   "summary_json": "./same.out"})),
                 "bad_config", "name the same file", id="output-paths-collide"),
    pytest.param(edited(lambda c: c.update(experiment={"deltas": [-1], "replications": -4})),
                 "bad_config", "deltas must be finite and >= 0.0",
                 id="experiment-values-without-checkpoints"),
    pytest.param(edited(lambda c: arm(c, 0).update(weight=1)),
                 "unknown_key", "'weight'", id="arm-unknown-key"),
    pytest.param(edited(lambda c: arm(c, 0)["reward"].update(q=0.1)),
                 "unknown_key", "'q'", id="distribution-unknown-key"),
    pytest.param(edited(lambda c: arm(c, 0)["reward"].update(kind=["bernoulli"])),
                 "unknown_kind", "kind", id="list-kind"),
    pytest.param(edited(lambda c: arm(c, 1).pop("cost")), "bad_config", "'cost'",
                 id="arm-missing-cost"),
    pytest.param(edited(lambda c: c["instance"].update(arms={"first": arm(c, 0)})),
                 "bad_config", "arms", id="arms-not-a-list"),
    pytest.param(edited(lambda c: c["experiment"].update(checkpoints=25)),
                 "bad_config", "checkpoints", id="checkpoints-not-a-list"),
    pytest.param(edited(lambda c: arm(c, 0).update(
        cost={"kind": "discrete", "values": 0.5, "probabilities": 1.0})),
                 "bad_parameter", "discrete values must be a list",
                 id="discrete-values-not-a-list"),
    pytest.param(edited(lambda c: c.update(schedule={"kind": "explicit", "values": 0.5})),
                 "bad_schedule", "explicit schedule values must be a list",
                 id="explicit-values-not-a-list"),
]


@pytest.mark.parametrize(("text", "code", "needle"), REJECTED_CONFIGS)
def test_rejected_config(tmp_path, capsys, text, code, needle):
    config_path = write_config(tmp_path, text)
    assert main(["validate", "--config", config_path]) == 2
    out = capsys.readouterr().out
    assert f"violation [{code}]" in out and needle in out
    assert out.splitlines()[-1] == "invalid: 1 violation(s)"
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out_dir.exists()
    assert f"config error [{code}]" in captured.err and needle in captured.err


def config_texts():
    """Every multi-line string of the test modules, the golden config
    under each strategy and every rejected config."""
    texts = [GOLDEN_CONFIG % key for key in GOLDEN_DIGESTS]
    texts += [param.values[0] for param in REJECTED_CONFIGS]
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        texts += [node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "\n" in node.value]
    return texts


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
def test_config_texts_parse_alike_under_both_loaders():
    assert cli._yaml_loader() is yaml.CSafeLoader
    mappings = 0
    for text in config_texts():
        outcomes = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            try:
                outcomes.append(yaml.load(text, Loader=loader))
            except yaml.YAMLError as err:
                outcomes.append(type(err))
        assert outcomes[0] == outcomes[1], text
        mappings += isinstance(outcomes[0], dict) and "instance" in outcomes[0]
    assert mappings >= 20


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        config_path = write_config(tmp_path, TWO_ARM_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "cbandits.cli", "validate", "--config", config_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "valid"

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def random_bound_argv(rng):
    """One ``bound`` argv with grids up to 1e12; about one in six carries
    one value the CLI must reject."""
    params = {
        "--num-arms": rng.choice([2, 2, 3, 5, 10, 50]),
        "--delta": rng.choice([0.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.1)]),
        "--rho": rng.choice([0.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.1)]),
    }
    if rng.random() < 0.7:
        params["--k"] = 10 ** rng.uniform(0.01, 4.0)
    else:
        params["--epsilon"] = rng.uniform(0.01, 1.0)
    grid = sorted({round(10 ** rng.uniform(0.0, 12.0)) for _ in range(rng.randint(1, 6))})
    if rng.random() < 1 / 6:
        key, bad = rng.choice([("--num-arms", 1), ("--delta", -0.1), ("--delta", math.nan),
                               ("--rho", math.inf), ("--k", 1.0), ("--epsilon", 1.5),
                               ("--t-grid", 0)])
        if key == "--t-grid":
            grid = grid[::-1] + [bad]
        else:
            if key in ("--k", "--epsilon"):
                params.pop("--k", None)
                params.pop("--epsilon", None)
            params[key] = bad
    argv = ["bound"]
    for key, value in params.items():
        argv += [key, repr(value)]
    variant = rng.choice(["both", "rho_squared", "rho_linear"])
    return [*argv, "--t-grid", *map(str, grid), "--variant", variant]


def log_uniform_int(rng, digits):
    """An integer drawn log-uniformly from [1, 10**digits], with 16
    significant digits."""
    exponent = rng.uniform(0.0, digits)
    return round(10 ** (exponent % 1) * 10**15) * 10 ** int(exponent) // 10**15


def extreme_bound_argv(rng):
    """One ``bound --variant both`` argv whose k or epsilon, t, n, delta
    and rho are each drawn log-uniformly, half the time over their usual
    range and half the time up to the edges of the double range."""

    def wide():
        return rng.random() < 0.5

    argv = ["bound", "--num-arms", str(1 + log_uniform_int(rng, 310 if wide() else 2))]
    for key in ("--delta", "--rho"):
        argv += [key, repr(10 ** (rng.uniform(-324, 308.25) if wide() else rng.uniform(-2, 0)))]
    if rng.random() < 0.7:
        argv += ["--k", repr(10 ** (rng.uniform(0, 308.25) if wide() else rng.uniform(0, 4)))]
    else:
        argv += ["--epsilon", repr(10 ** rng.uniform(-324, 0))]
    digits = 309 if wide() else 12
    grid = sorted({log_uniform_int(rng, digits) for _ in range(rng.randint(1, 4))})
    return [*argv, "--t-grid", *map(str, grid), "--variant", "both"]


def malformed_config(rng, base: bytes) -> bytes:
    """``base`` truncated, with one byte replaced, or with a stray byte or
    a byte order mark put in."""
    at = rng.randrange(len(base))
    edit = rng.randrange(6)
    if edit == 0:
        return base[:at]
    if edit == 1:
        return base[:at] + bytes([rng.randrange(256)]) + base[at + 1:]
    stray = [b"\xff", b"\x00", b"\xef\xbb\xbf", b"\xff\xfe"][edit - 2]
    return base[:at] + stray + base[at:] if edit < 4 else stray + base


def exit_code(argv):
    """``main(argv)``, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRobustnessSweep:
    """Seeded sweeps over what users type: every exit is 0 or 2, never 1."""

    # Invocations that exited 1 before the closed form's cube overflow
    # was caught; every other invocation prints what it printed then.
    BOUND_CRASHED_BEFORE = (5, 38, 103, 120, 158, 181, 220, 223, 239, 251, 264, 322, 332,
                            336, 393, 397)
    BOUND_DIGEST = "bc2df618270393a53265138a53067fc5b5b1212eed89a7ae97a6c738a20fa2d2"

    def test_bound_arguments(self, capsys):
        rng = random.Random(20261019)
        digest = hashlib.sha256()
        codes = collections.Counter()
        for i in range(400):
            argv = random_bound_argv(rng)
            code = exit_code(argv)
            out = capsys.readouterr().out
            assert code in (0, 2), argv
            codes[code] += 1
            if i not in self.BOUND_CRASHED_BEFORE:
                digest.update(f"{i} {code}\n{out}".encode())
        assert codes[0] > 200 and codes[2] > 50
        assert digest.hexdigest() == self.BOUND_DIGEST

    # Each left the doubles in an intermediate: the first printed the NaN
    # closed form as the certain bound 1.0, the others exited 1.
    EXTREME_REPRODUCERS = (
        ["bound", "--num-arms", "2", "--delta", "0.5", "--rho", "1", "--k", "1e308",
         "--t-grid", str(int(1e308)), "--variant", "both"],
        ["bound", "--num-arms", str(10**309), "--delta", "0.1", "--rho", "0.1", "--k", "3",
         "--t-grid", "10"],
        ["bound", "--num-arms", str(10**308), "--delta", "1e200", "--rho", "0.1", "--k", "3",
         "--t-grid", "10"],
        ["bound", "--epsilon", "5e-324", "--num-arms", "4", "--delta", "1e200", "--rho", "0.1",
         "--t-grid", "1"],
    )

    def test_bound_arguments_up_to_the_double_range(self, capsys):
        # As AC5 requires, the rho_squared closed form never exceeds the
        # clamped exact bound.
        rng = random.Random(20261021)
        argvs = [*self.EXTREME_REPRODUCERS, *(extreme_bound_argv(rng) for _ in range(1000))]
        codes, positive = [], 0
        for argv in argvs:
            codes.append(exit_code(argv))
            captured = capsys.readouterr()
            assert codes[-1] in (0, 2), (argv, captured.err)
            if codes[-1] == 2:
                assert "[bad_parameter]: " in captured.err or "[bad_schedule]: " in captured.err
                continue
            header, *lines = captured.out.splitlines()
            for line in lines:
                row = dict(zip(header.split(","), line.split(",")))
                closed = row["closed_form_rho_squared"]
                assert closed == "" or float(closed) <= float(row["clamped"]) + 1e-12, (argv, line)
                positive += closed not in ("", "0.0")
        assert codes[:4] == [0, 2, 2, 2]
        assert codes.count(0) > 500 and codes.count(2) > 200 and positive > 10

    def test_parameters_at_the_double_limits(self):
        largest = sys.float_info.max
        limits = (int(largest / 10), math.sqrt(largest / 2), math.sqrt(largest))
        assert _check_parameters(*limits) == limits
        for i, what in enumerate(("num_arms", "delta", "rho")):
            past = list(limits)
            past[i] = limits[i] + 1 if i == 0 else math.nextafter(limits[i], math.inf)
            with pytest.raises(ValidationError, match=f"^{what} must be at most "):
                _check_parameters(*past)
        report = closed_form_lower_bound(1e308, 2, 0.5, 1.0, float(int(1e308)))
        assert math.isnan(report.raw_product)
        assert (report.clamped, report.vacuous) == (0.0, True)

    @pytest.mark.parametrize("schedule", [["--k", "2"], ["--epsilon", "1.0"]])
    def test_t_past_the_largest_double(self, schedule, capsys):
        # Every formula reads t as a double: the largest integer a double
        # holds gives a finite row, and any larger t is rejected.
        argv = ["bound", "--num-arms", "2", "--delta", "0.0", "--rho", "0.0", *schedule]
        largest = int(sys.float_info.max)
        assert main([*argv, "--t-grid", "3", str(largest)]) == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert row[0] == str(largest)
        assert all(math.isfinite(float(cell)) for cell in row[4:12])
        for t in (largest + 1, 10**309):
            assert main([*argv, "--t-grid", str(t)]) == 2
            assert "[bad_parameter]: --t-grid value must be an integer in [1, " in (
                capsys.readouterr().err
            )
        with pytest.raises(ValidationError, match=r"^t must be an integer in \[1, "):
            selection_lower_bound(InverseTimeSchedule(2.0), 10**309, 2, 0.1, 0.1)

    def test_malformed_config_bytes(self, tmp_path, capsys):
        rng = random.Random(20261019)
        base = TWO_ARM_CONFIG.encode()
        codes = collections.Counter()
        path = tmp_path / "config.yaml"
        for _ in range(200):
            path.write_bytes(malformed_config(rng, base))
            for argv in (["validate"], ["oracle", "--t", "3"],
                         ["run", "--out-dir", str(tmp_path / "out")]):
                code = exit_code([*argv, "--config", str(path)])
                capsys.readouterr()
                assert code in (0, 2), (argv, path.read_bytes())
                codes[code] += 1
        assert codes[0] > 50 and codes[2] > 300

    def test_reproducers(self, tmp_path, capsys):
        argv = ["bound", "--num-arms", "2", "--delta", "0.3", "--rho", "0.05", "--k", "1000",
                "--t-grid", "1000", "100000"]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[-2:] for row in rows] == [["0.0", "0.0"], ["0.0", "0.0"]]
        path = tmp_path / "config.yaml"
        path.write_bytes(b"instance: \xff\n")
        for argv in (["validate"], ["oracle", "--t", "3"], ["run"]):
            assert main([*argv, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert f"[bad_config]: config file {path} is not UTF-8" in captured.out + captured.err
