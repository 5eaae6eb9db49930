"""Each output check of the benchmark accepts the program's real output
and rejects it after one value is made wrong.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cbandits.cli import main  # noqa: E402
from cbandits.strategies import InverseTimeSchedule  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def _edit_csv(text: str, row_index: int, column: str, value) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row_index][column] = value if isinstance(value, str) else repr(value)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _codes(errors):
    return {e.split(":", 1)[0] for e in errors}


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

BOUND = {"k": 40.0, "num_arms": 2, "delta": 0.5, "rho": 0.5,
         "grid": [1, 40, 41, 100, 1000, 10**5, 10**6, 10**7, 10**8]}
BOUND["sample"] = BOUND["grid"]


@pytest.fixture(scope="module")
def bound_csv():
    return _cli(["bound", "--num-arms", "2", "--delta", "0.5", "--rho", "0.5", "--k", "40",
                 "--t-grid", *map(str, BOUND["grid"])])


def test_bound_output_passes(bound_csv):
    assert checks.check_bound(bound_csv, BOUND) == []
    clamped = [float(r["clamped"]) for r in csv.DictReader(io.StringIO(bound_csv))]
    assert clamped[0] == 0.0 and 0.99 < clamped[-1] < 1.0, "inputs must not make checks trivial"


def test_bound_rejects_x_t_off_by_one_ulp(bound_csv):
    row = 5
    x = float(list(csv.DictReader(io.StringIO(bound_csv)))[row]["x_t"])
    wrong = _edit_csv(bound_csv, row, "x_t", math.nextafter(x, math.inf))
    assert "x_t" in _codes(checks.check_bound(wrong, BOUND))


@pytest.mark.parametrize("column, code", [
    ("raw", "raw"), ("factor_feas", "factors"), ("clamped", "vacuous"),
])
def test_bound_rejects_a_changed_value(bound_csv, column, code):
    row = 7
    value = float(list(csv.DictReader(io.StringIO(bound_csv)))[row][column])
    wrong = _edit_csv(bound_csv, row, column, value * (1 - 1e-9))
    assert code in _codes(checks.check_bound(wrong, BOUND))


def test_bound_rejects_wrong_vacuous_flag(bound_csv):
    wrong = _edit_csv(bound_csv, 0, "vacuous", "false")
    assert "vacuous" in _codes(checks.check_bound(wrong, BOUND))


def test_bound_rejects_a_decrease_in_t(bound_csv):
    # Pass every other check so that only monotonicity can catch it.
    rows = list(csv.DictReader(io.StringIO(bound_csv)))
    last = len(rows) - 1
    wrong = bound_csv
    for column in rows[last]:
        if column != "t":
            wrong = _edit_csv(wrong, last, column, rows[1][column])
    sample = dict(BOUND, sample=[t for t in BOUND["grid"] if t != BOUND["grid"][last]])
    assert _codes(checks.check_bound(wrong, sample)) == {"monotone"}


def test_bound_rejects_closed_form_above_exact(bound_csv):
    row = 8
    clamped = float(list(csv.DictReader(io.StringIO(bound_csv)))[row]["clamped"])
    wrong = _edit_csv(bound_csv, row, "closed_form_rho_squared", clamped + 1e-9)
    assert "closed_form" in _codes(checks.check_bound(wrong, BOUND))


@pytest.mark.parametrize("k, t, n", [(3.7, 4, 2), (40.0, 100000, 2), (8.5, 10**8, 3)])
def test_expected_x_matches_the_program(k, t, n):
    # (3.7, 4) is an exact rounding tie; n = 3 rounds twice.
    assert checks.expected_x(k, t, n) == InverseTimeSchedule(k).cumulative(t) / (2.0 * n)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

RUN_INSTANCE = {"constraint_level": 0.5, "arms": [
    {"reward": {"kind": "bernoulli", "p": 0.9}, "cost": {"kind": "bernoulli", "p": 0.15}},
    {"reward": {"kind": "bernoulli", "p": 0.2}, "cost": {"kind": "bernoulli", "p": 0.85}},
]}
RUN_EXPECT = {"replications": 2000, "checkpoints": [5, 1000], "deltas": [0.0, 0.34],
              "k": 4.5, "num_arms": 2, "rho": 0.9 - 0.2}


@pytest.fixture(scope="module")
def run_output(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("run")
    config = {"instance": RUN_INSTANCE, "schedule": {"kind": "inverse_time", "k": 4.5},
              "experiment": {"checkpoints": [5, 1000], "deltas": [0.0, 0.34],
                             "replications": 2000, "master_seed": 3}}
    (workdir / "c.json").write_text(json.dumps(config))
    _cli(["run", "--config", str(workdir / "c.json"), "--out-dir", str(workdir)])
    law = workloads._oracle_law(RUN_INSTANCE, 4.5, 5)
    return ((workdir / "results.csv").read_text(),
            json.loads((workdir / "summary.json").read_text()),
            dict(RUN_EXPECT, oracle={5: law}))


def test_run_output_passes(run_output):
    results, summary, expect = run_output
    assert checks.check_run(results, summary, expect) == []
    rows = list(csv.DictReader(io.StringIO(results)))
    assert float(rows[-1]["bound_clamped"]) > 0.0, "inputs must not make checks trivial"


@pytest.mark.parametrize("column, code", [
    ("ci_low", "wilson"), ("ci_high", "wilson"), ("bound_clamped", "bound"),
])
def test_run_rejects_a_shifted_value(run_output, column, code):
    results, summary, expect = run_output
    value = float(list(csv.DictReader(io.StringIO(results)))[3][column])
    wrong = _edit_csv(results, 3, column, value - 1e-9)
    assert code in _codes(checks.check_run(wrong, summary, expect))


def test_run_rejects_ci_high_below_the_bound(run_output):
    results, summary, expect = run_output
    wrong = _edit_csv(results, 3, "ci_high", 0.0)
    assert "dominance" in _codes(checks.check_run(wrong, summary, expect))


def test_run_rejects_selections_not_summing_to_r(run_output):
    results, summary, expect = run_output
    wrong = json.loads(json.dumps(summary))
    wrong["diagnostics"]["arm_selections"][1][0] += 1
    assert "selection_sum" in _codes(checks.check_run(results, wrong, expect))


def test_frequency_outside_the_oracle_interval_is_rejected(run_output):
    results, summary, expect = run_output
    counts = summary["diagnostics"]["arm_selections"][0]
    law = expect["oracle"][5]
    low, high = checks.wilson(counts[0], expect["replications"], 4.0)
    assert checks.check_frequency(counts, expect["replications"], law, 5) == []
    shifted = [high + 1e-6, 1 - high - 1e-6]
    assert "oracle_frequency" in _codes(
        checks.check_frequency(counts, expect["replications"], shifted, 5))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _oracle_doc(exact):
    return {"arm_probabilities": [float(p) for p in exact],
            "arm_probabilities_exact": [f"{p.numerator}/{p.denominator}" for p in exact]}


def test_oracle_sum_of_one_passes():
    assert checks.check_oracle_fraction(_oracle_doc([Fraction(5, 8), Fraction(3, 8)])) == []


def test_oracle_rejects_a_sum_of_one_plus_2_pow_minus_52():
    doc = _oracle_doc([Fraction(5, 8), Fraction(3, 8) + Fraction(1, 2**52)])
    assert _codes(checks.check_oracle_fraction(doc)) == {"sum_not_one"}


def test_oracle_rejects_floats_that_are_not_the_exact_values():
    doc = _oracle_doc([Fraction(5, 8), Fraction(3, 8)])
    doc["arm_probabilities"][0] = math.nextafter(0.625, 1.0)
    assert _codes(checks.check_oracle_fraction(doc)) == {"rounding"}


def test_oracle_float_method_within_1e_12_passes_and_beyond_fails():
    fraction = _oracle_doc([Fraction(5, 8), Fraction(3, 8)])
    close = {"arm_probabilities": [0.625 + 1e-13, 0.375 - 1e-13]}
    far = {"arm_probabilities": [0.625 + 1e-11, 0.375 - 1e-11]}
    assert checks.check_oracle_float(close, fraction) == []
    assert _codes(checks.check_oracle_float(far, fraction)) == {"float_vs_fraction"}
