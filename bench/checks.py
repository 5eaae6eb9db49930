"""Output checks for the benchmark's CLI invocations.

Every reference here is computed apart from the program: harmonic sums
with exact rationals or mpmath, bound factors at 40 digits, Wilson
intervals from their textbook formula.  None compares against a stored
copy of the program's output.  The only program function used as a
reference is the enumeration oracle, for the Monte Carlo frequency
check, because it is the ground truth that check is about.

Each check returns a list of error strings, empty when the output passes.
Every error starts with a short code and a colon, so a run can tell a
known fault from a new one.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import mpmath

# Below this t the harmonic sum is taken in exact rationals: an exact
# rounding tie (such as k = 3.7, t = 4) can fool any finite precision.
EXACT_SUM_BELOW = 1000
MP_DIGITS = 60
FACTOR_TOL = 1e-12
WILSON_TOL = 1e-12
CLOSED_FORM_TOL = 1e-12
ORACLE_FLOAT_TOL = 1e-12


def wilson(successes: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for successes out of n, clipped to [0, 1]."""
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def inverse_time_mass(k: float, t: int) -> Fraction | mpmath.mpf:
    """Sum of min(1, k/i) over i = 1..t, exactly below EXACT_SUM_BELOW."""
    flat = math.floor(k)
    if t <= flat:
        return Fraction(t)
    if t < EXACT_SUM_BELOW:
        tail = sum(Fraction(1, i) for i in range(flat + 1, t + 1))
        return flat + Fraction(k) * tail
    with mpmath.workdps(MP_DIGITS):
        return flat + mpmath.mpf(k) * (mpmath.harmonic(t) - mpmath.harmonic(flat))


def expected_x(k: float, t: int, num_arms: int) -> float:
    """x_t as the program promises it: the double nearest the exploration
    mass, divided by 2n in double arithmetic (exact when n is a power of
    two, one more rounding otherwise)."""
    return float(inverse_time_mass(k, t)) / (2.0 * num_arms)


def four_factor_bound(
    x: float, eps_t: float, num_arms: int, delta: float, rho: float
) -> dict:
    """The selection bound's factors, raw product and clamped value,
    evaluated at 40 digits from the given doubles."""
    with mpmath.workdps(40):
        x, eps_t, delta, rho = map(mpmath.mpf, (x, eps_t, delta, rho))
        n = num_arms
        factors = (
            1 - eps_t / n,
            1 - n * mpmath.exp(-x / 5),
            1 - 2 * n * mpmath.exp(-2 * delta**2 * x),
            1 - 2 * n * mpmath.exp(-(rho**2 / 2) * x),
        )
        raw = factors[0] * factors[1] * factors[2] * factors[3]
        vacuous = raw <= 0 or any(f < 0 for f in factors)
        clamped = 0.0 if vacuous else float(min(1, raw))
        return {
            "factors": tuple(float(f) for f in factors),
            "raw": float(raw),
            "clamped": clamped,
        }


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# cbandits run
# ---------------------------------------------------------------------------


def check_run(results_csv: str, summary: dict, expect: dict) -> list[str]:
    """Check one ``cbandits run`` output.

    ``expect`` holds the inputs: replications, checkpoints, deltas, k,
    num_arms, rho, and optionally ``oracle``, a mapping from a checkpoint
    to the exact per-arm selection law at that step.
    """
    errors = []
    reps = expect["replications"]
    rows = list(csv.DictReader(io.StringIO(results_csv)))
    cells = [(t, d) for t in expect["checkpoints"] for d in expect["deltas"]]
    if [(int(r["t"]), float(r["delta"])) for r in rows] != cells:
        return [f"rows: results.csv rows do not cover {cells}"]

    selections = summary["diagnostics"]["arm_selections"]
    for t, counts in zip(expect["checkpoints"], selections):
        if sum(counts) != reps:
            errors.append(f"selection_sum: t={t} arm counts sum to {sum(counts)}, not {reps}")

    for row in rows:
        t = int(row["t"])
        delta = float(row["delta"])
        successes = int(row["successes"])
        if int(row["R"]) != reps or not 0 <= successes <= reps:
            errors.append(f"successes: t={t} {successes} of {row['R']}")
            continue
        low, high = wilson(successes, reps, 3.0)
        ci_low, ci_high = float(row["ci_low"]), float(row["ci_high"])
        if not (_close(ci_low, low, WILSON_TOL) and _close(ci_high, high, WILSON_TOL)):
            errors.append(
                f"wilson: t={t} [{ci_low!r}, {ci_high!r}] != [{low!r}, {high!r}]"
            )
        x = expected_x(expect["k"], t, expect["num_arms"])
        eps_t = min(1.0, expect["k"] / t)
        bound = four_factor_bound(x, eps_t, expect["num_arms"], delta, expect["rho"])
        if not (
            _close(float(row["bound_clamped"]), bound["clamped"], FACTOR_TOL)
            and _close(float(row["bound_raw"]), bound["raw"], FACTOR_TOL)
        ):
            errors.append(
                f"bound: t={t} delta={delta} raw/clamped {row['bound_raw']}/"
                f"{row['bound_clamped']} != {bound['raw']!r}/{bound['clamped']!r}"
            )
        if ci_high < float(row["bound_clamped"]):
            errors.append(f"dominance: t={t} ci_high {ci_high} < bound {row['bound_clamped']}")

    for t, law in expect.get("oracle", {}).items():
        counts = selections[expect["checkpoints"].index(t)]
        errors.extend(check_frequency(counts, reps, law, t))
    return errors


def check_frequency(counts: list[int], reps: int, law: list[float], t: int) -> list[str]:
    """Each arm's selection frequency at step t must hold the exact
    probability inside its z = 4 Wilson interval."""
    errors = []
    for arm, (count, p) in enumerate(zip(counts, law)):
        low, high = wilson(count, reps, 4.0)
        if not low <= p <= high:
            errors.append(
                f"oracle_frequency: t={t} arm {arm} {count}/{reps} "
                f"interval [{low}, {high}] misses exact {p}"
            )
    return errors


# ---------------------------------------------------------------------------
# cbandits bound
# ---------------------------------------------------------------------------


def check_bound(csv_text: str, expect: dict) -> list[str]:
    """Check one ``cbandits bound --k`` output.

    ``expect`` holds k, num_arms, delta, rho, the t-grid and ``sample``,
    the grid points whose x_t and factors are recomputed at high precision.
    """
    errors = []
    k, n = expect["k"], expect["num_arms"]
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if [int(r["t"]) for r in rows] != list(expect["grid"]):
        return ["rows: the t column is not the requested grid"]
    sample = set(expect["sample"])
    previous = 0.0
    for row in rows:
        t = int(row["t"])
        factors = tuple(
            float(row[c]) for c in ("factor_eps", "factor_count", "factor_feas", "factor_reward")
        )
        raw, clamped = float(row["raw"]), float(row["clamped"])
        vacuous = row["vacuous"] == "true"

        if t in sample:
            x = expected_x(k, t, n)
            if float(row["x_t"]) != x:
                errors.append(f"x_t: t={t} {row['x_t']} != {x!r}")
            eps_t = min(1.0, k / t)
            bound = four_factor_bound(x, eps_t, n, expect["delta"], expect["rho"])
            if float(row["epsilon_t"]) != eps_t or not all(
                _close(a, b, FACTOR_TOL) for a, b in zip(factors, bound["factors"])
            ):
                errors.append(f"factors: t={t} {factors} != {bound['factors']}")

        product = factors[0] * factors[1] * factors[2] * factors[3]
        if abs(raw - product) > 4 * math.ulp(product):
            errors.append(f"raw: t={t} {raw!r} is not the product {product!r}")
        rule = raw <= 0.0 or any(f < 0.0 for f in factors)
        if vacuous != rule or clamped != (0.0 if rule else min(1.0, raw)):
            errors.append(f"vacuous: t={t} vacuous={vacuous} clamped={clamped!r} raw={raw!r}")
        if not 0.0 <= clamped <= 1.0:
            errors.append(f"clamped_range: t={t} {clamped!r}")
        if clamped < previous:
            errors.append(f"monotone: t={t} clamped {clamped!r} < {previous!r} before it")
        previous = max(previous, clamped)

        closed = row.get("closed_form_rho_squared", "")
        if (closed == "") != (t < k):
            errors.append(f"closed_form: t={t} presence does not follow t >= k")
        elif closed and float(closed) > clamped + CLOSED_FORM_TOL:
            errors.append(f"closed_form: t={t} rho_squared {closed} > exact {clamped!r}")
    return errors


# ---------------------------------------------------------------------------
# cbandits oracle
# ---------------------------------------------------------------------------


def check_oracle_fraction(doc: dict) -> list[str]:
    """Exact probabilities sum to exactly 1 and round to the floats shown."""
    exact = [Fraction(p) for p in doc["arm_probabilities_exact"]]
    errors = []
    total = sum(exact)
    if total != 1:
        errors.append(f"sum_not_one: exact probabilities sum to 1 + {float(total - 1)!r}")
    if [float(p) for p in exact] != doc["arm_probabilities"]:
        errors.append("rounding: arm_probabilities are not the exact values rounded")
    return errors


def check_oracle_float(doc: dict, fraction_doc: dict) -> list[str]:
    """The float method agrees with the fraction method within 1e-12."""
    exact = [float(Fraction(p)) for p in fraction_doc["arm_probabilities_exact"]]
    got = doc["arm_probabilities"]
    if len(got) != len(exact) or any(
        abs(a - b) > ORACLE_FLOAT_TOL for a, b in zip(got, exact)
    ):
        return [f"float_vs_fraction: {got} vs exact {exact}"]
    return []


