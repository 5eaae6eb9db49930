"""Acceptance gate: eight end-to-end criteria covering oracle agreement,
bound dominance, convergence, limit/rate behaviour, closed-form consistency,
characterization correctness, byte-level determinism, and degenerate-case
liveness.  Each criterion registers one [PASS]/[FAIL] line with its pinned
tolerances; conftest replays the lines in a terminal-summary section after
the run, outside pytest's output capture."""

from __future__ import annotations

import itertools
import os
import time

import conftest

import numpy as np

from cbandits.analysis import (
    delta_best_arms,
    delta_best_arms_bruteforce,
    exact_selection_probability,
    feasibility_profile,
)
from cbandits.bounds import (
    VARIANT_RHO_LINEAR,
    VARIANT_RHO_SQUARED,
    closed_form_lower_bound,
    selection_lower_bound,
)
from cbandits.cli import main
from cbandits.core import Arm, Bernoulli, Discrete, PointMass, ProblemInstance
from cbandits.harness import ExperimentConfig, run_experiment, wilson_interval
from cbandits.strategies import ConstantSchedule, InverseTimeSchedule


def _finish(name: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def _bernoulli_arm(p_reward: float, p_cost: float) -> Arm:
    return Arm(reward=Bernoulli(p_reward), cost=Bernoulli(p_cost))


def _two_point_cost(mean: float) -> Discrete:
    # Symmetric two-point distribution at mean +/- 0.2.
    return Discrete(values=(mean - 0.2, mean + 0.2), probabilities=(0.5, 0.5))


def test_criterion_1_oracle_equivalence():
    """Monte Carlo frequency at t = 2 matches the exact enumeration value
    0.625 within the z = 4 Wilson half-width at R = 10^6."""
    started = time.monotonic()
    instance = ProblemInstance(
        constraint_level=0.5,
        arms=(
            Arm(reward=PointMass(1.0), cost=PointMass(0.0)),
            Arm(reward=PointMass(0.0), cost=PointMass(1.0)),
        ),
    )
    schedule = ConstantSchedule(0.5)
    oracle = exact_selection_probability(instance, schedule, 2, deltas=(0.0,))
    exact = oracle.arm_probabilities[0]

    config = ExperimentConfig(
        instance=instance,
        schedule=schedule,
        checkpoints=(2,),
        deltas=(0.0,),
        replications=10**6,
        master_seed=101,
    )
    estimate = run_experiment(config).estimates[0]
    low, high = wilson_interval(estimate.successes, estimate.replications, z=4.0)
    elapsed = time.monotonic() - started

    passed = exact == 0.625 and low <= exact <= high and elapsed < 30.0
    _finish(
        "AC1 oracle equivalence",
        passed,
        f"exact=0.625, p_hat={estimate.p_hat:.6f}, z=4 interval "
        f"[{low:.6f}, {high:.6f}] contains exact={low <= exact <= high}, "
        f"R=10^6, elapsed {elapsed:.1f}s < 30s",
    )


# Panel of five instances with eta, rho in {0.1, 0.2, 0.3}; k chosen so that
# k >= max{4n/rho^2, n/delta^2, 10n} with delta = eta/2, making the
# closed-form exponent at least 1.
_PANEL = (
    ("A", ProblemInstance(arms=(_bernoulli_arm(0.6, 0.4), _bernoulli_arm(0.5, 0.6)), constraint_level=0.5), 800.0),
    ("B", ProblemInstance(arms=(_bernoulli_arm(0.7, 0.3), _bernoulli_arm(0.5, 0.7)), constraint_level=0.5), 200.0),
    ("C", ProblemInstance(arms=(_bernoulli_arm(0.8, 0.2), _bernoulli_arm(0.5, 0.8)), constraint_level=0.5), 89.0),
    ("D", ProblemInstance(arms=(_bernoulli_arm(0.8, 0.4), _bernoulli_arm(0.5, 0.6)), constraint_level=0.5), 800.0),
    (
        "E",
        ProblemInstance(
            arms=(
                Arm(reward=Bernoulli(0.6), cost=_two_point_cost(0.2)),
                Arm(reward=Bernoulli(0.5), cost=_two_point_cost(0.8)),
            ),
            constraint_level=0.5,
        ),
        89.0,
    ),
)


def test_criterion_2_bound_dominance():
    """On the five-instance panel at delta = eta/2 and t in {1e2, 1e3, 1e4},
    ci_high >= bound_clamped in every cell and p_hat >= bound_clamped in
    every cell where the bound exceeds 0.05.  R = 10^4 per instance, on up
    to two workers: AC7 holds results byte-identical across worker counts."""
    started = time.monotonic()
    workers = min(2, os.cpu_count() or 1)
    violations = []
    cells = 0
    positive_cells = 0
    for index, (name, instance, k) in enumerate(_PANEL):
        profile = feasibility_profile(instance)
        delta = profile.eta / 2.0
        config = ExperimentConfig(
            instance=instance,
            schedule=InverseTimeSchedule(k),
            checkpoints=(100, 1000, 10000),
            deltas=(delta,),
            replications=10**4,
            master_seed=4000 + index,
        )
        for est in run_experiment(config, workers).estimates:
            cells += 1
            if est.ci_high < est.bound_clamped:
                violations.append(f"{name}@t={est.t}: ci_high<{est.bound_clamped:.4f}")
            if est.bound_clamped > 0.05:
                positive_cells += 1
                if est.p_hat < est.bound_clamped:
                    violations.append(
                        f"{name}@t={est.t}: p_hat={est.p_hat:.4f}<{est.bound_clamped:.4f}"
                    )
    elapsed = time.monotonic() - started
    passed = not violations and cells == 15 and positive_cells > 0 and elapsed < 600.0
    _finish(
        "AC2 bound dominance",
        passed,
        f"{cells} cells (5 instances x 3 checkpoints), ci_high >= bound in all, "
        f"p_hat >= bound in all {positive_cells} cells with bound > 0.05, "
        f"violations={violations or 'none'}, elapsed {elapsed:.1f}s < 600s",
    )


def test_criterion_3_asymptotic_optimality():
    """With eta = rho = 0.2 and k = 100, the frequency of selecting an
    optimal feasible arm exceeds 0.95 at t = 10^4 (R = 2000) and is
    nondecreasing across checkpoints up to one Wilson half-width."""
    started = time.monotonic()
    instance = ProblemInstance(
        arms=(_bernoulli_arm(0.7, 0.3), _bernoulli_arm(0.5, 0.7)),
        constraint_level=0.5,
    )
    profile = feasibility_profile(instance)
    config = ExperimentConfig(
        instance=instance,
        schedule=InverseTimeSchedule(100.0),
        checkpoints=(100, 1000, 10000),
        deltas=(0.0,),
        replications=2000,
        master_seed=303,
    )
    estimates = run_experiment(config).estimates
    freqs = [est.p_hat for est in estimates]
    half_widths = [(est.ci_high - est.ci_low) / 2.0 for est in estimates]
    monotone = all(
        freqs[i + 1] >= freqs[i] - half_widths[i] for i in range(len(freqs) - 1)
    )
    elapsed = time.monotonic() - started
    passed = (
        abs(profile.eta - 0.2) < 1e-15
        and abs(profile.rho - 0.2) < 1e-15
        and freqs[-1] > 0.95
        and monotone
        and elapsed < 300.0
    )
    _finish(
        "AC3 asymptotic optimality",
        passed,
        f"delta=0 frequency at t=(1e2,1e3,1e4): "
        f"({freqs[0]:.4f}, {freqs[1]:.4f}, {freqs[2]:.4f}), final > 0.95, "
        f"nondecreasing up to one half-width={monotone}, R=2000, "
        f"elapsed {elapsed:.1f}s < 300s",
    )


def test_criterion_4_bound_limit_and_rate():
    """With k = 40, two arms, delta = rho = 0.5: clamped >= 0.9999 at
    t = 10^6 and >= 0.99 at t = 10^8; and (1 - clamped(t)) * t stays within
    a factor 10 of its t = 10^4 value across t in [10^4, 10^7]."""
    started = time.monotonic()
    schedule = InverseTimeSchedule(40.0)
    value_1e6 = selection_lower_bound(schedule, 10**6, 2, 0.5, 0.5).clamped
    value_1e8 = selection_lower_bound(schedule, 10**8, 2, 0.5, 0.5).clamped

    grid = (10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6, 3 * 10**6, 10**7)
    gaps = [
        (1.0 - selection_lower_bound(schedule, t, 2, 0.5, 0.5).clamped) * t
        for t in grid
    ]
    base = gaps[0]
    ratios = [gap / base for gap in gaps]
    rate_bounded = base > 0.0 and all(0.1 <= r <= 10.0 for r in ratios)
    elapsed = time.monotonic() - started

    passed = value_1e6 >= 0.9999 and value_1e8 >= 0.99 and rate_bounded
    _finish(
        "AC4 bound limit and rate",
        passed,
        f"clamped(1e6)={value_1e6:.10f} >= 0.9999, "
        f"clamped(1e8)={value_1e8:.10f} >= 0.99, "
        f"(1-clamped)*t over [1e4,1e7] within factor 10 of t=1e4 value "
        f"{base:.2f} (ratios {min(ratios):.3f}..{max(ratios):.3f}), "
        f"elapsed {elapsed:.1f}s",
    )


def test_criterion_5_closed_form_consistency():
    """The consistent closed-form variant never exceeds the exact clamped
    bound (tolerance 1e-12) on a 432-point grid, while the literal variant
    violates that inequality at a documented point with rho < 1."""
    started = time.monotonic()
    grid = list(
        itertools.product(
            (11.0, 40.0, 89.0, 200.0),
            (2, 3, 5),
            (0.05, 0.1, 0.5),
            (0.1, 0.5, 1.0),
            (1, 3, 10, 100),
        )
    )
    worst = -float("inf")
    violations = 0
    for k, n, delta, rho, mult in grid:
        t = int(k * mult)
        exact = selection_lower_bound(InverseTimeSchedule(k), t, n, delta, rho)
        closed = closed_form_lower_bound(k, n, delta, rho, float(t), VARIANT_RHO_SQUARED)
        excess = closed.clamped - exact.clamped
        worst = max(worst, excess)
        if excess > 1e-12:
            violations += 1

    literal = closed_form_lower_bound(40.0, 2, 0.25, 0.2, 1e5, VARIANT_RHO_LINEAR)
    exact_at_point = selection_lower_bound(InverseTimeSchedule(40.0), 10**5, 2, 0.25, 0.2)
    literal_violates = literal.clamped > exact_at_point.clamped + 1e-12
    elapsed = time.monotonic() - started

    passed = violations == 0 and literal_violates and elapsed < 10.0
    _finish(
        "AC5 closed-form consistency",
        passed,
        f"consistent variant <= exact + 1e-12 on all {len(grid)} grid points "
        f"(max excess {worst:.2e}); literal variant at "
        f"(k=40, n=2, delta=0.25, rho=0.2, t=1e5) gives "
        f"{literal.clamped:.10f} > exact {exact_at_point.clamped:.10f}, "
        f"elapsed {elapsed:.1f}s < 10s",
    )


def test_criterion_6_characterization_correctness():
    """Closed-form delta-best characterization agrees with brute-force
    subset enumeration on 1000 random instances with up to 8 arms at
    delta in {0, eta/2, eta, 2*eta, 1}."""
    started = time.monotonic()
    rng = np.random.default_rng(20260819)
    grid_values = np.linspace(0.0, 1.0, 21)
    checked = 0
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        level = float(rng.choice((0.3, 0.5, 0.7)))
        while True:
            costs = rng.choice(grid_values, size=n)
            if (costs <= level).any():
                break
        means = rng.choice(grid_values, size=n)
        instance = ProblemInstance(
            arms=tuple(
                Arm(reward=PointMass(float(m)), cost=PointMass(float(c)))
                for m, c in zip(means, costs)
            ),
            constraint_level=level,
        )
        eta = feasibility_profile(instance).eta
        for delta in (0.0, eta / 2.0, eta, 2.0 * eta, 1.0):
            checked += 1
            if delta_best_arms(instance, delta) != delta_best_arms_bruteforce(
                instance, delta
            ):
                mismatches += 1
    elapsed = time.monotonic() - started
    passed = mismatches == 0 and checked == 5000 and elapsed < 10.0
    _finish(
        "AC6 characterization correctness",
        passed,
        f"closed form == brute force in {checked}/{checked} comparisons "
        f"(1000 instances x 5 deltas), mismatches={mismatches}, "
        f"elapsed {elapsed:.1f}s < 10s",
    )


def test_criterion_7_determinism(tmp_path, capsys, chunk_layouts):
    """Two cmd_run invocations with identical resolved configs produce
    byte-identical results.csv, including across worker counts."""
    started = time.monotonic()
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        """\
instance:
  constraint_level: 0.5
  arms:
    - reward: {kind: bernoulli, p: 0.7}
      cost: {kind: bernoulli, p: 0.3}
    - reward: {kind: bernoulli, p: 0.5}
      cost: {kind: bernoulli, p: 0.7}
schedule: {kind: inverse_time, k: 20}
experiment:
  checkpoints: [5, 50]
  deltas: [0.0, 0.1]
  replications: 400
  master_seed: 11
""",
        encoding="utf-8",
    )
    payloads = {}
    for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out_dir = tmp_path / name
        code = main([
            "run", "--config", str(config_path),
            "--out-dir", str(out_dir), "--workers", workers,
        ])
        assert code == 0
        payloads[name] = (out_dir / "results.csv").read_bytes()
    capsys.readouterr()
    elapsed = time.monotonic() - started

    identical_rerun = payloads["a"] == payloads["b"]
    identical_workers = payloads["a"] == payloads["c"]
    # The two-worker run must split and merge work.
    merged_chunks = len(chunk_layouts[-1])
    passed = identical_rerun and identical_workers and merged_chunks > 1
    _finish(
        "AC7 determinism",
        passed,
        f"results.csv byte-identical on rerun={identical_rerun} and across "
        f"worker counts 1 vs 2={identical_workers} "
        f"({len(payloads['a'])} bytes, {merged_chunks} chunks merged with 2 workers), "
        f"elapsed {elapsed:.1f}s",
    )


def test_criterion_8_degenerate_case_liveness():
    """Instances with eta = 0 (an arm exactly on the budget) and rho = 0
    (duplicate reward means) run to t = 10^4 without error; every reported
    bound is vacuous (clamped to 0) and the delta = 0 frequency is still
    produced."""
    started = time.monotonic()
    eta_zero = ProblemInstance(
        arms=(
            Arm(reward=Bernoulli(0.7), cost=PointMass(0.5)),
            Arm(reward=Bernoulli(0.5), cost=PointMass(0.3)),
        ),
        constraint_level=0.5,
    )
    rho_zero = ProblemInstance(
        arms=(_bernoulli_arm(0.6, 0.3), _bernoulli_arm(0.6, 0.7)),
        constraint_level=0.5,
    )
    details = []
    all_ok = True
    for label, instance, expected_zero in (
        ("eta=0", eta_zero, "eta"),
        ("rho=0", rho_zero, "rho"),
    ):
        profile = feasibility_profile(instance)
        assert getattr(profile, expected_zero) == 0.0
        config = ExperimentConfig(
            instance=instance,
            schedule=InverseTimeSchedule(100.0),
            checkpoints=(100, 10000),
            deltas=(0.0,),
            replications=200,
            master_seed=808,
        )
        estimates = run_experiment(config).estimates
        vacuous = all(est.bound_clamped == 0.0 for est in estimates)
        freq_produced = all(0.0 <= est.p_hat <= 1.0 for est in estimates)
        all_ok = all_ok and vacuous and freq_produced
        details.append(
            f"{label}: ran to t=1e4, bounds vacuous={vacuous}, "
            f"delta=0 freq at t=1e4 is {estimates[-1].p_hat:.3f}"
        )
    elapsed = time.monotonic() - started
    _finish(
        "AC8 degenerate-case liveness",
        all_ok,
        "; ".join(details) + f", elapsed {elapsed:.1f}s",
    )
