"""The benchmark's four workloads: inputs made from a seed, the CLI
invocations of one round, and the checks on each invocation's output.

Only instance parameters, the master seed and grid points depend on the
seed.  Replication counts, horizons, grid sizes and node counts do not,
so every seed asks the program for the same amount of work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("mc-wide", "mc-long", "bound-grid", "oracle-exact")


@dataclass
class Op:
    """One CLI invocation.  ``check`` receives the stdout of every op of
    the round so far, keyed by label, and the op's output directory."""

    label: str
    argv: list[str]
    check: Callable[[dict, Path], list[str]] | None = None
    # Error code of a program fault this op is known to hit on every run.
    known_fault: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[Op]


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}/{seed}")
    return _BUILDERS[name](rng, workdir)


def _write(workdir: Path, name: str, config: dict) -> str:
    # JSON is YAML, so the CLI's config loader reads it as is.
    path = workdir / name
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return str(path)


def _run_op(label: str, config_path: str, workdir: Path, check=None) -> Op:
    out_dir = workdir / label
    return Op(label, ["run", "--config", config_path, "--out-dir", str(out_dir),
                      "--workers", "1"], check)


def _run_check(expect: dict):
    def check(outputs: dict, out_dir: Path) -> list[str]:
        results = (out_dir / "results.csv").read_text(encoding="utf-8")
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        return checks.check_run(results, summary, expect)

    return check


def _bernoulli_arm(reward: float, cost: float) -> dict:
    return {"reward": {"kind": "bernoulli", "p": reward},
            "cost": {"kind": "bernoulli", "p": cost}}


def _mc_wide(rng: random.Random, workdir: Path) -> Workload:
    """Two Bernoulli arms shaped like the acceptance panel: one feasible
    arm with a high reward, one infeasible arm with a low one.  The gaps
    are wide (rho >= 0.7, eta >= 0.35) and k < 5, so the bound at
    delta = eta - 0.01 is positive by t = 1000 and the greedy branch
    already has positive probability at t = 5, where the exact oracle
    can check the frequencies."""
    cost0, cost1 = rng.randint(10, 15), rng.randint(85, 90)
    reward0, reward1 = rng.randint(88, 92), rng.randint(12, 18)
    k = rng.randint(410, 490) / 100
    delta = (min(50 - cost0, cost1 - 50) - 1) / 100
    instance = {
        "constraint_level": 0.5,
        "arms": [_bernoulli_arm(reward0 / 100, cost0 / 100),
                 _bernoulli_arm(reward1 / 100, cost1 / 100)],
    }
    master_seed = rng.randrange(2**32)
    checkpoints = [5, 10, 100, 1000]
    replications = 8000

    def config(checkpoints, replications):
        return {
            "instance": instance,
            "schedule": {"kind": "inverse_time", "k": k},
            "experiment": {"checkpoints": checkpoints, "deltas": [0.0, delta],
                           "replications": replications,
                           "master_seed": master_seed},
        }

    expect = {
        "replications": replications, "checkpoints": checkpoints,
        "deltas": [0.0, delta], "k": k, "num_arms": 2,
        "rho": abs(reward0 / 100 - reward1 / 100),
    }
    oracle_law = {}

    def check(outputs: dict, out_dir: Path) -> list[str]:
        if not oracle_law:
            oracle_law[5] = _oracle_law(instance, k, 5)
        return _run_check({**expect, "oracle": oracle_law})(outputs, out_dir)

    main = _write(workdir, "mc-wide.json", config(checkpoints, replications))
    warm = _write(workdir, "mc-wide-warmup.json", config([5, 20], 64))
    return Workload(
        "mc-wide",
        [_run_op("run", main, workdir, check)],
        [_run_op("warmup", warm, workdir)]
    )


def _oracle_law(instance: dict, k: float, t: int) -> list[float]:
    from cbandits.analysis import exact_selection_probability
    from cbandits.core import instance_from_config
    from cbandits.strategies import InverseTimeSchedule

    result = exact_selection_probability(
        instance_from_config(instance), InverseTimeSchedule(k), t, method="fraction"
    )
    return list(result.arm_probabilities)


def _mc_long(rng: random.Random, workdir: Path) -> Workload:
    """Six arms with beta and discrete rewards and costs, uniform ties.

    Reward means sit 0.18 apart (rho >= 0.176), so with k near 600 the
    bound is positive at t = 10^4 even for six arms.  The discrete
    rewards share the lattice {0, 0.5, 1}, so the uniform tie rule has
    real ties to break.  Arms 0-3 are feasible (cost means <= 0.35),
    arms 4 and 5 are not (>= 0.7).
    """
    arms = []
    reward_means = []
    for i in range(6):
        mean = 0.04 + 0.18 * i + rng.randint(-2, 2) / 1000
        if i % 2 == 0:
            reward = {"kind": "beta", "shape1": 6 * mean, "shape2": 6 * (1 - mean)}
        else:
            middle = 0.3 if mean <= 0.8 else 0.1
            top = mean - middle / 2
            reward = {"kind": "discrete", "values": [0.0, 0.5, 1.0],
                      "probabilities": [1 - middle - top, middle, top]}
        reward_means.append(mean)
        cost_mean = (0.2 + 0.05 * (i % 4) if i < 4 else 0.7 + 0.05 * (i - 4))
        cost_mean += rng.randint(-5, 5) / 1000
        if i % 2 == 0:
            cost = {"kind": "discrete", "values": [cost_mean - 0.1, cost_mean + 0.1],
                    "probabilities": [0.5, 0.5]}
        else:
            cost = {"kind": "beta", "shape1": 6 * cost_mean, "shape2": 6 * (1 - cost_mean)}
        arms.append({"reward": reward, "cost": cost})
    k = float(rng.randint(580, 620))
    master_seed = rng.randrange(2**32)
    checkpoints = [100, 1000, 10000]
    replications = 40

    def config(checkpoints, replications):
        return {
            "instance": {"constraint_level": 0.5, "arms": arms},
            "schedule": {"kind": "inverse_time", "k": k},
            "strategy": {"kind": "constrained_eps_greedy", "tie_rule": "uniform"},
            "experiment": {"checkpoints": checkpoints, "deltas": [0.0, 0.1],
                           "replications": replications, "master_seed": master_seed},
        }

    rho = min(abs(a - b) for i, a in enumerate(reward_means) for b in reward_means[i + 1:])
    expect = {"replications": replications, "checkpoints": checkpoints,
              "deltas": [0.0, 0.1], "k": k, "num_arms": 6, "rho": rho}
    main = _write(workdir, "mc-long.json", config(checkpoints, replications))
    warm = _write(workdir, "mc-long-warmup.json", config([10, 50], 8))
    return Workload(
        "mc-long",
        [_run_op("run", main, workdir, _run_check(expect))],
        [_run_op("warmup", warm, workdir)]
    )


# (k, num_arms, delta, rho): the acceptance test's k = 40 point, a
# small-k and two many-arm points.  n = 3 makes x_t round twice.
_BOUND_PANEL = ((40.0, 2, 0.5, 0.5), (120.0, 4, 0.2, 0.3),
                (8.5, 3, 0.3, 0.4), (800.0, 8, 0.1, 0.2))
GRID_POINTS = 1000
GRID_MAX = 10**8
SAMPLED_POINTS = 12


def _bound_grid(rng: random.Random, workdir: Path) -> Workload:
    """A log-uniform grid of 1000 distinct t up to 10^8 for each panel
    point, k, delta and rho jittered by the seed."""
    grid = set(range(1, 41)) | {GRID_MAX}
    while len(grid) < GRID_POINTS:
        grid.add(int(10 ** rng.uniform(math.log10(41), math.log10(GRID_MAX))))
    grid = sorted(grid)
    ops = []
    for index, (k, n, delta, rho) in enumerate(_BOUND_PANEL):
        k = k * (1000 + rng.randint(-50, 50)) / 1000
        delta = (round(delta * 1000) + rng.randint(-10, 10)) / 1000
        rho = (round(rho * 1000) + rng.randint(-10, 10)) / 1000
        first_decay = next(t for t in grid if t > k)
        sample = sorted(set(rng.sample(grid, SAMPLED_POINTS - 2)) | {first_decay, GRID_MAX})
        expect = {"k": k, "num_arms": n, "delta": delta, "rho": rho,
                  "grid": grid, "sample": sample}
        label = f"bound{index}"
        argv = ["bound", "--num-arms", str(n), "--delta", repr(delta), "--rho", repr(rho),
                "--k", repr(k), "--t-grid", *map(str, grid)]
        ops.append(Op(label, argv, _bound_check(label, expect)))
    warm = ["bound", "--num-arms", "2", "--delta", "0.5", "--rho", "0.5", "--k", "40",
            "--t-grid", "1", "100", str(GRID_MAX)]
    return Workload("bound-grid", ops, [Op("warmup", warm)])


def _bound_check(label: str, expect: dict):
    def check(outputs: dict, out_dir: Path) -> list[str]:
        return checks.check_bound(outputs[label], expect)

    return check


# The two-arm Bernoulli instance of the acceptance panel's row B, with
# k = 3 (eps_t < 1 from t = 4, so the greedy branch matters): its DFS visits
# 37,449 nodes at t = 6.  Its cost Bernoulli(0.3) has a complement
# 1.0 - 0.3 that is not exact in doubles, which the exact oracle keeps,
# so its exact law sums to 1 - 1.5e-16 (a program fault, counted as a
# failed operation on every run).  It does not depend on the seed.
_ORACLE_FIXED = {
    "instance": {"constraint_level": 0.5,
                 "arms": [_bernoulli_arm(0.7, 0.3), _bernoulli_arm(0.5, 0.7)]},
    "schedule": {"kind": "inverse_time", "k": 3.0},
}
ORACLE_T = 6
# Odd hundredths in (2, 3) except 2.25 and 2.75: none is a dyadic rational.
_NON_DYADIC_K = tuple(x / 100 for x in range(201, 300, 2) if x % 25)


def _oracle_exact(rng: random.Random, workdir: Path) -> Workload:
    """The fixed two-arm Bernoulli instance, and a seeded three-arm
    instance with lattice rewards, uniform ties and point-mass costs.

    The seeded instance draws reward values and probabilities from
    dyadic lattices and k from non-dyadic hundredths in (2, 3): the size
    of the oracle's fractions, and with it the work, is then about the
    same for every seed.  A probability whose
    complement rounds would fail the exact-sum check on some seeds only;
    the fixed instance shows that fault on every run.
    """
    lattice = (0.0, 0.25, 0.5, 0.75, 1.0)
    arms = []
    for cost in (0.2, 0.4, 0.8):
        low, high = sorted(rng.sample(lattice, 2))
        top = rng.choice((0.25, 0.5, 0.75))
        arms.append({
            "reward": {"kind": "discrete", "values": [low, high],
                       "probabilities": [1 - top, top]},
            "cost": {"kind": "point_mass", "value": cost},
        })
    seeded = {
        "instance": {"constraint_level": 0.5, "arms": arms},
        "schedule": {"kind": "inverse_time", "k": rng.choice(_NON_DYADIC_K)},
        "strategy": {"kind": "constrained_eps_greedy", "tie_rule": "uniform"},
    }
    ops, warmup = [], []
    for name, config, fault in (("fixed", _ORACLE_FIXED, "sum_not_one"),
                                ("seeded", seeded, None)):
        path = _write(workdir, f"oracle-{name}.json", config)
        for method in ("fraction", "float"):
            argv = ["oracle", "--config", path, "--method", method, "--deltas", "0.0", "0.1"]
            label = f"{name}-{method}"
            ops.append(Op(label, argv + ["--t", str(ORACLE_T)],
                          _oracle_check(name, method),
                          fault if method == "fraction" else None))
            warmup.append(Op(label, argv + ["--t", "3"]))
    return Workload("oracle-exact", ops, warmup)


def _oracle_check(name: str, method: str):
    def check(outputs: dict, out_dir: Path) -> list[str]:
        fraction = json.loads(outputs[f"{name}-fraction"])
        if method == "fraction":
            return checks.check_oracle_fraction(fraction)
        return checks.check_oracle_float(json.loads(outputs[f"{name}-float"]), fraction)

    return check


_BUILDERS = {
    "mc-wide": _mc_wide,
    "mc-long": _mc_long,
    "bound-grid": _bound_grid,
    "oracle-exact": _oracle_exact,
}
