"""Seeded Monte Carlo experiments: replicate trajectories, estimate the
probability that the arm selected at each checkpoint is delta-best, and
compare the estimate against the theoretical lower bound.

Experiments run on one vectorized kernel (:func:`run_chunk`) that
advances a block of replications in lockstep, with its state stored
arm-major.  Its ground truth is the exact oracle's float law
(``analysis.exact_selection_probability(method="float")``), which
follows the same doubles; the tests hold the kernel's arm frequencies
against it.  The kernel samples each quantity of a step in one gather:
``u < p[arm]`` when every arm is Bernoulli, otherwise a lookup in one
padded table of the arms' quantile tables, plus one ``betaincinv`` call
over the replications that pulled a beta arm.  The draws of step t in
replication r depend only on (master_seed, t, r), read from
:func:`~cbandits.core.step_uniforms`, which makes results independent of
scheduling, worker count and chunk layout, and leaves the estimate at a
checkpoint unchanged when a later one is added.  For large chunks outside
a pool's workers, on more than one CPU, the stream draws the next steps
on a helper thread while the kernel works (same bits, at most two
blocks of memory more); :func:`run_chunk` closes it, so no thread
outlives the chunk.  numpy is imported only
where arrays are made, so an :class:`ExperimentConfig` is built and
checked without it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

from cbandits.analysis import (
    FeasibilityProfile,
    delta_best_arms,
    feasibility_profile,
    reward_separation,
)
from cbandits.bounds import selection_lower_bound
from cbandits.core import (
    Bernoulli,
    Beta,
    ProblemInstance,
    ValidationError,
    _as_float,
    _as_int,
    _betaincinv,
    _check_experiment,
    _format_csv_value,
    _increasing_steps,
    _mark_pool_worker,
    step_uniforms,
)
from cbandits.strategies import (
    POLICY_CONSTRAINED,
    TIE_LOWEST_INDEX,
    EpsilonSchedule,
    _check_strategy,
    _selection_inputs,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "WILSON_Z",
    "RESULTS_CSV_COLUMNS",
    "ExperimentConfig",
    "MonteCarloEstimate",
    "ChunkResult",
    "ExperimentResult",
    "wilson_interval",
    "run_chunk",
    "run_experiment",
    "write_results_csv",
    "write_summary_json",
]

WILSON_Z = 3.0

RESULTS_CSV_COLUMNS = (
    "t",
    "delta",
    "successes",
    "R",
    "p_hat",
    "ci_low",
    "ci_high",
    "bound_raw",
    "bound_clamped",
    "dominated",
)

# Largest lockstep chunk, in replications.  A chunk's memory is
# O(replications x arms) whatever the horizon; no merged value depends
# on the chunk layout.
_CHUNK_REPLICATIONS = 2**16


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved description of one Monte Carlo experiment."""

    instance: ProblemInstance
    schedule: EpsilonSchedule
    checkpoints: tuple[int, ...]
    deltas: tuple[float, ...]
    replications: int
    master_seed: int
    policy: str = POLICY_CONSTRAINED
    tie_rule: str = TIE_LOWEST_INDEX

    def __post_init__(self):
        if not isinstance(self.instance, ProblemInstance):
            raise ValidationError("bad_config", "instance must be a ProblemInstance")
        if not isinstance(self.schedule, EpsilonSchedule):
            raise ValidationError("bad_config", "schedule must be an EpsilonSchedule")
        checkpoints = _increasing_steps(self.checkpoints, "checkpoints")
        _check_strategy(self.policy, self.tie_rule)
        # The epsilon the kernel reads must cover every step, or a run
        # fails midway; under ``uniform`` it is 1 and reads no schedule.
        epsilon, _ = _selection_inputs(self.policy, self.schedule, self.instance.constraint_level)
        epsilon(checkpoints[-1])
        deltas, replications, master_seed = _check_experiment(
            self.deltas, self.replications, self.master_seed
        )
        if not deltas:
            raise ValidationError("bad_config", "deltas must be non-empty")
        object.__setattr__(self, "checkpoints", checkpoints)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "replications", replications)
        object.__setattr__(self, "master_seed", master_seed)

    @property
    def horizon(self) -> int:
        return self.checkpoints[-1]

    def to_config(self) -> dict:
        """Resolved config echo; re-parsing it reproduces this object."""
        return {
            "instance": self.instance.to_config(),
            "strategy": {"kind": self.policy, "tie_rule": self.tie_rule},
            "schedule": self.schedule.to_config(),
            "experiment": {
                "checkpoints": list(self.checkpoints),
                "deltas": list(self.deltas),
                "replications": self.replications,
                "master_seed": self.master_seed,
            },
        }


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Estimated probability of the delta-best event at one checkpoint."""

    t: int
    delta: float
    successes: int
    replications: int
    p_hat: float
    ci_low: float
    ci_high: float
    bound_raw: float
    bound_clamped: float
    dominated: bool

    def __post_init__(self):
        assert 0 <= self.successes <= self.replications
        assert 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0

    def to_json_dict(self) -> dict:
        """Field values keyed as in ``RESULTS_CSV_COLUMNS``."""
        out = asdict(self)
        out["R"] = out.pop("replications")
        return out


def wilson_interval(successes: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clipped to [0, 1]."""
    n = _as_int(n, "bad_parameter", "n", 1)
    successes = _as_int(successes, "bad_parameter", "successes", 0, n)
    z = _as_float(z, "bad_parameter", "z", 0.0, strict=True)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    # At the boundaries the exact endpoint coincides with p, but the
    # closed form reaches it only up to rounding; pin it so the interval
    # always contains the point estimate.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


@dataclass
class ChunkResult:
    """Aggregates from one lockstep block of replications.

    ``cum_rewards`` and ``cum_costs`` hold each replication's running
    totals, shaped (checkpoint, replication), so that merged means are
    one correctly rounded sum whatever the chunk layout.
    """

    rep_lo: int
    rep_hi: int
    successes: np.ndarray
    arm_hits: np.ndarray
    cum_rewards: np.ndarray
    cum_costs: np.ndarray


def _sampler(dists):
    """Sampler of one quantity (reward or cost) for a lockstep step.

    ``sample(arm, u)`` returns, per replication, the ``quantile`` of its
    pulled arm's distribution at ``u``, bit for bit.  When every arm is
    Bernoulli the variates are ``u < p[arm]``.  Otherwise the arms'
    ``quantile_table``s are padded into one (cut, arm) and one (value,
    arm) table, with +inf cuts that no ``u`` reaches: a replication's
    variate is the value at the number of its arm's cuts at most ``u``.
    The replications that pulled a beta arm then get one ``betaincinv``
    call over their arms' shapes, the function ``Beta.quantile`` calls.
    """
    import numpy as np

    if all(isinstance(d, Bernoulli) for d in dists):
        p = np.array([d.p for d in dists])
        # Bernoulli.quantile: U < p, as a double.
        return lambda arm, u: (u < p[arm]).astype(np.float64)
    is_beta = np.array([isinstance(d, Beta) for d in dists])
    tables = [((), (0.0,)) if beta else d.quantile_table() for d, beta in zip(dists, is_beta)]
    n_cuts = max(len(cuts) for cuts, _ in tables)
    cut_table = np.full((n_cuts, len(dists)), np.inf)
    value_table = np.zeros((n_cuts + 1, len(dists)))
    for a, (cuts, values) in enumerate(tables):
        cut_table[: len(cuts), a] = cuts
        value_table[: len(values), a] = values
    shape1, shape2 = np.array(
        [(d.shape1, d.shape2) if beta else (1.0, 1.0) for d, beta in zip(dists, is_beta)]
    ).T
    betaincinv = _betaincinv() if is_beta.any() else None

    def sample(arm, u):
        index = np.zeros(len(u), dtype=np.int64)
        for cuts in cut_table:
            index += u >= cuts[arm]
        out = value_table[index, arm]
        if betaincinv is not None:
            rows = np.flatnonzero(is_beta[arm])
            if rows.size:
                pulled = arm[rows]
                out[rows] = betaincinv(shape1[pulled], shape2[pulled], u[rows])
        return out

    return sample


def _greedy_arm(counts, reward_sums, cost_sums, level, uniform_ties, u_arm):
    """:func:`~cbandits.strategies.greedy_ties` over a block of
    replications: each one's greedy arm, the ``floor(u_arm * j)``-th of
    the ``j`` arms it returns under ``uniform_ties``, else the first, and
    the arms' best mean, ``-inf`` exactly where no arm looks feasible.

    State is arm-major, ``(arm, replication)``, and every float is the
    result of the same elementwise operation on the same operands in each
    replication, whatever the block.  Counts are doubles, which hold
    integers exactly below 2**53, so ``level * count`` and ``sum / count``
    round as with integer counts.
    """
    import numpy as np

    feasible = (counts > 0) & (cost_sums <= level * counts)
    means = np.where(feasible, reward_sums / np.maximum(counts, 1), -np.inf)
    best = np.maximum.reduce(means)
    is_tie = means == best
    if uniform_ties:
        n_ties = is_tie.sum(axis=0)
        pick = np.minimum((u_arm * n_ties).astype(np.int64), n_ties - 1)
    else:
        pick = 0
    # The greedy arm is the pick-th (0 under lowest-index ties) maximum in
    # index order: the number of arms with at most ``pick`` maxima up to
    # and including them.  The last arm never counts.
    seen = np.zeros(len(u_arm), dtype=np.int64)
    greedy = np.zeros(len(u_arm), dtype=np.int64)
    for ties in is_tie[:-1]:
        seen += ties
        greedy += seen <= pick
    return greedy, best


def run_chunk(config: ExperimentConfig, rep_lo: int, rep_hi: int) -> ChunkResult:
    """Advance replications [rep_lo, rep_hi) in lockstep.

    Row r - rep_lo of step t's uniform block holds replication r's
    (branch, arm, reward, cost) uniforms.  The policy enters only as the
    rule's inputs (:func:`~cbandits.strategies._selection_inputs`).  With
    ``u_branch < eps_t`` the arm is ``floor(u_arm * n)`` over all n arms;
    otherwise it is :func:`_greedy_arm`'s, or ``floor(u_arm * n)`` when no
    arm looks feasible.  Where eps_t = 1 every replication explores, as
    ``u_branch < 1``, so the greedy arm is not computed.  A pull adds the
    one-hot product ``hit * value`` to every arm's sums, and ``x + 0.0 ==
    x`` for every sum (sums start at +0.0 and values are nonnegative), so
    the arms not pulled keep their bits.
    """
    import numpy as np

    # step_uniforms checks 0 <= rep_lo < rep_hi.
    _as_int(rep_hi, "bad_parameter", "rep_hi", 1, config.replications)
    instance = config.instance
    n_arms = instance.num_arms
    n_reps = rep_hi - rep_lo
    n_checkpoints = len(config.checkpoints)
    n_deltas = len(config.deltas)

    stream = step_uniforms(config.master_seed, rep_lo, rep_hi)
    epsilon, level = _selection_inputs(config.policy, config.schedule, instance.constraint_level)
    cp_index = {t: i for i, t in enumerate(config.checkpoints)}
    membership = np.zeros((n_deltas, n_arms), dtype=bool)
    for i, delta in enumerate(config.deltas):
        membership[i, sorted(delta_best_arms(instance, delta))] = True

    counts = np.zeros((n_arms, n_reps))
    reward_sums = np.zeros((n_arms, n_reps))
    cost_sums = np.zeros((n_arms, n_reps))
    cum_reward = np.zeros(n_reps)
    cum_cost = np.zeros(n_reps)

    successes = np.zeros((n_checkpoints, n_deltas), dtype=np.int64)
    arm_hits = np.zeros((n_checkpoints, n_arms), dtype=np.int64)
    cum_rewards = np.zeros((n_checkpoints, n_reps))
    cum_costs = np.zeros((n_checkpoints, n_reps))

    arm_ids = np.arange(n_arms)[:, None]
    uniform_ties = config.tie_rule != TIE_LOWEST_INDEX
    sample_reward = _sampler([arm.reward for arm in instance.arms])
    sample_cost = _sampler([arm.cost for arm in instance.arms])

    try:
        for t in range(1, config.horizon + 1):
            u_branch, u_arm, u_reward, u_cost = next(stream).T

            arm = np.minimum((u_arm * n_arms).astype(np.int64), n_arms - 1)
            eps_t = epsilon(t)
            if eps_t < 1.0:
                greedy, best = _greedy_arm(
                    counts, reward_sums, cost_sums, level, uniform_ties, u_arm
                )
                take_random = (u_branch < eps_t) | (best == -np.inf)
                arm = np.where(take_random, arm, greedy)

            hits = arm == arm_ids
            rewards = sample_reward(arm, u_reward)
            costs = sample_cost(arm, u_cost)

            counts += hits
            reward_sums += hits * rewards
            cost_sums += hits * costs
            cum_reward += rewards
            cum_cost += costs

            cp = cp_index.get(t)
            if cp is not None:
                successes[cp] += membership[:, arm].sum(axis=1)
                arm_hits[cp] += hits.sum(axis=1)
                cum_rewards[cp] = cum_reward
                cum_costs[cp] = cum_cost
    finally:
        # Stops the helper thread, if the stream draws ahead.
        stream.close()

    return ChunkResult(
        rep_lo=rep_lo,
        rep_hi=rep_hi,
        successes=successes,
        arm_hits=arm_hits,
        cum_rewards=cum_rewards,
        cum_costs=cum_costs,
    )


def _chunk_bounds(replications: int, workers: int) -> list[tuple[int, int]]:
    chunk = min(_CHUNK_REPLICATIONS, -(-replications // workers))
    return [
        (lo, min(lo + chunk, replications)) for lo in range(0, replications, chunk)
    ]


def _chunk_worker(args: tuple[ExperimentConfig, int, int]) -> ChunkResult:
    config, rep_lo, rep_hi = args
    return run_chunk(config, rep_lo, rep_hi)


@dataclass(frozen=True)
class ExperimentResult:
    """All estimates from one experiment plus instance diagnostics."""

    config: ExperimentConfig
    profile: FeasibilityProfile
    estimates: tuple[MonteCarloEstimate, ...]
    diagnostics: dict

    def summary_dict(self, metadata: dict | None = None) -> dict:
        out = {
            "config": self.config.to_config(),
            "profile": self.profile.to_json_dict(),
            "estimates": [e.to_json_dict() for e in self.estimates],
            "diagnostics": self.diagnostics,
            "metadata": metadata or {},
        }
        return out


def _bound_columns(schedule, t: int, num_arms: int, delta: float, rho: float) -> tuple:
    """``(bound_raw, bound_clamped)`` at step ``t``.  A policy that reads no
    schedule (``uniform``) may run past the end of an explicit one; the
    schedule's bound is undefined there, and the columns hold the trivial
    bound 0."""
    try:
        report = selection_lower_bound(schedule, t, num_arms, delta, rho)
    except ValidationError as err:
        if err.code != "bad_schedule":
            raise
        return 0.0, 0.0
    return report.raw_product, report.clamped


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Estimate the delta-best selection probability at every checkpoint.

    Success counts merge associatively across chunks and the mean
    cumulative reward and cost are correctly rounded sums over all
    replications, so the result is identical for any worker count and
    any chunk layout.
    """
    import numpy as np

    workers = _as_int(workers, "bad_parameter", "workers", 1)
    bounds = _chunk_bounds(config.replications, workers)
    if workers == 1 or len(bounds) == 1:
        chunks = [run_chunk(config, lo, hi) for lo, hi in bounds]
    else:
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(config, lo, hi) for lo, hi in bounds]
        with ProcessPoolExecutor(max_workers=workers, initializer=_mark_pool_worker) as pool:
            chunks = list(pool.map(_chunk_worker, tasks))

    successes = sum(chunk.successes for chunk in chunks)
    arm_hits = sum(chunk.arm_hits for chunk in chunks)
    cum_rewards = np.concatenate([chunk.cum_rewards for chunk in chunks], axis=1)
    cum_costs = np.concatenate([chunk.cum_costs for chunk in chunks], axis=1)

    replications = config.replications
    rho = reward_separation(config.instance)
    num_arms = config.instance.num_arms
    estimates = []
    for i, t in enumerate(config.checkpoints):
        for j, delta in enumerate(config.deltas):
            bound_raw, bound_clamped = _bound_columns(config.schedule, t, num_arms, delta, rho)
            s = int(successes[i, j])
            ci_low, ci_high = wilson_interval(s, replications, WILSON_Z)
            p_hat = s / replications
            dominated = ci_low >= bound_clamped or p_hat >= bound_clamped
            estimates.append(
                MonteCarloEstimate(
                    t=t,
                    delta=delta,
                    successes=s,
                    replications=replications,
                    p_hat=p_hat,
                    ci_low=ci_low,
                    ci_high=ci_high,
                    bound_raw=bound_raw,
                    bound_clamped=bound_clamped,
                    dominated=dominated,
                )
            )

    diagnostics = {
        "checkpoints": list(config.checkpoints),
        "arm_selections": arm_hits.tolist(),
        "mean_cumulative_reward": [math.fsum(row) / replications for row in cum_rewards],
        "mean_cumulative_cost": [math.fsum(row) / replications for row in cum_costs],
    }
    return ExperimentResult(
        config=config,
        profile=feasibility_profile(config.instance),
        estimates=tuple(estimates),
        diagnostics=diagnostics,
    )


def write_results_csv(path, estimates: Sequence[MonteCarloEstimate]) -> None:
    """Plot-ready estimates table; one row per (checkpoint, delta)."""
    lines = [",".join(RESULTS_CSV_COLUMNS)]
    for e in estimates:
        row = e.to_json_dict()
        lines.append(",".join(_format_csv_value(row[c]) for c in RESULTS_CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(path, result: ExperimentResult, metadata: dict | None = None) -> None:
    """Experiment summary; everything except ``metadata`` is deterministic."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result.summary_dict(metadata), fh, indent=2, sort_keys=True)
        fh.write("\n")
