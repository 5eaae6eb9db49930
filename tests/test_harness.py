"""Tests for the Monte Carlo harness.

The kernel's law is checked against the exact oracle in
``test_analysis.py``; here its bits are pinned across chunk layouts,
its samplers against scalar ``quantile`` calls, and everything else
(intervals, bounds columns, summaries) against closed forms or frozen
values.
"""

from __future__ import annotations

import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
import yaml

import cbandits.core as core
from cbandits.core import (
    Arm,
    Bernoulli,
    Beta,
    Discrete,
    PointMass,
    ProblemInstance,
    ValidationError,
)
from cbandits.strategies import (
    POLICY_CONSTRAINED,
    POLICY_UNCONSTRAINED,
    POLICY_UNIFORM,
    TIE_LOWEST_INDEX,
    TIE_UNIFORM,
    ConstantSchedule,
    ExplicitSchedule,
    InverseTimeSchedule,
    greedy_ties,
)
from cbandits.analysis import delta_best_arms, exact_selection_probability
import cbandits.harness as harness
from cbandits.harness import (
    RESULTS_CSV_COLUMNS,
    ExperimentConfig,
    MonteCarloEstimate,
    run_chunk,
    run_experiment,
    wilson_interval,
    write_results_csv,
    write_summary_json,
    _chunk_bounds,
)


def mixed_instance() -> ProblemInstance:
    return ProblemInstance(
        arms=(
            Arm(Bernoulli(0.7), Bernoulli(0.3)),
            Arm(Beta(2.0, 3.0), Discrete((0.2, 0.6, 1.0), (0.3, 0.4, 0.3))),
            Arm(PointMass(0.55), Beta(1.5, 2.5)),
        ),
        constraint_level=0.5,
    )


def separated_instance() -> ProblemInstance:
    return ProblemInstance(
        arms=(
            Arm(Bernoulli(0.7), Bernoulli(0.3)),
            Arm(Bernoulli(0.5), Bernoulli(0.7)),
        ),
        constraint_level=0.5,
    )


def base_config(**overrides) -> ExperimentConfig:
    kwargs = dict(
        instance=separated_instance(),
        schedule=InverseTimeSchedule(5.0),
        checkpoints=(1, 7, 50),
        deltas=(0.0,),
        replications=32,
        master_seed=11,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestWilsonInterval:
    def test_frozen_midpoint_example(self):
        low, high = wilson_interval(50, 100, 1.96)
        assert low == pytest.approx(0.404, abs=1e-3)
        assert high == pytest.approx(0.596, abs=1e-3)

    def test_matches_quadratic_roots_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 5000))
            s = int(rng.integers(0, n + 1))
            z = float(rng.uniform(0.5, 5.0))
            low, high = wilson_interval(s, n, z)
            # Interval endpoints solve (p_hat - p)^2 = z^2 p (1 - p) / n.
            p_hat = s / n
            z2n = z * z / n
            roots = np.roots([1.0 + z2n, -(2.0 * p_hat + z2n), p_hat * p_hat])
            lo_ref, hi_ref = sorted(float(r) for r in roots.real)
            assert low == pytest.approx(max(0.0, lo_ref), abs=1e-12)
            assert high == pytest.approx(min(1.0, hi_ref), abs=1e-12)

    def test_boundaries(self):
        low, high = wilson_interval(0, 17)
        assert low == 0.0 and high > 0.0
        low, high = wilson_interval(17, 17)
        assert high == 1.0 and low < 1.0

    def test_contains_point_estimate(self):
        for n in (1, 2, 10, 1000):
            for s in range(0, n + 1, max(1, n // 4)):
                low, high = wilson_interval(s, n)
                assert low <= s / n <= high

    def test_validation(self):
        with pytest.raises(ValidationError):
            wilson_interval(0, 0)
        with pytest.raises(ValidationError):
            wilson_interval(5, 4)
        with pytest.raises(ValidationError):
            wilson_interval(-1, 4)
        with pytest.raises(ValidationError):
            wilson_interval(1, 4, z=0.0)


def tied_point_mass_instance() -> ProblemInstance:
    # Dyadic values keep every empirical mean exact, so arms 0 and 1 tie
    # for the best whenever both have been played; arm 1 sits on the
    # feasibility boundary.
    return ProblemInstance(
        arms=(
            Arm(PointMass(0.5), PointMass(0.25)),
            Arm(PointMass(0.5), PointMass(0.5)),
            Arm(PointMass(0.25), PointMass(0.125)),
        ),
        constraint_level=0.5,
    )


def six_arm_instance() -> ProblemInstance:
    lattice = (0.0, 0.5, 1.0)
    return ProblemInstance(
        arms=(
            Arm(Discrete(lattice, (0.2, 0.3, 0.5)), Bernoulli(0.3)),
            Arm(Beta(2.0, 2.0), Discrete((0.1, 0.5), (0.5, 0.5))),
            Arm(Discrete(lattice, (0.3, 0.2, 0.5)), PointMass(0.4)),
            Arm(Bernoulli(0.6), Beta(3.0, 2.0)),
            Arm(PointMass(0.5), Bernoulli(0.5)),
            Arm(Discrete(lattice, (0.25, 0.5, 0.25)), Discrete((0.2, 0.6), (0.5, 0.5))),
        ),
        constraint_level=0.5,
    )


class TestKernelBits:
    def test_checkpoint_totals_are_exact_sums(self):
        # The means must not depend on how numpy orders a reduction, so
        # they are the correctly rounded sums of the per-replication
        # totals, divided by R.
        config = ExperimentConfig(
            instance=mixed_instance(),
            schedule=InverseTimeSchedule(5.0),
            checkpoints=(1, 7, 50),
            deltas=(0.0,),
            replications=48,
            master_seed=2026,
            tie_rule=TIE_UNIFORM,
        )
        diagnostics = run_experiment(config).diagnostics
        chunk = run_chunk(config, 0, config.replications)
        for ci in range(len(config.checkpoints)):
            rewards, costs = chunk.cum_rewards[ci].tolist(), chunk.cum_costs[ci].tolist()
            assert diagnostics["mean_cumulative_reward"][ci] == math.fsum(rewards) / 48
            assert diagnostics["mean_cumulative_cost"][ci] == math.fsum(costs) / 48

    def test_chunk_split_invariance(self, draw_path):
        config = base_config(
            instance=mixed_instance(), replications=40, checkpoints=(1, 9, 60),
            tie_rule=TIE_UNIFORM,
        )
        whole = run_chunk(config, 0, 40)
        layouts = (
            ((0, 13), (13, 14), (14, 40)),
            tuple((r, r + 1) for r in range(40)),
        )
        for layout in layouts:
            parts = [run_chunk(config, lo, hi) for lo, hi in layout]
            assert np.array_equal(whole.successes, sum(p.successes for p in parts))
            assert np.array_equal(whole.arm_hits, sum(p.arm_hits for p in parts))
            for field in ("cum_rewards", "cum_costs"):
                joined = np.concatenate([getattr(p, field) for p in parts], axis=1)
                assert np.array_equal(getattr(whole, field), joined), field


    @pytest.mark.parametrize("tie_rule", [TIE_LOWEST_INDEX, TIE_UNIFORM])
    @pytest.mark.parametrize(
        "make_instance",
        [separated_instance, mixed_instance, tied_point_mass_instance, six_arm_instance],
    )
    def test_draw_paths_give_the_same_bits(self, monkeypatch, make_instance, tie_rule):
        config = base_config(
            instance=make_instance(), replications=40, checkpoints=(1, 9, 60),
            tie_rule=tie_rule,
        )
        monkeypatch.setattr(core, "_DRAW_AHEAD_REPLICATIONS", 1)

        def chunk_bits(cpus):
            monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
            chunk = run_chunk(config, 0, config.replications)
            return [getattr(chunk, f).tobytes()
                    for f in ("successes", "arm_hits", "cum_rewards", "cum_costs")]

        assert chunk_bits(1) == chunk_bits(2)


def sampler_uniforms(dists, rng):
    """0, the largest double below 1, every cut of the arms' tables and
    its two neighbours inside [0, 1), and random uniforms."""
    points = [0.0, np.nextafter(1.0, 0.0)]
    for d in dists:
        if not isinstance(d, Beta):
            for cut in d.quantile_table()[0]:
                points += [cut, np.nextafter(cut, 0.0), np.nextafter(cut, 1.0)]
    points = np.array([u for u in points if 0.0 <= u < 1.0])
    return np.concatenate([points, rng.random(64)])


# Arm lists of one quantity: the Bernoulli gather, then the table path.
SAMPLER_CASES = {
    "all_bernoulli": [Bernoulli(0.0), Bernoulli(1.0), Bernoulli(0.3)],
    "bernoulli_p_0_and_1": [Bernoulli(0.0), Bernoulli(1.0), PointMass(0.5)],
    "point_masses": [PointMass(0.0), PointMass(1.0), PointMass(0.3)],
    "zero_probability_atom": [
        Discrete((0.0, 0.25, 0.5, 1.0), (0.2, 0.0, 0.3, 0.5)), Bernoulli(0.3),
    ],
    # Cumulative sums 1 + 1 ulp and 1 - 1 ulp: with a trailing zero atom
    # the last cut lies above 1, or at the largest double below 1.
    "cum_sum_above_one": [
        Discrete((0.0, 0.5, 1.0, 0.75), (0.34, 0.56, 0.1, 0.0)), PointMass(0.2),
    ],
    "cum_sum_below_one": [
        Discrete((0.0, 0.5, 1.0, 0.75), (0.6, 0.3, 0.1, 0.0)), Bernoulli(0.9),
    ],
    "mixed_rewards": [arm.reward for arm in mixed_instance().arms],
    "mixed_costs": [arm.cost for arm in mixed_instance().arms],
    "six_arm_rewards": [arm.reward for arm in six_arm_instance().arms],
    "six_arm_costs": [arm.cost for arm in six_arm_instance().arms],
    "tied_point_mass_costs": [arm.cost for arm in tied_point_mass_instance().arms],
    "all_beta": [Beta(2.0, 3.0), Beta(0.5, 0.5), Beta(6.0, 1.5)],
}


def random_states(rng, n_arms, n_reps, level):
    """Arm-major (counts, reward_sums, cost_sums) as the kernel keeps them:
    up to four plays per arm, summed in order, with rewards and costs
    drawn mostly from a few dyadic values, so that means tie exactly and
    cost sums land on ``level * count``.  Replication 0 plays nothing, and
    replication 1 pays cost 1 on every play: over a budget below 1, on the
    boundary of a budget of 1."""
    pool = np.array([0.0, 0.25, 0.5, 1.0, level])
    counts = rng.integers(0, 5, (n_arms, n_reps)) * (rng.random((n_arms, n_reps)) < 0.8)
    counts[:, 0] = 0
    sums = np.zeros((2, n_arms, n_reps))
    for play in range(4):
        draws = np.where(rng.random(sums.shape) < 0.7, rng.choice(pool, sums.shape),
                         rng.random(sums.shape))
        draws[1, :, 1] = 1.0
        sums += (counts > play) * draws
    if level < 1.0:
        counts[:, 1] = np.maximum(counts[:, 1], 1)
        sums[1, :, 1] = counts[:, 1]
    return counts.astype(np.float64), sums[0], sums[1]


class TestGreedyArmMatchesScalarRule:
    @pytest.mark.parametrize("level", [0.5, 1.0])
    @pytest.mark.parametrize("tie_rule", [TIE_LOWEST_INDEX, TIE_UNIFORM])
    def test_greedy_arm_is_a_greedy_ties_pick(self, tie_rule, level):
        rng = np.random.default_rng(20261020)
        seen = {"empty": 0, "tie": 0, "boundary": 0}
        for n_arms in (2, 3, 5):
            counts, reward_sums, cost_sums = random_states(rng, n_arms, 400, level)
            u_arm = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], rng.random(398)])
            greedy, best = harness._greedy_arm(
                counts, reward_sums, cost_sums, level, tie_rule == TIE_UNIFORM, u_arm
            )
            seen["boundary"] += int(((cost_sums == level * counts) & (counts > 0)).sum())
            for r in range(len(u_arm)):
                ties = greedy_ties(
                    counts[:, r].astype(int).tolist(), reward_sums[:, r].tolist(),
                    cost_sums[:, r].tolist(), level, TIE_UNIFORM,
                )
                assert (best[r] == -math.inf) == (not ties)
                if not ties:
                    seen["empty"] += 1
                    continue
                seen["tie"] += len(ties) > 1
                pick = math.floor(u_arm[r] * len(ties)) if tie_rule == TIE_UNIFORM else 0
                assert greedy[r] == ties[pick], (r, ties)
        assert min(seen.values()) > 0, seen


def policy_instance(level=0.5) -> ProblemInstance:
    # Costs at 1 - 2**-53, at 1 and near 1: every played arm meets a budget
    # of 1, and only arm 0 meets 0.5.
    return ProblemInstance(
        arms=(
            Arm(Bernoulli(0.3), Discrete((0.0, 0.5), (0.5, 0.5))),
            Arm(Discrete((0.0, 1.0), (0.25, 0.75)), Discrete((1.0 - 2**-53, 1.0), (0.5, 0.5))),
            Arm(Beta(2.0, 3.0), PointMass(1.0)),
            Arm(PointMass(0.9), Beta(5.0, 0.2)),
        ),
        constraint_level=level,
    )


class TestPoliciesAreRuleInputs:
    """The baselines are the constrained rule on other inputs, bit for bit:
    ``uniform`` is eps = 1, and ``unconstrained_eps_greedy`` a budget of 1."""

    @staticmethod
    def chunk(instance, schedule, **strategy):
        config = base_config(
            instance=instance, schedule=schedule, checkpoints=range(1, 61),
            deltas=(0.0, 0.3), replications=64, master_seed=21, **strategy,
        )
        chunk = run_chunk(config, 0, config.replications)
        return chunk.successes, chunk.arm_hits, chunk.cum_rewards, chunk.cum_costs

    @staticmethod
    def same_bits(a, b):
        return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    @pytest.mark.parametrize("tie_rule", [TIE_LOWEST_INDEX, TIE_UNIFORM])
    def test_uniform_is_eps_one(self, tie_rule):
        instance = policy_instance()
        uniform = self.chunk(
            instance, InverseTimeSchedule(5.0), policy=POLICY_UNIFORM, tie_rule=tie_rule
        )
        eps_one = self.chunk(instance, ConstantSchedule(1.0), tie_rule=tie_rule)
        assert self.same_bits(uniform, eps_one)

    @pytest.mark.parametrize("tie_rule", [TIE_LOWEST_INDEX, TIE_UNIFORM])
    def test_unconstrained_is_a_budget_of_one(self, tie_rule):
        # Successes depend on the level through the delta-best sets.
        schedule = InverseTimeSchedule(3.0)
        free = self.chunk(
            policy_instance(), schedule, policy=POLICY_UNCONSTRAINED, tie_rule=tie_rule
        )
        budget_one = self.chunk(policy_instance(1.0), schedule, tie_rule=tie_rule)
        assert self.same_bits(free[1:], budget_one[1:])
        # The budget of 0.5 rules arms out: the constrained run differs.
        assert not self.same_bits(free[1:], self.chunk(policy_instance(), schedule)[1:])

    @pytest.mark.parametrize("method", ["fraction", "float"])
    @pytest.mark.parametrize("tie_rule", [TIE_LOWEST_INDEX, TIE_UNIFORM])
    def test_oracle_policies_are_rule_inputs(self, tie_rule, method):
        finite = ProblemInstance(
            arms=tuple(
                Arm(arm.reward, arm.cost)
                for arm in policy_instance().arms
                if not isinstance(arm.reward, Beta) and not isinstance(arm.cost, Beta)
            )
            + (Arm(PointMass(0.6), PointMass(1.0)),),
            constraint_level=0.5,
        )
        budget_one = ProblemInstance(arms=finite.arms, constraint_level=1.0)
        schedule = InverseTimeSchedule(2.0)

        def oracle(instance, schedule, policy):
            return exact_selection_probability(
                instance, schedule, 5, deltas=(0.0, 0.3), tie_rule=tie_rule,
                policy=policy, method=method,
            )

        assert oracle(finite, schedule, POLICY_UNIFORM) == oracle(
            finite, ConstantSchedule(1.0), POLICY_CONSTRAINED
        )
        free = oracle(finite, schedule, POLICY_UNCONSTRAINED)
        level_one = oracle(budget_one, schedule, POLICY_CONSTRAINED)
        for field in ("nodes", "arm_probabilities", "arm_probabilities_exact"):
            assert getattr(free, field) == getattr(level_one, field), field
        assert free.arm_probabilities != oracle(
            finite, schedule, POLICY_CONSTRAINED
        ).arm_probabilities


class TestSamplerMatchesQuantile:
    @pytest.mark.parametrize("name", list(SAMPLER_CASES))
    def test_bitwise_against_scalar_quantile(self, name):
        # Every arm pulled at every probe point, against one scalar
        # quantile call each: for beta arms that is betaincinv on scalar
        # shapes, against the sampler's per-replication shape arrays.
        dists = SAMPLER_CASES[name]
        u = sampler_uniforms(dists, np.random.default_rng(5))
        arm = np.repeat(np.arange(len(dists)), len(u))
        u = np.tile(u, len(dists))
        got = harness._sampler(dists)(arm, u)
        want = np.array([dists[a].quantile(float(x)) for a, x in zip(arm, u)])
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_cut_at_largest_double_below_one_is_reached(self):
        # The zero-probability last atom is drawn at u = nextafter(1, 0).
        dists = SAMPLER_CASES["cum_sum_below_one"]
        u = np.array([np.nextafter(1.0, 0.0), 0.95])
        assert harness._sampler(dists)(np.zeros(2, dtype=np.int64), u).tolist() == [0.75, 1.0]


class TestRunExperiment:
    def test_oracle_agreement_small_horizon(self):
        instance = separated_instance()
        schedule = InverseTimeSchedule(2.0)
        config = ExperimentConfig(
            instance=instance,
            schedule=schedule,
            checkpoints=(1, 2, 3),
            deltas=(0.0,),
            replications=40_000,
            master_seed=99,
        )
        result = run_experiment(config)
        for estimate in result.estimates:
            oracle = exact_selection_probability(
                instance, schedule, estimate.t, deltas=(0.0,)
            )
            ((_, p),) = oracle.delta_events
            width = 4.0 * math.sqrt(p * (1.0 - p) / config.replications)
            assert abs(estimate.p_hat - p) <= width, (estimate.t, estimate.p_hat, p)

    def test_first_checkpoint_is_uniform(self):
        config = base_config(checkpoints=(1,), replications=20_000, master_seed=4)
        result = run_experiment(config)
        best = delta_best_arms(config.instance, 0.0)
        p = len(best) / config.instance.num_arms
        width = 4.0 * math.sqrt(p * (1.0 - p) / config.replications)
        assert abs(result.estimates[0].p_hat - p) <= width

    def test_single_replication(self):
        config = base_config(replications=1)
        result = run_experiment(config)
        for estimate in result.estimates:
            assert estimate.p_hat in (0.0, 1.0)
            assert estimate.ci_low < estimate.ci_high
            assert estimate.replications == 1

    def test_uniform_baseline_tracks_delta_best_share(self):
        instance = ProblemInstance(
            arms=(
                Arm(PointMass(0.9), PointMass(0.7)),
                Arm(PointMass(0.8), PointMass(0.4)),
                Arm(PointMass(0.5), PointMass(0.3)),
            ),
            constraint_level=0.5,
        )
        config = ExperimentConfig(
            instance=instance,
            schedule=ConstantSchedule(0.5),
            checkpoints=(1, 10, 100),
            deltas=(0.0, 0.25),
            replications=3000,
            master_seed=12,
            policy=POLICY_UNIFORM,
        )
        result = run_experiment(config)
        for estimate in result.estimates:
            share = len(delta_best_arms(instance, estimate.delta)) / 3
            width = 4.0 * math.sqrt(share * (1.0 - share) / config.replications) + 1e-9
            assert abs(estimate.p_hat - share) <= width, estimate

    def test_constraint_changes_behavior_vs_unconstrained(self):
        instance = ProblemInstance(
            arms=(
                Arm(Bernoulli(0.9), PointMass(0.9)),
                Arm(Bernoulli(0.6), PointMass(0.1)),
            ),
            constraint_level=0.5,
        )
        shared = dict(
            instance=instance,
            schedule=InverseTimeSchedule(10.0),
            checkpoints=(1000,),
            deltas=(0.0,),
            replications=300,
            master_seed=31,
        )
        constrained = run_experiment(ExperimentConfig(**shared))
        unconstrained = run_experiment(
            ExperimentConfig(**shared, policy=POLICY_UNCONSTRAINED)
        )
        assert constrained.estimates[0].p_hat > 0.8
        assert unconstrained.estimates[0].p_hat < 0.3

    def test_dominated_on_well_separated_instance(self):
        config = ExperimentConfig(
            instance=separated_instance(),
            schedule=InverseTimeSchedule(100.0),
            checkpoints=(3000,),
            deltas=(0.1,),
            replications=2000,
            master_seed=7,
        )
        result = run_experiment(config)
        estimate = result.estimates[0]
        assert estimate.bound_clamped > 0.2
        assert estimate.dominated
        assert estimate.ci_high >= estimate.bound_clamped

    def test_degenerate_instances_run_and_report_vacuous_bounds(self):
        boundary_cost = ProblemInstance(
            arms=(
                Arm(Bernoulli(0.7), PointMass(0.5)),
                Arm(Bernoulli(0.5), PointMass(0.2)),
            ),
            constraint_level=0.5,
        )
        duplicate_means = ProblemInstance(
            arms=(
                Arm(Bernoulli(0.6), Bernoulli(0.3)),
                Arm(Bernoulli(0.6), Bernoulli(0.7)),
            ),
            constraint_level=0.5,
        )
        for instance in (boundary_cost, duplicate_means):
            config = ExperimentConfig(
                instance=instance,
                schedule=InverseTimeSchedule(10.0),
                checkpoints=(10, 200),
                deltas=(0.0,),
                replications=50,
                master_seed=3,
            )
            result = run_experiment(config)
            for estimate in result.estimates:
                assert estimate.bound_clamped == 0.0
                assert 0.0 <= estimate.p_hat <= 1.0

    def test_estimate_grid_shape_and_order(self):
        config = base_config(deltas=(0.0, 0.2), checkpoints=(2, 5))
        result = run_experiment(config)
        assert [(e.t, e.delta) for e in result.estimates] == [
            (2, 0.0),
            (2, 0.2),
            (5, 0.0),
            (5, 0.2),
        ]
        assert result.profile.rho == pytest.approx(0.2, abs=1e-15)


class TestParallelism:
    def test_worker_count_invariance(self, monkeypatch):
        # Force many small chunks so several pool tasks actually run.
        monkeypatch.setattr(harness, "_CHUNK_REPLICATIONS", 40)
        config = base_config(replications=500, checkpoints=(1, 5, 40))
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=3)
        assert serial.estimates == parallel.estimates
        assert serial.diagnostics == parallel.diagnostics

    def test_chunk_layout_does_not_change_estimates(self, monkeypatch):
        config = base_config(replications=120, checkpoints=(1, 5, 40))
        single = run_experiment(config)
        monkeypatch.setattr(harness, "_CHUNK_REPLICATIONS", 40)
        assert len(_chunk_bounds(120, 1)) == 3
        chunked = run_experiment(config)
        assert single.estimates == chunked.estimates

    def test_chunk_layout_does_not_change_means(self, monkeypatch):
        # Merging per-chunk float totals with += gave a mean reward of
        # 30.751734581723568 as one chunk and 30.75173458172357 in chunks
        # of 7 replications.
        config = ExperimentConfig(
            instance=mixed_instance(),
            schedule=InverseTimeSchedule(5.0),
            checkpoints=(50,),
            deltas=(0.0,),
            replications=200,
            master_seed=3,
        )
        single = run_experiment(config)
        monkeypatch.setattr(harness, "_CHUNK_REPLICATIONS", 7)
        assert _chunk_bounds(200, 1)[0] == (0, 7)
        chunked = run_experiment(config)
        assert single.diagnostics == chunked.diagnostics

    def test_chunk_bounds_partition(self):
        cases = ((1, 1), (7, 3), (3, 7), (1000, 2), (10**6, 1), (10**6, 3))
        for replications, workers in cases:
            bounds = _chunk_bounds(replications, workers)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == replications
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo
            assert all(0 < hi - lo <= harness._CHUNK_REPLICATIONS for lo, hi in bounds)
            # Every worker gets a chunk while there are replications to share.
            assert len(bounds) >= min(workers, replications)


class TestStepKeyedStreams:
    def test_later_checkpoint_does_not_change_earlier(self):
        # With one Philox window per replication of length 4T, t = 50 gave
        # 1582 successes with checkpoints (50,) and 1580 with (50, 100).
        def run(checkpoints):
            config = base_config(
                schedule=InverseTimeSchedule(20.0),
                checkpoints=checkpoints,
                deltas=(0.0, 0.1),
                replications=2000,
                master_seed=1,
            )
            return run_experiment(config)

        short, long = run((50,)), run((50, 100))
        assert short.estimates == long.estimates[:2]
        for key in ("mean_cumulative_reward", "mean_cumulative_cost", "arm_selections"):
            assert short.diagnostics[key] == long.diagnostics[key][:1]

    def test_chunk_memory_does_not_grow_with_horizon(self):
        def peak(horizon):
            config = base_config(checkpoints=(horizon,), replications=4)
            tracemalloc.start()
            try:
                run_chunk(config, 0, 4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-call caches stay out of the measurement
        short, long = peak(1_000), peak(10_000)
        assert abs(long - short) < 64 * 1024, (short, long)


    def test_run_chunk_leaves_no_thread_behind(self, monkeypatch, draw_path):
        before = threading.enumerate()
        config = base_config(replications=16)
        run_chunk(config, 0, 16)
        assert set(threading.enumerate()) <= set(before)

        sampler = harness._sampler

        def failing_at_step_3(dists):
            sample = sampler(dists)
            calls = []

            def failing(arm, u):
                calls.append(None)
                if len(calls) == 3:
                    raise RuntimeError("sampler failed at step 3")
                return sample(arm, u)

            return failing

        monkeypatch.setattr(harness, "_sampler", failing_at_step_3)
        with pytest.raises(RuntimeError, match="step 3") as failure:
            run_chunk(config, 0, 16)
        # The held traceback keeps run_chunk's frame, and its stream, alive.
        assert failure.tb is not None
        assert set(threading.enumerate()) <= set(before)


class TestOutputs:
    def test_results_csv_golden_bytes(self, tmp_path):
        estimates = [
            MonteCarloEstimate(
                t=10,
                delta=0.0,
                successes=5,
                replications=8,
                p_hat=0.625,
                ci_low=0.25,
                ci_high=0.875,
                bound_raw=-1.5,
                bound_clamped=0.0,
                dominated=True,
            ),
            MonteCarloEstimate(
                t=100,
                delta=0.25,
                successes=8,
                replications=8,
                p_hat=1.0,
                ci_low=0.5,
                ci_high=1.0,
                bound_raw=0.5,
                bound_clamped=0.5,
                dominated=True,
            ),
        ]
        path = tmp_path / "results.csv"
        write_results_csv(path, estimates)
        expected = (
            "t,delta,successes,R,p_hat,ci_low,ci_high,bound_raw,bound_clamped,dominated\n"
            "10,0.0,5,8,0.625,0.25,0.875,-1.5,0.0,true\n"
            "100,0.25,8,8,1.0,0.5,1.0,0.5,0.5,true\n"
        )
        assert path.read_bytes().decode("utf-8") == expected

    def test_csv_round_trips_through_run(self, tmp_path):
        config = base_config()
        result = run_experiment(config)
        path = tmp_path / "results.csv"
        write_results_csv(path, result.estimates)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == list(RESULTS_CSV_COLUMNS)
        assert len(lines) == 1 + len(result.estimates)
        first = lines[1].split(",")
        assert int(first[0]) == result.estimates[0].t
        assert float(first[4]) == result.estimates[0].p_hat

    def test_summary_json_deterministic_outside_metadata(self, tmp_path):
        config = base_config()
        result = run_experiment(config)
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        write_summary_json(path_a, result, metadata={"elapsed_seconds": 1.5})
        write_summary_json(path_b, result, metadata={"elapsed_seconds": 9.9})
        blob_a = json.loads(path_a.read_text())
        blob_b = json.loads(path_b.read_text())
        assert blob_a["metadata"] != blob_b["metadata"]
        del blob_a["metadata"], blob_b["metadata"]
        assert blob_a == blob_b
        assert blob_a["config"]["experiment"]["master_seed"] == 11
        assert blob_a["profile"]["optimal"] == [0]

    def test_config_echo_structure(self):
        config = base_config()
        echo = config.to_config()
        assert set(echo) == {"instance", "strategy", "schedule", "experiment"}
        assert echo["strategy"] == {
            "kind": POLICY_CONSTRAINED,
            "tie_rule": TIE_LOWEST_INDEX,
        }
        assert echo["schedule"] == {"kind": "inverse_time", "k": 5.0}
        assert echo["experiment"]["checkpoints"] == [1, 7, 50]


class TestConfigValidation:
    def test_rejects_bad_shapes(self):
        good = dict(
            instance=separated_instance(),
            schedule=ConstantSchedule(0.5),
            checkpoints=(1, 2),
            deltas=(0.0,),
            replications=4,
            master_seed=0,
        )

        def reject(message_part=None, **bad):
            with pytest.raises(ValidationError) as err:
                ExperimentConfig(**{**good, **bad})
            assert err.value.code in ("bad_config", "bad_parameter")
            if message_part is not None:
                assert message_part in str(err.value)

        reject(checkpoints=())
        reject("strictly increasing", checkpoints=(5, 5))
        reject("strictly increasing", checkpoints=(5, 2))
        reject(checkpoints=(0, 1))
        reject(checkpoints=(1.5, 2))
        reject(deltas=())
        reject(deltas=(-0.1,))
        reject(replications=0)
        reject(master_seed=2**64)
        reject(master_seed=-1)
        reject(policy="epsilon_first")
        reject(tie_rule="alphabetical")
        reject(instance="not an instance")
        reject(schedule="not a schedule")
        reject(replications=True)
        # Integral numpy values are integers; they are stored as ints.
        config = ExperimentConfig(
            **{**good, "checkpoints": np.array([1, 2]), "replications": np.int64(4)}
        )
        assert config.checkpoints == (1, 2) and type(config.replications) is int

    def test_short_explicit_schedule_runs_under_uniform_only(self):
        # Under ``uniform`` the kernel reads epsilon = 1 and no schedule, as
        # the oracle does; the bound columns past the schedule's end hold
        # the trivial bound 0.
        short = dict(
            instance=separated_instance(),
            schedule=ExplicitSchedule((0.5,)),
            checkpoints=(3,),
            deltas=(0.0,),
            replications=20,
            master_seed=4,
        )
        result = run_experiment(ExperimentConfig(**short, policy=POLICY_UNIFORM))
        (estimate,) = result.estimates
        assert (estimate.bound_raw, estimate.bound_clamped) == (0.0, 0.0)
        assert estimate.dominated
        assert sum(result.diagnostics["arm_selections"][0]) == 20
        with pytest.raises(ValidationError) as err:
            ExperimentConfig(**short, policy=POLICY_CONSTRAINED)
        assert err.value.code == "bad_schedule"

    def test_numpy_master_seed_is_stored_as_int(self):
        config = base_config(master_seed=np.uint64(7))
        assert type(config.master_seed) is int and config.master_seed == 7
        echo = yaml.safe_load(yaml.safe_dump(config.to_config()))
        assert echo["experiment"]["master_seed"] == 7

    def test_equal_configs_hash_equal(self):
        # Arms, instances and configs are values: equal ones hash equal.
        a, b = base_config(instance=mixed_instance()), base_config(instance=mixed_instance())
        assert a.instance is not b.instance and a == b
        assert hash(a.instance.arms[1]) == hash(b.instance.arms[1])
        assert hash(a.instance) == hash(b.instance)
        assert hash(a) == hash(b)
        assert len({a, b, base_config()}) == 2

    def test_run_chunk_validates_range(self):
        config = base_config()
        with pytest.raises(ValidationError):
            run_chunk(config, 5, 5)
        with pytest.raises(ValidationError):
            run_chunk(config, 0, config.replications + 1)

    def test_run_experiment_validates_workers(self):
        with pytest.raises(ValidationError):
            run_experiment(base_config(), workers=0)
