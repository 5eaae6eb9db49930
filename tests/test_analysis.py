"""Tests for feasibility analysis and the exact enumeration oracle."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cbandits import (
    Arm,
    Bernoulli,
    Beta,
    Discrete,
    PointMass,
    ProblemInstance,
    ValidationError,
)
from cbandits.analysis import (
    BRUTEFORCE_MAX_ARMS,
    FeasibilityProfile,
    constraint_margin,
    delta_best_arms,
    delta_best_arms_bruteforce,
    exact_selection_probability,
    feasibility_profile,
    feasible_set,
    optimal_feasible_arms,
    reward_separation,
)
from cbandits.harness import ExperimentConfig, run_experiment, wilson_interval
from cbandits.strategies import (
    POLICIES,
    POLICY_CONSTRAINED,
    POLICY_UNCONSTRAINED,
    POLICY_UNIFORM,
    TIE_RULES,
    TIE_UNIFORM,
    ConstantSchedule,
    ExplicitSchedule,
    InverseTimeSchedule,
)


def three_arm_instance() -> ProblemInstance:
    return ProblemInstance(
        arms=(
            Arm(PointMass(0.9), PointMass(0.7)),
            Arm(PointMass(0.8), PointMass(0.4)),
            Arm(PointMass(0.5), PointMass(0.3)),
        ),
        constraint_level=0.5,
    )


def two_arm_instance() -> ProblemInstance:
    return ProblemInstance(
        arms=(
            Arm(PointMass(0.7), PointMass(0.3)),
            Arm(PointMass(0.5), PointMass(0.7)),
        ),
        constraint_level=0.5,
    )


def bernoulli_instance() -> ProblemInstance:
    # Row B of the acceptance panel: 1.0 - 0.3 is not exact in doubles.
    return ProblemInstance(
        arms=(
            Arm(Bernoulli(0.7), Bernoulli(0.3)),
            Arm(Bernoulli(0.5), Bernoulli(0.7)),
        ),
        constraint_level=0.5,
    )


def lattice_instance() -> ProblemInstance:
    # Dyadic reward lattices and point-mass costs; arm 2 is infeasible.
    return ProblemInstance(
        arms=(
            Arm(Discrete((0.0, 0.5), (0.75, 0.25)), PointMass(0.2)),
            Arm(Discrete((0.25, 1.0), (0.5, 0.5)), PointMass(0.4)),
            Arm(Discrete((0.5, 0.75), (0.25, 0.75)), PointMass(0.8)),
        ),
        constraint_level=0.5,
    )


def knife_edge_instance() -> ProblemInstance:
    # eta = 0: arm 0's cost 0.3 sits on the level 0.3.
    return ProblemInstance(
        arms=(
            Arm(PointMass(0.9), PointMass(0.3)),
            Arm(PointMass(0.5), PointMass(0.1)),
        ),
        constraint_level=0.3,
    )


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


def five_arm_instance() -> ProblemInstance:
    # Ties among up to five arms, so the greedy shares run over lcm(1..5).
    return ProblemInstance(
        arms=(
            Arm(Bernoulli(0.5), PointMass(0.25)),
            Arm(Discrete((0.0, 1.0), (0.5, 0.5)), Bernoulli(0.25)),
            Arm(PointMass(0.5), PointMass(0.5)),
            Arm(Discrete((0.25, 0.75), (0.5, 0.5)), Discrete((0.0, 0.5), (0.5, 0.5))),
            Arm(Bernoulli(0.5), PointMass(0.9)),
        ),
        constraint_level=0.5,
    )


def law_digest(law) -> str:
    text = ",".join(f"{p.numerator}/{p.denominator}" for p in law)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def random_instance(rng: np.random.Generator) -> ProblemInstance:
    num_arms = int(rng.integers(2, 9))
    arms = []
    for _ in range(num_arms):
        arms.append(
            Arm(
                PointMass(float(rng.integers(0, 11)) / 10.0),
                PointMass(float(rng.integers(0, 11)) / 10.0),
            )
        )
    level = float(rng.integers(0, 11)) / 10.0
    inst = ProblemInstance.__new__(ProblemInstance)
    object.__setattr__(inst, "arms", tuple(arms))
    object.__setattr__(inst, "constraint_level", level)
    if not feasible_set(inst, 0.0):
        # Force feasibility by dropping one arm's cost to the budget.
        arms[0] = Arm(arms[0].reward, PointMass(level))
        inst = ProblemInstance(arms=tuple(arms), constraint_level=level)
    else:
        inst = ProblemInstance(arms=tuple(arms), constraint_level=level)
    return inst


class TestFeasibleSet:
    def test_examples(self):
        inst = three_arm_instance()
        assert feasible_set(inst) == {1, 2}
        assert feasible_set(inst, 0.1) == {1, 2}
        assert feasible_set(inst, 0.2) == {0, 1, 2}
        assert feasible_set(inst, -0.1) == {1, 2}
        assert feasible_set(inst, -0.15) == {2}
        assert feasible_set(inst, -0.3) == set()

    def test_boundary_is_inclusive(self):
        inst = ProblemInstance(
            arms=(
                Arm(PointMass(0.5), PointMass(0.5)),
                Arm(PointMass(0.4), PointMass(0.9)),
            ),
            constraint_level=0.5,
        )
        assert feasible_set(inst, 0.0) == {0}

    def test_monotone_in_kappa(self):
        inst = three_arm_instance()
        kappas = [-0.3, -0.2, -0.15, -0.1, 0.0, 0.1, 0.2, 0.5]
        sets = [feasible_set(inst, k) for k in kappas]
        for smaller, larger in zip(sets, sets[1:]):
            assert smaller <= larger

    def test_rejects_non_numeric(self):
        for bad in ("0.1", math.inf, math.nan):
            with pytest.raises(ValidationError) as err:
                feasible_set(three_arm_instance(), bad)
            assert err.value.code == "bad_parameter"


class TestSeparations:
    def test_reward_separation_uses_all_pairs(self):
        inst = three_arm_instance()
        assert reward_separation(inst) == pytest.approx(0.1, abs=1e-15)

    def test_reward_separation_zero_on_duplicates(self):
        inst = ProblemInstance(
            arms=(
                Arm(PointMass(0.6), PointMass(0.2)),
                Arm(PointMass(0.6), PointMass(0.4)),
            ),
            constraint_level=0.5,
        )
        assert reward_separation(inst) == 0.0

    def test_constraint_margin(self):
        assert constraint_margin(three_arm_instance()) == pytest.approx(0.1, abs=1e-15)

    def test_constraint_margin_zero_on_boundary_arm(self):
        inst = ProblemInstance(
            arms=(
                Arm(PointMass(0.6), PointMass(0.5)),
                Arm(PointMass(0.4), PointMass(0.1)),
            ),
            constraint_level=0.5,
        )
        assert constraint_margin(inst) == 0.0

    def test_profile_bundles_everything(self):
        inst = three_arm_instance()
        profile = feasibility_profile(inst)
        assert isinstance(profile, FeasibilityProfile)
        assert profile.constraint_level == 0.5
        assert profile.rho == reward_separation(inst)
        assert profile.eta == constraint_margin(inst)
        assert profile.feasible == frozenset({1, 2})
        assert profile.optimal == frozenset({1})
        blob = json.dumps(profile.to_json_dict())
        assert json.loads(blob)["optimal"] == [1]


class TestDeltaBest:
    def test_zero_delta_is_constrained_optimum(self):
        inst = three_arm_instance()
        assert delta_best_arms(inst, 0.0) == {1}
        assert delta_best_arms(inst, 0.0) == optimal_feasible_arms(inst)

    def test_small_delta_keeps_optimum(self):
        assert delta_best_arms(three_arm_instance(), 0.1) == {1}

    def test_wide_delta_admits_all(self):
        # At delta=0.25 the tightened set is {2} (floor 0.5), the relaxed
        # set is everything, so every arm clears the floor.
        assert delta_best_arms(three_arm_instance(), 0.25) == {0, 1, 2}

    def test_empty_tightened_set_means_no_floor(self):
        inst = ProblemInstance(
            arms=(
                Arm(PointMass(0.2), PointMass(0.5)),
                Arm(PointMass(0.9), PointMass(0.6)),
            ),
            constraint_level=0.5,
        )
        # delta=0.2: tightened budget 0.3 admits nobody, relaxed 0.7 admits all.
        assert delta_best_arms(inst, 0.2) == {0, 1}

    def test_negative_delta_rejected(self):
        for fn in (delta_best_arms, delta_best_arms_bruteforce):
            with pytest.raises(ValidationError) as err:
                fn(three_arm_instance(), -0.1)
            assert err.value.code == "bad_parameter"

    def test_monotone_in_delta(self):
        inst = three_arm_instance()
        deltas = [0.0, 0.05, 0.1, 0.15, 0.25, 0.5, 1.0]
        sets = [delta_best_arms(inst, d) for d in deltas]
        for smaller, larger in zip(sets, sets[1:]):
            assert smaller <= larger

    def test_brute_force_matches_examples(self):
        inst = three_arm_instance()
        for d in (0.0, 0.1, 0.25, 0.5):
            assert delta_best_arms_bruteforce(inst, d) == delta_best_arms(inst, d)

    def test_brute_force_arm_cap(self):
        arms = tuple(
            Arm(PointMass(0.5), PointMass(0.1)) for _ in range(BRUTEFORCE_MAX_ARMS + 1)
        )
        inst = ProblemInstance(arms=arms, constraint_level=0.5)
        with pytest.raises(ValidationError) as err:
            delta_best_arms_bruteforce(inst, 0.1)
        assert err.value.code == "bad_parameter"

    def test_closed_form_equals_brute_force_on_random_instances(self):
        rng = np.random.default_rng(20260819)
        for _ in range(300):
            inst = random_instance(rng)
            eta = constraint_margin(inst)
            for delta in (0.0, eta / 2.0, eta, 2.0 * eta, 1.0):
                assert delta_best_arms(inst, delta) == delta_best_arms_bruteforce(
                    inst, delta
                ), (inst, delta)


class TestOracleFrozenValues:
    def test_first_step_is_uniform(self):
        result = exact_selection_probability(
            two_arm_instance(), ConstantSchedule(0.5), 1
        )
        assert result.arm_probabilities_exact == (Fraction(1, 2), Fraction(1, 2))

    def test_two_step_half_exploration(self):
        # Hand computation: the first pick is a forced uniform fallback.
        # Starting from arm 0 (feasible, best) the greedy branch keeps it:
        # 3/4; starting from arm 1 (infeasible) the empty candidate set
        # falls back to uniform: 1/2.  Total 1/2 * 3/4 + 1/2 * 1/2 = 5/8.
        result = exact_selection_probability(
            two_arm_instance(), ConstantSchedule(0.5), 2, deltas=(0.0,)
        )
        assert result.arm_probabilities_exact == (Fraction(5, 8), Fraction(3, 8))
        assert result.arm_probabilities == (0.625, 0.375)
        assert result.delta_events == ((0.0, 0.625),)
        assert result.nodes == 3

    def test_two_step_quarter_exploration(self):
        result = exact_selection_probability(
            two_arm_instance(), ConstantSchedule(0.25), 2
        )
        assert result.arm_probabilities_exact == (Fraction(11, 16), Fraction(5, 16))

    def test_pure_exploration_stays_uniform(self):
        result = exact_selection_probability(
            two_arm_instance(), ConstantSchedule(1.0), 4
        )
        assert result.arm_probabilities_exact == (Fraction(1, 2), Fraction(1, 2))

    def test_mass_sums_to_one_exactly(self):
        inst = two_arm_instance()
        for t in (1, 2, 3, 4):
            result = exact_selection_probability(inst, InverseTimeSchedule(2.0), t)
            assert sum(result.arm_probabilities_exact) == 1

    def test_symmetric_arms_split_evenly_under_uniform_ties(self):
        sym = ProblemInstance(
            arms=(
                Arm(PointMass(0.5), PointMass(0.2)),
                Arm(PointMass(0.5), PointMass(0.2)),
            ),
            constraint_level=0.5,
        )
        uniform = exact_selection_probability(
            sym, ConstantSchedule(0.5), 3, tie_rule=TIE_UNIFORM
        )
        lowest = exact_selection_probability(sym, ConstantSchedule(0.5), 3)
        assert uniform.arm_probabilities_exact == (Fraction(1, 2), Fraction(1, 2))
        assert lowest.arm_probabilities_exact == (Fraction(9, 16), Fraction(7, 16))

    def test_exact_law_sums_to_one_with_inexact_complements(self):
        result = exact_selection_probability(
            bernoulli_instance(), InverseTimeSchedule(3.0), 6, method="fraction"
        )
        assert sum(result.arm_probabilities_exact) == 1
        assert result.nodes == 966
        # The doubles 0.3 and 0.7 sum to 1 - 5.6e-17.
        discrete = ProblemInstance(
            arms=(
                Arm(PointMass(0.7), PointMass(0.2)),
                Arm(PointMass(0.5), Discrete((0.0, 1.0), (0.3, 0.7))),
            ),
            constraint_level=0.5,
        )
        result = exact_selection_probability(discrete, InverseTimeSchedule(3.0), 5)
        assert sum(result.arm_probabilities_exact) == 1

    # The laws below were frozen from a depth-first walk over every
    # branch/outcome path, which shares no merging with the layered pass.
    # Their fractions run to 130-330 digits, so they are pinned by the
    # SHA-256 of their "num/den" strings, joined by commas.
    def test_row_b_law_is_frozen(self):
        instance, schedule = bernoulli_instance(), InverseTimeSchedule(3.0)
        exact = exact_selection_probability(instance, schedule, 6, method="fraction")
        assert law_digest(exact.arm_probabilities_exact) == (
            "838db987e2bc7d3d2cee48505c12e7469ef715de8d439ee0aef4e579ced9146d"
        )
        assert exact.arm_probabilities == (0.6443619394070312, 0.35563806059296876)
        floating = exact_selection_probability(instance, schedule, 6, method="float")
        for p, q in zip(exact.arm_probabilities, floating.arm_probabilities):
            assert abs(p - q) < 1e-12
        # The doubles pin the float method's order of operations too.
        assert floating.arm_probabilities == (0.6443619394070312, 0.3556380605929681)

    # ``probabilities`` pairs the fraction law's roundings with the float
    # method's doubles, which pin its order of operations too.
    @pytest.mark.parametrize(
        "policy, digest, probabilities",
        [
            (
                POLICY_CONSTRAINED,
                "502c1afc43a94bd427d784f573f8d3d070db3468c6b2f0211f6f246aebf95b88",
                (
                    (0.28193293733379116, 0.58557049202149, 0.1324965706447188),
                    (0.2819329373337908, 0.5855704920214903, 0.13249657064471881),
                ),
            ),
            (
                POLICY_UNIFORM,
                "063054faa695cecd1e5e89bcdc8a37f6c48763dc3fe0d130282c26da00e196a2",
                ((1 / 3, 1 / 3, 1 / 3), (1 / 3, 1 / 3, 1 / 3)),
            ),
            (
                POLICY_UNCONSTRAINED,
                "70ee7d5a96551348c39d6cb212cb9de4d4ba723b3e4cfeb66bd859603154c0d2",
                (
                    (0.15108647710824472, 0.37293295013434064, 0.4759805727574146),
                    (0.1510864771082447, 0.37293295013434047, 0.47598057275741446),
                ),
            ),
        ],
    )
    def test_lattice_law_is_frozen(self, policy, digest, probabilities):
        kwargs = dict(tie_rule=TIE_UNIFORM, policy=policy)
        instance, schedule = lattice_instance(), InverseTimeSchedule(2.37)
        exact = exact_selection_probability(instance, schedule, 6, **kwargs)
        assert law_digest(exact.arm_probabilities_exact) == digest
        assert exact.arm_probabilities == probabilities[0]
        assert exact.nodes == 462
        floating = exact_selection_probability(
            instance, schedule, 6, method="float", **kwargs
        )
        for p, q in zip(exact.arm_probabilities, floating.arm_probabilities):
            assert abs(p - q) < 1e-12
        assert floating.arm_probabilities == probabilities[1]

    # Longer horizons and wider ties, frozen from the Fraction-keyed pass:
    # the integer pass's value, probability and tie scales compound here.
    @pytest.mark.parametrize(
        "instance, schedule, t, kwargs, digest, nodes, probabilities",
        [
            (
                bernoulli_instance(),
                InverseTimeSchedule(3.0),
                10,
                {},
                "7a250596eab29d8fb22f00fca22c102cbd2aee66c6472de689460af7b014446c",
                12_727,
                (
                    (0.7523914823658027, 0.2476085176341973),
                    (0.7523914823658063, 0.2476085176341967),
                ),
            ),
            (
                five_arm_instance(),
                InverseTimeSchedule(2.5),
                5,
                {"tie_rule": TIE_UNIFORM},
                "3630f43eec22ca86e40a0047bef5a866972b26cfd8dc00406f843a1a785ef862",
                2_171,
                (
                    (
                        0.23502224283854167,
                        0.201926962890625,
                        0.23310044921875,
                        0.22936347005208332,
                        0.100586875,
                    ),
                    (
                        0.2350222428385418,
                        0.20192696289062478,
                        0.23310044921875003,
                        0.2293634700520828,
                        0.10058687499999992,
                    ),
                ),
            ),
        ],
        ids=["row_b_t10", "five_arm"],
    )
    def test_compounded_scales_law_is_frozen(
        self, instance, schedule, t, kwargs, digest, nodes, probabilities
    ):
        exact = exact_selection_probability(instance, schedule, t, **kwargs)
        assert law_digest(exact.arm_probabilities_exact) == digest
        assert exact.nodes == nodes
        assert exact.arm_probabilities == probabilities[0]
        floating = exact_selection_probability(instance, schedule, t, method="float", **kwargs)
        assert floating.arm_probabilities == probabilities[1]
        assert floating.nodes == nodes

    def test_delta_events_accumulate_best_arms(self):
        inst = three_arm_instance()
        result = exact_selection_probability(
            inst, ConstantSchedule(0.5), 3, deltas=(0.0, 0.25)
        )
        exact = result.arm_probabilities_exact
        assert result.delta_events == ((0.0, float(exact[1])), (0.25, float(sum(exact))))


class TestOracleMethods:
    def test_fraction_and_float_agree(self):
        inst = ProblemInstance(
            arms=(
                Arm(Bernoulli(0.7), Bernoulli(0.3)),
                Arm(Bernoulli(0.4), Bernoulli(0.6)),
            ),
            constraint_level=0.5,
        )
        schedule = InverseTimeSchedule(2.0)
        exact = exact_selection_probability(inst, schedule, 4, method="fraction")
        approx = exact_selection_probability(inst, schedule, 4, method="float")
        assert exact.method == "fraction"
        assert approx.method == "float"
        assert approx.arm_probabilities_exact is None
        for p, q in zip(exact.arm_probabilities, approx.arm_probabilities):
            assert abs(p - q) < 1e-12
        assert exact.nodes == approx.nodes

    def test_float_method_follows_simulator_on_knife_edge(self):
        # eta = 0: arm 0's cost 0.3 sits on the level 0.3.  In doubles, six
        # additions of 0.3 give 1.8 > 0.3 * 6 = 1.7999999999999998, so after
        # six pulls the simulator's test cost_sum <= level * count rejects
        # arm 0; exactly, it is on the boundary and feasible.  Counts 1-5
        # agree.  "float" mirrors the simulator, "fraction" is the
        # mathematical law, and here they differ.
        instance = knife_edge_instance()
        schedule = ConstantSchedule(0.5)
        t = 7
        exact = exact_selection_probability(instance, schedule, t, method="fraction")
        floating = exact_selection_probability(instance, schedule, t, method="float")
        assert sum(exact.arm_probabilities_exact) == 1
        # Only the path that plays arm 0 at steps 1-6 (mass 1/2 * (3/4)^5)
        # tells them apart: at step 7 the greedy branch keeps arm 0 exactly,
        # and falls back to uniform in float.  Its share moves 3/4 -> 1/2.
        gap = Fraction(1, 2) * Fraction(3, 4) ** 5 * (Fraction(3, 4) - Fraction(1, 2))
        difference = exact.arm_probabilities[0] - floating.arm_probabilities[0]
        assert abs(difference - float(gap)) < 1e-12
        replications = 20_000
        config = ExperimentConfig(
            instance=instance,
            schedule=schedule,
            checkpoints=(t,),
            deltas=(0.0,),
            replications=replications,
            master_seed=7007,
        )
        hits = run_experiment(config).diagnostics["arm_selections"][0][0]
        low, high = wilson_interval(hits, replications, z=4.0)
        assert low <= floating.arm_probabilities[0] <= high, (hits, low, high)
        assert not low <= exact.arm_probabilities[0] <= high, (hits, low, high)

    def test_json_export_round_trips(self):
        result = exact_selection_probability(
            two_arm_instance(), ConstantSchedule(0.5), 2, deltas=(0.0,)
        )
        blob = json.loads(json.dumps(result.to_json_dict()))
        assert blob["arm_probabilities"] == [0.625, 0.375]
        assert blob["arm_probabilities_exact"] == ["5/8", "3/8"]
        assert blob["delta_events"] == [{"delta": 0.0, "probability": 0.625}]


class TestOraclePolicies:
    def test_uniform_policy_is_uniform_at_every_step(self):
        result = exact_selection_probability(
            bernoulli_instance(), InverseTimeSchedule(1.5), 4, policy=POLICY_UNIFORM
        )
        assert result.arm_probabilities_exact == (Fraction(1, 2), Fraction(1, 2))

    def test_unconstrained_policy_matches_monte_carlo(self):
        instance = bernoulli_instance()
        schedule = InverseTimeSchedule(1.5)
        t = 4
        oracle = exact_selection_probability(
            instance, schedule, t, deltas=(0.0,), policy=POLICY_UNCONSTRAINED
        )
        constrained = exact_selection_probability(instance, schedule, t, deltas=(0.0,))
        config = ExperimentConfig(
            instance=instance,
            schedule=schedule,
            checkpoints=(t,),
            deltas=(0.0,),
            replications=50_000,
            master_seed=41,
            policy=POLICY_UNCONSTRAINED,
        )
        estimate = run_experiment(config).estimates[0]
        low, high = wilson_interval(estimate.successes, estimate.replications, z=4.0)
        ((_, p),) = oracle.delta_events
        assert low <= p <= high, (p, low, high)
        # The constrained law is a different number, far outside the interval.
        ((_, other),) = constrained.delta_events
        assert not low <= other <= high


class TestOracleValidation:
    def test_continuous_support_rejected(self):
        inst = ProblemInstance(
            arms=(
                Arm(Beta(2.0, 3.0), PointMass(0.3)),
                Arm(PointMass(0.5), PointMass(0.7)),
            ),
            constraint_level=0.5,
        )
        with pytest.raises(ValidationError) as err:
            exact_selection_probability(inst, ConstantSchedule(0.5), 2)
        assert err.value.code == "continuous_support"
        assert "arm 0 reward" in str(err.value)

    def test_state_budget_bounds_the_horizon(self):
        # Row B reaches t = 15 in 111,588 states; by t = 40 the default
        # budget is spent.
        with pytest.raises(ValidationError) as err:
            exact_selection_probability(bernoulli_instance(), InverseTimeSchedule(3.0), 40)
        assert err.value.code == "oracle_tree_too_large"

    def test_horizon_beyond_budget_fails_first(self):
        # Every step holds at least one state, so t above the budget fails
        # before the per-step inputs are built: this schedule has no value
        # for step 2, and t = 10**9 would need a billion of them.
        schedule = ExplicitSchedule((0.5,))
        with pytest.raises(ValidationError) as err:
            exact_selection_probability(two_arm_instance(), schedule, 6, max_nodes=5)
        assert err.value.code == "oracle_tree_too_large"
        with pytest.raises(ValidationError) as err:
            exact_selection_probability(two_arm_instance(), schedule, 10**9)
        assert err.value.code == "oracle_tree_too_large"
        with pytest.raises(ValidationError) as err:
            exact_selection_probability(two_arm_instance(), schedule, 2)
        assert err.value.code == "bad_schedule"

    def test_node_budget(self):
        inst = ProblemInstance(
            arms=(
                Arm(Bernoulli(0.7), Bernoulli(0.3)),
                Arm(Bernoulli(0.4), Bernoulli(0.6)),
            ),
            constraint_level=0.5,
        )
        with pytest.raises(ValidationError) as err:
            exact_selection_probability(
                inst, ConstantSchedule(0.5), 5, max_nodes=100
            )
        assert err.value.code == "oracle_tree_too_large"
        # The budget counts states expanded, summed over the layers.
        result = exact_selection_probability(
            inst, ConstantSchedule(0.5), 5, max_nodes=406
        )
        assert result.nodes == 406
        with pytest.raises(ValidationError):
            exact_selection_probability(
                inst, ConstantSchedule(0.5), 5, max_nodes=405
            )

    def test_bad_inputs(self):
        inst = two_arm_instance()
        with pytest.raises(ValidationError):
            exact_selection_probability(inst, ConstantSchedule(0.5), 0)
        with pytest.raises(ValidationError):
            exact_selection_probability(inst, ConstantSchedule(0.5), 2, method="magic")
        with pytest.raises(ValidationError):
            exact_selection_probability(inst, ConstantSchedule(0.5), 2, deltas=(-0.1,))
        with pytest.raises(ValidationError):
            exact_selection_probability(inst, ConstantSchedule(0.5), 2, tie_rule="coin")
        with pytest.raises(ValidationError):
            exact_selection_probability(inst, ConstantSchedule(0.5), 2, policy="greedy")


class TestOracleAgainstSimulation:
    def test_monte_carlo_matches_exact_law_at_t15(self):
        # Real greedy and plausible-set dynamics: by t = 15 both arms have
        # been played and the feasibility estimates flip along many paths.
        instance = bernoulli_instance()
        schedule = InverseTimeSchedule(3.0)
        t = 15
        oracle = exact_selection_probability(instance, schedule, t, method="float")
        replications = 20_000
        config = ExperimentConfig(
            instance=instance,
            schedule=schedule,
            checkpoints=(t,),
            deltas=(0.0,),
            replications=replications,
            master_seed=1515,
        )
        hits = run_experiment(config).diagnostics["arm_selections"][0]
        for arm, p in enumerate(oracle.arm_probabilities):
            low, high = wilson_interval(hits[arm], replications, z=4.0)
            assert low <= p <= high, (arm, p, hits, low, high)


# (instance, schedule, last checkpoint).  The five-arm law outgrows the
# state budget after t = 8, and t = 6 keeps its oracle under a second.
GROUND_TRUTH_CASES = {
    "row_b": (bernoulli_instance, InverseTimeSchedule(3.0), 12),
    "lattice": (lattice_instance, InverseTimeSchedule(2.37), 12),
    "knife_edge": (knife_edge_instance, ConstantSchedule(0.5), 12),
    "tied_point_mass": (tied_point_mass_instance, InverseTimeSchedule(3.0), 12),
    "five_arm": (five_arm_instance, InverseTimeSchedule(3.0), 6),
}


class TestKernelAgainstFloatLaw:
    # The float law is the kernel's ground truth: it follows the
    # simulator's doubles, so on the knife edge it is the law the kernel
    # draws from, not the mathematical one.  At every checkpoint up to the
    # case's last one, each arm's Monte Carlo frequency must hold it inside
    # a z = 4 Wilson interval.  The 30 cases hold about 1,000 intervals,
    # so a miss by chance somewhere has probability about 6%.
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    @pytest.mark.parametrize("name", list(GROUND_TRUTH_CASES))
    def test_arm_frequencies_hold_float_law(self, name, tie_rule, policy):
        make_instance, schedule, horizon = GROUND_TRUTH_CASES[name]
        instance = make_instance()
        replications = 20_000
        config = ExperimentConfig(
            instance=instance,
            schedule=schedule,
            checkpoints=range(1, horizon + 1),
            deltas=(0.0,),
            replications=replications,
            master_seed=1200,
            policy=policy,
            tie_rule=tie_rule,
        )
        selections = run_experiment(config).diagnostics["arm_selections"]
        misses = []
        for t, hits in zip(config.checkpoints, selections):
            law = exact_selection_probability(
                instance, schedule, t, tie_rule=tie_rule, policy=policy, method="float"
            ).arm_probabilities
            for arm, (count, p) in enumerate(zip(hits, law)):
                low, high = wilson_interval(count, replications, z=4.0)
                if not low <= p <= high:
                    misses.append((t, arm, count, p))
        assert not misses
