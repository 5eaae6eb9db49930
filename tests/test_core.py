from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import integrate, stats

from cbandits.core import (
    DRAWS_PER_STEP,
    Arm,
    Bernoulli,
    Beta,
    Discrete,
    PointMass,
    ProblemInstance,
    ValidationError,
    distribution_from_config,
    experiment_key,
    instance_from_config,
    step_uniforms,
)

# Frozen exact moments, computed by hand from the closed forms.
EXPECTED_MOMENTS = [
    (PointMass(0.3), 0.3, 0.0),
    (Bernoulli(0.25), 0.25, 0.1875),
    (Discrete((0.0, 0.5, 1.0), (0.2, 0.3, 0.5)), 0.65, 0.1525),
    (Beta(2.0, 3.0), 0.4, 0.04),
]


def two_point_instance() -> ProblemInstance:
    return ProblemInstance(
        arms=(
            Arm(PointMass(1.0), PointMass(0.0)),
            Arm(PointMass(0.0), PointMass(1.0)),
        ),
        constraint_level=0.5,
    )


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dist,mean,variance", EXPECTED_MOMENTS)
def test_closed_form_moments(dist, mean, variance):
    assert dist.mean == pytest.approx(mean, abs=1e-12)
    assert dist.variance == pytest.approx(variance, abs=1e-12)


def test_beta_mean_matches_numerical_integration():
    # Independent check of the closed form against direct quadrature.
    dist = Beta(2.0, 3.0)
    pdf = stats.beta(2.0, 3.0).pdf
    mean_quad, err = integrate.quad(lambda x: x * pdf(x), 0.0, 1.0)
    assert err < 1e-10
    assert dist.mean == pytest.approx(mean_quad, abs=1e-9)
    second, _ = integrate.quad(lambda x: x * x * pdf(x), 0.0, 1.0)
    assert dist.variance == pytest.approx(second - mean_quad**2, abs=1e-9)


# ---------------------------------------------------------------------------
# quantile maps
# ---------------------------------------------------------------------------


def test_point_mass_quantile_is_constant():
    dist = PointMass(0.7)
    assert dist.quantile(0.0) == 0.7
    assert dist.quantile(0.999) == 0.7
    out = dist.quantile(np.array([0.1, 0.9]))
    assert np.array_equal(out, np.array([0.7, 0.7]))


def test_bernoulli_quantile_threshold():
    dist = Bernoulli(0.25)
    assert dist.quantile(0.0) == 1.0
    assert dist.quantile(0.2499) == 1.0
    assert dist.quantile(0.25) == 0.0
    assert dist.quantile(0.9) == 0.0
    out = dist.quantile(np.array([0.1, 0.25, 0.3]))
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0]))


def test_discrete_quantile_cells():
    dist = Discrete((0.0, 0.5, 1.0), (0.2, 0.3, 0.5))
    # Cells: [0, 0.2) -> 0.0, [0.2, 0.5) -> 0.5, [0.5, 1) -> 1.0.
    assert dist.quantile(0.0) == 0.0
    assert dist.quantile(0.1999) == 0.0
    assert dist.quantile(0.2) == 0.5
    assert dist.quantile(0.4999) == 0.5
    assert dist.quantile(0.5) == 1.0
    assert dist.quantile(0.9999) == 1.0


def test_beta_quantile_inverts_cdf():
    dist = Beta(2.0, 3.0)
    u = np.linspace(0.01, 0.99, 23)
    x = dist.quantile(u)
    np.testing.assert_allclose(stats.beta.cdf(x, 2.0, 3.0), u, atol=1e-12)
    assert dist.quantile(0.5) == pytest.approx(stats.beta.ppf(0.5, 2.0, 3.0), abs=1e-14)


@pytest.mark.parametrize("dist,_m,_v", EXPECTED_MOMENTS)
def test_samples_stay_in_unit_interval(dist, _m, _v):
    values = np.asarray(dist.quantile(np.random.default_rng(7).random(20_000)))
    assert values.min() >= 0.0
    assert values.max() <= 1.0


@pytest.mark.parametrize("dist,mean,variance", EXPECTED_MOMENTS)
def test_law_of_large_numbers(dist, mean, variance):
    n = 1_000_000
    values = np.asarray(dist.quantile(np.random.default_rng(20260819).random(n)))
    # Four-sigma band around the exact mean, plus float-summation slack.
    tol = 4.0 * math.sqrt(variance / n) + 1e-12
    assert abs(values.mean() - mean) <= tol
    if variance > 0.0:
        sample_var = values.var()
        assert abs(sample_var - variance) <= 12.0 * variance / math.sqrt(n) + 1e-12


def test_exact_support_law_sums_to_one():
    def law(dist, exact=False):
        return tuple(p for _, p in dist.atoms(exact))

    # 1.0 - 0.3 rounds, so the float complement is not the law of quantile(U).
    assert law(Bernoulli(0.3), exact=True) == (1 - Fraction(0.3), Fraction(0.3))
    assert sum(law(Bernoulli(0.3), exact=True)) == 1
    assert Bernoulli(0.3).atoms() == ((0.0, 1.0 - 0.3), (1.0, 0.3))
    dist = Discrete((0.0, 1.0), (0.3, 0.7))
    assert law(dist, exact=True) == (Fraction(0.3), 1 - Fraction(0.3))
    assert dist.atoms() == ((0.0, 0.3), (1.0, 0.7))
    assert sum(Fraction(p) for p in law(dist)) != 1
    # Atoms are the cells of quantile: [0, _cum[0]), [_cum[0], _cum[1]), ...
    dist = Discrete((0.0, 0.5, 1.0), (0.1, 0.2, 0.7))
    exact = law(dist, exact=True)
    assert sum(exact) == 1
    assert exact[1] == Fraction(0.1 + 0.2) - Fraction(0.1)
    assert PointMass(0.4).atoms(exact=True) == ((0.4, 1),)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build,code",
    [
        (lambda: PointMass(1.2), "out_of_support"),
        (lambda: PointMass(-0.1), "out_of_support"),
        (lambda: PointMass(float("nan")), "bad_parameter"),
        (lambda: Bernoulli(1.5), "bad_parameter"),
        (lambda: Discrete((0.2, 1.3), (0.5, 0.5)), "out_of_support"),
        (lambda: Discrete((0.2, 0.3), (0.6, 0.6)), "bad_probabilities"),
        (lambda: Discrete((0.2, 0.3), (-0.1, 1.1)), "bad_probabilities"),
        (lambda: Discrete((0.2, 0.3), (0.5,)), "bad_parameter"),
        (lambda: Discrete((), ()), "bad_parameter"),
        (lambda: Beta(0.0, 2.0), "bad_parameter"),
        (lambda: Beta(2.0, -1.0), "bad_parameter"),
    ],
)
def test_distribution_validation_codes(build, code):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.code == code


def test_discrete_probability_sum_tolerance():
    # Within 1e-12 of one is accepted.
    Discrete((0.0, 1.0), (0.5, 0.5 + 4e-13))


def test_instance_requires_two_arms():
    with pytest.raises(ValidationError) as err:
        ProblemInstance(arms=(Arm(Bernoulli(0.5), Bernoulli(0.5)),), constraint_level=0.5)
    assert err.value.code == "too_few_arms"


def test_instance_requires_nonempty_feasible_set():
    with pytest.raises(ValidationError) as err:
        ProblemInstance(
            arms=(
                Arm(Bernoulli(0.5), PointMass(0.8)),
                Arm(Bernoulli(0.5), PointMass(0.9)),
            ),
            constraint_level=0.5,
        )
    assert err.value.code == "empty_feasible_set"


def test_instance_boundary_cost_is_feasible():
    ProblemInstance(
        arms=(
            Arm(Bernoulli(0.5), PointMass(0.5)),
            Arm(Bernoulli(0.5), PointMass(0.9)),
        ),
        constraint_level=0.5,
    )


def test_instance_mean_vectors():
    instance = two_point_instance()
    assert np.array_equal(instance.reward_means(), np.array([1.0, 0.0]))
    assert np.array_equal(instance.cost_means(), np.array([0.0, 1.0]))
    assert instance.num_arms == 2


# ---------------------------------------------------------------------------
# config round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dist,_m,_v", EXPECTED_MOMENTS)
def test_distribution_config_round_trip(dist, _m, _v):
    assert distribution_from_config(dist.to_config()) == dist


def test_distribution_config_unknown_kind():
    with pytest.raises(ValidationError) as err:
        distribution_from_config({"kind": "cauchy", "scale": 2.0})
    assert err.value.code == "unknown_kind"


def test_distribution_config_unknown_key():
    with pytest.raises(ValidationError) as err:
        distribution_from_config({"kind": "bernoulli", "p": 0.5, "q": 0.5})
    assert err.value.code == "unknown_key"
    assert "q" in str(err.value)


def test_instance_config_round_trip():
    instance = ProblemInstance(
        arms=(
            Arm(Bernoulli(0.7), Discrete((0.0, 1.0), (0.7, 0.3))),
            Arm(Beta(2.0, 3.0), PointMass(0.2)),
        ),
        constraint_level=0.5,
    )
    again = instance_from_config(instance.to_config())
    assert again == instance


def test_instance_config_rejects_unknown_key():
    config = two_point_instance().to_config()
    config["extra"] = 1
    with pytest.raises(ValidationError) as err:
        instance_from_config(config)
    assert err.value.code == "unknown_key"


# ---------------------------------------------------------------------------
# uniform streams
# ---------------------------------------------------------------------------


def steps(stream, count):
    return [next(stream) for _ in range(count)]


def test_trial_streams_row_is_independent_of_block():
    # The scalar reference draws one replication, the kernel a block: a
    # replication's uniforms must not depend on which block it is in.
    block = steps(step_uniforms(11, 3, 10), 25)
    for offset, rep in enumerate(range(3, 10)):
        alone = steps(step_uniforms(11, rep, rep + 1), 25)
        for t in range(25):
            assert np.array_equal(block[t][offset], alone[t][0])
    assert all(b.shape == (7, DRAWS_PER_STEP) for b in block)


def test_step_block_is_keyed_by_step_and_replication():
    # Row r of step t is the first Philox block after counter (t << 64) + r,
    # built here without the stream's skip-ahead between steps.
    key = experiment_key(123)
    lo, hi = 5, 12
    for t, block in enumerate(steps(step_uniforms(123, lo, hi), 40), start=1):
        expected = Generator(Philox(key=key, counter=(t << 64) + lo)).random((hi - lo, 4))
        assert np.array_equal(block, expected), t


def test_trial_stream_is_deterministic():
    first = steps(step_uniforms(123, 4, 6), 50)
    assert np.array_equal(first, steps(step_uniforms(123, 4, 6), 50))


def test_trial_streams_differ_across_replications_and_seeds():
    base = np.concatenate(steps(step_uniforms(123, 0, 1), 50))
    assert not np.array_equal(base, np.concatenate(steps(step_uniforms(123, 1, 2), 50)))
    assert not np.array_equal(base, np.concatenate(steps(step_uniforms(124, 0, 1), 50)))


def test_trial_streams_are_disjoint_windows():
    # Every (step, replication) pair reads its own counter block.
    tiled = np.concatenate(steps(step_uniforms(9, 0, 5), 13)).ravel()
    assert tiled.size == 13 * 5 * DRAWS_PER_STEP
    assert np.unique(tiled).size == tiled.size


def test_experiment_key_validation():
    with pytest.raises(ValidationError):
        experiment_key(-1)
    with pytest.raises(ValidationError):
        experiment_key(2**64)
    with pytest.raises(ValidationError):
        experiment_key("seed")
    assert experiment_key(7).shape == (2,)
    assert np.array_equal(experiment_key(np.uint64(7)), experiment_key(7))


def test_trial_stream_validation():
    # Bad ranges fail at the call, before any step is drawn.
    for seed, lo, hi in ((1, -1, 0), (1, 2, 2), (1, 0, 2**64 + 1), (-1, 0, 1)):
        with pytest.raises(ValidationError):
            step_uniforms(seed, lo, hi)
    assert next(step_uniforms(1, 2**64 - 1, 2**64)).shape == (1, DRAWS_PER_STEP)
