"""Tests for the selection lower bound, its closed form, and tail helpers.

High-precision reference values come from mpmath at 50 digits; frozen
constants were derived from that oracle before the implementation ran.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from cbandits.core import ValidationError
from cbandits.strategies import (
    ConstantSchedule,
    ExplicitSchedule,
    InverseTimeSchedule,
)
from cbandits.bounds import (
    VARIANT_RHO_LINEAR,
    VARIANT_RHO_SQUARED,
    VARIANTS,
    _closed_form_terms,
    _mass,
    closed_form_exponents,
    closed_form_lower_bound,
    selection_lower_bound,
)

mpmath.mp.dps = 50


def mp_factors(x, eps, n, delta, rho):
    one = mpmath.mpf(1)
    x, eps, delta, rho = map(mpmath.mpf, (x, eps, delta, rho))
    f_eps = one - eps / n
    f_count = one - n * mpmath.e ** (-x / 5)
    f_feas = one - 2 * n * mpmath.e ** (-2 * delta**2 * x)
    f_reward = one - 2 * n * mpmath.e ** (-(rho**2 / 2) * x)
    return f_eps, f_count, f_feas, f_reward, f_eps * f_count * f_feas * f_reward


def factors(report):
    return (report.factor_eps, report.factor_count, report.factor_feas, report.factor_reward)


def close(a, b, tol=1e-12):
    return math.isclose(a, float(b), rel_tol=tol, abs_tol=tol)


class TestExplorationMass:
    def test_constant_full_exploration(self):
        assert _mass(ConstantSchedule(1.0), 4, 2) == 1.0

    def test_inverse_time_hand_sum(self):
        # (1 + 1 + 2/3) / 4
        assert _mass(InverseTimeSchedule(2.0), 3, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_report_carries_the_mass(self):
        for schedule in (ConstantSchedule(0.3), InverseTimeSchedule(7.0)):
            for t, n in ((1, 2), (40, 3), (10**6, 8)):
                report = selection_lower_bound(schedule, t, n, 0.1, 0.2)
                assert report.x_t == _mass(schedule, t, n)
                assert report.epsilon_t == schedule.epsilon(t)

    def test_log_lower_bound_for_inverse_time(self):
        for k in (2.0, 5.0, 40.0):
            for n in (2, 4):
                schedule = InverseTimeSchedule(k)
                for t in sorted({math.ceil(k), int(2 * k), int(10 * k), 1000}):
                    x = _mass(schedule, t, n)
                    floor = (k / (2.0 * n)) * math.log(t / k)
                    assert x >= floor - 1e-12, (k, n, t)

    def test_range_property(self):
        schedules = [
            ConstantSchedule(0.3),
            InverseTimeSchedule(7.0),
            ExplicitSchedule((1.0, 0.5, 0.25, 0.125, 0.0625)),
        ]
        for schedule in schedules:
            for t in (1, 2, 5):
                for n in (2, 3, 8):
                    x = _mass(schedule, t, n)
                    assert 0.0 < x <= t / (2.0 * n) + 1e-15


class TestSelectionLowerBound:
    def test_hand_example_two_negative_factors(self):
        # n=2, delta=1, rho=1, eps held at 1, t=4 so x=1.  Two factors
        # are negative; their raw product is positive but guarantees
        # nothing, so the report must still be vacuous with clamped 0.
        report = selection_lower_bound(ConstantSchedule(1.0), 4, 2, 1.0, 1.0)
        assert report.x_t == 1.0
        f_eps, f_count, f_feas, f_reward, raw = mp_factors(1, 1, 2, 1, 1)
        assert report.factor_eps == 0.5
        assert close(report.factor_count, f_count)
        assert close(report.factor_feas, f_feas)
        assert close(report.factor_reward, f_reward)
        assert report.factor_count < 0.0 and report.factor_reward < 0.0
        assert report.raw_product > 0.0
        assert close(report.raw_product, raw)
        assert report.vacuous is True
        assert report.clamped == 0.0

    def test_factors_match_high_precision_oracle(self):
        # x_t from 0.004 (t = 1 at eps 0.04, n = 5) to 250 (t = 1000 at
        # eps 1, n = 2); the inverse-time rows reach x_t = 88.116 at t = 1e5.
        schedules = (ConstantSchedule(1.0), ConstantSchedule(0.04), InverseTimeSchedule(40.0))
        for schedule in schedules:
            for t in (1, 12, 124, 1000, 10**5):
                for n in (2, 5):
                    for delta in (0.05, 0.5):
                        for rho in (0.1, 1.0):
                            report = selection_lower_bound(schedule, t, n, delta, rho)
                            ref = mp_factors(report.x_t, report.epsilon_t, n, delta, rho)
                            for got, want in zip(factors(report), ref[:4]):
                                assert close(got, want), (x, eps, n, delta, rho)
                            assert close(report.raw_product, ref[4])

    def test_clamping_invariants(self):
        # At eps 0.5 and n = 3, x_t = t / 12: from 1/12 to 1000.
        for t in (1, 12, 120, 1200, 12000):
            for delta in (0.0, 0.05, 0.5):
                for rho in (0.0, 0.1, 1.0):
                    report = selection_lower_bound(ConstantSchedule(0.5), t, 3, delta, rho)
                    assert 0.0 <= report.clamped <= 1.0
                    assert all(f <= 1.0 for f in factors(report))
                    if report.vacuous:
                        assert report.clamped == 0.0
                        assert report.raw_product <= 0.0 or any(
                            f < 0.0 for f in factors(report)
                        )
                    else:
                        assert all(f >= 0.0 for f in factors(report))
                        assert report.raw_product > 0.0
                        assert report.clamped == min(1.0, report.raw_product)

    def test_raw_product_monotone_in_mass_once_positive(self):
        # All four factors are positive from roughly x = 31 on for these
        # parameters; past that point the product must be nondecreasing.
        # At eps 0.1 and n = 2, x_t = t / 40: from 31 to 2000.
        values = [
            selection_lower_bound(ConstantSchedule(0.1), int(t), 2, 0.3, 0.3).raw_product
            for t in np.linspace(1240, 80000, 200)
        ]
        assert all(b - a >= -1e-15 for a, b in zip(values, values[1:]))
        assert values[0] > 0.0

    def test_limit_example_frozen(self):
        report = selection_lower_bound(InverseTimeSchedule(40.0), 10**6, 2, 0.5, 0.5)
        assert report.clamped == pytest.approx(0.9999762968818261, rel=1e-12)
        assert report.clamped >= 0.9999

    def test_validation(self):
        schedule = ConstantSchedule(0.5)
        with pytest.raises(ValidationError):
            selection_lower_bound(schedule, 0, 2, 0.5, 0.5)
        with pytest.raises(ValidationError):
            selection_lower_bound(schedule, 4, 2, -0.1, 0.5)
        with pytest.raises(ValidationError):
            selection_lower_bound(schedule, 4, 2, 0.5, -0.1)
        with pytest.raises(ValidationError):
            selection_lower_bound(schedule, 4, 1, 0.5, 0.5)


class TestClosedForm:
    def test_frozen_alpha_beta(self):
        report = closed_form_lower_bound(40.0, 2, 0.5, 0.5, 1e6)
        assert report.variant == VARIANT_RHO_SQUARED
        assert report.alpha == 1.25
        assert report.beta == pytest.approx(4.0 * 40.0**5, rel=1e-12)
        literal = closed_form_lower_bound(
            40.0, 2, 0.5, 0.5, 1e6, variant=VARIANT_RHO_LINEAR
        )
        assert literal.alpha == 2.0
        assert literal.beta == pytest.approx(4.0 * 40.0**5, rel=1e-12)

    def test_value_matches_high_precision_formula(self):
        beta = mpmath.mpf(4) * mpmath.mpf(40) ** 5

        # At t=1e6 the tail ratio is still ~12.95, so the closed form is
        # vacuous even though the exact bound is already ~0.99998.
        report = closed_form_lower_bound(40.0, 2, 0.5, 0.5, 1e6)
        t = mpmath.mpf(10) ** 6
        value = (1 - mpmath.mpf(40) / (2 * t)) * (1 - beta / t ** mpmath.mpf("1.25")) ** 3
        assert close(report.raw_product, value)
        assert value < 0 and report.vacuous and report.clamped == 0.0

        # From t around 8e6 the ratio drops below one; at t=1e8 the bound
        # is positive and the clamped value equals the raw formula.
        report = closed_form_lower_bound(40.0, 2, 0.5, 0.5, 1e8)
        t = mpmath.mpf(10) ** 8
        value = (1 - mpmath.mpf(40) / (2 * t)) * (1 - beta / t ** mpmath.mpf("1.25")) ** 3
        assert close(report.raw_product, value)
        assert value > 0 and not report.vacuous
        assert close(report.clamped, value)

    def test_report_matches_the_row_terms(self):
        # ``cbandits bound`` writes its rows from the private terms.
        for variant in (VARIANT_RHO_SQUARED, VARIANT_RHO_LINEAR):
            alpha, log_beta = closed_form_exponents(40.0, 3, 0.25, 0.3, variant)
            for t in (40.0, 1e3, 1e8):
                report = closed_form_lower_bound(40.0, 3, 0.25, 0.3, t, variant)
                assert (report.alpha, report.log_beta) == (alpha, log_beta)
                assert (
                    report.factor_eps, report.factor_tail, report.raw_product,
                    report.clamped, report.vacuous,
                ) == _closed_form_terms(40.0, 3, t, alpha, log_beta)

    def test_exponent_variants_differ_only_in_reward_term(self):
        squared = closed_form_exponents(100.0, 2, 0.3, 0.2, VARIANT_RHO_SQUARED)
        linear = closed_form_exponents(100.0, 2, 0.3, 0.2, VARIANT_RHO_LINEAR)
        assert squared[0] == pytest.approx(0.04 * 100.0 / 8.0, rel=1e-15)
        assert linear[0] == pytest.approx(0.2 * 100.0 / 8.0, rel=1e-15)

    def test_degenerate_gaps_are_vacuous(self):
        report = closed_form_lower_bound(40.0, 2, 0.0, 0.0, 1e6)
        assert report.alpha == 0.0
        assert report.vacuous is True
        assert report.clamped == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError) as err:
            closed_form_lower_bound(40.0, 2, 0.5, 0.5, 39.0)
        assert "t >= k" in str(err.value)
        for bad_k in (1.0, 0.5, -3.0, math.inf):
            with pytest.raises(ValidationError):
                closed_form_lower_bound(bad_k, 2, 0.5, 0.5, 1e6)
        with pytest.raises(ValidationError):
            closed_form_lower_bound(40.0, 2, 0.5, 0.5, 1e6, variant="typo")
        with pytest.raises(ValidationError):
            closed_form_lower_bound(40.0, 1, 0.5, 0.5, 1e6)
        with pytest.raises(ValidationError):
            closed_form_lower_bound(40.0, 2, -0.5, 0.5, 1e6)
        with pytest.raises(ValidationError):
            closed_form_lower_bound(40.0, 2, 0.5, 0.5, math.nan)

    def test_huge_k_overflows_to_vacuous_not_exception(self):
        report = closed_form_lower_bound(1e4, 2, 0.5, 0.5, 1e6)
        assert math.isinf(report.beta)
        assert report.vacuous is True
        assert report.clamped == 0.0
        # A finite tail ratio above about e**236 overflows the cube of the
        # tail factor instead.
        report = closed_form_lower_bound(1000.0, 2, 0.3, 0.05, 1000.0)
        assert 236 < math.log(1.0 - report.factor_tail) < 700
        assert report.raw_product == -math.inf
        assert report.vacuous is True
        assert report.clamped == 0.0

    def test_dominance_of_squared_variant(self):
        # The squared variant is a relaxation of the exact bound, so its
        # clamped value can never exceed the exact clamped value.
        for k in (11.0, 40.0, 89.0, 200.0):
            schedule = InverseTimeSchedule(k)
            for n in (2, 3, 5):
                for delta in (0.05, 0.1, 0.5):
                    for rho in (0.1, 0.5, 1.0):
                        for mult in (1.0, 3.0, 10.0, 100.0):
                            t = math.ceil(k * mult)
                            closed = closed_form_lower_bound(
                                k, n, delta, rho, float(t)
                            )
                            exact = selection_lower_bound(schedule, t, n, delta, rho)
                            assert (
                                closed.clamped <= exact.clamped + 1e-12
                            ), (k, n, delta, rho, t)

    def test_frozen_violation_of_linear_variant(self):
        # At k=40, two arms, delta=0.25, rho=0.2, t=1e5 the linear
        # variant exceeds the exact bound by more than half: it claims
        # ~0.907 where the exact product only supports ~0.313.
        t = 10**5
        literal = closed_form_lower_bound(
            40.0, 2, 0.25, 0.2, float(t), variant=VARIANT_RHO_LINEAR
        )
        exact = selection_lower_bound(InverseTimeSchedule(40.0), t, 2, 0.25, 0.2)
        derived = closed_form_lower_bound(40.0, 2, 0.25, 0.2, float(t))
        assert literal.clamped == pytest.approx(0.9068578241536003, rel=1e-12)
        assert exact.clamped == pytest.approx(0.3133323651542624, rel=1e-12)
        assert literal.clamped > exact.clamped + 0.5
        assert derived.clamped == 0.0

    def test_raw_product_below_one(self):
        for k in (2.0, 40.0, 300.0):
            for t_mult in (1.0, 10.0, 1000.0):
                report = closed_form_lower_bound(k, 2, 0.4, 0.4, k * t_mult)
                assert report.raw_product < 1.0

    def test_variant_listing(self):
        assert VARIANTS == (VARIANT_RHO_SQUARED, VARIANT_RHO_LINEAR)
