"""Radial step functions, their calculus, and variable exponent laws."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from ultraherz import (
    DomainError,
    ExponentFunction,
    HypothesisViolationError,
    PadicContext,
    RadialStepFunction,
    Tail,
    TailCombinationError,
    ball_integral,
    ball_mean,
    combine,
    conjugate,
    ppow,
    sobolev_shift,
    total_integral,
)

CTX = PadicContext(2, 1)


def test_evaluate_window_tails_and_zero():
    f = RadialStepFunction(
        CTX,
        (-1, 1),
        (2.0, 3.0, 4.0),
        inner_tail=Tail(5.0, 1.0),
        outer_tail=Tail(7.0, -2.0),
    )
    assert f.evaluate(-1) == 2.0
    assert f.evaluate(0) == 3.0
    assert f.evaluate(1) == 4.0
    # inner law 5 * 2**(1*k) below the window, outer law 7 * 2**(-2*k) above
    assert f.evaluate(-3) == 5.0 * ppow(2, -3)
    assert f.evaluate(4) == 7.0 * ppow(2, -8)


def test_indicators_and_constant():
    ball = RadialStepFunction.indicator_ball(CTX, 2)
    assert ball.evaluate(2) == 1.0 and ball.evaluate(3) == 0.0
    assert ball.evaluate(-7) == 1.0
    sphere = RadialStepFunction.indicator_sphere(CTX, -1)
    assert sphere.evaluate(-1) == 1.0
    assert sphere.evaluate(0) == 0.0 and sphere.evaluate(-2) == 0.0
    const = RadialStepFunction.constant(CTX, 2.5)
    assert const.evaluate(17) == 2.5


def test_window_must_be_ordered_and_match_coeffs():
    with pytest.raises(DomainError):
        RadialStepFunction(CTX, (1, 0), (1.0, 1.0))
    with pytest.raises(DomainError):
        RadialStepFunction(CTX, (0, 1), (1.0,))


def test_nan_coefficients_and_tails_are_rejected():
    nan = math.nan
    with pytest.raises(DomainError):
        RadialStepFunction(CTX, (0, 1), (1.0, nan))
    with pytest.raises(DomainError):
        RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(nan, 1.0))
    with pytest.raises(DomainError):
        RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, nan))
    # a NaN rate is rejected even where a zero amplitude would drop the tail
    with pytest.raises(DomainError):
        RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(0.0, nan))


def test_infinite_coefficients_and_tails_are_rejected():
    for inf in (math.inf, -math.inf):
        with pytest.raises(DomainError):
            RadialStepFunction(CTX, (0, 1), (1.0, inf))
        with pytest.raises(DomainError):
            RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(inf, 1.0))
        with pytest.raises(DomainError):
            RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, inf))
        with pytest.raises(DomainError):
            RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(0.0, inf))


def test_inner_tail_integrability_guard():
    fat = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(1.0, -1.5))
    with pytest.raises(DomainError):
        ball_integral(fat, 0)
    # amplitude zero is always integrable, whatever the rate says
    f = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(0.0, -9.0))
    assert f.evaluate(-5) == 0.0
    assert ball_integral(f, 0) == 0.5


def test_combine_add_and_multiply():
    f = RadialStepFunction(CTX, (0, 1), (1.0, 2.0))
    g = RadialStepFunction(CTX, (1, 2), (10.0, 20.0))
    s = combine(f, g, "add")
    assert s.window == (0, 2)
    assert [s.evaluate(k) for k in (0, 1, 2)] == [1.0, 12.0, 20.0]
    m = combine(f, g, "multiply")
    assert [m.evaluate(k) for k in (0, 1, 2)] == [0.0, 20.0, 0.0]


def test_combine_tail_laws():
    f = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(2.0, -3.0))
    g = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(5.0, -3.0))
    s = combine(f, g, "add")
    assert s.outer_tail == Tail(7.0, -3.0)
    prod = combine(f, g, "multiply")
    assert prod.outer_tail == Tail(10.0, -6.0)
    h = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(5.0, -2.0))
    with pytest.raises(TailCombinationError):
        combine(f, h, "add")
    # multiplying different rates is fine; the rates add
    assert combine(f, h, "multiply").outer_tail == Tail(10.0, -5.0)


def test_scale_and_absolute():
    f = RadialStepFunction(CTX, (0, 1), (-1.0, 2.0), outer_tail=Tail(-4.0, -2.0))
    doubled = f.scale(2.0)
    assert doubled.evaluate(0) == -2.0 and doubled.outer_tail.amplitude == -8.0
    abs_f = f.absolute()
    assert abs_f.evaluate(0) == 1.0 and abs_f.outer_tail.amplitude == 4.0


def test_integrals_match_hand_sums():
    # indicator of the unit sphere: mass 1/2 in p=2, n=1
    sphere = RadialStepFunction.indicator_sphere(CTX, 0)
    assert total_integral(sphere) == 0.5
    # window plus geometric outer tail, integer rate, summed exactly
    f = RadialStepFunction(CTX, (0, 0), (2.0,), outer_tail=Tail(1.0, -2.0))
    assert total_integral(f) == 1.5
    assert ball_integral(f, 0) == 1.0
    # constant function has mean exactly one on every ball
    one = RadialStepFunction.constant(CTX, 1.0)
    for gamma in (-6, 0, 9):
        assert ball_mean(one, gamma) == 1.0


def test_ball_mean_of_an_integer_rate_outer_tail_is_exact():
    """2 chi(S_0) plus an integer-rate outer tail, summed shell by shell in
    rationals: the mean over B_gamma is that sum over p**(n*gamma), rounded
    once, out to gamma = 700."""
    for p in (2, 3, 7):
        for n in (1, 2):
            ctx = PadicContext(p, n)
            q = Fraction(p) ** n
            for rate in range(0, -n - 3, -1):
                f = RadialStepFunction(ctx, (0, 0), (2.0,), outer_tail=Tail(0.75, float(rate)))
                integral = 2 * (1 - 1 / q)
                for gamma in range(1, 701):
                    integral += Fraction(3, 4) * Fraction(p) ** (gamma * rate) * q**gamma * (1 - 1 / q)
                    if gamma in (1, 2, 50, 300, 700):
                        assert ball_mean(f, gamma) == float(integral / q**gamma)


def test_total_integral_rejects_fat_outer_tails():
    f = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -1.0))
    with pytest.raises(DomainError):
        total_integral(f)


def test_ball_integral_random_cross_check():
    """Window-only integrals agree with the brute-force shell sum."""
    rng = random.Random(2024)
    for _ in range(50):
        lo = rng.randint(-6, 2)
        hi = lo + rng.randint(0, 5)
        coeffs = tuple(rng.uniform(-4.0, 4.0) for _ in range(hi - lo + 1))
        f = RadialStepFunction(CTX, (lo, hi), coeffs)
        gamma = rng.randint(lo - 2, hi + 2)
        brute = sum(
            f.evaluate(k) * (ppow(2, k) - ppow(2, k - 1))
            for k in range(lo - 1, gamma + 1)
        )
        assert ball_integral(f, gamma) == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_exponent_function_basics():
    u = ExponentFunction(CTX, (-1, 1), (2.0, 3.0, 2.5), 1.5, 4.0)
    assert u.evaluate(-1) == 2.0 and u.evaluate(1) == 2.5
    assert u.evaluate(-9) == 1.5 and u.evaluate(9) == 4.0
    assert u.u_minus == 1.5 and u.u_plus == 4.0
    with pytest.raises(DomainError):
        ExponentFunction(CTX, (0, 0), (0.9,), 2.0, 2.0)


def test_conjugate_is_an_involution():
    u = ExponentFunction(CTX, (-1, 1), (2.0, 3.0, 2.5), 1.5, 4.0)
    v = conjugate(conjugate(u))
    for k in range(-4, 5):
        assert v.evaluate(k) == pytest.approx(u.evaluate(k), rel=1e-12)


def test_conjugate_needs_exponents_above_one():
    u = ExponentFunction(CTX, (0, 0), (1.0,), 2.0, 2.0)
    with pytest.raises(DomainError):
        conjugate(u)


def test_sobolev_shift_values_and_guard():
    u = ExponentFunction.constant(CTX, 2.0)
    v = sobolev_shift(u, 0.25)
    # 1/v = 1/2 - 1/4 = 1/4
    assert v.evaluate(0) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(HypothesisViolationError):
        sobolev_shift(u, 0.5)


def test_map_pieces_applies_everywhere():
    u = ExponentFunction(CTX, (0, 1), (2.0, 3.0), 1.5, 2.5)
    w = u.map_pieces(lambda t: t * 2.0)
    assert w.evaluate(0) == 4.0 and w.evaluate(1) == 6.0
    assert w.u_inner == 3.0 and w.u_infinity == 5.0


def test_a_decaying_outer_tail_integrates_past_the_float_range_of_its_measures():
    """|S_j| overflows a float from j = 1025 at p = 2, but the terms of the
    tail 2**(-1.5 j) on it decay: the integral over B_2000 is
    0.5 + 0.5 * r * (1 - r**2000) / (1 - r) with r = 2**-0.5."""
    f = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -1.5))
    r = 2**-0.5
    closed_form = 0.5 + 0.5 * r * (1 - r**2000) / (1 - r)
    assert ball_integral(f, 2000) == pytest.approx(closed_form, rel=1e-15)


def test_a_subnormal_tail_amplitude_keeps_its_bits_in_a_ball_integral():
    """The tail's coefficient amplitude * |S_0| = 5e-324 * 0.5 is half the
    smallest subnormal and would round to 0.0; the tail of the amplitude's
    mantissa is summed instead and its exponent applied last, so the
    integral over B_20, 5e-324 * 0.5 * 2**30 / (1 - 2**-1.5), about 4e-315,
    keeps all but the last rounding."""
    f = RadialStepFunction(CTX, (21, 21), (0.0,), inner_tail=Tail(5e-324, 0.5))
    exact = float(Fraction(5e-324) * Fraction(0.5 * 2**30 / (1 - 2**-1.5)))
    assert 0.0 < exact < 2.3e-308
    assert abs(ball_integral(f, 20) - exact) <= 2 * 5e-324


def test_a_tail_value_that_fits_is_read_past_a_saturated_power():
    """At p = 2 the values 1e-300 * 2**1100 and 1e300 * 2**-1100 on shell
    -1100 fit in a float, though 2**1100 saturates to inf and 2**-1100 to
    0.0: each is formed from the exact amplitude, here exactly. A range read
    keeps each shell's value, and a normal value keeps the plain product.
    A value past the float range reads 0.0 even where k * rate is -inf."""
    rising = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(1e-300, -1.0))
    falling = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(1e300, 1.0))
    assert rising.evaluate(-1100) == float(Fraction(1e-300) * 2**1100) == 1.3582985290493859e31
    assert falling.evaluate(-1100) == float(Fraction(1e300) / 2**1100) == 7.362151829022863e-32
    for f in (rising, falling):
        assert f.evaluate_range(-1102, -2) == [f.evaluate(k) for k in range(-1102, -1)]
    assert rising.evaluate(-3) == 1e-300 * ppow(2, 3.0)
    # the outer tail's values past 2**1024 read the same way
    outer = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1e-300, 1.0))
    assert outer.evaluate(1100) == rising.evaluate(-1100)
    # k * 1e308 is -inf on S_-3 and S_-2, and k * -1e308 on S_5
    steep = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(1.0, 1e308))
    assert steep.evaluate_range(-3, 0) == [0.0, 0.0, 0.0, 1.0]
    steep = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -1e308))
    assert steep.evaluate(5) == 0.0
