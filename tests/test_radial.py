"""Radial step functions, their calculus, and variable exponent laws."""

from __future__ import annotations

import math
import random

import pytest

from ultraherz import (
    DomainError,
    ExponentFunction,
    HypothesisViolationError,
    PadicContext,
    PadicPoint,
    RadialStepFunction,
    Tail,
    TailCombinationError,
    ball_integral,
    ball_mean,
    check_regularity,
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
    # a growing inner tail vanishes at the origin
    assert f.value_at_zero == 0.0


def test_value_at_zero_resolution_rules():
    flat = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(3.0, 0.0))
    assert flat.value_at_zero == 3.0
    explicit = RadialStepFunction(CTX, (0, 0), (1.0,), value_at_zero=9.0)
    assert explicit.value_at_zero == 9.0
    x0 = PadicPoint.from_rationals(CTX, (0,))
    assert explicit.value_at(x0) == 9.0


def test_indicators_and_constant():
    ball = RadialStepFunction.indicator_ball(CTX, 2)
    assert ball.evaluate(2) == 1.0 and ball.evaluate(3) == 0.0
    assert ball.evaluate(-7) == 1.0 and ball.value_at_zero == 1.0
    sphere = RadialStepFunction.indicator_sphere(CTX, -1)
    assert sphere.evaluate(-1) == 1.0
    assert sphere.evaluate(0) == 0.0 and sphere.evaluate(-2) == 0.0
    const = RadialStepFunction.constant(CTX, 2.5)
    assert const.evaluate(17) == 2.5 and const.value_at_zero == 2.5


def test_window_must_be_ordered_and_match_coeffs():
    with pytest.raises(DomainError):
        RadialStepFunction(CTX, (1, 0), (1.0, 1.0))
    with pytest.raises(DomainError):
        RadialStepFunction(CTX, (0, 1), (1.0,))


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


def test_regularity_constant_exponent_is_free():
    u = ExponentFunction.constant(CTX, 2.0)
    for mode in ("W0", "Winfty"):
        report = check_regularity(u, mode)
        assert report.constant == 0.0


def test_regularity_w0_power_law_constant():
    """The family u0 + c*p**j has scan constant max |gamma| c p**gamma."""
    p = 3
    ctx = PadicContext(p, 1)
    c, u0, j_min = 0.5, 2.0, -5
    values = tuple(u0 + c * ppow(p, j) for j in range(j_min, 0))
    u = ExponentFunction(ctx, (j_min, -1), values, u0, values[-1])
    report = check_regularity(u, "W0")
    expected = max(abs(g) * c * ppow(p, g) for g in range(j_min, 0))
    assert report.constant == pytest.approx(expected, rel=1e-12)


def test_regularity_winfty_growth_across_alternating_family():
    """Exponents that keep alternating far out have unbounded pairing constants.

    Any single windowed exponent passes the scan, because its values freeze
    outside the window; the class violation surfaces as scan constants that
    grow linearly with the window length across the family.
    """
    constants = []
    for top in (3, 7, 15, 31):
        values = tuple(2.0 if k % 2 == 0 else 3.5 for k in range(top + 1))
        u = ExponentFunction(CTX, (0, top), values, 2.0, 2.0)
        report = check_regularity(u, "Winfty")
        assert report.witness is not None
        constants.append(report.constant)
    assert constants == sorted(constants)
    assert constants[-1] > 2.0 * constants[0]


def test_map_pieces_applies_everywhere():
    u = ExponentFunction(CTX, (0, 1), (2.0, 3.0), 1.5, 2.5)
    w = u.map_pieces(lambda t: t * 2.0)
    assert w.evaluate(0) == 4.0 and w.evaluate(1) == 6.0
    assert w.u_inner == 3.0 and w.u_infinity == 5.0
