"""Modular, Luxemburg, Herz, Morrey-Herz, and oscillation norms."""

from __future__ import annotations

import math
import random

import pytest

from ultraherz import (
    DomainError,
    ExponentFunction,
    HerzParams,
    MorreyHerzParams,
    PadicContext,
    RadialStepFunction,
    Tail,
    ball_indicator_norm,
    cmo_norm,
    combine,
    conjugate,
    herz_norm,
    luxemburg_norm,
    modular,
    morrey_herz_norm,
    ppow,
    single_shell_norm,
    total_integral,
)

CTX = PadicContext(2, 1)
U2 = ExponentFunction.constant(CTX, 2.0)


def _random_function(rng: random.Random, ctx: PadicContext, reach: int = 5) -> RadialStepFunction:
    lo = rng.randint(-reach, reach)
    hi = rng.randint(lo, reach)
    coeffs = tuple(
        (1.0 if rng.random() < 0.5 else -1.0) * ppow(ctx.p, rng.uniform(-3.0, 3.0))
        for _ in range(hi - lo + 1)
    )
    return RadialStepFunction(ctx, (lo, hi), coeffs)


def _random_exponent(rng: random.Random, ctx: PadicContext) -> ExponentFunction:
    pieces = rng.randint(1, 4)
    lo = rng.randint(-3, 1)
    values = tuple(rng.uniform(1.2, 4.0) for _ in range(pieces))
    return ExponentFunction(
        ctx, (lo, lo + pieces - 1), values, rng.uniform(1.2, 4.0), rng.uniform(1.2, 4.0)
    )


def test_modular_single_sphere_value():
    result = modular(RadialStepFunction.indicator_sphere(CTX, 0), U2)
    assert result.value == 0.5
    assert result.convergent


def test_modular_with_quadratic_outer_tail_is_exact():
    f = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -2.0))
    result = modular(f, U2)
    assert result.value == pytest.approx(4.0 / 7.0, rel=1e-15)


def test_modular_divergence_is_reported_not_raised():
    fat = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -0.2))
    result = modular(fat, U2)
    assert math.isinf(result.value)
    assert not result.convergent


def test_luxemburg_single_sphere_closed_form():
    # ||chi_S0||_2 = |S_0|^(1/2) = (1/2)^(1/2)
    result = luxemburg_norm(RadialStepFunction.indicator_sphere(CTX, 0), U2)
    assert result.value == pytest.approx(math.sqrt(0.5), rel=1e-9)
    assert result.convergent


def test_luxemburg_of_zero_function():
    assert luxemburg_norm(RadialStepFunction.zero(CTX), U2).value == 0.0


def test_luxemburg_rel_tol_validation():
    f = RadialStepFunction.indicator_sphere(CTX, 0)
    with pytest.raises(DomainError):
        luxemburg_norm(f, U2, rel_tol=0.5)
    with pytest.raises(DomainError):
        luxemburg_norm(f, U2, rel_tol=1e-15)


def test_single_shell_norm_matches_bisection():
    rng = random.Random(77)
    for _ in range(40):
        u = _random_exponent(rng, CTX)
        shell = rng.randint(-6, 6)
        c = rng.uniform(0.1, 8.0)
        f = RadialStepFunction(CTX, (shell, shell), (c,))
        closed = single_shell_norm(c, shell, u)
        solved = luxemburg_norm(f, u, rel_tol=1e-12).value
        assert solved == pytest.approx(closed, rel=1e-9)


def test_unit_modular_property():
    """Dividing by the norm puts the modular exactly at one."""
    rng = random.Random(5150)
    for _ in range(150):
        f = _random_function(rng, CTX)
        u = _random_exponent(rng, CTX)
        norm = luxemburg_norm(f, u).value
        assert norm > 0.0
        unit = modular(f.scale(1.0 / norm), u)
        assert unit.value == pytest.approx(1.0, abs=1e-8)


def test_norm_modular_bracketing_inequalities():
    rng = random.Random(99)
    for _ in range(120):
        f = _random_function(rng, CTX)
        u = _random_exponent(rng, CTX)
        norm = luxemburg_norm(f, u).value
        rho = modular(f, u).value
        assert norm <= rho + 1.0 + 1e-9
        assert rho <= (1.0 + norm) ** u.u_plus + 1e-9


def test_power_rule_identity():
    """||f||_u equals || |f|^s ||_{u/s}^{1/s} for any 0 < s <= inf u."""
    rng = random.Random(31337)
    for _ in range(60):
        f = _random_function(rng, CTX)
        u = _random_exponent(rng, CTX)
        s = rng.uniform(0.2, u.u_minus)
        powered = RadialStepFunction(
            f.ctx, f.window, tuple(abs(c) ** s for c in f.coeffs)
        )
        base = luxemburg_norm(f, u, rel_tol=1e-12).value
        scaled = luxemburg_norm(powered, u.map_pieces(lambda t: t / s), rel_tol=1e-12).value
        assert scaled ** (1.0 / s) == pytest.approx(base, rel=1e-8)


def test_holder_inequality_with_doubled_constant():
    rng = random.Random(404)
    for _ in range(120):
        f = _random_function(rng, CTX)
        g = _random_function(rng, CTX)
        u = _random_exponent(rng, CTX)
        lhs = total_integral(combine(f, g, "multiply").absolute())
        rhs = 2.0 * luxemburg_norm(f, u).value * luxemburg_norm(g, conjugate(u)).value
        assert lhs <= rhs * (1.0 + 1e-9)


def test_herz_two_shell_hand_value():
    f = combine(
        RadialStepFunction.indicator_sphere(CTX, 0),
        RadialStepFunction.indicator_sphere(CTX, 1),
        "add",
    )
    result = herz_norm(f, U2, HerzParams(1.0, 1.0))
    # t_0 = 2**0 * (1/2)**(1/2), t_1 = 2**1 * 1**(1/2)
    assert result.value == pytest.approx(math.sqrt(0.5) + 2.0, rel=1e-12)


def test_herz_large_m_approaches_the_shell_supremum():
    f = combine(
        RadialStepFunction.indicator_sphere(CTX, 0),
        RadialStepFunction.indicator_sphere(CTX, 1),
        "add",
    )
    with pytest.raises(DomainError):
        HerzParams(1.0, math.inf)
    result = herz_norm(f, U2, HerzParams(1.0, 64.0))
    assert result.value == pytest.approx(2.0, rel=1e-6)


def test_herz_divergence_with_heavy_weight():
    f = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -2.0))
    result = herz_norm(f, U2, HerzParams(2.0, 1.0))
    assert math.isinf(result.value)
    assert not result.convergent


def test_morrey_herz_lambda_zero_equals_herz_exactly():
    rng = random.Random(8080)
    for _ in range(50):
        f = _random_function(rng, CTX)
        u = _random_exponent(rng, CTX)
        beta = rng.uniform(-1.0, 1.0)
        m = rng.choice((0.5, 1.0, 2.0))
        a = herz_norm(f, u, HerzParams(beta, m)).value
        b = morrey_herz_norm(f, u, MorreyHerzParams(beta, m, 0.0)).value
        assert a == b


def test_morrey_herz_single_sphere_cutoff_sup():
    result = morrey_herz_norm(
        RadialStepFunction.indicator_sphere(CTX, 0), U2, MorreyHerzParams(0.0, 1.0, 0.5)
    )
    # the cutoff supremum is attained at the smallest ball containing S_0
    assert result.value == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_morrey_herz_positive_lambda_tames_divergent_weight():
    """A weight too heavy for the plain space can be absorbed by the cutoff."""
    f = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -2.0))
    plain = herz_norm(f, U2, HerzParams(2.0, 1.0))
    assert not plain.convergent
    tamed = morrey_herz_norm(f, U2, MorreyHerzParams(2.0, 1.0, 1.0))
    assert tamed.convergent
    assert math.isfinite(tamed.value)


def test_ball_indicator_norm_matches_bisection():
    rng = random.Random(6006)
    for _ in range(25):
        u = _random_exponent(rng, CTX)
        gamma = rng.randint(-8, 8)
        closed = ball_indicator_norm(u, gamma).value
        solved = luxemburg_norm(
            RadialStepFunction.indicator_ball(CTX, gamma), u, rel_tol=1e-12
        ).value
        assert solved == pytest.approx(closed, rel=1e-8)


def test_cmo_ball_indicator_half():
    result = cmo_norm(RadialStepFunction.indicator_ball(CTX, 0), U2)
    assert result.value == pytest.approx(0.5, abs=1e-8)


def test_cmo_constant_is_zero():
    assert cmo_norm(RadialStepFunction.constant(CTX, 3.0), U2).value == 0.0


def test_cmo_shift_invariance():
    """Adding a constant to the symbol leaves its oscillation unchanged."""
    rng = random.Random(1221)
    for _ in range(20):
        b = _random_function(rng, CTX, reach=3)
        base = cmo_norm(b, U2).value
        shifted = cmo_norm(combine(b, RadialStepFunction.constant(CTX, 4.2), "add"), U2).value
        assert shifted == pytest.approx(base, rel=1e-8, abs=1e-10)
