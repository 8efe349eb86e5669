"""Modular, Luxemburg, Herz, Morrey-Herz, and oscillation norms."""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from ultraherz import (
    DomainError,
    ExponentFunction,
    HerzParams,
    MorreyHerzParams,
    NumericOverflowError,
    NumericUnderflowError,
    PadicContext,
    RadialStepFunction,
    Tail,
    ball_indicator_norm,
    ball_integral,
    ball_mean,
    cmo_norm,
    combine,
    conjugate,
    hardy,
    herz_norm,
    luxemburg_norm,
    modular,
    morrey_herz_norm,
    ppow,
    single_shell_norm,
    total_integral,
)
from ultraherz import norms
from ultraherz.norms import _modular_terms, _solve_luxemburg

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


def test_herz_overflow_is_a_typed_error_not_a_divergence():
    """chi(S_1100) at p = 2 has a finite norm (about 2.6e165), but its one
    Herz term squared leaves the float range."""
    far = RadialStepFunction(CTX, (1100, 1100), (1.0,))
    with pytest.raises(NumericOverflowError, match="overflow"):
        herz_norm(far, U2, HerzParams(0.0, 2.0))
    with pytest.raises(NumericOverflowError, match="overflow"):
        morrey_herz_norm(far, U2, MorreyHerzParams(0.0, 2.0, 0.5))
    # a divergent tail is still reported as divergence, not as an overflow
    heavy = RadialStepFunction(CTX, (1100, 1100), (1.0,), outer_tail=Tail(1.0, -0.25))
    assert not herz_norm(heavy, U2, HerzParams(0.0, 2.0)).convergent


def test_extreme_shell_norms_raise_typed_errors():
    """At p = 2 and u = 2, chi(S_-1100) has norm about 1.9e-166 but a modular
    weight 2**-1101 that rounds to 0.0, and chi(S_1100) has norm about
    2.6e165 but a modular weight that overflows: neither is a zero norm or
    a divergence."""
    near = RadialStepFunction(CTX, (-1100, -1100), (1.0,))
    far = RadialStepFunction(CTX, (1100, 1100), (1.0,))
    with pytest.raises(NumericUnderflowError, match="0.0"):
        luxemburg_norm(near, U2)
    with pytest.raises(NumericOverflowError, match="overflow"):
        luxemburg_norm(far, U2)
    with pytest.raises(NumericOverflowError, match="overflow"):
        modular(far, U2)
    weighted = HerzParams(0.5, 2.0)
    with pytest.raises(NumericOverflowError, match="overflow"):
        herz_norm(far, U2, weighted)
    with pytest.raises(NumericUnderflowError, match="underflow"):
        herz_norm(near, U2, weighted)
    with pytest.raises(NumericOverflowError, match="overflow"):
        morrey_herz_norm(far, U2, MorreyHerzParams(0.5, 2.0, 0.25))
    with pytest.raises(NumericUnderflowError, match="underflow"):
        morrey_herz_norm(near, U2, MorreyHerzParams(0.5, 2.0, 0.25))
    # a coefficient whose square overflows, raised before this as a bare OverflowError
    big = RadialStepFunction(CTX, (0, 0), (1e200,))
    with pytest.raises(NumericOverflowError, match="overflow"):
        luxemburg_norm(big, U2)
    with pytest.raises(NumericOverflowError, match="overflow"):
        modular(big, U2)
    # an inner tail whose whole sum rounds to 0.0 is not the zero function
    deep = RadialStepFunction(CTX, (-1200, -1200), (0.0,), inner_tail=Tail(1.0, 0.0))
    with pytest.raises(NumericUnderflowError):
        luxemburg_norm(deep, U2)


def test_a_subnormal_power_keeps_its_bits_in_the_modular_weight():
    """1e-160 * chi(S_1000) at p = 2, u = 2: the power 1e-320 is subnormal,
    but the weight 1e-320 * 2**999 is not, and the norm is
    1e-160 * sqrt(0.5) * 2**500 (a relative error of 5.6e-6 before)."""
    f = RadialStepFunction(CTX, (1000, 1000), (1e-160,))
    result = luxemburg_norm(f, U2)
    assert result.value == pytest.approx(1e-160 * math.sqrt(0.5) * 2.0**500, rel=1e-13)
    assert result.convergent and result.tail_remainder_bound == 0.0


def test_a_subnormal_weight_that_carries_the_modular_is_refused():
    """At p = 3, n = 2, u = 1.9203382811751333 the weight of
    -2.5002632935065436e-164 * chi(S_5) is about exp(-711), a subnormal
    float; the norm 7.176575909808679e-162 is normal, but the solver
    returned 7.176575910109989e-162 (4.2e-11 off) with a zero certificate."""
    ctx = PadicContext(3, 2)
    u = ExponentFunction.constant(ctx, 1.9203382811751333)
    f = RadialStepFunction(ctx, (5, 5), (-2.5002632935065436e-164,))
    with pytest.raises(NumericUnderflowError, match="normal float range"):
        luxemburg_norm(f, u)
    # two exponent groups, both weights subnormal: the refusal holds past the
    # closed form of a single group
    u2 = ExponentFunction(CTX, (0, 1), (2.0, 3.0), 2.0, 3.0)
    both = RadialStepFunction(CTX, (0, 1), (1.4e-155, 1e-103))
    with pytest.raises(NumericUnderflowError, match="normal float range"):
        luxemburg_norm(both, u2)
    # a subnormal weight far below rel_tol of the modular does not count
    result = luxemburg_norm(RadialStepFunction(CTX, (0, 1), (1.0, 1e-110)), u2)
    assert result.value == pytest.approx(math.sqrt(0.5), rel=1e-10)
    # c chi(B_1), c the smallest normal float, u = 1 up to shell 0 and 1.5
    # above: shell 1's weight c**1.5 rounds to 0.0 and its group vanishes, so
    # the solver returned c with a zero certificate, where the modular is 2
    c = sys.float_info.min
    f = RadialStepFunction(CTX, (2, 2), (0.0,), inner_tail=Tail(c, 0.0))
    u = ExponentFunction(CTX, (0, 0), (1.0,), 1.0, 1.5)
    with pytest.raises(NumericUnderflowError, match="normal float range"):
        luxemburg_norm(f, u)


def test_partial_underflow_keeps_the_norm():
    """A term that rounds to 0.0 next to a normal one is negligible."""
    f = RadialStepFunction(CTX, (-1100, 0), (1.0,) + (0.0,) * 1099 + (1.0,))
    result = luxemburg_norm(f, U2)
    assert abs(result.value - math.sqrt(0.5)) <= result.tail_remainder_bound + 1e-15
    u = ExponentFunction(CTX, (0, 1), (2.0, 3.0), 2.0, 3.0)
    two = RadialStepFunction(CTX, (-1100, 1), (1.0,) + (0.0,) * 1099 + (1.0, 1.0))
    without = RadialStepFunction(CTX, (0, 1), (1.0, 1.0))
    assert luxemburg_norm(two, u) == dataclasses.replace(
        luxemburg_norm(without, u), work_window=(-1100, 1)
    )
    assert herz_norm(f, U2, HerzParams(0.5, 2.0)).value == pytest.approx(
        math.sqrt(0.5), rel=1e-15
    )


def _quadratic_root(w1: Fraction, w2: Fraction) -> Fraction:
    """The positive root of w1/lam + w2/lam**2 = 1, i.e. (w1 + sqrt(w1**2 +
    4*w2)) / 2, to about 2**-190 relative precision."""
    disc = w1 * w1 + 4 * w2
    k = 200 - (disc.numerator.bit_length() - disc.denominator.bit_length()) // 2
    return (w1 + Fraction(math.isqrt(math.floor(disc * Fraction(4) ** k))) / Fraction(2) ** k) / 2


@pytest.mark.parametrize("c", [1e150, 1e-150, 3.0])
def test_finest_tolerance_is_met_at_extreme_magnitudes(c):
    """At the finest admissible rel_tol (just above 1e-14) the bracket
    half-width stays below rel_tol * lam even at lam near 1e+-150, where one
    ulp of log(lam) is already about 5.7e-14 of lam, and the bracket holds
    the exact root."""
    f = RadialStepFunction(CTX, (0, 1), (c, c))
    u = ExponentFunction(CTX, (0, 1), (1.0, 2.0), 1.0, 2.0)
    rel_tol = math.nextafter(1e-14, 1.0)
    result = luxemburg_norm(f, u, rel_tol=rel_tol)
    assert result.tail_remainder_bound <= rel_tol * result.value
    # shell 0 carries c * |S_0| with u = 1; shell 1 carries c**2 * |S_1| with u = 2
    root = _quadratic_root(Fraction(c) / 2, Fraction(c) ** 2)
    slack = Fraction(result.tail_remainder_bound) + Fraction(math.ulp(result.value))
    assert abs(Fraction(result.value) - root) <= slack
    assert result.value / c == pytest.approx(1.2807764064, rel=1e-10)


@pytest.mark.parametrize("c", [3.0, 7.5, 1.7976931348623155e308])
def test_a_one_exponent_norm_at_u_one_is_its_weight(c):
    """At u = 1 the modular of c chi(S_1) (|S_1| = 1 at p = 2) is c / lam,
    whose root c is exact, and the solve returns it unmoved. A correction
    step read 2.9999999999999996 and 7.499999999999998 with a bound of 0.0,
    and pushed the largest c past the float range, an overflow refusal."""
    u = ExponentFunction.constant(CTX, 1.0)
    result = luxemburg_norm(RadialStepFunction(CTX, (1, 1), (c,)), u)
    assert (result.value, result.convergent, result.tail_remainder_bound) == (c, True, 0.0)


def _extreme_coefficients(e: float) -> tuple[float, float]:
    """The largest c whose c**e is finite and the smallest whose c**e is a
    normal float: the one weight of c chi(S_1) at either end of the range."""
    top = math.pow(sys.float_info.max, 1.0 / e)
    while True:
        try:
            top**e
            break
        except OverflowError:
            top = math.nextafter(top, 0.0)
    bottom = math.pow(sys.float_info.min, 1.0 / e)
    while bottom**e < sys.float_info.min:
        bottom = math.nextafter(bottom, 1.0)
    return top, bottom


@pytest.mark.parametrize("e", [math.nextafter(1.0, 2.0), 1.0 + 1e-9, 1.5, 2.0, 3.0])
def test_a_one_exponent_root_at_either_end_of_the_range_stays_in_it(e):
    """The norm of c chi(S_1) is c. With the one weight c**e at the largest
    or the smallest normal float, the power and its correction step land
    within a few ulps of c, never past either end of the range."""
    u = ExponentFunction.constant(CTX, e)
    for c in _extreme_coefficients(e):
        value = luxemburg_norm(RadialStepFunction(CTX, (1, 1), (c,)), u).value
        assert sys.float_info.min <= value < math.inf
        assert abs(value - c) <= 8 * math.ulp(c)


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


def test_morrey_herz_slow_decay_is_found_in_closed_form():
    """chi(S_0) plus the outer tail 2**(-3k) at beta = 2.5 - 1e-9, lambda = 1e-9.

    With q = 2**-lambda and rho = 2**(beta - 2.5) the candidate at the
    cutoff k >= 0 is sqrt(0.5) * q**k * (1 - rho**(k + 1)) / (1 - rho) for
    m = 1, and it peaks about 1e9 shells above the window.
    """
    f = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -3.0))
    beta, lam = 2.5 - 1e-9, 1e-9
    once = morrey_herz_norm(f, U2, MorreyHerzParams(beta, 1.0, lam))
    squared = morrey_herz_norm(f, U2, MorreyHerzParams(beta, 2.0, lam))
    assert (once.value, squared.value) == (255034855.43925297, 9495.706290411646)
    assert once.convergent and once.tail_remainder_bound == 0.0
    assert squared.tail_remainder_bound == 0.0
    assert once.work_window[0] == -1 and once.work_window[1] > 10**9 - 100

    with localcontext() as ctx:
        ctx.prec = 50
        log_q = -Decimal(lam) * Decimal(2).ln()
        log_rho = (Decimal(beta) - Decimal("2.5")) * Decimal(2).ln()

        def candidate(k: int) -> Decimal:
            decay = 1 - (log_rho * (k + 1)).exp()
            return (log_q * k).exp() * decay / (1 - log_rho.exp()) * Decimal("0.5").sqrt()

        # the continuous maximum sits where rho**(k + 1) = log q / (log q + log rho)
        peak = int((log_q / (log_q + log_rho)).ln() / log_rho) - 1
        exact = max(candidate(k) for k in range(peak - 2, peak + 3))
    # rho - 1 = -7e-10 comes from expm1(log rho), not from the rounded rho,
    # which would cost about 30 bits of the value
    assert once.value == pytest.approx(float(exact), rel=1e-14)


def test_tails_at_a_rate_next_to_the_critical_one_keep_their_bits():
    """At rate + n = 2**-53 the tail ratio p**(rate + n) rounds to 1.0."""
    rate = -0.9999999999999999
    f = RadialStepFunction(CTX, (0, 0), (3.0,), inner_tail=Tail(1.0, rate))
    u1 = ExponentFunction.constant(CTX, 1.0)
    with localcontext() as ctx:
        ctx.prec = 50
        ratio = ((Decimal(rate) + 1) * Decimal(2).ln()).exp()
        # sum over k < 0 of 2**(k*rate) * |S_k|, and then the amplitude of
        # the inner tail of both operator images
        below = Decimal("0.5") / (ratio - 1)
        total = float(below + Decimal("1.5"))
        amplitude = float(Decimal("0.5") / (1 - 1 / ratio))
    assert ball_integral(f, 0) == pytest.approx(total, rel=1e-14)
    assert modular(f, u1).value == pytest.approx(total, rel=1e-14)
    assert luxemburg_norm(f, u1).value == pytest.approx(total, rel=1e-14)
    assert herz_norm(f, u1, HerzParams(0.0, 1.0)).value == pytest.approx(total, rel=1e-14)
    assert hardy(f, 0.0).inner_tail.amplitude == pytest.approx(amplitude, rel=1e-14)


def test_morrey_herz_positive_lambda_tames_divergent_weight():
    """A weight too heavy for the plain space can be absorbed by the cutoff."""
    f = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -2.0))
    plain = herz_norm(f, U2, HerzParams(2.0, 1.0))
    assert not plain.convergent
    tamed = morrey_herz_norm(f, U2, MorreyHerzParams(2.0, 1.0, 1.0))
    assert tamed.convergent
    assert math.isfinite(tamed.value)


def test_morrey_herz_reports_divergence_at_either_end():
    """Candidates that grow without bound past the window, above (outer
    drift beyond lambda) or below (an inner tail too heavy for the weight),
    give an infinite, non-convergent norm rather than a scan."""
    params = MorreyHerzParams(0.0, 2.0, 0.25)
    for tails in ({"outer_tail": Tail(1.0, 1.0)}, {"inner_tail": Tail(1.0, -0.5)}):
        result = morrey_herz_norm(RadialStepFunction(CTX, (0, 0), (1.0,), **tails), U2, params)
        assert result.value == math.inf and not result.convergent


@pytest.mark.parametrize("e", [65.0, 1000.0, 2.0**60, 1e17])
def test_a_steep_integer_exponent_solves_one_group_at_once(e):
    """Past ``_EXACT_ROOT_MAX`` an integer exponent keeps the power and its
    correction step: an exact midpoint test raises a 54-bit numerator to
    the e-th power, which at e = 1e17 never finishes. The norm of
    chi(S_0) (|S_0| = 1/2 at p = 2) is 2**(-1/e) and that of chi(B_3) is
    8**(1/e), each one exponent group; both land within a few ulps."""
    u = ExponentFunction.constant(CTX, e)
    cases = (
        (luxemburg_norm(RadialStepFunction.indicator_sphere(CTX, 0), u), -math.log(2.0) / e),
        (ball_indicator_norm(u, 3), 3.0 * math.log(2.0) / e),
    )
    for result, log_root in cases:
        root = math.exp(log_root)
        assert result.tail_remainder_bound == 0.0
        assert abs(result.value - root) <= 4 * math.ulp(root)


def test_shell_rows_that_stop_short_are_refused():
    """A modular reads one row entry per window shell: rows that stop before
    its last shell raise rather than drop the shells past their end, and
    rows that reach it give the modular that builds its own."""
    f = RadialStepFunction(CTX, (0, 3), (1.0, -2.0, 3.0, 0.5))
    with pytest.raises(ValueError, match="stop before shell 3"):
        _modular_terms(f, U2, rows=norms._shell_rows(f, U2, 0, 2))
    assert _modular_terms(f, U2, rows=norms._shell_rows(f, U2, 0, 5)) == _modular_terms(f, U2)


def test_ball_indicator_norm_matches_bisection():
    """Also the growth law ||chi(B_k)|| ~ |B_k|**(1/u): exact with u_inner
    below u's window, where the ball sees one exponent, and with
    u_infinity in the limit above it, where the part of B_k past the window
    takes all but p**(-n d) of the measure d shells out."""
    rng = random.Random(6006)
    for _ in range(25):
        u = _random_exponent(rng, CTX)
        gamma = rng.randint(-8, 8)
        closed = ball_indicator_norm(u, gamma).value
        solved = luxemburg_norm(
            RadialStepFunction.indicator_ball(CTX, gamma), u, rel_tol=1e-12
        ).value
        assert solved == pytest.approx(closed, rel=1e-8)
        j_min, j_max = u.window
        for k in range(j_min - 40, j_min):
            exact = ppow(CTX.p, CTX.n * k / u.u_inner)
            assert ball_indicator_norm(u, k).value == pytest.approx(exact, rel=1e-14, abs=0.0)
        k = j_max + 60
        limit = ppow(CTX.p, CTX.n * k / u.u_infinity)
        assert ball_indicator_norm(u, k).value / limit == pytest.approx(1.0, abs=1e-7)


def test_cmo_ball_indicator_half():
    result = cmo_norm(RadialStepFunction.indicator_ball(CTX, 0), U2)
    assert result.value == pytest.approx(0.5, abs=1e-8)


def test_cmo_constant_is_zero():
    assert cmo_norm(RadialStepFunction.constant(CTX, 3.0), U2).value == 0.0


def test_cmo_of_an_unbounded_symbol_diverges():
    """A growing outer tail, or an inner tail that blows up at the origin
    while staying integrable (rate in (-n, 0)), has unbounded oscillation."""
    for tails in ({"outer_tail": Tail(1.0, 0.5)}, {"inner_tail": Tail(1.0, -0.5)}):
        b = RadialStepFunction(CTX, (0, 1), (1.0, 2.0), **tails)
        result = cmo_norm(b, U2)
        assert result.value == math.inf and not result.convergent


def test_cmo_scan_past_the_float_range_raises_a_typed_error():
    """A bounded symbol whose CMO envelope scan runs past shell 341 at p = 2,
    n = 3, where the sphere measure 2**(3j) no longer fits in a float."""
    ctx = PadicContext(2, 3)
    b = RadialStepFunction(
        ctx,
        (-4, -1),
        (1.3897349477489307, 1.0550984759064561, -0.9797238970423132, -0.018259651632236196),
        outer_tail=Tail(-1.828178779437994, -0.5),
    )
    u = conjugate(ExponentFunction(ctx, (0, 0), (2.0,), 2.0, 1.0005))
    with pytest.raises(NumericOverflowError, match="overflow"):
        cmo_norm(b, u)


def test_cmo_shift_invariance():
    """Adding a constant to the symbol leaves its oscillation unchanged."""
    rng = random.Random(1221)
    for _ in range(20):
        b = _random_function(rng, CTX, reach=3)
        base = cmo_norm(b, U2).value
        shifted = cmo_norm(combine(b, RadialStepFunction.constant(CTX, 4.2), "add"), U2).value
        assert shifted == pytest.approx(base, rel=1e-8, abs=1e-10)


U_WIN = ExponentFunction(CTX, (-1, 1), (1.5, 2.5, 3.0), 2.2, 1.7)
#: u_infinity = 2 puts the outer rate -0.5 exactly at -n/u_infinity (n = 1).
U_HALF = ExponentFunction(CTX, (-1, 1), (1.5, 2.5, 3.0), 2.2, 2.0)
CTX32 = PadicContext(3, 2)
U32 = ExponentFunction(CTX32, (-2, 0), (1.8, 2.6, 1.6), 2.4, 2.9)


def _symbol(coeffs, inner=(0.0, 0.0), outer=(0.0, 0.0), ctx=CTX):
    return RadialStepFunction(ctx, (-2, 1), coeffs, Tail(*inner), Tail(*outer))


_MIXED = (1.0, -0.5, 2.0, 0.25)
_SMALL = (0.25, -0.25, 0.5, 0.0)

#: The full NormResult of each call as its repr: a change to the norms layer
#: that moves one bit of a value, certificate or work window fails here. The
#: CMO cases cover each kind of envelope term and the mixed inner walk.
NORMS_GOLDEN = {
    "cmo flat tails, windowed u": (
        lambda: cmo_norm(_symbol(_MIXED, (0.5, 0.0), (1.5, 0.0)), U_WIN),
        "NormResult(value=0.9740393894068041, convergent=True, "
        "tail_remainder_bound=0.0, work_window=(-3, 3))",
    ),
    "cmo flat tails, p=3 n=2": (
        lambda: cmo_norm(_symbol(_MIXED, (0.75, 0.0), (-1.25, 0.0), CTX32), U32),
        "NormResult(value=0.9647929000674652, convergent=True, "
        "tail_remainder_bound=0.0, work_window=(-3, 3))",
    ),
    "cmo outer rate below -n/u_inf": (
        lambda: cmo_norm(_symbol(_SMALL, outer=(3.0, -1.5)), U_HALF),
        "NormResult(value=0.2965042738093875, convergent=True, "
        "tail_remainder_bound=0.0, work_window=(-3, 6))",
    ),
    "cmo outer rate at -n/u_inf": (
        lambda: cmo_norm(_symbol(_SMALL, outer=(3.0, -0.5)), U_HALF),
        "NormResult(value=0.7200176097589402, convergent=True, "
        "tail_remainder_bound=0.0, work_window=(-3, 12))",
    ),
    "cmo outer rate in (-n/u_inf, 0)": (
        lambda: cmo_norm(_symbol(_SMALL, outer=(3.0, -0.25)), U_HALF),
        "NormResult(value=1.0234530572012486, convergent=True, "
        "tail_remainder_bound=0.0, work_window=(-3, 18))",
    ),
    "cmo rising inner tail": (
        lambda: cmo_norm(_symbol(_MIXED, inner=(1.0, 0.5)), U_WIN),
        "NormResult(value=1.0016613317904124, convergent=True, "
        "tail_remainder_bound=0.0, work_window=(-3, 3))",
    ),
    "cmo growing outer tail": (
        lambda: cmo_norm(_symbol(_MIXED, outer=(1.0, 0.5)), U_WIN),
        "NormResult(value=inf, convergent=False, "
        "tail_remainder_bound=0.0, work_window=(-3, 2))",
    ),
    "ball indicator": (
        lambda: ball_indicator_norm(U_WIN, 3),
        "NormResult(value=3.1110983457957886, convergent=True, "
        "tail_remainder_bound=9.612954876558888e-11, work_window=(-2, 3))",
    ),
    "luxemburg u=2": (
        lambda: luxemburg_norm(_symbol(_MIXED, (0.5, 0.5), (1.0, -1.0)), U2),
        "NormResult(value=1.5819621255474692, convergent=True, "
        "tail_remainder_bound=0.0, work_window=(-2, 1))",
    ),
    "luxemburg windowed u": (
        lambda: luxemburg_norm(_symbol(_MIXED, (0.5, 0.5), (1.0, -1.0)), U_WIN),
        "NormResult(value=1.7242876015027222, convergent=True, "
        "tail_remainder_bound=1.1102230246251565e-16, work_window=(-2, 1))",
    ),
    "luxemburg p=3 n=2": (
        lambda: luxemburg_norm(_symbol(_MIXED, (0.5, 0.5), (1.0, -2.0), CTX32), U32),
        "NormResult(value=1.8927768325936958, convergent=True, "
        "tail_remainder_bound=4.731937064406111e-11, work_window=(-2, 1))",
    ),
    "modular": (
        lambda: modular(_symbol(_MIXED, (0.5, 0.5), (1.0, -1.0)), U_WIN),
        "NormResult(value=3.5520899535642005, convergent=True, "
        "tail_remainder_bound=0.0, work_window=(-2, 1))",
    ),
    "morrey-herz": (
        lambda: morrey_herz_norm(
            _symbol(_MIXED, outer=(1.0, -1.0)), U_WIN, MorreyHerzParams(0.5, 2.0, 0.25)
        ),
        "NormResult(value=1.5345474158644679, convergent=True, "
        "tail_remainder_bound=0.0, work_window=(-3, 2))",
    ),
}


@pytest.mark.parametrize("name", sorted(NORMS_GOLDEN))
def test_norm_results_are_pinned(name):
    run, expected = NORMS_GOLDEN[name]
    assert repr(run()) == expected


def test_cmo_scan_of_a_sphere_indicator_is_linear_in_its_shell(monkeypatch):
    """chi(S_K) vanishes on every ball inside S_K, so those radii cost
    nothing: the shells that the modular builder visits grow linearly in K
    (like K**2 / 2 for a scan that builds every radius), and the result
    keeps its bits."""
    build = norms._modular_terms
    shells = []

    def counting(f, u, shift=0.0, top=None, rows=None):
        w_lo, w_hi = norms._union_window(f, u)
        shells.append(max(0, (w_hi if top is None else top) - w_lo + 1))
        return build(f, u, shift, top, rows)

    monkeypatch.setattr(norms, "_modular_terms", counting)
    visited = {}
    for k in (150, 200, 300, 400, 600):
        shells.clear()
        result = cmo_norm(RadialStepFunction.indicator_sphere(CTX, k), U2)
        visited[k] = sum(shells)
        assert repr(result) == (
            "NormResult(value=0.5, convergent=True, tail_remainder_bound=0.0, "
            f"work_window=(-1, {k + 3}))"
        )
    assert visited[400] <= 2.2 * visited[200]


@pytest.mark.parametrize("shift", [1.0, -3.0, 0.25])
def test_mixed_inner_walk_stops_where_the_ball_bounds_the_rest(monkeypatch, shift):
    """At rate 5e-4 the tail's power falls below 1e-13 of the shift only
    about 1100 shells down, but within 50 shells the ball left holds under
    1e-13 of the sum: the walk stops there, at two powers a shell."""
    power = norms.ppow
    calls = []

    def counting(*args):
        calls.append(args)
        return power(*args)

    monkeypatch.setattr(norms, "ppow", counting)
    norms._mixed_inner_sum(PadicContext(2, 1), -4.48, 5e-4, shift, 2.06, 0)
    assert len(calls) <= 200


def test_cmo_pruning_skips_solves_and_keeps_the_pinned_bits(monkeypatch):
    """A scan that solves every radius solves its numerator, its denominator
    when the numerator is nonzero, and the envelope's norm once. On the
    golden symbol the constant ball below the window and the radii that
    cannot raise the supremum take fewer solves, with the same NormResult."""
    b, u = _symbol(_MIXED, (0.5, 0.0), (1.5, 0.0)), U_WIN
    run, expected = NORMS_GOLDEN["cmo flat tails, windowed u"]
    scan_lo, scan_end = run().work_window
    numerators = [
        _solve_luxemburg(_modular_terms(b, u, ball_mean(b, gamma), gamma), 1e-10)[0]
        for gamma in range(scan_lo, scan_end)
    ]
    full = 1 + sum(2 if numerator != 0.0 else 1 for numerator in numerators)
    solve = norms._solve_luxemburg
    solves = []

    def counting(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(norms, "_solve_luxemburg", counting)
    assert repr(cmo_norm(b, u)) == expected
    assert len(solves) < full
