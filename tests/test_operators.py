"""Averaging operators: exact images, class guards, and the duality pairing."""

from __future__ import annotations

import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraherz import (
    ClassClosureError,
    DomainError,
    NumericOverflowError,
    NumericUnderflowError,
    OperatorSpec,
    PadicContext,
    RadialStepFunction,
    Tail,
    TailCombinationError,
    UltraherzError,
    apply_operator,
    ball_integral,
    ball_mean,
    combine,
    commutator,
    hardy,
    hardy_adjoint,
    ppow,
    sphere_measure,
    total_integral,
)

CTX = PadicContext(2, 1)
MIN_NORMAL = sys.float_info.min


def diagonal(f: RadialStepFunction, g: RadialStepFunction, alpha: float) -> float:
    """The shell diagonal sum_k F(k) G(k) p**(k*(alpha - n)) |S_k|**2, by
    which <H_alpha f, g> exceeds <f, H*_alpha g>: the integral of f * g * w
    for w = |S_0| * |x|**alpha, tails included. A divergent sum or functions
    from different contexts raise DomainError."""
    m = float(sphere_measure(0, f.ctx))
    w = RadialStepFunction(f.ctx, (0, 0), (m,), Tail(m, alpha), Tail(m, alpha))
    return total_integral(combine(combine(f, g, "multiply"), w, "multiply"))


def _random_compact(rng: random.Random, reach: int = 4) -> RadialStepFunction:
    lo = rng.randint(-reach, reach)
    hi = rng.randint(lo, reach)
    coeffs = tuple(rng.uniform(-3.0, 3.0) for _ in range(hi - lo + 1))
    return RadialStepFunction(CTX, (lo, hi), coeffs)


def test_hardy_ball_indicator_profile():
    image = hardy(RadialStepFunction.indicator_ball(CTX, 0), 0.0)
    assert image.evaluate(0) == 1.0
    assert image.evaluate(-3) == 1.0
    assert image.evaluate(2) == 0.25


def test_hardy_agrees_with_ball_integrals():
    rng = random.Random(1701)
    for _ in range(30):
        f = _random_compact(rng)
        alpha = rng.uniform(0.0, 0.9)
        image = hardy(f, alpha)
        for k in range(f.window[0] - 2, f.window[1] + 3):
            expected = ppow(2, k * (alpha - 1)) * ball_integral(f, k)
            assert image.evaluate(k) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_hardy_rejects_outer_tails():
    f = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -3.0))
    with pytest.raises(ClassClosureError):
        hardy(f, 0.2)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("excess", [0.0, 0.5])
def test_a_non_integrable_inner_tail_is_refused(n, excess):
    """An inner tail at rate -n or below has no ball integral through the
    origin; hardy raises before computing anything."""
    f = RadialStepFunction(
        PadicContext(2, n), (0, 0), (1.0,), inner_tail=Tail(1.0, -n - excess)
    )
    with pytest.raises(DomainError, match="not integrable"):
        hardy(f, 0.0)


def test_adjoint_sphere_indicator_profile():
    image = hardy_adjoint(RadialStepFunction.indicator_sphere(CTX, 0), 0.5)
    # strict lower cutoff: the diagonal shell contributes nothing
    assert image.evaluate(0) == 0.0
    assert image.evaluate(-1) == 0.5
    assert image.evaluate(-7) == 0.5
    assert image.evaluate(1) == 0.0


def test_adjoint_agrees_with_shell_sums():
    rng = random.Random(90210)
    for _ in range(30):
        f = _random_compact(rng)
        alpha = rng.uniform(0.0, 0.9)
        image = hardy_adjoint(f, alpha)
        lo, hi = f.window
        for k in range(lo - 3, hi + 2):
            expected = sum(
                f.evaluate(j) * ppow(2, j * (alpha - 1)) * (ppow(2, j) - ppow(2, j - 1))
                for j in range(k + 1, hi + 1)
            )
            assert image.evaluate(k) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_adjoint_class_and_rate_guards():
    grower = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(1.0, 0.5))
    with pytest.raises(ClassClosureError):
        hardy_adjoint(grower, 0.2)
    slow = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -0.1))
    with pytest.raises(DomainError):
        hardy_adjoint(slow, 0.2)


def test_adjoint_handles_decaying_outer_tails():
    """With rate + alpha < 0 the adjoint of a tailed function stays in class."""
    f = RadialStepFunction(CTX, (0, 1), (1.0, 2.0), outer_tail=Tail(1.0, -2.0))
    image = hardy_adjoint(f, 0.5)
    # far below the window the value is the full integral, a constant
    assert image.evaluate(-9) == pytest.approx(image.evaluate(-10), rel=1e-12)
    # beyond the window the image inherits a power-law decay
    ratio = image.evaluate(7) / image.evaluate(6)
    assert ratio == pytest.approx(ppow(2, -1.5), rel=1e-9)


#: Everyday coefficients and ones whose products and integrals leave the
#: float range, so the property reaches the error paths as well.
_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -2.0, 0.5, 1e300, -1e300, 1e-300, 5e-324]),
    st.floats(-10.0, 10.0),
)


@st.composite
def _windowed(draw, ctx, inner_rates, outer_rates):
    """A function with a window in [-12, 12] and tails at the given rates."""
    lo = draw(st.integers(-12, 12))
    coeffs = draw(st.lists(_VALUES, min_size=1, max_size=13 - max(lo, 0)))
    inner = Tail(draw(_VALUES), draw(inner_rates)) if draw(st.booleans()) else Tail(0.0, 0.0)
    outer = Tail(draw(_VALUES), draw(outer_rates)) if draw(st.booleans()) else Tail(0.0, 0.0)
    return RadialStepFunction(ctx, (lo, lo + len(coeffs) - 1), coeffs, inner, outer)


def _bracket(b, f, k):
    """The commutator's bracket on S_k, B(k) = b(k) I(k) - J(k), where I and
    J integrate f and b f over B_k, with I(k), J(k) and the sum of the
    absolute values of their terms, |b(k)| |f|(B_k) + |b f|(B_k), as a float.

    Exact (``Fraction``) when every tail rate is an integer, else in
    60-digit decimals; below both windows the tails are summed in closed
    form, sum over j < m of a p**(j r) |S_j| = a |S_0| p**(m s) / (p**s - 1)
    with s = r + n. f must have no outer tail."""
    with localcontext() as context:
        context.prec = 60
        return _bracket_sums(b, f, k)


def _bracket_sums(b, f, k):
    p, n = f.ctx.p, f.ctx.n
    exact = all(r.is_integer() for r in (b.inner_tail.rate, b.outer_tail.rate, f.inner_tail.rate))
    number = Fraction if exact else Decimal

    def power(e):
        return Fraction(p) ** int(e) if exact else Decimal(p) ** e

    def value(g, j):
        lo, hi = g.window
        if lo <= j <= hi:
            return number(g.coeffs[j - lo])
        a, r = g.inner_tail if j < lo else g.outer_tail
        return number(a) * power(j * number(r))

    unit = number(p**n - 1) / number(p**n)

    def below(r, m):
        return unit * power(m * (r + n)) / (power(r + n) - 1)

    (a_b, r_b), (a_f, r_f) = b.inner_tail, f.inner_tail
    m = min(b.window[0], f.window[0], k + 1)
    level = value(b, k)
    i = number(a_f) * below(number(r_f), m)
    j_bf = number(a_b) * number(a_f) * below(number(r_b) + number(r_f), m)
    i_abs, j_abs = abs(i), abs(j_bf)
    # B from the differences b(k) - b(j), so that no digit cancels
    bracket = level * i - j_bf
    for j in range(m, k + 1):
        mass = value(f, j) * unit * power(number(j * n))
        i += mass
        j_bf += value(b, j) * mass
        bracket += (level - value(b, j)) * mass
        i_abs += abs(mass)
        j_abs += abs(value(b, j) * mass)
    scale = min(abs(level) * i_abs + j_abs, number(sys.float_info.max))
    return bracket, i, j_bf, float(scale)


#: At rates that are not integers the image may differ from its exact
#: bracket by this many units of 2**-52 of the bracket's absolute terms:
#: the float tail integrals of f, the float powers p**(k*rate) on b's tail
#: shells and the bracket's tail amplitude each carry a rounding. 4000
#: examples of the property below reached 34.
_BRACKET_ULPS = 64


def _window(b, f):
    """The commutator image's window: b's window at a flat end, the union
    window widened by one shell at a decaying end."""
    lo = b.window[0] if b.inner_tail.rate == 0.0 else min(b.window[0], f.window[0]) - 1
    hi = b.window[1] if b.outer_tail.rate == 0.0 else max(b.window[1], f.window[1]) + 1
    return lo, hi


def _assert_the_bracket(image, b, f, alpha, brackets=None):
    """``image`` is commutator(b, f, alpha) read against ``_bracket`` on its
    window widened by two shells, as ``test_commutator_definition_and_constant_symbol``
    states."""
    p, e = f.ctx.p, alpha - f.ctx.n
    lo, hi = _window(b, f)
    flat_in, flat_out = b.inner_tail.rate == 0.0, b.outer_tail.rate == 0.0
    if brackets is None:
        brackets = {k: _bracket(b, f, k) for k in range(lo - 2, hi + 3)}
    assert image.window == (lo, hi)
    exact = isinstance(brackets[lo][0], Fraction)
    for k, (bracket, _, _, scale) in brackets.items():
        factor, got = ppow(p, k * e), image.evaluate(k)
        want = factor * float(bracket)
        rounded_once = lo <= k <= hi or (flat_in if k < lo else flat_out)
        if exact and rounded_once and (abs(float(bracket)) >= MIN_NORMAL or not bracket):
            assert got == want, k
        elif exact and rounded_once and lo <= k <= hi:
            assert abs(got - want) <= factor * 2.0**-1072 + 1e-15 * abs(got), k
        else:
            # a decaying tail's shells also carry the rounding of its float
            # rate and of its amplitude, in the subnormal range as well; each
            # float ball integral is off by up to half a subnormal ulp, which
            # every jump of b multiplies, and so is float(bracket) itself
            rate = 0.0 if lo <= k <= hi else image.outer_tail.rate
            if k < lo:  # the rate of an inner amplitude that may round to 0.0
                rate = b.inner_tail.rate + f.inner_tail.rate + alpha
            slack = (abs(k * rate) * math.log(p) + 2.0) * abs(want) * 2.0**-52
            slack += ppow(p, k * rate) * 2.0**-1074 + 2.0**-1060
            levels = b.evaluate_range(lo - 1, max(k, lo))
            variation = sum(abs(y - x) for x, y in zip(levels, levels[1:]))
            slack += factor * (1.0 + variation) * 2.0**-1074
            assert abs(got - want) <= _BRACKET_ULPS * 2.0**-52 * factor * scale + slack, k


@settings(max_examples=400)
@given(data=st.data())
def test_commutator_definition_and_constant_symbol(data):
    """On S_k the commutator is p**(k*(alpha - n)) times the exact bracket
    B(k) = sum over j <= k of (b(k) - b(j)) f(j) |S_j|, rounded once.

    With every tail rate an integer the image equals
    ``ppow(p, k*(alpha - n)) * float(B(k))`` bit for bit on its window and on
    the shells of a flat tail (a subnormal bracket is scaled exactly, as in
    ``hardy``); on the shells of a decaying tail, and at other rates, it lies
    within ``_BRACKET_ULPS`` ulps of the bracket's absolute terms. The window
    is the symbol's window at a flat end and the union window widened by
    one shell at a decaying end. An outer tail on f raises
    ClassClosureError, a decaying outer symbol tail with nonzero integrals
    of f and b f TailCombinationError, and a bracket past the float range
    NumericOverflowError (here only with a value of size 1e300 drawn). A
    constant symbol commutes with H exactly."""
    ctx = PadicContext(data.draw(st.sampled_from([2, 3, 7])), data.draw(st.integers(1, 2)))
    n = ctx.n
    # b: flat or decaying tails; f: integrable inner tails at integer and
    # non-integer rates, and sometimes an outer tail, which is refused
    b = data.draw(_windowed(
        ctx,
        st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.05, 3.0),
        st.sampled_from([0.0, -1.0, -2.0]) | st.floats(-3.0, -0.05),
    ))
    f = data.draw(_windowed(
        ctx,
        st.integers(1 - n, 3).map(float) | st.floats(0.05 - n, 3.0),
        st.floats(-n - 3.0, -n - 0.05),
    ))
    alpha = data.draw(st.floats(0.0, 0.9, exclude_max=True))
    try:
        image, error = commutator(b, f, alpha), None
    except UltraherzError as exc:
        image, error = None, type(exc)
    if f.outer_tail.amplitude != 0.0:
        assert error is ClassClosureError
        return
    lo, hi = _window(b, f)
    flat_out = b.outer_tail.rate == 0.0
    if error is NumericOverflowError:
        # the other factors are at most 7**28 in size
        wide = [*b.coeffs, *f.coeffs, b.inner_tail[0], b.outer_tail[0], f.inner_tail[0]]
        assert max(map(abs, wide)) >= 1e300
        return
    brackets = {k: _bracket(b, f, k) for k in range(lo - 2, hi + 3)}
    _, total_f, total_bf, _ = brackets[hi + 2]
    if not flat_out and total_f and total_bf:
        assert error is TailCombinationError
        return
    if error is NumericUnderflowError:
        tail = brackets[hi + 1][0]
        if not flat_out and total_f:
            tail = total_f * type(total_f)(b.outer_tail.amplitude)
        assert tail and float(tail) == 0.0
        return
    assert error is None
    _assert_the_bracket(image, b, f, alpha, brackets)
    # a constant symbol has no jump, so it commutes with H exactly, even
    # where H f itself is past the float range
    assert commutator(RadialStepFunction.constant(ctx, 7.0), f, alpha) == RadialStepFunction.zero(ctx)


#: Flat symbol tails: a zero tail or one at rate 0.
_FLAT = st.just(0.0)


@settings(max_examples=200)
@given(data=st.data())
def test_a_flat_tailed_symbol_fixes_the_image_window(data):
    """With flat symbol tails the image lives on the symbol's window: its
    inner tail is zero and its outer tail has rate alpha - n. f above the
    window is never read, so adding any compact function supported above it
    leaves the image unchanged bit for bit."""
    ctx = PadicContext(data.draw(st.sampled_from([2, 3, 7])), data.draw(st.integers(1, 2)))
    n = ctx.n
    b = data.draw(_windowed(ctx, _FLAT, _FLAT))
    f = data.draw(_windowed(ctx, st.integers(1 - n, 3).map(float) | st.floats(0.05 - n, 3.0), _FLAT))
    f = RadialStepFunction(ctx, f.window, f.coeffs, f.inner_tail)
    above = data.draw(st.integers(b.window[1] + 1, b.window[1] + 6))
    g = RadialStepFunction(
        ctx, (above, above + 2), data.draw(st.lists(_VALUES, min_size=3, max_size=3))
    )
    alpha = data.draw(st.floats(0.0, 0.9, exclude_max=True))
    try:
        image = commutator(b, f, alpha)
    except UltraherzError as exc:
        assert isinstance(exc, (NumericOverflowError, NumericUnderflowError))
        return
    assert image.window == b.window
    assert image.inner_tail == Tail(0.0, 0.0)
    assert image.outer_tail.amplitude == 0.0 or image.outer_tail.rate == alpha - n
    try:
        wider = combine(f, g, "add")
    except NumericOverflowError:
        return  # two coefficients whose sum leaves the float range
    assert repr(commutator(b, wider, alpha)) == repr(image)


def test_the_worked_commutator_example():
    """p = 3, b = (-1, 0, 1) on (-1, 1) with flat tails -1 and 1, alpha =
    0.25: the image lives on b's window, and above it the bracket is the
    constant 34/27 (the composition it replaces read 1.2592592592592666,
    on the window (-3, 5))."""
    ctx = PadicContext(3, 1)
    b = RadialStepFunction(ctx, (-1, 1), (-1.0, 0.0, 1.0), Tail(-1.0, 0.0), Tail(1.0, 0.0))
    f = RadialStepFunction(ctx, (-2, 4), (1.0, -0.5, 2.0, 0.3, -1.1, 0.7, 1.9))
    image = commutator(b, f, 0.25)
    assert image.window == (-1, 1)
    assert image.inner_tail == Tail(0.0, 0.0)
    assert image.outer_tail == Tail(1.2592592592592593, -0.75)
    assert image.outer_tail.amplitude == float(Fraction(34, 27))
    for k in (-1, 0, 1):
        assert image.evaluate(k) == ppow(3, k * -0.75) * float(_bracket(b, f, k)[0])


def test_each_end_of_the_commutator_kernel():
    """Each way the kernel ends a window or refuses an image, one case each,
    at p = 2, n = 1: a decaying inner symbol tail at integer and at other
    rates, a decaying outer one whose image tail keeps the rate of f's
    integral or of b's, a subnormal bracket scaled before it rounds, and the
    typed refusals."""
    f = RadialStepFunction(CTX, (0, 1), (1.0, 2.0), inner_tail=Tail(1.0, 0.0))
    for rate in (1.0, 0.5):
        b = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(3.0, rate))
        g = RadialStepFunction(CTX, (0, 1), (1.0, 2.0), inner_tail=Tail(1.0, rate))
        image = commutator(b, g, 0.25)
        assert image.window == (-1, 0) and image.inner_tail.rate == 2 * rate + 0.25
        _assert_the_bracket(image, b, g, 0.25)
    # the integral of f is 0: the image tail is minus that of b f, at rate -1
    b = RadialStepFunction(CTX, (0, 1), (1.0, 3.0), outer_tail=Tail(1.0, -1.0))
    image = commutator(b, RadialStepFunction(CTX, (0, 1), (2.0, -1.0)), 0.0)
    assert image.window == (0, 2) and image.outer_tail == Tail(2.0, -1.0)
    # b vanishes where f lives: b(k) times the integral of f, at rate -2
    b = RadialStepFunction(CTX, (0, 0), (0.0,), outer_tail=Tail(1.0, -1.0))
    image = commutator(b, RadialStepFunction.indicator_sphere(CTX, 0), 0.0)
    assert image.window == (0, 1) and image.outer_tail == Tail(0.5, -2.0)
    with pytest.raises(TailCombinationError, match="mix rates"):
        commutator(
            RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1.0, -1.0)),
            RadialStepFunction.indicator_sphere(CTX, 0),
            0.0,
        )
    # the bracket 2**-1061 on shell -1059 is subnormal; scaled by 2**1059 it is 0.25
    b = RadialStepFunction(CTX, (-1060, -1059), (0.0, 1.0))
    image = commutator(b, RadialStepFunction.indicator_sphere(CTX, -1060), 0.0)
    assert image.coeffs == (0.0, 0.25)
    with pytest.raises(NumericUnderflowError, match="outer tail amplitude"):
        commutator(
            RadialStepFunction.indicator_sphere(CTX, 0),
            RadialStepFunction(CTX, (0, 0), (5e-324,)),
            0.0,
        )
    refusals = {
        # b * f grows toward the origin: its inner tail is not integrable
        "not integrable": (RadialStepFunction(CTX, (0, 0), (1.0,), Tail(1.0, -1.5)), f),
        "different contexts": (RadialStepFunction.indicator_sphere(PadicContext(3, 1), 0), f),
    }
    for message, (b, g) in refusals.items():
        with pytest.raises(DomainError, match=message):
            commutator(b, g, 0.0)
    overflows = {
        # f's inner tail integral below shell 1999 is past the float range
        "ball integral": (
            RadialStepFunction(CTX, (1999, 2000), (0.0, 1.0)),
            RadialStepFunction(CTX, (2000, 2000), (1.0,), Tail(1.0, 0.5)),
        ),
        # b on shell 2101 is 2**1155.55
        "symbol on shell 2101": (
            RadialStepFunction(CTX, (2100, 2100), (1.0,), outer_tail=Tail(1.0, 0.55)),
            RadialStepFunction.indicator_sphere(CTX, 0),
        ),
        # the inner amplitudes multiply to about 1e600
        "bracket": (
            RadialStepFunction(CTX, (0, 0), (1.0,), Tail(1e300, 0.5)),
            RadialStepFunction(CTX, (0, 0), (1.0,), Tail(1e300, 0.5)),
        ),
    }
    for message, (b, g) in overflows.items():
        with pytest.raises(NumericOverflowError, match=message):
            commutator(b, g, 0.0)


def test_an_adjoint_term_past_a_saturated_power_keeps_its_value():
    """At p = 2 the adjoint of 1e-300 chi(S_550) at order 2 weighs the shell
    by 2**1100, which saturates to inf, though the term, 1e-300 * |S_0| *
    2**1100 = 1e-300 * 2**1099, is about 6.79e30. The term is formed in two
    half powers, and here it is exact."""
    f = RadialStepFunction.indicator_sphere(CTX, 550).scale(1e-300)
    image = hardy_adjoint(f, 2.0)
    assert image.coeffs[0] == float(Fraction(1e-300) * 2**1099) == pytest.approx(6.79e30, rel=1e-3)
    assert image.inner_tail == Tail(image.coeffs[0], 0.0)


def test_commutator_spec_requires_symbol():
    with pytest.raises(DomainError):
        apply_operator(OperatorSpec("commutator", 0.2), RadialStepFunction.indicator_ball(CTX, 0))


def test_shell_diagonal_single_sphere():
    f = RadialStepFunction.indicator_sphere(CTX, 0)
    assert diagonal(f, f, 0.25) == 0.25


def test_duality_pairing_with_diagonal_correction():
    """The pairing of g with the average equals the adjoint pairing plus
    the diagonal term; dropping the term leaves a visible gap."""
    rng = random.Random(777)
    for _ in range(40):
        f = _random_compact(rng)
        g = _random_compact(rng)
        alpha = rng.uniform(0.0, 0.9)
        lhs = total_integral(combine(g, hardy(f, alpha), "multiply"))
        rhs = total_integral(combine(f, hardy_adjoint(g, alpha), "multiply"))
        rhs += diagonal(f, g, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
    # the regression pair: both sides of the naive identity are off by 1/4
    s = RadialStepFunction.indicator_sphere(CTX, 0)
    lhs = total_integral(combine(s, hardy(s, 0.0), "multiply"))
    naive = total_integral(combine(s, hardy_adjoint(s, 0.0), "multiply"))
    assert lhs == 0.25
    assert naive == 0.0
    assert diagonal(s, s, 0.0) == 0.25


def test_duality_pairing_with_tails_on_the_same_side():
    """Both functions carry an inner tail, so the diagonal correction sums
    the product of the two tails in closed form. The adjoint needs a vanishing
    inner tail, so it acts on g written out shell by shell down to -60, which
    changes the pairing by about 2**-90."""
    rng = random.Random(4242)
    for _ in range(20):
        f = RadialStepFunction(
            CTX, (-1, 1), tuple(rng.uniform(-3.0, 3.0) for _ in range(3)),
            inner_tail=Tail(rng.uniform(0.5, 2.0), rng.choice((0.0, 0.5, 1.0))),
        )
        g = RadialStepFunction(
            CTX, (-2, 0), tuple(rng.uniform(-3.0, 3.0) for _ in range(3)),
            inner_tail=Tail(rng.uniform(-2.0, 2.0), rng.choice((0.0, 0.5))),
        )
        g_written_out = RadialStepFunction(
            CTX, (-60, 0), tuple(g.evaluate(k) for k in range(-60, 1))
        )
        alpha = rng.uniform(0.0, 0.9)
        lhs = total_integral(combine(g, hardy(f, alpha), "multiply"))
        rhs = total_integral(combine(f, hardy_adjoint(g_written_out, alpha), "multiply"))
        correction = diagonal(f, g, alpha)
        assert lhs == pytest.approx(rhs + correction, rel=1e-9, abs=1e-12)
        # the tail-by-tail term is part of the correction
        window_only = diagonal(f, RadialStepFunction(CTX, g.window, g.coeffs), alpha)
        assert abs(correction - window_only) > 1e-6


def test_apply_operator_dispatch():
    f = RadialStepFunction.indicator_ball(CTX, 0)
    assert apply_operator(OperatorSpec("hardy", 0.25), f).evaluate(0) == hardy(f, 0.25).evaluate(0)
    for retired in ("mystery", "maximal"):
        with pytest.raises(DomainError):
            OperatorSpec(retired)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: hardy(f, 0.0),
        lambda f: ball_integral(f, 1100),
        total_integral,
    ],
    ids=["hardy", "ball_integral", "total_integral"],
)
def test_ball_integrals_beyond_the_float_range_raise_a_typed_error(call):
    """At p = 2 the integral of chi(S_1100) is 2**1099, larger than any float."""
    with pytest.raises(NumericOverflowError, match="overflow"):
        call(RadialStepFunction(CTX, (1100, 1100), (1.0,)))


def _exact_hardy(coeffs: dict[int, Fraction], k: int, alpha: int) -> Fraction:
    """(H_alpha f) on S_k at p = 2, n = 1 for f = sum c_j chi(S_j), in exact
    rationals: 2**(k*(alpha - 1)) times the sum of c_j |S_j| over j <= k."""
    integral = sum(c * Fraction(2) ** (j - 1) for j, c in coeffs.items() if j <= k)
    return Fraction(2) ** (k * (alpha - 1)) * integral


def test_a_hardy_image_factor_past_the_float_range_scales_the_exact_integral():
    """Below shell -1022 at p = 2 the image factor p**(k*(alpha - n)) on the
    shell under the window is 2**1024 or more, and saturates to inf. An
    exactly zero integral there gives 0.0, and a nonzero one is scaled
    exactly before it rounds, so the image equals the rational values. A
    coefficient past the float range, or a total integral (the outer tail's
    amplitude) that rounds to 0.0, raises a typed error."""
    # the last shell whose factor fits keeps its bits
    assert hardy(RadialStepFunction(CTX, (-1022, -1022), (1.0,)), 0.0).coeffs == (0.0, 0.5, 0.25)
    cases = {
        -1023: {-1023: Fraction(1)},
        # the total integral is exactly 0, so no outer tail is needed
        -1100: {-1101: Fraction(-2), -1100: Fraction(1)},
    }
    for k, coeffs in cases.items():
        lo = min(coeffs)
        window = tuple(float(coeffs.get(j, 0)) for j in range(lo, k + 1))
        f = RadialStepFunction(CTX, (lo, k), window)
        image = hardy(f, 0.0)
        assert image.window == (lo - 1, k + 1)
        for j in range(lo - 3, k + 6):
            assert image.evaluate(j) == float(_exact_hardy(coeffs, j, 0)), (k, j)
    assert image.coeffs == (0.0, -1.0, 0.0, 0.0)
    # 2**-1101 lies below the smallest subnormal, so the outer tail is lost
    with pytest.raises(NumericUnderflowError, match="outer tail amplitude"):
        hardy(RadialStepFunction.indicator_sphere(CTX, -1100), 0.0)
    # 2**2200 times the integral 2**-1101 over B_-1100 overflows
    with pytest.raises(NumericOverflowError, match="shell -1100 overflows"):
        hardy(RadialStepFunction(CTX, (-1100, -1100), (1.0,)), -1.0)


def test_a_ball_mean_over_an_overflowing_integral_raises_a_typed_error():
    """The float part of the integral over B_64 sums past the float range, so
    the mean must not come back as inf."""
    f = RadialStepFunction(CTX, (0, 0), (1.0,), outer_tail=Tail(1e307, -0.5))
    with pytest.raises(NumericOverflowError, match="overflow"):
        ball_mean(f, 64)
    with pytest.raises(NumericOverflowError, match="overflow"):
        ball_integral(f, 64)
    # a finite float part whose division by |B_-64| = 2**-64 leaves the range
    g = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(1e300, -0.5))
    with pytest.raises(NumericOverflowError, match="overflow"):
        ball_mean(g, -64)


def test_a_hardy_coefficient_whose_ball_integral_underflows_keeps_its_value():
    """At p = 2, n = 1 the integral of f = chi(S_-1100) + chi(S_0) over
    B_-1100 and B_-1099 is 2**-1101, below the smallest subnormal, but the
    image coefficient 2**(0.1 * 1100) * 2**-1101 is a normal float: the
    exact integral is scaled by a power of two before it rounds."""
    f = RadialStepFunction(CTX, (-1100, 0), (1.0,) + (0.0,) * 1099 + (1.0,))
    image = hardy(f, 0.9)
    for k in (-1100, -1099):
        exact = Fraction(ppow(2, k * (0.9 - 1))) * Fraction(1, 2**1101)
        assert image.evaluate(k) == float(exact) > sys.float_info.min, k
    assert image.evaluate(-1101) == 0.0
    assert image.evaluate(0) == 0.5


def test_a_hardy_factor_past_the_float_range_at_a_non_integer_order():
    """At p = 2, n = 1 and alpha = 0.3 the image factor on shell -1601 is
    2**1120.7, past the float range, and the integral of chi(S_-1601) +
    chi(S_0) over B_-1601 is 2**-1602, below it. The exact integral is
    scaled by 2**1120 before it rounds and then by 2**0.7, so the normal
    coefficient, about 1.3e-145, comes back. chi(S_-1601) alone has a total
    integral that rounds to 0.0 and raises as it does at alpha = 0."""
    f = RadialStepFunction(CTX, (-1601, 0), (1.0,) + (0.0,) * 1600 + (1.0,))
    e = -1601 * (0.3 - 1)
    expected = math.ldexp(math.pow(2.0, e - 1120), 1120 - 1602)
    assert hardy(f, 0.3).evaluate(-1601) == pytest.approx(expected, rel=1e-15)
    for alpha in (0.0, 0.3):
        with pytest.raises(NumericUnderflowError, match="outer tail amplitude"):
            hardy(RadialStepFunction.indicator_sphere(CTX, -1601), alpha)


def test_no_hardy_error_names_a_nan():
    """Far from the origin, at integer and non-integer image factors alike,
    a refused hardy image names a value or an inf, never a nan."""
    for shell in (-1601, -1100, -1023, 1100):
        lo, hi = min(shell, 0), max(shell, 0)
        pair = tuple(1.0 if j in (shell, 0) else 0.0 for j in range(lo, hi + 1))
        for f in (
            RadialStepFunction.indicator_sphere(CTX, shell),
            RadialStepFunction(CTX, (lo, hi), pair),
        ):
            for alpha in (-1.5, -0.25, 0.0, 0.3, 0.9, 1.7):
                try:
                    hardy(f, alpha)
                except UltraherzError as exc:
                    assert "nan" not in str(exc), (shell, f.window, alpha)
    # at alpha = -1.5 the factor on shell -1601 is 2**4002.5: the
    # coefficient leaves the float range and reads inf
    with pytest.raises(NumericOverflowError, match="is inf"):
        hardy(RadialStepFunction.indicator_sphere(CTX, -1601), -1.5)


def test_a_commutator_reads_f_only_where_its_symbol_jumps():
    """H f of f on shells -10000..0 needs shell -10001, past the shell
    limit, so hardy raises. The commutator with a flat-tailed symbol on
    shell 0 never forms H f: its image lives on shell 0, where the bracket
    (1 - 1e300) * 1e300 * |S_-10000|, about -1e-2411, lies below the float
    range and reads -0.0, and its outer tail is minus the integral of b f
    over B_0, -0.5 to the nearest float."""
    f = RadialStepFunction(CTX, (-10000, 0), (1e300,) + (0.0,) * 9999 + (1.0,))
    b = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(1e300, 0.0))
    with pytest.raises(DomainError, match="window\\[0\\] -10001 lies beyond the shell limit"):
        hardy(f, 0.0)
    image = commutator(b, f, 0.0)
    assert repr(image) == repr(RadialStepFunction(CTX, (0, 0), (-0.0,), outer_tail=Tail(-0.5, -1.0)))
