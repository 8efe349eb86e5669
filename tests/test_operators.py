"""Averaging operators: exact images, class guards, and the duality pairing."""

from __future__ import annotations

import random

import pytest

from ultraherz import (
    ClassClosureError,
    DomainError,
    NumericOverflowError,
    OperatorSpec,
    PadicContext,
    RadialStepFunction,
    Tail,
    apply_operator,
    ball_integral,
    ball_mean,
    combine,
    commutator,
    hardy,
    hardy_adjoint,
    maximal,
    ppow,
    shell_diagonal,
    total_integral,
)

CTX = PadicContext(2, 1)


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
    origin; hardy and maximal raise before computing anything."""
    f = RadialStepFunction(
        PadicContext(2, n), (0, 0), (1.0,), inner_tail=Tail(1.0, -n - excess)
    )
    for operator in (lambda g: hardy(g, 0.0), maximal):
        with pytest.raises(DomainError, match="not integrable"):
            operator(f)


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


def test_commutator_definition_and_constant_symbol():
    rng = random.Random(55)
    b = RadialStepFunction(CTX, (-1, 1), (0.5, -1.0, 2.0))
    for _ in range(10):
        f = _random_compact(rng, reach=3)
        image = commutator(b, f, 0.25)
        direct = combine(
            combine(b, hardy(f, 0.25), "multiply"),
            hardy(combine(b, f, "multiply"), 0.25).scale(-1.0),
            "add",
        )
        for k in range(-5, 6):
            assert image.evaluate(k) == pytest.approx(direct.evaluate(k), rel=1e-12, abs=1e-12)
    flat = RadialStepFunction.constant(CTX, 7.0)
    f = _random_compact(rng, reach=3)
    image = commutator(flat, f, 0.25)
    for k in range(-5, 6):
        assert image.evaluate(k) == pytest.approx(0.0, abs=1e-12)


def test_commutator_spec_requires_symbol():
    with pytest.raises(DomainError):
        apply_operator(OperatorSpec("commutator", 0.2), RadialStepFunction.indicator_ball(CTX, 0))


def test_maximal_ball_indicator_profile():
    image = maximal(RadialStepFunction.indicator_ball(CTX, 0))
    assert image.evaluate(0) == 1.0
    assert image.evaluate(-4) == 1.0
    assert image.evaluate(3) == 0.125


def test_maximal_is_the_suffix_supremum_of_means():
    """M f at shell k maximizes over the balls a point there can see.

    Centered balls of radius p**gamma >= p**k coincide with the central
    balls by the ultrametric inequality; smaller balls around the point
    stay inside its own sphere, where a radial function is the constant
    |f(k)|.
    """
    rng = random.Random(424242)
    for _ in range(20):
        f = _random_compact(rng)
        image = maximal(f)
        top = f.window[1] + 6
        for k in range(f.window[0] - 4, f.window[1] + 4):
            central = max(
                ball_mean(f.absolute(), gamma) for gamma in range(k, top + 1)
            )
            expected = max(abs(f.evaluate(k)), central)
            assert image.evaluate(k) == pytest.approx(expected, rel=1e-12)


def test_maximal_crossover_is_solved_not_walked():
    """An integrable inner tail at a rate next to 0 crosses the window's mean
    level about log_2(3) / |rate| shells below it."""
    f = RadialStepFunction(CTX, (0, 0), (5.0,), inner_tail=Tail(1.0, -1e-300))
    with pytest.raises(DomainError, match="400000 shells below"):
        maximal(f)
    near = RadialStepFunction(CTX, (0, 0), (5.0,), inner_tail=Tail(1.0, -1e-5))
    image = maximal(near)
    # from the crossover down the means mu * 2**(k*rate) reach the mean on B_0
    level = ball_mean(near, 0)
    assert image.window == (-158495, 0)
    assert image.inner_tail.amplitude * ppow(2, -158496 * -1e-5) >= level
    assert image.inner_tail.amplitude * ppow(2, -158495 * -1e-5) < level


def test_maximal_dominates_the_averaging_operator():
    rng = random.Random(313)
    for _ in range(20):
        f = _random_compact(rng)
        m_image = maximal(f)
        h_image = hardy(f, 0.0)
        for k in range(f.window[0] - 3, f.window[1] + 4):
            assert abs(h_image.evaluate(k)) <= m_image.evaluate(k) * (1 + 1e-12)


def test_shell_diagonal_single_sphere():
    f = RadialStepFunction.indicator_sphere(CTX, 0)
    assert shell_diagonal(f, f, 0.25) == 0.25


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
        rhs += shell_diagonal(f, g, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
    # the regression pair: both sides of the naive identity are off by 1/4
    s = RadialStepFunction.indicator_sphere(CTX, 0)
    lhs = total_integral(combine(s, hardy(s, 0.0), "multiply"))
    naive = total_integral(combine(s, hardy_adjoint(s, 0.0), "multiply"))
    assert lhs == 0.25
    assert naive == 0.0
    assert shell_diagonal(s, s, 0.0) == 0.25


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
        diagonal = shell_diagonal(f, g, alpha)
        assert lhs == pytest.approx(rhs + diagonal, rel=1e-9, abs=1e-12)
        # the tail-by-tail term is part of the correction
        window_only = shell_diagonal(f, RadialStepFunction(CTX, g.window, g.coeffs), alpha)
        assert abs(diagonal - window_only) > 1e-6


def test_apply_operator_dispatch():
    f = RadialStepFunction.indicator_ball(CTX, 0)
    assert apply_operator(OperatorSpec("hardy", 0.25), f).evaluate(0) == hardy(f, 0.25).evaluate(0)
    assert apply_operator(OperatorSpec("maximal"), f).evaluate(2) == maximal(f).evaluate(2)
    with pytest.raises(DomainError):
        OperatorSpec("mystery")


@pytest.mark.parametrize(
    "call",
    [
        lambda f: hardy(f, 0.0),
        maximal,
        lambda f: ball_integral(f, 1100),
        total_integral,
    ],
    ids=["hardy", "maximal", "ball_integral", "total_integral"],
)
def test_ball_integrals_beyond_the_float_range_raise_a_typed_error(call):
    """At p = 2 the integral of chi(S_1100) is 2**1099, larger than any float."""
    with pytest.raises(NumericOverflowError, match="overflow"):
        call(RadialStepFunction(CTX, (1100, 1100), (1.0,)))


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
