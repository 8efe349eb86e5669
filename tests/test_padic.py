"""Valuations, measures, and Haar shell sampling on the p-adic coordinate space."""

import math
import random
from fractions import Fraction

import pytest

from ultraherz import (
    DomainError,
    ExponentFunction,
    NumericOverflowError,
    NumericUnderflowError,
    OperatorSpec,
    OracleConfig,
    PadicContext,
    RadialStepFunction,
    ball_integral,
    ball_mean,
    ball_measure,
    mc_integrate,
    mc_operator_probe,
    ppow,
    random_family,
    sphere_measure,
)
from ultraherz.padic import SHELL_LIMIT, check_shell, sample_shells


def test_ppow_integer_exponents_are_exact():
    assert ppow(2, 10) == 1024.0
    assert ppow(3, 0) == 1.0
    assert ppow(5, -2) == 1.0 / 25.0
    assert ppow(2, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_ppow_saturates_instead_of_overflowing():
    assert ppow(2, 5000) == math.inf
    assert ppow(2, -5000) == 0.0


def test_measures_are_exact_fractions():
    ctx = PadicContext(2, 1)
    assert ball_measure(0, ctx) == Fraction(1)
    assert ball_measure(-3, ctx) == Fraction(1, 8)
    assert sphere_measure(0, ctx) == Fraction(1, 2)
    ctx2 = PadicContext(3, 2)
    assert ball_measure(2, ctx2) == Fraction(3) ** 4
    assert sphere_measure(2, ctx2) == Fraction(3) ** 4 * (1 - Fraction(1, 9))


def test_ball_is_disjoint_union_of_spheres_small_range():
    for p in (2, 5):
        for n in (1, 2):
            ctx = PadicContext(p, n)
            for gamma in range(-6, 7):
                total = sum(sphere_measure(j, ctx) for j in range(-40, gamma + 1))
                # the tail below -40 is the ball B_-41
                assert ball_measure(gamma, ctx) == total + ball_measure(-41, ctx)


def test_context_rejects_bad_parameters():
    with pytest.raises(DomainError):
        PadicContext(4, 1)
    with pytest.raises(DomainError):
        PadicContext(2, 0)


def test_sample_shells_respects_the_region():
    ctx = PadicContext(3, 2)
    rng = random.Random(101)
    for _ in range(200):
        gamma = rng.randint(-5, 5)
        shells = sample_shells(gamma, 1, ctx, 24, rng)
        assert sum(shells.values()) == 1
        (in_ball,) = shells
        assert in_ball is None or in_ball <= gamma


def test_sample_shells_seed_reproducibility():
    ctx = PadicContext(2, 1)
    a = sample_shells(0, 50, ctx, 24, random.Random(42))
    b = sample_shells(0, 50, ctx, 24, random.Random(42))
    assert list(a.items()) == list(b.items())
    assert sum(a.values()) == 50
    assert len(a) > 1


def test_sphere_mass_split_between_shells_inside_ball():
    """Ball draws land on shell j with probability |S_j| / |B_gamma|."""
    ctx = PadicContext(2, 1)
    draws = 4000
    gamma = 0
    shells = sample_shells(gamma, draws, ctx, 24, random.Random(7))
    assert sum(shells.values()) == draws
    hits = shells.get(gamma, 0)
    expect = float(sphere_measure(gamma, ctx) / ball_measure(gamma, ctx))
    observed = hits / draws
    sigma = math.sqrt(expect * (1 - expect) / draws)
    assert abs(observed - expect) < 4 * sigma


_CTX = PadicContext(2, 1)
_BALL = RadialStepFunction.indicator_ball(_CTX, 0)
_CONFIG = OracleConfig(samples=1000)
_HARDY = OperatorSpec("hardy")
#: The oracle's measure or scale at shell +-SHELL_LIMIT leaves the float
#: range, so there it raises a float-range error, and never a DomainError.
_FLOAT_RANGE = (NumericOverflowError, NumericUnderflowError)


@pytest.mark.parametrize(
    ("call", "at_limit"),
    [
        (lambda k: check_shell(k, "shell"), None),
        (lambda k: RadialStepFunction(_CTX, (k, k), (1.0,)), None),
        (lambda k: ExponentFunction(_CTX, (k, k), (2.0,), 2.0, 2.0), None),
        (lambda k: RadialStepFunction.indicator_ball(_CTX, k), None),
        (lambda k: RadialStepFunction.indicator_sphere(_CTX, k), None),
        (lambda k: ball_integral(_BALL, k), None),
        (lambda k: ball_mean(_BALL, k), None),
        (lambda k: ball_measure(k, _CTX), None),
        (lambda k: sphere_measure(k, _CTX), None),
        (lambda k: sample_shells(k, 3, _CTX, 24, random.Random(1)), None),
        (lambda k: OracleConfig(truncation_window=(-abs(k), abs(k))), None),
        (lambda k: random_family(_CTX, abs(k), 1, random.Random(1)), None),
        (lambda k: mc_integrate(_BALL, k, _CONFIG), _FLOAT_RANGE),
        (lambda k: mc_operator_probe(_HARDY, _BALL, k, _CONFIG), _FLOAT_RANGE),
    ],
    ids=[
        "check_shell", "function", "exponent", "indicator_ball",
        "indicator_sphere", "ball_integral", "ball_mean", "ball_measure",
        "sphere_measure", "sample_shells", "truncation_window", "random_family",
        "mc_integrate", "mc_operator_probe",
    ],
)
def test_check_shell_guards_the_truncation_limit(call, at_limit):
    """Every shell index the package takes in, as a window end or as a
    radius whose cost grows with its distance from the origin, is accepted
    at +-SHELL_LIMIT and refused one shell further out, naming the limit."""
    for k in (SHELL_LIMIT, -SHELL_LIMIT):
        if at_limit is None:
            call(k)
        else:
            with pytest.raises(at_limit):
                call(k)
    for k in (SHELL_LIMIT + 1, -SHELL_LIMIT - 1):
        with pytest.raises(DomainError, match=str(SHELL_LIMIT)):
            call(k)
