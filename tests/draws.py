"""Seeded random radial functions and exponents shared by the norm and
acceptance tests: each call draws from the given ``random.Random`` in a
fixed order, so a test's seed fixes its inputs."""

from __future__ import annotations

import random

from ultraherz import ExponentFunction, PadicContext, RadialStepFunction, ppow


def random_function(rng: random.Random, ctx: PadicContext, reach: int = 5) -> RadialStepFunction:
    """Coefficients of either sign and size p**U(-3, 3) on a window within
    ``reach`` of the origin, with no tails."""
    lo = rng.randint(-reach, reach)
    hi = rng.randint(lo, reach)
    coeffs = tuple(
        (1.0 if rng.random() < 0.5 else -1.0) * ppow(ctx.p, rng.uniform(-3.0, 3.0))
        for _ in range(hi - lo + 1)
    )
    return RadialStepFunction(ctx, (lo, hi), coeffs)


def random_exponent(rng: random.Random, ctx: PadicContext) -> ExponentFunction:
    """One to four window values and both limits drawn from U(1.2, 4)."""
    pieces = rng.randint(1, 4)
    lo = rng.randint(-3, 1)
    values = tuple(rng.uniform(1.2, 4.0) for _ in range(pieces))
    return ExponentFunction(
        ctx, (lo, lo + pieces - 1), values, rng.uniform(1.2, 4.0), rng.uniform(1.2, 4.0)
    )
