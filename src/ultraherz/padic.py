"""Exact geometry of the ultrametric vector space Q_p^n.

Conventions used throughout the package:

* For a nonzero rational x = p^gamma * s / t with p dividing neither s nor t,
  the valuation is gamma and the norm is ``|x|_p = p**(-gamma)``; ``|0|_p = 0``.
* On Q_p^n the norm of a vector is the max of the coordinate norms, so the
  strong triangle inequality ``|x + y|_p <= max(|x|_p, |y|_p)`` holds exactly.
* Shell index k labels the sphere S_k = {x : |x|_p = p^k}; the ball
  B_k = {x : |x|_p <= p^k} is the disjoint union of S_j over j <= k.
* Haar measure is normalized so the unit ball B_0 has measure 1. Then
  ``|B_k| = p^(n k)`` and ``|S_k| = p^(n k) (1 - p^(-n))``, returned as exact
  ``fractions.Fraction`` values.

The sampler draws Haar-uniform points of a ball or sphere as integer digit
vectors truncated to a digit resolution and returns only their shells, which
it reads off the vectors exactly in integer arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

#: Largest |k| of a shell index accepted at the public API boundary.
SHELL_LIMIT = 64


def ppow(p: int, exponent: float) -> float:
    """p**exponent as a float, exact for integer exponents.

    Integer exponents are evaluated in integer arithmetic with one correctly
    rounded conversion (int to float, or int / int), so powers of p round-trip
    bit-exactly against the Haar measure fractions. Overflow saturates to
    ``math.inf`` and extreme negative exponents underflow to 0.0.
    """
    if float(exponent).is_integer():
        e = int(exponent)
        if e >= 1100:
            return math.inf
        if e <= -1100:
            return 0.0
        try:
            return float(p**e) if e >= 0 else 1 / p**-e
        except OverflowError:
            return math.inf
    try:
        return math.pow(p, exponent)
    except OverflowError:
        return math.inf


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PadicContext:
    """The ambient space: prime p and dimension n.

    Args:
        p: prime defining the base field Q_p.
        n: dimension of the vector space, at least 1.

    :meth:`check_shell` rejects shell indices beyond ``[-SHELL_LIMIT,
    SHELL_LIMIT]`` at public entry points to prevent silent magnitude
    blowups. Internal scans may exceed it because all heavy arithmetic is
    exact.
    """

    p: int
    n: int = 1

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise DomainError(f"p must be prime, got {self.p}")
        if self.n < 1:
            raise DomainError(f"dimension n must be >= 1, got {self.n}")

    def check_shell(self, k: int, what: str = "shell index") -> int:
        if not isinstance(k, int):
            raise DomainError(f"{what} must be an integer, got {k!r}")
        if abs(k) > SHELL_LIMIT:
            raise DomainError(
                f"{what} {k} outside the allowed window [-{SHELL_LIMIT}, {SHELL_LIMIT}]"
            )
        return k


def _int_valuation(m: int, p: int) -> int:
    """Exponent of p in a nonzero integer |m|."""
    m = abs(m)
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def padic_valuation(numerator: int, denominator: int, ctx: PadicContext) -> int | float:
    """Valuation v_p(numerator / denominator); ``math.inf`` for zero.

    Examples:
        >>> ctx = PadicContext(2, 1)
        >>> padic_valuation(24, 1, ctx)
        3
        >>> padic_valuation(5, 6, PadicContext(3, 1))
        -1
    """
    if denominator == 0:
        raise DomainError("denominator must be nonzero")
    if numerator == 0:
        return math.inf
    return _int_valuation(numerator, ctx.p) - _int_valuation(denominator, ctx.p)


def ball_measure(gamma: int, ctx: PadicContext) -> Fraction:
    """Haar measure of the ball B_gamma, exactly p^(n gamma).

    Example:
        >>> ball_measure(1, PadicContext(3, 2))
        Fraction(9, 1)
    """
    ctx.check_shell(gamma, "ball index")
    return Fraction(ctx.p) ** (ctx.n * gamma)


def sphere_measure(gamma: int, ctx: PadicContext) -> Fraction:
    """Haar measure of the sphere S_gamma, exactly p^(n gamma) (1 - p^(-n)).

    Example:
        >>> sphere_measure(0, PadicContext(2, 1))
        Fraction(1, 2)
    """
    ctx.check_shell(gamma, "sphere index")
    return Fraction(ctx.p) ** (ctx.n * gamma) * (1 - Fraction(ctx.p) ** -ctx.n)


def sample_shells(
    region: str,
    gamma: int,
    count: int,
    ctx: PadicContext,
    resolution: int,
    rng: random.Random,
) -> list[int | None]:
    """Shell indices of ``count`` Haar-uniform points of a ball or sphere.

    Args:
        region: ``"ball"`` for B_gamma or ``"sphere"`` for S_gamma.
        gamma: shell index of the region.
        count: number of points to draw.
        ctx: ambient space.
        resolution: each coordinate is p^(-gamma) times a uniform draw from
            Z_p truncated after resolution+1 base-p digits, so mass below the
            resolution (probability p^(-(resolution+1)) per coordinate)
            collapses to exact zero.
        rng: generator state; advancing it across calls gives an i.i.d.
            stream.

    A point is p^(-gamma) * z for a digit vector z in [0, p^(resolution+1))^n.
    Each coordinate is drawn as ``rng.randrange(limit)`` draws it
    (``getrandbits`` of the limit's bit length, redrawn while out of range),
    so the stream and the generator's final state are those of n
    ``randrange`` calls per point. The sphere law is the ball law conditioned
    on the norm being exactly p^gamma, realized by rejecting vectors whose
    every coordinate is divisible by p (acceptance probability 1 - p^(-n)).
    Each point is classified on integers: it lies on shell
    gamma - min_i v_p(z_i) = gamma - v_p(gcd(z)), and None marks the origin
    (every z_i = 0).

    Example:
        >>> ctx = PadicContext(2, 1)
        >>> sample_shells("ball", 0, 6, ctx, 24, random.Random(1))
        [0, 0, -4, -1, 0, -1]
    """
    if region not in ("ball", "sphere"):
        raise DomainError(f"region must be 'ball' or 'sphere', got {region!r}")
    ctx.check_shell(gamma, "region index")
    p, n = ctx.p, ctx.n
    limit = p ** (resolution + 1)  # size of the truncated digit space of Z_p
    bits = limit.bit_length()
    getrandbits = rng.getrandbits
    gcd = math.gcd
    sphere = region == "sphere"
    coords = range(n)
    shells: list[int | None] = []
    append = shells.append
    drawn = 0
    while drawn < count:
        g = 0
        for _ in coords:
            z = getrandbits(bits)
            while z >= limit:
                z = getrandbits(bits)
            g = gcd(g, z)
        if g % p:
            append(gamma)
        elif sphere:
            continue
        elif g:
            append(gamma - _int_valuation(g, p))
        else:
            append(None)
        drawn += 1
    return shells
