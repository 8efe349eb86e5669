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

The sampler draws Haar-uniform points of a ball as integer digit vectors
truncated to a digit resolution and returns only how many points lie on each
shell, which it reads off the vectors exactly in integer arithmetic. It draws
a later coordinate of a point only while that coordinate can still move the
point's shell.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .errors import DomainError

#: Largest |k| of a shell index anywhere in the package: of a window end of
#: a function or an exponent (checked by their constructors), and of a radius
#: whose cost grows with its distance from the origin (:func:`check_shell`).
SHELL_LIMIT = 10_000


def check_shell(k: int, what: str) -> None:
    """Raise DomainError, calling k ``what``, unless k is an integer within
    ``SHELL_LIMIT`` of 0."""
    if not isinstance(k, int):
        raise DomainError(f"{what} must be an integer, got {k!r}")
    if abs(k) > SHELL_LIMIT:
        raise DomainError(f"{what} {k} lies beyond the shell limit {SHELL_LIMIT}")


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
    """

    p: int
    n: int = 1

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise DomainError(f"p must be prime, got {self.p}")
        if self.n < 1:
            raise DomainError(f"dimension n must be >= 1, got {self.n}")


def ball_measure(gamma: int, ctx: PadicContext) -> Fraction:
    """Haar measure of the ball B_gamma, exactly p^(n gamma).

    Example:
        >>> ball_measure(1, PadicContext(3, 2))
        Fraction(9, 1)
    """
    check_shell(gamma, "ball index")
    return Fraction(ctx.p) ** (ctx.n * gamma)


def sphere_measure(gamma: int, ctx: PadicContext) -> Fraction:
    """Haar measure of the sphere S_gamma, exactly p^(n gamma) (1 - p^(-n)).

    Example:
        >>> sphere_measure(0, PadicContext(2, 1))
        Fraction(1, 2)
    """
    check_shell(gamma, "sphere index")
    return Fraction(ctx.p) ** (ctx.n * gamma) * (1 - Fraction(ctx.p) ** -ctx.n)


def sample_shells(
    gamma: int,
    count: int,
    ctx: PadicContext,
    resolution: int,
    rng: random.Random,
) -> dict[int | None, int]:
    """How many of ``count`` Haar-uniform points of the ball B_gamma lie on
    each shell, as a mapping from shell index to count.

    Args:
        gamma: shell index of the ball.
        count: number of points to draw.
        ctx: ambient space.
        resolution: each coordinate is p^(-gamma) times a uniform draw from
            Z_p truncated after resolution+1 base-p digits, so mass below the
            resolution (probability p^(-(resolution+1)) per coordinate)
            collapses to exact zero.
        rng: generator state; advancing it across calls gives an i.i.d.
            stream.

    A point is p^(-gamma) * z for a digit vector z in [0, p^(resolution+1))^n
    and lies on shell gamma - min_i v_p(z_i) = gamma - v_p(gcd(z)); None
    marks the origin (every z_i = 0). A coordinate is drawn as
    ``rng.randrange(limit)`` draws it: ``getrandbits`` of the limit's bit
    length, redrawn while out of range. The points are drawn in rounds.
    Round 1 draws the first coordinate of every point; round i draws
    coordinate i, in point order, only for the points whose first i - 1
    coordinates are all divisible by p. A unit coordinate already puts its
    point on shell gamma, so its later coordinates are never drawn. At n = 1
    the stream and the generator's final state are those of ``count``
    ``randrange`` calls. The few points left after round n, whose gcd g is
    divisible by p, are peeled by valuation: those with p^(v+1) not dividing
    g lie on shell gamma - v, and g = 0 (divisible by the limit) marks the
    origin. The mapping lists gamma first, then the lower shells downwards,
    and the origin last; only drawn shells appear.
    A sphere needs no sampler: every point of S_gamma lies on shell gamma.

    Example:
        >>> ctx = PadicContext(2, 1)
        >>> sample_shells(0, 6, ctx, 24, random.Random(1))
        {0: 3, -1: 2, -4: 1}
    """
    check_shell(gamma, "ball index")
    p, n = ctx.p, ctx.n
    limit = p ** (resolution + 1)  # size of the truncated digit space of Z_p
    bits = limit.bit_length()
    getrandbits = rng.getrandbits

    def draw(k: int) -> list[int]:
        """k coordinates below limit, in the order k randrange calls give them."""
        out: list[int] = []
        while len(out) < k:
            out += [z for z in map(getrandbits, repeat(bits, k - len(out))) if z < limit]
        return out

    # gcd of each undecided point's coordinates so far, all divisible by p
    rest = [g for g in draw(count) if not g % p]
    for _ in range(n - 1):
        if not rest:
            break
        rest = [g for g in map(math.gcd, rest, draw(len(rest))) if not g % p]
    shells: dict[int | None, int] = {gamma: count - len(rest)} if len(rest) < count else {}
    # rest holds the gcds with v_p >= v; those not divisible by p**(v + 1)
    # lie on shell gamma - v, and a gcd divisible by limit is 0, the origin
    shell, q = gamma - 1, p * p
    while rest and q <= limit:
        deeper = [g for g in rest if not g % q]
        if len(deeper) < len(rest):
            shells[shell] = len(rest) - len(deeper)
        rest, shell, q = deeper, shell - 1, q * p
    if rest:
        shells[None] = len(rest)
    return shells
