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

The sampler draws Haar-uniform points of a ball digit by digit, truncated to
a digit resolution, and returns only how many points lie on each shell. A
point's shell is fixed by the first base-p digit position at which some
coordinate is nonzero, and each digit is 0 with probability exactly 1/p, so
the sampler draws only these events, one round per digit position for the
points still undecided, from bulk random bytes compared with 1/p.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

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


def ppow_range(p: int, n: int, lo: int, hi: int) -> list[float]:
    """``[ppow(p, n * k) for k in range(lo, hi + 1)]``, bit for bit.

    Each side of k = 0 is one running integer power of p**n, converted as
    ppow converts it: 1 / p**(-n k) below 0, float(p**(n k)) from 0 on. As
    in ppow, n k <= -1100 reads 0.0, and n k >= 1100 or a power past the
    float range reads inf.

    Example:
        >>> ppow_range(2, 1, -2, 2)
        [0.25, 0.5, 1.0, 2.0, 4.0]
    """
    q = p**n
    reach = -(-1100 // n)  # the least k > 0 with n k >= 1100
    first = max(lo, 1 - reach)
    row = [0.0] * (min(hi + 1, first) - lo)
    if first < 0:
        denominator = q**-first
        for _ in range(min(hi, -1) - first + 1):
            row.append(1 / denominator)
            denominator //= q
    first = max(lo, 0)
    if first <= hi:
        power = q**first
        for _ in range(min(hi, reach - 1) - first + 1):
            try:
                row.append(float(power))
            except OverflowError:
                break
            power *= q
    row += [math.inf] * (hi - lo + 1 - len(row))
    return row


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

    A point p^(-gamma) * z lies on shell gamma - v, where v is the first
    digit position at which some coordinate z_i has a nonzero base-p digit;
    None marks the origin (every digit 0). The base-p digits of a uniform
    z_i are independent, each 0 with probability exactly 1/p, so only these
    events are drawn, one digit round at a time. Round v takes the m points
    whose digits below v are all 0 and draws ``rng.randbytes(m * n)``, one
    byte per coordinate, point after point. A byte b_0 read with its
    successors as U = 0.b_0 b_1 ... in base 256 makes the digit 0 when
    U < 1/p: b_0 below c_0, the first base-256 digit of 1/p, says so, b_0
    above it says not, and the rare b_0 equal to it is settled by
    ``rng.getrandbits(8)`` bytes compared in turn with the next digits of
    1/p, in byte order. A point with a nonzero digit lies on shell
    gamma - v; the others go on to round v + 1, and those left after round
    ``resolution`` are the origin. The mapping lists gamma first, then the
    lower shells downwards, and the origin last; only drawn shells appear.
    A sphere needs no sampler: every point of S_gamma lies on shell gamma.

    Example:
        >>> ctx = PadicContext(2, 1)
        >>> sample_shells(0, 6, ctx, 24, random.Random(1))
        {0: 4, -1: 2}
    """
    check_shell(gamma, "ball index")
    p, n = ctx.p, ctx.n
    c0, rest = divmod(256, p)  # first base-256 digit of 1/p and its remainder
    # a byte below c0 makes the digit 0 (1), one above it nonzero (0); 2 ties
    table = bytes([1] * c0 + [2] + [0] * (255 - c0))
    shells: dict[int | None, int] = {}
    m = count
    for v in range(resolution + 1):
        if not m:
            break
        zero = rng.randbytes(m * n).translate(table)
        if 2 in zero:
            zero = bytearray(zero)
            i = zero.find(2)
            while i >= 0:
                r = rest
                while True:
                    c, r = divmod(r * 256, p)
                    b = rng.getrandbits(8)
                    if b != c:
                        break
                zero[i] = b < c
                i = zero.find(2, i + 1)
        if n == 1:
            left = zero.count(1)
        else:
            flags = int.from_bytes(zero[::n], "little")
            for i in range(1, n):
                flags &= int.from_bytes(zero[i::n], "little")
            left = flags.bit_count()
        if left < m:
            shells[gamma - v] = m - left
        m = left
    if m:
        shells[None] = m
    return shells
