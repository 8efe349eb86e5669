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

Sampled points are stored as exact rational coordinates truncated to a digit
resolution, so norms, shells and arithmetic on sampled points are all exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterator

from .errors import DomainError

#: Shell indices are plain ints; k labels the sphere S_k.
Shell = int

#: Default number of base-p digits kept per coordinate when sampling (d_0..d_L).
DEFAULT_RESOLUTION = 24

#: Default guard on shell indices accepted at the public API boundary.
DEFAULT_SHELL_LIMIT = 64


def ppow(p: int, exponent: float) -> float:
    """p**exponent as a float, exact for integer exponents.

    Integer exponents are evaluated in exact rational arithmetic before the
    final float conversion, so powers of p round-trip bit-exactly against the
    Haar measure fractions. Overflow saturates to ``math.inf`` and extreme
    negative exponents underflow to 0.0.
    """
    if float(exponent).is_integer():
        e = int(exponent)
        if e >= 1100:
            return math.inf
        if e <= -1100:
            return 0.0
        try:
            return float(Fraction(p) ** e)
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
    """The ambient space: prime p, dimension n, and an API shell guard.

    Args:
        p: prime defining the base field Q_p.
        n: dimension of the vector space, at least 1.
        shell_limit: shell indices beyond ``[-shell_limit, shell_limit]`` are
            rejected at public entry points to prevent silent magnitude blowups.
            Internal scans may exceed it because all heavy arithmetic is exact.
    """

    p: int
    n: int = 1
    shell_limit: int = DEFAULT_SHELL_LIMIT

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise DomainError(f"p must be prime, got {self.p}")
        if self.n < 1:
            raise DomainError(f"dimension n must be >= 1, got {self.n}")
        if self.shell_limit < 1:
            raise DomainError("shell_limit must be >= 1")

    def check_shell(self, k: int, what: str = "shell index") -> int:
        if not isinstance(k, int):
            raise DomainError(f"{what} must be an integer, got {k!r}")
        if abs(k) > self.shell_limit:
            raise DomainError(
                f"{what} {k} outside the allowed window "
                f"[-{self.shell_limit}, {self.shell_limit}]"
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


def fraction_valuation(x: Fraction, ctx: PadicContext) -> int | float:
    """Valuation of an exact rational; ``math.inf`` for zero."""
    return padic_valuation(x.numerator, x.denominator, ctx)


def ball_measure(gamma: int, ctx: PadicContext) -> Fraction:
    """Haar measure of the ball B_gamma, exactly p^(n gamma).

    Example:
        >>> ball_measure(1, PadicContext(3, 2))
        Fraction(9, 1)
    """
    ctx.check_shell(gamma, "ball index")
    return _ball_measure_unchecked(gamma, ctx)


def sphere_measure(gamma: int, ctx: PadicContext) -> Fraction:
    """Haar measure of the sphere S_gamma, exactly p^(n gamma) (1 - p^(-n)).

    Example:
        >>> sphere_measure(0, PadicContext(2, 1))
        Fraction(1, 2)
    """
    ctx.check_shell(gamma, "sphere index")
    return _sphere_measure_unchecked(gamma, ctx)


def _ball_measure_unchecked(gamma: int, ctx: PadicContext) -> Fraction:
    return Fraction(ctx.p) ** (ctx.n * gamma)


def _sphere_measure_unchecked(gamma: int, ctx: PadicContext) -> Fraction:
    q = Fraction(ctx.p) ** ctx.n
    return Fraction(ctx.p) ** (ctx.n * gamma) * (1 - 1 / q)


@dataclass(frozen=True)
class PadicPoint:
    """A point of Q_p^n with exact rational coordinates.

    Coordinates are rationals truncated to ``resolution + 1`` base-p digits
    when produced by the sampler; arbitrary rationals are accepted. The shell
    index, vector norm, digit expansions and arithmetic are all exact.
    """

    ctx: PadicContext
    coords: tuple[Fraction, ...]
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self) -> None:
        if len(self.coords) != self.ctx.n:
            raise DomainError(
                f"expected {self.ctx.n} coordinates, got {len(self.coords)}"
            )
        if self.resolution < 1:
            raise DomainError("resolution must be >= 1")
        object.__setattr__(
            self,
            "coords",
            tuple(c if type(c) is Fraction else Fraction(c) for c in self.coords),
        )

    @classmethod
    def from_rationals(
        cls,
        ctx: PadicContext,
        values,
        resolution: int = DEFAULT_RESOLUTION,
    ) -> "PadicPoint":
        return cls(ctx, tuple(Fraction(v) for v in values), resolution)

    def coordinate_valuations(self) -> tuple[int | float, ...]:
        """Per-coordinate valuations; ``math.inf`` marks a zero coordinate."""
        return tuple(fraction_valuation(c, self.ctx) for c in self.coords)

    @property
    def shell(self) -> int | None:
        """Shell index k with |x|_p = p^k, or None for the zero vector."""
        p = self.ctx.p
        best: int | None = None
        for c in self.coords:
            if c == 0:
                continue
            k = _int_valuation(c.denominator, p) - _int_valuation(c.numerator, p)
            if best is None or k > best:
                best = k
        return best

    def vector_norm(self) -> Fraction:
        """Max of coordinate norms; an exact power of p, or 0 for the origin."""
        k = self.shell
        if k is None:
            return Fraction(0)
        return Fraction(self.ctx.p) ** k

    def digits(self, i: int) -> tuple[int, ...]:
        """Base-p digits (d_0, ..., d_L) of coordinate i's unit part.

        Writing the coordinate as p^v * s / t with p dividing neither s nor t,
        the digits are those of s * t^(-1) mod p^(L+1), so d_0 != 0. A zero
        coordinate yields all-zero digits.
        """
        p, L = self.ctx.p, self.resolution
        x = self.coords[i]
        if x == 0:
            return (0,) * (L + 1)
        v = fraction_valuation(x, self.ctx)
        unit = x / Fraction(p) ** int(v)
        mod = p ** (L + 1)
        s, t = unit.numerator % mod, unit.denominator % mod
        u = (s * pow(t, -1, mod)) % mod
        out = []
        for _ in range(L + 1):
            out.append(u % p)
            u //= p
        return tuple(out)

    def scale_by_p_power(self, a: int) -> "PadicPoint":
        """Multiply every coordinate by p^a; the norm scales by p^(-a)."""
        factor = Fraction(self.ctx.p) ** a
        return PadicPoint(self.ctx, tuple(c * factor for c in self.coords), self.resolution)


def vector_norm(x: PadicPoint) -> Fraction:
    """Module-level alias for :meth:`PadicPoint.vector_norm`."""
    return x.vector_norm()


@lru_cache(maxsize=256)
def _scale_fraction(p: int, exponent: int) -> Fraction:
    """p**exponent as an exact Fraction, cached (samplers hit this per point)."""
    return Fraction(p) ** exponent


@lru_cache(maxsize=256)
def _unit_range(p: int, resolution: int) -> int:
    """p^(resolution+1), the size of the truncated digit space of Z_p."""
    return p ** (resolution + 1)


def _check_region(region: str, gamma: int, ctx: PadicContext) -> None:
    if region not in ("ball", "sphere"):
        raise DomainError(f"region must be 'ball' or 'sphere', got {region!r}")
    ctx.check_shell(gamma, "region index")


def _accepted_draws(
    region: str, ctx: PadicContext, resolution: int, rng: random.Random
) -> Iterator[list[int]]:
    """Endless stream of accepted digit vectors z in [0, p^(resolution+1))^n.

    A point of the region is p^(-gamma) * z. Each draw takes n values from
    ``rng.randrange``; the sphere rejects vectors whose every coordinate is
    divisible by p (no coordinate on the outermost shell).
    """
    p, n = ctx.p, ctx.n
    limit = _unit_range(p, resolution)
    randrange = rng.randrange
    sphere = region == "sphere"
    while True:
        zs = [randrange(limit) for _ in range(n)]
        if sphere and all(z % p == 0 for z in zs):
            continue
        yield zs


def sample_uniform(
    region: str,
    gamma: int,
    ctx: PadicContext,
    resolution: int = DEFAULT_RESOLUTION,
    rng: random.Random | None = None,
    seed: int | None = None,
) -> PadicPoint:
    """Draw one Haar-uniform point from a ball or sphere.

    Args:
        region: ``"ball"`` for B_gamma or ``"sphere"`` for S_gamma.
        gamma: shell index of the region.
        ctx: ambient space.
        resolution: digits kept per coordinate; each coordinate is p^(-gamma)
            times a uniform draw from Z_p truncated after resolution+1 digits.
        rng: explicit generator state; advancing it across calls gives an
            i.i.d. stream. Mutually exclusive with ``seed``.
        seed: convenience one-shot seed (creates a fresh generator).

    The sphere law is the ball law conditioned on the norm being exactly
    p^gamma, realized by rejection (acceptance probability 1 - p^(-n)).
    Coordinates are exact rationals, so the returned point's shell index is
    exact. Mass below the digit resolution (probability p^(-(resolution+1))
    per coordinate) collapses to exact zero.
    """
    _check_region(region, gamma, ctx)
    if rng is None:
        rng = random.Random(seed)
    elif seed is not None:
        raise DomainError("pass either rng or seed, not both")

    scale = _scale_fraction(ctx.p, -gamma)
    zs = next(_accepted_draws(region, ctx, resolution, rng))
    return PadicPoint(ctx, tuple(z * scale for z in zs), resolution)


def sample_shells(
    region: str,
    gamma: int,
    count: int,
    ctx: PadicContext,
    resolution: int,
    rng: random.Random,
) -> list[int | None]:
    """Shell indices of ``count`` points drawn as by :func:`sample_uniform`.

    Consumes ``rng`` exactly as ``count`` calls of ``sample_uniform`` would
    and returns their ``.shell`` values, but classifies each draw on
    integers: the point p^(-gamma) * z lies on shell gamma - min_i v_p(z_i),
    and min_i v_p(z_i) = v_p(gcd(z)); None marks the origin (every z_i = 0).

    Example:
        >>> ctx = PadicContext(2, 1)
        >>> sample_shells("ball", 0, 6, ctx, 24, random.Random(1))
        [0, 0, -4, -1, 0, -1]
    """
    _check_region(region, gamma, ctx)
    p = ctx.p
    shells: list[int | None] = []
    for zs in islice(_accepted_draws(region, ctx, resolution, rng), count):
        g = math.gcd(*zs)
        shells.append(None if g == 0 else gamma - _int_valuation(g, p))
    return shells
