"""Radial step functions with power-law tails, and radial variable exponents.

A :class:`RadialStepFunction` is constant on every sphere S_k. It stores
explicit coefficients on a finite shell window [j_min, j_max] and single
power laws on both sides: value ``A_in * p**(k * e_in)`` on shells below the
window and ``A_out * p**(k * e_out)`` above it. The class is closed under
addition (when tail rates match), multiplication, scaling, and the integral
operators implemented in :mod:`ultraherz.operators`, which is what keeps
every norm in this package an exact shell sum plus analytic geometric tails.

A :class:`ExponentFunction` is a radial variable exponent u(.) with window
values, a single value below the window, and a single value u(infinity)
above it. Derived exponents (conjugate, Sobolev shift) live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator, NamedTuple

from .errors import (
    DomainError,
    HypothesisViolationError,
    NumericOverflowError,
    TailCombinationError,
)
from .padic import PadicContext, ppow

#: Most shells a shell-by-shell walk (a mixed tail sum, the CMO supremum
#: scan, the maximal function's crossover search) takes before it stops.
_SCAN_CAP = 400_000


class Tail(NamedTuple):
    """One power-law tail: value ``amplitude * p**(k * rate)`` on shell k."""

    amplitude: float
    rate: float


ZERO_TAIL = Tail(0.0, 0.0)


@dataclass(frozen=True)
class RadialStepFunction:
    """A radial function: shell coefficients on a window plus power-law tails.

    Args:
        ctx: ambient space.
        window: inclusive shell range ``(j_min, j_max)`` carrying explicit
            coefficients.
        coeffs: value on shell j_min + i at position i; length must match the
            window.
        inner_tail: law on shells k < j_min.
        outer_tail: law on shells k > j_max.
        value_at_zero: value at the origin (a measure-zero point). Defaults
            to the inner-tail limit when the inner rate is 0, else 0.

    A finitely-supported function is the special case of two zero tails.
    Tails with zero amplitude are normalized to rate 0 so that equal
    functions compare equal. Non-finite (NaN or inf) coefficients or tails
    raise DomainError; ``value_at_zero`` may be inf, as ``maximal`` sets it,
    but not NaN, so a scale or combine that meets 0 * inf or inf - inf at
    the origin raises DomainError too.
    """

    ctx: PadicContext
    window: tuple[int, int]
    coeffs: tuple[float, ...]
    inner_tail: Tail = ZERO_TAIL
    outer_tail: Tail = ZERO_TAIL
    value_at_zero: float | None = None

    def __post_init__(self) -> None:
        j_min, j_max = self.window
        if j_min > j_max:
            raise DomainError(f"empty shell window [{j_min}, {j_max}]")
        if len(self.coeffs) != j_max - j_min + 1:
            raise DomainError(
                f"window [{j_min}, {j_max}] needs {j_max - j_min + 1} "
                f"coefficients, got {len(self.coeffs)}"
            )
        object.__setattr__(self, "window", (int(j_min), int(j_max)))
        object.__setattr__(self, "coeffs", tuple([float(c) for c in self.coeffs]))
        if not all(map(math.isfinite, self.coeffs)):
            raise DomainError("shell coefficients must be finite (not NaN or inf)")
        inner = _normalize_tail(self.inner_tail)
        outer = _normalize_tail(self.outer_tail)
        object.__setattr__(self, "inner_tail", inner)
        object.__setattr__(self, "outer_tail", outer)
        if self.value_at_zero is None:
            vz = inner.amplitude if inner.rate == 0.0 else 0.0
        else:
            vz = float(self.value_at_zero)
            if math.isnan(vz):
                raise DomainError(
                    "the value at the origin must not be NaN (as 0 * inf or "
                    "inf - inf gives)"
                )
        object.__setattr__(self, "value_at_zero", vz)

    @classmethod
    def indicator_ball(cls, ctx: PadicContext, gamma: int) -> "RadialStepFunction":
        """Indicator of the ball B_gamma: 1 on shells k <= gamma, else 0."""
        ctx.check_shell(gamma, "ball index")
        return cls(ctx, (gamma, gamma), (1.0,), inner_tail=Tail(1.0, 0.0))

    @classmethod
    def indicator_sphere(cls, ctx: PadicContext, gamma: int) -> "RadialStepFunction":
        """Indicator of the sphere S_gamma."""
        ctx.check_shell(gamma, "sphere index")
        return cls(ctx, (gamma, gamma), (1.0,))

    @classmethod
    def constant(cls, ctx: PadicContext, value: float) -> "RadialStepFunction":
        """The constant function (not integrable over the whole space)."""
        v = float(value)
        return cls(ctx, (0, 0), (v,), inner_tail=Tail(v, 0.0), outer_tail=Tail(v, 0.0))

    @classmethod
    def zero(cls, ctx: PadicContext) -> "RadialStepFunction":
        return cls(ctx, (0, 0), (0.0,))

    def evaluate(self, k: int) -> float:
        """Value on the sphere S_k.

        Examples:
            >>> ctx = PadicContext(2, 1)
            >>> RadialStepFunction.indicator_ball(ctx, 0).evaluate(-3)
            1.0
            >>> RadialStepFunction.indicator_ball(ctx, 0).evaluate(1)
            0.0
        """
        j_min, j_max = self.window
        if k < j_min:
            amplitude, rate = self.inner_tail
        elif k > j_max:
            amplitude, rate = self.outer_tail
        else:
            return self.coeffs[k - j_min]
        if amplitude == 0.0:
            return 0.0
        return amplitude * ppow(self.ctx.p, k * rate)

    def scale(self, c: float) -> "RadialStepFunction":
        """Pointwise scalar multiple c * f."""
        c = float(c)
        return RadialStepFunction(
            self.ctx,
            self.window,
            tuple([c * v for v in self.coeffs]),
            Tail(c * self.inner_tail.amplitude, self.inner_tail.rate),
            Tail(c * self.outer_tail.amplitude, self.outer_tail.rate),
            c * self.value_at_zero,
        )

    def absolute(self) -> "RadialStepFunction":
        """Pointwise absolute value |f|; tail rates are unchanged."""
        return RadialStepFunction(
            self.ctx,
            self.window,
            tuple([abs(v) for v in self.coeffs]),
            Tail(abs(self.inner_tail.amplitude), self.inner_tail.rate),
            Tail(abs(self.outer_tail.amplitude), self.outer_tail.rate),
            abs(self.value_at_zero),
        )


def _normalize_tail(tail) -> Tail:
    amplitude, rate = tail
    amplitude = float(amplitude)
    rate = float(rate)
    if not (math.isfinite(amplitude) and math.isfinite(rate)):
        raise DomainError("tail amplitude and rate must be finite (not NaN or inf)")
    if amplitude == 0.0:
        return ZERO_TAIL
    return Tail(amplitude, rate)


def _combined_tail(a: Tail, b: Tail, op: str, side: str) -> Tail:
    if op == "multiply":
        if a.amplitude == 0.0 or b.amplitude == 0.0:
            return ZERO_TAIL
        return Tail(a.amplitude * b.amplitude, a.rate + b.rate)
    if a.amplitude == 0.0:
        return b
    if b.amplitude == 0.0:
        return a
    if a.rate != b.rate:
        raise TailCombinationError(side, a.rate, b.rate)
    return Tail(a.amplitude + b.amplitude, a.rate)


def combine(
    f: RadialStepFunction, g: RadialStepFunction, op: str
) -> RadialStepFunction:
    """Pointwise sum or product of two radial step functions.

    The result's window is the union of the two windows; tails follow the
    obvious laws (amplitudes add at equal rates for ``"add"``; amplitudes
    multiply and rates add for ``"multiply"``). Adding two nonzero tails
    with different rates would leave the single-power-law class, which
    raises :class:`TailCombinationError`; widening one operand's window so
    the mismatch sits inside it resolves the conflict.
    """
    if f.ctx != g.ctx:
        raise DomainError("cannot combine functions from different contexts")
    if op not in ("add", "multiply"):
        raise DomainError(f"op must be 'add' or 'multiply', got {op!r}")
    inner = _combined_tail(f.inner_tail, g.inner_tail, op, "inner")
    outer = _combined_tail(f.outer_tail, g.outer_tail, op, "outer")
    j_min = min(f.window[0], g.window[0])
    j_max = max(f.window[1], g.window[1])
    if op == "add":
        coeffs = tuple([f.evaluate(k) + g.evaluate(k) for k in range(j_min, j_max + 1)])
        vz = f.value_at_zero + g.value_at_zero
    else:
        coeffs = tuple([f.evaluate(k) * g.evaluate(k) for k in range(j_min, j_max + 1)])
        vz = f.value_at_zero * g.value_at_zero
    return RadialStepFunction(f.ctx, (j_min, j_max), coeffs, inner, outer, vz)


def _unit_mass(ctx: PadicContext) -> float:
    """|S_0| = 1 - p**(-n) as a correctly rounded float."""
    q = ctx.p**ctx.n
    return (q - 1) / q


def _cancels(ratio: float) -> bool:
    """True when 1 - ratio loses over half of its bits; use expm1 of the log."""
    return abs(1.0 - ratio) < 2.0**-26


def _geometric_tail(
    coef: float, p: int, s: float, start: int, below: bool
) -> float | None:
    """coef * sum of p**(s*k) over shells k < start (below) or k >= start (above).

    Returns None when the series diverges: s <= 0 below, s >= 0 above.
    Evaluated as coef * p**(s*start) / (1 - p**s), with the divisor negated
    below, in that order, so callers that pass their coefficient already
    multiplied out keep their bits. A divisor that :func:`_cancels` is
    replaced by -expm1(s * log p).

    Example:
        >>> _geometric_tail(3.0, 2, -1.0, 1, below=False)
        3.0
    """
    if (s <= 0) if below else (s >= 0):
        return None
    ratio = ppow(p, s)
    divisor = -math.expm1(s * math.log(p)) if _cancels(ratio) else 1.0 - ratio
    return coef * ppow(p, s * start) / (-divisor if below else divisor)


def _tail_integral(
    f: RadialStepFunction, start: int, below: bool
) -> tuple[int, int, float]:
    """Sum of tail_value(k) * |S_k| over shells k < start of the inner law
    (below) or k >= start of the outer law.

    Returns a (numerator, denominator, inexact) triple: the value is
    numerator / denominator exactly when the geometric ratio is an integer
    power of p (integer rate), else the float inexact over an exact 0 / 1.
    Raises :class:`DomainError` for a non-integrable tail.
    """
    amplitude, rate = f.inner_tail if below else f.outer_tail
    if amplitude == 0.0:
        return 0, 1, 0.0
    p, n = f.ctx.p, f.ctx.n
    s = rate + n
    tail = _geometric_tail(amplitude * _unit_mass(f.ctx), p, s, start, below)
    if tail is None:
        side, bound = ("inner", ">") if below else ("outer", "<")
        raise DomainError(
            f"{side} tail rate {rate} is not integrable in dimension {n} "
            f"(needs rate {bound} {-n})"
        )
    if not float(s).is_integer():
        return 0, 1, tail
    # amplitude * (p**n - 1) * p**e / (p**|s| - 1): the ratio p**s is > 1
    # below and < 1 above, where p**-s clears it from the divisor
    s = int(s)
    e = s * (start if below else start - 1) - n
    num, den = amplitude.as_integer_ratio()
    num *= p**n - 1
    den *= p ** abs(s) - 1
    if e >= 0:
        return num * p**e, den, 0.0
    return num, den * p**-e, 0.0


def _running_parts(f: RadialStepFunction, gamma: int) -> Iterator[tuple[int, int, float]]:
    """Integrals of f over B_k for k = gamma, gamma + 1, ... as (numerator,
    denominator, inexact) triples: numerator / denominator, never reduced,
    is the exact part and inexact a float.

    Each step adds one shell, so n triples cost O(n + W) for a window of W
    shells. From the window on, the exact part is an integer numerator over
    a denominator fixed for the pass: the inner tail's denominator times the
    largest power-of-2 denominator of the coefficients (and of an
    integer-rate outer amplitude) times the power of p that clears the
    measure of the lowest window shell, so each window shell adds an
    integer and no gcd is taken. Above the window an integer-rate outer tail
    scales numerator and denominator by p**-(rate + n) per shell, so each of
    its shells adds the same integer. Non-integer-rate outer-tail terms
    enter the float slot left to right, so every triple equals a fresh
    shell sum bit for bit.
    """
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    q = p**n
    j_min, j_max = f.window
    k = gamma
    while k < j_min:
        yield _tail_integral(f, k + 1, below=True)
        k += 1
    num, den, inexact = _tail_integral(f, j_min, below=True)
    ratios = [c.as_integer_ratio() for c in f.coeffs]
    amplitude, rate = f.outer_tail
    integer_rate = float(rate).is_integer()
    # powers of 2, so the largest is a multiple of every other
    pow2 = max([d for _, d in ratios])
    if integer_rate:
        pow2 = max(pow2, amplitude.as_integer_ratio()[1])
    # unit = den * |S_j| = den * (q - 1) * p**(n*(j - 1)), an integer for j >= j_min
    unit = den * pow2 * (q - 1) * p ** max(0, n * (j_min - 1))
    clear = pow2 * p ** max(0, n * (1 - j_min))
    num *= clear
    den *= clear
    for j, (a, d) in enumerate(ratios, j_min):
        num += a * (unit // d)
        unit *= q
        if j >= k:
            yield num, den, inexact
    if amplitude == 0.0:
        while True:
            yield num, den, inexact
    if integer_rate:
        a, d = amplitude.as_integer_ratio()
        term = a * (unit // d)
        e = int(rate) * (j_max + 1)
        if e >= 0:
            term *= p**e
        else:
            num *= p**-e
            den *= p**-e
        ratio = p ** -(int(rate) + n)
        for j in count(j_max + 1):
            num += term
            if j >= k:
                yield num, den, inexact
            num *= ratio
            den *= ratio
    for j in count(j_max + 1):
        try:
            inexact += amplitude * ppow(p, j * rate) * (unit / den)
        except OverflowError:
            raise NumericOverflowError(
                f"the measure of shell {j} overflows the float range in an "
                "outer-tail integral"
            ) from None
        unit *= q
        if j >= k:
            yield num, den, inexact


def _integral_parts(f: RadialStepFunction, gamma: int) -> tuple[int, int, float]:
    """Integral of f over B_gamma as a (numerator, denominator, inexact) triple."""
    return next(_running_parts(f, gamma))


def _float_value(num: int, den: int, *inexact: float) -> float:
    """num / den plus the inexact terms, added left to right.

    int / int true division rounds the exact rational once, correctly, as
    ``float(Fraction(num, den))`` does. Raises :class:`NumericOverflowError`
    when the exact part does not fit in a float or the sum is not finite:
    the integrals these triples hold are finite, so an infinite float can
    only be an overflow.
    """
    try:
        value = sum(inexact, num / den)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NumericOverflowError(
            "a ball integral overflows the float range: a finite integral too "
            "large for this computation, not a divergent one"
        )
    return value


def ball_integral(f: RadialStepFunction, gamma: int) -> float:
    """Integral of f over the ball B_gamma, with the inner tail summed analytically."""
    return _float_value(*_integral_parts(f, gamma))


def total_integral(f: RadialStepFunction) -> float:
    """Integral of f over the whole space; both tails summed analytically."""
    num, den, inexact = _integral_parts(f, f.window[1])
    num2, den2, inexact2 = _tail_integral(f, f.window[1] + 1, below=False)
    return _float_value(num * den2 + num2 * den, den * den2, inexact, inexact2)


def ball_mean(f: RadialStepFunction, gamma: int) -> float:
    """Mean of f over B_gamma: (integral over B_gamma) / |B_gamma|.

    The window part and integer-rate tail parts are computed in exact
    rational arithmetic, so e.g. the mean of the constant-1 function is
    exactly 1.0 at every gamma.

    Examples:
        >>> ctx = PadicContext(2, 1)
        >>> ball_mean(RadialStepFunction.indicator_ball(ctx, 0), 2)
        0.25
        >>> ball_mean(RadialStepFunction.indicator_sphere(ctx, 1), 1)
        0.5
    """
    f.ctx.check_shell(gamma, "ball index")
    return _mean_of_parts(_integral_parts(f, gamma), gamma, f.ctx)


def _mean_of_parts(parts: tuple[int, int, float], gamma: int, ctx: PadicContext) -> float:
    """Mean over B_gamma from the (numerator, denominator, inexact) integral
    of f over it.

    Both parts are divided by the exact measure p**(n*gamma), which scales
    the denominator for gamma >= 0 and the numerator below, so any radius
    works, the ones beyond the context's shell limit included. An infinite
    inexact part is an overflowed integral and raises NumericOverflowError,
    as does a finite one whose quotient leaves the float range.
    """
    num, den, inexact = parts
    measure = ctx.p ** (ctx.n * abs(gamma))
    if inexact and math.isfinite(inexact):
        a, d = inexact.as_integer_ratio()
        try:
            inexact = a / (d * measure) if gamma >= 0 else a * measure / d
        except OverflowError:
            inexact = math.inf
    if gamma >= 0:
        den *= measure
    else:
        num *= measure
    return _float_value(num, den, inexact)


@dataclass(frozen=True)
class ExponentFunction:
    """A radial variable exponent: window values plus two limiting values.

    ``u_inner`` is the value on every shell below the window (and at the
    origin, a measure-zero choice); ``u_infinity`` the value on every shell
    above it. All pieces must lie in [1, infinity); derivations that need
    u_- > 1 (the conjugate exponent) check for it themselves.
    """

    ctx: PadicContext
    window: tuple[int, int]
    values: tuple[float, ...]
    u_inner: float
    u_infinity: float

    def __post_init__(self) -> None:
        j_min, j_max = self.window
        if j_min > j_max:
            raise DomainError(f"empty shell window [{j_min}, {j_max}]")
        if len(self.values) != j_max - j_min + 1:
            raise DomainError(
                f"window [{j_min}, {j_max}] needs {j_max - j_min + 1} "
                f"values, got {len(self.values)}"
            )
        object.__setattr__(self, "window", (int(j_min), int(j_max)))
        object.__setattr__(self, "values", tuple([float(v) for v in self.values]))
        object.__setattr__(self, "u_inner", float(self.u_inner))
        object.__setattr__(self, "u_infinity", float(self.u_infinity))
        for shell, value in self._pieces():
            if not math.isfinite(value) or value < 1.0:
                raise DomainError(
                    f"exponent value {value} at {shell} lies outside [1, inf)"
                )

    def _pieces(self):
        j_min, j_max = self.window
        yield "shells below the window", self.u_inner
        for i, v in enumerate(self.values):
            yield f"shell {j_min + i}", v
        yield "shells above the window", self.u_infinity

    @classmethod
    def constant(cls, ctx: PadicContext, value: float) -> "ExponentFunction":
        v = float(value)
        return cls(ctx, (0, 0), (v,), v, v)

    def evaluate(self, k: int) -> float:
        """Exponent value on the sphere S_k."""
        j_min, j_max = self.window
        if k < j_min:
            return self.u_inner
        if k > j_max:
            return self.u_infinity
        return self.values[k - j_min]

    @property
    def u_minus(self) -> float:
        return min(self.u_inner, self.u_infinity, min(self.values))

    @property
    def u_plus(self) -> float:
        return max(self.u_inner, self.u_infinity, max(self.values))

    def map_pieces(self, fn: Callable[[float], float]) -> "ExponentFunction":
        """Apply fn to every piece, keeping the window structure."""
        return ExponentFunction(
            self.ctx,
            self.window,
            tuple([fn(v) for v in self.values]),
            fn(self.u_inner),
            fn(self.u_infinity),
        )


def conjugate(u: ExponentFunction) -> ExponentFunction:
    """Pointwise conjugate exponent u' with 1/u + 1/u' = 1.

    Examples:
        >>> ctx = PadicContext(2, 1)
        >>> conjugate(ExponentFunction.constant(ctx, 2.0)).u_infinity
        2.0
        >>> conjugate(ExponentFunction.constant(ctx, 4.0)).u_inner
        1.3333333333333333
    """
    if u.u_minus <= 1.0:
        raise DomainError(
            f"conjugate exponent is unbounded: u_minus = {u.u_minus} must exceed 1"
        )
    return u.map_pieces(lambda v: v / (v - 1.0))


def sobolev_shift(u: ExponentFunction, alpha: float) -> ExponentFunction:
    """The exponent v with 1/v(.) = 1/u(.) - alpha/n, for 0 <= alpha < n/u_plus."""
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0:
        return u
    n = u.ctx.n
    if alpha >= n / u.u_plus:
        failing = max(u._pieces(), key=lambda piece: piece[1])
        raise HypothesisViolationError(
            f"alpha = {alpha} must stay below n/u_plus = {n / u.u_plus} "
            f"(largest exponent {failing[1]} at {failing[0]})"
        )
    return u.map_pieces(lambda v: 1.0 / (1.0 / v - alpha / n))
