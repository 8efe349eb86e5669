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
import sys
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator, NamedTuple

from .errors import (
    DomainError,
    HypothesisViolationError,
    NumericOverflowError,
    TailCombinationError,
)
from .padic import PadicContext, check_shell, ppow

_MIN_NORMAL, _MAX = sys.float_info.min, sys.float_info.max


def _set_window(obj, entries: tuple, what: str) -> None:
    """Store obj.window as two ints once it is ordered, lies within
    ``SHELL_LIMIT`` of the origin and carries one of ``entries`` per shell."""
    j_min, j_max = obj.window
    check_shell(j_min, "window[0]")
    check_shell(j_max, "window[1]")
    if j_min > j_max:
        raise DomainError(f"empty shell window [{j_min}, {j_max}]")
    if len(entries) != j_max - j_min + 1:
        raise DomainError(
            f"window [{j_min}, {j_max}] needs {j_max - j_min + 1} "
            f"{what}, got {len(entries)}"
        )
    object.__setattr__(obj, "window", (int(j_min), int(j_max)))


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
            coefficients, both ends within ``padic.SHELL_LIMIT`` of 0.
        coeffs: value on shell j_min + i at position i; length must match the
            window.
        inner_tail: law on shells k < j_min.
        outer_tail: law on shells k > j_max.

    A finitely-supported function is the special case of two zero tails.
    Tails with zero amplitude are normalized to rate 0 so that equal
    functions compare equal. Non-finite (NaN or inf) coefficients or tails
    raise DomainError.
    """

    ctx: PadicContext
    window: tuple[int, int]
    coeffs: tuple[float, ...]
    inner_tail: Tail = ZERO_TAIL
    outer_tail: Tail = ZERO_TAIL

    def __post_init__(self) -> None:
        _set_window(self, self.coeffs, "coefficients")
        object.__setattr__(self, "coeffs", tuple([float(c) for c in self.coeffs]))
        if not all(map(math.isfinite, self.coeffs)):
            raise DomainError("shell coefficients must be finite (not NaN or inf)")
        inner = _normalize_tail(self.inner_tail)
        outer = _normalize_tail(self.outer_tail)
        object.__setattr__(self, "inner_tail", inner)
        object.__setattr__(self, "outer_tail", outer)

    @classmethod
    def indicator_ball(cls, ctx: PadicContext, gamma: int) -> "RadialStepFunction":
        """Indicator of the ball B_gamma: 1 on shells k <= gamma, else 0."""
        return cls(ctx, (gamma, gamma), (1.0,), inner_tail=Tail(1.0, 0.0))

    @classmethod
    def indicator_sphere(cls, ctx: PadicContext, gamma: int) -> "RadialStepFunction":
        """Indicator of the sphere S_gamma."""
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
        return self.evaluate_range(k, k)[0]

    def evaluate_range(self, lo: int, hi: int) -> list[float]:
        """Values on the spheres S_lo, ..., S_hi: the window coefficients,
        and on each tail's shells amplitude * p**(k * rate).

        Examples:
            >>> ctx = PadicContext(2, 1)
            >>> RadialStepFunction.indicator_ball(ctx, 0).evaluate_range(-1, 1)
            [1.0, 1.0, 0.0]
        """
        j_min, j_max = self.window
        values = [*self.coeffs[max(lo - j_min, 0) : max(hi - j_min + 1, 0)]]
        if lo < j_min:
            values[:0] = self._tail_values(self.inner_tail, range(lo, min(hi + 1, j_min)))
        if hi > j_max:
            values += self._tail_values(self.outer_tail, range(max(lo, j_max + 1), hi + 1))
        return values

    def _tail_values(self, tail: Tail, shells: range) -> list[float]:
        """amplitude * p**(k * rate) on the shells, by :func:`_times_power`
        where the plain product is not a normal float. The values are
        monotone in k, so only the two ends need checking."""
        a, e = tail
        if not e:
            # a zero amplitude has rate 0.0, and a * p**(k * 0.0) is a * 1.0, which is a
            return [a] * len(shells)
        p = self.ctx.p
        values = [a * ppow(p, k * e) for k in shells]
        if values and not (
            _MIN_NORMAL <= abs(values[0]) <= _MAX and _MIN_NORMAL <= abs(values[-1]) <= _MAX
        ):
            values = [_times_power(a, p, k * e) for k in shells]
        return values

    def scale(self, c: float) -> "RadialStepFunction":
        """Pointwise scalar multiple c * f, for a finite c."""
        c = float(c)
        if not math.isfinite(c):
            raise DomainError(f"scale factor must be finite, got {c}")
        coeffs = [c * v for v in self.coeffs]
        (a_in, e_in), (a_out, e_out) = self.inner_tail, self.outer_tail
        return _built(self.ctx, self.window, coeffs, Tail(c * a_in, e_in), Tail(c * a_out, e_out))

    def absolute(self) -> "RadialStepFunction":
        """Pointwise absolute value |f|; tail rates are unchanged."""
        (a_in, e_in), (a_out, e_out) = self.inner_tail, self.outer_tail
        coeffs = [abs(v) for v in self.coeffs]
        return _built(self.ctx, self.window, coeffs, Tail(abs(a_in), e_in), Tail(abs(a_out), e_out))


def _times_power(c: float, p: int, x: float) -> float:
    """c * p**x for a nonzero c. Where the plain product is not a normal
    float (p**x saturated to inf or 0.0, or the product left the normal
    range), it is formed again from two half powers, so a value that fits
    is not read as inf or 0.0."""
    value = c * ppow(p, x)
    if _MIN_NORMAL <= abs(value) <= _MAX:
        return value
    half = x / 2
    return c * ppow(p, half) * ppow(p, x - half)


def _built(ctx, window, coeffs: list[float], inner: Tail, outer: Tail) -> RadialStepFunction:
    """A function from the fields that a kernel (``hardy``, ``hardy_adjoint``,
    ``combine``, ``scale``, ``absolute``) computed from checked functions.

    Judged in this order: the first non-finite coefficient, with its shell,
    then both window ends against ``SHELL_LIMIT`` (DomainError), then each
    tail's amplitude and rate, by side. The inputs were finite, so a
    non-finite value is a float overflow: NumericOverflowError. A zero tail
    becomes ``ZERO_TAIL``; the kernels give float amplitudes and rates.
    """
    if not all(map(math.isfinite, coeffs)):
        k, c = next((k, c) for k, c in enumerate(coeffs, window[0]) if not math.isfinite(c))
        raise NumericOverflowError(
            f"the image coefficient on shell {k} overflows the float range: it is {c}"
        )
    check_shell(window[0], "window[0]")
    check_shell(window[1], "window[1]")
    for side, (amplitude, rate) in (("inner", inner), ("outer", outer)):
        if not (math.isfinite(amplitude) and math.isfinite(rate)):
            raise NumericOverflowError(
                f"the {side} tail (amplitude {amplitude}, rate {rate}) overflows the float range"
            )
    f = object.__new__(RadialStepFunction)
    f.__dict__.update(
        ctx=ctx,
        window=window,
        coeffs=tuple(coeffs),
        inner_tail=inner if inner.amplitude else ZERO_TAIL,
        outer_tail=outer if outer.amplitude else ZERO_TAIL,
    )
    return f


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
        raise TailCombinationError(
            f"{side} tails have different rates ({a.rate} vs {b.rate}) and both "
            "amplitudes are nonzero; the sum is not a single power law. Widen the "
            "explicit windows so the clashing region is covered by shell coefficients."
        )
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
    pairs = zip(f.evaluate_range(j_min, j_max), g.evaluate_range(j_min, j_max))
    if op == "add":
        coeffs = [x + y for x, y in pairs]
    else:
        coeffs = [x * y for x, y in pairs]
    return _built(f.ctx, (j_min, j_max), coeffs, inner, outer)


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


def _tail_integral(f: RadialStepFunction, start: int, below: bool) -> tuple[int, int]:
    """Sum of tail_value(k) * |S_k| over shells k < start of the inner law
    (below) or k >= start of the outer law, as a (numerator, denominator)
    pair: the exact sum where the geometric ratio is an integer power of p
    (integer rate), else the float :func:`_geometric_tail` as its own exact
    ratio (see :func:`_ratio`). Raises :class:`DomainError` for a
    non-integrable tail.
    """
    amplitude, rate = f.inner_tail if below else f.outer_tail
    if amplitude == 0.0:
        return 0, 1
    p, n = f.ctx.p, f.ctx.n
    s = rate + n
    coef, scale = amplitude * _unit_mass(f.ctx), 0
    if abs(coef) < _MIN_NORMAL:
        # a subnormal coefficient keeps few bits: sum the tail of the
        # amplitude's mantissa and apply its exponent last
        mantissa, scale = math.frexp(amplitude)
        coef = mantissa * _unit_mass(f.ctx)
    tail = _geometric_tail(coef, p, s, start, below)
    if tail is None:
        side, bound = ("inner", ">") if below else ("outer", "<")
        raise DomainError(
            f"{side} tail rate {rate} is not integrable in dimension {n} "
            f"(needs rate {bound} {-n})"
        )
    if not float(s).is_integer():
        return _ratio(math.ldexp(tail, scale))
    # amplitude * (p**n - 1) * p**e / (p**|s| - 1): the ratio p**s is > 1
    # below and < 1 above, where p**-s clears it from the divisor
    s = int(s)
    e = s * (start if below else start - 1) - n
    num, den = amplitude.as_integer_ratio()
    num *= p**n - 1
    den *= p ** abs(s) - 1
    if e >= 0:
        return num * p**e, den
    return num, den * p**-e


_OVERFLOW = (
    "a ball integral overflows the float range: a finite integral too "
    "large for this computation, not a divergent one"
)


def _ratio(x: float) -> tuple[int, int]:
    """A float sum as its own exact (numerator, denominator) pair. The
    integrals these sums add to are finite, so an infinite sum is one past
    the float range: NumericOverflowError."""
    if not math.isfinite(x):
        raise NumericOverflowError(_OVERFLOW)
    return x.as_integer_ratio()


def _running_parts(f: RadialStepFunction, gamma: int) -> Iterator[tuple[int, int]]:
    """Integrals of f over B_k for k = gamma, gamma + 1, ... as exact
    (numerator, denominator) pairs, never reduced.

    Each step adds one shell, so n pairs cost O(n + W) for a window of W
    shells. From the window on, the numerator is an integer over a
    denominator fixed for the pass: the inner tail's denominator times the
    largest power-of-2 denominator of the coefficients (and of an
    integer-rate outer amplitude) times the power of p that clears the
    measure of the lowest window shell, so each window shell adds an
    integer and no gcd is taken. Above the window each shell of an
    integer-rate outer tail adds p**(rate + n) times the last one's integer;
    where rate + n < 0, numerator and denominator are scaled by
    p**-(rate + n) instead, so each of its shells adds the same integer.
    Non-integer-rate outer-tail terms are summed left to right in one float,
    added to the pair exactly at each step by :func:`_ratio` (an infinite
    sum raises NumericOverflowError); where |S_j| leaves the float range the
    term is amplitude * |S_0| * p**(j*(rate + n)).
    """
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    q = p**n
    j_min, j_max = f.window
    k = gamma
    while k < j_min:
        yield _tail_integral(f, k + 1, below=True)
        k += 1
    num, den = _tail_integral(f, j_min, below=True)
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
            yield num, den
    if amplitude == 0.0:
        while True:
            yield num, den
    if integer_rate:
        a, d = amplitude.as_integer_ratio()
        term = a * (unit // d)
        e = int(rate) * (j_max + 1)
        if e >= 0:
            term *= p**e
        else:
            num *= p**-e
            den *= p**-e
        step = int(rate) + n
        for j in count(j_max + 1):
            num += term
            if j >= k:
                yield num, den
            if step >= 0:
                term *= p**step
            else:
                num *= p**-step
                den *= p**-step
    terms = 0.0
    for j in count(j_max + 1):
        try:
            terms += amplitude * ppow(p, j * rate) * (unit / den)
        except OverflowError:
            # |S_j| leaves the float range, but a decaying tail's term need not
            terms += amplitude * _unit_mass(ctx) * ppow(p, j * (rate + n))
        unit *= q
        if j >= k:
            a, d = _ratio(terms)
            yield num * d + a * den, den * d


def _float_value(num: int, den: int) -> float:
    """num / den, rounded once, correctly, as ``float(Fraction(num, den))``
    rounds it. A quotient past the float range raises
    :class:`NumericOverflowError`: the integrals these pairs hold are
    finite, so it can only be an overflow.
    """
    try:
        return num / den
    except OverflowError:
        raise NumericOverflowError(_OVERFLOW) from None


def ball_integral(f: RadialStepFunction, gamma: int) -> float:
    """Integral of f over the ball B_gamma, with the inner tail summed analytically."""
    check_shell(gamma, "ball index")
    return _float_value(*next(_running_parts(f, gamma)))


def total_integral(f: RadialStepFunction) -> float:
    """Integral of f over the whole space; both tails summed analytically."""
    num, den = next(_running_parts(f, f.window[1]))
    num2, den2 = _tail_integral(f, f.window[1] + 1, below=False)
    return _float_value(num * den2 + num2 * den, den * den2)


def ball_mean(f: RadialStepFunction, gamma: int) -> float:
    """Mean of f over B_gamma: (integral over B_gamma) / |B_gamma|.

    The integral and the measure are exact, so the mean is rounded once:
    e.g. the mean of the constant-1 function is exactly 1.0 at every gamma.

    Examples:
        >>> ctx = PadicContext(2, 1)
        >>> ball_mean(RadialStepFunction.indicator_ball(ctx, 0), 2)
        0.25
        >>> ball_mean(RadialStepFunction.indicator_sphere(ctx, 1), 1)
        0.5
    """
    check_shell(gamma, "ball index")
    return _mean_of_parts(next(_running_parts(f, gamma)), gamma, f.ctx)


def _mean_of_parts(parts: tuple[int, int], gamma: int, ctx: PadicContext) -> float:
    """Mean over B_gamma from the (numerator, denominator) integral of f
    over it, divided by the exact measure p**(n*gamma) and rounded once: a
    quotient past the float range raises NumericOverflowError."""
    num, den = parts
    measure = ctx.p ** (ctx.n * abs(gamma))
    return _float_value(num, den * measure) if gamma >= 0 else _float_value(num * measure, den)


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
        _set_window(self, self.values, "values")
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
        return self.evaluate_range(k, k)[0]

    def evaluate_range(self, lo: int, hi: int) -> list[float]:
        """Exponent values on the spheres S_lo, ..., S_hi: ``u_inner`` below
        the window, its values, ``u_infinity`` above."""
        j_min, j_max = self.window
        return [
            *[self.u_inner] * (min(hi + 1, j_min) - lo),
            *self.values[max(lo - j_min, 0) : max(hi - j_min + 1, 0)],
            *[self.u_infinity] * (hi - max(lo, j_max + 1) + 1),
        ]

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
