"""Averaging operators on the radial class, computed in closed form.

The fractional Hardy operator H_a averages over the ball through a point,

    (H_a f)(x) = |x|**(a - n) * integral of f over {|t| <= |x|},

and its adjoint integrates over the complement,

    (H*_a f)(x) = integral of f(t) |t|**(a - n) over {|t| > |x|}.

Both map the radial step class to itself whenever the input tails permit:
the output on each shell is an exact expression in ball integrals, and the
output tails are single power laws derived from the input tails. When an
input tail would force a two-rate output (a geometric sum riding on a
constant), the operator raises ClassClosureError instead of silently
leaving the class; widening the explicit window of the input restores
applicability in practice.

The commutator [b, H_a] f = b * H_a f - H_a (b f) is formed from its exact
bracket, sum over j <= k of (b(k) - b(j)) f(j) |S_j| on S_k, rounded once
on the symbol's window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, count, islice

from .errors import (
    ClassClosureError,
    DomainError,
    NumericOverflowError,
    NumericUnderflowError,
    TailCombinationError,
)
from .padic import ppow
from .radial import (
    RadialStepFunction,
    ZERO_TAIL,
    Tail,
    _MAX,
    _MIN_NORMAL,
    _built,
    _float_value,
    _geometric_tail,
    _running_parts,
    _times_power,
    _unit_mass,
)

_KINDS = ("hardy", "adjoint", "commutator")


@dataclass(frozen=True)
class OperatorSpec:
    """A named operator with its order and, for commutators, its symbol."""

    kind: str
    alpha: float = 0.0
    symbol: RadialStepFunction | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(
                f"unknown operator kind {self.kind!r}, expected one of {_KINDS}"
            )
        _check_order(self.alpha)
        if self.kind == "commutator" and self.symbol is None:
            raise DomainError("commutator requires a symbol function")


def _check_order(alpha: float) -> None:
    if not math.isfinite(alpha):
        raise DomainError(f"operator order must be finite, got {alpha}")


def _check_ball_input(name: str, f: RadialStepFunction, alpha: float) -> None:
    _check_order(alpha)
    if f.outer_tail.amplitude != 0.0:
        raise ClassClosureError(
            f"{name} needs a vanishing outer tail on f: above the window its "
            "ball integral would mix a constant with the tail's own growth; "
            "widen the explicit window instead"
        )


def apply_operator(spec: OperatorSpec, f: RadialStepFunction) -> RadialStepFunction:
    """Apply the operator described by ``spec`` to ``f``."""
    if spec.kind == "hardy":
        return hardy(f, spec.alpha)
    if spec.kind == "adjoint":
        return hardy_adjoint(f, spec.alpha)
    assert spec.symbol is not None
    return commutator(spec.symbol, f, spec.alpha)


def hardy(f: RadialStepFunction, alpha: float) -> RadialStepFunction:
    """The fractional Hardy operator H_alpha applied to f.

    On the sphere S_k the output is p**(k*(alpha - n)) times the ball
    integral of f over B_k. Below the input window that integral is a pure
    geometric tail, so the output tail has rate e_in + alpha; above it the
    integral is the constant total (the outer tail of f must vanish, or the
    output would carry two growth rates at once). Each exact integral is
    rounded once and scaled by :func:`_image`, as the commutator's brackets
    are.

    Examples:
        >>> from .padic import PadicContext
        >>> ctx = PadicContext(2, 1)
        >>> g = hardy(RadialStepFunction.indicator_ball(ctx, 0), 0.0)
        >>> g.evaluate(-3), g.evaluate(0), g.evaluate(2)
        (1.0, 1.0, 0.25)
    """
    _check_ball_input("hardy", f, alpha)
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    lo = f.window[0] - 1
    integrals = list(islice(_running_parts(f, lo), f.window[1] - lo + 2))
    # the inner tail integrates to amplitude * scale * p**(k*(rate + n)) over
    # B_k (a divergent one raised in _running_parts, a zero one gives
    # ZERO_TAIL); the outer tail vanishes, so B_hi holds the total integral
    amplitude, rate = f.inner_tail
    scale = _geometric_tail(_unit_mass(ctx), p, -(rate + n), 0, below=False)
    inner, e = Tail(amplitude * scale, rate + alpha), alpha - n
    return _image("hardy", "ball integral", ctx, lo, e, integrals, inner, integrals[-1], e)


def _image(name, row, ctx, lo: int, e: float, rows, inner: Tail, outer, rate) -> RadialStepFunction:
    """The ``name`` image: on shell lo + i, p**((lo + i)*e) times rows[i],
    an exact (numerator, denominator) ``row`` rounded once; the tails are
    ``inner`` and (the exact ``outer`` rounded once, rate). A row past the
    float range raises NumericOverflowError; where its float or the product
    is not a normal float, the coefficient is :func:`_times_power` of the
    exact row. After the verdicts of ``_built``, a nonzero outer amplitude
    that rounds to 0.0 raises NumericUnderflowError.
    """
    p = ctx.p
    try:
        values = [num / den for num, den in rows]
        amplitude = outer[0] / outer[1]
    except OverflowError:
        message = f"a {row} of the {name} image overflows the float range"
        raise NumericOverflowError(message) from None
    coeffs = [
        c if abs(v) >= _MIN_NORMAL and _MIN_NORMAL <= abs(c := ppow(p, k * e) * v) <= _MAX
        else _times_power(part, p, k * e)
        for k, v, part in zip(count(lo), values, rows)
    ]
    image = _built(ctx, (lo, lo + len(rows) - 1), coeffs, inner, Tail(amplitude, float(rate)))
    if amplitude == 0.0 and outer[0]:
        raise NumericUnderflowError(
            f"the outer tail amplitude of the {name} image, a {row}, is not zero "
            "but rounds to 0.0"
        )
    return image


def hardy_adjoint(f: RadialStepFunction, alpha: float) -> RadialStepFunction:
    """The adjoint operator H*_alpha applied to f.

    The output on S_k collects the weighted mass strictly outside B_k, so it
    is constant below the input window; a nonzero inner tail of f would ride
    a constant on top of a power and leave the class. The defining integral
    converges only when the outer rate satisfies e_out + alpha < 0.

    Examples:
        >>> from .padic import PadicContext
        >>> ctx = PadicContext(2, 1)
        >>> g = hardy_adjoint(RadialStepFunction.indicator_sphere(ctx, 0), 0.0)
        >>> g.evaluate(-1), g.evaluate(0)
        (0.5, 0.0)
    """
    _check_order(alpha)
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    if f.inner_tail.amplitude != 0.0:
        raise ClassClosureError(
            "adjoint needs a vanishing inner tail: below the window the "
            "accumulated mass would ride a constant on top of a power; widen "
            "the explicit window instead"
        )
    mass = _unit_mass(ctx)
    j_min, j_max = f.window
    lo, hi = j_min - 1, j_max + 1

    amplitude, rate = f.outer_tail
    outer, value = ZERO_TAIL, 0.0
    if amplitude != 0.0:
        s = rate + alpha
        # above the window the image is outer_amp * p**(k*s): the tail's
        # weighted mass summed over the shells j > k
        outer_amp = _geometric_tail(amplitude * mass, p, s, 1, below=False)
        if outer_amp is None:
            raise DomainError(
                f"outer tail rate {rate} with order {alpha} makes the defining "
                f"integral divergent (needs rate + alpha < 0)"
            )
        outer = Tail(outer_amp, s)
        value = outer_amp * ppow(p, hi * s)

    coeffs = [value]  # from shell hi down: shell k adds the mass of S_(k+1)
    for j, c in zip(range(hi, lo, -1), reversed(f.evaluate_range(lo + 1, hi))):
        # a zero shell adds its signed zero, even where p**(j*alpha) is inf
        value = value + (_times_power(mass * c, p, j * alpha) if c else mass * c)
        coeffs.append(value)
    coeffs.reverse()
    return _built(ctx, (lo, hi), coeffs, Tail(coeffs[0], 0.0), outer)


def commutator(
    b: RadialStepFunction, f: RadialStepFunction, alpha: float
) -> RadialStepFunction:
    """The commutator [b, H_alpha] f = b * (H_alpha f) - H_alpha (b * f).

    On the sphere S_k the image is p**(k*(alpha - n)) times the bracket

        B(k) = sum over j <= k of (b(k) - b(j)) * f(j) * |S_j|.

    Summed by parts, B(k) - B(k - 1) = (b(k) - b(k - 1)) * I(k - 1), with
    I(k) the integral of f over B_k: each step is a jump of the symbol times
    one ball integral of a single ``_running_parts`` pass of f. The jumps
    and integrals are exact ratios (see :func:`_tail_ratio`), so each
    B(k) is rounded once and then scaled by :func:`_image`, as ``hardy``
    scales its integrals.

    The symbol's tails fix the window. A flat inner tail (rate 0, a zero
    tail included) makes B vanish below b's window: the image starts there,
    with a zero inner tail. A flat outer tail makes B constant above b's
    window: the image ends there, its outer tail is (B(j_max + 1),
    alpha - n), and f above the window is never read. A tail at another
    rate keeps the union of both windows widened by one shell. Below it B
    is the power law of :func:`_inner_bracket`; above it B(k) = b(k) * I - J,
    with I and J the total integrals of f and b * f, which mixes two rates
    (TailCombinationError) unless I or J is 0.

    Raises ClassClosureError for an outer tail on f; DomainError for a
    non-finite order, functions from different contexts or a divergent
    tail integral; NumericOverflowError for a bracket or symbol value past
    the float range, besides the verdicts of ``_built`` on the image; and
    NumericUnderflowError when a nonzero outer amplitude rounds to 0.0.

    Examples:
        >>> from .padic import PadicContext
        >>> ctx = PadicContext(2, 1)
        >>> b = RadialStepFunction(ctx, (0, 1), (0.0, 1.0), outer_tail=Tail(1.0, 0.0))
        >>> g = commutator(b, RadialStepFunction.indicator_sphere(ctx, 0), 0.0)
        >>> g.window, g.coeffs, g.outer_tail
        ((0, 1), (0.0, 0.25), Tail(amplitude=0.5, rate=-1.0))
    """
    _check_ball_input("the commutator", f, alpha)
    if b.ctx != f.ctx:
        raise DomainError("the symbol and the function live in different contexts")
    ctx = f.ctx
    e = alpha - ctx.n
    r_in, (a_out, r_out) = b.inner_tail.rate, b.outer_tail
    lo = b.window[0] if r_in == 0.0 else min(b.window[0], f.window[0]) - 1
    hi = b.window[1] if r_out == 0.0 else max(b.window[1], f.window[1]) + 1

    # I(lo - 1), ..., I(hi), b(lo - 1), ..., b(hi + 1) and B(lo - 1), exactly
    integrals = list(islice(_running_parts(f, lo - 1), hi - lo + 2))
    symbol = _symbol_ratios(b, lo - 1, hi + 1)
    inner, (start, start_den) = _inner_bracket(ctx, b.inner_tail, f.inner_tail, lo - 1)
    den_b = math.lcm(*[d for _, d in symbol])
    den_f = math.lcm(*[d for _, d in integrals])
    levels = [num * (den_b // d) for num, d in symbol]
    masses = [num * (den_f // d) * start_den for num, d in integrals]
    den = den_b * den_f * start_den
    # the numerators of B(lo - 1), ..., B(hi + 1) over den
    brackets = list(accumulate(
        [(b1 - b0) * mass for b0, b1, mass in zip(levels, levels[1:], masses)],
        initial=start * den_b * den_f,
    ))

    outer, rate = (brackets[-1], den), float(e)
    total = integrals[-1]
    if r_out != 0.0 and total[0]:
        # J = b(hi + 1) * I - B(hi + 1) must vanish, leaving b(k) * I
        if brackets[-1] != levels[-1] * masses[-1]:
            raise TailCombinationError(
                f"the outer tail would mix rates {r_out + e} and {rate}: both "
                "the integral of f and that of b * f are nonzero. Widen the "
                "symbol's window so that its tail is flat from there on."
            )
        a, d = a_out.as_integer_ratio()
        outer, rate = (a * total[0], d * total[1]), r_out + e
    rows = [(num, den) for num in brackets[1:-1]]
    inner_tail = Tail(inner, r_in + f.inner_tail.rate + alpha)
    return _image("commutator", "bracket", ctx, lo, e, rows, inner_tail, outer, rate)


def _symbol_ratios(b: RadialStepFunction, lo: int, hi: int) -> list[tuple[int, int]]:
    """b on the shells lo, ..., hi as exact ratios: the window coefficients
    and, on each tail's shells, :func:`_tail_ratio`."""
    p = b.ctx.p
    j_min, j_max = b.window
    return [
        *[_tail_ratio(p, *b.inner_tail, k) for k in range(lo, min(hi + 1, j_min))],
        *[c.as_integer_ratio() for c in b.coeffs[max(lo - j_min, 0) : max(hi - j_min + 1, 0)]],
        *[_tail_ratio(p, *b.outer_tail, k) for k in range(max(lo, j_max + 1), hi + 1)],
    ]


def _tail_ratio(p: int, amplitude: float, rate: float, k: int) -> tuple[int, int]:
    """amplitude * p**(k*rate) as an exact ratio where k*rate is an integer
    below 1100 in size, else the amplitude times the float ``ppow(p,
    k*rate)`` with the product left unrounded. A power past the float range
    raises NumericOverflowError."""
    power = k * rate
    if power.is_integer() and abs(power) < 1100:
        a, d = amplitude.as_integer_ratio()
        power = int(power)
        return (a * p**power, d) if power >= 0 else (a, d * p**-power)
    return _product(amplitude, ppow(p, power), f"the symbol on shell {k}")


def _inner_bracket(
    ctx, symbol: Tail, f_tail: Tail, m: int
) -> tuple[float, tuple[int, int]]:
    """The bracket below both windows, where b and f follow their inner
    tails: B(k) = C * p**(k*s) with s = r_b + r_f + n and

        C = a_b * a_f * |S_0| * (1 / (1 - p**-(r_f + n)) - 1 / (1 - p**-s)),

    which vanishes at r_b = 0. Returns C as a float and B(m) as an exact
    ratio. At integer rates both are exact before C's one rounding; at
    other rates C is formed without cancellation through expm1, from the
    amplitudes' mantissas and scaled by their exponents once, and B(m) is
    that times ``ppow(p, m*s)``, unrounded. A divergent s <= 0 raises
    DomainError.
    """
    (a_b, r_b), (a_f, r_f) = symbol, f_tail
    if a_f == 0.0:
        return 0.0, (0, 1)
    p, n = ctx.p, ctx.n
    s_f, s = r_f + n, r_b + r_f + n
    if s <= 0:
        raise DomainError(
            f"the inner tail of b * f, at rate {r_b + r_f}, is not integrable "
            f"in dimension {n} (needs rate > {-n})"
        )
    if r_b.is_integer() and r_f.is_integer():
        s_f, s = int(s_f), int(s)
        (nb, db), (nf, df) = a_b.as_integer_ratio(), a_f.as_integer_ratio()
        q = p**n
        num = nb * nf * (q - 1) * (p**s - p**s_f)
        den = db * df * q * (p**s_f - 1) * (p**s - 1)
        c = _float_value(num, den)
        return c, ((num * p ** (m * s), den) if m * s >= 0 else (num, den * p ** -(m * s)))
    log_p = math.log(p)
    # p**-s_f - p**-s, with the smaller power factored out
    rise = ppow(p, -min(s_f, s)) * -math.expm1(-abs(r_b) * log_p)
    if r_b < 0:
        rise = -rise
    # the amplitudes' mantissas, so that no product leaves the normal range
    # before the one scaling by 2**scale
    (m_b, e_b), (m_f, e_f) = math.frexp(a_b), math.frexp(a_f)
    scale = e_b + e_f
    c = m_b * m_f * _unit_mass(ctx) * rise / (math.expm1(-s_f * log_p) * math.expm1(-s * log_p))
    num, den = _product(c, ppow(p, m * s), f"the bracket on shell {m}")
    try:
        c = math.ldexp(c, scale)
    except OverflowError:
        c = math.inf
    return c, ((num << scale, den) if scale >= 0 else (num, den << -scale))


def _product(x: float, y: float, what: str) -> tuple[int, int]:
    """x * y as an exact ratio, with no rounding of the product. A factor
    past the float range raises NumericOverflowError, naming ``what``."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NumericOverflowError(f"{what} overflows the float range")
    (a, d), (b, e) = x.as_integer_ratio(), y.as_integer_ratio()
    return a * b, d * e
