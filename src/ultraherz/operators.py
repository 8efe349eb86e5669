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

The commutator [b, H_a] f = b * H_a f - H_a (b f) is that composition
through the pointwise algebra of :mod:`ultraherz.radial`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import count, islice

from .errors import ClassClosureError, DomainError, NumericUnderflowError
from .padic import ppow
from .radial import (
    RadialStepFunction,
    ZERO_TAIL,
    Tail,
    _built,
    _float_value,
    _geometric_tail,
    _running_parts,
    _unit_mass,
    combine,
)

_MIN_NORMAL = sys.float_info.min

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
    output would carry two growth rates at once). Where an integral's float
    is subnormal or p**(k*(alpha - n)) saturates to inf, the exact integral
    is scaled before rounding (see :func:`_scaled`). The built image is
    judged first (a coefficient still past the float range raises
    NumericOverflowError, a window end past the shell limit DomainError);
    then a nonzero exact total integral, the outer tail's amplitude, that
    rounds to 0.0 raises NumericUnderflowError.

    Examples:
        >>> from .padic import PadicContext
        >>> ctx = PadicContext(2, 1)
        >>> g = hardy(RadialStepFunction.indicator_ball(ctx, 0), 0.0)
        >>> g.evaluate(-3), g.evaluate(0), g.evaluate(2)
        (1.0, 1.0, 0.25)
    """
    _check_order(alpha)
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    if f.outer_tail.amplitude != 0.0:
        raise ClassClosureError(
            "hardy needs a vanishing outer tail: above the window the ball "
            "integral would mix a constant with the tail's own growth; widen "
            "the explicit window instead"
        )
    j_min, j_max = f.window

    lo, hi = j_min - 1, j_max + 1
    parts = list(islice(_running_parts(f, lo), hi - lo + 1))
    try:
        integrals = [num / den + inexact for num, den, inexact in parts]
    except OverflowError:
        integrals = [math.inf]
    if not all(map(math.isfinite, integrals)):
        integrals = [_float_value(*part) for part in parts]
    e = alpha - n
    coeffs = [
        c if (abs(v) >= _MIN_NORMAL or not part[0]) and math.isfinite(c := ppow(p, k * e) * v)
        else _scaled(p, k * e, v, part)
        for k, v, part in zip(count(lo), integrals, parts)
    ]

    amplitude, rate = f.inner_tail
    if amplitude == 0.0:
        inner = ZERO_TAIL
    else:
        # the tail integrates to amplitude * scale * p**(k*(rate + n)) over B_k
        scale = _geometric_tail(_unit_mass(ctx), p, -(rate + n), 0, below=False)
        inner = Tail(amplitude * scale, rate + alpha)
    # The outer tail vanishes, so B_hi already holds the total integral; an
    # int order makes e an int, which the tail holds as a float.
    image = _built(ctx, (lo, hi), coeffs, inner, Tail(integrals[-1], float(e)))
    num, _, inexact = parts[-1]
    if integrals[-1] == 0.0 and num and not inexact:
        raise NumericUnderflowError(
            f"the outer tail amplitude of the hardy image, the integral over "
            f"B_{hi}, is not zero but rounds to 0.0"
        )
    return image


def _scaled(p: int, e: float, value: float, part: tuple[int, int, float]) -> float:
    """p**e times the ball integral held by ``part``, whose float ``value`` is
    0.0 or subnormal though its exact part is not, or whose float product
    is not finite: an exact zero gives 0.0, else the integral is scaled by
    2**s into the normal range before rounding and the product by 2**-s.
    If that is not finite, the exact integral is scaled by p**floor(e)
    before its one rounding (inf past the float range), then by p**(e - floor(e)).
    """
    num, den, inexact = part
    if not num and not inexact:
        return 0.0
    coefficient = ppow(p, e) * value
    # 2**s * |num / den| and 2**s * |inexact| lie below 2**min_exp
    s = den.bit_length() - abs(num).bit_length() + sys.float_info.min_exp
    if inexact:
        s = min(s, sys.float_info.min_exp - math.frexp(inexact)[1])
    if num and s > 0 and abs(value) < _MIN_NORMAL:
        coefficient = math.ldexp(ppow(p, e) * ((num << s) / den + math.ldexp(inexact, s)), -s)
    if math.isfinite(coefficient):
        return coefficient
    # e > 0 here: p**e <= 1 times a finite integral is finite. Past the
    # float range by the log2 of the exact value, known to within a bit,
    # the answer is inf without forming p**whole; p**0.0 is 1.0 exactly
    whole = math.floor(e)
    top, bottom = inexact.as_integer_ratio()
    top, bottom = num * bottom + top * den, den * bottom
    if top.bit_length() - bottom.bit_length() + whole * math.log2(p) > 1100:
        return math.inf
    try:
        exact = top * p**whole / bottom
    except OverflowError:
        return math.inf
    return exact * ppow(p, e - whole)


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
        value = value + mass * c * (ppow(p, j * alpha) if c else 1.0)
        coeffs.append(value)
    coeffs.reverse()
    return _built(ctx, (lo, hi), coeffs, Tail(coeffs[0], 0.0), outer)


def commutator(
    b: RadialStepFunction, f: RadialStepFunction, alpha: float
) -> RadialStepFunction:
    """The commutator [b, H_alpha] f = b * (H_alpha f) - H_alpha (b * f).

    Formed as written, through ``combine``, ``hardy`` and ``scale``: the
    product b * (H f), then H(b f), negated, added to it. Each step checks
    only what it computes, so the image has the bits of that composition
    and raises what it raises, in its order.
    """
    return combine(
        combine(b, hardy(f, alpha), "multiply"),
        hardy(combine(b, f, "multiply"), alpha).scale(-1.0),
        "add",
    )
