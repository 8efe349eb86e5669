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

The commutator [b, H_a] f = b * H_a f - H_a (b f) is assembled from the
pointwise algebra in :mod:`ultraherz.radial`, so tail-mismatch errors from
there propagate unchanged.

The maximal operator uses the ultrametric dichotomy: a ball containing x
either contains the origin (a central ball B_g with g >= shell(x)) or sits
inside the sphere of x, where a radial |f| is constant. Hence

    (M f)(x) = max(|F(k)|, sup over g >= k of mean(|f|, B_g)),  k = shell(x),

and the supremum is an exact suffix maximum because the ball means decay
like p**(-n*g) above the support window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ClassClosureError, DomainError
from .padic import ppow
from .radial import RadialStepFunction, Tail, _unit_mass, ball_integral, combine

_KINDS = ("hardy", "adjoint", "commutator", "maximal")


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
        if not math.isfinite(self.alpha):
            raise DomainError(f"operator order must be finite, got {self.alpha}")
        if self.kind == "commutator" and self.symbol is None:
            raise DomainError("commutator requires a symbol function")
        if self.kind == "maximal" and self.alpha != 0.0:
            raise DomainError("the maximal operator takes no order parameter")


def apply_operator(spec: OperatorSpec, f: RadialStepFunction) -> RadialStepFunction:
    """Apply the operator described by ``spec`` to ``f``."""
    if spec.kind == "hardy":
        return hardy(f, spec.alpha)
    if spec.kind == "adjoint":
        return hardy_adjoint(f, spec.alpha)
    if spec.kind == "commutator":
        assert spec.symbol is not None
        return commutator(spec.symbol, f, spec.alpha)
    return maximal(f)


def _require_integrable_inner(f: RadialStepFunction) -> None:
    amplitude, rate = f.inner_tail
    if amplitude != 0.0 and rate <= -f.ctx.n:
        raise DomainError(
            f"inner tail rate {rate} is not integrable in dimension {f.ctx.n}; "
            f"ball integrals through the origin diverge"
        )


def hardy(f: RadialStepFunction, alpha: float) -> RadialStepFunction:
    """The fractional Hardy operator H_alpha applied to f.

    On the sphere S_k the output is p**(k*(alpha - n)) times the ball
    integral of f over B_k. Below the input window that integral is a pure
    geometric tail, so the output tail has rate e_in + alpha; above it the
    integral is the constant total (the outer tail of f must vanish, or the
    output would carry two growth rates at once).

    Examples:
        >>> from .padic import PadicContext
        >>> ctx = PadicContext(2, 1)
        >>> g = hardy(RadialStepFunction.indicator_ball(ctx, 0), 0.0)
        >>> g.evaluate(-3), g.evaluate(0), g.evaluate(2)
        (1.0, 1.0, 0.25)
    """
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    if f.outer_tail.amplitude != 0.0:
        raise ClassClosureError(
            "hardy needs a vanishing outer tail: above the window the ball "
            "integral would mix a constant with the tail's own growth; widen "
            "the explicit window instead"
        )
    _require_integrable_inner(f)
    j_min, j_max = f.window

    lo, hi = j_min - 1, j_max + 1
    coeffs = tuple(
        ppow(p, k * (alpha - n)) * ball_integral(f, k) for k in range(lo, hi + 1)
    )

    amplitude, rate = f.inner_tail
    if amplitude == 0.0:
        inner = Tail(0.0, 0.0)
    else:
        scale = _unit_mass(ctx) / (1.0 - ppow(p, -(rate + n)))
        inner = Tail(amplitude * scale, rate + alpha)
    total = ball_integral(f, j_max)
    outer = Tail(total, alpha - n)
    return RadialStepFunction(ctx, (lo, hi), coeffs, inner, outer)


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
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    if f.inner_tail.amplitude != 0.0:
        raise ClassClosureError(
            "adjoint needs a vanishing inner tail: below the window the "
            "accumulated mass would ride a constant on top of a power; widen "
            "the explicit window instead"
        )
    amplitude, rate = f.outer_tail
    if amplitude != 0.0 and rate + alpha >= 0:
        raise DomainError(
            f"outer tail rate {rate} with order {alpha} makes the defining "
            f"integral divergent (needs rate + alpha < 0)"
        )
    mass = _unit_mass(ctx)
    j_min, j_max = f.window
    lo, hi = j_min - 1, j_max + 1

    if amplitude != 0.0:
        s = rate + alpha
        outer_amp = amplitude * mass * ppow(p, s) / (1.0 - ppow(p, s))
        outer = Tail(outer_amp, s)
        j_top = hi
        value = outer_amp * ppow(p, hi * s)
    else:
        outer = Tail(0.0, 0.0)
        j_top = hi
        value = 0.0

    values: dict[int, float] = {j_top: value}
    for k in range(j_top - 1, lo - 1, -1):
        value = value + mass * f.evaluate(k + 1) * ppow(p, (k + 1) * alpha)
        values[k] = value
    coeffs = tuple(values[k] for k in range(lo, hi + 1))
    inner = Tail(values[lo], 0.0)
    return RadialStepFunction(ctx, (lo, hi), coeffs, inner, outer)


def commutator(
    b: RadialStepFunction, f: RadialStepFunction, alpha: float
) -> RadialStepFunction:
    """The commutator [b, H_alpha] f = b * (H_alpha f) - H_alpha (b * f).

    Both products and the difference are computed in the closed class, so
    tail-combination and class-closure errors from the building blocks
    propagate to the caller.
    """
    left = combine(b, hardy(f, alpha), "multiply")
    right = hardy(combine(b, f, "multiply"), alpha)
    return combine(left, right.scale(-1.0), "add")


def maximal(f: RadialStepFunction) -> RadialStepFunction:
    """The central maximal function of f, exactly.

    Above the support window the ball means decay like p**(-n*g), so the
    suffix supremum is a backward recursion with an explicit seed. Below the
    window the means follow the inner tail's power law; the output freezes
    at the global mean level once the pointwise values drop beneath it, with
    the window widened down to that crossover shell.
    """
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    if f.outer_tail.amplitude != 0.0:
        raise ClassClosureError(
            "maximal needs a vanishing outer tail: the suffix of ball means "
            "would mix two decay rates; widen the explicit window instead"
        )
    _require_integrable_inner(f)
    g = f.absolute()
    j_min, j_max = f.window
    mass = _unit_mass(ctx)

    total = ball_integral(g, j_max)
    integrals: dict[int, float] = {}
    running = ball_integral(g, j_min - 1)
    for k in range(j_min, j_max + 1):
        running += g.evaluate(k) * mass * ppow(p, n * k)
        integrals[k] = running

    suffix = total * ppow(p, -n * (j_max + 1))
    suffix_at: dict[int, float] = {}
    for k in range(j_max, j_min - 1, -1):
        suffix = max(integrals[k] * ppow(p, -n * k), suffix)
        suffix_at[k] = suffix
    s_window = suffix_at[j_min]

    coeffs = [max(g.evaluate(k), suffix_at[k]) for k in range(j_min, j_max + 1)]
    outer = Tail(total, -n)
    value_at_zero: float | None = None

    amplitude, rate = g.inner_tail
    lo = j_min
    if amplitude == 0.0:
        inner = Tail(s_window, 0.0)
    elif rate == 0.0:
        inner = Tail(max(amplitude, s_window), 0.0)
    elif rate > 0.0:
        mu_below = amplitude * mass / (1.0 - ppow(p, -(rate + n)))
        s_const = max(mu_below * ppow(p, (j_min - 1) * rate), s_window)
        k_star = _crossover(
            lambda k: amplitude * ppow(p, k * rate) <= s_const, j_min - 1, rate
        )
        front = [
            max(amplitude * ppow(p, k * rate), s_const)
            for k in range(k_star + 1, j_min)
        ]
        coeffs = front + coeffs
        lo = k_star + 1
        inner = Tail(s_const, 0.0)
    else:
        mu_scale = amplitude * mass / (1.0 - ppow(p, -(rate + n)))
        k_dag = _crossover(
            lambda k: mu_scale * ppow(p, k * rate) >= s_window, j_min - 1, rate
        )
        front = [s_window for _ in range(k_dag + 1, j_min)]
        coeffs = front + coeffs
        lo = k_dag + 1
        inner = Tail(mu_scale, rate)
        value_at_zero = math.inf

    return RadialStepFunction(
        ctx, (lo, j_max), tuple(coeffs), inner, outer, value_at_zero=value_at_zero
    )


def _crossover(holds_at, start: int, rate: float) -> int:
    """Largest shell k <= start at which the monotone predicate holds.

    The predicate compares two power laws, so it holds on a half-line of
    shells; walk from ``start`` toward it and then confirm the boundary.
    """
    k = start
    steps = 0
    limit = max(1000, math.ceil(64.0 / abs(rate)) + 1000)
    while not holds_at(k):
        k -= 1
        steps += 1
        if steps > limit:
            raise DomainError(
                "maximal crossover search failed to localize; the inner tail "
                "rate is too close to zero"
            )
    return k


def shell_diagonal(f: RadialStepFunction, g: RadialStepFunction, alpha: float) -> float:
    """The diagonal correction sum_k F(k) G(k) p**(k*(alpha-n)) |S_k|**2.

    Pairing one function against the Hardy image of another double-counts
    the shell where both arguments live, because that shell has positive
    measure; this sum is exactly the discrepancy between the two pairings.
    Tails are summed analytically; a divergent configuration raises
    DomainError.
    """
    if f.ctx != g.ctx:
        raise DomainError("functions live in different contexts")
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    mass = _unit_mass(ctx)
    w_lo = min(f.window[0], g.window[0])
    w_hi = max(f.window[1], g.window[1])
    total = 0.0
    for k in range(w_lo, w_hi + 1):
        term = f.evaluate(k) * g.evaluate(k)
        if term != 0.0:
            total += term * ppow(p, k * (alpha - n)) * (mass * ppow(p, n * k)) ** 2

    a_f, e_f = f.inner_tail
    a_g, e_g = g.inner_tail
    if a_f != 0.0 and a_g != 0.0:
        s = e_f + e_g + alpha + n
        if s <= 0:
            raise DomainError("shell diagonal diverges at the origin")
        total += a_f * a_g * mass**2 * ppow(p, s * w_lo) / (ppow(p, s) - 1.0)
    a_f, e_f = f.outer_tail
    a_g, e_g = g.outer_tail
    if a_f != 0.0 and a_g != 0.0:
        s = e_f + e_g + alpha + n
        if s >= 0:
            raise DomainError("shell diagonal diverges at infinity")
        total += a_f * a_g * mass**2 * ppow(p, s * (w_hi + 1)) / (1.0 - ppow(p, s))
    return total
