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
above it. Derived exponents (conjugate, Sobolev shift) and the regularity
checkers for the log-Holder-type classes live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import DomainError, HypothesisViolationError, TailCombinationError
from .padic import (
    PadicContext,
    PadicPoint,
    _sphere_measure_unchecked,
    ball_measure,
    ppow,
)


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
    functions compare equal.
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
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        inner = _normalize_tail(self.inner_tail)
        outer = _normalize_tail(self.outer_tail)
        object.__setattr__(self, "inner_tail", inner)
        object.__setattr__(self, "outer_tail", outer)
        if self.value_at_zero is None:
            vz = inner.amplitude if inner.rate == 0.0 else 0.0
            object.__setattr__(self, "value_at_zero", vz)
        else:
            object.__setattr__(self, "value_at_zero", float(self.value_at_zero))

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

    def value_at(self, x: PadicPoint) -> float:
        """Value at a point; the origin uses ``value_at_zero``."""
        k = x.shell
        if k is None:
            return self.value_at_zero
        return self.evaluate(k)

    def scale(self, c: float) -> "RadialStepFunction":
        """Pointwise scalar multiple c * f."""
        c = float(c)
        return RadialStepFunction(
            self.ctx,
            self.window,
            tuple(c * v for v in self.coeffs),
            Tail(c * self.inner_tail.amplitude, self.inner_tail.rate),
            Tail(c * self.outer_tail.amplitude, self.outer_tail.rate),
            c * self.value_at_zero,
        )

    def absolute(self) -> "RadialStepFunction":
        """Pointwise absolute value |f|; tail rates are unchanged."""
        return RadialStepFunction(
            self.ctx,
            self.window,
            tuple(abs(v) for v in self.coeffs),
            Tail(abs(self.inner_tail.amplitude), self.inner_tail.rate),
            Tail(abs(self.outer_tail.amplitude), self.outer_tail.rate),
            abs(self.value_at_zero),
        )


def _normalize_tail(tail) -> Tail:
    amplitude, rate = tail
    amplitude = float(amplitude)
    rate = float(rate)
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
        coeffs = tuple(f.evaluate(k) + g.evaluate(k) for k in range(j_min, j_max + 1))
        vz = f.value_at_zero + g.value_at_zero
    else:
        coeffs = tuple(f.evaluate(k) * g.evaluate(k) for k in range(j_min, j_max + 1))
        vz = f.value_at_zero * g.value_at_zero
    return RadialStepFunction(f.ctx, (j_min, j_max), coeffs, inner, outer, vz)


def _exact_unit_mass(ctx: PadicContext) -> Fraction:
    """|S_0| = 1 - p**(-n), exactly."""
    return 1 - Fraction(ctx.p) ** (-ctx.n)


def _unit_mass(ctx: PadicContext) -> float:
    """|S_0| = 1 - p**(-n) as a correctly rounded float."""
    return float(_exact_unit_mass(ctx))


def _inner_tail_integral(f: RadialStepFunction, upto: int) -> tuple[Fraction, float]:
    """Sum of tail_value(k) * |S_k| over shells k <= upto of the inner law.

    Returns an (exact, inexact) pair: the value lands in the exact slot when
    the geometric ratio is a rational power of p (integer rate), else in the
    float slot. Raises :class:`DomainError` for a non-integrable tail.
    """
    amplitude, rate = f.inner_tail
    if amplitude == 0.0:
        return Fraction(0), 0.0
    p, n = f.ctx.p, f.ctx.n
    s = rate + n
    if s <= 0:
        raise DomainError(
            f"inner tail rate {rate} is not integrable in dimension {n} "
            f"(needs rate > {-n})"
        )
    unit_mass = _exact_unit_mass(f.ctx)
    if float(s).is_integer():
        r = Fraction(p) ** int(s)
        total = Fraction(amplitude) * unit_mass * r ** (upto + 1) / (r - 1)
        return total, 0.0
    r = math.pow(p, s)
    return Fraction(0), amplitude * float(unit_mass) * ppow(p, s * (upto + 1)) / (r - 1.0)


def _outer_tail_integral(f: RadialStepFunction, beyond: int) -> tuple[Fraction, float]:
    """Sum of tail_value(k) * |S_k| over shells k > beyond of the outer law."""
    amplitude, rate = f.outer_tail
    if amplitude == 0.0:
        return Fraction(0), 0.0
    p, n = f.ctx.p, f.ctx.n
    s = rate + n
    if s >= 0:
        raise DomainError(
            f"outer tail rate {rate} is not integrable in dimension {n} "
            f"(needs rate < {-n})"
        )
    unit_mass = _exact_unit_mass(f.ctx)
    if float(s).is_integer():
        r = Fraction(p) ** int(s)
        total = Fraction(amplitude) * unit_mass * r ** (beyond + 1) / (1 - r)
        return total, 0.0
    r = math.pow(p, s)
    return Fraction(0), amplitude * float(unit_mass) * ppow(p, s * (beyond + 1)) / (1.0 - r)


def _integral_parts(f: RadialStepFunction, gamma: int) -> tuple[Fraction, float]:
    """Integral of f over B_gamma as an (exact, inexact) pair."""
    j_min, j_max = f.window
    exact, inexact = _inner_tail_integral(f, min(gamma, j_min - 1))
    for k in range(j_min, min(gamma, j_max) + 1):
        exact += Fraction(f.coeffs[k - j_min]) * _sphere_measure_unchecked(k, f.ctx)
    amplitude, rate = f.outer_tail
    if amplitude != 0.0 and gamma > j_max:
        p = f.ctx.p
        if float(rate).is_integer():
            step = Fraction(p) ** int(rate)
            for k in range(j_max + 1, gamma + 1):
                exact += (
                    Fraction(amplitude)
                    * step**k
                    * _sphere_measure_unchecked(k, f.ctx)
                )
        else:
            for k in range(j_max + 1, gamma + 1):
                inexact += (
                    amplitude
                    * ppow(p, k * rate)
                    * float(_sphere_measure_unchecked(k, f.ctx))
                )
    return exact, inexact


def ball_integral(f: RadialStepFunction, gamma: int) -> float:
    """Integral of f over the ball B_gamma, with the inner tail summed analytically."""
    exact, inexact = _integral_parts(f, gamma)
    return float(exact) + inexact


def total_integral(f: RadialStepFunction) -> float:
    """Integral of f over the whole space; both tails summed analytically."""
    exact, inexact = _integral_parts(f, f.window[1])
    exact2, inexact2 = _outer_tail_integral(f, f.window[1])
    return float(exact + exact2) + inexact + inexact2


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
    measure = ball_measure(gamma, f.ctx)
    exact, inexact = _integral_parts(f, gamma)
    if inexact == 0.0:
        return float(exact / measure)
    return float(exact / measure) + inexact / float(measure)


@dataclass(frozen=True)
class ExponentSummary:
    """Scalar summary of a variable exponent: extremes and value at infinity."""

    u_minus: float
    u_plus: float
    u_infinity: float
    admissible_for_conjugation: bool


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
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
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

    def value_at(self, x: PadicPoint) -> float:
        """Exponent at a point; the origin takes the inner value."""
        k = x.shell
        if k is None:
            return self.u_inner
        return self.evaluate(k)

    @property
    def u_minus(self) -> float:
        return min(self.u_inner, self.u_infinity, min(self.values))

    @property
    def u_plus(self) -> float:
        return max(self.u_inner, self.u_infinity, max(self.values))

    def summary(self) -> ExponentSummary:
        return ExponentSummary(
            u_minus=self.u_minus,
            u_plus=self.u_plus,
            u_infinity=self.u_infinity,
            admissible_for_conjugation=self.u_minus > 1.0,
        )

    def map_pieces(self, fn: Callable[[float], float]) -> "ExponentFunction":
        """Apply fn to every piece, keeping the window structure."""
        return ExponentFunction(
            self.ctx,
            self.window,
            tuple(fn(v) for v in self.values),
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


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of a regularity-class scan.

    ``constant`` is the extremal constant found over the scanned structure
    and ``witness`` the shell configuration achieving it (empty when the
    constant is 0). A windowed exponent is constant outside its window, so
    the scan is exhaustive and the constant exact for these inputs.
    """

    mode: str
    constant: float
    witness: tuple[int, ...]


def _log_weight(p: int, shell: int) -> float:
    """log_p(p + p**shell), the decay weight at the norm scale p**shell."""
    return math.log(p + ppow(p, shell), p)


def check_regularity(u: ExponentFunction, mode: str) -> RegularityReport:
    """Scan a variable exponent against one of the regularity classes.

    Modes:
        ``"W0"``: oscillation of u over small central balls B_gamma
            (gamma <= -1) weighted by |gamma|; off-center small balls sit
            inside a single sphere where a radial exponent is constant, so
            central balls are the only contributors.
        ``"Winfty"``: |u(j1) - u(j2)| weighted by log_p(p + p**min(j1,j2))
            over shell pairs.
        ``"Lipschitz"``: minimal L with |u(j1) - u(j2)| <= L * p**max(j1,j2);
            two distinct shells contain points at distance exactly
            p**max(j1,j2), which makes that the binding modulus.

    The Winfty and Lipschitz scans cover the window plus one shell on each
    side: u is constant below and above the window, so those two shells
    already reach every value pair, at the largest weight below the window
    and the smallest modulus above it, and the constant is exact. A single
    windowed exponent always has a finite constant; families with growing
    windows reveal unbounded constants through the reported values.
    """
    if mode == "W0":
        return _check_w0(u)
    if mode == "Winfty":
        return _check_winfty(u)
    if mode == "Lipschitz":
        return _check_lipschitz(u)
    raise DomainError(f"mode must be 'W0', 'Winfty' or 'Lipschitz', got {mode!r}")


def _check_w0(u: ExponentFunction) -> RegularityReport:
    j_min = u.window[0]
    best = 0.0
    witness: tuple[int, ...] = ()
    running_min = u.u_inner
    running_max = u.u_inner
    for gamma in range(j_min, 0):
        value = u.evaluate(gamma)
        running_min = min(running_min, value)
        running_max = max(running_max, value)
        candidate = abs(gamma) * (running_max - running_min)
        if candidate > best:
            best = candidate
            witness = (gamma,)
    return RegularityReport("W0", best, witness)


def _scan_shells(u: ExponentFunction) -> range:
    j_min, j_max = u.window
    return range(j_min - 1, j_max + 2)


def _check_winfty(u: ExponentFunction) -> RegularityReport:
    shells = _scan_shells(u)
    p = u.ctx.p
    best = 0.0
    witness: tuple[int, ...] = ()
    for j1 in shells:
        weight = _log_weight(p, j1)
        for j2 in shells:
            if j2 <= j1:
                continue
            candidate = abs(u.evaluate(j1) - u.evaluate(j2)) * weight
            if candidate > best:
                best = candidate
                witness = (j1, j2)
    return RegularityReport("Winfty", best, witness)


def _check_lipschitz(u: ExponentFunction) -> RegularityReport:
    shells = _scan_shells(u)
    p = u.ctx.p
    best = 0.0
    witness: tuple[int, ...] = ()
    for j1 in shells:
        for j2 in shells:
            if j2 <= j1:
                continue
            gap = abs(u.evaluate(j1) - u.evaluate(j2))
            if gap == 0.0:
                continue
            candidate = gap / ppow(p, j2)
            if candidate > best:
                best = candidate
                witness = (j1, j2)
    return RegularityReport("Lipschitz", best, witness)
