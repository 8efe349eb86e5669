"""Variable-exponent norms for the radial class.

Everything here reduces to shell sums. For a radial function f with value
F(k) on the sphere S_k and a radial exponent u(.), the modular is

    rho(f) = sum_k |F(k)|**u(k) * |S_k|,

with both infinite tails summed analytically as geometric series (the tail
rates of f and the tail values of u are constant, so each tail contributes
a single geometric series). The Luxemburg norm inverts the strictly
decreasing map lam -> rho(f/lam) by bracketing and bisection. Herz and
Morrey-Herz norms are weighted l^m sums of exact single-shell norms, again
with analytic tails; the Morrey-Herz supremum over the cutoff index is
certified by closed-form envelopes outside a finite scan. The central
mean-oscillation norm runs a certified scan over ball radii.

Divergence is reported through ``NormResult.convergent`` rather than
exceptions: an infinite norm is a meaningful answer here, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError
from .padic import PadicContext, ppow
from .radial import (
    ExponentFunction,
    RadialStepFunction,
    _integral_parts,
    _unit_mass,
    ball_integral,
    ball_mean,
)

#: Classification band for critically balanced geometric ratios. Ratios
#: within this distance of 1 are resolved to the boundary reading.
_CRITICAL_BAND = 1e-12

#: Relative threshold below which one tail summand is dominated by the other
#: in mixed power-plus-constant sums.
_MIXED_TOL = 1e-13

_SCAN_CAP = 400_000


@dataclass(frozen=True)
class HerzParams:
    """Herz-space parameters: shell weight exponent beta and l^m index m."""

    beta: float
    m: float

    def __post_init__(self) -> None:
        if not (self.m > 0 and math.isfinite(self.m)):
            raise DomainError(f"Herz index m must be positive and finite, got {self.m}")


@dataclass(frozen=True)
class MorreyHerzParams:
    """Morrey-Herz parameters.

    ``lam`` is the Morrey scaling exponent (lambda >= 0; 0 recovers the Herz
    norm exactly). ``prefactor_base`` is the base of the cutoff prefactor
    base**(-k0 * lam); None means the prime p of the ambient context.
    """

    beta: float
    m: float
    lam: float
    prefactor_base: float | None = None

    def __post_init__(self) -> None:
        if not (self.m > 0 and math.isfinite(self.m)):
            raise DomainError(f"Herz index m must be positive and finite, got {self.m}")
        if self.lam < 0:
            raise DomainError(f"lambda must be nonnegative, got {self.lam}")
        if self.prefactor_base is not None and not self.prefactor_base > 1:
            raise DomainError(
                f"prefactor base must exceed 1, got {self.prefactor_base}"
            )


@dataclass(frozen=True)
class NormResult:
    """A computed norm value with its convergence certificate.

    ``value`` is finite exactly when ``convergent`` is true (divergence is
    reported as ``math.inf``). ``tail_remainder_bound`` bounds whatever the
    finite computation could not pin down exactly: the bisection bracket
    half-width for Luxemburg-type norms, the leftover scan envelope for
    certified suprema, 0.0 for fully analytic sums. ``work_window`` is the
    shell range the computation actually touched.
    """

    value: float
    convergent: bool
    tail_remainder_bound: float
    work_window: tuple[int, int]


def _require_same_ctx(f: RadialStepFunction, u: ExponentFunction) -> None:
    if f.ctx != u.ctx:
        raise DomainError("function and exponent live in different contexts")


def _union_window(
    f: RadialStepFunction, u: ExponentFunction
) -> tuple[int, int]:
    return (
        min(f.window[0], u.window[0]),
        max(f.window[1], u.window[1]),
    )


# ---------------------------------------------------------------------------
# Modular and Luxemburg norm


def _modular_terms(
    f: RadialStepFunction,
    u: ExponentFunction,
    shift: float = 0.0,
    top: int | None = None,
) -> tuple[list[tuple[float, float]], float] | None:
    """The modular of (f - shift) restricted to B_top, as power-sum terms.

    Returns (terms, bound) with rho((f - shift) chi_{B_top} / lam) equal to
    sum w * lam**(-e) over the (w, e) terms, up to ``bound`` (nonzero only
    for a mixed inner sum, see :func:`_mixed_inner_sum`): one term per shell
    of the window and one closed-form term per tail. ``top`` None means the
    whole space and needs shift 0 (the outer-tail term ignores the shift).
    Returns None when a tail series diverges; convergence does not depend
    on lam, since each tail ratio is lam-free.
    """
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    mass = _unit_mass(ctx)
    w_lo, w_hi = _union_window(f, u)
    terms: list[tuple[float, float]] = []
    for k in range(w_lo, (w_hi if top is None else top) + 1):
        v = abs(f.evaluate(k) - shift)
        if v != 0.0:
            e = u.evaluate(k)
            terms.append((v**e * mass * ppow(p, n * k), e))

    amplitude, rate = f.inner_tail
    upto = w_lo - 1 if top is None else min(top, w_lo - 1)
    psi, bound = _mixed_inner_sum(ctx, amplitude, rate, shift, u.u_inner, upto)
    if not math.isfinite(psi):
        return None
    if psi != 0.0:
        terms.append((psi, u.u_inner))

    amplitude, rate = f.outer_tail
    if top is None and amplitude != 0.0:
        c = u.u_infinity
        s = rate * c + n
        if s >= 0:
            return None
        terms.append(
            (abs(amplitude) ** c * mass * ppow(p, s * (w_hi + 1)) / (1.0 - ppow(p, s)), c)
        )
    return terms, bound


def _modular_value(terms: list[tuple[float, float]], lam: float) -> float:
    """Sum of w * lam**(-e) over (w, e) terms: rho(f/lam) for the terms of f."""
    return sum((w * math.pow(lam, -e) for w, e in terms), 0.0)


def modular(f: RadialStepFunction, u: ExponentFunction) -> NormResult:
    """The modular rho(f): integral of |f(x)|**u(x).

    Examples:
        >>> ctx = PadicContext(2, 1)
        >>> u2 = ExponentFunction.constant(ctx, 2.0)
        >>> modular(RadialStepFunction.indicator_sphere(ctx, 0), u2).value
        0.5
    """
    _require_same_ctx(f, u)
    built = _modular_terms(f, u)
    value = math.inf if built is None else _modular_value(built[0], 1.0)
    return NormResult(value, math.isfinite(value), 0.0, _union_window(f, u))


def _check_rel_tol(rel_tol: float) -> None:
    if not (1e-14 < rel_tol < 1e-3):
        raise DomainError(f"rel_tol must lie in (1e-14, 1e-3), got {rel_tol}")


def _solve_luxemburg(
    modular_at: Callable[[float], float], rel_tol: float
) -> tuple[float, float]:
    """Invert the decreasing map lam -> modular_at(lam) at level 1.

    Returns (root estimate, bracket half-width). Brackets by doubling and
    halving from lam = 1, then bisects; the map is strictly decreasing and
    continuous wherever it is positive on this class.
    """
    g = modular_at(1.0)
    if g == 0.0:
        return 0.0, 0.0
    if g <= 1.0:
        hi = 1.0
        lo = 0.5
        while modular_at(lo) <= 1.0:
            hi = lo
            lo *= 0.5
            if lo < 1e-300:
                return 0.0, lo
    else:
        lo = 1.0
        hi = 2.0
        while modular_at(hi) > 1.0:
            lo = hi
            hi *= 2.0
            if hi > 1e300:
                return math.inf, math.inf
    for _ in range(200):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if modular_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def luxemburg_norm(
    f: RadialStepFunction, u: ExponentFunction, rel_tol: float = 1e-10
) -> NormResult:
    """The variable-Lebesgue norm inf{lam > 0 : rho(f/lam) <= 1}.

    Examples:
        >>> ctx = PadicContext(2, 1)
        >>> u2 = ExponentFunction.constant(ctx, 2.0)
        >>> f = RadialStepFunction.indicator_sphere(ctx, 0)
        >>> round(luxemburg_norm(f, u2).value, 10)
        0.7071067812
    """
    _require_same_ctx(f, u)
    _check_rel_tol(rel_tol)
    window = _union_window(f, u)
    built = _modular_terms(f, u)
    if built is None or not math.isfinite(_modular_value(built[0], 1.0)):
        return NormResult(math.inf, False, 0.0, window)
    terms = built[0]
    value, half = _solve_luxemburg(lambda lam: _modular_value(terms, lam), rel_tol)
    if not math.isfinite(value):
        return NormResult(math.inf, False, 0.0, window)
    return NormResult(value, True, half, window)


def single_shell_norm(coefficient: float, shell: int, u: ExponentFunction) -> float:
    """Closed-form norm of coefficient * indicator(S_shell): |c| * |S_shell|**(1/u(shell)).

    The modular of c*chi/lam is a single term (|c|/lam)**u(shell) * |S_shell|,
    so the Luxemburg infimum solves in closed form.
    """
    if coefficient == 0.0:
        return 0.0
    ctx = u.ctx
    exponent = u.evaluate(shell)
    mass = _unit_mass(ctx)
    return (
        abs(coefficient)
        * math.pow(mass, 1.0 / exponent)
        * ppow(ctx.p, ctx.n * shell / exponent)
    )


def ball_indicator_norm(
    u: ExponentFunction, gamma: int, rel_tol: float = 1e-10
) -> NormResult:
    """Norm of the ball indicator chi(B_gamma) in the variable Lebesgue space.

    The modular groups into one weight per distinct exponent piece, so it is
    evaluated in closed form; a constant exponent gives |B_gamma|**(1/u)
    directly, otherwise the grouped modular is bisected.
    """
    _check_rel_tol(rel_tol)
    ctx = u.ctx
    p, n = ctx.p, ctx.n
    j_min, j_max = u.window
    mass = _unit_mass(ctx)

    pieces: list[tuple[float, float]] = []
    inner_top = min(gamma, j_min - 1)
    pieces.append((ppow(p, n * inner_top), u.u_inner))
    for k in range(j_min, min(gamma, j_max) + 1):
        pieces.append((mass * ppow(p, n * k), u.evaluate(k)))
    if gamma > j_max:
        pieces.append((ppow(p, n * gamma) - ppow(p, n * j_max), u.u_infinity))

    exponents = {e for _, e in pieces}
    if len(exponents) == 1:
        e = exponents.pop()
        return NormResult(ppow(p, n * gamma / e), True, 0.0, (inner_top, gamma))

    value, half = _solve_luxemburg(lambda lam: _modular_value(pieces, lam), rel_tol)
    if not math.isfinite(value):
        return NormResult(math.inf, False, 0.0, (inner_top, gamma))
    return NormResult(value, True, half, (inner_top, gamma))


# ---------------------------------------------------------------------------
# Herz and Morrey-Herz norms


def _herz_slopes(
    f: RadialStepFunction, u: ExponentFunction, beta: float
) -> tuple[float, float]:
    """Per-shell growth rates of the Herz terms in both tail regions.

    Below the window the term t_l = p**(l*beta) * |F(l)| * |S_l|**(1/u(l))
    equals a constant times p**(l * s_in) with s_in = beta + e_in + n/u_inner;
    above, the rate is s_out = beta + e_out + n/u_infinity.
    """
    n = f.ctx.n
    s_in = beta + f.inner_tail.rate + n / u.u_inner
    s_out = beta + f.outer_tail.rate + n / u.u_infinity
    return s_in, s_out


def _herz_tail_amplitude(amplitude: float, exponent: float, mass: float) -> float:
    return abs(amplitude) * math.pow(mass, 1.0 / exponent)


def herz_norm(
    f: RadialStepFunction, u: ExponentFunction, hp: HerzParams
) -> NormResult:
    """The Herz norm ( sum_l (p**(l*beta) * ||f restricted to S_l||)**m )**(1/m).

    Single-shell norms are exact closed forms, the window part is summed
    termwise and both tails are geometric series in the shell index.

    Examples:
        >>> ctx = PadicContext(2, 1)
        >>> u2 = ExponentFunction.constant(ctx, 2.0)
        >>> f = RadialStepFunction.indicator_sphere(ctx, 0)
        >>> round(herz_norm(f, u2, HerzParams(beta=1.5, m=3.0)).value, 10)
        0.7071067812
    """
    _require_same_ctx(f, u)
    p = f.ctx.p
    mass = _unit_mass(f.ctx)
    w_lo, w_hi = _union_window(f, u)
    m, beta = hp.m, hp.beta

    total = 0.0
    for shell in range(w_lo, w_hi + 1):
        t = ppow(p, shell * beta) * single_shell_norm(f.evaluate(shell), shell, u)
        if t != 0.0:
            total += t**m

    s_in, s_out = _herz_slopes(f, u, beta)
    if f.inner_tail.amplitude != 0.0:
        if s_in <= 0:
            return NormResult(math.inf, False, 0.0, (w_lo, w_hi))
        c = _herz_tail_amplitude(f.inner_tail.amplitude, u.u_inner, mass)
        total += c**m * ppow(p, m * s_in * w_lo) / (ppow(p, m * s_in) - 1.0)
    if f.outer_tail.amplitude != 0.0:
        if s_out >= 0:
            return NormResult(math.inf, False, 0.0, (w_lo, w_hi))
        c = _herz_tail_amplitude(f.outer_tail.amplitude, u.u_infinity, mass)
        total += c**m * ppow(p, m * s_out * (w_hi + 1)) / (1.0 - ppow(p, m * s_out))

    value = math.pow(total, 1.0 / m) if math.isfinite(total) else math.inf
    return NormResult(value, math.isfinite(value), 0.0, (w_lo, w_hi))


def morrey_herz_norm(
    f: RadialStepFunction, u: ExponentFunction, mhp: MorreyHerzParams
) -> NormResult:
    """The Morrey-Herz norm sup over the cutoff k0 of
    base**(-k0*lam) * ( sum_{l <= k0} (p**(l*beta) * ||f on S_l||)**m )**(1/m).

    lam = 0 short-circuits to :func:`herz_norm` (the partial sums increase
    to the full sum, so the sup is the Herz value exactly). For lam > 0 the
    finite scan over k0 is certified: outside it the candidate sequence is
    dominated by closed-form geometric envelopes whose monotone decay bounds
    every unscanned cutoff.
    """
    _require_same_ctx(f, u)
    if mhp.lam == 0:
        return herz_norm(f, u, HerzParams(mhp.beta, mhp.m))

    ctx = f.ctx
    p, n = ctx.p, ctx.n
    base = float(mhp.prefactor_base) if mhp.prefactor_base is not None else float(p)
    mass = _unit_mass(ctx)
    m, beta, lam = mhp.m, mhp.beta, mhp.lam
    w_lo, w_hi = _union_window(f, u)
    s_in, s_out = _herz_slopes(f, u, beta)
    log_base = math.log(base)

    def tau(shell: int) -> float:
        t = ppow(p, shell * beta) * single_shell_norm(f.evaluate(shell), shell, u)
        return t**m if t != 0.0 else 0.0

    def prefactor_m(k0: int) -> float:
        return math.exp(-k0 * lam * m * log_base)

    best_gm = 0.0
    scan_hi = w_hi

    # Region below the window: partial sums are pure inner-tail geometrics,
    # so the candidate at k0 is a constant times (p**s_in / base**lam)**k0.
    inner_block = 0.0
    if f.inner_tail.amplitude != 0.0:
        if s_in <= 0:
            return NormResult(math.inf, False, 0.0, (w_lo, w_hi))
        c = _herz_tail_amplitude(f.inner_tail.amplitude, u.u_inner, mass)
        inner_block = c**m * ppow(p, m * s_in * w_lo) / (ppow(p, m * s_in) - 1.0)
        drift = s_in * math.log(p) - lam * log_base
        if drift < -_CRITICAL_BAND:
            # Candidates grow without bound as k0 decreases.
            return NormResult(math.inf, False, 0.0, (w_lo, w_hi))
        # Candidates below the window form a geometric sequence with ratio
        # p**s_in / base**lam >= 1, so the largest sits at k0 = w_lo - 1.
        best_gm = max(best_gm, prefactor_m(w_lo - 1) * inner_block)

    # Window region: explicit partial sums.
    partial = inner_block
    for k0 in range(w_lo, w_hi + 1):
        partial += tau(k0)
        best_gm = max(best_gm, prefactor_m(k0) * partial)
    partial_hi = partial

    # Region above the window.
    tail_bound = 0.0
    if f.outer_tail.amplitude != 0.0:
        t_first = tau(w_hi + 1)
        rho = ppow(p, m * s_out)
        drift = s_out * math.log(p) - lam * log_base
        if drift > _CRITICAL_BAND:
            return NormResult(math.inf, False, 0.0, (w_lo, w_hi))
        if abs(drift) <= _CRITICAL_BAND:
            # Candidates increase or decrease monotonically toward a finite
            # limit; the limit and the first cutoff bracket the supremum.
            scan_hi = w_hi + 1
            best_gm = max(best_gm, prefactor_m(w_hi + 1) * (partial_hi + t_first))
            limit_gm = prefactor_m(w_hi) * t_first / (rho - 1.0)
            best_gm = max(best_gm, limit_gm)
        elif abs(rho - 1.0) <= _CRITICAL_BAND:
            # Balanced outer terms: partial sums grow linearly, and the
            # candidate profile is unimodal with a closed-form peak.
            peak = w_hi + (t_first / (lam * m * log_base) - partial_hi) / t_first
            k_candidates = {w_hi + 1, math.floor(peak), math.ceil(peak)}
            for k0 in sorted(k_candidates):
                if k0 < w_hi + 1:
                    continue
                scan_hi = max(scan_hi, k0)
                gm = prefactor_m(k0) * (partial_hi + t_first * (k0 - w_hi))
                best_gm = max(best_gm, gm)
        else:
            # Strictly unbalanced outer terms. The exact partial sums give
            # gm(k0) in closed form; past the scan the candidates are
            # dominated by decreasing geometric envelopes: the saturated sum
            # P_inf for rho < 1, and P_hi plus the shifted geometric for
            # rho > 1 (where q2 = (p**s_out / base**lam)**m < 1).
            geo = t_first / (rho - 1.0)
            q2 = rho * math.exp(-lam * m * log_base)
            p_sat = partial_hi + t_first / (1.0 - rho) if rho < 1.0 else 0.0
            k0 = w_hi
            steps = 0
            floor_gm = 1e-280
            while True:
                k0 += 1
                steps += 1
                gm = prefactor_m(k0) * (partial_hi - geo) + (
                    geo * math.pow(q2, k0 - w_hi) * prefactor_m(w_hi)
                )
                best_gm = max(best_gm, gm)
                if rho < 1.0:
                    envelope = prefactor_m(k0) * p_sat
                else:
                    envelope = prefactor_m(k0) * partial_hi + geo * math.pow(
                        q2, k0 - w_hi
                    ) * prefactor_m(w_hi)
                if envelope <= max(best_gm, floor_gm) or steps > _SCAN_CAP:
                    if envelope > best_gm:
                        tail_bound = envelope
                    break
            scan_hi = k0

    value = math.pow(best_gm, 1.0 / m) if best_gm > 0.0 else 0.0
    if tail_bound > 0.0:
        remainder = math.pow(best_gm + tail_bound, 1.0 / m) - value
    else:
        remainder = 0.0
    return NormResult(value, True, remainder, (w_lo - 1, scan_hi))


# ---------------------------------------------------------------------------
# Central mean oscillation


def _is_constant(b: RadialStepFunction) -> bool:
    inner, outer = b.inner_tail, b.outer_tail
    if inner.rate != 0.0 or outer.rate != 0.0:
        return False
    v = inner.amplitude
    return outer.amplitude == v and all(c == v for c in b.coeffs)


def _mixed_inner_sum(
    ctx: PadicContext,
    amplitude: float,
    rate: float,
    shift: float,
    exponent: float,
    upto: int,
) -> tuple[float, float]:
    """Certified sum of |amplitude * p**(k*rate) - shift|**exponent * |S_k| over k <= upto.

    Pure-power and pure-constant cases have closed forms. Mixed cases walk
    shells downward until one summand is negligible against the other, then
    bound the remainder between the two extreme readings of the dominated
    term; the returned pair is (midpoint value, half-width bound). Returns
    (math.inf, 0.0) when the sum diverges.
    """
    p, n = ctx.p, ctx.n
    mass = _unit_mass(ctx)
    if amplitude == 0.0 and shift == 0.0:
        return 0.0, 0.0
    if amplitude == 0.0:
        return abs(shift) ** exponent * ppow(p, n * upto), 0.0
    if shift == 0.0:
        s = rate * exponent + n
        if s <= 0:
            return math.inf, 0.0
        return (
            abs(amplitude) ** exponent
            * mass
            * ppow(p, s * (upto + 1))
            / (ppow(p, s) - 1.0),
            0.0,
        )
    if rate == 0.0:
        return abs(amplitude - shift) ** exponent * ppow(p, n * upto), 0.0

    total = 0.0
    k = upto
    steps = 0
    if rate > 0:
        while abs(amplitude) * ppow(p, k * rate) > _MIXED_TOL * abs(shift):
            total += (
                abs(amplitude * ppow(p, k * rate) - shift) ** exponent
                * mass
                * ppow(p, n * k)
            )
            k -= 1
            steps += 1
            if steps > _SCAN_CAP:
                raise DomainError("mixed tail sum failed to localize (rate too small)")
        hi = (abs(shift) * (1.0 + _MIXED_TOL)) ** exponent * ppow(p, n * k)
        lo = (abs(shift) * (1.0 - _MIXED_TOL)) ** exponent * ppow(p, n * k)
        return total + 0.5 * (hi + lo), 0.5 * (hi - lo)

    s = rate * exponent + n
    if s <= 0:
        return math.inf, 0.0
    while abs(shift) > _MIXED_TOL * abs(amplitude) * ppow(p, k * rate):
        total += (
            abs(amplitude * ppow(p, k * rate) - shift) ** exponent
            * mass
            * ppow(p, n * k)
        )
        k -= 1
        steps += 1
        if steps > _SCAN_CAP:
            raise DomainError("mixed tail sum failed to localize (rate too small)")
    geometric = (
        abs(amplitude) ** exponent * mass * ppow(p, s * (k + 1)) / (ppow(p, s) - 1.0)
    )
    hi = geometric * (1.0 + _MIXED_TOL) ** exponent
    lo = geometric * (1.0 - _MIXED_TOL) ** exponent
    return total + 0.5 * (hi + lo), 0.5 * (hi - lo)


def _shifted_norm(
    b: RadialStepFunction,
    u: ExponentFunction,
    shift: float,
    gamma: int,
    rel_tol: float,
) -> tuple[float, float]:
    """Luxemburg norm of (b - shift) restricted to B_gamma.

    Returns (value, bound); the value is math.inf when the modular diverges
    for every lam.
    """
    built = _modular_terms(b, u, shift, gamma)
    if built is None:
        return math.inf, 0.0
    terms, psi_bound = built
    value, half = _solve_luxemburg(lambda lam: _modular_value(terms, lam), rel_tol)
    return value, half + psi_bound


def _cmo_candidate(
    b: RadialStepFunction,
    u: ExponentFunction,
    gamma: int,
    rel_tol: float,
) -> float:
    mean = ball_mean(b, gamma) if abs(gamma) <= b.ctx.shell_limit else _wide_mean(b, gamma)
    numerator, _ = _shifted_norm(b, u, mean, gamma, rel_tol)
    if not math.isfinite(numerator):
        return math.inf
    if numerator == 0.0:
        return 0.0
    denominator = ball_indicator_norm(u, gamma, rel_tol).value
    return numerator / denominator


def _wide_mean(b: RadialStepFunction, gamma: int) -> float:
    """Ball mean for scan radii beyond the context shell limit."""
    exact, inexact = _integral_parts(b, gamma)
    scale = Fraction(b.ctx.p) ** (b.ctx.n * gamma)
    return float(exact / scale) + float(Fraction(inexact) / scale if inexact else 0.0)


class _GeoTerm:
    """One closed-form envelope term coef * rho**(g - ref) * (g - ref if linear)."""

    __slots__ = ("coef", "rho", "linear", "ref")

    def __init__(self, coef: float, rho: float, linear: bool, ref: int) -> None:
        self.coef = coef
        self.rho = rho
        self.linear = linear
        self.ref = ref

    def value(self, gamma: int) -> float:
        v = self.coef * math.pow(self.rho, gamma - self.ref)
        return v * (gamma - self.ref) if self.linear else v

    def monotone_from(self) -> int:
        if not self.linear or self.coef == 0.0:
            return self.ref
        return self.ref + math.ceil(1.0 / math.log(1.0 / self.rho)) + 1


def _cmo_envelope_terms(
    b: RadialStepFunction,
    u: ExponentFunction,
    ref: int,
    rel_tol: float,
) -> list[_GeoTerm]:
    """Closed-form bounds on the CMO candidates above the scan window.

    For gamma > ref the candidate ratio is at most
    ||(b - L) chi_{B_gamma}|| / ||chi_{B_gamma}|| + |mean_gamma - L|, where L
    is the value of b at infinity. Each piece of that bound is a geometric
    (or shell-linear times geometric) expression in gamma.
    """
    ctx = b.ctx
    p, n = ctx.p, ctx.n
    mass = _unit_mass(ctx)
    u_inf = u.u_infinity
    chi_unit = math.pow(mass, 1.0 / u_inf)

    amplitude, rate = b.outer_tail
    limit = amplitude if (amplitude != 0.0 and rate == 0.0) else 0.0

    near_norm, _ = _shifted_norm(b, u, limit, ref, rel_tol)
    near_integral = abs(ball_integral(b, ref) - limit * ppow(p, n * ref))

    rho_chi = ppow(p, -n / u_inf)
    rho_mass = ppow(p, -n)
    terms = [
        _GeoTerm(near_norm / (chi_unit * ppow(p, ref * n / u_inf)), rho_chi, False, ref),
        _GeoTerm(near_integral / ppow(p, n * ref), rho_mass, False, ref),
    ]
    if amplitude != 0.0 and rate < 0.0:
        sigma = rate + n / u_inf
        c_norm = abs(amplitude) * chi_unit
        if sigma < 0:
            bulk = c_norm * ppow(p, (ref + 1) * sigma) / (1.0 - ppow(p, sigma))
            terms.append(
                _GeoTerm(bulk / (chi_unit * ppow(p, ref * n / u_inf)), rho_chi, False, ref)
            )
        elif sigma == 0:
            terms.append(
                _GeoTerm(
                    c_norm / (chi_unit * ppow(p, ref * n / u_inf)), rho_chi, True, ref
                )
            )
        else:
            grown = c_norm * ppow(p, sigma) / (ppow(p, sigma) - 1.0)
            terms.append(
                _GeoTerm(
                    grown * ppow(p, ref * rate) / chi_unit, ppow(p, rate), False, ref
                )
            )
        s2 = rate + n
        c_int = abs(amplitude) * mass
        if s2 < 0:
            bulk = c_int * ppow(p, (ref + 1) * s2) / (1.0 - ppow(p, s2))
            terms.append(_GeoTerm(bulk / ppow(p, n * ref), rho_mass, False, ref))
        elif s2 == 0:
            terms.append(_GeoTerm(c_int / ppow(p, n * ref), rho_mass, True, ref))
        else:
            grown = c_int * ppow(p, s2) / (ppow(p, s2) - 1.0)
            terms.append(_GeoTerm(grown * ppow(p, ref * rate), ppow(p, rate), False, ref))
    return terms


def cmo_norm(
    b: RadialStepFunction,
    u: ExponentFunction,
    rel_tol: float = 1e-10,
) -> NormResult:
    """Central mean-oscillation norm: sup over gamma of
    ||(b - mean(b, B_gamma)) chi_{B_gamma}|| / ||chi_{B_gamma}||.

    The supremum scan is certified on both sides. Below the combined window
    the candidates obey an exact self-similar law c * p**(gamma * e_in)
    (zero for constant-limit tails, divergent for growing ones); above it
    they are dominated by monotone geometric envelopes.

    Examples:
        >>> ctx = PadicContext(2, 1)
        >>> u2 = ExponentFunction.constant(ctx, 2.0)
        >>> b = RadialStepFunction.indicator_ball(ctx, 0)
        >>> round(cmo_norm(b, u2).value, 10)
        0.5
    """
    _require_same_ctx(b, u)
    _check_rel_tol(rel_tol)
    p, n = b.ctx.p, b.ctx.n
    amplitude_in, rate_in = b.inner_tail
    if amplitude_in != 0.0 and rate_in <= -n:
        raise DomainError(
            f"ball means are undefined: inner tail rate {rate_in} is not "
            f"integrable in dimension {n}"
        )
    w_lo = min(b.window[0], u.window[0])
    w_hi = max(b.window[1], u.window[1])

    if _is_constant(b):
        return NormResult(0.0, True, 0.0, (w_lo - 1, w_hi + 1))

    amplitude_out, rate_out = b.outer_tail
    if amplitude_out != 0.0 and rate_out > 0.0:
        # The oscillation on the outermost shell of B_gamma grows like the
        # tail itself while the indicator norm grows only like
        # p**(gamma*n/u_infinity), so the candidates diverge.
        return NormResult(math.inf, False, 0.0, (w_lo - 1, w_hi + 1))

    if amplitude_in != 0.0 and rate_in < 0.0:
        # Below the window the candidates equal c * p**(gamma * rate_in) with
        # c > 0, which grows without bound as gamma decreases.
        return NormResult(math.inf, False, 0.0, (w_lo - 1, w_hi + 1))

    best = 0.0
    scan_lo = w_lo - 1
    for gamma in range(scan_lo, w_hi + 2):
        candidate = _cmo_candidate(b, u, gamma, rel_tol)
        if not math.isfinite(candidate):
            return NormResult(math.inf, False, 0.0, (scan_lo, gamma))
        best = max(best, candidate)

    ref = w_hi + 1
    terms = _cmo_envelope_terms(b, u, ref, rel_tol)
    gamma_mono = max(term.monotone_from() for term in terms)
    floor = 1e-13 * max(
        best, sum(term.value(ref + 1) for term in terms), 1e-280
    )
    gamma = ref
    tail_bound = 0.0
    steps = 0
    while True:
        gamma += 1
        steps += 1
        envelope = sum(term.value(gamma) for term in terms)
        if gamma >= gamma_mono and (envelope <= best or envelope <= floor):
            if envelope > best:
                tail_bound = envelope
            break
        if steps > _SCAN_CAP:
            tail_bound = envelope
            break
        candidate = _cmo_candidate(b, u, gamma, rel_tol)
        if not math.isfinite(candidate):
            return NormResult(math.inf, False, 0.0, (scan_lo, gamma))
        best = max(best, candidate)
    return NormResult(best, True, tail_bound, (scan_lo, gamma))
