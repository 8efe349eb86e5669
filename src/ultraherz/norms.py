"""Variable-exponent norms for the radial class.

Everything here reduces to shell sums. For a radial function f with value
F(k) on the sphere S_k and a radial exponent u(.), the modular is

    rho(f) = sum_k |F(k)|**u(k) * |S_k|,

with both infinite tails summed analytically as geometric series (the tail
rates of f and the tail values of u are constant, so each tail contributes
a single geometric series). The Luxemburg norm inverts the strictly
decreasing map lam -> rho(f/lam): the terms are grouped by exponent, and a
safeguarded Newton iteration on the convex function log rho(f/e**t) closes
a bracket whose ends are both checked against the modular. Herz and
Morrey-Herz norms are weighted l^m sums of exact single-shell norms, again
with analytic tails; the Morrey-Herz supremum over the cutoff index is
found in closed form. The central mean-oscillation norm runs a certified
scan over ball radii.

Divergence is reported through ``NormResult.convergent`` rather than
exceptions: an infinite norm is a meaningful answer here, not a bug. A
finite norm whose terms leave the float range raises NumericOverflowError,
and a nonzero one whose terms all round to 0.0 raises NumericUnderflowError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NumericOverflowError, NumericUnderflowError
from .padic import PadicContext, ppow
from .radial import (
    _SCAN_CAP,
    ExponentFunction,
    RadialStepFunction,
    _cancels,
    _float_value,
    _geometric_tail,
    _mean_of_parts,
    _running_parts,
    _unit_mass,
)

#: Classification band for critically balanced geometric ratios. Ratios
#: within this distance of 1 are resolved to the boundary reading.
_CRITICAL_BAND = 1e-12

#: Relative threshold below which one tail summand is dominated by the other
#: in mixed power-plus-constant sums.
_MIXED_TOL = 1e-13

_MIN_NORMAL = sys.float_info.min
_LOG_MIN_NORMAL = math.log(_MIN_NORMAL)
_LOG_MAX = math.log(sys.float_info.max)


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
    norm exactly) of the cutoff prefactor p**(-k0 * lam), where p is the
    prime of the ambient context.
    """

    beta: float
    m: float
    lam: float

    def __post_init__(self) -> None:
        if not (self.m > 0 and math.isfinite(self.m)):
            raise DomainError(f"Herz index m must be positive and finite, got {self.m}")
        if self.lam < 0:
            raise DomainError(f"lambda must be nonnegative, got {self.lam}")


@dataclass(frozen=True)
class NormResult:
    """A computed norm value with its convergence certificate.

    ``value`` is finite exactly when ``convergent`` is true (divergence is
    reported as ``math.inf``). ``tail_remainder_bound`` bounds whatever the
    finite computation could not pin down exactly: the half-width of the
    solver's final bracket for Luxemburg-type norms (0.0 when all terms share
    one exponent and the root is closed-form), the leftover scan envelope of
    the CMO supremum (the one scan left), 0.0 for fully analytic sums and
    the closed-form Morrey-Herz supremum. ``work_window`` is the shell range
    the computation actually touched; for Morrey-Herz, the cutoffs evaluated.
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
) -> list[tuple[float, float]] | None:
    """The modular of (f - shift) restricted to B_top, as power-sum terms.

    rho((f - shift) chi_{B_top} / lam) is the sum of w * lam**(-e) over the
    returned (w, e) terms (a mixed inner sum is its midpoint, see
    :func:`_mixed_inner_sum`): one term per shell of the window and one
    closed-form term per tail. ``top`` None means the whole space and needs
    shift 0 (the outer-tail term ignores the shift).
    Returns None when a tail series diverges; convergence does not depend
    on lam, since each tail ratio is lam-free. Every nonzero piece of the
    function gets a term, even one whose weight rounded to 0.0, so the
    solver can tell an underflow from the zero function. A power that
    overflows raises NumericOverflowError; a product that does is left inf.
    """
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    mass = _unit_mass(ctx)
    w_lo, w_hi = _union_window(f, u)
    terms: list[tuple[float, float]] = []
    try:
        for k in range(w_lo, (w_hi if top is None else top) + 1):
            v = abs(f.evaluate(k) - shift)
            if v != 0.0:
                e = u.evaluate(k)
                power = v**e
                if power < _MIN_NORMAL:
                    # a subnormal power has lost bits that the measure scales
                    # back up; multiply in logs when the product is normal
                    log_weight = e * math.log(v) + math.log(mass) + n * k * math.log(p)
                    if log_weight >= _LOG_MIN_NORMAL:
                        terms.append((math.exp(log_weight), e))
                        continue
                terms.append((power * mass * ppow(p, n * k), e))

        amplitude, rate = f.inner_tail
        upto = w_lo - 1 if top is None else min(top, w_lo - 1)
        inner = _mixed_inner_sum(ctx, amplitude, rate, shift, u.u_inner, upto)
        if inner is None:
            return None
        psi, _ = inner
        # |amplitude * p**(k*rate) - shift| vanishes identically only when
        # amplitude == shift and the tail is flat or zero
        if psi != 0.0 or amplitude != shift or (amplitude != 0.0 and rate != 0.0):
            terms.append((psi, u.u_inner))

        amplitude, rate = f.outer_tail
        if top is None and amplitude != 0.0:
            c = u.u_infinity
            outer = _geometric_tail(
                abs(amplitude) ** c * mass, p, rate * c + n, w_hi + 1, below=False
            )
            if outer is None:
                return None
            terms.append((outer, c))
    except OverflowError as exc:
        raise _norm_overflow() from exc
    return terms


def _norm_overflow() -> NumericOverflowError:
    return NumericOverflowError(
        "a modular term or the Luxemburg norm overflows the float range: a "
        "finite norm too large for this computation, not a divergent one"
    )


def _norm_underflow() -> NumericUnderflowError:
    return NumericUnderflowError(
        "every modular term rounds to 0.0 or the Luxemburg norm lies below the "
        "normal float range: a nonzero norm too small for this computation, "
        "not a zero one"
    )


def _weight_underflow() -> NumericUnderflowError:
    return NumericUnderflowError(
        "a modular weight below the normal float range carries more than "
        "rel_tol of the modular at the root: the norm would rest on the few "
        "bits that weight keeps"
    )


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
    window = _union_window(f, u)
    terms = _modular_terms(f, u)
    if terms is None:
        return NormResult(math.inf, False, 0.0, window)
    value = _modular_value(terms, 1.0)
    if not math.isfinite(value):
        raise _norm_overflow()
    return NormResult(value, True, 0.0, window)


def _check_rel_tol(rel_tol: float) -> None:
    if not (1e-14 < rel_tol < 1e-3):
        raise DomainError(f"rel_tol must lie in (1e-14, 1e-3), got {rel_tol}")


def _solve_luxemburg(
    terms: list[tuple[float, float]], rel_tol: float
) -> tuple[float, float]:
    """Solve sum w * lam**(-e) = 1 over the (w, e) terms for lam.

    Returns (root estimate, bracket half-width); no terms is the zero
    function, (0.0, 0.0). The weights are summed per distinct exponent
    first. One exponent has the closed form lam = W**(1/e), polished by one
    correction step in lam. Otherwise phi(t) = log sum W_e * exp(-e*t) is
    convex and decreasing in t = log lam, so a Newton step from the lower
    end never passes the root, and the root lies at most phi / min(e) above
    it. The bracket comes straight from the weights, [max log(W_e)/e,
    max log(N*W_e)/e] for N groups; a step that would leave it bisects
    instead. Every returned bracket end is a point where the modular was
    evaluated in lam (above 1 at the lower end, at most 1 at the upper), and
    the solve stops once hi - lo <= rel_tol * hi.

    Raises NumericOverflowError when a weight or the root exceeds the float
    range, and NumericUnderflowError when every weight rounded to 0.0, the
    root lies below the smallest normal float, or a subnormal weight carries
    more than rel_tol of the modular at the root.
    """
    if not terms:
        return 0.0, 0.0
    weights: dict[float, float] = {}
    for w, e in terms:
        weights[e] = weights.get(e, 0.0) + w
    if not all(w < math.inf for w in weights.values()):
        raise _norm_overflow()
    groups = [(w, e, -0.5 * e) for e, w in weights.items() if w > 0.0]
    if not groups:
        raise _norm_underflow()

    def modular_at(lam: float) -> tuple[float, float]:
        """rho(lam) and sum e * W_e * lam**(-e); lam**(-e/2) squared keeps a
        dominant term's power inside the float range."""
        total = slope = 0.0
        for w, e, half_e in groups:
            h = math.pow(lam, half_e)
            x = w * h * h
            total += x
            slope += e * x
        return total, slope

    subnormal = [(w, e) for w, e, _ in groups if w < _MIN_NORMAL]

    if len(groups) == 1:
        w, e, _ = groups[0]
        if subnormal:
            raise _weight_underflow()
        lam = math.pow(w, 1.0 / e)
        lam *= math.exp(math.log(modular_at(lam)[0]) / e)
        if lam < _MIN_NORMAL:
            raise _norm_underflow()
        if lam == math.inf:
            raise _norm_overflow()
        return lam, 0.0

    log_n = math.log(len(groups))
    t_lo = max(math.log(w) / e for w, e, _ in groups)
    # the margin keeps this unchecked end from ever being returned
    t_hi = max((math.log(w) + log_n) / e for w, e, _ in groups) + 2e-3
    if t_lo > _LOG_MAX:
        raise _norm_overflow()
    if t_hi < _LOG_MIN_NORMAL:
        raise _norm_underflow()
    lo = math.exp(t_lo) if t_lo > _LOG_MIN_NORMAL else _MIN_NORMAL
    if t_hi < _LOG_MAX:
        hi = math.exp(t_hi)
    else:
        hi = sys.float_info.max
        if modular_at(hi)[0] > 1.0:
            raise _norm_overflow()

    rho_lo, slope_lo = modular_at(lo)
    shrink = 2.0**-40
    while rho_lo <= 1.0:
        # rounding in the logarithms put the lower end at or past the root
        if lo <= _MIN_NORMAL:
            raise _norm_underflow()
        hi = lo
        lo *= 1.0 - shrink
        shrink *= 2.0
        rho_lo, slope_lo = modular_at(lo)

    e_min = min(e for _, e, _ in groups)
    for _ in range(200):
        if hi - lo <= rel_tol * hi:
            break
        log_rho = math.log(rho_lo)
        finish = lo * (1.0 + 0.5 * rel_tol)
        if lo * math.exp(log_rho / e_min) <= finish:
            probe = finish
        else:
            probe = lo * math.exp(log_rho * rho_lo / slope_lo)
        if not lo < probe < hi:
            probe = lo + 0.5 * (hi - lo)
        rho, slope = modular_at(probe)
        if rho > 1.0:
            lo, rho_lo, slope_lo = probe, rho, slope
        else:
            hi = probe
    half = 0.5 * (hi - lo)
    root = lo + half
    if subnormal:
        rho = modular_at(root)[0]
        for w, e in subnormal:
            h = math.pow(root, -0.5 * e)
            if w * h * h > rel_tol * rho:
                raise _weight_underflow()
    return root, half


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
    terms = _modular_terms(f, u)
    if terms is None:
        return NormResult(math.inf, False, 0.0, window)
    value, half = _solve_luxemburg(terms, rel_tol)
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

    The modular is one measure-weighted term per exponent piece: the
    inner ball, each window shell of B_gamma and the rest of B_gamma beyond
    the window. The solver groups them by exponent, so a constant exponent
    gives |B_gamma|**(1/u) in closed form.
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
    value, half = _solve_luxemburg(pieces, rel_tol)
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


def _herz_terms(
    f: RadialStepFunction, u: ExponentFunction, beta: float, m: float, top: int, outer: bool
) -> tuple[list[float], float, float]:
    """The Herz sum over l of t_l**m, t_l = p**(l*beta) * ||f on S_l||, in pieces.

    Returns (terms, inner, outer): t_l**m for every shell l from the first of
    the window up to ``top`` (0.0 where f vanishes), the closed-form sum over
    the shells below the window and, if ``outer``, the one over the
    shells above ``top``. A vanishing tail (or an unwanted outer one) gives
    0.0; the caller has ruled out a divergent one. A power that overflows
    raises OverflowError.
    """
    p = f.ctx.p
    mass = _unit_mass(f.ctx)
    w_lo = _union_window(f, u)[0]
    s_in, s_out = _herz_slopes(f, u, beta)
    terms = []
    for shell in range(w_lo, top + 1):
        t = ppow(p, shell * beta) * single_shell_norm(f.evaluate(shell), shell, u)
        terms.append(t**m if t != 0.0 else 0.0)

    def block(amplitude: float, exponent: float, s: float, start: int, below: bool) -> float:
        if amplitude == 0.0:
            return 0.0
        c = abs(amplitude) * math.pow(mass, 1.0 / exponent)
        return _geometric_tail(c**m, p, m * s, start, below)

    inner = block(f.inner_tail.amplitude, u.u_inner, s_in, w_lo, True)
    if not outer:
        return terms, inner, 0.0
    return terms, inner, block(f.outer_tail.amplitude, u.u_infinity, s_out, top + 1, False)


def _herz_overflow(space: str, m: float, window: tuple[int, int]) -> NumericOverflowError:
    return NumericOverflowError(
        f"{space} sum with m={m} overflows the float range on shells "
        f"[{window[0]}, {window[1]}]: a finite norm too large for this "
        "summation, not a divergent one"
    )


def _herz_value(
    total: float, f: RadialStepFunction, space: str, m: float, window: tuple[int, int]
) -> float:
    """total**(1/m) for a convergent sum, never inf or a false 0.0.

    Divergence is ruled out before summing, so an infinite (or NaN) total
    is an overflow; a zero total for a nonzero f means every term underflowed.
    """
    try:
        value = math.pow(total, 1.0 / m)
    except OverflowError as exc:
        raise _herz_overflow(space, m, window) from exc
    if not math.isfinite(value):
        raise _herz_overflow(space, m, window)
    if value == 0.0 and (
        any(f.coeffs) or f.inner_tail.amplitude != 0.0 or f.outer_tail.amplitude != 0.0
    ):
        raise NumericUnderflowError(
            f"{space} sum with m={m} underflows to 0.0 on shells "
            f"[{window[0]}, {window[1]}]: a nonzero norm too small for this "
            "summation, not a zero one"
        )
    return value


def herz_norm(
    f: RadialStepFunction, u: ExponentFunction, hp: HerzParams
) -> NormResult:
    """The Herz norm ( sum_l (p**(l*beta) * ||f restricted to S_l||)**m )**(1/m).

    Single-shell norms are exact closed forms, the window part is summed
    termwise and both tails are geometric series in the shell index. A
    divergent tail gives an infinite, non-convergent result; a sum that
    leaves the float range for a convergent one raises NumericOverflowError,
    and one whose terms all round to 0.0 for a nonzero f raises
    NumericUnderflowError.

    Examples:
        >>> ctx = PadicContext(2, 1)
        >>> u2 = ExponentFunction.constant(ctx, 2.0)
        >>> f = RadialStepFunction.indicator_sphere(ctx, 0)
        >>> round(herz_norm(f, u2, HerzParams(beta=1.5, m=3.0)).value, 10)
        0.7071067812
    """
    _require_same_ctx(f, u)
    w_lo, w_hi = _union_window(f, u)
    m = hp.m

    s_in, s_out = _herz_slopes(f, u, hp.beta)
    inner, outer = f.inner_tail.amplitude != 0.0, f.outer_tail.amplitude != 0.0
    # the tail kernel's own divergence test, so no tail sum below is None
    if (inner and m * s_in <= 0) or (outer and m * s_out >= 0):
        return NormResult(math.inf, False, 0.0, (w_lo, w_hi))

    total = 0.0
    try:
        terms, inner_block, outer_block = _herz_terms(f, u, hp.beta, m, w_hi, True)
        # window shells first, then the tails: the order fixes the bits
        for t in (*terms, inner_block, outer_block):
            total += t
    except OverflowError as exc:
        raise _herz_overflow("Herz", m, (w_lo, w_hi)) from exc
    value = _herz_value(total, f, "Herz", m, (w_lo, w_hi))
    return NormResult(value, True, 0.0, (w_lo, w_hi))


def morrey_herz_norm(
    f: RadialStepFunction, u: ExponentFunction, mhp: MorreyHerzParams
) -> NormResult:
    """The Morrey-Herz norm sup over the cutoff k0 of
    p**(-k0*lam) * ( sum_{l <= k0} (p**(l*beta) * ||f on S_l||)**m )**(1/m).

    lam = 0 short-circuits to :func:`herz_norm` (the partial sums increase
    to the full sum, so the sup is the Herz value exactly). For lam > 0 the
    supremum is closed-form: below the window the candidates are geometric
    and peak at k0 = w_lo - 1; above it the m-th power of a candidate is
    A * exp(-a*y) + geo * q2**y in y = k0 - w_hi (linear times exp(-a*y)
    for balanced outer terms), with at most one stationary point, a maximum;
    at critical drift the limit at infinity joins. ``tail_remainder_bound``
    is 0.0 and ``work_window`` ends at the last cutoff evaluated.
    Divergence, overflow and underflow are reported as by :func:`herz_norm`.
    """
    _require_same_ctx(f, u)
    if mhp.lam == 0:
        return herz_norm(f, u, HerzParams(mhp.beta, mhp.m))

    p = f.ctx.p
    m, beta, lam = mhp.m, mhp.beta, mhp.lam
    w_lo, w_hi = _union_window(f, u)
    s_in, s_out = _herz_slopes(f, u, beta)
    log_p = math.log(p)

    def prefactor_m(k0: int) -> float:
        return math.exp(-k0 * lam * m * log_p)

    # Divergence first, so that an overflow below is never a divergence.
    # Below the window, candidates grow without bound as k0 decreases when
    # drift_in < 0; above it, as k0 increases when drift_out > 0.
    inner, outer = f.inner_tail.amplitude != 0.0, f.outer_tail.amplitude != 0.0
    drift_in = s_in * log_p - lam * log_p
    drift_out = s_out * log_p - lam * log_p
    if (inner and (m * s_in <= 0 or drift_in < -_CRITICAL_BAND)) or (
        outer and drift_out > _CRITICAL_BAND
    ):
        return NormResult(math.inf, False, 0.0, (w_lo, w_hi))

    best_gm = 0.0
    scan_hi = w_hi
    try:
        terms, partial, _ = _herz_terms(f, u, beta, m, w_hi + 1 if outer else w_hi, False)
        if inner:
            # Candidates below the window form a geometric sequence with ratio
            # p**s_in / p**lam >= 1, so the largest sits at k0 = w_lo - 1.
            best_gm = prefactor_m(w_lo - 1) * partial

        # Window region: explicit partial sums.
        for k0, t in zip(range(w_lo, w_hi + 1), terms):
            partial += t
            best_gm = max(best_gm, prefactor_m(k0) * partial)
        if not math.isfinite(partial):
            raise _herz_overflow("Morrey-Herz", m, (w_lo, w_hi))

        if outer:
            t_first = terms[-1]
            if not math.isfinite(t_first):
                raise _herz_overflow("Morrey-Herz", m, (w_lo, w_hi))
            rho = ppow(p, m * s_out)
            a = lam * m * log_p
            critical = abs(drift_out) <= _CRITICAL_BAND
            balanced = rho == 1.0 or (abs(rho - 1.0) <= _CRITICAL_BAND and not critical)
            if balanced:
                # Balanced outer terms: the partial sums grow linearly.
                def gm(k0: int) -> float:
                    return prefactor_m(k0) * (partial + t_first * (k0 - w_hi))
            else:
                # Geometric partial sums P_hi - geo + geo * rho**y. Near rho = 1
                # rho - 1, rho**y - 1 and b come from log rho, not from rho.
                near_one = _cancels(rho)
                log_rho = m * s_out * log_p
                rho_m1 = math.expm1(log_rho) if near_one else rho - 1.0
                geo = t_first / rho_m1
                q2 = rho * math.exp(-lam * m * log_p)

                def gm(k0: int) -> float:
                    y = k0 - w_hi
                    if near_one:
                        return prefactor_m(k0) * (partial + geo * math.expm1(y * log_rho))
                    return prefactor_m(k0) * (partial - geo) + (
                        geo * math.pow(q2, y) * prefactor_m(w_hi)
                    )

                if critical:
                    # the candidates approach this limit as k0 grows
                    best_gm = max(best_gm, prefactor_m(w_hi) * t_first / rho_m1)
            try:
                if balanced:
                    peak = w_hi + (t_first / a - partial) / t_first
                else:
                    b = a - log_rho if near_one else -math.log(q2)
                    peak = w_hi + math.log(-b * geo / (a * (partial - geo))) / (b - a)
            except (ValueError, ZeroDivisionError):
                peak = w_hi  # t_first = 0, A = 0 or no stationary point
            cutoffs = {w_hi + 1}
            if math.isfinite(peak):
                cutoffs |= {k for k in (math.floor(peak), math.ceil(peak)) if k > w_hi}
            for k0 in sorted(cutoffs):
                best_gm = max(best_gm, gm(k0))
            scan_hi = max(cutoffs)
    except OverflowError as exc:
        raise _herz_overflow("Morrey-Herz", m, (w_lo, w_hi)) from exc

    value = _herz_value(best_gm, f, "Morrey-Herz", m, (w_lo, w_hi))
    return NormResult(value, True, 0.0, (w_lo - 1, scan_hi))


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
) -> tuple[float, float] | None:
    """Certified sum of |amplitude * p**(k*rate) - shift|**exponent * |S_k| over k <= upto.

    Pure-power and pure-constant cases have closed forms. A nonzero shift
    comes only from :func:`_shifted_norm`, whose caller :func:`cmo_norm` has
    returned for a decaying inner tail, so the mixed case has rate > 0: walk
    shells downward until the power is negligible against the shift, then
    bound the remainder between the two extreme readings of the dominated
    term; the returned pair is (midpoint value, half-width bound). Returns
    None when the sum diverges; an infinite value is an overflow.
    """
    p, n = ctx.p, ctx.n
    mass = _unit_mass(ctx)
    if amplitude == 0.0 and shift == 0.0:
        return 0.0, 0.0
    if amplitude == 0.0:
        return abs(shift) ** exponent * ppow(p, n * upto), 0.0
    if shift == 0.0:
        coef = abs(amplitude) ** exponent * mass
        tail = _geometric_tail(coef, p, rate * exponent + n, upto + 1, below=True)
        return None if tail is None else (tail, 0.0)
    if rate == 0.0:
        return abs(amplitude - shift) ** exponent * ppow(p, n * upto), 0.0

    total = 0.0
    k = upto
    steps = 0
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


def _shifted_norm(
    b: RadialStepFunction,
    u: ExponentFunction,
    shift: float,
    gamma: int,
    rel_tol: float,
) -> float:
    """Luxemburg norm of (b - shift) restricted to B_gamma.

    Only :func:`cmo_norm` calls it, after returning for a decaying inner
    tail, so no tail sum of the modular diverges.
    """
    return _solve_luxemburg(_modular_terms(b, u, shift, gamma), rel_tol)[0]


def _cmo_candidate(
    b: RadialStepFunction,
    u: ExponentFunction,
    gamma: int,
    parts: tuple[int, int, float],
    rel_tol: float,
) -> float:
    mean = _mean_of_parts(parts, gamma, b.ctx)
    numerator = _shifted_norm(b, u, mean, gamma, rel_tol)
    if numerator == 0.0:
        return 0.0
    denominator = ball_indicator_norm(u, gamma, rel_tol).value
    return numerator / denominator


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
    ref_integral: float,
    rel_tol: float,
) -> list[_GeoTerm]:
    """Closed-form bounds on the CMO candidates above the scan window.

    For gamma > ref the candidate ratio is at most
    ||(b - L) chi_{B_gamma}|| / ||chi_{B_gamma}|| + |mean_gamma - L|, where L
    is the value of b at infinity. Each piece of that bound is a geometric
    (or shell-linear times geometric) expression in gamma. ``ref_integral``
    is the integral of b over B_ref.
    """
    ctx = b.ctx
    p, n = ctx.p, ctx.n
    mass = _unit_mass(ctx)
    u_inf = u.u_infinity
    chi_unit = math.pow(mass, 1.0 / u_inf)

    amplitude, rate = b.outer_tail
    limit = amplitude if (amplitude != 0.0 and rate == 0.0) else 0.0

    near_norm = _shifted_norm(b, u, limit, ref, rel_tol)
    near_integral = abs(ref_integral - limit * ppow(p, n * ref))

    rho_chi = ppow(p, -n / u_inf)
    rho_mass = ppow(p, -n)
    chi_at_ref = chi_unit * ppow(p, ref * n / u_inf)
    mass_at_ref = ppow(p, n * ref)
    terms = [
        _GeoTerm(near_norm / chi_at_ref, rho_chi, False, ref),
        _GeoTerm(near_integral / mass_at_ref, rho_mass, False, ref),
    ]
    if amplitude != 0.0 and rate < 0.0:
        # (coefficient, rate, scale at ref, unit scale, ratio): the tail's
        # norm part, then its integral part
        pieces = (
            (abs(amplitude) * chi_unit, rate + n / u_inf, chi_at_ref, chi_unit, rho_chi),
            (abs(amplitude) * mass, rate + n, mass_at_ref, 1.0, rho_mass),
        )
        for c, s, at_ref, unit, rho in pieces:
            if s < 0:
                bulk = _geometric_tail(c, p, s, ref + 1, below=False)
                terms.append(_GeoTerm(bulk / at_ref, rho, False, ref))
            elif s == 0:
                terms.append(_GeoTerm(c / at_ref, rho, True, ref))
            else:
                grown = _geometric_tail(c, p, s, 1, below=True) * ppow(p, ref * rate)
                terms.append(_GeoTerm(grown / unit, ppow(p, rate), False, ref))
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
    integrals = _running_parts(b, scan_lo)
    for gamma in range(scan_lo, w_hi + 2):
        parts = next(integrals)
        candidate = _cmo_candidate(b, u, gamma, parts, rel_tol)
        if not math.isfinite(candidate):
            return NormResult(math.inf, False, 0.0, (scan_lo, gamma))
        best = max(best, candidate)

    ref = w_hi + 1
    terms = _cmo_envelope_terms(b, u, ref, _float_value(*parts), rel_tol)
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
        candidate = _cmo_candidate(b, u, gamma, next(integrals), rel_tol)
        if not math.isfinite(candidate):
            return NormResult(math.inf, False, 0.0, (scan_lo, gamma))
        best = max(best, candidate)
    return NormResult(best, True, tail_bound, (scan_lo, gamma))
