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

Window shells are read as rows, one list per quantity from the first shell
of the union window on: f's values (``evaluate_range``), u's exponents
(the exponent's ``evaluate_range``) and the measures p**(n k)
(``padic.ppow_range``, one running integer power). A modular reads each row
once; the CMO scan builds its rows once and every radius reads a prefix.

Divergence is reported through ``NormResult.convergent`` rather than
exceptions: an infinite norm is a meaningful answer here, not a bug. A
finite norm whose terms leave the float range raises NumericOverflowError,
and a nonzero one whose terms all round to 0.0 raises NumericUnderflowError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .errors import DomainError, NumericOverflowError, NumericUnderflowError
from .padic import PadicContext, check_shell, ppow, ppow_range
from .radial import (
    ExponentFunction,
    RadialStepFunction,
    _cancels,
    _float_value,
    _geometric_tail,
    _mean_of_parts,
    _running_parts,
    _times_power,
    _unit_mass,
)

#: Classification band for critically balanced geometric ratios. Ratios
#: within this distance of 1 are resolved to the boundary reading.
_CRITICAL_BAND = 1e-12

#: Relative threshold below which one tail summand is dominated by the other
#: in mixed power-plus-constant sums.
_MIXED_TOL = 1e-13

_MIN_NORMAL, _MAX = sys.float_info.min, sys.float_info.max
_LOG_MIN_NORMAL = math.log(_MIN_NORMAL)
_LOG_MAX = math.log(_MAX)

#: Largest integer exponent e whose one-group Luxemburg root is rounded by
#: exact midpoint tests: their Fraction powers carry about 54 * e bits.
_EXACT_ROOT_MAX = 64

#: A modular as (terms, lost): rho(f/lam) is the sum of w * lam**(-e) over
#: the (w, e) terms, and lost holds (log w, e) for each weight that fell
#: below the normal float range before it could be formed.
_Modular = tuple[list[tuple[float, float]], list[tuple[float, float]]]

#: Shell rows from the first shell of a union window on: f's values, u's
#: exponents and the measures p**(n k), each a list with one entry per shell.
_Rows = tuple[list[float], list[float], list[float]]


@dataclass(frozen=True)
class HerzParams:
    """Herz-space parameters: shell weight exponent beta and l^m index m."""

    beta: float
    m: float

    def __post_init__(self) -> None:
        if not (self.m > 0 and math.isfinite(self.m)):
            raise DomainError(f"Herz index m must be positive and finite, got {self.m}")
        if not math.isfinite(self.beta):
            raise DomainError(f"Herz weight beta must be finite, got {self.beta}")


@dataclass(frozen=True)
class MorreyHerzParams(HerzParams):
    """Morrey-Herz parameters: the Herz ones plus ``lam``.

    ``lam`` is the Morrey scaling exponent (lambda >= 0; 0 recovers the Herz
    norm exactly) of the cutoff prefactor p**(-k0 * lam), where p is the
    prime of the ambient context.
    """

    lam: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.lam < math.inf:
            raise DomainError(f"lambda must be nonnegative and finite, got {self.lam}")


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


def _shell_rows(f: RadialStepFunction, u: ExponentFunction, lo: int, hi: int) -> _Rows:
    """The rows of f and u on shells lo..hi; lo is the first shell of their
    union window."""
    p, n = f.ctx.p, f.ctx.n
    return f.evaluate_range(lo, hi), u.evaluate_range(lo, hi), ppow_range(p, n, lo, hi)


def _modular_terms(
    f: RadialStepFunction,
    u: ExponentFunction,
    shift: float = 0.0,
    top: int | None = None,
    rows: _Rows | None = None,
) -> _Modular | None:
    """The modular of (f - shift) restricted to B_top, as (terms, lost).

    rho((f - shift) chi_{B_top} / lam) is the sum of w * lam**(-e) over the
    (w, e) terms (a mixed inner sum is its midpoint, see
    :func:`_mixed_inner_sum`): one term per shell of the window and one
    closed-form term per tail. ``top`` None means the whole space and needs
    shift 0 (the outer-tail term ignores the shift).
    Returns None when a tail series diverges; convergence does not depend
    on lam, since each tail ratio is lam-free. Every nonzero piece of the
    function gets a term, even one whose weight rounded to 0.0, so the
    solver can tell an underflow from the zero function. A power that
    overflows raises NumericOverflowError; a product that does is left inf.
    ``lost`` holds (log w, e) for each window shell whose weight fell below
    the normal float range, for the solver to weigh. The window shells are
    read from ``rows`` (see :func:`_shell_rows`), which must reach the last
    of them (ValueError otherwise); None builds them.
    """
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    mass = _unit_mass(ctx)
    w_lo, w_hi = _union_window(f, u)
    hi = w_hi if top is None else top
    if rows is None:
        rows = _shell_rows(f, u, w_lo, hi)
    elif min(map(len, rows)) <= hi - w_lo:
        raise ValueError(f"the shell rows stop before shell {hi}")
    terms: list[tuple[float, float]] = []
    lost: list[tuple[float, float]] = []
    try:
        # zip stops at the range: the rows may reach further
        for k, v, e, measure in zip(range(w_lo, hi + 1), *rows):
            v = abs(v - shift)
            if v != 0.0:
                power = v**e
                if power < _MIN_NORMAL:
                    # a subnormal power has lost bits that the measure scales
                    # back up; multiply in logs when the product is normal
                    log_weight = e * math.log(v) + math.log(mass) + n * k * math.log(p)
                    if log_weight >= _LOG_MIN_NORMAL:
                        terms.append((math.exp(log_weight), e))
                        continue
                    lost.append((log_weight, e))
                # a power that rounded to 0.0 weighs 0.0, even where |S_k| is inf
                terms.append((power * mass * measure if power else 0.0, e))

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
    return terms, lost


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
    built = _modular_terms(f, u)
    if built is None:
        return NormResult(math.inf, False, 0.0, window)
    value = _modular_value(built[0], 1.0)
    if not math.isfinite(value):
        raise _norm_overflow()
    return NormResult(value, True, 0.0, window)


def _check_rel_tol(rel_tol: float) -> None:
    if not (1e-14 < rel_tol < 1e-3):
        raise DomainError(f"rel_tol must lie in (1e-14, 1e-3), got {rel_tol}")


def _solve_luxemburg(modular: _Modular, rel_tol: float) -> tuple[float, float]:
    """Solve sum w * lam**(-e) = 1 over the (w, e) terms of a modular for lam.

    Returns (root estimate, bracket half-width); no terms is the zero
    function, (0.0, 0.0). The weights are summed per distinct exponent
    first. One exponent has the closed form lam = W**(1/e): W itself at
    e = 1 and ``math.sqrt(W)`` at e = 2, both correctly rounded; else
    polished by one correction step in lam, and at an integer e up to
    ``_EXACT_ROOT_MAX`` rounded correctly by :func:`_nearest_root`.
    Otherwise phi(t) =
    log sum W_e * exp(-e*t) is convex and decreasing in t = log lam, so a
    Newton step from the lower end never passes the root, and the root lies
    at most phi / min(e) above it. The bracket comes straight from the
    weights, [max log(W_e)/e, max log(N*W_e)/e] for N groups; a step that
    would leave it bisects instead. Every returned bracket end is a point where the modular
    was evaluated in lam (above 1 at the lower end, at most 1 at the upper),
    and the solve stops once hi - lo <= rel_tol * hi.

    Raises NumericOverflowError when a weight or the root exceeds the float
    range, and NumericUnderflowError when every weight rounded to 0.0, the
    root lies below the smallest normal float, or a weight below the normal
    range carries more than rel_tol of the modular at the root: a subnormal
    group, or one of the modular's lost weights, which no group shows.
    """
    terms, lost = modular
    if not terms:
        return 0.0, 0.0
    weights: dict[float, float] = {}
    for w, e in terms:
        weights[e] = weights.get(e, 0.0) + w
    # one pass over the groups: the overflow check, the groups and their
    # logarithms, the weights below the normal range, t_lo and e_min
    groups = []
    logs = []
    lost = [*lost]
    t_lo = -math.inf
    e_min = math.inf
    for e, w in weights.items():
        if not w < math.inf:
            raise _norm_overflow()
        if w > 0.0:
            groups.append((w, e, -0.5 * e))
            log_w = math.log(w)
            logs.append((log_w, e))
            if w < _MIN_NORMAL:
                lost.append((log_w, e))
            # finite weights and exponents >= 1 keep t_lo within log(float max)
            if log_w / e > t_lo:
                t_lo = log_w / e
            if e < e_min:
                e_min = e
    if not groups:
        raise _norm_underflow()

    def modular_at(lam: float) -> tuple[float, float]:
        """rho(lam) and sum e * W_e * lam**(-e); lam**(-e/2) squared keeps a
        dominant term's power inside the float range. A power past the float
        range gives (inf, inf): the modular exceeds 1 there, and the Newton
        step, which reads inf / inf, bisects."""
        total = slope = 0.0
        for w, e, half_e in groups:
            try:
                h = math.pow(lam, half_e)
            except OverflowError:
                return math.inf, math.inf
            x = w * h * h
            total += x
            slope += e * x
        return total, slope

    def refuse_lost_weights(root: float) -> None:
        """Raise when a weight below the normal range carries more than
        rel_tol of the modular at the root; in logs, as its power may overflow."""
        bar = math.log(rel_tol * modular_at(root)[0])
        if any(log_w - e * math.log(root) > bar for log_w, e in lost):
            raise _weight_underflow()

    if len(groups) == 1:
        w, e, _ = groups[0]
        if w < _MIN_NORMAL:
            raise _weight_underflow()
        # the root is w at e = 1, else inside the normal range by a factor
        # exp(708 * (e - 1) / e) >= 1 + 1.5e-13, far past the step's few ulps
        if e == 1.0:
            lam = w
        elif e == 2.0:
            lam = math.sqrt(w)
        else:
            lam = math.pow(w, 1.0 / e)
            lam *= math.exp(math.log(modular_at(lam)[0]) / e)
            if e <= _EXACT_ROOT_MAX and e.is_integer():
                lam = _nearest_root(w, int(e), lam)
        if lost:
            refuse_lost_weights(lam)
        return lam, 0.0

    log_n = math.log(len(groups))
    # the margin keeps this unchecked end from ever being returned
    t_hi = max((log_w + log_n) / e for log_w, e in logs) + 2e-3
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
    if lost:
        refuse_lost_weights(root)
    return root, half


def _nearest_root(w: float, e: int, lam: float) -> float:
    """Of lam and its two neighbouring floats, the one nearest the exact
    root w**(1/e), for positive normal floats: lam moves one float down
    when w lies below the e-th power of the midpoint under lam, one up when
    it lies above the one over lam, both compared exactly in Fraction. No
    float w is the e-th power of a midpoint (its odd part has over 53
    bits), so there is no tie."""
    below, above = math.nextafter(lam, 0.0), math.nextafter(lam, math.inf)
    exact = Fraction(w)
    if exact < ((Fraction(below) + Fraction(lam)) / 2) ** e:
        return below
    if exact > ((Fraction(lam) + Fraction(above)) / 2) ** e:
        return above
    return lam


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
    if built is None:
        return NormResult(math.inf, False, 0.0, window)
    value, half = _solve_luxemburg(built, rel_tol)
    return NormResult(value, True, half, window)


def single_shell_norm(coefficient: float, shell: int, u: ExponentFunction) -> float:
    """Closed-form norm of coefficient * indicator(S_shell): |c| * |S_shell|**(1/u(shell)).

    The modular of c*chi/lam is a single term (|c|/lam)**u(shell) * |S_shell|,
    so the Luxemburg infimum solves in closed form: it is the Herz norm with
    beta = 0 and m = 1 of that one-shell function, and raises what that raises.
    """
    f = RadialStepFunction(u.ctx, (shell, shell), (coefficient,))
    return herz_norm(f, u, HerzParams(0.0, 1.0)).value


def _indicator_pieces(
    u: ExponentFunction, gamma: int, measures: list[float], lo: int
) -> _Modular:
    """The modular of chi(B_gamma) as (measure, exponent) terms, one per
    exponent piece: the inner ball, each window shell of B_gamma and the
    rest of B_gamma beyond the window. No weight is lost. ``measures[k -
    lo]`` is p**(n k) for each window shell k of u up to gamma."""
    ctx = u.ctx
    p, n = ctx.p, ctx.n
    j_min, j_max = u.window
    mass = _unit_mass(ctx)
    top = min(gamma, j_max)

    pieces = [(ppow(p, n * min(gamma, j_min - 1)), u.u_inner)]
    shells = islice(measures, j_min - lo, max(top + 1, j_min) - lo)  # j_min..top
    pieces += [(mass * measure, e) for measure, e in zip(shells, u.values)]
    if gamma > j_max:
        pieces.append((ppow(p, n * gamma) - measures[j_max - lo], u.u_infinity))
    return pieces, []


def ball_indicator_norm(
    u: ExponentFunction, gamma: int, rel_tol: float = 1e-10
) -> NormResult:
    """Norm of the ball indicator chi(B_gamma) in the variable Lebesgue space.

    The modular is one measure-weighted term per exponent piece (see
    :func:`_indicator_pieces`). The solver groups them by exponent, so a
    constant exponent gives |B_gamma|**(1/u) in closed form.
    """
    check_shell(gamma, "ball index")
    _check_rel_tol(rel_tol)
    j_min, j_max = u.window
    measures = ppow_range(u.ctx.p, u.ctx.n, j_min, min(gamma, j_max))
    value, half = _solve_luxemburg(_indicator_pieces(u, gamma, measures, j_min), rel_tol)
    return NormResult(value, True, half, (min(gamma, u.window[0] - 1), gamma))


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
    0.0; the caller has ruled out a divergent one. Where the product t_l is
    not a normal float, it is :func:`_times_power` of |F(l)| * |S_0|**(1/u(l))
    and one summed exponent, so a weight that saturates on its own does not
    lose a term that fits. A power that overflows raises OverflowError.
    """
    p, n = f.ctx.p, f.ctx.n
    mass = _unit_mass(f.ctx)
    w_lo = _union_window(f, u)[0]
    s_in, s_out = _herz_slopes(f, u, beta)
    exponents = u.evaluate_range(w_lo, top)
    roots = {e: math.pow(mass, 1.0 / e) for e in set(exponents)}
    terms = []
    for shell, c, e in zip(count(w_lo), f.evaluate_range(w_lo, top), exponents):
        if not c:
            terms.append(0.0)  # read before p**(l * beta), which may be inf
            continue
        weight = ppow(p, shell * beta) if beta else 1.0  # p**(l * 0.0) is 1.0
        t = weight * (abs(c) * roots[e] * ppow(p, n * shell / e))
        if not _MIN_NORMAL <= t <= _MAX:
            t = _times_power(abs(c) * roots[e], p, shell * beta + n * shell / e)
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
            if not partial:
                continue  # read before p**(-k0 * lam * m), which may overflow
            candidate = math.exp(-k0 * lam * m * log_p) * partial  # prefactor_m(k0)
            if candidate > best_gm:
                best_gm = candidate
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
    comes only from the CMO scan, and :func:`cmo_norm` has returned for a
    decaying inner tail, so the mixed case has rate > 0: walk shells k
    downward. Every shell j <= k reads within level = |amplitude| *
    p**(k*rate) of |shift|, so the rest lies in [max(|shift| - level,
    0)**exponent, (|shift| + level)**exponent] * |B_k|; the walk stops once
    that bracket is at most ``_MIXED_TOL`` times the sum so far, or once
    level is at most ``_MIXED_TOL`` * |shift|, which then stands for level.
    The returned pair is (midpoint value, half-width bound). A shell of
    float measure 0.0 has a bracket of width 0.0, so the walk takes about
    upto + 1100 / n steps at most. Returns None when the sum diverges; an
    infinite value is an overflow.
    """
    p, n = ctx.p, ctx.n
    mass = _unit_mass(ctx)
    if amplitude == 0.0 and shift == 0.0:
        return 0.0, 0.0
    if shift == 0.0:
        coef = abs(amplitude) ** exponent * mass
        tail = _geometric_tail(coef, p, rate * exponent + n, upto + 1, below=True)
        return None if tail is None else (tail, 0.0)
    # a flat tail, or a zero one: every zero tail has rate 0
    if rate == 0.0:
        return abs(amplitude - shift) ** exponent * ppow(p, n * upto), 0.0

    total = 0.0
    k = upto
    gap = abs(shift)
    while abs(value := amplitude * ppow(p, k * rate)) > _MIXED_TOL * gap:
        ball = ppow(p, n * k)
        hi = (gap + abs(value)) ** exponent * ball
        lo = max(gap - abs(value), 0.0) ** exponent * ball
        if hi - lo <= _MIXED_TOL * total:
            return total + 0.5 * (hi + lo), 0.5 * (hi - lo)
        total += abs(value - shift) ** exponent * mass * ball
        k -= 1
    hi = (gap * (1.0 + _MIXED_TOL)) ** exponent * ppow(p, n * k)
    lo = (gap * (1.0 - _MIXED_TOL)) ** exponent * ppow(p, n * k)
    return total + 0.5 * (hi + lo), 0.5 * (hi - lo)


def _last_constant_radius(b: RadialStepFunction, scan_lo: int) -> int:
    """The last radius gamma >= scan_lo - 1 such that b is constant on B_gamma.

    That needs a flat inner tail (rate 0, as every zero tail has) equal to
    the first window coefficients. The mean over such a ball is the
    constant exactly, so the modular of b minus it has no term and the
    candidate is 0.0. A nonzero tail whose inner ball measure
    p**(n*scan_lo) saturates gets no radius here: its inner modular term
    is 0.0 * inf, and the scan raises the overflow error on it.
    """
    amplitude, rate = b.inner_tail
    ctx = b.ctx
    if rate != 0.0 or (amplitude != 0.0 and ppow(ctx.p, ctx.n * scan_lo) == math.inf):
        return scan_lo - 1
    flat = next((i for i, c in enumerate(b.coeffs) if c != amplitude), len(b.coeffs))
    return b.window[0] - 1 + flat


def _solves_quietly(terms: list[tuple[float, float]]) -> bool:
    """True when :func:`_solve_luxemburg` cannot raise on these (w, e) terms
    with nothing lost.

    Each weight is at least four times the smallest normal float and their
    sum at most a quarter of the largest. The root lies between the largest
    w**(1/e) and max(1, sum of the weights), so no group weight and no root
    leaves the normal range, rounding included. No terms solve to 0.0.
    """
    weights = [w for w, _ in terms]
    return all(w >= 4.0 * _MIN_NORMAL for w in weights) and (
        sum(weights) <= 0.25 * sys.float_info.max
    )


def _norm_at_most(terms: list[tuple[float, float]], lam: float) -> bool:
    """True when rho(terms / lam) <= 1, so the norm of the terms is at most
    lam up to the rounding of that sum. False where lam is not a positive
    float or a power overflows."""
    if not 0.0 < lam < math.inf:
        return False
    try:
        return _modular_value(terms, lam) <= 1.0
    except OverflowError:
        return False


def _cmo_candidate(
    b: RadialStepFunction,
    u: ExponentFunction,
    shift: float,
    gamma: int,
    best: float,
    rel_tol: float,
    rows: _Rows,
) -> float:
    """The CMO ratio N / D at B_gamma, N = ||(b - shift) chi_{B_gamma}|| and
    D = ||chi_{B_gamma}||, or 0.0 where it cannot exceed ``best``. Both
    modulars read ``rows``, which reach shell gamma.

    Each solve returns its bracket's midpoint, within rel_tol / 2 of the
    root, so the solved N / D lies within about rel_tol of N / D, well
    inside 4 * rel_tol. The modular sums and powers add their rounding:
    1e-12, plus 8 ulps per summed term for sums of any length. So once
    N <= s * D with s = best * (1 - that slack), the solved ratio is at most
    ``best`` and max(best, ratio) is ``best`` bit for bit. Two tests, in
    order:

    - D_lo, the largest w**(1/e) over the indicator's pieces, is at most D,
      since each piece is at most its exponent group. rho(terms / (s*D_lo))
      <= 1 skips both solves.
    - Otherwise D is solved; rho(terms / (s*D)) <= 1 skips N.

    Neither runs unless both solves provably raise nothing (see
    :func:`_solves_quietly`; a lost weight may raise), so every error of
    the full computation still reaches the caller.
    """
    # cmo_norm has returned for a decaying inner tail, so no tail diverges
    shifted = _modular_terms(b, u, shift, gamma, rows)
    indicator = _indicator_pieces(u, gamma, rows[2], _union_window(b, u)[0])
    (terms, lost), (pieces, _) = shifted, indicator
    denominator = None
    if best > 0.0 and not lost and _solves_quietly(terms) and _solves_quietly(pieces):
        slack = 4.0 * rel_tol + 1e-12 + 2.0**-50 * (len(terms) + len(pieces))
        s = best * (1.0 - slack)
        d_lo = max(math.pow(w, 1.0 / e) for w, e in pieces)
        if _norm_at_most(terms, s * d_lo):
            return 0.0
        denominator = _solve_luxemburg(indicator, rel_tol)[0]
        if _norm_at_most(terms, s * denominator):
            return 0.0
    numerator = _solve_luxemburg(shifted, rel_tol)[0]
    if numerator == 0.0:
        return 0.0
    if denominator is None:
        denominator = _solve_luxemburg(indicator, rel_tol)[0]
    return numerator / denominator


def _cmo_envelope_terms(
    b: RadialStepFunction,
    u: ExponentFunction,
    ref: int,
    ref_integral: float,
    rel_tol: float,
    rows: _Rows,
) -> list[tuple[float, float, bool]]:
    """Closed-form bounds on the CMO candidates above the scan window.

    For gamma > ref the candidate ratio is at most
    ||(b - L) chi_{B_gamma}|| / ||chi_{B_gamma}|| + |mean_gamma - L|, where L
    is the value of b at infinity. Each piece of that bound is a term
    (coef, rho, linear) worth coef * rho**(gamma - ref), times gamma - ref
    if linear. ``ref_integral`` is the integral of b over B_ref, and
    ``rows`` reach shell ref.
    """
    ctx = b.ctx
    p, n = ctx.p, ctx.n
    mass = _unit_mass(ctx)
    u_inf = u.u_infinity
    chi_unit = math.pow(mass, 1.0 / u_inf)

    amplitude, rate = b.outer_tail
    limit = amplitude if (amplitude != 0.0 and rate == 0.0) else 0.0

    mass_at_ref = ppow(p, n * ref)
    near_norm = _solve_luxemburg(_modular_terms(b, u, limit, ref, rows), rel_tol)[0]
    near_integral = abs(ref_integral - limit * mass_at_ref)

    rho_chi = ppow(p, -n / u_inf)
    rho_mass = ppow(p, -n)
    chi_at_ref = chi_unit * ppow(p, ref * n / u_inf)
    terms = [
        (near_norm / chi_at_ref, rho_chi, False),
        (near_integral / mass_at_ref, rho_mass, False),
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
                terms.append((bulk / at_ref, rho, False))
            elif s == 0:
                terms.append((c / at_ref, rho, True))
            else:
                grown = _geometric_tail(c, p, s, 1, below=True) * ppow(p, ref * rate)
                terms.append((grown / unit, ppow(p, rate), False))
    for coef, rho, linear in terms:
        if not math.isfinite(coef):
            raise NumericOverflowError(f"a CMO envelope term at radius {ref} overflows")
        if linear and coef != 0.0 and rho >= 1.0:
            raise NumericUnderflowError("p**(-n/u_infinity) rounds to 1 in the CMO envelope")
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
    they are dominated by monotone geometric envelopes, built once at the
    first radius past the window and checked before each later candidate.
    The shell rows of b and u (see :func:`_shell_rows`) are built once, up
    to that first radius, and grow by one shell per later radius; every
    candidate and the envelope read a prefix of them.
    Past ``padic.SHELL_LIMIT`` the scan raises DomainError, and a ratio
    past the float range or an envelope that overflows or cannot decay in
    floats raises a float-range error.

    Each radius costs only what can change the result, by two rules:

    - Constant balls: the scan starts past the last radius on whose ball b
      equals its flat inner tail (:func:`_last_constant_radius`). There the
      mean is that constant exactly, so the modular has no term and the
      candidate is 0.0 with no modular built and no solve.
    - Dominated radii: once the supremum is positive, a radius whose ratio
      provably stays at or below it skips its solves
      (:func:`_cmo_candidate`), with a margin that covers both solves'
      tolerance and the float rounding.

    The value is a max over exactly the candidates that can reach it, so
    every bit of the result, and every error raised, is that of the scan
    that solves each radius in full.

    Examples:
        >>> ctx = PadicContext(2, 1)
        >>> u2 = ExponentFunction.constant(ctx, 2.0)
        >>> b = RadialStepFunction.indicator_ball(ctx, 0)
        >>> round(cmo_norm(b, u2).value, 10)
        0.5
    """
    _require_same_ctx(b, u)
    _check_rel_tol(rel_tol)
    n = b.ctx.n
    amplitude_in, rate_in = b.inner_tail
    if amplitude_in != 0.0 and rate_in <= -n:
        raise DomainError(
            f"ball means are undefined: inner tail rate {rate_in} is not "
            f"integrable in dimension {n}"
        )
    w_lo, w_hi = _union_window(b, u)
    scan_lo, ref = w_lo - 1, w_hi + 1

    if _is_constant(b):
        return NormResult(0.0, True, 0.0, (scan_lo, ref))

    amplitude_out, rate_out = b.outer_tail
    if (amplitude_out != 0.0 and rate_out > 0.0) or (amplitude_in != 0.0 and rate_in < 0.0):
        # A growing outer tail makes the oscillation on the outermost shell
        # of B_gamma grow like the tail itself, while the indicator norm grows
        # only like p**(gamma*n/u_infinity). Below the window the candidates
        # equal c * p**(gamma * rate_in) with c > 0, which grows without bound
        # as gamma decreases for a decaying inner tail.
        return NormResult(math.inf, False, 0.0, (scan_lo, ref))

    def envelope(gamma: int) -> float:
        d = gamma - ref
        return sum(coef * math.pow(rho, d) * (d if linear else 1) for coef, rho, linear in terms)

    best = tail_bound = 0.0
    start = _last_constant_radius(b, scan_lo) + 1
    integrals = _running_parts(b, start)
    rows = _shell_rows(b, u, w_lo, ref)
    values, exponents, measures = rows
    for gamma in count(start):
        if gamma > ref:
            bound = envelope(gamma)
            if gamma >= gamma_mono and (bound <= best or bound <= floor):
                tail_bound = bound if bound > best else 0.0
                break
            check_shell(gamma, "CMO scan radius")
            values.append(b.evaluate(gamma))
            exponents.append(u.u_infinity)
            measures.append(ppow(b.ctx.p, n * gamma))
        parts = next(integrals)
        shift = _mean_of_parts(parts, gamma, b.ctx)
        candidate = _cmo_candidate(b, u, shift, gamma, best, rel_tol, rows)
        if not math.isfinite(candidate):
            raise NumericOverflowError(f"the CMO ratio at radius {gamma} overflows")
        best = max(best, candidate)
        if gamma == ref:
            terms = _cmo_envelope_terms(b, u, ref, _float_value(*parts), rel_tol, rows)
            gamma_mono = max(
                ref + math.ceil(1.0 / math.log(1.0 / rho)) + 1 if linear and coef != 0.0 else ref
                for coef, rho, linear in terms
            )
            floor = 1e-13 * max(best, envelope(ref + 1), 1e-280)
    return NormResult(best, True, tail_bound, (scan_lo, gamma))
