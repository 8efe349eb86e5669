"""Monte Carlo cross-checks for shell integrals, norms, and operators.

This module deliberately avoids the closed-form shell sums used everywhere
else: it draws actual points of a ball, digit by digit (whether each base-p
digit of a coordinate is 0, an event of probability exactly 1/p decided
from random bytes), classifies each one's shell exactly, evaluates functions
there, and aggregates. Agreement with the analytic code is then a genuine
end-to-end check of the geometry (shell classification, measures, sampling)
rather than a reprint of the same formulas.

Two regimes are supported. Stratified sampling (the default) allocates the
budget proportionally to shell measures inside a truncation window, pooling
everything below it into one residual ball stratum. Only that ball stratum
draws points. Every point of a sphere stratum S_j lies on shell j, where a
radial function is constant, so the sphere carries one exact value: its mean
is f(j) and its variance 0. A stratified estimate therefore costs work in
proportion to the number of strata plus the ball's draws, not to
``samples``; ``MCEstimate.samples`` still counts every allocated point, drawn
or not. Plain uniform sampling over the ball (``stratified=False``) has
honest 1/sqrt(N) statistics and is what the 3-sigma comparisons in the
test-suite use.

A drawn ball keeps only how many of its points lie on each shell; f is
evaluated once per drawn shell, and the sample mean and variance are
count-weighted sums over those shells, so no per-point list is built.
Standard errors come from this sample variance (zero below two points),
plus an analytic bound for mass above the window where one applies.

A Luxemburg estimate builds its strata once: the measures in one pass, with
a range check at the smallest and the largest only, and the ball's draws.
Once the root is bracketed, the strata are summed into one weight per
distinct exponent, so each bisection step costs one power per exponent
group, not one per stratum and drawn magnitude.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, replace

from .errors import DomainError, NumericOverflowError, NumericUnderflowError
from .operators import OperatorSpec
from .padic import PadicContext, check_shell, ppow, ppow_range, sample_shells, sphere_measure
from .radial import (
    ExponentFunction,
    RadialStepFunction,
    combine,
)

_SEED_STRIDE = 1_000_003

#: The sampler's digit resolution: each coordinate keeps 25 base-p digits.
_RESOLUTION = 24


@dataclass(frozen=True)
class OracleConfig:
    """Sampling configuration.

    ``truncation_window`` bounds the shells that stratified estimates
    resolve individually; everything below its lower edge is pooled into a
    single residual ball stratum, and analytic bias bounds cover mass above
    the upper edge where applicable. ``seed`` seeds the sampler, so equal
    configurations give equal estimates. ``stratified=False`` samples the
    ball plainly; only integrals and Hardy and commutator probes, whose
    region is a ball, admit it.
    """

    samples: int = 10_000
    truncation_window: tuple[int, int] = (-32, 32)
    seed: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        if self.samples < 1000:
            raise DomainError(
                f"oracle estimates need at least 1000 samples, got {self.samples}"
            )
        lo, hi = self.truncation_window
        check_shell(lo, "truncation_window[0]")
        check_shell(hi, "truncation_window[1]")
        if lo >= hi:
            raise DomainError(
                f"truncation window {self.truncation_window} is empty"
            )


@dataclass(frozen=True)
class MCEstimate:
    """An estimate with its standard error; ``samples`` counts the points
    allocated to its strata, drawn or not."""

    value: float
    std_error: float
    samples: int


def _child_seed(seed: int, index: int) -> int:
    return (seed * _SEED_STRIDE + index) % (2**63)


def _scaled(coef: float, p: int, exponent: float, what: str) -> float:
    """coef * p**exponent, as every stratum measure and shell scale is built.

    A float-range error names it ``what`` unless it is a normal float: inf
    would give a nan allocation, 0.0 or a subnormal a wrong estimate."""
    value = coef * ppow(p, exponent)
    if value > sys.float_info.max:
        raise NumericOverflowError(f"{what} overflows the float range")
    if value < sys.float_info.min:
        raise NumericUnderflowError(f"{what} falls below the normal float range")
    return value


def _sphere_measures(ctx: PadicContext, shells: range) -> list[float]:
    """|S_j| = |S_0| * p**(n*j) for the shells j of a step-1 range, with
    |S_0| = 1 - p**-n correctly rounded, each with the bits of
    :func:`_scaled`. The measures rise with j, so only the first and the
    last need its range check; either raises its typed error."""
    p, n = ctx.p, ctx.n
    mass = float(sphere_measure(0, ctx))
    for j in (*shells[:1], *shells[-1:]):
        _scaled(mass, p, n * j, f"|S_{j}|")
    return [mass * power for power in ppow_range(p, n, shells.start, shells.stop - 1)]


def _allocate(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder allocation of ``total`` draws, at least one each,
    over weights that :func:`_scaled` made normal floats (one or more)."""
    mass = sum(weights)
    if mass > sys.float_info.max or total * max(weights) > sys.float_info.max:
        raise NumericOverflowError("the stratum draw quotas overflow the float range")
    quotas = [total * w / mass for w in weights]
    counts = [int(q) for q in quotas]
    short = total - sum(counts)
    by_remainder = sorted(
        range(len(weights)), key=lambda i: quotas[i] - counts[i], reverse=True
    )
    for i in by_remainder[:short]:
        counts[i] += 1
    return [max(1, c) for c in counts]


def _sample_ball(
    f: RadialStepFunction, gamma: int, count: int, config: OracleConfig
) -> tuple[dict[int | None, float], dict[int | None, int]]:
    """f at each shell drawn by ``count`` points of B_gamma on a fresh
    ``Random(config.seed)``, and how many points each shell drew. The origin
    (None), of measure zero, takes the inner tail's limit: its amplitude
    when the inner rate is 0, else 0."""
    rng = random.Random(config.seed)
    counts = sample_shells(gamma, count, f.ctx, _RESOLUTION, rng)
    amplitude, rate = f.inner_tail
    origin = amplitude if rate == 0.0 else 0.0
    low = min([k for k in counts if k is not None], default=gamma)
    values = f.evaluate_range(low, gamma)
    table = {k: origin if k is None else values[k - low] for k in counts}
    return table, counts


def _stratify(
    f: RadialStepFunction, top: int, spheres: range, config: OracleConfig
) -> tuple[list[float], dict[int | None, float], dict[int | None, int], list[float], int]:
    """The residual ball B_top and the spheres S_j, j in ``spheres``: their
    measures, in that order; the table and shell counts of the ball's draws;
    f on each sphere; and the number of points allocated to them all.

    ``_allocate`` sizes every stratum, but only the ball is sampled. A
    sphere's points all lie on its shell,
    where f is constant, so the sphere carries one exact value: its mean is
    f(j) and its variance 0. The work is one value per sphere plus the ball
    draws, whatever ``config.samples`` allocates to the spheres.
    """
    measures = [_scaled(1.0, f.ctx.p, f.ctx.n * top, f"|B_{top}|")]
    measures += _sphere_measures(f.ctx, spheres)
    counts = _allocate(config.samples, measures)
    table, sampled = _sample_ball(f, top, counts[0], config)
    levels = f.evaluate_range(spheres.start, spheres.stop - 1)
    return measures, table, sampled, levels, sum(counts)


def _shell_stats(
    table: dict[int | None, float], counts: dict[int | None, int]
) -> tuple[float, float]:
    """Sample mean and variance (zero below two points) of the drawn points,
    ``counts[j]`` of them on shell j, each reading ``table[j]``. Sphere
    strata never come here: their mean is exact and their variance 0.

    With k points in all, mean = sum c * f(j) / k and variance = sum c *
    (f(j) - mean)**2 / (k - 1), summed over ``counts`` in its order; a
    deviation is squared once per drawn shell, never for a table entry that
    no point drew. A square past the float range raises a typed error.
    """
    k = sum(counts.values())
    value = table.__getitem__
    mean = sum([c * value(j) for j, c in counts.items()]) / k
    if k < 2:
        return mean, 0.0
    try:
        var = sum([c * (value(j) - mean) ** 2 for j, c in counts.items()]) / (k - 1)
    except OverflowError:
        raise NumericOverflowError(
            "the sampled variance overflows the float range"
        ) from None
    return mean, var


def _outer_bias(coef: float, ctx: PadicContext, s: float, hi: int) -> float:
    """coef * |S_0| times the sum of p**(s*k) over the shells k > hi, for
    s < 0: the bias bound of an outer tail cut off above the window."""
    p = ctx.p
    mass = float(sphere_measure(0, ctx))
    # 1 - p**s cancels as s nears 0 and -expm1(s ln p) does not; up to
    # p**s = 1/2 the subtraction cancels nothing, and keeps its bits there
    ratio = ppow(p, s)
    den = 1.0 - ratio if ratio <= 0.5 else -math.expm1(s * math.log(p))
    return coef * mass * ppow(p, s * (hi + 1)) / den


def _exponent_groups(
    strata: list[tuple[float, float, float]], top: float
) -> list[tuple[float, float]]:
    """(e, W_e) for each distinct exponent e of the strata (w, e, a), where
    W_e sums w * (a / top)**e over them; zero weights are dropped.

    At a ``top`` where the modular is at most 1 every term is at most 1, so
    no weight overflows. Each power is taken in two halves: where
    (a / top)**e alone is subnormal but w is large, the term keeps its bits.
    """
    groups: dict[float, float] = {}
    for weight, exponent, magnitude in strata:
        half = (magnitude / top) ** (0.5 * exponent)
        groups[exponent] = groups.get(exponent, 0.0) + weight * half * half
    return [(e, w) for e, w in groups.items() if w]


def _grouped_modular(
    groups: list[tuple[float, float]], top: float, lam: float
) -> tuple[float, float]:
    """The modular sum of W_e * (top / lam)**e over the groups (e, W_e), and
    its slope in lam, -sum of e * W_e * (top / lam)**e, over lam: one power
    per group."""
    r = top / lam
    value = slope = 0.0
    for e, w in groups:
        term = w * r**e
        value += term
        slope += e * term
    return value, -slope / lam


def _strata_modular(strata: list[tuple[float, float, float]], lam: float) -> float:
    """The sum of w * (a / lam)**e over the strata (w, e, a), one power per
    stratum. A power past the float range makes it inf: the modular exceeds
    1 at this lam."""
    try:
        return sum([w * (a / lam) ** e for w, e, a in strata])
    except OverflowError:
        return math.inf


def _bisect_luxemburg(
    strata: list[tuple[float, float, float]], rel_tol: float
) -> tuple[float, float, float]:
    """Invert the decreasing map lam -> sum of w * (a / lam)**e over the
    strata (w, e, a) at level 1.

    Returns (root estimate, bracket half-width, slope of the map at the
    root). Brackets by doubling and halving from lam = 1 on
    :func:`_strata_modular`, then bisects; the map is strictly decreasing
    and continuous wherever it is positive on this class. The map must not
    be identically 0: a modular that rounds to 0.0 at lam = 1 only says the
    root lies lower. A root outside the normal float range raises a typed
    error.

    Once (hi / lo)**e <= 2**512 for every exponent e (from the start below
    e = 512), the strata are summed at top = hi into one weight per distinct
    exponent, and each later step and the slope cost one power per group:
    on [lo, top] no power passes 2**512, and a weight below the normal
    range moves the map by less than 2**-510. Where (1 + rel_tol)**e passes
    2**512, grouping waits for the final bracket, and a slope past the float
    range reads as infinite. The oracle keeps this solver to itself, so it
    shares no root finder with the closed forms.
    """
    if _strata_modular(strata, 1.0) <= 1.0:
        hi = 1.0
        lo = 0.5
        while _strata_modular(strata, lo) <= 1.0:
            if lo * 0.5 < sys.float_info.min:
                raise NumericUnderflowError(
                    "the sampled Luxemburg norm falls below the normal float range"
                )
            hi = lo
            lo *= 0.5
    else:
        lo = 1.0
        hi = 2.0
        while _strata_modular(strata, hi) > 1.0:
            if hi > sys.float_info.max / 2:
                raise NumericOverflowError(
                    "the sampled Luxemburg norm overflows the float range"
                )
            lo = hi
            hi *= 2.0
    widest = max(e for _, e, _ in strata)
    groups = None
    for _ in range(200):
        if hi - lo <= rel_tol * hi:
            break
        if groups is None and widest * math.log2(hi / lo) <= 512.0:
            top, groups = hi, _exponent_groups(strata, hi)
        # halving each end before adding keeps lo + hi from overflowing near
        # the top of the float range; above the subnormals it rounds the same
        mid = 0.5 * lo + 0.5 * hi
        if groups is None:
            value = _strata_modular(strata, mid)
        else:
            value = _grouped_modular(groups, top, mid)[0]
        if value > 1.0:
            lo = mid
        else:
            hi = mid
    if groups is None:
        top, groups = hi, _exponent_groups(strata, hi)
    root = 0.5 * lo + 0.5 * hi
    try:
        slope = _grouped_modular(groups, top, root)[1]
    except OverflowError:
        slope = -math.inf
    return root, 0.5 * (hi - lo), slope


def mc_integrate(
    f: RadialStepFunction, gamma: int, config: OracleConfig
) -> MCEstimate:
    """Estimate the integral of f over the ball B_gamma.

    Examples:
        >>> ctx = PadicContext(2, 1)
        >>> f = RadialStepFunction.indicator_ball(ctx, 0)
        >>> est = mc_integrate(f, 0, OracleConfig(samples=1000, seed=7))
        >>> round(est.value, 9)
        1.0
    """
    ctx = f.ctx
    check_shell(gamma, "integration radius")
    p, n = ctx.p, ctx.n

    if not config.stratified:
        measure = _scaled(1.0, p, n * gamma, f"|B_{gamma}|")
        mean, var = _shell_stats(*_sample_ball(f, gamma, config.samples, config))
        return MCEstimate(
            measure * mean,
            measure * math.sqrt(var / config.samples),
            config.samples,
        )

    lo = min(config.truncation_window[0], f.window[0])
    measures, table, sampled, levels, total = _stratify(
        f, min(lo - 1, gamma), range(lo, gamma + 1), config
    )
    mean, var = _shell_stats(table, sampled)
    value = 0.0
    for measure, level in zip(measures, [mean, *levels]):
        value += measure * level
    draws = sum(sampled.values())
    return MCEstimate(value, measures[0] * math.sqrt(var / draws), total)


def mc_luxemburg(
    f: RadialStepFunction,
    u: ExponentFunction,
    config: OracleConfig,
    rel_tol: float = 1e-10,
) -> MCEstimate:
    """Estimate the Luxemburg norm by inverting a sampled modular.

    Points are drawn once and shared across all trial levels lam (common
    random numbers), so the sampled modular is a smooth decreasing function
    of lam and bisection applies unchanged. The standard error of the root
    is propagated from the modular's standard error through the modular's
    analytic derivative at the root, -sum of e * W_e * (top / lam)**e / lam
    over the exponent groups of :func:`_bisect_luxemburg`.

    Functions with a nonzero outer tail get an analytic bias bound for the
    mass above the truncation window folded into the standard error; the
    inner tail is covered by the residual ball stratum itself. A norm
    outside the normal float range raises a typed error, and so does an
    outer tail that makes the norm infinite or, with f 0 on every stratum,
    carries all of it. The norm's region, all of Q_p^n, is unbounded, so
    plain sampling is refused. ``rel_tol`` must lie in (1e-14, 1e-3), as for
    the closed-form norms.
    """
    if f.ctx != u.ctx:
        raise DomainError("function and exponent live in different contexts")
    if not (1e-14 < rel_tol < 1e-3):
        raise DomainError(f"rel_tol must lie in (1e-14, 1e-3), got {rel_tol}")
    if not config.stratified:
        raise DomainError("the norm task has no plain sampling: its region is unbounded")
    amplitude, rate = f.outer_tail
    s = rate * u.u_infinity + f.ctx.n
    if amplitude != 0.0 and s >= 0:
        raise DomainError(
            "sampled modular cannot converge: outer tail makes the norm infinite"
        )
    lo = min(config.truncation_window[0], f.window[0], u.window[0])
    hi = max(config.truncation_window[1], f.window[1], u.window[1])
    spheres = range(lo, hi + 1)
    measures, table, sampled, levels, total = _stratify(f, lo - 1, spheres, config)
    ball, u_ball = measures[0], u.u_inner
    draws = sum(sampled.values())
    magnitude = {k: abs(v) for k, v in table.items()}
    multiplicity: Counter[float] = Counter()
    for k, c in sampled.items():
        multiplicity[magnitude[k]] += c
    if not any(multiplicity) and not any(levels):
        if amplitude != 0.0:
            raise DomainError(
                f"f reads 0 on every stratum up to shell {hi} but its outer "
                "tail does not: widen the truncation window into the tail"
            )
        return MCEstimate(0.0, 0.0, total)

    # the ball's draws, one stratum per distinct magnitude, then the spheres
    strata = [(ball * c / draws, u_ball, a) for a, c in multiplicity.items()]
    exponents = u.evaluate_range(lo, hi)
    strata += [
        (measure, e, abs(level)) for measure, e, level in zip(measures[1:], exponents, levels)
    ]
    root, half, slope = _bisect_luxemburg(strata, rel_tol)
    # each term carries the ball's measure, so its spread keeps the scale
    # of the modular near 1 however far the ball lies from the origin
    term = {k: ball * (a / root) ** u_ball for k, a in magnitude.items()}
    _, var = _shell_stats(term, sampled)
    sigma_mod = math.sqrt(var / draws)
    if amplitude != 0.0:
        coef = (abs(amplitude) / root) ** u.u_infinity
        sigma_mod += _outer_bias(coef, f.ctx, s, hi)

    # a flat sampled modular cannot place the root: its error is unbounded
    sigma_root = (sigma_mod / abs(slope) if slope else math.inf) + half
    return MCEstimate(root, sigma_root, total)


def mc_operator_probe(
    spec: OperatorSpec,
    f: RadialStepFunction,
    shell: int,
    config: OracleConfig,
) -> MCEstimate:
    """Estimate (T f)(x) for |x| = p**shell by sampling the defining integral.

    Supports the hardy, adjoint, and commutator kinds. The commutator runs
    two sub-estimates with derived seeds and merges their errors in
    quadrature. The adjoint's region, |y| > p**shell, is unbounded, so it
    refuses plain sampling.
    """
    ctx = f.ctx
    check_shell(shell, "probe shell")
    p, n = ctx.p, ctx.n
    alpha = spec.alpha

    if spec.kind == "adjoint":
        if not config.stratified:
            raise DomainError("the adjoint task has no plain sampling: its region is unbounded")
        hi = max(config.truncation_window[1], f.window[1])
        amplitude, rate = f.outer_tail
        bias = 0.0
        if amplitude != 0.0:
            s = rate + alpha
            if s >= 0:
                raise DomainError(
                    f"outer tail rate {rate} with order {alpha} makes the "
                    f"defining integral divergent (needs rate + alpha < 0)"
                )
            bias = _outer_bias(abs(amplitude), ctx, s, hi)
        # a shell where f vanishes adds exactly 0, so it gets no stratum;
        # every other stratum is a sphere, exact with variance 0
        levels = f.evaluate_range(shell + 1, hi)
        shells = [j for j, level in enumerate(levels, shell + 1) if level != 0.0]
        if not shells:
            return MCEstimate(0.0, bias, 0)
        span = _sphere_measures(ctx, range(shells[0], shells[-1] + 1))
        weights = [span[j - shells[0]] for j in shells]
        value = 0.0
        for j, weight in zip(shells, weights):
            factor = _scaled(1.0, p, j * (alpha - n), f"the scale of shell {j}")
            value += weight * (levels[j - shell - 1] * factor)
        return MCEstimate(value, bias, sum(_allocate(config.samples, weights)))

    scale = _scaled(1.0, p, shell * (alpha - n), f"the scale of shell {shell}")
    if spec.kind == "hardy":
        est = mc_integrate(f, shell, config)
        return MCEstimate(scale * est.value, scale * est.std_error, est.samples)

    assert spec.symbol is not None
    b_val = spec.symbol.evaluate(shell)
    first = mc_integrate(
        f, shell, replace(config, seed=_child_seed(config.seed, 1))
    )
    second = mc_integrate(
        combine(spec.symbol, f, "multiply"),
        shell,
        replace(config, seed=_child_seed(config.seed, 2)),
    )
    value = scale * (b_val * first.value - second.value)
    sigma = scale * math.hypot(b_val * first.std_error, second.std_error)
    return MCEstimate(value, sigma, first.samples + second.samples)
