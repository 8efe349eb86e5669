"""Claim-level machinery: hypothesis validation, ratio sweeps, sharpness probes.

Each supported claim id names one boundedness statement for the averaging
operator (or its symbol commutator) between weighted shell-decomposition
spaces. A claim is exercised numerically in three ways:

* ``validate_hypotheses`` checks every stated parameter constraint and
  reports them one by one, reading the claim's hypotheses from its row of
  the shape table below; the commutator symbol needs bounded tails, which
  within the radial class is exactly finite mean oscillation;
* ``sweep`` draws random compactly-supported functions of growing window
  size and records target-norm/source-norm ratios, whose suprema should
  stabilize when the claimed bound holds;
* ``sharpness_probe`` evaluates single-sphere bumps under the adjoint at a
  weight exponent just beyond the admissible range, where the ratios must
  grow without bound.

The claim ids are opaque tokens; the mapping below records, for each one,
which operator it exercises, which space family it lives in, how the
target exponent derives from the source exponent, and whether its beta
interval moves up by lambda.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, HypothesisViolationError
from .norms import (
    HerzParams,
    MorreyHerzParams,
    NormResult,
    ball_indicator_norm,
    cmo_norm,
    herz_norm,
    morrey_herz_norm,
)
from .operators import OperatorSpec, apply_operator, hardy_adjoint
from .padic import PadicContext, ppow
from .radial import (
    ExponentFunction,
    RadialStepFunction,
    Tail,
    ball_mean,
    conjugate,
    sobolev_shift,
)

THEOREM_IDS = ("T31", "T32", "T41", "T42", "C31", "C32", "C41", "C42")


@dataclass(frozen=True)
class _ClaimShape:
    operator: str  # "hardy" or "commutator"
    space: str  # "herz" or "morrey-herz"
    target: str  # "shift", "same" or "conjugate"
    beta_moves: bool  # the beta interval moves up by lambda


_SHAPES = {
    "T31": _ClaimShape("hardy", "herz", "shift", False),
    "T32": _ClaimShape("commutator", "herz", "shift", False),
    "T41": _ClaimShape("hardy", "morrey-herz", "shift", True),
    "T42": _ClaimShape("commutator", "morrey-herz", "shift", True),
    "C31": _ClaimShape("hardy", "herz", "same", False),
    "C32": _ClaimShape("commutator", "herz", "conjugate", False),
    "C41": _ClaimShape("hardy", "morrey-herz", "same", False),
    "C42": _ClaimShape("commutator", "morrey-herz", "conjugate", True),
}


def default_symbol(ctx: PadicContext) -> RadialStepFunction:
    """The clamped shell-index profile b(x) = clamp(log_p|x|, -3, 3).

    This is the canonical symbol with bounded mean oscillation in every
    admissible exponent: it grows by 1 per shell inside the window and is
    frozen outside, so every ball sees oscillation comparable to the ball's
    own logarithmic size.
    """
    return RadialStepFunction(
        ctx,
        (-3, 3),
        tuple([float(j) for j in range(-3, 4)]),
        inner_tail=Tail(-3.0, 0.0),
        outer_tail=Tail(3.0, 0.0),
    )


@dataclass(frozen=True)
class TheoremConfig:
    """Parameters of one boundedness claim.

    ``u`` is the source-space exponent; the target exponent is derived from
    it per the claim shape. ``m1``/``m2`` are the source/target summation
    indices, ``beta`` the shell weight exponent, ``lam`` the cutoff scaling
    exponent (meaningful for the morrey-herz claims only), and ``symbol``
    the commutator symbol (a default is supplied when omitted). How large a
    sweep runs is the caller's choice, an argument of :func:`sweep`.
    """

    theorem: str
    u: ExponentFunction
    alpha: float = 0.0
    beta: float = 0.0
    m1: float = 1.0
    m2: float = 1.0
    lam: float = 0.0
    symbol: RadialStepFunction | None = None

    def __post_init__(self) -> None:
        if self.theorem not in _SHAPES:
            raise DomainError(
                f"unknown claim id {self.theorem!r}; supported: {', '.join(THEOREM_IDS)}"
            )
        for name in ("alpha", "beta", "m1", "m2", "lam"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.symbol is not None and self.symbol.ctx != self.u.ctx:
            raise DomainError("symbol and exponent live in different contexts")

    @property
    def ctx(self) -> PadicContext:
        return self.u.ctx

    @property
    def shape(self) -> _ClaimShape:
        return _SHAPES[self.theorem]

    def target_exponent(self) -> ExponentFunction:
        """The exponent of the target space for this claim."""
        kind = self.shape.target
        if kind == "shift":
            return sobolev_shift(self.u, self.alpha)
        if kind == "conjugate":
            return conjugate(self.u)
        return self.u

    def effective_symbol(self) -> RadialStepFunction | None:
        if self.shape.operator != "commutator":
            return None
        if self.symbol is not None:
            return self.symbol
        return default_symbol(self.ctx)

    def operator_spec(self) -> OperatorSpec:
        if self.shape.operator == "commutator":
            return OperatorSpec("commutator", self.alpha, self.effective_symbol())
        return OperatorSpec("hardy", self.alpha)


@dataclass(frozen=True)
class HypothesisCheck:
    """One named constraint with its verdict.

    Interval constraints also carry the machine-precision (lo, hi) pair in
    ``bounds`` so callers can compare against an independent recomputation
    without parsing the human-readable detail string.
    """

    name: str
    satisfied: bool
    detail: str
    bounds: tuple[float, float] | None = None


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str
    checks: tuple[HypothesisCheck, ...]

    @property
    def satisfied(self) -> bool:
        return all(check.satisfied for check in self.checks)

    def failures(self) -> tuple[HypothesisCheck, ...]:
        return tuple([check for check in self.checks if not check.satisfied])

    def check(self, name: str) -> HypothesisCheck:
        for item in self.checks:
            if item.name == name:
                return item
        raise DomainError(f"no hypothesis check named {name!r}")


def _interval_check(
    name: str, lo: float, value: float, hi: float, label: str
) -> HypothesisCheck:
    ok = lo < value < hi
    return HypothesisCheck(
        name,
        ok,
        f"need {lo:.6g} < {label} < {hi:.6g}, have {label} = {value:.6g}",
        bounds=(lo, hi),
    )


def validate_hypotheses(config: TheoremConfig) -> HypothesisReport:
    """Check every stated parameter constraint of a claim, one by one.

    One pass over the claim's row of the shape table: the exponent and the
    index order, alpha, lambda, the beta interval and, for commutators, the
    symbol. Returns a report rather than raising so callers can show all
    failures at once; ``require_hypotheses`` wraps this in an exception.
    """
    u, n, shape = config.u, config.ctx.n, config.shape
    alpha, lam = config.alpha, config.lam
    checks = [
        HypothesisCheck(
            "exponent-admissible",
            u.u_minus > 1.0,
            f"need 1 < u over all shells, have u in [{u.u_minus:.6g}, {u.u_plus:.6g}]",
        ),
        HypothesisCheck(
            "index-order",
            0 < config.m1 <= config.m2,
            f"need 0 < m1 <= m2, have m1 = {config.m1:.6g}, m2 = {config.m2:.6g}",
        ),
    ]
    if u.u_minus <= 1.0:
        return HypothesisReport(config.theorem, tuple(checks))

    # w is the exponent whose extremes bound beta from below: v for the
    # shift claims, u for the others.
    w = u
    if shape.target == "shift":
        cap, label = n / u.u_plus, "n/u_plus"
        shifted = 0 < alpha < cap
        if shifted:
            w = sobolev_shift(u, alpha)
            cap, label = min(cap, n / conjugate(w).u_plus), "min(n/u_plus, n/v'_plus)"
        checks.append(
            HypothesisCheck(
                "alpha-range",
                0 < alpha < cap,
                f"need 0 < alpha < {label} = {cap:.6g}, have alpha = {alpha:.6g}",
                bounds=(0.0, cap),
            )
        )
        if not shifted:  # without v nothing past alpha can be checked
            return HypothesisReport(config.theorem, tuple(checks))
    else:
        checks.append(
            HypothesisCheck(
                "alpha-zero",
                alpha == 0.0,
                f"this claim fixes alpha = 0, have alpha = {alpha:.6g}",
            )
        )

    if shape.space == "morrey-herz":
        checks.append(
            HypothesisCheck(
                "lambda-range", lam >= 0, f"need lambda >= 0, have lambda = {lam:.6g}"
            )
        )
    lo, hi = -n / w.u_plus, n / conjugate(u).u_plus
    if shape.beta_moves:
        lo, hi = lam - n / w.u_minus, hi + lam
    checks.append(_interval_check("beta-range", lo, config.beta, hi, "beta"))
    if shape.space == "herz" and lam != 0.0:
        checks.append(
            HypothesisCheck(
                "lambda-unused",
                False,
                "this claim has no cutoff scaling; leave lambda = 0, "
                f"have lambda = {lam:.6g}",
            )
        )

    if shape.operator == "commutator":
        # Within the radial class the mean oscillation is finite exactly when
        # both tails stay bounded; a zero tail carries rate 0.
        symbol = config.effective_symbol()
        inner, outer = symbol.inner_tail.rate, symbol.outer_tail.rate
        checks.append(
            HypothesisCheck(
                "symbol-oscillation",
                inner >= 0 and outer <= 0,
                "symbol needs bounded tails for finite mean oscillation: need inner "
                f"rate >= 0 and outer rate <= 0, have {inner:.6g} and {outer:.6g}",
            )
        )
    return HypothesisReport(config.theorem, tuple(checks))


def require_hypotheses(config: TheoremConfig) -> HypothesisReport:
    """Validate and raise HypothesisViolationError when anything fails."""
    report = validate_hypotheses(config)
    if not report.satisfied:
        failed = ", ".join(
            f"{check.name} ({check.detail})" for check in report.failures()
        )
        raise HypothesisViolationError(
            f"claim {config.theorem} hypotheses violated: {failed}", report
        )
    return report


class RatioSample(NamedTuple):
    source_norm: float
    target_norm: float
    ratio: float


def _space_norm(
    f: RadialStepFunction, w: ExponentFunction, config: TheoremConfig, m: float
) -> NormResult:
    if config.shape.space == "herz":
        return herz_norm(f, w, HerzParams(config.beta, m))
    return morrey_herz_norm(f, w, MorreyHerzParams(config.beta, m, config.lam))


def boundedness_ratio(config: TheoremConfig, f: RadialStepFunction) -> RatioSample:
    """Target-norm/source-norm ratio of one function under a claim's operator.

    The source norm measures f itself with exponent u and index m1; the
    target norm measures the operator image with the claim's derived
    exponent and index m2. A finite supremum of these ratios over a rich
    family is what the claim asserts.

    A zero or infinite source norm makes the ratio meaningless, so those
    samples come back with ``ratio = nan`` as a skip marker; sweep suprema
    ignore them.
    """
    source = _space_norm(f, config.u, config, config.m1).value
    image = apply_operator(config.operator_spec(), f)
    target = _space_norm(image, config.target_exponent(), config, config.m2).value
    if source == 0.0 or math.isinf(source):
        ratio = math.nan
    else:
        ratio = target / source
    return RatioSample(source, target, ratio)


def random_family(
    ctx: PadicContext, size_bound: int, count: int, rng: random.Random
) -> list[RadialStepFunction]:
    """Random compactly-supported radial steps with windows inside [-N, N].

    Window endpoints are uniform over [-N, N]; shell values have log-uniform
    magnitude between p**-3 and p**3 and a random sign. Both tails are zero,
    so every sample lies in every space under test.
    """
    if size_bound < 0:
        raise DomainError(f"size bound must be nonnegative, got {size_bound}")
    family = []
    for _ in range(count):
        a = rng.randint(-size_bound, size_bound)
        b = rng.randint(-size_bound, size_bound)
        window = (min(a, b), max(a, b))
        coeffs = []
        for _ in range(window[1] - window[0] + 1):
            magnitude = ppow(ctx.p, rng.uniform(-3.0, 3.0))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            coeffs.append(sign * magnitude)
        family.append(RadialStepFunction(ctx, window, tuple(coeffs)))
    return family


class SweepRow(NamedTuple):
    sample_id: int
    size_bound: int
    source_norm: float
    target_norm: float
    ratio: float


def _sup_ignoring_skips(ratios: Sequence[float]) -> float:
    """Largest non-skipped ratio; nan flags an undefined supremum."""
    kept = [r for r in ratios if not math.isnan(r)]
    return max(kept) if kept else math.nan


@dataclass(frozen=True)
class RatioReport:
    """All rows of one ratio sweep, with the swept parameters echoed back.

    The CSV uses repr() for the floating-point columns, so a fixed seed
    reproduces the file byte for byte. ``supremum`` is the running maximum
    over every non-skipped row; an empty family (or one whose samples were
    all skipped) leaves it nan, the undefined-supremum flag.
    """

    theorem: str
    rows: tuple[SweepRow, ...]
    params: dict[str, object]

    @property
    def supremum(self) -> float:
        return _sup_ignoring_skips([row.ratio for row in self.rows])

    def sizes(self) -> tuple[int, ...]:
        seen: list[int] = []
        for row in self.rows:
            if row.size_bound not in seen:
                seen.append(row.size_bound)
        return tuple(seen)

    def sup_ratio(self, size_bound: int) -> float:
        return _sup_ignoring_skips(
            [row.ratio for row in self.rows if row.size_bound == size_bound]
        )

    def to_csv(self) -> str:
        lines = ["sample_id,N,source_norm,target_norm,ratio"]
        for row in self.rows:
            lines.append(
                f"{row.sample_id},{row.size_bound},"
                f"{row.source_norm!r},{row.target_norm!r},{row.ratio!r}"
            )
        return "\n".join(lines) + "\n"


def sweep(
    config: TheoremConfig,
    sizes: Sequence[int] = (5, 10, 20),
    count: int = 200,
    seed: int = 0,
) -> RatioReport:
    """Ratio sweep over seeded random families of growing window size.

    The hypotheses must hold before anything is drawn. For each size bound
    N in ``sizes``, in order, ``count`` random functions are drawn and their
    source norm, target norm and ratio recorded; no sizes or a zero count
    give zero rows and an undefined (nan) supremum. The whole family for a
    bound is drawn before any sample is evaluated, and rows are merged in
    sample-id order, so the result is deterministic for a given seed no
    matter how the evaluations are scheduled.
    """
    require_hypotheses(config)
    if count < 0:
        raise DomainError(f"count must be nonnegative, got {count}")
    rng = random.Random(seed)
    rows: list[SweepRow] = []
    sample_id = 0
    for size_bound in sizes:
        for f in random_family(config.ctx, size_bound, count, rng):
            sample = boundedness_ratio(config, f)
            rows.append(SweepRow(sample_id, size_bound, *sample))
            sample_id += 1
    params: dict[str, object] = {
        "theorem": config.theorem,
        "p": config.ctx.p,
        "n": config.ctx.n,
        "alpha": config.alpha,
        "beta": config.beta,
        "m1": config.m1,
        "m2": config.m2,
        "lambda": config.lam,
        "target": config.shape.target,
        "sizes": tuple(sizes),
        "count": count,
        "seed": seed,
    }
    return RatioReport(config.theorem, tuple(rows), params)


def sharpness_probe(
    config: TheoremConfig, shells: Sequence[int] = tuple(range(1, 16))
) -> tuple[tuple[int, float], ...]:
    """Adjoint ratios at a weight exponent just beyond the admissible range.

    Evaluates single-sphere bumps under the adjoint operator and measures
    them at beta* = n/inf(u') + 1/2, half a unit past the upper endpoint of
    the beta interval. When the claim's alpha is positive these ratios grow
    geometrically in the bump shell, which is the numerical signature that
    the stated endpoint cannot be improved.

    The bump at shell k is measured in the derived exponent with index m2;
    its image is measured in the source exponent u with index m1.
    """
    u = config.u
    ctx = config.ctx
    beta_star = ctx.n / conjugate(u).u_minus + 0.5
    v = config.target_exponent()
    image_space = HerzParams(beta_star, config.m1)
    bump_space = HerzParams(beta_star, config.m2)
    samples = []
    for k in shells:
        bump = RadialStepFunction.indicator_sphere(ctx, k)
        image = hardy_adjoint(bump, config.alpha)
        numerator = herz_norm(image, u, image_space).value
        denominator = herz_norm(bump, v, bump_space).value
        samples.append((k, numerator / denominator))
    return tuple(samples)


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one structural check: id token, verdict, worst deviation."""

    check: str
    satisfied: bool
    cases: int
    worst: float
    detail: str


def _random_exponent(ctx: PadicContext, rng: random.Random) -> ExponentFunction:
    """A moderate random exponent law: values in [1.2, 4] with at most 3 jumps."""
    jumps = rng.randint(0, 3)
    if jumps == 0:
        return ExponentFunction.constant(ctx, rng.uniform(1.2, 4.0))
    start = rng.randint(-3, 1)
    window = (start, start + jumps - 1)
    values = tuple([rng.uniform(1.2, 4.0) for _ in range(jumps)])
    return ExponentFunction(
        ctx, window, values, rng.uniform(1.2, 4.0), rng.uniform(1.2, 4.0)
    )


def _random_symbol(ctx: PadicContext, rng: random.Random) -> RadialStepFunction:
    """A bounded random symbol with frozen tails (values in [-2, 2])."""
    lo = rng.randint(-4, 1)
    hi = lo + rng.randint(0, 4)
    coeffs = tuple([rng.uniform(-2.0, 2.0) for _ in range(hi - lo + 1)])
    return RadialStepFunction(
        ctx,
        (lo, hi),
        coeffs,
        inner_tail=Tail(rng.uniform(-2.0, 2.0), 0.0),
        outer_tail=Tail(rng.uniform(-2.0, 2.0), 0.0),
    )


def _random_ctx(rng: random.Random) -> PadicContext:
    return PadicContext(rng.choice((2, 3, 5)), rng.choice((1, 2)))


def _lemma_mean_drift(rng: random.Random, cases: int) -> LemmaReport:
    """Changing the averaging ball moves the mean by at most the oscillation norm.

    For shells l <= m and any point x in the smaller ball,
    |b(x) - mean(b, B_m)| <= |b(x) - mean(b, B_l)| + p**n * (m - l) * osc(b),
    where osc is the mean-oscillation norm in a random moderate exponent.
    """
    worst = -math.inf
    violations = 0
    for _ in range(cases):
        ctx = _random_ctx(rng)
        b = _random_symbol(ctx, rng)
        u = _random_exponent(ctx, rng)
        norm = cmo_norm(b, u).value
        x_shell = rng.randint(-5, 5)
        l = rng.randint(x_shell, 6)
        m = rng.randint(l, 6)
        gx = b.evaluate(x_shell)
        lhs = abs(gx - ball_mean(b, m))
        rhs = abs(gx - ball_mean(b, l)) + ppow(ctx.p, ctx.n) * (m - l) * norm
        gap = lhs - rhs
        worst = max(worst, gap)
        if gap > 1e-9 * (1.0 + abs(lhs)):
            violations += 1
    return LemmaReport(
        "L3",
        violations == 0,
        cases,
        worst,
        f"{violations} violations; worst slack gap {worst:.3g}",
    )


def _ball_exponent(u: ExponentFunction, k: int) -> float:
    """The extremal exponent seen by the ball B_k: inf over the ball for
    small balls, the value at infinity for large ones."""
    if k >= 0:
        return u.u_infinity
    j_min, j_max = u.window
    values = [u.u_inner]
    values.extend(u.values[: max(0, min(k, j_max) - j_min + 1)])
    return min(values)


def _lemma_ball_norm(rng: random.Random, cases: int) -> LemmaReport:
    """Ball-indicator norms grow like p**(k n / u) with the extremal exponent.

    The ratio of the computed norm to that model must have a stable
    supremum: widening the shell range from [-12, 12] to [-16, 16] may not
    move it by 1 percent.
    """
    worst = 0.0
    ok = True
    for _ in range(cases):
        ctx = _random_ctx(rng)
        u = _random_exponent(ctx, rng)

        def ratio(k: int) -> float:
            norm = ball_indicator_norm(u, k).value
            model = ppow(ctx.p, k * ctx.n / _ball_exponent(u, k))
            return norm / model

        sup_narrow = max(ratio(k) for k in range(-12, 13))
        sup_wide = max(ratio(k) for k in range(-16, 17))
        drift = abs(sup_wide - sup_narrow) / sup_wide
        worst = max(worst, drift)
        ok = ok and drift < 0.01
    return LemmaReport(
        "L5",
        ok,
        cases,
        worst,
        f"supremum drift {worst:.3g} when widening the shell range",
    )


#: lemma id -> (seed offset, default case count, check). The offsets are
#: fixed, so retiring one check moves no other check's random stream.
_LEMMAS: dict[str, tuple[int, int, Callable[[random.Random, int], LemmaReport]]] = {
    "L3": (1, 500, _lemma_mean_drift),
    "L5": (2, 20, _lemma_ball_norm),
}
LEMMA_IDS = tuple(_LEMMAS)


def check_lemmas(
    which: str = "all", trials: int | None = None, seed: int = 0
) -> tuple[LemmaReport, ...]:
    """Run structural lemma checks with a seeded generator.

    ``which`` selects a single check by its id token (L3 or L5) or all of
    them. ``trials`` overrides the per-check default case count (500 and 20
    respectively). Each check derives its generator from the seed and its
    own fixed offset, so a single check reproduces exactly the report it
    would get inside a full run.
    """
    if which != "all" and which not in _LEMMAS:
        raise DomainError(
            f"unknown lemma id {which!r}; supported: {', '.join(LEMMA_IDS)}, all"
        )
    if trials is not None and trials < 1:
        raise DomainError(f"trials must be positive, got {trials}")
    reports = []
    for token, (offset, default_cases, runner) in _LEMMAS.items():
        if which not in ("all", token):
            continue
        cases = default_cases if trials is None else trials
        reports.append(runner(random.Random(seed * 1_000_003 + offset), cases))
    return tuple(reports)
