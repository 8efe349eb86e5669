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
* ``sharpness_probe`` evaluates single-sphere bumps under the adjoint at
  beta* = n/u'- + 1/2, where growing ratios show only that beta* lies
  outside the range on which the adjoint is bounded.

The claim ids are opaque tokens; the mapping below records, for each one,
which operator it exercises, which space family it lives in, how the
target exponent derives from the source exponent, and whether its beta
interval moves up by lambda.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DomainError, HypothesisViolationError
from .norms import (
    HerzParams,
    MorreyHerzParams,
    NormResult,
    herz_norm,
    morrey_herz_norm,
)
from .operators import OperatorSpec, apply_operator, hardy_adjoint
from .padic import PadicContext, check_shell, ppow
from .radial import (
    ExponentFunction,
    RadialStepFunction,
    Tail,
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
    return _ratio(config, config.operator_spec(), config.target_exponent(), f)


def _ratio(
    config: TheoremConfig,
    spec: OperatorSpec,
    v: ExponentFunction,
    f: RadialStepFunction,
) -> RatioSample:
    """``boundedness_ratio`` with the claim's operator and target exponent
    given, so a sweep derives them once rather than once per function."""
    source = _space_norm(f, config.u, config, config.m1).value
    image = apply_operator(spec, f)
    target = _space_norm(image, v, config, config.m2).value
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
    check_shell(size_bound, "size bound")
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
    """All rows of one ratio sweep, in sample-id order.

    The CSV uses repr() for the floating-point columns, so a fixed seed
    reproduces the file byte for byte. ``supremum`` is the running maximum
    over every non-skipped row; an empty family (or one whose samples were
    all skipped) leaves it nan, the undefined-supremum flag.
    """

    rows: tuple[SweepRow, ...]

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
    spec, v = config.operator_spec(), config.target_exponent()
    rows: list[SweepRow] = []
    sample_id = 0
    for size_bound in sizes:
        for f in random_family(config.ctx, size_bound, count, rng):
            sample = _ratio(config, spec, v, f)
            rows.append(SweepRow(sample_id, size_bound, *sample))
            sample_id += 1
    return RatioReport(tuple(rows))


def sharpness_probe(
    config: TheoremConfig, shells: Sequence[int] = tuple(range(1, 16))
) -> tuple[tuple[int, float], ...]:
    """Adjoint ratios at the weight exponent beta* = n/u'- + 1/2.

    Evaluates single-sphere bumps under the adjoint and measures them at
    beta*, u'- the infimum of the conjugate exponent. For alpha > 0 the
    ratios grow geometrically in the bump shell, which shows only that beta*
    lies outside the range of beta on which the adjoint is bounded. Only
    for constant u is beta* the Herz claims' endpoint n/u'+ plus 1/2.

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
