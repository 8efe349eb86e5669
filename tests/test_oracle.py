"""Monte Carlo cross-checks: integrals, norms, and operator probes."""

from __future__ import annotations

import ast
import inspect
import math
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ultraherz import (
    DomainError,
    ExponentFunction,
    NumericOverflowError,
    NumericUnderflowError,
    OperatorSpec,
    OracleConfig,
    PadicContext,
    RadialStepFunction,
    Tail,
    ball_integral,
    hardy,
    hardy_adjoint,
    luxemburg_norm,
    mc_integrate,
    mc_luxemburg,
    mc_operator_probe,
)
from ultraherz import norms, oracle
from ultraherz.oracle import MCEstimate
from ultraherz.padic import ppow, sample_shells, sphere_measure

CTX = PadicContext(2, 1)


def test_config_validation():
    with pytest.raises(DomainError):
        OracleConfig(samples=10)
    with pytest.raises(DomainError):
        OracleConfig(truncation_window=(5, -5))
    cfg = OracleConfig(samples=1000)
    assert cfg.stratified


def test_stratified_integral_is_nearly_exact_for_radial_integrands():
    """Per-sphere strata carry one exact value when f is radial, so the
    stratified estimate collapses onto the analytic value with a standard
    error of exactly 0."""
    rng = random.Random(12)
    for _ in range(10):
        lo = rng.randint(-4, 0)
        hi = lo + rng.randint(0, 4)
        f = RadialStepFunction(
            CTX, (lo, hi), tuple(rng.uniform(-2.0, 2.0) for _ in range(hi - lo + 1))
        )
        gamma = hi + rng.randint(0, 2)
        est = mc_integrate(f, gamma, OracleConfig(samples=1000, seed=3))
        assert est.value == pytest.approx(ball_integral(f, gamma), rel=1e-9, abs=1e-12)
        assert est.std_error == 0.0


def test_stratified_integral_of_a_ball_far_from_the_origin():
    """Sphere strata add no variance term, so a ball whose sphere measures
    square past the float range still integrates exactly. Squaring |S_600|
    for a zero variance used to raise a bare OverflowError."""
    f = RadialStepFunction.indicator_sphere(CTX, 0)
    est = mc_integrate(f, 600, OracleConfig(samples=1000))
    assert (est.value, est.std_error) == (0.5, 0.0)


def _shifted(f: RadialStepFunction, shift: int) -> RadialStepFunction:
    """f moved up by ``shift`` shells: the result reads f(k) on shell k + shift."""
    (lo, hi), (amplitude, rate) = f.window, f.inner_tail
    inner = Tail(amplitude * ppow(f.ctx.p, -shift * rate), rate)
    return RadialStepFunction(f.ctx, (lo + shift, hi + shift), f.coeffs, inner)


def test_stratified_integral_over_a_ball_whose_measure_squares_past_the_float_range():
    """The residual ball's measure used to be squared for its error bar,
    a bare OverflowError once it passed about 1.3e154. Moving f up 600
    shells scales the estimate by 2^600: the value exactly, the error bar to
    rounding, here also where the squared bar overflowed to inf."""
    f = RadialStepFunction(CTX, (600, 601), (1.0, 2.0))
    est = mc_integrate(f, 601, OracleConfig(samples=1000, truncation_window=(600, 601)))
    assert est.value == pytest.approx(ball_integral(f, 601), rel=1e-12)
    assert est.std_error == 0.0
    near = RadialStepFunction(CTX, (-1, 0), (1.0, 2.0), inner_tail=Tail(4e5, 1.0))
    config = OracleConfig(samples=1000, truncation_window=(-1, 0), seed=6)
    base = mc_integrate(near, 0, config)
    far = mc_integrate(
        _shifted(near, 500), 500, replace(config, truncation_window=(499, 500))
    )
    assert base.std_error > 0.0
    assert far.value == 2.0**500 * base.value
    assert far.std_error == pytest.approx(2.0**500 * base.std_error, rel=1e-15)


def test_mc_luxemburg_over_a_ball_whose_measure_squares_past_the_float_range():
    """The sampled modular's error bar squared the ball's measure too. At
    u = 2, moving f and u up 600 shells scales the norm and its error bar by
    2^300 exactly; the norm stays within its bar of the closed form."""
    f = RadialStepFunction(CTX, (0, 1), (1.0, 2.0))
    config = OracleConfig(samples=1000, truncation_window=(0, 1), seed=2)
    base = mc_luxemburg(f, ExponentFunction(CTX, (0, 0), (2.0,), 2.0, 2.0), config)
    far = mc_luxemburg(
        _shifted(f, 600),
        ExponentFunction(CTX, (600, 600), (2.0,), 2.0, 2.0),
        replace(config, truncation_window=(600, 601)),
    )
    assert far == MCEstimate(2.0**300 * base.value, 2.0**300 * base.std_error, base.samples)
    closed = luxemburg_norm(_shifted(f, 600), ExponentFunction.constant(CTX, 2.0)).value
    assert 0.0 < abs(far.value - closed) <= far.std_error


def test_stratified_integral_over_a_ball_whose_measure_squares_below_the_float_range():
    """Squaring |B_-601| = 2^-601 underflows to 0.0, which used to erase a
    sampled variance: the error bar read 0.0. Moving f down 600 shells
    scales the estimate and its error bar by 2^-600."""
    near = RadialStepFunction(CTX, (-1, 0), (1.0, 2.0), inner_tail=Tail(4e5, 1.0))
    config = OracleConfig(samples=1000, truncation_window=(-1, 0), seed=6)
    base = mc_integrate(near, 0, config)
    far_f = _shifted(near, -600)
    far = mc_integrate(far_f, -600, replace(config, truncation_window=(-601, -600)))
    assert far.value == 2.0**-600 * base.value
    assert far.std_error == pytest.approx(2.0**-600 * base.std_error, rel=1e-15)
    assert abs(far.value - ball_integral(far_f, -600)) <= 3 * far.std_error


def test_mc_luxemburg_over_a_ball_whose_measure_squares_below_the_float_range():
    """The sampled modular's error bar squared |B_-539| = 2^-539 to 0.0 and
    kept only the bisection half-width, 15% of the bar here. At u = 2,
    moving f and u down 538 shells scales the norm and its bar by 2^-269."""
    f = RadialStepFunction(CTX, (0, 1), (1.0, 2.0), inner_tail=Tail(2e-5, 1.0))
    config = OracleConfig(samples=1000, truncation_window=(0, 1), seed=2)
    u = ExponentFunction(CTX, (0, 0), (2.0,), 2.0, 2.0)
    base = mc_luxemburg(f, u, config, rel_tol=1e-13)
    far = mc_luxemburg(
        _shifted(f, -538),
        ExponentFunction(CTX, (-538, -538), (2.0,), 2.0, 2.0),
        replace(config, truncation_window=(-538, -537)),
        rel_tol=1e-13,
    )
    assert far.value == 2.0**-269 * base.value
    assert far.std_error == pytest.approx(2.0**-269 * base.std_error, rel=1e-15)


@pytest.mark.parametrize("s", [-600, -538, -300, 300, 600])
def test_oracle_error_bars_keep_their_scale_far_from_the_origin(s):
    """Moving f and u up s shells scales an integral by 2^s and, at u = 2, a
    norm by 2^(s/2), so every estimate and its relative error bar must stay
    those of s = 0. The modular's ball terms (a/lam)^u are about 1/|ball|:
    their squared spread used to underflow far above the origin (at
    s = 600 the bar fell to the bisection half-width, 2.7e-11 relative
    against 9.4e-5) and overflow far below it (s = -538 and -600 raised
    NumericOverflowError). Each term now carries the ball's measure."""

    def estimates(shift):
        f = _shifted(RadialStepFunction(CTX, (0, 1), (1.0, 2.0), inner_tail=Tail(0.5, 1.0)), shift)
        u = ExponentFunction(CTX, (shift, shift), (2.0,), 2.0, 2.0)
        config = OracleConfig(samples=1000, truncation_window=(shift, shift + 1), seed=2)
        return {
            "luxemburg": (mc_luxemburg(f, u, config), shift / 2),
            "stratified": (mc_integrate(f, shift + 1, config), shift),
            "plain": (mc_integrate(f, shift + 1, replace(config, stratified=False)), shift),
        }

    base, far = estimates(0), estimates(s)
    for name, (est, power) in far.items():
        ref = base[name][0]
        assert ref.std_error > 0.0
        assert est.value * 2.0**-power == pytest.approx(ref.value, rel=1e-12), name
        assert est.std_error / est.value == pytest.approx(
            ref.std_error / ref.value, rel=1e-12
        ), name


def test_unbounded_regions_refuse_plain_sampling():
    """The norm integrates over all of Q_p^n and the adjoint over |y| > |x|;
    no ball sample covers either. With stratified=False both used to return
    the stratified estimate bit for bit."""
    naive = OracleConfig(samples=1000, stratified=False)
    f = RadialStepFunction(CTX, (0, 1), (1.0, 2.0))
    with pytest.raises(DomainError, match="norm task"):
        mc_luxemburg(f, ExponentFunction.constant(CTX, 2.0), naive)
    with pytest.raises(DomainError, match="adjoint task"):
        mc_operator_probe(OperatorSpec("adjoint", 0.5), f, 0, naive)


@pytest.mark.parametrize("rel_tol", [5.0, 1e-3, 0.0, -1.0, math.nan, 1e-14])
def test_mc_luxemburg_refuses_a_rel_tol_the_norms_refuse(rel_tol):
    """The sampled norm takes the closed-form norms' range (1e-14, 1e-3):
    a rel_tol outside it, or nan, would otherwise bisect 200 times or stop
    at once on a bracket as wide as the norm."""
    f = RadialStepFunction(CTX, (0, 1), (1.0, 2.0))
    u = ExponentFunction.constant(CTX, 2.0)
    with pytest.raises(DomainError) as caught:
        mc_luxemburg(f, u, OracleConfig(samples=1000), rel_tol=rel_tol)
    with pytest.raises(DomainError) as expected:
        luxemburg_norm(f, u, rel_tol=rel_tol)
    assert str(caught.value) == str(expected.value)


def test_naive_integral_covers_truth_within_sigma():
    f = RadialStepFunction(CTX, (-2, 1), (1.0, -0.5, 2.0, 0.25))
    est = mc_integrate(f, 1, OracleConfig(samples=20_000, seed=99, stratified=False))
    exact = ball_integral(f, 1)
    assert est.std_error > 0.0
    assert abs(est.value - exact) <= 4.0 * est.std_error


def test_same_seed_reproduces_the_estimate():
    f = RadialStepFunction(CTX, (-1, 1), (1.0, 2.0, -1.0))
    cfg = OracleConfig(samples=2000, seed=123, stratified=False)
    a = mc_integrate(f, 1, cfg)
    b = mc_integrate(f, 1, cfg)
    assert a == b


def test_mc_luxemburg_brackets_the_bisection_value():
    u = ExponentFunction(CTX, (-1, 1), (2.0, 2.5, 3.0), 2.0, 2.0)
    f = RadialStepFunction(CTX, (-1, 1), (1.0, -2.0, 0.5))
    est = mc_luxemburg(f, u, OracleConfig(samples=2000, seed=8))
    exact = luxemburg_norm(f, u).value
    assert abs(est.value - exact) <= max(3.0 * est.std_error, 1e-8 * exact)


#: (c, e) for f = c chi(S_0) and u = e at p = 2, n = 1, whose Luxemburg norm
#: c * 2**(-1/e) sits near an end of the float range. Before the oracle's
#: bisection reached the whole normal range these raised a bare
#: OverflowError, printed 0.0 +- 0.0, raised a bare ZeroDivisionError and
#: printed inf +- inf.
FLOAT_RANGE_NORMS = {
    "modular-overflow": (1e160, 2.0),
    "modular-underflow": (1e-299, 2.0),
    "norm-near-min": (1e-301, 1.0),
    "norm-near-max": (1.7e308, 1.0),
}

#: (c, shell, e, error) for f = c chi(S_shell): a norm past the normal float
#: range, and the typed error it raises.
PAST_FLOAT_RANGE_NORMS = {
    "norm-underflow": (1e-310, 0, 1.0, NumericUnderflowError),
    "norm-overflow": (1.7e308, 2, 1.0, NumericOverflowError),
}


@pytest.mark.parametrize("name", sorted(FLOAT_RANGE_NORMS))
def test_mc_luxemburg_reaches_both_ends_of_the_float_range(name):
    c, e = FLOAT_RANGE_NORMS[name]
    f = RadialStepFunction(CTX, (0, 0), (c,))
    est = mc_luxemburg(f, ExponentFunction.constant(CTX, e), OracleConfig(samples=1000))
    exact = c * 0.5 ** (1.0 / e)
    assert math.isfinite(est.value) and math.isfinite(est.std_error)
    assert est.value == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert abs(est.value - exact) <= est.std_error


@pytest.mark.parametrize("name", sorted(PAST_FLOAT_RANGE_NORMS))
def test_mc_luxemburg_past_the_float_range_raises_a_typed_error(name):
    c, shell, e, error = PAST_FLOAT_RANGE_NORMS[name]
    f = RadialStepFunction(CTX, (shell, shell), (c,))
    with pytest.raises(error, match="sampled Luxemburg norm"):
        mc_luxemburg(f, ExponentFunction.constant(CTX, e), OracleConfig(samples=1000))


def test_mc_luxemburg_of_zero_is_exactly_zero():
    """Only a function that vanishes on every stratum has norm 0.0 +- 0.0; a
    modular that rounds to 0.0 at lam = 1 does not."""
    f = RadialStepFunction(CTX, (-1, 1), (0.0, 0.0, 0.0))
    est = mc_luxemburg(f, ExponentFunction.constant(CTX, 2.0), OracleConfig(samples=1000))
    assert (est.value, est.std_error) == (0.0, 0.0)


def test_mc_luxemburg_error_bar_scales_with_the_function():
    """Scaling f by a power of 2 scales the sampled modular's root and its
    error bar exactly. The modular's slope at a root near 1e301 is below
    1e-300; a clamp there shrank the bar 4.4-fold."""
    u = ExponentFunction.constant(CTX, 2.0)
    config = OracleConfig(samples=2000, truncation_window=(-2, 2), seed=3)
    relative = []
    for s in (2.0**990, 2.0**1000):
        f = RadialStepFunction(CTX, (0, 0), (s,), inner_tail=Tail(s, 0.5))
        est = mc_luxemburg(f, u, config)
        relative.append((est.value / s, est.std_error / s))
    assert relative[0] == relative[1]


#: Outer tails that the sampled strata cannot carry, for f = 0 on (0, 1) at
#: p = 2, n = 1, u = 2 and the truncation window (0, 1): the match of the
#: typed error, and the closed form's (value, convergent). Both estimates
#: read 0.0 +- 0.0 while the zero shortcut ran before the outer-tail checks.
TAIL_ONLY_NORMS = {
    "convergent": (-2.0, "widen the truncation window", (0.0944911182523068, True)),
    "divergent": (0.5, "cannot converge", (math.inf, False)),
}


@pytest.mark.parametrize("name", sorted(TAIL_ONLY_NORMS))
def test_mc_luxemburg_claims_no_zero_norm_that_an_outer_tail_carries(name):
    rate, match, closed = TAIL_ONLY_NORMS[name]
    f = RadialStepFunction(CTX, (0, 1), (0.0, 0.0), outer_tail=Tail(1.0, rate))
    u = ExponentFunction.constant(CTX, 2.0)
    result = luxemburg_norm(f, u)
    assert (result.value, result.convergent) == closed
    with pytest.raises(DomainError, match=match):
        mc_luxemburg(f, u, OracleConfig(samples=1000, truncation_window=(0, 1)))


#: (c, e) for f = c chi(S_0) at p = 2, n = 1 and u = e: steep exponents. At
#: e = 1100 the root sits near the bracket's low end, where the weight at
#: its top is subnormal; grouped there at once the estimate read 3.3% high.
STEEP_NORMS = [
    (3.0, 1000.0), (4.0 * 0.508 * 2.0 ** (1 / 1100), 1100.0), (3.0, 1e17), (3.0, 1e300),
]


@pytest.mark.parametrize("c, e", STEEP_NORMS)
def test_mc_luxemburg_of_a_steep_exponent_brackets_the_root(c, e):
    """Above e = 512 the solver bisects on the per-stratum modular until
    (hi / lo)**e is at most 2**512; at e = 1e17 and beyond the bracket meets
    rel_tol first and the slope at the root is past the float range."""
    f = RadialStepFunction(CTX, (0, 0), (c,))
    est = mc_luxemburg(f, ExponentFunction.constant(CTX, e), OracleConfig(samples=1000))
    exact = c * 0.5 ** (1.0 / e)
    assert abs(est.value - exact) <= est.std_error <= 1e-10 * exact


def _reference_modular(strata, lam):
    """The per-stratum modular sum of m * (a / lam)**e over the strata (m, e,
    a) and its slope -sum of e * m * (a / lam)**e / lam, each term correctly
    rounded from 40 digits and summed by ``math.fsum``."""
    with localcontext() as ctx:
        ctx.prec = 40
        terms = [
            Decimal(m) * (Decimal(a) / Decimal(lam)) ** Decimal(e) for m, e, a in strata
        ]
        slopes = [float(Decimal(e) * t) for (_, e, _), t in zip(strata, terms)]
    return math.fsum(float(t) for t in terms), -math.fsum(slopes) / lam


#: Measures and magnitudes across the float range, the ends included; a
#: magnitude of 0 stands for a sphere where f vanishes.
STRATUM = st.tuples(
    st.one_of(
        st.sampled_from([sys.float_info.min, 1.0, sys.float_info.max]),
        st.floats(sys.float_info.min, sys.float_info.max),
    ),
    st.one_of(st.sampled_from([1.0, 2.0, 100.0]), st.floats(1.0, 100.0)),
    st.one_of(
        st.sampled_from([0.0, sys.float_info.min, 1.0, sys.float_info.max]),
        st.floats(0.0, sys.float_info.max),
    ),
)


@settings(max_examples=300)
@given(strata=st.lists(STRATUM, min_size=1, max_size=6), t=st.floats(0.5, 1.0))
@example(strata=[(sys.float_info.max, 50.0, 1.0)], t=0.5)
@example(strata=[(sys.float_info.min, 100.0, sys.float_info.max)], t=0.5)
def test_grouped_modular_matches_a_per_stratum_sum(strata, t):
    """At a power of two ``top`` where every term is at most 1/len(strata)
    (the root in the normal range, else nothing to compare), the grouped
    modular and its analytic slope at lam = t * top match the per-stratum
    reference within (2 * e_max + 2N + 10) * 2**-53 of it, plus an absolute
    (2N + 2) * 2**(e_max - 1073) for terms that leave the normal range and
    m * e * 2**(e - 1074) for each quotient a / top below it, which keeps
    only an absolute 2**-1075 (as it does in the per-stratum modular)."""
    count = len(strata)
    reach = max(
        math.log2(a) + (math.log2(m) + math.log2(count)) / e
        for m, e, a in strata if a
    ) if any(a for _, _, a in strata) else 0.0
    assume(reach < 1022.0)
    top = 2.0 ** max(math.ceil(reach) + 1, -1020)
    lam = t * top
    groups = oracle._exponent_groups(strata, top)
    value, slope = oracle._grouped_modular(groups, top, lam)
    want_value, want_slope = _reference_modular(strata, lam)
    e_max = max(e for _, e, _ in strata)
    rel = (2 * e_max + 2 * count + 10) * 2.0**-53
    slack = (2 * count + 2) * 2.0 ** (e_max - 1073) + math.fsum(
        m * e * 2.0 ** (e - 1074) for m, e, a in strata if a / top < sys.float_info.min
    )
    assert abs(value - want_value) <= rel * want_value + slack
    assert abs(slope - want_slope) <= rel * abs(want_slope) + e_max * slack / lam


#: p**(n*j) reaches both ends of the float range within these shells.
MEASURE_CONTEXTS = [(p, n) for p in (2, 3, 7, 257) for n in (1, 3)]


@pytest.mark.parametrize("p, n", MEASURE_CONTEXTS)
def test_sphere_measures_keep_the_bits_of_the_checked_product(p, n):
    """Every sphere measure, from the first normal one to the last finite
    one, has the bits of ``_scaled``; a window one shell past either end
    raises the typed error that checking each sphere would raise."""
    ctx = PadicContext(p, n)
    mass = float(sphere_measure(0, ctx))  # 1 - p**-n, correctly rounded

    def checked(shells):
        return [oracle._scaled(mass, p, n * j, f"|S_{j}|") for j in shells]

    inside = []
    for j in range(-1100, 1100):
        try:
            checked([j])
        except (NumericOverflowError, NumericUnderflowError):
            continue
        inside.append(j)
    first, last = inside[0], inside[-1]
    assert inside == list(range(first, last + 1))
    shells = range(first, last + 1)
    assert oracle._sphere_measures(ctx, shells) == checked(shells)
    for past in (range(first - 1, last + 1), range(first, last + 2)):
        with pytest.raises((NumericOverflowError, NumericUnderflowError)) as per_sphere:
            checked(past)
        with pytest.raises(per_sphere.type):
            oracle._sphere_measures(ctx, past)


#: Outer tail rates near 0, where 1 - p**s cancels: at -1e-20 it read 0.0
#: and the probe raised ZeroDivisionError; at -1e-9 the bar fell short of
#: the closed form's distance by 27 in 7.2e8.
ADJOINT_TAIL_RATES = [-1e-20, -1e-9, -0.5]


@pytest.mark.parametrize("rate", ADJOINT_TAIL_RATES)
def test_adjoint_bias_covers_the_closed_form_as_the_tail_rate_nears_zero(rate):
    f = RadialStepFunction(CTX, (0, 1), (1.0, 0.5), outer_tail=Tail(1.0, rate))
    est = mc_operator_probe(OperatorSpec("adjoint"), f, 0, OracleConfig(samples=1000))
    gap = abs(est.value - hardy_adjoint(f, 0.0).evaluate(0))
    assert gap <= est.std_error * (1.0 + 1e-9) + 1e-15


def test_plain_sampling_variance_past_the_float_range_raises_a_typed_error():
    """Values +-1e200 on two shells square past the float range."""
    f = RadialStepFunction(CTX, (0, 1), (1e200, -1e200))
    with pytest.raises(NumericOverflowError, match="sampled variance"):
        mc_integrate(f, 1, OracleConfig(samples=1000, stratified=False))


def test_stratified_cost_does_not_grow_with_samples(monkeypatch):
    """Each sphere stratum carries one exact value, so stratified estimates
    hand ``_shell_stats`` as many drawn points at 10**6 samples as at 10**3.
    ``samples`` still reports every allocated point."""
    handed: list[int] = []
    allocated: list[int] = []
    stats, allocate = oracle._shell_stats, oracle._allocate

    def counting_stats(table, counts):
        handed.append(sum(counts.values()))
        return stats(table, counts)

    def recording_allocate(total, weights):
        counts = allocate(total, weights)
        allocated.append(sum(counts))
        return counts

    monkeypatch.setattr(oracle, "_shell_stats", counting_stats)
    monkeypatch.setattr(oracle, "_allocate", recording_allocate)
    f = RadialStepFunction(
        CTX, (-1, 1), (1.0, -2.0, 0.5),
        inner_tail=Tail(1.0, 0.5), outer_tail=Tail(1.0, -2.5),
    )
    u = ExponentFunction(CTX, (-1, 1), (2.0, 2.5, 3.0), 2.0, 2.0)
    runs = {
        "integral": lambda config: mc_integrate(f, 1, config),
        "norm": lambda config: mc_luxemburg(f, u, config),
        "adjoint": lambda config: mc_operator_probe(OperatorSpec("adjoint", 0.5), f, -2, config),
    }
    for name, run in runs.items():
        work = []
        for samples in (10**3, 10**6):
            handed.clear()
            allocated.clear()
            est = run(OracleConfig(samples=samples, seed=5, truncation_window=(-40, 8)))
            assert est.samples == sum(allocated) >= samples, name
            work.append(sum(handed))
        assert work[0] == work[1], name


def test_oracle_shares_no_solver_with_norms():
    """``mc_luxemburg`` inverts its sampled modular with the oracle's own
    bisection, so a bug in the closed-form solver cannot pass on both sides.
    Nor does it borrow a private helper (a tail kernel, a running sum) from
    any package module: it reaches the closed forms only through public
    names."""
    imports = [
        node
        for node in ast.walk(ast.parse(inspect.getsource(oracle)))
        if isinstance(node, ast.ImportFrom)
    ]
    assert "norms" not in {node.module for node in imports}
    assert [
        (node.module, alias.name)
        for node in imports
        if node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ] == []
    assert [
        name for name, obj in vars(oracle).items()
        if getattr(obj, "__module__", None) == norms.__name__
    ] == []


def test_operator_probe_hardy_matches_closed_form():
    f = RadialStepFunction(CTX, (-1, 1), (2.0, 1.0, -0.5))
    spec = OperatorSpec("hardy", 0.25)
    closed = hardy(f, 0.25)
    for shell in (-1, 0, 2):
        est = mc_operator_probe(spec, f, shell, OracleConfig(samples=2000, seed=5))
        assert est.value == pytest.approx(closed.evaluate(shell), rel=1e-9, abs=1e-12)


def test_operator_probe_adjoint_accounts_for_truncation_bias():
    """With a decaying outer tail the probe truncates and widens its error
    bar by the analytic remainder, which must cover the gap."""
    f = RadialStepFunction(CTX, (0, 1), (1.0, 0.5), outer_tail=Tail(1.0, -2.5))
    spec = OperatorSpec("adjoint", 0.5)
    closed = hardy_adjoint(f, 0.5)
    est = mc_operator_probe(spec, f, 0, OracleConfig(samples=1000, seed=21, truncation_window=(-8, 8)))
    gap = abs(est.value - closed.evaluate(0))
    assert gap > 0.0
    # the gap IS the analytic remainder, so the bound is tight to rounding
    assert gap <= est.std_error * (1.0 + 1e-9) + 1e-15
    # without any tail the strata cover everything and the probe is exact
    g = RadialStepFunction(CTX, (0, 1), (1.0, 0.5))
    exact = mc_operator_probe(OperatorSpec("adjoint", 0.5), g, 0, OracleConfig(samples=1000, seed=21))
    assert exact.value == pytest.approx(hardy_adjoint(g, 0.5).evaluate(0), rel=1e-12)
    assert exact.std_error == 0.0
    # shells where f vanishes get no stratum, so a probe far below the
    # window needs no sphere measure below the float range
    sphere = RadialStepFunction.indicator_sphere(CTX, 0)
    for shell in (-1000, -1100):
        far = mc_operator_probe(OperatorSpec("adjoint"), sphere, shell, OracleConfig(samples=1000))
        assert (far.value, far.std_error) == (0.5, 0.0)


def test_operator_probe_commutator_merges_two_runs():
    b = RadialStepFunction(CTX, (-1, 1), (1.0, -1.0, 2.0))
    f = RadialStepFunction(CTX, (-1, 1), (0.5, 2.0, 1.0))
    spec = OperatorSpec("commutator", 0.25, symbol=b)
    est = mc_operator_probe(spec, f, 1, OracleConfig(samples=2000, seed=17))
    from ultraherz import commutator

    closed = commutator(b, f, 0.25)
    assert est.value == pytest.approx(closed.evaluate(1), rel=1e-9, abs=1e-12)
    # repeatable under the same seed even though two sub-runs are involved
    again = mc_operator_probe(spec, f, 1, OracleConfig(samples=2000, seed=17))
    assert est == again


def test_only_ball_strata_draw_points(monkeypatch):
    """Sphere strata are never sampled: stratified estimates draw their
    residual ball once, the adjoint probe draws nothing, and plain sampling
    draws its whole budget from one ball."""
    calls = []

    def recorder(gamma, count, *args):
        calls.append((gamma, count))
        return sample_shells(gamma, count, *args)

    monkeypatch.setattr(oracle, "sample_shells", recorder)
    f = RadialStepFunction(CTX, (-1, 1), (1.0, -2.0, 0.5), inner_tail=Tail(1.0, 0.5))
    u = ExponentFunction(CTX, (-1, 1), (2.0, 2.5, 3.0), 2.0, 2.0)
    window = OracleConfig(samples=2000, seed=4, truncation_window=(-4, 4))

    mc_integrate(f, 1, window)
    assert [gamma for gamma, _ in calls] == [-5]
    calls.clear()
    mc_luxemburg(f, u, window)
    assert [gamma for gamma, _ in calls] == [-5]
    calls.clear()
    mc_operator_probe(OperatorSpec("adjoint", 0.5), f, -2, window)
    assert calls == []
    mc_integrate(f, 1, replace(window, stratified=False))
    assert calls == [(1, 2000)]


def test_an_origin_draw_takes_the_inner_tail_limit(monkeypatch):
    """A point drawn at the origin (shell None) reads the inner tail's
    amplitude when the inner rate is 0, and 0.0 for any other inner tail."""
    read: list[list[tuple[float, int]]] = []
    stats = oracle._shell_stats

    def reading_stats(table, counts):
        read.append([(table[k], c) for k, c in counts.items()])
        return stats(table, counts)

    def values_at(f, counts):
        monkeypatch.setattr(oracle, "sample_shells", lambda *args: dict(counts))
        mc_integrate(f, 0, OracleConfig(samples=1000, stratified=False))
        return read.pop()

    monkeypatch.setattr(oracle, "_shell_stats", reading_stats)
    flat = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=Tail(3.0, 0.0))
    assert values_at(flat, {None: 2, 0: 1, -2: 1}) == [(3.0, 2), (1.0, 1), (3.0, 1)]
    for inner in (Tail(3.0, 1.0), Tail(3.0, -0.5), Tail(0.0, 0.0)):
        f = RadialStepFunction(CTX, (0, 0), (1.0,), inner_tail=inner)
        assert values_at(f, {None: 1}) == [(0.0, 1)]


def _reference_stats(pairs: list[tuple[float, int]]) -> tuple[float, float]:
    """Sample mean and variance of ``c`` points at each value ``v`` of the
    (v, c) pairs, written out as running sums in pair order: mean = sum c *
    v / k and variance = sum c * (v - mean)**2 / (k - 1) over k points."""
    k = 0
    total = 0.0
    for v, c in pairs:
        k += c
        total += c * v
    mean = total / k
    if k < 2:
        return mean, 0.0
    spread = 0.0
    for v, c in pairs:
        try:
            square = (v - mean) ** 2
        except OverflowError:
            raise NumericOverflowError(
                "the sampled variance overflows the float range"
            ) from None
        spread += c * square
    return mean, spread / (k - 1)


_STAT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e154, -1e154, 1.4e154, -1.4e154]),
    st.floats(-1e3, 1e3),
    st.floats(9e153, 1.5e154),
    st.floats(-1.5e154, -9e153),
)


@settings(max_examples=200)
@given(
    shells=st.lists(st.one_of(st.none(), st.integers(-6, 6)), min_size=1, max_size=40),
    values=st.lists(_STAT_VALUES, min_size=14, max_size=14),
    unsampled=st.floats(-1e300, 1e300),
)
@example(shells=[3], values=[1e154] * 14, unsampled=1e300)
@example(shells=[0, 1, 0], values=[1.4e154, -1.4e154] * 7, unsampled=-1e300)
def test_shell_stats_match_the_value_list_statistics(shells, values, unsampled):
    """Read off a shell table and the shell counts of the drawn points, the
    mean and variance keep the bits of the count-weighted statistics, also
    where distinct shells carry equal values, for a single point and for
    values near +-1e154, whose deviations square past the float range; and
    the mean lies within the summation's rounding bound of the exact mean
    of the value list. Only a sampled value can make the variance overflow:
    a table entry no point drew, here shell 99, is never squared."""
    table = dict(zip([None, *range(-6, 7)], values))
    table[99] = unsampled
    counts = dict(Counter(shells))
    try:
        want = _reference_stats([(table[k], c) for k, c in counts.items()])
    except NumericOverflowError:
        with pytest.raises(NumericOverflowError, match="sampled variance"):
            oracle._shell_stats(table, counts)
        return
    mean, var = oracle._shell_stats(table, counts)
    assert repr((mean, var)) == repr(want)
    listed = [table[k] for k in shells]
    exact = sum(map(Fraction, listed)) / len(listed)
    # each product, each addition and the division round once, relative to
    # the sum of magnitudes, or absolutely among the subnormals
    spread = sys.float_info.epsilon * sum(map(abs, listed)) / len(listed)
    bound = (len(counts) + 2) * (Fraction(spread) + Fraction(math.ulp(0.0)))
    assert abs(Fraction(mean) - exact) <= bound


def test_shell_stats_square_only_what_was_drawn():
    """An origin whose inner-tail value deviates past the float range raises
    only once a point is drawn there."""
    table = {None: 1e300, 0: 1.0, 1: 2.0}
    assert oracle._shell_stats(table, {0: 2, 1: 1}) == (4.0 / 3.0, 1.0 / 3.0)
    assert oracle._shell_stats(table, {None: 1}) == (1e300, 0.0)
    with pytest.raises(NumericOverflowError, match="sampled variance"):
        oracle._shell_stats(table, {0: 1, None: 1, 1: 1})


def test_naive_and_stratified_share_the_target():
    """Both sampling modes estimate the same integral, each within its bar."""
    f = RadialStepFunction(CTX, (-2, 2), (0.5, 1.5, -1.0, 2.0, 0.25))
    exact = ball_integral(f, 2)
    plain = mc_integrate(f, 2, OracleConfig(samples=30_000, seed=14, stratified=False))
    layered = mc_integrate(f, 2, OracleConfig(samples=1000, seed=14))
    assert abs(plain.value - exact) <= 4.0 * plain.std_error
    assert abs(layered.value - exact) <= 1e-9 * max(1.0, abs(exact))


@pytest.mark.parametrize("p", [2, 3, 7, 257])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("region", ["ball", "sphere"])
@pytest.mark.parametrize("resolution", [1, 2, 24])
def test_shell_sampler_matches_the_point_sampler(p, n, region, resolution):
    """The digit-round classification, gamma - v at the first digit v some
    coordinate has nonzero, agrees with the shell of a representative point
    p^(-gamma) * z read off its exact rational coordinates (the largest
    coordinate norm, written out here); at resolution 1 whole vectors
    collapse to the origin (None). At resolutions 1 and 2 points off shell
    gamma are common, so later rounds draw often and many points reach the
    origin. At p = 257 the first base-256 digit of 1/p is 0, so every digit
    is 0 only through the tie path. Every point of a sphere lies on its
    shell, which is why the oracle gives sphere strata f(gamma) without
    drawing them."""
    ctx = PadicContext(p, n)
    gamma, count, seed = 2, 400, 1000 * p + 10 * n + resolution
    shell_rng, point_rng = random.Random(seed), random.Random(seed)
    shells = _draw_shells(region, gamma, count, ctx, resolution, shell_rng)
    assert shells == _reference_counts(region, gamma, count, ctx, resolution, point_rng)
    assert sum(shells.values()) == count
    # gamma first, then the lower shells downwards, the origin last
    assert list(shells) == sorted(shells, key=lambda k: (k is None, -(k or 0)))
    if region == "ball" and resolution == 1 and count >= p ** (2 * n) / 4:
        _assert_origin_draws_match(gamma, ctx, seed)
    if region == "sphere":
        assert shells == {gamma: count}


def _assert_origin_draws_match(gamma, ctx, seed):
    """At resolution 1 a ball point is the origin with probability p^(-2n).
    20 p^(2n) draws hold about 20 origins (none with probability about
    e^-20), so the sampler's origin class is compared with the reference's
    whatever the stream."""
    many = 20 * ctx.p ** (2 * ctx.n)
    shells = sample_shells(gamma, many, ctx, 1, random.Random(seed))
    assert shells == _reference_counts("ball", gamma, many, ctx, 1, random.Random(seed))
    assert None in shells


def _point_shell(coords: list[Fraction], p: int) -> int | None:
    """Shell k with max_i |x_i|_p = p^k, where |x|_p = p^(v_p(den) - v_p(num));
    None for the zero vector."""
    norms = [
        _valuation(x.denominator, p) - _valuation(x.numerator, p) for x in coords if x != 0
    ]
    return max(norms) if norms else None


def _valuation(z: int, p: int) -> int:
    v = 0
    while z % p == 0:
        z //= p
        v += 1
    return v


def _draw_shells(region, gamma, count, ctx, resolution, rng):
    """Shell counts of ``count`` points of B_gamma or S_gamma from
    ``sample_shells``. S_gamma is B_gamma conditioned on shell gamma, so a
    sphere point is a ball point drawn one at a time and redrawn while it
    lies off shell gamma."""
    if region == "ball":
        return sample_shells(gamma, count, ctx, resolution, rng)
    hits = 0
    while hits < count:
        hits += sample_shells(gamma, 1, ctx, resolution, rng).get(gamma, 0)
    return {gamma: hits} if hits else {}


def _reference_draws(region, gamma, count, ctx, resolution, rng):
    """Representative digit vectors of ``count`` accepted points, read from
    the sampler's stream. Round v draws ``rng.randbytes(m * n)`` for the m
    points whose digits so far are all 0, n bytes per point in point order.
    Each byte b_0 opens a uniform U = 0.b_0 b_1 ... in base 256, and digit v
    of its coordinate is 0 exactly when U < 1/p: while the bytes drawn so
    far leave 1/p inside [prefix, prefix + 256^-k), the next byte is drawn
    with ``rng.getrandbits(8)``, byte after byte in round order, and the
    comparison is exact in ``Fraction``. A nonzero digit is represented by
    1; it already gives its point the largest norm p^(gamma - v), so the
    point draws nothing more. A sphere point runs its rounds alone and is
    redrawn while every coordinate is divisible by p."""
    p, n = ctx.p, ctx.n
    inverse = Fraction(1, p)

    def digit_is_zero(first):
        prefix, width = Fraction(first, 256), Fraction(1, 256)
        while prefix <= inverse < prefix + width:
            width /= 256
            prefix += rng.getrandbits(8) * width
        return prefix < inverse

    def rounds(points):
        undecided = points
        for v in range(resolution + 1):
            if not undecided:
                break
            zero = [digit_is_zero(b) for b in rng.randbytes(len(undecided) * n)]
            for j, zs in enumerate(undecided):
                for i in range(n):
                    zs[i] += 0 if zero[j * n + i] else p**v
            undecided = [zs for j, zs in enumerate(undecided) if all(zero[j * n:(j + 1) * n])]
        return points

    if region == "ball":
        return rounds([[0] * n for _ in range(count)])
    draws = []
    while len(draws) < count:
        (zs,) = rounds([[0] * n])
        if any(z % p for z in zs):
            draws.append(zs)
    return draws


def _reference_counts(region, gamma, count, ctx, resolution, rng):
    """How many of the ``_reference_draws`` points lie on each shell, each
    classified by ``_point_shell`` on its exact rational coordinates."""
    scale = Fraction(ctx.p) ** -gamma
    draws = _reference_draws(region, gamma, count, ctx, resolution, rng)
    return dict(Counter(_point_shell([z * scale for z in zs], ctx.p) for zs in draws))


@pytest.mark.parametrize("p", [2, 3, 7, 257])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("region", ["ball", "sphere"])
@pytest.mark.parametrize("resolution", [1, 24])
def test_samplers_match_a_randrange_reference(p, n, region, resolution):
    """The shell sampler draws the stream of the round-by-round ``Fraction``
    reference and leaves the generator in the same state; conditioned on
    shell gamma, it accepts exactly the draws a sphere reference accepts."""
    ctx = PadicContext(p, n)
    gamma, count, seed = -1, 300, 7000 + 100 * p + 10 * n + resolution
    ref_rng, shell_rng = random.Random(seed), random.Random(seed)
    want = _reference_counts(region, gamma, count, ctx, resolution, ref_rng)
    shells = _draw_shells(region, gamma, count, ctx, resolution, shell_rng)
    assert shells == want
    assert shell_rng.getstate() == ref_rng.getstate()
    if region == "ball" and resolution == 1 and count >= p ** (2 * n) / 4:
        _assert_origin_draws_match(gamma, ctx, seed)


@settings(max_examples=80)
@given(
    p=st.sampled_from([2, 3, 5, 7, 257]),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**64),
    count=st.integers(0, 60),
    region=st.sampled_from(["ball", "sphere"]),
    resolution=st.sampled_from([1, 2, 24]),
)
def test_shell_sampler_matches_the_reference_for_any_seed(
    p, n, seed, count, region, resolution
):
    ctx = PadicContext(p, n)
    ref_rng, shell_rng = random.Random(seed), random.Random(seed)
    want = _reference_counts(region, 3, count, ctx, resolution, ref_rng)
    shells = _draw_shells(region, 3, count, ctx, resolution, shell_rng)
    assert shells == want
    assert shell_rng.getstate() == ref_rng.getstate()


class _TiedRandom(random.Random):
    """A generator whose ``randbytes`` returns only 256 // p, the first
    base-256 digit of 1/p, so every digit event takes the tie path and is
    settled by the ``getrandbits`` bytes that follow."""

    def __init__(self, seed: int, p: int) -> None:
        super().__init__(seed)
        self.tie = bytes([256 // p])

    def randbytes(self, k: int) -> bytes:
        return self.tie * k


@pytest.mark.parametrize("p", [2, 3, 257])
@pytest.mark.parametrize("n", [1, 3])
def test_a_tied_byte_is_settled_by_the_later_digits_of_one_over_p(p, n):
    """A first byte equal to the first base-256 digit of 1/p leaves the
    digit undecided; the sampler settles it with later bytes compared with
    the later digits of 1/p, as the exact ``Fraction`` comparison does. At
    p = 2 the tie is U in [1/2, 1/2 + 1/256), never below 1/2; at p = 3 a
    tied digit is 0 with probability 1/3, and at p = 257 with 256/257."""
    ctx = PadicContext(p, n)
    gamma, count, resolution, seed = 1, 300, 24, 500 + p + n
    shell_rng, ref_rng = _TiedRandom(seed, p), _TiedRandom(seed, p)
    shells = sample_shells(gamma, count, ctx, resolution, shell_rng)
    assert shells == _reference_counts("ball", gamma, count, ctx, resolution, ref_rng)
    assert shell_rng.getstate() == ref_rng.getstate() != random.Random(seed).getstate()
    if p == 2:
        assert shells == {gamma: count}


@pytest.mark.parametrize("p", [2, 3, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_ball_shells_follow_the_haar_law(p, n):
    """A point of B_0 lies on shell -v with probability
    |S_-v| / |B_0| = (1 - p^-n) p^(-n v). The observed frequency of every
    shell expected at least 10 times, and of all lower shells pooled with
    the origin, lies within 4 sigma of its law at a fixed seed."""
    ctx = PadicContext(p, n)
    count = 20_000
    shells = sample_shells(0, count, ctx, 24, random.Random(40 + 10 * p + n))
    assert sum(shells.values()) == count
    v = 0
    law = 1 - Fraction(p) ** -n
    below = Fraction(1)
    while law * count >= 10:
        seen = shells.get(-v, 0)
        sigma = math.sqrt(float(law * (1 - law)) * count)
        assert abs(seen - float(law) * count) <= 4 * sigma, (v, seen)
        below -= law
        v += 1
        law = law / p**n
    pooled = count - sum(shells.get(-j, 0) for j in range(v))
    sigma = math.sqrt(float(below * (1 - below)) * count)
    assert abs(pooled - float(below) * count) <= 4 * sigma + 1e-9, (v, pooled)


class _CountingRandom(random.Random):
    """A generator that counts the bytes ``randbytes`` draws, one per
    coordinate of every point still undecided in a digit round."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.drawn = 0

    def randbytes(self, k: int) -> bytes:
        self.drawn += k
        return super().randbytes(k)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_a_later_coordinate_is_drawn_only_while_it_can_move_the_shell(p):
    """A point draws digit round v + 1, n bytes, only when all its digits
    at v are 0, with probability q = p^-n, so its rounds are geometric and
    10**4 points at n = 3 draw about n * count / (1 - q) bytes, not
    n * count * (resolution + 1). The count is exact for a seed, so the
    bound is checked without timing."""
    n, count, resolution = 3, 10_000, 24
    rng = _CountingRandom(60 + p)
    shells = sample_shells(0, count, PadicContext(p, n), resolution, rng)
    assert sum(shells.values()) == count
    q = p**-n
    # rounds R >= 1 with P(R > k) = q^k: E R = 1 / (1 - q), Var R = q / (1 - q)^2
    per_point, variance = n / (1 - q), n * n * q / (1 - q) ** 2
    assert abs(rng.drawn - per_point * count) <= 4 * math.sqrt(variance * count)
    assert rng.drawn < 2 * n * count


@pytest.mark.parametrize("p", [2, 7])
def test_the_sampler_keeps_no_per_point_list(p):
    """A digit round holds its bytes and one integer per coordinate slice,
    never a Python object per point: 10**4 points at n = 3 peak below
    128 KiB of traced allocations."""
    rng = random.Random(80 + p)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        shells = sample_shells(0, 10_000, PadicContext(p, 3), 24, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(shells.values()) == 10_000
    assert peak < 128 * 1024


def _fn(p, n, lo, coeffs, inner=(0.0, 0.0), outer=(0.0, 0.0)):
    ctx = PadicContext(p, n)
    return RadialStepFunction(
        ctx, (lo, lo + len(coeffs) - 1), coeffs, Tail(*inner), Tail(*outer)
    )


def _ex(p, n, lo, values, u_inner, u_infinity):
    ctx = PadicContext(p, n)
    return ExponentFunction(ctx, (lo, lo + len(values) - 1), values, u_inner, u_infinity)


#: Oracle estimates at fixed seeds, pinned by repr: a change to the random
#: stream, to the shell classification or to any summation order moves them.
GOLDEN = {
    "integrate naive p=2 n=3": (
        lambda: mc_integrate(
            _fn(2, 3, -2, [1.0, -0.5, 2.0, 0.25], (1.5, 0.5)), 1,
            OracleConfig(2000, seed=11, stratified=False),
        ),
        MCEstimate(value=3.2213639610306792, std_error=0.09317858251447093, samples=2000),
    ),
    "integrate naive p=7 n=1": (
        lambda: mc_integrate(
            _fn(7, 1, -1, [0.5, 2.0, -1.0], (1.0, -0.5)), 1,
            OracleConfig(2000, seed=12, stratified=False),
        ),
        MCEstimate(value=-4.298, std_error=0.16234808730233125, samples=2000),
    ),
    "integrate stratified p=2 n=1": (
        lambda: mc_integrate(
            _fn(2, 1, -1, [2.0, 1.0], (1.0, 0.5)), 1,
            OracleConfig(1000, seed=13, truncation_window=(0, 3)),
        ),
        MCEstimate(value=1.0988219606462324, std_error=0.0026973536075473956, samples=1000),
    ),
    "integrate stratified p=7 n=3": (
        lambda: mc_integrate(
            _fn(7, 3, -1, [1.0, 0.5, -2.0], (2.0, 0.25)), 1,
            OracleConfig(1000, seed=14, truncation_window=(0, 2)),
        ),
        MCEstimate(value=-683.4985443486222, std_error=0.0, samples=1002),
    ),
    # f vanishes above shell 1, so the residual ball stratum carries the
    # modular and its summation order reaches the standard error.
    "luxemburg p=2 n=1": (
        lambda: mc_luxemburg(
            _fn(2, 1, 2, [0.0], (1.0, 0.5)),
            _ex(2, 1, 2, [2.0], 1.5, 2.0),
            OracleConfig(2000, seed=15, truncation_window=(2, 3)),
        ),
        MCEstimate(value=1.7637021535192616, std_error=0.024308740234099662, samples=2000),
    ),
    "luxemburg p=7 n=3": (
        lambda: mc_luxemburg(
            _fn(7, 3, 0, [1.5, -0.5], (0.5, 1.0)),
            _ex(7, 3, 0, [1.25, 3.0], 2.0, 1.75),
            OracleConfig(2000, seed=16, truncation_window=(-3, 3)),
        ),
        MCEstimate(value=3.935433061677031, std_error=1.1641532182693481e-10, samples=2006),
    ),
    "luxemburg outer tail p=2 n=3": (
        lambda: mc_luxemburg(
            _fn(2, 3, 0, [1.0, 2.0], (1.0, 0.25), (1.0, -2.5)),
            _ex(2, 3, 0, [2.0, 3.0], 2.5, 2.0),
            OracleConfig(2000, seed=17, truncation_window=(-4, 4)),
        ),
        MCEstimate(value=3.9117372588953003, std_error=9.917352913549399e-05, samples=2005),
    ),
    "hardy naive p=2 n=3": (
        lambda: mc_operator_probe(
            OperatorSpec("hardy", 0.5), _fn(2, 3, -1, [2.0, 1.0, -0.5], (1.0, 0.5)), 1,
            OracleConfig(2000, seed=18, stratified=False),
        ),
        MCEstimate(value=-0.42673894244608146, std_error=0.016962187223282816, samples=2000),
    ),
    "hardy stratified p=7 n=1": (
        lambda: mc_operator_probe(
            OperatorSpec("hardy", 0.25), _fn(7, 1, -1, [2.0, 1.0, -0.5], (1.0, 0.5)), 0,
            OracleConfig(1000, seed=19, truncation_window=(-3, 3)),
        ),
        MCEstimate(value=1.1046832060439644, std_error=0.0, samples=1001),
    ),
    "adjoint p=2 n=1": (
        lambda: mc_operator_probe(
            OperatorSpec("adjoint", 0.5), _fn(2, 1, 0, [1.0, 0.5], outer=(1.0, -2.5)), 0,
            OracleConfig(1000, seed=21, truncation_window=(-8, 8)),
        ),
        MCEstimate(value=0.39521751412843004, std_error=2.5431315104166665e-06, samples=1000),
    ),
    "adjoint p=7 n=3": (
        lambda: mc_operator_probe(
            OperatorSpec("adjoint", 1.0), _fn(7, 3, 0, [1.0, -0.5, 2.0], outer=(1.0, -4.5)), -1,
            OracleConfig(1000, seed=22, truncation_window=(-4, 4)),
        ),
        MCEstimate(value=95.22157434535895, std_error=1.6217918547397585e-15, samples=1003),
    ),
    "commutator p=2 n=1": (
        lambda: mc_operator_probe(
            OperatorSpec("commutator", 0.25, symbol=_fn(2, 1, -1, [1.0, -1.0, 2.0], (0.5, 0.0))),
            _fn(2, 1, -1, [0.5, 2.0, 1.0], (1.0, 0.5)), 1,
            OracleConfig(2000, seed=23, stratified=False),
        ),
        MCEstimate(value=1.9361119134898213, std_error=0.05313376212660318, samples=4000),
    ),
    "commutator p=7 n=3": (
        lambda: mc_operator_probe(
            OperatorSpec("commutator", 0.5, symbol=_fn(7, 3, -1, [1.0, 3.0], (2.0, 0.0))),
            _fn(7, 3, -1, [0.5, 2.0], (1.0, 1.0)), 1,
            OracleConfig(1000, seed=24, truncation_window=(-3, 3)),
        ),
        MCEstimate(value=-0.04615764709629363, std_error=0.0, samples=2008),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_oracle_estimates_are_pinned(name):
    run, expected = GOLDEN[name]
    assert repr(run()) == repr(expected)
