"""Input guards that no other test reaches, each with the typed error it
raises, and the numeric guards of the package, each reached by an input."""

from __future__ import annotations

import math
import random
import sys

import pytest

from ultraherz import (
    DomainError,
    ExponentFunction,
    HerzParams,
    MorreyHerzParams,
    NumericOverflowError,
    NumericUnderflowError,
    OperatorSpec,
    OracleConfig,
    PadicContext,
    RadialStepFunction,
    Tail,
    TheoremConfig,
    ball_indicator_norm,
    cmo_norm,
    combine,
    commutator,
    hardy,
    hardy_adjoint,
    herz_norm,
    luxemburg_norm,
    mc_luxemburg,
    mc_operator_probe,
    modular,
    morrey_herz_norm,
    random_family,
    single_shell_norm,
    sweep,
)
from ultraherz import norms
from ultraherz.cli import _parse_sizes
from ultraherz.padic import SHELL_LIMIT
from ultraherz.radial import sobolev_shift

C2, C3 = PadicContext(2), PadicContext(3)
F2 = RadialStepFunction.indicator_sphere(C2, 0)
F3 = RadialStepFunction.indicator_sphere(C3, 0)
U2 = ExponentFunction.constant(C2, 2.0)
U3 = ExponentFunction.constant(C3, 2.0)
FLAT_OUTER = RadialStepFunction(C2, (0, 0), (1.0,), outer_tail=Tail(1.0, 0.0))
# three shells of 1e308: a finite Herz sum at m = 0.5 whose square overflows
HUGE = RadialStepFunction(C2, (0, 2), (1e308,) * 3)
CONFIG = OracleConfig(samples=1000)
C72 = PadicContext(7, 2)
# |B_399| overflows, so the CMO envelope term near that ball reads 0.0 * inf
NAN_ENVELOPE = RadialStepFunction(C72, (398, 398), (0.0,), outer_tail=Tail(-1e-3, -3.0))
# 2**(-1/u_infinity) rounds to 1.0 at u_infinity = 1e17
STEEP = ExponentFunction(C2, (0, 1), (2.0, 2.0), 2.0, 1e17)
CRITICAL_OUTER = RadialStepFunction(C2, (0, 0), (1.0,), outer_tail=Tail(0.5, -1e-17))
FLAT_STEP = RadialStepFunction(C2, (0, 1), (1.0, 0.0), outer_tail=Tail(0.5, 0.0))
MIN_NORMAL, MAX = sys.float_info.min, sys.float_info.max
# u = 1 on S_0 (|S_0| = 1/2) and just above 1 on S_1 (|S_1| = 1): two exponent
# groups, so the Luxemburg solve brackets its root instead of taking a power
TWO_GROUPS = ExponentFunction(C2, (0, 1), (1.0, 1.0 + 1e-12), 1.0, 2.0)
# the first outer-tail term, on S_11, is past the float range: about 1.5e309
FAR_OUTER = RadialStepFunction(C2, (0, 10), (1.0,) + (0.0,) * 10, outer_tail=Tail(1e308, -0.1))
# b = -c on B_-41 and c on S_-40: mean 0 and |b| = c on B_-40, so the CMO
# ratio is c up to the solver's tolerance, which a c next to the largest
# float does not leave room for
NEAR_MAX = MAX * (1 - 1e-6)
ALTERNATING = RadialStepFunction(C2, (-40, -40), (NEAR_MAX,), inner_tail=Tail(-NEAR_MAX, 0.0))
U1 = ExponentFunction.constant(C2, 1.0)
# finite inputs whose sum, product or weighted mass leaves the float range
CANCELLING = RadialStepFunction(C2, (0, 1), (1e308, -1e308))
SYMBOL_1E300 = RadialStepFunction(C2, (0, 1), (1e300, -1e300))
F_1E300 = RadialStepFunction(C2, (0, 1), (1e300, 1e300))
ONES = RadialStepFunction(C2, (0, 3), (1.0,) * 4)
# finite tails whose sum, product or multiple leaves the float range
BIG_INNER = RadialStepFunction(C2, (0, 0), (1.0,), inner_tail=Tail(1e308, 0.0))
STEEP_INNER = RadialStepFunction(C2, (0, 0), (1.0,), inner_tail=Tail(1.0, 1e308))
# chi(S_0) with zero shells up to S_600, where p**(2 * 600) saturates
FAR_ZEROS = RadialStepFunction(C2, (0, 600), (1.0,) + (0.0,) * 600)

GUARDS = {
    "p=1 is not prime": (lambda: PadicContext(1), DomainError),
    "p=9 is an odd composite": (lambda: PadicContext(9), DomainError),
    "Morrey-Herz m=0": (lambda: MorreyHerzParams(0.0, 0.0, 0.0), DomainError),
    "Morrey-Herz lambda<0": (lambda: MorreyHerzParams(0.0, 1.0, -0.5), DomainError),
    "norm across contexts": (lambda: luxemburg_norm(F2, U3), DomainError),
    "mc_luxemburg across contexts": (lambda: mc_luxemburg(F2, U3, CONFIG), DomainError),
    "combine across contexts": (lambda: combine(F2, F3, "add"), DomainError),
    "combine with an unknown op": (lambda: combine(F2, F2, "divide"), DomainError),
    "Herz m=0.5 past the float range": (
        lambda: herz_norm(HUGE, U2, HerzParams(0.0, 0.5)),
        NumericOverflowError,
    ),
    "cmo_norm of a non-integrable inner tail": (
        lambda: cmo_norm(RadialStepFunction(C2, (0, 0), (1.0,), Tail(1.0, -1.0)), U2),
        DomainError,
    ),
    "cmo_norm with a NaN envelope": (
        lambda: cmo_norm(NAN_ENVELOPE, ExponentFunction.constant(C72, 2.0)),
        NumericOverflowError,
    ),
    "cmo_norm with a linear envelope that cannot decay": (
        lambda: cmo_norm(CRITICAL_OUTER, STEEP),
        NumericUnderflowError,
    ),
    "cmo_norm with an envelope that never decays": (
        lambda: cmo_norm(FLAT_STEP, STEEP),
        NumericOverflowError,
    ),
    "operator order nan": (lambda: OperatorSpec("hardy", math.nan), DomainError),
    "oracle norm of a divergent outer tail": (
        lambda: mc_luxemburg(FLAT_OUTER, U2, CONFIG),
        DomainError,
    ),
    "oracle adjoint of a divergent outer tail": (
        lambda: mc_operator_probe(OperatorSpec("adjoint"), FLAT_OUTER, 0, CONFIG),
        DomainError,
    ),
    "sobolev_shift alpha<0": (lambda: sobolev_shift(U2, -0.5), DomainError),
    "random_family of negative size": (
        lambda: random_family(C2, -1, 3, random.Random(0)),
        DomainError,
    ),
    "sweep of negative count": (
        lambda: sweep(TheoremConfig("T31", U2, alpha=0.25), count=-1),
        DomainError,
    ),
    # what `ultraherz sweep --sizes a,b` runs; the CLI maps it to exit 1
    "--sizes a,b": (lambda: _parse_sizes("a,b"), DomainError),
    "oracle probe at a non-integer shell": (
        lambda: mc_operator_probe(OperatorSpec("hardy"), F2, 0.5, CONFIG),
        DomainError,
    ),
    # the Luxemburg solver's bracket: both ends below the normal range, the
    # lower end held at the smallest normal float, the root past the largest
    "Luxemburg bracket below the normal range": (
        lambda: luxemburg_norm(RadialStepFunction(C2, (0, 1), (1e-310, 1e-310)), TWO_GROUPS),
        NumericUnderflowError,
    ),
    "Luxemburg root below the smallest normal float": (
        lambda: luxemburg_norm(
            RadialStepFunction(C2, (0, 1), (0.999 * MIN_NORMAL, 0.4995 * MIN_NORMAL)),
            TWO_GROUPS,
        ),
        NumericUnderflowError,
    ),
    "Luxemburg root past the float range": (
        lambda: luxemburg_norm(RadialStepFunction(C2, (0, 1), (1.5e308, 1.5e308)), TWO_GROUPS),
        NumericOverflowError,
    ),
    "Morrey-Herz first outer term past the float range": (
        lambda: morrey_herz_norm(FAR_OUTER, U2, MorreyHerzParams(0.0, 2.0, 0.5)),
        NumericOverflowError,
    ),
    # a coefficient computed from finite inputs past the float range is the
    # kernel's overflow, as in hardy, not the constructor's input error
    "combine sum past the float range": (
        lambda: combine(CANCELLING, CANCELLING, "add"),
        NumericOverflowError,
    ),
    "commutator past the float range": (
        lambda: commutator(SYMBOL_1E300, F_1E300, 0.0),
        NumericOverflowError,
    ),
    "adjoint at order 1100 past the float range": (
        lambda: hardy_adjoint(ONES, 1100.0),
        NumericOverflowError,
    ),
    "scale past the float range": (
        lambda: RadialStepFunction(C2, (0, 0), (1e300,)).scale(1e10),
        NumericOverflowError,
    ),
    "scale by inf": (lambda: F2.scale(math.inf), DomainError),
    # a computed tail past the float range is the kernel's overflow too
    "combine sum of tails past the float range": (
        lambda: combine(BIG_INNER, BIG_INNER, "add"),
        NumericOverflowError,
    ),
    "combine product of tails past the float range": (
        lambda: combine(BIG_INNER, BIG_INNER, "multiply"),
        NumericOverflowError,
    ),
    "scale of a tail past the float range": (
        lambda: BIG_INNER.scale(10.0),
        NumericOverflowError,
    ),
    "combine product of tail rates past the float range": (
        lambda: combine(STEEP_INNER, STEEP_INNER, "multiply"),
        NumericOverflowError,
    ),
    "hardy order nan": (lambda: hardy(F2, math.nan), DomainError),
    "hardy order inf": (lambda: hardy(F2, math.inf), DomainError),
    "hardy order -inf": (lambda: hardy(F2, -math.inf), DomainError),
    "adjoint order nan": (lambda: hardy_adjoint(F2, math.nan), DomainError),
    "commutator order nan": (lambda: commutator(F2, F2, math.nan), DomainError),
    "Herz beta nan": (lambda: HerzParams(math.nan, 1.0), DomainError),
    "Herz beta inf": (lambda: HerzParams(math.inf, 1.0), DomainError),
    "Herz beta -inf": (lambda: HerzParams(-math.inf, 1.0), DomainError),
    "Morrey-Herz lambda nan": (lambda: MorreyHerzParams(0.0, 1.0, math.nan), DomainError),
    "Morrey-Herz lambda inf": (lambda: MorreyHerzParams(0.0, 1.0, math.inf), DomainError),
    "function window at half shells": (
        lambda: RadialStepFunction(C2, (0.5, 1.5), (1.0, 2.0)),
        DomainError,
    ),
    "exponent window at a non-integer shell": (
        lambda: ExponentFunction(C2, (0.7, 0.7), (2.0,), 2.0, 2.0),
        DomainError,
    ),
    "ball_indicator_norm past the shell limit": (
        lambda: ball_indicator_norm(U2, 10**6),
        DomainError,
    ),
    "ball_indicator_norm below the shell limit": (
        lambda: ball_indicator_norm(U2, -20000),
        DomainError,
    ),
    # the Herz norm of the one-shell function, which single_shell_norm reads
    "single_shell_norm past the float range": (
        lambda: single_shell_norm(1.0, 2000, U1),
        NumericOverflowError,
    ),
    "single_shell_norm below the float range": (
        lambda: single_shell_norm(1.0, -2000, U1),
        NumericUnderflowError,
    ),
    "single_shell_norm past the shell limit": (
        lambda: single_shell_norm(1.0, 10**6, U1),
        DomainError,
    ),
    "cmo_norm ratio past the float range": (
        lambda: cmo_norm(
            ALTERNATING, ExponentFunction(C2, (-40, -40), (1.0,), 1.0 + 1e-9, 1.0), 1e-4
        ),
        NumericOverflowError,
    ),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_raises_its_typed_error(name):
    call, error = GUARDS[name]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_the_adjoint_refuses_a_non_finite_order_as_an_order(alpha):
    """As OperatorSpec does, not as the non-finite coefficients it would give."""
    with pytest.raises(DomainError, match="operator order must be finite"):
        hardy_adjoint(F2, alpha)


def test_a_computed_function_names_the_coefficient_or_tail_that_overflows():
    """The first non-finite coefficient, with its shell, before the tails;
    a tail by its side."""
    far = RadialStepFunction(C2, (-1100, -1100), (1.0,))
    with pytest.raises(NumericOverflowError, match="on shell -1100 overflows .*: it is inf"):
        hardy(far, -1.0)
    both = RadialStepFunction(C2, (0, 0), (1e308,), inner_tail=Tail(1e308, 0.0))
    with pytest.raises(NumericOverflowError, match="on shell 0 overflows"):
        combine(both, both, "add")
    with pytest.raises(NumericOverflowError, match="inner tail .*rate inf"):
        combine(STEEP_INNER, STEEP_INNER, "multiply")


def test_a_hardy_image_past_the_shell_limit_is_refused_before_its_underflow():
    """H chi(S_-10000) has its window end on S_-10001, past the shell limit,
    and its outer amplitude 2**-10001 rounds to 0.0: the window is judged
    first, with every other verdict on the built image."""
    f = RadialStepFunction.indicator_sphere(C2, -SHELL_LIMIT)
    with pytest.raises(DomainError, match=f"window\\[0\\] {-SHELL_LIMIT - 1} lies beyond"):
        hardy(f, 0.0)


def test_hardy_at_an_int_order_gives_a_float_rate():
    """An int order makes alpha - n an int; the built tail holds it as a float."""
    assert repr(hardy(F2, 0).outer_tail) == "Tail(amplitude=0.5, rate=-1.0)"


def test_a_zero_shell_adds_nothing_to_a_herz_sum_under_a_saturated_weight():
    """p**(2 * l) is inf on the zero shells near S_600; the norm is that of
    chi(S_0) alone, |S_0|**(1/2)."""
    assert herz_norm(FAR_ZEROS, U2, HerzParams(2.0, 1.0)).value == 0.7071067811865476
    params = MorreyHerzParams(2.0, 1.0, 3.0)
    assert morrey_herz_norm(FAR_ZEROS, U2, params).value == 0.7071067811865476


def test_a_zero_partial_sum_takes_no_morrey_prefactor():
    """On the zero shells from S_-1100 the Morrey-Herz prefactor
    p**(-k0 * lam * m) is past the float range, but the partial sum it
    would weigh is 0."""
    f = RadialStepFunction(C2, (-1100, 0), (0.0,) * 1100 + (1.0,))
    assert morrey_herz_norm(f, U2, MorreyHerzParams(0.0, 1.0, 1.0)).value == 0.7071067811865476


def test_a_zero_shell_adds_nothing_to_the_adjoint_under_a_saturated_weight():
    """p**(j * 2) is inf on the zero shells near S_600: the image is
    |S_0| = 0.5 below S_0 and 0.0 from S_0 up."""
    image = hardy_adjoint(FAR_ZEROS, 2.0)
    assert image.window == (-1, 601)
    assert image.coeffs == (0.5,) + (0.0,) * 602
    assert all(repr(c) == "0.0" for c in image.coeffs[1:])
    assert (image.inner_tail, image.outer_tail) == (Tail(0.5, 0.0), Tail(0.0, 0.0))


def test_a_lost_modular_weight_under_a_saturated_measure_weighs_nothing():
    """1e-300 ** 5 rounds to 0.0 on S_1030, whose measure is inf: that
    shell's weight is 0.0 (and its log weight is lost), so the modular is
    |S_0| = 0.5 and the norm 0.5 ** (1/5)."""
    f = RadialStepFunction(C2, (0, 1030), (1.0,) + (0.0,) * 1029 + (1e-300,))
    u5 = ExponentFunction.constant(C2, 5.0)
    assert modular(f, u5).value == 0.5
    assert luxemburg_norm(f, u5).value == 0.8705505632961241


def test_a_steep_exponent_piece_gives_the_ball_indicator_norm():
    """At p = 7 with u_infinity = 1e17, lam**(-u_infinity/2) overflows just
    below lam = 1, where the solver probes the modular of chi(B_0). Such a
    power counts as a modular above 1, so the norm comes back: the pieces'
    measures sum to |B_0| = 1, so the modular at lam = 1 is 1 and the norm is
    1 (it was a bare OverflowError at gamma = 0)."""
    u = ExponentFunction(PadicContext(7, 1), (-3, -1), (1.17, 3.15, 2.43), 1.52, 1e17)
    for gamma in (0, 1):
        result = ball_indicator_norm(u, gamma)
        assert abs(result.value - 1.0) <= 1e-10
        assert abs(result.value - 1.0) <= result.tail_remainder_bound + 1e-12


@pytest.mark.parametrize(
    "b, u",
    [
        # from radius 5 on, s * D_lo is past the float range: 2e307 * 2**4
        (
            RadialStepFunction.indicator_sphere(C2, 0).scale(4e307),
            ExponentFunction(C2, (0, 6), (1.0,) * 7, 1.0, 1.0),
        ),
        # the supremum 2**-19 of B_-1000 against the u = 4 piece of B_-999:
        # s * D_lo is about 1e-81, and its (-4)th power overflows
        (
            RadialStepFunction(C2, (-1000, -999), (2.0**-18, 1.0)),
            ExponentFunction(C2, (-999, -999), (4.0,), 1.0, 1.0),
        ),
    ],
    ids=["pruning-bound-past-max", "pruning-power-overflows"],
)
def test_a_cmo_pruning_test_out_of_range_solves_the_radius(b, u, monkeypatch):
    """Where the pruning test's lam leaves the float range or its power
    overflows, the radius is solved in full: the same NormResult as a scan
    that never prunes."""
    pruned = cmo_norm(b, u)
    monkeypatch.setattr(norms, "_norm_at_most", lambda terms, lam: False)
    assert pruned == cmo_norm(b, u)


def test_a_saturated_hardy_factor_scales_the_float_part_of_the_integral_exactly():
    """At p = 2, alpha = 0.3, f = chi(S_-1601) + chi(S_0) with inner tail
    2**(-k/2): below S_-1601 the integral is the tail's float sum alone,
    2**-801 / (2 - sqrt 2), and p**(0.7 * 1602) is past the float range, but
    the coefficient, about 2**321.2, is not (it used to raise). On S_-1601
    the exact window part joins the float part before the one rounding."""
    f = RadialStepFunction(
        C2, (-1601, 0), (1.0,) + (0.0,) * 1600 + (1.0,), inner_tail=Tail(1.0, -0.5)
    )
    image = hardy(f, 0.3)
    for k in (-1602, -1601):
        # the window's 2**-1602 is below the tail's last bit
        expected = 2.0 ** (-0.7 * k - 801) / (2.0 - math.sqrt(2.0))
        assert image.evaluate(k) == pytest.approx(expected, rel=1e-13)


def test_the_oracle_adjoint_with_no_nonzero_shell_above_is_exactly_zero():
    """chi(S_0) vanishes above S_0, so H* of it there is 0.0 with no draws."""
    estimate = mc_operator_probe(OperatorSpec("adjoint"), F2, 0, CONFIG)
    assert (estimate.value, estimate.std_error, estimate.samples) == (0.0, 0.0, 0)


def test_sobolev_shift_at_order_zero_is_the_exponent_itself():
    u = ExponentFunction(C3, (0, 1), (3.0, 1.1), 3.0, 7.0)
    assert sobolev_shift(u, 0.0) is u
