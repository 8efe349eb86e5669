"""Input guards that no other test reaches, each with the typed error it raises."""

from __future__ import annotations

import math
import random

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
    herz_norm,
    luxemburg_norm,
    mc_luxemburg,
    mc_operator_probe,
    random_family,
    sweep,
)
from ultraherz.cli import _parse_sizes
from ultraherz.operators import shell_diagonal
from ultraherz.radial import sobolev_shift

C2, C3 = PadicContext(2), PadicContext(3)
F2 = RadialStepFunction.indicator_sphere(C2, 0)
F3 = RadialStepFunction.indicator_sphere(C3, 0)
U2 = ExponentFunction.constant(C2, 2.0)
U3 = ExponentFunction.constant(C3, 2.0)
ONE = RadialStepFunction.constant(C2, 1.0)
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

GUARDS = {
    "p=1 is not prime": (lambda: PadicContext(1), DomainError),
    "p=9 is an odd composite": (lambda: PadicContext(9), DomainError),
    "Morrey-Herz m=0": (lambda: MorreyHerzParams(0.0, 0.0, 0.0), DomainError),
    "Morrey-Herz lambda<0": (lambda: MorreyHerzParams(0.0, 1.0, -0.5), DomainError),
    "norm across contexts": (lambda: luxemburg_norm(F2, U3), DomainError),
    "shell_diagonal across contexts": (lambda: shell_diagonal(F2, F3, 0.0), DomainError),
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
    "divergent shell_diagonal": (lambda: shell_diagonal(ONE, ONE, 0.0), DomainError),
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
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_raises_its_typed_error(name):
    call, error = GUARDS[name]
    with pytest.raises(error):
        call()


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
