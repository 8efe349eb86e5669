"""Property tests: the running ball-integral sum, the geometric tail kernel,
the exact powers of p, the Luxemburg solver, the CMO mixed tail walk, the
Herz terms and the Morrey-Herz supremum against direct references and norm
laws written out here.

``conftest.py`` keeps hypothesis from drawing the package's own literals,
so each strategy names the edges that matter to it: the smallest normal
float, the shell limit, the tolerance ends, the exponent guards of ``ppow``,
the critical tail rates -n, 0 and -n/u and the Morrey-Herz critical band."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.internal.conjecture import providers

from ultraherz import (
    DomainError,
    ExponentFunction,
    HerzParams,
    MorreyHerzParams,
    NumericOverflowError,
    NumericUnderflowError,
    PadicContext,
    RadialStepFunction,
    Tail,
    UltraherzError,
    ball_indicator_norm,
    ball_integral,
    ball_mean,
    cmo_norm,
    combine,
    commutator,
    hardy,
    hardy_adjoint,
    herz_norm,
    luxemburg_norm,
    modular,
    morrey_herz_norm,
    ppow,
    total_integral,
)
from ultraherz.norms import (
    _CRITICAL_BAND,
    _herz_terms,
    _mixed_inner_sum,
    _modular_terms,
    _solve_luxemburg,
)
from ultraherz.padic import SHELL_LIMIT, ppow_range
from ultraherz.radial import (
    _float_value,
    _geometric_tail,
    _running_parts,
)

MIN_NORMAL = sys.float_info.min

PRIMES = st.sampled_from([2, 3, 5, 7])
COEFF = st.one_of(
    st.sampled_from([0.0, 1.0, -2.0, 0.5]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


def test_hypothesis_draws_no_literal_of_the_modules_under_test():
    """``conftest.py`` swaps the private miner hypothesis's provider calls
    for the empty pool; a renamed name would silently undo that."""
    reader = providers.HypothesisProvider._local_constants.func
    assert "_get_local_constants" in reader.__code__.co_names
    assert providers._get_local_constants() is providers._local_constants
    assert len(providers._local_constants) == 0


@st.composite
def contexts(draw):
    return PadicContext(draw(PRIMES), draw(st.integers(1, 3)))


#: Coefficients whose power-of-2 denominators reach 2**1074 and whose
#: numerators reach 2**997, besides the everyday ones of COEFF.
WIDE_COEFF = st.one_of(
    COEFF,
    st.sampled_from(
        [5e-324, -5e-324, MIN_NORMAL, -MIN_NORMAL, 1e-300, -1e-300, 1e300, -1e300]
    ),
    st.floats(-1e300, 1e300),
)


@st.composite
def step_functions(draw, ctx, outer=True, coeff=COEFF, reach=6, int_rates=3, far=()):
    """A radial step function with optional tails at integer or non-integer
    rates: j_min within ``reach`` of the origin or one of ``far``, integer
    inner rates up to ``int_rates`` and outer ones down to -n - 1 -
    int_rates. Inner tails are integrable; they and outer tails also take
    the rates -n/u where a modular turns divergent, and outer tails the
    flat rate 0 and the rate -n where the integral does."""
    n = ctx.n
    critical = [-n / u for u in (1.5, 2.0, 3.0)]
    j_min = draw(st.integers(-reach, reach + len(far)))
    if j_min > reach:  # a far window, drawn as often as any one start near 0
        j_min = far[j_min - reach - 1]
    coeffs = draw(st.lists(coeff, min_size=1, max_size=8))
    inner = outer_tail = Tail(0.0, 0.0)
    if draw(st.booleans()):
        rate = draw(
            st.one_of(
                st.integers(1 - n, int_rates).map(float),
                st.floats(0.05 - n, 3.0, allow_nan=False),
                st.sampled_from(critical),
            )
        )
        inner = Tail(draw(coeff), rate)
    if outer and draw(st.booleans()):
        rate = draw(
            st.one_of(
                st.integers(-n - 1 - int_rates, -n - 1).map(float),
                st.floats(-n - 4.0, -n - 0.05, allow_nan=False),
                st.sampled_from([0.0, -float(n), *critical]),
            )
        )
        outer_tail = Tail(draw(coeff), rate)
    return RadialStepFunction(ctx, (j_min, j_min + len(coeffs) - 1), coeffs, inner, outer_tail)


def wide_step_functions(ctx):
    """Step functions for the running-sum kernel: windows up to 60 shells
    from the origin or at either shell limit, so the measures carry large
    powers of p, coefficients from 5e-324 to 1e300, and integer-rate tails
    up to 6 (the inner divisor p**s - 1, the outer denominator growing by
    p**-(rate + n) per shell). The far windows leave room for the radii the
    test walks, which stay within the limit."""
    far = [5 - SHELL_LIMIT, SHELL_LIMIT - 24]
    return step_functions(ctx, coeff=WIDE_COEFF, reach=60, int_rates=6, far=far)


def _tail_sum(f: RadialStepFunction, start: int, below: bool) -> Fraction | None:
    """The inner tail's integral below shell ``start`` (below) or the outer
    tail's from ``start`` on, in closed form: a Fraction of the geometric
    series at an integer rate, else the float of ``_geometric_tail`` (from
    the amplitude's mantissa where amplitude * |S_0| is subnormal, scaled
    by its exponent last) as a Fraction. None where that float is inf."""
    p, n = f.ctx.p, f.ctx.n
    mass = 1 - Fraction(p) ** -n
    amplitude, rate = f.inner_tail if below else f.outer_tail
    s = rate + n
    if amplitude == 0.0:
        return Fraction(0)
    if s.is_integer():
        r = Fraction(p) ** int(s)
        return Fraction(amplitude) * mass * r**start / ((r - 1) if below else (1 - r))
    mantissa, scale = amplitude, 0
    if abs(amplitude * float(mass)) < MIN_NORMAL:
        mantissa, scale = math.frexp(amplitude)
    tail = math.ldexp(_geometric_tail(mantissa * float(mass), p, s, start, below), scale)
    return Fraction(tail) if math.isfinite(tail) else None


def _direct_parts(f: RadialStepFunction, gamma: int) -> tuple[Fraction | None, float]:
    """Integral of f over B_gamma from a fresh shell-by-shell sum, as an
    exact part and a float: the inner tail by ``_tail_sum``, then every
    shell of B_gamma above it exactly, but for the non-integer-rate outer
    terms, added left to right as floats (where |S_k| leaves the float
    range, amplitude * |S_0| * p**(k*(rate + n))). An infinite inner tail
    sum gives None."""
    p, n = f.ctx.p, f.ctx.n
    j_min, j_max = f.window
    mass = 1 - Fraction(p) ** -n
    exact, inexact = _tail_sum(f, min(gamma, j_min - 1) + 1, below=True), 0.0
    if exact is None:
        return None, 0.0
    amplitude, rate = f.outer_tail
    for k in range(j_min, gamma + 1):
        sphere = Fraction(p) ** (n * k) * mass
        if k <= j_max:
            exact += Fraction(f.coeffs[k - j_min]) * sphere
        elif amplitude == 0.0:
            break
        elif rate.is_integer():
            exact += Fraction(amplitude) * Fraction(p) ** (k * int(rate)) * sphere
        else:
            try:
                inexact += amplitude * ppow(p, k * rate) * float(sphere)
            except OverflowError:
                inexact += amplitude * float(mass) * ppow(p, k * (rate + n))
    return exact, inexact


def _rounded(x: Fraction) -> float | None:
    """x correctly rounded to a float, or None past the float range."""
    try:
        return float(x)
    except OverflowError:
        return None


@settings(max_examples=300)
@given(data=st.data())
def test_running_parts_match_a_direct_shell_sum_at_every_step(data):
    """Each pair is the exact sum of the direct reference, and rounds to it
    once; where that sum is infinite, or its float past the float range,
    the pass or the rounding raises NumericOverflowError."""
    f = data.draw(contexts().flatmap(wide_step_functions))
    j_min, j_max = f.window
    gamma = data.draw(st.integers(j_min - 5, j_max + 5))
    steps = data.draw(st.integers(1, 12))
    running = _running_parts(f, gamma)
    for k in range(gamma, gamma + steps):
        exact, inexact = _direct_parts(f, k)
        if exact is None or not math.isfinite(inexact):
            with pytest.raises(NumericOverflowError):
                next(running)
            break
        num, den = next(running)
        assert Fraction(num, den) == exact + Fraction(inexact)
        want = _rounded(exact + Fraction(inexact))
        if want is None:
            with pytest.raises(NumericOverflowError):
                _float_value(num, den)
        else:
            assert repr(_float_value(num, den)) == repr(want)


@settings(max_examples=300)
@given(data=st.data())
def test_integrals_and_means_are_the_exact_sums_rounded_once(data):
    """``ball_integral``, ``ball_mean`` and ``total_integral`` round the
    exact sum of the direct reference once, at zero, integer and
    non-integer tail rates, or raise NumericOverflowError where it does not
    fit (DomainError for a total with a non-integrable outer tail)."""
    f = data.draw(contexts().flatmap(wide_step_functions))
    p, n = f.ctx.p, f.ctx.n
    j_min, j_max = f.window
    gamma = data.draw(st.integers(j_min - 5, j_max + 5))
    exact, inexact = _direct_parts(f, gamma)
    integral = None
    if exact is not None and math.isfinite(inexact):
        integral = exact + Fraction(inexact)
    measure = Fraction(p) ** (n * gamma)
    checks = [
        (lambda: ball_integral(f, gamma), integral),
        (lambda: ball_mean(f, gamma), None if integral is None else integral / measure),
    ]
    amplitude, rate = f.outer_tail
    if amplitude == 0.0 or rate < -n:
        exact, inexact = _direct_parts(f, j_max)
        outer = _tail_sum(f, j_max + 1, below=False)
        total = None
        if exact is not None and outer is not None:
            total = exact + outer
        checks.append((lambda: total_integral(f), total))
    else:
        with pytest.raises(DomainError):
            total_integral(f)
    for call, value in checks:
        want = None if value is None else _rounded(value)
        if want is None:
            with pytest.raises(NumericOverflowError):
                call()
        else:
            assert repr(call()) == repr(want)


#: Tails that vanish (a 0.0 amplitude), stay flat (rate 0.0, also -0.0) or
#: follow a power law at an integer or a non-integer rate.
TAILS = st.builds(
    Tail,
    COEFF,
    st.one_of(st.sampled_from([0.0, -0.0]), st.integers(-4, 4).map(float), st.floats(-4.0, 4.0)),
)


@settings(max_examples=300)
@given(data=st.data())
def test_shell_values_read_each_shell_as_evaluate_does(data):
    """``evaluate_range`` reads a range of shells by slices, ``evaluate`` one
    shell at a time; the lists agree, for a function and for an exponent on
    the same window, on ranges that start and end below, inside or above
    the window, shells 1100 away included, where a power law leaves the
    float range, and on the empty range."""
    ctx = data.draw(contexts())
    j_min = data.draw(st.integers(-6, 6))
    coeffs = data.draw(st.lists(COEFF, min_size=1, max_size=6))
    j_max = j_min + len(coeffs) - 1
    f = RadialStepFunction(ctx, (j_min, j_max), coeffs, data.draw(TAILS), data.draw(TAILS))
    exponents = data.draw(st.lists(EXPONENT, min_size=len(coeffs), max_size=len(coeffs)))
    u = ExponentFunction(ctx, (j_min, j_max), exponents, data.draw(EXPONENT), data.draw(EXPONENT))
    shell = st.one_of(
        st.integers(j_min - 3, j_max + 3),
        st.sampled_from([j_min - 1100, j_min - 40, j_max + 40, j_max + 1100]),
    )
    lo, hi = sorted([data.draw(shell), data.draw(shell)])
    hi -= data.draw(st.sampled_from([0, hi - lo + 1]))  # or the empty range
    for g in (f, u):
        expected = [g.evaluate(k) for k in range(lo, hi + 1)]
        values = g.evaluate_range(lo, hi)
        assert values == expected
        # repr also tells -0.0 from 0.0
        assert [repr(x) for x in values] == [repr(x) for x in expected]


@st.composite
def power_ranges(draw):
    """(p, n, lo, hi) for ``ppow_range``: ranges that are empty, cross 0, or
    cross a clamp of ppow (n k = -1100 or 1100) or the first k whose power
    passes the float range."""
    p = draw(st.sampled_from([2, 3, 7, 257]))
    n = draw(st.integers(1, 4))
    reach = -(-1100 // n)
    overflow = next(k for k in range(reach + 1) if ppow(p, n * k) == math.inf)
    lo = draw(st.sampled_from([0, -reach, reach, overflow])) + draw(st.integers(-12, 12))
    return p, n, lo, lo + draw(st.integers(-1, 30))


@settings(max_examples=300)
@given(args=power_ranges())
@example(args=(7, 4, 85, 100))  # 7**368 is the first power past the float range
@example(args=(2, 3, 5, 4))
def test_the_power_range_kernel_is_ppow_shell_by_shell(args):
    """``ppow_range`` keeps every bit of ``ppow(p, n * k)``, its 0.0 and inf
    clamps and its inf on float overflow included."""
    p, n, lo, hi = args
    row = ppow_range(p, n, lo, hi)
    assert row == [ppow(p, n * k) for k in range(lo, hi + 1)]
    assert [repr(x) for x in row] == [repr(ppow(p, n * k)) for k in range(lo, hi + 1)]


@settings(max_examples=200)
@given(
    data=st.data(),
    alpha=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0),
    c=WIDE_COEFF,
)
def test_each_kernel_builds_what_the_public_constructor_builds(data, alpha, c):
    """``hardy``, ``hardy_adjoint``, ``combine``, ``commutator``, ``scale``
    and ``absolute`` build their images through one private path that
    checks only what each computed. Rebuilt from its fields by the public
    constructor, every image is equal, prints and hashes the same, holds
    its coefficients as a tuple of floats and each zero tail as
    Tail(0.0, 0.0). An image that a kernel refuses with a typed error is
    skipped."""
    ctx = data.draw(contexts())
    f = data.draw(step_functions(ctx))
    g = data.draw(step_functions(ctx, outer=False))
    no_inner = RadialStepFunction(ctx, f.window, f.coeffs, outer_tail=f.outer_tail)
    kernels = {
        "hardy": lambda: hardy(g, alpha),
        "hardy_adjoint": lambda: hardy_adjoint(no_inner, alpha),
        "add": lambda: combine(f, g, "add"),
        "multiply": lambda: combine(f, g, "multiply"),
        "commutator": lambda: commutator(f, g, alpha),
        "scale": lambda: f.scale(c),
        "absolute": f.absolute,
    }
    for name, kernel in kernels.items():
        try:
            image = kernel()
        except UltraherzError:
            continue
        fields = (image.ctx, image.window, image.coeffs, image.inner_tail, image.outer_tail)
        rebuilt = RadialStepFunction(*fields)
        assert rebuilt == image, name
        assert repr(rebuilt) == repr(image) and hash(rebuilt) == hash(image), name
        assert type(image.coeffs) is tuple, name
        assert all(type(v) is float for v in image.coeffs), name
        for tail in (image.inner_tail, image.outer_tail):
            if tail.amplitude == 0.0:
                assert repr(tail) == repr(Tail(0.0, 0.0)), name


@settings(max_examples=100)
@given(data=st.data(), alpha=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_hardy_coefficients_are_weighted_ball_integrals(data, alpha):
    """Bit for bit p**(k(alpha - n)) times the ball integral, where that
    integral is a normal float. A subnormal integral has lost bits that the
    image scales back from the exact integral: at an integer order the
    coefficient is then the correctly rounded exact product, at any tail
    rate, and at any order within the integral's rounding of the float
    product."""
    f = data.draw(contexts().flatmap(lambda ctx: step_functions(ctx, outer=False)))
    p, n = f.ctx.p, f.ctx.n
    image = hardy(f, alpha)
    lo, hi = image.window
    assert (lo, hi) == (f.window[0] - 1, f.window[1] + 1)
    for k, got in zip(range(lo, hi + 1), image.coeffs):
        factor, integral = ppow(p, k * (alpha - n)), ball_integral(f, k)
        num, den = next(_running_parts(f, k))
        if abs(integral) >= MIN_NORMAL or not num:
            assert got == factor * integral
        elif alpha.is_integer():
            assert got == float(Fraction(p) ** (k * int(alpha - n)) * Fraction(num, den))
        else:
            assert abs(got - factor * integral) <= factor * 2.0**-1072 + 1e-15 * abs(got)
    total = ball_integral(f, f.window[1])
    assert image.outer_tail == (Tail(total, alpha - n) if total else Tail(0.0, 0.0))


@settings(max_examples=150)
@given(
    p=PRIMES,
    s=st.one_of(st.sampled_from([1.0, 2.0, 0.5, 1e-3, 4.0]), st.floats(1e-3, 4.0)),
    start=st.integers(-30, 30),
    terms=st.integers(1, 40),
    coef=st.floats(-10.0, 10.0, allow_nan=False),
)
def test_geometric_tail_is_a_partial_sum_plus_its_remainder(p, s, start, terms, coef):
    """Below: the tail over k < start is the direct sum over the last
    ``terms`` shells plus the tail over k < start - terms; above, the same
    with the first ``terms`` shells at rate -s. Any other ratio or offset in
    the closed form breaks this identity."""
    for rate, below, shells, rest in (
        (s, True, range(start - terms, start), start - terms),
        (-s, False, range(start, start + terms), start + terms),
    ):
        direct = coef * math.fsum(ppow(p, rate * k) for k in shells)
        expected = direct + _geometric_tail(coef, p, rate, rest, below)
        got = _geometric_tail(coef, p, rate, start, below)
        assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-300)


@given(
    size=st.one_of(
        st.sampled_from([0.0, 5e-324, MIN_NORMAL, 1e-300, 1e-3, 1.0]), st.floats(1e-3, 4.0)
    ),
    below=st.booleans(),
)
def test_geometric_tail_is_none_exactly_when_it_diverges(size, below):
    """None at every s <= 0 below (s >= 0 above), zeros of both signs and
    subnormals included; a positive float on the convergent side. Convergent
    rates stay at least 1e-3 from 0: closer, p**s - 1 cancels, and it rounds
    to 0.0 (a ZeroDivisionError) once |s| is below about 1e-16."""
    divergent = -size if below else size
    for s in (divergent, -0.0 if below else 0.0):
        assert _geometric_tail(1.0, 2, s, 0, below) is None
    if size >= 1e-3:
        assert _geometric_tail(1.0, 2, -divergent, 0, below) > 0.0


def _cmo_candidate_by_ball_mean(b, u, gamma, rel_tol):
    """The CMO ratio at B_gamma, with the mean recomputed by ``ball_mean``."""
    shifted = _modular_terms(b, u, ball_mean(b, gamma), gamma)
    numerator = _solve_luxemburg(shifted, rel_tol)[0]
    if not math.isfinite(numerator):
        return math.inf
    if numerator == 0.0:
        return 0.0
    return numerator / ball_indicator_norm(u, gamma, rel_tol).value


@settings(max_examples=40)
@given(data=st.data())
def test_cmo_norm_equals_a_per_ball_mean_recomputation(data):
    ctx = data.draw(contexts())
    values = data.draw(
        st.lists(st.floats(1.1, 4.0, allow_nan=False), min_size=1, max_size=3)
    )
    u_lo = data.draw(st.integers(-3, 3))
    u = ExponentFunction(
        ctx,
        (u_lo, u_lo + len(values) - 1),
        values,
        data.draw(st.floats(1.1, 4.0)),
        data.draw(st.floats(1.1, 4.0)),
    )
    j_min = data.draw(st.integers(-4, 4))
    coeffs = data.draw(st.lists(COEFF, min_size=1, max_size=5))
    limit = data.draw(COEFF)
    # decaying outer tails, with the rates -n and -n/u_infinity at which the
    # envelope's integral or norm term turns linear
    rates = [0.0, -1.5, -3.0, -float(ctx.n), -ctx.n / u.u_infinity]
    outer = Tail(data.draw(COEFF), data.draw(st.sampled_from(rates)))
    b = RadialStepFunction(
        ctx, (j_min, j_min + len(coeffs) - 1), coeffs, Tail(limit, 0.0), outer
    )
    # the pruned radii must stay below the supremum at every solver
    # tolerance, the ends of (1e-14, 1e-3) included
    ends = [math.nextafter(1e-14, 1.0), math.nextafter(1e-3, 0.0)]
    rel_tol = data.draw(st.sampled_from([ends[0], 1e-13, 1e-10, 1e-4, ends[1]]))
    result = cmo_norm(b, u, rel_tol)
    scan_lo, scan_end = result.work_window
    if not result.convergent:
        return
    # every shell below the end of the reported work window was scanned
    candidates = [
        _cmo_candidate_by_ball_mean(b, u, gamma, rel_tol) for gamma in range(scan_lo, scan_end)
    ]
    assert result.value == max([0.0, *candidates])


@given(p=st.sampled_from([2, 3, 5, 7, 11, 13, 101, 997]), e=st.integers(-1099, 1099))
@example(p=2, e=1023).via("largest finite power of two")
@example(p=2, e=1024).via("first overflowing power of two")
@example(p=2, e=-1074).via("smallest subnormal")
@example(p=2, e=-1075).via("underflow to zero")
@example(p=997, e=-1099)
@example(p=997, e=1099)
@example(p=2, e=1100).via("ppow's saturation guard")
@example(p=2, e=-1100).via("ppow's underflow guard")
def test_integer_ppow_is_the_correctly_rounded_fraction(p, e):
    try:
        expected = float(Fraction(p) ** e)
    except OverflowError:
        expected = math.inf
    assert ppow(p, e) == expected
    assert ppow(p, float(e)) == expected


# ---------------------------------------------------------------------------
# The Luxemburg solver

#: Tolerances from the coarsest to the finest admissible one: the ends of
#: the open interval (1e-14, 1e-3) and two inside it.
REL_TOLS = st.sampled_from(
    [math.nextafter(1e-3, 0.0), 1e-4, 1e-10, math.nextafter(1e-14, 1.0)]
)

#: Float rounding allowed when a modular is recomputed at a bracket end.
MODULAR_SLACK = 1e-13

EXPONENT = st.one_of(
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    st.floats(1.0, 4.0, allow_nan=False),
)


@st.composite
def exponents(draw, ctx):
    """A piecewise exponent; the small fixed set makes pieces share values."""
    values = draw(st.lists(EXPONENT, min_size=1, max_size=4))
    lo = draw(st.integers(-6, 6))
    return ExponentFunction(
        ctx, (lo, lo + len(values) - 1), values, draw(EXPONENT), draw(EXPONENT)
    )


@st.composite
def norm_inputs(draw):
    ctx = draw(contexts())
    return draw(step_functions(ctx)), draw(exponents(ctx))


def _solved(f, u, rel_tol=1e-10):
    """luxemburg_norm, or None when it refuses, which it may do only when a
    modular weight of f lies below the normal float range: every weight
    rounded to 0.0, a weight kept few bits or none, or the root is below
    that range (at the root each weight is at most root**e <= root)."""
    try:
        return luxemburg_norm(f, u, rel_tol)
    except NumericUnderflowError:
        assert min(w for w, _ in _modular_terms(f, u)[0]) < sys.float_info.min
        return None


@settings(max_examples=150)
@given(inputs=norm_inputs(), rel_tol=REL_TOLS)
def test_luxemburg_bracket_straddles_the_unit_modular(inputs, rel_tol):
    """rho(f/(lam+h)) <= 1 <= rho(f/(lam-h)) for the returned (lam, h)."""
    f, u = inputs
    result = _solved(f, u, rel_tol)
    if result is None:
        return
    if not result.convergent:
        assert not modular(f, u).convergent
        return
    lam, h = result.value, result.tail_remainder_bound
    if lam == 0.0:
        assert modular(f, u).value == 0.0
        return
    assert 0.0 <= h <= rel_tol * lam
    assert modular(f.scale(1.0 / (lam + h)), u).value <= 1.0 + MODULAR_SLACK
    assert modular(f.scale(1.0 / (lam - h)), u).value >= 1.0 - MODULAR_SLACK


@settings(max_examples=100)
@given(
    inputs=norm_inputs(),
    c=st.one_of(st.sampled_from([-1.0, 2.0, -0.5]), st.floats(-1e3, 1e3)).filter(
        lambda c: abs(c) >= 1e-3
    ),
)
def test_luxemburg_norm_is_homogeneous(inputs, c):
    """||c f|| = |c| ||f|| within the two certificates."""
    f, u = inputs
    base, scaled = _solved(f, u), _solved(f.scale(c), u)
    if base is None or scaled is None or not base.convergent:
        return
    bound = scaled.tail_remainder_bound + abs(c) * base.tail_remainder_bound
    assert abs(scaled.value - abs(c) * base.value) <= bound + 1e-13 * scaled.value


@settings(max_examples=100)
@given(inputs=norm_inputs())
def test_norm_lies_between_the_modular_powers(inputs):
    """min(rho**(1/u-), rho**(1/u+)) <= ||f|| <= max(rho**(1/u-), rho**(1/u+))
    (Cruz-Uribe and Fiorenza, Variable Lebesgue Spaces, 2013)."""
    f, u = inputs
    result = _solved(f, u)
    if result is None or not result.convergent:
        return
    rho = modular(f, u).value
    powers = [rho ** (1.0 / u.u_minus), rho ** (1.0 / u.u_plus)]
    h = result.tail_remainder_bound
    assert min(powers) * (1.0 - 1e-13) - h <= result.value
    assert result.value <= max(powers) * (1.0 + 1e-13) + h


def _fraction_sqrt(x: Fraction) -> Fraction:
    """sqrt(x) to about 2**-190 relative precision."""
    k = 200 - (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    return Fraction(math.isqrt(math.floor(x * Fraction(4) ** k))) / Fraction(2) ** k


@settings(max_examples=150)
@given(data=st.data())
def test_quadratic_norm_matches_an_exact_square_root(data):
    """For u = 2 the norm is sqrt(rho(f)); with integer tail rates rho(f) is
    a rational sum, written out here shell by shell and tail by tail."""
    ctx = data.draw(contexts())
    p, n = ctx.p, ctx.n
    j_min = data.draw(st.integers(-8, 8))
    coeffs = data.draw(st.lists(COEFF, min_size=1, max_size=8))
    j_max = j_min + len(coeffs) - 1
    inner = Tail(data.draw(COEFF), float(data.draw(st.integers(0, 2))))
    outer = Tail(data.draw(COEFF), float(data.draw(st.integers(-n - 2, -n))))
    f = RadialStepFunction(ctx, (j_min, j_max), coeffs, inner, outer)
    result = _solved(f, ExponentFunction.constant(ctx, 2.0))
    if result is None:
        return

    mass = 1 - Fraction(p) ** -n
    rho = sum(
        (Fraction(c) ** 2 * mass * Fraction(p) ** (n * k) for k, c in enumerate(coeffs, j_min)),
        Fraction(0),
    )
    q_in = Fraction(p) ** (2 * int(inner.rate) + n)  # ratio of the inner tail, > 1
    rho += Fraction(inner.amplitude) ** 2 * mass * q_in ** (j_min - 1) / (1 - 1 / q_in)
    q_out = Fraction(p) ** (2 * int(outer.rate) + n)  # ratio of the outer tail, < 1
    rho += Fraction(outer.amplitude) ** 2 * mass * q_out ** (j_max + 1) / (1 - q_out)

    reference = _fraction_sqrt(rho)
    error = abs(Fraction(result.value) - reference)
    assert error <= Fraction(result.tail_remainder_bound) + 32 * Fraction(math.ulp(float(reference)))


def _rounded_root(w: float, e: int) -> float:
    """The float nearest w**(1/e): from math.pow's estimate, step one float
    at a time while w lies outside the e-th powers of the midpoints around
    it, compared exactly in Fraction."""
    lam = math.pow(w, 1.0 / e)
    while True:
        below, above = math.nextafter(lam, 0.0), math.nextafter(lam, math.inf)
        if Fraction(w) < ((Fraction(below) + Fraction(lam)) / 2) ** e:
            lam = below
        elif Fraction(w) > ((Fraction(lam) + Fraction(above)) / 2) ** e:
            lam = above
        else:
            return lam


@settings(max_examples=400)
@given(
    w=st.floats(MIN_NORMAL, sys.float_info.max, allow_nan=False, allow_infinity=False),
    e=st.integers(2, 64),
)
@example(w=3.5195188575048095e-15, e=2)  # math.sqrt gives 5.932553293064302e-08
def test_a_one_exponent_root_is_correctly_rounded(w, e):
    """One exponent group W at an integer e >= 2 solves to the float nearest
    W**(1/e), which is ``math.sqrt(W)`` at e = 2."""
    root, half = _solve_luxemburg(([(w, float(e))], []), 1e-10)
    assert (root, half) == (_rounded_root(w, e), 0.0)
    if e == 2:
        assert root == math.sqrt(w)


def _dilated(f: RadialStepFunction, j: int) -> RadialStepFunction:
    """x -> f(p**j x): every shell, window and tails, moved up by j."""
    p = f.ctx.p
    j_min, j_max = f.window
    (a_in, e_in), (a_out, e_out) = f.inner_tail, f.outer_tail
    return RadialStepFunction(
        f.ctx,
        (j_min + j, j_max + j),
        f.coeffs,
        Tail(a_in * ppow(p, -j * e_in), e_in),
        Tail(a_out * ppow(p, -j * e_out), e_out),
    )


@settings(max_examples=120)
@given(
    data=st.data(),
    j=st.integers(-30, 30),
    u_value=EXPONENT,
    beta=st.floats(-1.0, 1.0),
    m=st.sampled_from([1.0, 2.0, 0.5, 3.0]),
)
def test_dilation_scales_the_lebesgue_and_herz_norms(data, j, u_value, beta, m):
    """Moving f up by j shells, tails included, multiplies its constant-u
    Luxemburg norm by p**(n j / u) and its Herz norm by p**(j (beta + n/u)),
    since |S_(k+j)| = p**(n j) |S_k|."""
    ctx = PadicContext(data.draw(st.sampled_from([2, 3, 5])), data.draw(st.integers(1, 2)))
    p, n = ctx.p, ctx.n
    f = data.draw(step_functions(ctx))
    g = _dilated(f, j)
    u = ExponentFunction.constant(ctx, u_value)

    base, moved = _solved(f, u), _solved(g, u)
    if base is not None and moved is not None:
        assert moved.convergent == base.convergent
        if base.convergent:
            factor = ppow(p, n * j / u_value)
            bound = moved.tail_remainder_bound + factor * base.tail_remainder_bound
            assert abs(moved.value - factor * base.value) <= bound + 1e-11 * moved.value

    hp = HerzParams(beta, m)
    try:
        base, moved = herz_norm(f, u, hp), herz_norm(g, u, hp)
    except (NumericOverflowError, NumericUnderflowError):
        return
    assert moved.convergent == base.convergent
    if base.convergent:
        factor = ppow(p, j * (beta + n / u_value))
        assert math.isclose(moved.value, factor * base.value, rel_tol=1e-11)


@settings(max_examples=150)
@given(
    ctx=contexts(),
    amplitude=st.floats(0.1, 10.0).flatmap(lambda a: st.sampled_from([a, -a])),
    rate=st.floats(math.log(1e-9), math.log(3.0)).map(math.exp),
    shift=st.floats(0.1, 10.0).flatmap(lambda c: st.sampled_from([c, -c])),
    exponent=st.floats(1.0, 4.0),
    upto=st.integers(-10, 10),
)
def test_mixed_inner_walk_matches_an_explicit_shell_sum(
    ctx, amplitude, rate, shift, exponent, upto
):
    """The CMO walk over |amplitude * p**(k*rate) - shift|**exponent * |S_k|
    (rising tail, nonzero shift, rate log-uniform down to 1e-9) against
    every shell from ``upto`` down to the last whose float measure is
    nonzero; below it every term and the measure of the ball left are
    0.0."""
    p, n = ctx.p, ctx.n
    value, bound = _mixed_inner_sum(ctx, amplitude, rate, shift, exponent, upto)
    mass = 1.0 - float(p) ** -n
    shells = []
    k = upto
    while (measure := float(p) ** (n * k)) > 0.0:
        shells.append(abs(amplitude * float(p) ** (k * rate) - shift) ** exponent * mass * measure)
        k -= 1
    explicit = math.fsum(shells)
    assert abs(value - explicit) <= bound + 1e-11 * explicit


def _log_abs_value(f: RadialStepFunction, k: int) -> float | None:
    """log |F(k)| from the coefficient, or from the tail law in log form."""
    j_min, j_max = f.window
    if j_min <= k <= j_max:
        c = f.coeffs[k - j_min]
        return math.log(abs(c)) if c != 0.0 else None
    amplitude, rate = f.inner_tail if k < j_min else f.outer_tail
    if amplitude == 0.0:
        return None
    return math.log(abs(amplitude)) + k * rate * math.log(f.ctx.p)


def _log_morrey_scan(f, u, beta, m, lam, lo, hi) -> float:
    """log of the largest m-th power candidate over the cutoffs lo..hi.

    Each shell's term m * log(p**(l*beta) * |F(l)| * |S_l|**(1/u(l))) is
    built in log form and the partial sums are running log-sum-exps, so
    shells whose values are subnormal in float keep their bits."""
    p, n = f.ctx.p, f.ctx.n
    log_p, log_mass = math.log(p), math.log1p(-float(p) ** -n)
    running = best = -math.inf
    for k in range(lo, hi + 1):
        log_f = _log_abs_value(f, k)
        if log_f is not None:
            term = m * (k * beta * log_p + log_f + (log_mass + n * k * log_p) / u.evaluate(k))
            top = max(running, term)
            running = top + math.log(math.exp(running - top) + math.exp(term - top))
        if running > -math.inf:
            best = max(best, running - k * lam * m * log_p)
    return best


@settings(max_examples=120)
@given(data=st.data())
def test_morrey_herz_equals_a_log_space_scan_over_cutoffs(data):
    """Both tails, with the outer terms drawn balanced (rho within 1e-12 of
    1), at critical drift (within 1e-12), or decaying; the inner drift may be
    critical too."""
    ctx = PadicContext(data.draw(st.sampled_from([2, 3, 5])), data.draw(st.integers(1, 2)))
    p, n = ctx.p, ctx.n
    log_p = math.log(p)
    j_min = data.draw(st.integers(-3, 3))
    coeffs = data.draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 0.3]), min_size=1, max_size=5))
    values = data.draw(st.lists(st.floats(1.0, 4.0), min_size=1, max_size=3))
    u = ExponentFunction(
        ctx, (j_min, j_min + len(values) - 1), values,
        data.draw(st.floats(1.0, 4.0)), data.draw(st.floats(1.0, 4.0)),
    )
    beta = data.draw(st.floats(-1.0, 1.0))
    m = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    lam = data.draw(st.floats(0.2, 1.5))
    critical_slope = lam
    # a drift (s - lam) * log p inside the 1e-12 band, away from its edge by
    # more than the rounding of s = lam + d / log p and of the drift itself
    edge = 0.99 * _CRITICAL_BAND
    tiny = st.sampled_from([0.0, -edge, edge]) | st.floats(-edge, edge)

    s_in = critical_slope + data.draw(
        st.one_of(tiny.map(lambda d: d / log_p), st.floats(0.05, 1.5))
    )
    s_out = data.draw(
        st.one_of(
            tiny.map(lambda d: d / (m * log_p)),
            tiny.map(lambda d: critical_slope + d / log_p),
            st.floats(-2.0, critical_slope - 0.05),
        )
    )
    amplitude = st.floats(0.2, 3.0).flatmap(lambda a: st.sampled_from([a, -a]))
    f = RadialStepFunction(
        ctx, (j_min, j_min + len(coeffs) - 1), coeffs,
        Tail(data.draw(amplitude), s_in - beta - n / u.u_inner),
        Tail(data.draw(amplitude), s_out - beta - n / u.u_infinity),
    )
    result = morrey_herz_norm(f, u, MorreyHerzParams(beta, m, lam))
    assert result.convergent and result.tail_remainder_bound == 0.0

    w_lo = min(f.window[0], u.window[0])
    w_hi = max(f.window[1], u.window[1])
    # far enough that the left-out inner terms and the candidates past the
    # top end are below e**-45 of the ones kept
    below = math.ceil(45.0 / (m * s_in * log_p)) + 1
    above = math.ceil(60.0 / (lam * m * log_p)) + 10
    scan = _log_morrey_scan(f, u, beta, m, lam, w_lo - below, w_hi + above)
    assert abs(math.log(result.value) - scan / m) <= 1e-8


def _herz_terms_by_shell(f, u, beta, m, top):
    """The window terms of ``_herz_terms`` as a shell-by-shell loop forms
    them: p**(l*beta) times the single-shell norm of f on S_l, to the m.
    That norm is written out, |F(l)| * |S_0|**(1/u(l)) * p**(n*l/u(l)), inf
    past the float range."""
    p, n = f.ctx.p, f.ctx.n
    mass = (p**n - 1) / p**n
    terms = []
    for shell in range(min(f.window[0], u.window[0]), top + 1):
        c, e = f.evaluate(shell), u.evaluate(shell)
        if not c:
            terms.append(0.0)  # whatever p**(l*beta) is
            continue
        norm = abs(c) * math.pow(mass, 1.0 / e) * ppow(p, n * shell / e)
        t = ppow(p, shell * beta) * norm
        terms.append(t**m if t != 0.0 else 0.0)
    return terms


@settings(max_examples=200)
@given(data=st.data(), beta=st.floats(-1.0, 1.0), m=st.sampled_from([1.0, 2.0]))
def test_herz_terms_match_a_shell_by_shell_loop(data, beta, m):
    """Bit for bit, for constant and piecewise exponents with integer and
    non-integer values, and a top shell at or just past both windows. Wide
    window coefficients reach the overflow of a term; the tails stay
    everyday ones, so the closed-form tail sums do not overflow first."""
    ctx = data.draw(contexts())
    g = data.draw(step_functions(ctx))
    coeffs = data.draw(st.lists(WIDE_COEFF, min_size=1, max_size=8))
    lo = g.window[0]
    f = RadialStepFunction(ctx, (lo, lo + len(coeffs) - 1), coeffs, g.inner_tail, g.outer_tail)
    u = data.draw(
        EXPONENT.map(lambda v: ExponentFunction.constant(ctx, v)) | exponents(ctx)
    )
    top = max(f.window[1], u.window[1]) + data.draw(st.integers(0, 1))

    def outcome(call):
        try:
            return repr(call())
        except OverflowError:
            return "overflow"

    assert outcome(lambda: _herz_terms(f, u, beta, m, top, False)[0]) == outcome(
        lambda: _herz_terms_by_shell(f, u, beta, m, top)
    )


#: Far shells: at the named ones p**(3 l), p**(3 j) and the Morrey-Herz
#: prefactor p**(-k0 * lam * m) pass the float range for small p.
PAD = st.integers(1, 8) | st.sampled_from([600, 1100])


@settings(max_examples=120)
@given(
    data=st.data(),
    beta=st.floats(-1.0, 1.0) | st.sampled_from([-3.0, 3.0]),
    alpha=st.sampled_from([0.0, 0.5, 3.0]) | st.floats(0.0, 2.0),
    m=st.sampled_from([0.5, 1.0, 2.0]),
    lam=st.floats(0.2, 1.5),
    above=PAD,
    below=PAD,
)
def test_zero_shells_change_nothing(data, beta, alpha, m, lam, above, below):
    """Padding f with zero shells out to a far shell, above its window and,
    when its inner tail vanishes, below it, leaves its Herz and Morrey-Herz
    values and its Hardy and adjoint images on the original shells as they
    were, bit for bit, or the error each raises. The named edges beta = +-3
    and alpha = 3 saturate the weights of the far zero shells. The one
    refusal padding may add is a Hardy image whose own outer tail leaves the
    float range on the padded top shell, now a coefficient."""
    ctx = data.draw(contexts())
    f = data.draw(step_functions(ctx, outer=False))
    u = data.draw(EXPONENT.map(lambda v: ExponentFunction.constant(ctx, v)) | exponents(ctx))
    j_min, j_max = f.window

    def padded(g):
        low = 0 if g.inner_tail.amplitude else below
        coeffs = (0.0,) * low + g.coeffs + (0.0,) * above
        return RadialStepFunction(ctx, (j_min - low, j_max + above), coeffs, g.inner_tail)

    def outcome(call):
        try:
            return repr(call())
        except UltraherzError as exc:
            return type(exc).__name__

    for norm, params in (
        (herz_norm, HerzParams(beta, m)),
        (morrey_herz_norm, MorreyHerzParams(beta, m, lam)),
    ):
        def value(g):
            result = norm(g, u, params)
            return result.value, result.convergent

        assert outcome(lambda: value(padded(f))) == outcome(lambda: value(f))

    no_inner = RadialStepFunction(ctx, f.window, f.coeffs)
    for operator, g in ((hardy, f), (hardy_adjoint, no_inner)):
        try:
            image = operator(g, alpha)
        except UltraherzError as exc:
            with pytest.raises(type(exc)):
                operator(padded(g), alpha)
            continue
        try:
            grown = operator(padded(g), alpha)
        except NumericOverflowError:
            assert operator is hardy
            assert not math.isfinite(image.evaluate(j_max + above + 1))
            continue
        shells = range(image.window[0], image.window[1] + 1)
        assert [repr(grown.evaluate(k)) for k in shells] == [repr(c) for c in image.coeffs]
