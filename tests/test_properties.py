"""Property tests: the running ball-integral sum, the geometric tail kernel,
the exact powers of p, the maximal operator, the Luxemburg solver, the CMO
mixed tail walk and the Morrey-Herz supremum against direct references and
norm laws written out here."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ultraherz import (
    ExponentFunction,
    HerzParams,
    MorreyHerzParams,
    NumericOverflowError,
    NumericUnderflowError,
    PadicContext,
    RadialStepFunction,
    Tail,
    ball_indicator_norm,
    ball_integral,
    ball_mean,
    cmo_norm,
    hardy,
    herz_norm,
    luxemburg_norm,
    maximal,
    modular,
    morrey_herz_norm,
    ppow,
)
from ultraherz.norms import _mixed_inner_sum, _shifted_norm
from ultraherz.radial import _float_value, _geometric_tail, _running_parts

PRIMES = st.sampled_from([2, 3, 5, 7])
COEFF = st.one_of(
    st.sampled_from([0.0, 1.0, -2.0, 0.5]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def contexts(draw):
    return PadicContext(draw(PRIMES), draw(st.integers(1, 3)))


#: Coefficients whose power-of-2 denominators reach 2**1074 and whose
#: numerators reach 2**997, besides the everyday ones of COEFF.
WIDE_COEFF = st.one_of(
    COEFF,
    st.sampled_from([5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(-1e300, 1e300),
)


@st.composite
def step_functions(draw, ctx, outer=True, coeff=COEFF, reach=6, int_rates=3):
    """A radial step function with optional integrable tails at integer or
    non-integer rates: j_min within ``reach`` of the origin, integer inner
    rates up to ``int_rates`` and outer ones down to -n - 1 - int_rates."""
    n = ctx.n
    j_min = draw(st.integers(-reach, reach))
    coeffs = draw(st.lists(coeff, min_size=1, max_size=8))
    inner = outer_tail = Tail(0.0, 0.0)
    if draw(st.booleans()):
        rate = draw(
            st.one_of(
                st.integers(1 - n, int_rates).map(float),
                st.floats(0.05 - n, 3.0, allow_nan=False),
            )
        )
        inner = Tail(draw(coeff), rate)
    if outer and draw(st.booleans()):
        rate = draw(
            st.one_of(
                st.integers(-n - 1 - int_rates, -n - 1).map(float),
                st.floats(-n - 4.0, -n - 0.05, allow_nan=False),
            )
        )
        outer_tail = Tail(draw(coeff), rate)
    return RadialStepFunction(ctx, (j_min, j_min + len(coeffs) - 1), coeffs, inner, outer_tail)


def wide_step_functions(ctx):
    """Step functions for the running-sum kernel: windows up to 60 shells
    from the origin, so the measures carry large powers of p, coefficients
    from 5e-324 to 1e300, and integer-rate tails up to 6 (the inner divisor
    p**s - 1, the outer denominator growing by p**-(rate + n) per shell)."""
    return step_functions(ctx, coeff=WIDE_COEFF, reach=60, int_rates=6)


def _direct_parts(f: RadialStepFunction, gamma: int) -> tuple[Fraction, float]:
    """Integral of f over B_gamma from a fresh shell-by-shell sum: the inner
    tail in closed form (as a Fraction at an integer rate), then every shell
    of B_gamma above it, with the non-integer-rate outer terms added left
    to right as floats."""
    p, n = f.ctx.p, f.ctx.n
    j_min, j_max = f.window
    mass = 1 - Fraction(p) ** -n
    exact, inexact = Fraction(0), 0.0
    start = min(gamma, j_min - 1) + 1
    amplitude, rate = f.inner_tail
    if amplitude != 0.0:
        s = rate + n
        if s.is_integer():
            r = Fraction(p) ** int(s)
            exact = Fraction(amplitude) * mass * r**start / (r - 1)
        else:
            inexact = _geometric_tail(amplitude * float(mass), p, s, start, below=True)
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
            inexact += amplitude * ppow(p, k * rate) * float(sphere)
    return exact, inexact


@settings(max_examples=300)
@given(data=st.data())
def test_running_parts_match_a_direct_shell_sum_at_every_step(data):
    f = data.draw(contexts().flatmap(wide_step_functions))
    j_min, j_max = f.window
    gamma = data.draw(st.integers(j_min - 5, j_max + 5))
    steps = data.draw(st.integers(1, 12))
    running = list(islice(_running_parts(f, gamma), steps))
    expected = [_direct_parts(f, gamma + i) for i in range(steps)]
    assert [Fraction(num, den) for num, den, _ in running] == [e for e, _ in expected]
    # repr also tells -0.0 from 0.0 in the float slot
    assert [repr(x) for *_, x in running] == [repr(x) for _, x in expected]
    for part, (exact, inexact) in zip(running, expected):
        try:
            want = float(exact) + inexact
        except OverflowError:
            want = math.inf
        if math.isfinite(want):
            assert repr(_float_value(*part)) == repr(want)
        else:
            with pytest.raises(NumericOverflowError):
                _float_value(*part)


@settings(max_examples=100)
@given(data=st.data(), alpha=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_hardy_coefficients_are_weighted_ball_integrals(data, alpha):
    f = data.draw(contexts().flatmap(lambda ctx: step_functions(ctx, outer=False)))
    p, n = f.ctx.p, f.ctx.n
    image = hardy(f, alpha)
    lo, hi = image.window
    assert (lo, hi) == (f.window[0] - 1, f.window[1] + 1)
    assert image.coeffs == tuple(
        ppow(p, k * (alpha - n)) * ball_integral(f, k) for k in range(lo, hi + 1)
    )
    total = ball_integral(f, f.window[1])
    assert image.outer_tail == (Tail(total, alpha - n) if total else Tail(0.0, 0.0))


@settings(max_examples=150)
@given(
    p=PRIMES,
    s=st.one_of(st.sampled_from([1.0, 2.0, 0.5]), st.floats(1e-3, 4.0)),
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
    size=st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1.0]), st.floats(1e-3, 4.0)),
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


@settings(max_examples=150)
@given(data=st.data())
def test_maximal_window_is_the_suffix_max_of_ball_means(data):
    """On each window shell k of f, M f = max(|F(k)|, max over g >= k of
    ball_integral(|f|, g) * p**(-n g)); past the window the ball integral is
    the total, so g = j_max + 1 attains the max over g > j_max."""
    f = data.draw(contexts().flatmap(lambda ctx: step_functions(ctx, outer=False)))
    # maximal's crossover walk takes about log_p(ratio)/|rate| steps, so an
    # inner rate near 0 hangs it (ROADMAP, "Fix first")
    assume(f.inner_tail.rate == 0.0 or abs(f.inner_tail.rate) >= 1e-3)
    p, n = f.ctx.p, f.ctx.n
    j_min, j_max = f.window
    image = maximal(f)
    g = f.absolute()
    means = {k: ball_integral(g, k) * ppow(p, -n * k) for k in range(j_min, j_max + 2)}
    for k in range(j_min, j_max + 1):
        suffix = max(means[i] for i in range(k, j_max + 2))
        assert image.evaluate(k) == max(abs(f.evaluate(k)), suffix)


def _cmo_candidate_by_ball_mean(b, u, gamma, rel_tol):
    """The CMO ratio at B_gamma, with the mean recomputed by ``ball_mean``."""
    numerator = _shifted_norm(b, u, ball_mean(b, gamma), gamma, rel_tol)
    if not math.isfinite(numerator):
        return math.inf
    if numerator == 0.0:
        return 0.0
    return numerator / ball_indicator_norm(u, gamma, rel_tol).value


@settings(max_examples=40)
@given(data=st.data())
def test_cmo_norm_equals_a_per_ball_mean_recomputation(data):
    ctx = data.draw(contexts())
    j_min = data.draw(st.integers(-4, 4))
    coeffs = data.draw(st.lists(COEFF, min_size=1, max_size=5))
    limit = data.draw(COEFF)
    outer = Tail(data.draw(COEFF), data.draw(st.sampled_from([0.0, -1.5, -3.0])))
    b = RadialStepFunction(
        ctx, (j_min, j_min + len(coeffs) - 1), coeffs, Tail(limit, 0.0), outer
    )
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
    result = cmo_norm(b, u)
    scan_lo, scan_end = result.work_window
    if not result.convergent:
        return
    # every shell below the end of the reported work window was scanned
    candidates = [
        _cmo_candidate_by_ball_mean(b, u, gamma, 1e-10) for gamma in range(scan_lo, scan_end)
    ]
    assert result.value == max([0.0, *candidates])


@given(p=st.sampled_from([2, 3, 5, 7, 11, 13, 101, 997]), e=st.integers(-1099, 1099))
@example(p=2, e=1023).via("largest finite power of two")
@example(p=2, e=1024).via("first overflowing power of two")
@example(p=2, e=-1074).via("smallest subnormal")
@example(p=2, e=-1075).via("underflow to zero")
@example(p=997, e=-1099)
@example(p=997, e=1099)
def test_integer_ppow_is_the_correctly_rounded_fraction(p, e):
    try:
        expected = float(Fraction(p) ** e)
    except OverflowError:
        expected = math.inf
    assert ppow(p, e) == expected
    assert ppow(p, float(e)) == expected


# ---------------------------------------------------------------------------
# The Luxemburg solver

#: Tolerances from the coarsest to the finest admissible one.
REL_TOLS = st.sampled_from([1e-4, 1e-10, math.nextafter(1e-14, 1.0)])

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
    """luxemburg_norm, or None when every modular term of f rounds to 0.0
    (a tiny coefficient to a large power), the one case it refuses."""
    try:
        return luxemburg_norm(f, u, rel_tol)
    except NumericUnderflowError:
        assert modular(f, u).value == 0.0
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
    rate=st.floats(0.25, 3.0),
    shift=st.floats(0.1, 10.0).flatmap(lambda c: st.sampled_from([c, -c])),
    exponent=st.floats(1.0, 4.0),
    upto=st.integers(-10, 10),
)
def test_mixed_inner_walk_matches_an_explicit_shell_sum(
    ctx, amplitude, rate, shift, exponent, upto
):
    """The CMO walk over |amplitude * p**(k*rate) - shift|**exponent * |S_k|
    (rising tail, nonzero shift) against every shell down to 400 below
    ``upto``, where the power is far below the shift, plus |shift|**exponent
    times the measure of the ball left under them."""
    p, n = ctx.p, ctx.n
    value, bound = _mixed_inner_sum(ctx, amplitude, rate, shift, exponent, upto)
    mass = 1.0 - float(p) ** -n
    shells = [
        abs(amplitude * float(p) ** (k * rate) - shift) ** exponent * mass * float(p) ** (n * k)
        for k in range(upto - 400, upto + 1)
    ]
    explicit = math.fsum(shells) + abs(shift) ** exponent * float(p) ** (n * (upto - 401))
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
    tiny = st.floats(-1e-12, 1e-12)

    s_in = critical_slope + data.draw(st.one_of(tiny, st.floats(0.05, 1.5)))
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
