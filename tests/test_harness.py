"""Hypothesis validation, boundedness ratios, sweeps, and sharpness probes."""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from ultraherz import (
    DomainError,
    ExponentFunction,
    HypothesisViolationError,
    OperatorSpec,
    PadicContext,
    RadialStepFunction,
    THEOREM_IDS,
    Tail,
    TheoremConfig,
    boundedness_ratio,
    conjugate,
    random_family,
    require_hypotheses,
    sharpness_probe,
    sweep,
    validate_hypotheses,
)

CTX = PadicContext(2, 1)
U2 = ExponentFunction.constant(CTX, 2.0)
CTX3 = PadicContext(3, 1)
U2_3 = ExponentFunction.constant(CTX3, 2.0)


def _t31(alpha: float = 0.25, **kwargs) -> TheoremConfig:
    return TheoremConfig("T31", U2, alpha=alpha, **kwargs)


# --- hypothesis validation ---------------------------------------------------


def test_t31_hypotheses_all_satisfied():
    report = validate_hypotheses(_t31())
    assert report.satisfied
    assert [c.name for c in report.checks] == [
        "exponent-admissible", "index-order", "alpha-range", "beta-range",
    ]
    assert report.check("beta-range").bounds == (-0.25, 0.5)
    assert report.check("alpha-range").bounds == (0.0, 0.5)


def test_alpha_out_of_range_is_flagged():
    report = validate_hypotheses(_t31(alpha=0.6))
    assert not report.satisfied
    assert [c.name for c in report.failures()] == ["alpha-range"]
    assert "0.6" in report.check("alpha-range").detail


def test_shift_theorems_need_positive_alpha():
    report = validate_hypotheses(_t31(alpha=0.0))
    assert not report.satisfied
    assert not report.check("alpha-range").satisfied


def test_conjugation_corollaries_pin_alpha_to_zero():
    good = validate_hypotheses(TheoremConfig("C31", U2))
    assert good.satisfied
    assert good.check("alpha-zero").satisfied
    bad = validate_hypotheses(TheoremConfig("C31", U2, alpha=0.1))
    assert not bad.check("alpha-zero").satisfied


def test_lambda_is_rejected_on_plain_herz_theorems():
    report = validate_hypotheses(_t31(lam=0.5))
    assert not report.satisfied
    assert not report.check("lambda-unused").satisfied


def test_commutator_theorems_check_symbol_and_regularity():
    b = RadialStepFunction.indicator_ball(CTX, 0)
    report = validate_hypotheses(TheoremConfig("T32", U2, alpha=0.25, symbol=b))
    names = [c.name for c in report.checks]
    assert "symbol-oscillation" in names
    assert report.satisfied


def test_morrey_herz_beta_window_shifts_with_lambda():
    report = validate_hypotheses(TheoremConfig("T41", U2, alpha=0.25, lam=0.25))
    check = report.check("beta-range")
    assert check.bounds == (0.0, 0.75)
    assert not check.satisfied
    widened = validate_hypotheses(
        TheoremConfig("T41", U2, alpha=0.25, beta=0.375, lam=0.25)
    )
    assert widened.satisfied


def test_beta_bounds_match_independent_recomputation():
    ctx = PadicContext(2, 1)
    u = ExponentFunction(ctx, (-1, 1), (2.0, 2.5, 3.0), 2.0, 2.5)
    alpha, lam = 0.25, 0.125
    config = TheoremConfig("T41", u, alpha=alpha, lam=lam)
    lo, hi = validate_hypotheses(config).check("beta-range").bounds
    v = config.target_exponent()
    expected_lo = lam - ctx.n / v.u_minus
    expected_hi = ctx.n / conjugate(u).u_plus + lam
    assert lo == pytest.approx(expected_lo, abs=1e-12)
    assert hi == pytest.approx(expected_hi, abs=1e-12)


def _table_ranges(
    theorem: str, pieces: list[float], n: int, alpha: float, lam: float
) -> tuple[float | None, tuple[float, float]]:
    """The alpha cap and the beta interval as the README's claim table states them.

    v is the Sobolev shift of u (1/v = 1/u - alpha/n), u' the conjugate of
    u, and the subscripts - and + the least and largest value over all
    shells. The C-claims fix alpha = 0, so they have no cap.
    """
    conj = [w / (w - 1.0) for w in pieces]
    cap = None
    weights = pieces
    if theorem[0] == "T":
        weights = [1.0 / (1.0 / w - alpha / n) for w in pieces]
        cap = min(n / max(pieces), n / max(v / (v - 1.0) for v in weights))
    if theorem in ("T41", "T42", "C42"):
        return cap, (lam - n / min(weights), n / max(conj) + lam)
    return cap, (-n / max(weights), n / max(conj))


@pytest.mark.parametrize("theorem", ["T31", "T32", "T41", "T42", "C31", "C32", "C41", "C42"])
def test_alpha_cap_and_beta_interval_follow_the_claim_table(theorem):
    rng = random.Random(f"ranges-{theorem}")
    for _ in range(40):
        ctx = PadicContext(rng.choice((2, 3, 5)), rng.randint(1, 3))
        values = tuple(rng.uniform(1.1, 5.0) for _ in range(rng.randint(1, 4)))
        j_min = rng.randint(-4, 2)
        u = ExponentFunction(
            ctx, (j_min, j_min + len(values) - 1), values,
            rng.uniform(1.1, 5.0), rng.uniform(1.1, 5.0),
        )
        pieces = [u.u_inner, *values, u.u_infinity]
        alpha = 0.0
        if theorem[0] == "T":
            alpha = rng.uniform(0.02, 0.98) * ctx.n / max(pieces)
        lam = rng.uniform(0.01, 2.0)
        cap, (lo, hi) = _table_ranges(theorem, pieces, ctx.n, alpha, lam)
        beta = rng.uniform(lo - 1.0, hi + 1.0)
        report = validate_hypotheses(
            TheoremConfig(theorem, u, alpha=alpha, beta=beta, lam=lam)
        )
        if cap is None:
            assert report.check("alpha-zero").satisfied
        else:
            assert report.check("alpha-range").bounds == pytest.approx((0.0, cap), rel=1e-12)
            assert report.check("alpha-range").satisfied == (alpha < cap)
        check = report.check("beta-range")
        assert check.bounds == pytest.approx((lo, hi), rel=1e-12, abs=1e-12)
        assert check.satisfied == (lo < beta < hi)


def test_a_bounded_symbol_passes_with_an_exponent_next_to_one():
    """At p = 2 and u = 1.002 the conjugate exponent is about 501, which
    must not make a bounded symbol fail its check."""
    u = ExponentFunction.constant(CTX, 1.002)
    report = validate_hypotheses(TheoremConfig("C32", u))
    assert report.check("symbol-oscillation").satisfied
    assert report.satisfied


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_an_exponent_reaching_one_stops_the_checks_before_the_conjugate(theorem):
    """At u = 1 the conjugate exponent is unbounded, so the report holds the
    failed exponent check and the index order only, and no check past them
    reaches ``conjugate``, which would raise DomainError."""
    u = ExponentFunction.constant(CTX, 1.0)
    report = validate_hypotheses(TheoremConfig(theorem, u))
    assert [(c.name, c.satisfied) for c in report.checks] == [
        ("exponent-admissible", False),
        ("index-order", True),
    ]
    with pytest.raises(DomainError, match="conjugate exponent is unbounded"):
        conjugate(u)


@pytest.mark.parametrize(
    "inner, outer, bounded",
    [
        (Tail(1.0, 0.5), Tail(2.0, -1.0), True),
        (Tail(1.0, 0.0), Tail(-1.0, 0.0), True),
        (Tail(0.0, -0.5), Tail(0.0, 3.0), True),
        (Tail(1.0, -0.5), Tail(0.0, 0.0), False),
        (Tail(1.0, -1.5), Tail(0.0, 0.0), False),
        (Tail(0.0, 0.0), Tail(1.0, 0.25), False),
    ],
    ids=["decaying", "constant", "zero", "inner-rising", "inner-non-integrable", "outer-rising"],
)
def test_symbol_check_needs_both_tails_bounded(inner, outer, bounded):
    b = RadialStepFunction(CTX, (-1, 1), (0.5, -1.0, 2.0), inner, outer)
    report = validate_hypotheses(TheoremConfig("C42", U2, symbol=b))
    assert report.check("symbol-oscillation").satisfied == bounded


def test_report_check_accessor_rejects_unknown_names():
    report = validate_hypotheses(_t31())
    with pytest.raises(DomainError):
        report.check("no-such-check")


def test_require_hypotheses_attaches_the_report():
    require_hypotheses(_t31())
    with pytest.raises(HypothesisViolationError) as err:
        require_hypotheses(_t31(alpha=0.6))
    assert [c.name for c in err.value.report.failures()] == ["alpha-range"]


# --- boundedness ratios ------------------------------------------------------


def test_single_sphere_ratio_regression():
    sample = boundedness_ratio(_t31(), RadialStepFunction.indicator_sphere(CTX, 0))
    assert sample.source_norm == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert sample.ratio == pytest.approx(2.030103530256435, rel=1e-12)


def test_zero_function_is_skipped_with_nan():
    sample = boundedness_ratio(_t31(), RadialStepFunction.constant(CTX, 0.0))
    assert sample.source_norm == 0.0
    assert math.isnan(sample.ratio)


def test_divergent_source_is_skipped_with_nan():
    f = RadialStepFunction(CTX, (0, 1), (1.0, 1.0), inner_tail=Tail(1.0, -0.75))
    sample = boundedness_ratio(_t31(), f)
    assert math.isinf(sample.source_norm)
    assert math.isnan(sample.ratio)


def test_constant_symbol_commutator_vanishes():
    b = RadialStepFunction.constant(CTX, 3.0)
    config = TheoremConfig("T32", U2, alpha=0.25, symbol=b)
    f = RadialStepFunction(CTX, (0, 2), (1.0, 0.5, 0.25))
    sample = boundedness_ratio(config, f)
    assert sample.target_norm == 0.0
    assert sample.ratio == 0.0


def test_ratio_is_scaling_invariant():
    config = _t31()
    rng = random.Random(11)
    for _ in range(20):
        f = RadialStepFunction(
            CTX, (-2, 2), tuple(rng.uniform(0.1, 3.0) for _ in range(5))
        )
        base = boundedness_ratio(config, f).ratio
        scaled = boundedness_ratio(config, f.scale(rng.uniform(0.01, 100.0))).ratio
        assert scaled == pytest.approx(base, rel=1e-9)


# --- sweeps ------------------------------------------------------------------


def test_sweep_is_deterministic_for_a_fixed_seed():
    config = _t31()
    first = sweep(config, sizes=(3, 5), count=6, seed=4)
    second = sweep(config, sizes=(3, 5), count=6, seed=4)
    assert first.to_csv() == second.to_csv()
    assert first.to_csv() != sweep(config, sizes=(3, 5), count=6, seed=5).to_csv()


def test_sweep_report_contents():
    config = _t31()
    report = sweep(config, sizes=(3, 5), count=6, seed=4)
    assert len(report.rows) == 12
    assert report.sizes() == (3, 5)
    by_size = max(r.ratio for r in report.rows if r.size_bound == 3)
    assert report.sup_ratio(3) == by_size
    assert report.supremum == max(r.ratio for r in report.rows)
    header = report.to_csv().splitlines()[0]
    assert header == "sample_id,N,source_norm,target_norm,ratio"


def test_empty_sweep_has_undefined_supremum():
    report = sweep(_t31(), sizes=(3,), count=0, seed=1)
    assert report.rows == ()
    assert math.isnan(report.supremum)
    assert math.isnan(report.sup_ratio(3))


def test_sweep_refuses_violated_hypotheses():
    with pytest.raises(HypothesisViolationError):
        sweep(_t31(alpha=0.6), sizes=(3,), count=2, seed=0)


def test_vanishing_morrey_weight_reduces_to_plain_herz():
    plain = sweep(_t31(), sizes=(3, 5), count=6, seed=4)
    weighted = sweep(
        TheoremConfig("T41", U2, alpha=0.25, lam=0.0), sizes=(3, 5), count=6, seed=4
    )
    assert weighted.to_csv() == plain.to_csv()


def test_sweep_supremum_is_stable_under_family_growth():
    config = _t31()
    report = sweep(config, sizes=(5, 10, 20), count=40, seed=7)
    assert report.sup_ratio(20) <= 1.1 * report.sup_ratio(10)


#: SHA-256 of sweep CSVs at a fixed seed, for the constant exponent u = 2 and
#: the piecewise exponent of the sweep benchmark: a change to the ball
#: integrals, the Hardy images, the norms or their summation order moves them.
SWEEP_DIGESTS = {
    "T31 u=2": (
        lambda: TheoremConfig("T31", U2, alpha=0.25, m1=1.0, m2=2.0),
        "5af863e96a8a3f68a59e1b7943b25f11d7f0c994b05318c9b01b6c258225f60d",
    ),
    "C32 piecewise": (
        lambda: TheoremConfig(
            "C32",
            ExponentFunction(CTX, (-1, 1), (2.0, 2.5, 3.0), 2.0, 2.5),
            alpha=0.0,
            m1=2.0,
            m2=2.0,
        ),
        "01949ba1238772bd75d3ac1ba44d3324bf8a23bd74d4e7e4f32a2e09f9f37c9e",
    ),
    # the commutator claims on Morrey-Herz spaces, at p = 3
    "T42 u=2 p=3": (
        lambda: TheoremConfig(
            "T42", U2_3, alpha=0.25, beta=0.375, m1=1.0, m2=2.0, lam=0.25
        ),
        "17eb18bf89a71c0d7f4d73f0473e2fb49a20fe09a0649472158d36f447728fea",
    ),
    "C42 piecewise p=3": (
        lambda: TheoremConfig(
            "C42",
            ExponentFunction(CTX3, (-1, 1), (2.0, 2.5, 3.0), 2.0, 2.5),
            alpha=0.0,
            beta=0.25,
            m1=2.0,
            m2=2.0,
            lam=0.25,
        ),
        "229220acad5b9d4c96ad8c2be2097b4e40d489744083c0edebc00001d9fb15a8",
    ),
    # the ball-average claims whose target exponent is u itself
    "C31 u=2": (
        lambda: TheoremConfig("C31", U2, alpha=0.0, beta=0.25, m1=1.0, m2=2.0),
        "19c85bbf13edf0436a3b746b28d195ca59f715bc7a217378972ca3c9bcd3c05f",
    ),
    "C41 piecewise": (
        lambda: TheoremConfig(
            "C41",
            ExponentFunction(CTX, (-1, 1), (2.0, 2.5, 3.0), 2.0, 2.5),
            alpha=0.0,
            beta=0.25,
            m1=2.0,
            m2=2.0,
            lam=0.25,
        ),
        "4ae9855f07d0a6b5a01ad7bdc5efb4eef8aad07f2ed4e4e965c7051b451c955f",
    ),
}


@pytest.mark.parametrize("name", ["C31 u=2", "C41 piecewise"])
def test_ball_average_claims_keep_u_and_take_no_symbol(name):
    config = SWEEP_DIGESTS[name][0]()
    assert config.target_exponent() is config.u
    assert config.effective_symbol() is None
    assert config.operator_spec() == OperatorSpec("hardy", 0.0)


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_sweep_csv_bytes_are_pinned(name):
    config, expected = SWEEP_DIGESTS[name]
    csv = sweep(config(), sizes=(5, 10, 20, 40), count=40, seed=2402).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == expected


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_sweep_rows_match_boundedness_ratio(name):
    """A sweep derives the operator and target exponent once; each row must
    still equal ``boundedness_ratio`` on its function, compared by repr so a
    row skipped as nan compares equal too."""
    config = SWEEP_DIGESTS[name][0]()
    sizes, count, seed = (5, 20), 20, 3
    report = sweep(config, sizes=sizes, count=count, seed=seed)
    rng = random.Random(seed)
    family = [f for size in sizes for f in random_family(config.ctx, size, count, rng)]
    assert len(report.rows) == len(family) == len(sizes) * count
    for row, f in zip(report.rows, family):
        expected = boundedness_ratio(config, f)
        assert repr(tuple(row[2:])) == repr(tuple(expected))


# --- sharpness probe ---------------------------------------------------------


def test_probe_ratios_grow_at_the_dilation_rate():
    ratios = sharpness_probe(_t31())
    assert [k for k, _ in ratios] == list(range(1, 16))
    values = [value for _, value in ratios]
    assert all(b > a for a, b in zip(values, values[1:]))
    constants = [value / 2 ** (2 * k * 0.25) for k, value in ratios]
    for c in constants[1:]:
        assert c == pytest.approx(constants[0], rel=1e-9)


def test_probe_regression_values():
    ratios = dict(sharpness_probe(_t31(), shells=(1, 2, 3)))
    assert ratios[1] == pytest.approx(0.3251994840012557, rel=1e-12)
    assert ratios[2] == pytest.approx(0.4599015207513082, rel=1e-12)
    assert ratios[3] == pytest.approx(0.6503989680025114, rel=1e-12)


# --- random families ---------------------------------------------------------


def test_random_family_respects_the_size_bound():
    rng = random.Random(9)
    family = random_family(CTX, 4, 25, rng)
    assert len(family) == 25
    for f in family:
        lo, hi = f.window
        assert -4 <= lo <= hi <= 4
        assert all(c != 0.0 for c in f.coeffs)


def test_random_family_is_reproducible():
    one = random_family(CTX, 3, 10, random.Random(5))
    two = random_family(CTX, 3, 10, random.Random(5))
    assert one == two


# --- configuration validation ------------------------------------------------


def test_theorem_config_rejects_bad_inputs():
    with pytest.raises(DomainError):
        TheoremConfig("T99", U2)
    with pytest.raises(DomainError):
        TheoremConfig("T31", U2, alpha=math.inf)
    alien_symbol = RadialStepFunction.constant(PadicContext(3, 1), 1.0)
    with pytest.raises(DomainError):
        TheoremConfig("T32", U2, alpha=0.25, symbol=alien_symbol)
