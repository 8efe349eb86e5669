"""Acceptance gate: the package's headline guarantees, one test per criterion.

Each test prints a single ``criterion N: PASS`` line on success (run with
``pytest -v -s`` to see them live) and enforces the stated tolerance and,
where one is given, the runtime budget.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from ultraherz import (
    ExponentFunction,
    HerzParams,
    MorreyHerzParams,
    OperatorSpec,
    OracleConfig,
    PadicContext,
    RadialStepFunction,
    Tail,
    TheoremConfig,
    ball_measure,
    ball_mean,
    cmo_norm,
    combine,
    conjugate,
    hardy,
    hardy_adjoint,
    herz_norm,
    luxemburg_norm,
    mc_operator_probe,
    modular,
    morrey_herz_norm,
    ppow,
    sharpness_probe,
    single_shell_norm,
    sphere_measure,
    sweep,
    total_integral,
    validate_hypotheses,
)

from test_operators import diagonal

CTX = PadicContext(2, 1)
U2 = ExponentFunction.constant(CTX, 2.0)


def _report(number: int, label: str, started: float) -> None:
    print(f"criterion {number}: PASS  {label} ({time.perf_counter() - started:.2f} s)")


def _random_function(rng: random.Random, ctx: PadicContext, reach: int = 5) -> RadialStepFunction:
    lo = rng.randint(-reach, reach)
    hi = rng.randint(lo, reach)
    coeffs = tuple(
        (1.0 if rng.random() < 0.5 else -1.0) * ppow(ctx.p, rng.uniform(-3.0, 3.0))
        for _ in range(hi - lo + 1)
    )
    return RadialStepFunction(ctx, (lo, hi), coeffs)


def _random_exponent(rng: random.Random, ctx: PadicContext) -> ExponentFunction:
    pieces = rng.randint(1, 4)
    lo = rng.randint(-3, 1)
    values = tuple(rng.uniform(1.2, 4.0) for _ in range(pieces))
    return ExponentFunction(
        ctx, (lo, lo + pieces - 1), values, rng.uniform(1.2, 4.0), rng.uniform(1.2, 4.0)
    )


def test_criterion_1_exact_measure_identities():
    started = time.perf_counter()
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            ctx = PadicContext(p, n)
            for gamma in range(-30, 31):
                ball = ball_measure(gamma, ctx)
                below = ball_measure(gamma - 1, ctx)
                shell = sphere_measure(gamma, ctx)
                assert isinstance(ball, Fraction)
                assert ball == below + shell
                assert ball == Fraction(p**n) ** gamma
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "ball measures split exactly into sphere measures", started)


def test_criterion_2_luxemburg_correctness():
    started = time.perf_counter()
    rng = random.Random(20_101)
    for _ in range(300):
        c = (1.0 if rng.random() < 0.5 else -1.0) * ppow(CTX.p, rng.uniform(-3.0, 3.0))
        shell = rng.randint(-6, 6)
        u = _random_exponent(rng, CTX)
        f = RadialStepFunction(CTX, (shell, shell), (c,))
        closed = single_shell_norm(c, shell, u)
        assert luxemburg_norm(f, u).value == pytest.approx(closed, rel=1e-9)
    for _ in range(1000):
        f = _random_function(rng, CTX)
        u = _random_exponent(rng, CTX)
        norm = luxemburg_norm(f, u).value
        assert norm > 0.0
        assert modular(f.scale(1.0 / norm), u).value == pytest.approx(1.0, abs=1e-8)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(2, "single-shell closed forms and the unit-modular property", started)


def test_criterion_3_norm_modular_bracketing_and_power_rule():
    started = time.perf_counter()
    rng = random.Random(21_404)
    for _ in range(1000):
        f = _random_function(rng, CTX)
        u = _random_exponent(rng, CTX)
        norm = luxemburg_norm(f, u, rel_tol=1e-12).value
        rho = modular(f, u).value
        assert norm <= rho + 1.0 + 1e-9
        assert rho <= (1.0 + norm) ** u.u_plus + 1e-9
        s = rng.uniform(0.2, u.u_minus)
        powered = RadialStepFunction(
            f.ctx, f.window, tuple(abs(c) ** s for c in f.coeffs)
        )
        scaled = luxemburg_norm(powered, u.map_pieces(lambda t: t / s), rel_tol=1e-12).value
        assert scaled ** (1.0 / s) == pytest.approx(norm, rel=1e-8)
    _report(3, "norm/modular brackets and the power rule", started)


def test_criterion_4_holder_inequality():
    started = time.perf_counter()
    rng = random.Random(24_017)
    violations = 0
    for _ in range(1000):
        f = _random_function(rng, CTX)
        g = _random_function(rng, CTX)
        u = _random_exponent(rng, CTX)
        lhs = total_integral(combine(f, g, "multiply").absolute())
        rhs = 2.0 * luxemburg_norm(f, u).value * luxemburg_norm(g, conjugate(u)).value
        if lhs > rhs * (1.0 + 1e-9):
            violations += 1
    assert violations == 0
    _report(4, "split integrals stay under twice the paired norms", started)


def test_criterion_5_operator_closed_forms_against_the_oracle():
    started = time.perf_counter()
    rng = random.Random(50_005)
    for case in range(50):
        lo = rng.randint(-3, 1)
        hi = rng.randint(lo, 3)
        coeffs = tuple(
            (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(0.3, 3.0)
            for _ in range(hi - lo + 1)
        )
        f = RadialStepFunction(CTX, (lo, hi), coeffs)
        alpha = rng.uniform(0.1, 0.9)
        shell = rng.randint(lo + 1, hi + 2)
        config = OracleConfig(
            samples=100_000, seed=9000 + case, stratified=False,
            truncation_window=(-32, 32),
        )
        estimate = mc_operator_probe(OperatorSpec("hardy", alpha), f, shell, config)
        closed = hardy(f, alpha).evaluate(shell)
        assert estimate.std_error > 0.0
        assert abs(closed - estimate.value) <= 3.0 * estimate.std_error
    for case in range(50):
        lo = rng.randint(-3, 1)
        hi = rng.randint(lo, 3)
        coeffs = tuple(
            (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(0.3, 3.0)
            for _ in range(hi - lo + 1)
        )
        tail = Tail(rng.uniform(0.2, 1.5), rng.uniform(-2.5, -1.2))
        f = RadialStepFunction(CTX, (lo, hi), coeffs, outer_tail=tail)
        alpha = rng.uniform(0.1, 0.9)
        shell = rng.randint(lo - 2, hi)
        config = OracleConfig(
            samples=100_000, seed=9500 + case, truncation_window=(-8, 8),
        )
        estimate = mc_operator_probe(OperatorSpec("adjoint", alpha), f, shell, config)
        closed = hardy_adjoint(f, alpha).evaluate(shell)
        assert estimate.std_error > 0.0
        assert abs(closed - estimate.value) <= 3.0 * estimate.std_error
    for _ in range(200):
        lo = rng.randint(-4, 4)
        hi = rng.randint(lo, 4)
        f = RadialStepFunction(
            CTX, (lo, hi), tuple(rng.uniform(-3.0, 3.0) for _ in range(hi - lo + 1))
        )
        lo = rng.randint(-4, 4)
        hi = rng.randint(lo, 4)
        g = RadialStepFunction(
            CTX, (lo, hi), tuple(rng.uniform(-3.0, 3.0) for _ in range(hi - lo + 1))
        )
        alpha = rng.uniform(0.0, 0.9)
        lhs = total_integral(combine(g, hardy(f, alpha), "multiply"))
        rhs = total_integral(combine(f, hardy_adjoint(g, alpha), "multiply"))
        rhs += diagonal(f, g, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(5, "averaging operators agree with Monte Carlo and duality", started)


def test_criterion_6_space_identities():
    started = time.perf_counter()
    rng = random.Random(60_606)
    for _ in range(100):
        f = _random_function(rng, CTX)
        u = _random_exponent(rng, CTX)
        beta = rng.uniform(-1.0, 1.0)
        m = rng.uniform(0.5, 4.0)
        plain = herz_norm(f, u, HerzParams(beta, m))
        weighted = morrey_herz_norm(f, u, MorreyHerzParams(beta, m, 0.0))
        assert weighted.value == plain.value
        assert weighted.convergent == plain.convergent
    for _ in range(100):
        f = _random_function(rng, CTX)
        value = rng.uniform(1.2, 4.0)
        u = ExponentFunction.constant(CTX, value)
        herz = herz_norm(f, u, HerzParams(0.0, value)).value
        lebesgue = luxemburg_norm(f, u, rel_tol=1e-12).value
        assert herz == pytest.approx(lebesgue, rel=1e-8)
    _report(6, "degenerate shell spaces collapse onto the classical norms", started)


def _random_symbol(rng: random.Random, ctx: PadicContext) -> RadialStepFunction:
    """A bounded symbol with frozen tails, values in [-2, 2]."""
    lo = rng.randint(-4, 1)
    hi = lo + rng.randint(0, 4)
    coeffs = tuple(rng.uniform(-2.0, 2.0) for _ in range(hi - lo + 1))
    return RadialStepFunction(
        ctx,
        (lo, hi),
        coeffs,
        inner_tail=Tail(rng.uniform(-2.0, 2.0), 0.0),
        outer_tail=Tail(rng.uniform(-2.0, 2.0), 0.0),
    )


def test_criterion_7_structural_lemma_checks():
    """At a constant exponent u the ball means of b move by at most
    p**n * ||b||_CMO per level: the step from B_k to B_(k+1) is at most
    |B_k|**-1 times the integral of |b - mean(b, B_(k+1))| over B_(k+1), and
    Holder with constant 1 and ||chi_B||_u * ||chi_B||_u' = |B| bounds that
    integral by |B_(k+1)| * ||b||_CMO."""
    started = time.perf_counter()
    rng = random.Random(70_707)
    shells = range(-6, 7)
    for _ in range(400):
        ctx = PadicContext(rng.choice((2, 3, 5)), rng.choice((1, 2)))
        b = _random_symbol(rng, ctx)
        u = ExponentFunction.constant(ctx, rng.uniform(1.2, 4.0))
        step = ppow(ctx.p, ctx.n) * cmo_norm(b, u).value
        means = [ball_mean(b, k) for k in shells]
        for l in range(len(shells)):
            for m in range(l, len(shells)):
                assert abs(means[m] - means[l]) <= step * (m - l) * (1 + 1e-9)
    _report(7, "ball means drift by at most p**n * ||b||_CMO per level", started)


def test_criterion_8_theorem_sweeps_and_sharpness_probe():
    started = time.perf_counter()
    symbol = RadialStepFunction.indicator_ball(CTX, 0)
    configs = (
        TheoremConfig("T31", U2, alpha=0.25),
        TheoremConfig("T32", U2, alpha=0.25, symbol=symbol),
        TheoremConfig("T41", U2, alpha=0.25, beta=0.375, lam=0.25),
        TheoremConfig("T42", U2, alpha=0.25, beta=0.375, lam=0.25, symbol=symbol),
    )
    for config in configs:
        assert validate_hypotheses(config).satisfied
        sweep_started = time.perf_counter()
        report = sweep(config, sizes=(5, 10, 20), count=200, seed=8)
        elapsed = time.perf_counter() - sweep_started
        assert elapsed < 300.0
        assert len(report.rows) == 600
        assert report.sup_ratio(20) <= 1.1 * report.sup_ratio(10)
        ratios = [value for _, value in sharpness_probe(config)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
    _report(8, "ratio sweeps stay stable while the endpoint probe grows", started)


def test_criterion_9_sweeps_are_deterministic(tmp_path):
    started = time.perf_counter()
    config = TheoremConfig("T31", U2, alpha=0.25)
    first = sweep(config, sizes=(5, 10), count=50, seed=123)
    second = sweep(config, sizes=(5, 10), count=50, seed=123)
    assert first.to_csv() == second.to_csv()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(first.to_csv(), newline="")
    b.write_text(second.to_csv(), newline="")
    assert a.read_bytes() == b.read_bytes()
    _report(9, "fixed-seed sweeps produce byte-identical tables", started)
