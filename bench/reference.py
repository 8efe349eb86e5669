"""Reference answers for the benchmark, written without the ultraherz package.

Every input the benchmark generates is a plain dictionary (see
``workloads.py``); this module turns those dictionaries into its own small
shell representation and recomputes what the library should return:

* ball integrals and Hardy/commutator images as exact ``Fraction`` shell
  sums (one running prefix sum, not one ball integral per shell);
* Herz sums in closed form, summed in log scale so huge shells stay finite;
* Morrey-Herz suprema by an explicit cutoff scan that stops only when a
  decreasing envelope falls below the best candidate seen;
* Luxemburg norms by its own bisection on ``t = log(lambda)`` over a
  log-sum-exp modular, and exactly (``Fraction`` plus ``math.isqrt``) when
  the exponent is identically 2 and the tail rates are integers;
* central mean oscillation by a direct scan over ball radii.

Nothing here imports ``ultraherz``; the only shared thing is the random
stream of a sweep family, which is input generation, not arithmetic.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

#: Relative tolerance for deterministic answers.
RTOL = 1e-9
#: Absolute floor, as a share of the cancellation scale, for commutator images.
ATOL_SCALE = 1e-12


class Fn:
    """A radial step function: window coefficients plus two power-law tails."""

    __slots__ = ("p", "n", "lo", "hi", "coeffs", "inner", "outer")

    def __init__(self, p, n, lo, hi, coeffs, inner=(0.0, 0.0), outer=(0.0, 0.0)):
        self.p, self.n, self.lo, self.hi = p, n, lo, hi
        self.coeffs = list(coeffs)
        self.inner = (float(inner[0]), float(inner[1]))
        self.outer = (float(outer[0]), float(outer[1]))

    @classmethod
    def from_spec(cls, spec: dict) -> "Fn":
        inner = spec.get("inner_tail", {"A": 0.0, "e": 0.0})
        outer = spec.get("outer_tail", {"A": 0.0, "e": 0.0})
        lo, hi = spec["window"]
        return cls(
            spec["ctx"]["p"], spec["ctx"]["n"], lo, hi,
            [float(c) for c in spec["coeffs"]],
            (float(inner["A"]), float(inner["e"])),
            (float(outer["A"]), float(outer["e"])),
        )

    def value(self, k: int) -> float:
        if k < self.lo:
            a, e = self.inner
        elif k > self.hi:
            a, e = self.outer
        else:
            return self.coeffs[k - self.lo]
        return 0.0 if a == 0.0 else a * power(self.p, k * e)


class Exp:
    """A radial exponent law: window values, one value below, one above."""

    __slots__ = ("lo", "hi", "values", "inner", "inf")

    def __init__(self, lo, hi, values, inner, inf):
        self.lo, self.hi = lo, hi
        self.values = [float(v) for v in values]
        self.inner, self.inf = float(inner), float(inf)

    @classmethod
    def from_spec(cls, spec: dict) -> "Exp":
        lo, hi = spec["window"]
        return cls(lo, hi, spec["values"], spec["u_inner"], spec["u_infinity"])

    def at(self, k: int) -> float:
        if k < self.lo:
            return self.inner
        if k > self.hi:
            return self.inf
        return self.values[k - self.lo]

    def mapped(self, fn) -> "Exp":
        return Exp(self.lo, self.hi, [fn(v) for v in self.values], fn(self.inner), fn(self.inf))

    def is_constant(self, value: float) -> bool:
        return self.inner == self.inf == value and all(v == value for v in self.values)


def power(p: int, x: float) -> float:
    """p**x, exact for integer x (as the library promises for its powers)."""
    if float(x).is_integer():
        return float(Fraction(p) ** int(x))
    return math.pow(p, x)


def sphere(p: int, n: int, k: int) -> Fraction:
    """|S_k| = p**(n k) (1 - p**-n), exactly."""
    return Fraction(p) ** (n * k) * (1 - Fraction(1, p**n))


def log_mass(p: int, n: int) -> float:
    return math.log1p(-(float(p) ** -n))


def logsumexp(xs) -> float:
    xs = list(xs)
    if not xs:
        return -math.inf
    top = max(xs)
    if top == math.inf:
        return math.inf
    return top + math.log(math.fsum(math.exp(x - top) for x in xs))


def close(got: float, want: float, scale: float = 0.0) -> bool:
    """Relative agreement at RTOL, with an absolute floor tied to ``scale``."""
    if math.isinf(want) or math.isinf(got):
        return got == want
    if math.isnan(got) or math.isnan(want):
        return False
    return abs(got - want) <= RTOL * abs(want) + ATOL_SCALE * scale


# ---------------------------------------------------------------------------
# Integrals and operator images


def ball_integral(f: Fn, gamma: int) -> float:
    """Integral of f over B_gamma: closed-form inner tail plus exact shells."""
    p, n = f.p, f.n
    exact = Fraction(0)
    inexact = []
    a, e = f.inner
    top = min(gamma, f.lo - 1)
    if a != 0.0:
        s = e + n
        if s <= 0:
            raise ValueError("inner tail not integrable")
        if float(s).is_integer():
            r = Fraction(p) ** int(s)
            exact += Fraction(a) * (1 - Fraction(1, p**n)) * r**top / (1 - 1 / r)
        else:
            unit = float(1 - Fraction(1, p**n))
            inexact.append(a * unit * math.pow(p, top * s) / (1.0 - math.pow(p, -s)))
    for k in range(f.lo, min(gamma, f.hi) + 1):
        exact += Fraction(f.coeffs[k - f.lo]) * sphere(p, n, k)
    a, e = f.outer
    if a != 0.0:
        for k in range(f.hi + 1, gamma + 1):
            if float(e).is_integer():
                exact += Fraction(a) * Fraction(p) ** (int(e) * k) * sphere(p, n, k)
            else:
                inexact.append(a * math.pow(p, k * e) * float(sphere(p, n, k)))
    return float(exact) + math.fsum(inexact)


def hardy_at(f: Fn, alpha: float, k: int) -> float:
    """(H_alpha f) on the sphere S_k."""
    return power(f.p, k * (alpha - f.n)) * ball_integral(f, k)


def ball_law(f: Fn, gamma: int) -> list[tuple[float, float]]:
    """(probability, value) pairs of f at a point drawn uniformly from B_gamma.

    Each shell is one atom; so is the inner core, which needs a constant
    inner tail (rate 0) to be one.
    """
    p, n = f.p, f.n
    a, e = f.inner
    top = min(gamma, f.lo - 1)
    if a != 0.0 and e != 0.0:
        raise ValueError("inner tail is not constant")
    ball = Fraction(p) ** (n * gamma)
    law = [(float(Fraction(p) ** (n * top) / ball), a)]
    law += [(float(sphere(p, n, k) / ball), f.value(k)) for k in range(top + 1, gamma + 1)]
    return law


def bernstein(law: list[tuple[float, float]], samples: int, delta: float) -> float:
    """Half-width eps with P(|sample mean - mean| >= eps) <= delta.

    Bernstein's inequality for ``samples`` independent draws from ``law``:
    the bound is 2 exp(-N eps^2 / (2 var + 2 M eps / 3)), M the largest
    distance of a value from the mean. Unlike a multiple of a sample
    standard error, it holds when rare atoms carry the spread.
    """
    mean = math.fsum(q * v for q, v in law)
    var = math.fsum(q * (v - mean) ** 2 for q, v in law)
    reach = max(abs(v - mean) for q, v in law if q > 0.0)
    t = math.log(2.0 / delta)
    linear = reach * t / 3.0
    return (linear + math.sqrt(linear * linear + 2.0 * samples * var * t)) / samples


def adjoint_at(f: Fn, alpha: float, k: int) -> float:
    """(H*_alpha f) on S_k: sum over j > k of F(j) |S_j| p**(j (alpha - n))."""
    p, n = f.p, f.n
    unit = float(1 - Fraction(1, p**n))
    terms = []
    top = max(k, f.hi)
    for j in range(k + 1, top + 1):
        terms.append(f.value(j) * unit * power(p, j * alpha))
    a, e = f.outer
    if a != 0.0:
        s = e + alpha
        if s >= 0:
            raise ValueError("adjoint integral diverges")
        terms.append(a * unit * math.pow(p, (top + 1) * s) / (1.0 - math.pow(p, s)))
    return math.fsum(terms)


def clamp_symbol(k: int) -> float:
    """The default commutator symbol b(x) = clamp(log_p|x|, -3, 3)."""
    return float(max(-3, min(3, k)))


def sweep_image(f: Fn, alpha: float, commutator: bool) -> tuple[Fn, Fn | None]:
    """The Hardy (or default-symbol commutator) image of a compact f.

    Returns the image and, for the commutator, a pointwise bound on the two
    terms being subtracted, whose norm scales the rounding the library's
    float subtraction may leave behind.
    """
    p, n = f.p, f.n
    rate = alpha - n
    if not commutator:
        running = Fraction(0)
        coeffs = []
        for k in range(f.lo, f.hi + 1):
            running += Fraction(f.coeffs[k - f.lo]) * sphere(p, n, k)
            coeffs.append(float(running) * power(p, k * rate))
        return Fn(p, n, f.lo, f.hi, coeffs, outer=(float(running), rate)), None
    top = max(f.hi, 3)
    i_f = Fraction(0)
    i_bf = Fraction(0)
    coeffs, bound = [], []
    for k in range(f.lo, top + 1):
        if k <= f.hi:
            c = Fraction(f.coeffs[k - f.lo]) * sphere(p, n, k)
            i_f += c
            i_bf += Fraction(clamp_symbol(k)) * c
        scale = power(p, k * rate)
        coeffs.append(float(clamp_symbol(k) * i_f - i_bf) * scale)
        bound.append((abs(clamp_symbol(k) * float(i_f)) + abs(float(i_bf))) * scale)
    image = Fn(p, n, f.lo, top, coeffs, outer=(float(3 * i_f - i_bf), rate))
    envelope = Fn(p, n, f.lo, top, bound, outer=(3 * abs(float(i_f)) + abs(float(i_bf)), rate))
    return image, envelope


def sweep_family(p: int, size: int, count: int, rng: random.Random) -> list[Fn]:
    """The seeded random family a sweep draws: compact windows inside [-N, N]."""
    family = []
    for _ in range(count):
        a = rng.randint(-size, size)
        b = rng.randint(-size, size)
        lo, hi = min(a, b), max(a, b)
        coeffs = []
        for _ in range(hi - lo + 1):
            magnitude = power(p, rng.uniform(-3.0, 3.0))
            coeffs.append(magnitude if rng.random() < 0.5 else -magnitude)
        family.append(Fn(p, 1, lo, hi, coeffs))
    return family


# ---------------------------------------------------------------------------
# Exponent algebra


def sobolev(u: Exp, alpha: float, n: int) -> Exp:
    return u if alpha == 0 else u.mapped(lambda v: 1.0 / (1.0 / v - alpha / n))


def conjugate(u: Exp) -> Exp:
    return u.mapped(lambda v: v / (v - 1.0))


# ---------------------------------------------------------------------------
# Herz and Morrey-Herz


def log_shell_term(f: Fn, u: Exp, k: int, beta: float) -> float:
    """log of p**(k beta) * ||F(k) chi_{S_k}||, or -inf for a zero shell."""
    c = f.value(k)
    if c == 0.0:
        return -math.inf
    lp = math.log(f.p)
    return k * beta * lp + math.log(abs(c)) + (log_mass(f.p, f.n) + f.n * k * lp) / u.at(k)


def herz(f: Fn, u: Exp, beta: float, m: float) -> float:
    """Herz norm: closed-form geometric tails, summed in log scale."""
    lo, hi = min(f.lo, u.lo), max(f.hi, u.hi)
    lp = math.log(f.p)
    logs = [m * log_shell_term(f, u, k, beta) for k in range(lo, hi + 1)]
    a, e = f.inner
    if a != 0.0:
        s = beta + e + f.n / u.inner
        if s <= 0:
            return math.inf
        head = m * (math.log(abs(a)) + log_mass(f.p, f.n) / u.inner)
        logs.append(head + m * s * (lo - 1) * lp - math.log1p(-math.exp(-m * s * lp)))
    a, e = f.outer
    if a != 0.0:
        s = beta + e + f.n / u.inf
        if s >= 0:
            return math.inf
        head = m * (math.log(abs(a)) + log_mass(f.p, f.n) / u.inf)
        logs.append(head + m * s * (hi + 1) * lp - math.log1p(-math.exp(m * s * lp)))
    total = logsumexp(x for x in logs if x != -math.inf)
    return 0.0 if total == -math.inf else math.exp(total / m)


def morrey(f: Fn, u: Exp, beta: float, m: float, lam: float) -> float:
    """Morrey-Herz norm (cutoff prefactor base p) by an explicit scan over the cutoff k0.

    Supports functions without an inner tail. Past the windows each added
    term is C * rho**k0, and the candidates beyond the scan are bounded by a
    decreasing envelope; the scan stops once that envelope is below the best
    candidate seen.
    """
    if f.inner[0] != 0.0:
        raise ValueError("reference Morrey-Herz needs a vanishing inner tail")
    base = float(f.p)
    lo, hi = min(f.lo, u.lo), max(f.hi, u.hi)

    def pre(k0: int) -> float:
        return math.exp(-k0 * lam * m * math.log(base))

    partial = 0.0
    best = 0.0
    for k0 in range(lo, hi + 1):
        t = log_shell_term(f, u, k0, beta)
        if t != -math.inf:
            partial += math.exp(m * t)
        best = max(best, pre(k0) * partial)
    a, e = f.outer
    if a != 0.0:
        s = beta + e + f.n / u.inf
        lp = math.log(f.p)
        if s * lp - lam * math.log(base) >= 0:
            return math.inf
        rho = math.exp(m * s * lp)
        if abs(rho - 1.0) < 1e-9:
            raise ValueError("reference Morrey-Herz does not cover balanced tails")
        coef = math.exp(m * (math.log(abs(a)) + log_mass(f.p, f.n) / u.inf))
        q = rho * pre(1)
        k0 = hi
        while True:
            nxt = k0 + 1
            if rho < 1.0:
                envelope = pre(nxt) * (partial + coef * rho**nxt / (1.0 - rho))
            else:
                envelope = pre(nxt) * partial + coef * rho / (rho - 1.0) * q**nxt
            if envelope <= best or k0 - hi > 100_000:
                break
            k0 = nxt
            partial += coef * rho**k0
            best = max(best, pre(k0) * partial)
    return best ** (1.0 / m) if best > 0.0 else 0.0


# ---------------------------------------------------------------------------
# Luxemburg-type norms


def solve_unit(terms: list[tuple[float, float]]) -> float:
    """lambda with sum_i exp(log_w_i) * lambda**(-e_i) = 1, by bisection in log lambda.

    ``terms`` holds (log_w, e) pairs with e >= 1. The sum is decreasing in
    t = log(lambda); t = max(log_w / e) makes one term equal 1 and
    t = max((log_w + log N) / e) makes every term at most 1/N, so the root
    lies between them.
    """
    terms = [(w, e) for w, e in terms if w != -math.inf]
    if not terms:
        return 0.0
    log_count = math.log(len(terms))
    lo = max(w / e for w, e in terms)
    hi = max((w + log_count) / e for w, e in terms)
    for _ in range(200):
        if hi - lo <= 1e-15 * max(1.0, abs(lo)):
            break
        mid = 0.5 * (lo + hi)
        if logsumexp(w - e * mid for w, e in terms) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def modular_terms(f: Fn, u: Exp) -> list[tuple[float, float]]:
    """(log weight, exponent) pairs of the modular rho(f / lambda).

    Raises ValueError when a tail series diverges.
    """
    p, n = f.p, f.n
    lp = math.log(p)
    lm = log_mass(p, n)
    lo, hi = min(f.lo, u.lo), max(f.hi, u.hi)
    terms = []
    for k in range(lo, hi + 1):
        c = f.value(k)
        if c != 0.0:
            e = u.at(k)
            terms.append((e * math.log(abs(c)) + lm + n * k * lp, e))
    a, e = f.inner
    if a != 0.0:
        s = e * u.inner + n
        if s <= 0:
            raise ValueError("modular diverges at the origin")
        terms.append((u.inner * math.log(abs(a)) + lm + s * (lo - 1) * lp
                      - math.log1p(-math.exp(-s * lp)), u.inner))
    a, e = f.outer
    if a != 0.0:
        s = e * u.inf + n
        if s >= 0:
            raise ValueError("modular diverges at infinity")
        terms.append((u.inf * math.log(abs(a)) + lm + s * (hi + 1) * lp
                      - math.log1p(-math.exp(s * lp)), u.inf))
    return terms


def modular(f: Fn, u: Exp) -> float:
    return math.exp(logsumexp(w for w, _ in modular_terms(f, u)))


def luxemburg(f: Fn, u: Exp) -> float:
    """Luxemburg norm; exact when u is identically 2 with integer tail rates."""
    if u.is_constant(2.0) and float(f.inner[1]).is_integer() and float(f.outer[1]).is_integer():
        return _luxemburg_two(f)
    return solve_unit(modular_terms(f, u))


def _luxemburg_two(f: Fn) -> float:
    """sqrt(sum_k F(k)**2 |S_k|) in exact rationals, rounded once."""
    p, n = f.p, f.n
    unit = 1 - Fraction(1, p**n)
    total = Fraction(0)
    for k in range(f.lo, f.hi + 1):
        total += Fraction(f.coeffs[k - f.lo]) ** 2 * sphere(p, n, k)
    a, e = f.inner
    if a != 0.0:
        r = Fraction(p) ** (2 * int(e) + n)
        if r <= 1:
            raise ValueError("modular diverges at the origin")
        total += Fraction(a) ** 2 * unit * r ** (f.lo - 1) / (1 - 1 / r)
    a, e = f.outer
    if a != 0.0:
        r = Fraction(p) ** (2 * int(e) + n)
        if r >= 1:
            raise ValueError("modular diverges at infinity")
        total += Fraction(a) ** 2 * unit * r ** (f.hi + 1) / (1 - r)
    return exact_sqrt(total)


def exact_sqrt(x: Fraction) -> float:
    """sqrt of a nonnegative rational, correctly rounded to within an ulp."""
    product = x.numerator * x.denominator
    shift = max(0, 64 - product.bit_length() // 2)
    return float(Fraction(math.isqrt(product << (2 * shift)), x.denominator << shift))


def ball_indicator(u: Exp, gamma: int, p: int, n: int) -> float:
    """||chi(B_gamma)|| in L^u: explicit shells above the deep ball."""
    lp = math.log(p)
    lm = log_mass(p, n)
    deep = min(gamma, u.lo - 1)
    terms = [(n * deep * lp, u.inner)]
    for k in range(u.lo, gamma + 1):
        terms.append((lm + n * k * lp, u.at(k)))
    return solve_unit(terms)


def _ball_mean(b: Fn, gamma: int) -> float:
    """Mean of a symbol with constant tails over B_gamma, exactly."""
    p, n = b.p, b.n
    deep = min(gamma, b.lo - 1)
    total = Fraction(b.inner[0]) * Fraction(p) ** (n * deep)
    for k in range(b.lo, gamma + 1):
        total += Fraction(b.value(k)) * sphere(p, n, k)
    return float(total / Fraction(p) ** (n * gamma))


def _oscillation(b: Fn, u: Exp, shift: float, gamma: int) -> float:
    """||(b - shift) chi(B_gamma)|| in L^u for a symbol with constant tails."""
    p, n = b.p, b.n
    lp = math.log(p)
    lm = log_mass(p, n)
    lo = min(b.lo, u.lo)
    terms = []
    deep = min(gamma, lo - 1)
    g = abs(b.inner[0] - shift)
    if g != 0.0:
        terms.append((u.inner * math.log(g) + n * deep * lp, u.inner))
    for k in range(lo, gamma + 1):
        g = abs(b.value(k) - shift)
        if g != 0.0:
            terms.append((u.at(k) * math.log(g) + lm + n * k * lp, u.at(k)))
    return solve_unit(terms)


def cmo(b: Fn, u: Exp) -> float:
    """sup over gamma of ||(b - mean_gamma) chi(B_gamma)|| / ||chi(B_gamma)||.

    For a symbol with constant tails every ball below the window sees a
    constant, so the scan starts at the window. Above all windows the
    candidate is at most N0 / ||chi(B_gamma)|| + |L - mean_gamma| (L the
    value at infinity, N0 the oscillation of b - L on the top ball), which
    decreases in gamma; the scan stops once it is below the best candidate.
    """
    if b.inner[1] != 0.0 or b.outer[1] != 0.0:
        raise ValueError("reference CMO covers symbols with constant tails")
    p, n = b.p, b.n
    top = max(b.hi, u.hi)
    limit = b.outer[0]
    n0 = _oscillation(b, u, limit, top)
    best = 0.0
    gamma = b.lo
    while True:
        if gamma > top:
            bound = n0 / ball_indicator(u, gamma, p, n) + abs(limit - _ball_mean(b, gamma))
            if bound <= best or gamma > top + 10_000:
                return best
        numerator = _oscillation(b, u, _ball_mean(b, gamma), gamma)
        best = max(best, numerator / ball_indicator(u, gamma, p, n))
        gamma += 1
