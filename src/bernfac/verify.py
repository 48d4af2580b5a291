"""Exact big-integer and rational oracles confronting the asymptotic formulas.

Two kinds of checks live here. Identity checks build both sides of an exact
identity out of big integers or rationals and compare them for exact equality,
never through floating point. Ratio checks compute the log of an exact finite
product, subtract the log of the matching asymptotic formula with its
constant, and require the absolute gap to shrink along an increasing n-grid.

The ratio targets are one table, _RATIO_TARGETS, from each name to a builder
and its arguments. A builder computes its target's constants and returns
diff(n), the exact log minus the formula, as a BoundedReal at the caller's
precision. One gap loop, _gap_pairs, turns the differences into float gaps
and the verdict, for ratio_suite and milnor_equivalence_check alike.

Precision is set in one place per check: each public check enters
ctx.workprec() at its entry (ratio_suite once per target), and every helper
computes at that precision. The memoized constants and main terms it calls
set their own.

The suites are deliberately independent of the series machinery they test:
product logs are BoundedReal.exact(v).log() balls of exact integers and
rationals, not Stirling-type expansions nor the main terms' integer logs,
summed by special._linear_in_logs. The factorial products prod (kv)!^(v^r)
are not built at all: their log is sum_p e_p log p, with the prime
exponents e_p from Legendre's formula, exact by unique factorization. The
weighted factorial split is decided the same way, by the prime-exponent
vectors of its two sides alone.
"""

import itertools
import math
from fractions import Fraction
from operator import add, sub
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .asymptotic import milnor_f_log, milnor_g_log, p_rk_log, q_r_log, s_r
from .constants import (
    b_family,
    c_constant,
    f_k_log_closed,
    f_rk_series,
    gamma_product_constants,
    log_glaisher_a,
    m_matrix,
    m_tilde_matrix,
)
from .precision import BoundedReal, PrecisionContext, _from_units, make_context
from .special import (
    _linear_in_logs, _plan, _sum_units, bernoulli,
    log_gamma_rational, log_two_pi, partition_counts,
)

# _check_oracle_cap refuses factorial products projected above this many bits
ORACLE_BIT_CAP = 1 << 26
ETA_PRIME_BOUND_CAP = 10 ** 6  # eta_identity_check's largest P, about 0.4 s

DEFAULT_RATIO_GRID = (25, 50, 100)
DEFAULT_MILNOR_GRID = (10, 100, 1000)


class VerificationFailure(Exception):
    """An exact identity check failed; carries the offending report."""

    def __init__(self, report):
        super().__init__(report.line())
        self.report = report


# -- report types -------------------------------------------------------------

def _params_compact(params: dict) -> str:
    return ",".join(f"{key}={value}" for key, value in params.items())


def _params_record(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


class IdentityReport(NamedTuple):
    """One exact or interval-certified identity check."""

    name: str
    params: dict
    lhs: object
    rhs: object
    status: str  # "exact-equal" | "within-bounds" | "FAIL"
    gap: float = 0.0

    def line(self) -> str:
        inner = _params_compact(self.params)
        return f"{self.name}[{inner}] {self.status} gap={self.gap:.3e}"

    def record(self) -> dict:
        return {
            "name": self.name,
            "params": _params_record(self.params),
            "status": self.status,
            "gap": self.gap,
        }


class _RatioFields(NamedTuple):
    name: str
    gaps: tuple  # ((n, float gap), ...) sorted by n
    monotone_tail: bool
    offending: tuple = ()


class RatioReport(_RatioFields):
    """Log-gap of exact product vs asymptotic formula along an n-grid."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        ns = [n for n, _ in report.gaps]
        if ns != sorted(ns):
            raise ValueError("gap entries must be sorted by n")
        return report

    @property
    def status(self) -> str:
        return "decreasing" if self.monotone_tail else "FAIL"

    def line(self) -> str:
        pairs = ",".join(f"{n}:{g:.3e}" for n, g in self.gaps)
        tail = "" if self.monotone_tail else f" offending={self.offending}"
        return f"{self.name} gaps={pairs} {self.status}{tail}"

    def record(self) -> dict:
        return {
            "name": self.name,
            "gaps": [[n, g] for n, g in self.gaps],
            "monotone_tail": self.monotone_tail,
            "status": self.status,
        }


def report_lines(reports: Iterable) -> List[str]:
    return [report.line() for report in reports]


def report_records(reports: Iterable) -> List[dict]:
    return [report.record() for report in reports]


# -- exact oracles ------------------------------------------------------------

def _check_oracle_cap(k: int, n: int, r: int) -> None:
    """Refuse (OverflowError) a product prod_{v<=n} (kv)!^(v^r) projected
    to exceed ORACLE_BIT_CAP bits, although it is only ever logged."""
    if k < 1 or n < 0 or r < 0:
        raise ValueError("need k >= 1, n >= 0, r >= 0")
    projected = sum(
        v ** r * math.lgamma(k * v + 1) for v in range(1, n + 1)
    ) / math.log(2)
    if projected > ORACLE_BIT_CAP:
        raise OverflowError(
            f"projected {projected:.3e} bits exceeds cap {ORACLE_BIT_CAP}"
        )


def _factorial_product_exponents(k: int, n: int, r: int) -> List[tuple]:
    """[(p, e_p)] over the primes p <= kn with prod_{v<=n} (kv)!^(v^r) =
    prod p^(e_p): e_p = sum_v v^r nu_p((kv)!), by Legendre's formula.

    Exact by unique factorization, and never builds the product. Refuses
    (OverflowError) a product projected to exceed ORACLE_BIT_CAP bits.
    """
    _check_oracle_cap(k, n, r)
    weights = [v ** r for v in range(1, n + 1)]
    return [
        (p, sum(w * _legendre(k * v, p) for v, w in enumerate(weights, 1)))
        for p in primes_up_to(k * n)
    ]


def _exponents_log(exponents, logs: dict, ctx: PrecisionContext) -> BoundedReal:
    """sum e_p log p over [(p, e_p)] at ctx; logs keeps each log p once made."""
    terms = []
    for p, e in exponents:
        log_p = logs.get(p)
        if log_p is None:
            log_p = logs[p] = BoundedReal.exact(p).log()
        terms.append((e, log_p))
    return _linear_in_logs(ctx, 0, *terms)


def exact_bernoulli_product(n: int, mode: str = "plain") -> Fraction:
    """Exact prod_{v=1..n} |B_{2v}| / divisor with divisor 1, 2v, or 4v."""
    divisors = {"plain": 0, "over_2nu": 2, "over_4nu": 4}
    if mode not in divisors:
        raise ValueError(f"unknown mode {mode!r}")
    scale = divisors[mode]
    acc = Fraction(1)
    for v in range(1, n + 1):
        term = abs(bernoulli(2 * v))
        if scale:
            term /= scale * v
        acc *= term
    return acc


# -- identity suite -----------------------------------------------------------

def _expect_equal(reports, name, params, lhs, rhs):
    if lhs == rhs:
        reports.append(IdentityReport(name, params, lhs, rhs, "exact-equal"))
    else:
        report = IdentityReport(name, params, lhs, rhs, "FAIL", gap=float("inf"))
        reports.append(report)
        raise VerificationFailure(report)


def _expect_within(reports, name, params, value: BoundedReal, target: Fraction):
    mid_minus = value - BoundedReal.exact(target)
    gap = abs(float(mid_minus.value)) / max(1.0, abs(float(target)))
    if value.contains(target):
        reports.append(
            IdentityReport(name, params, target, value, "within-bounds", gap)
        )
    else:
        report = IdentityReport(name, params, target, value, "FAIL", gap)
        reports.append(report)
        raise VerificationFailure(report)


def _factorial_power_split(reports, max_n):
    """n!^(n+1) == prod v! * prod v^v, checked for every n <= max_n."""
    fact = 1
    prod_fact = 1
    prod_pow = 1
    for n in range(1, max_n + 1):
        fact *= n
        prod_fact *= fact
        prod_pow *= n ** n
        lhs = pow(fact, n + 1)
        rhs = prod_fact * prod_pow
        _expect_equal(reports, "factorial-power-split", {"n": n}, lhs, rhs)


def _shifted_factorial_identities(reports, max_k, max_n):
    """Merge and telescope identities for shifted factorial products.

    F_{k,l}(n) = prod_{v<=n} (kv-l)! satisfies
    F_{k,0}(n) ... F_{k,k-1}(n) = prod_{v<=kn} v!   and
    F_{k,l}(n) = F_{k,l+1}(n) * prod_{v<=n} (kv-l) for 0 <= l < k-1.
    """
    limit = max_k * max_n
    fact_table = [1] * (limit + 1)
    for m in range(1, limit + 1):
        fact_table[m] = fact_table[m - 1] * m
    superfact = [1] * (limit + 1)
    for m in range(1, limit + 1):
        superfact[m] = superfact[m - 1] * fact_table[m]

    for k in range(1, max_k + 1):
        f_kl = [1] * k
        poch = [1] * k
        for n in range(1, max_n + 1):
            for l in range(k):
                f_kl[l] *= fact_table[k * n - l]
                poch[l] *= k * n - l
            merged = 1
            for value in f_kl:
                merged *= value
            _expect_equal(
                reports,
                "shifted-factorial-merge",
                {"k": k, "n": n},
                merged,
                superfact[k * n],
            )
            for l in range(k - 1):
                _expect_equal(
                    reports,
                    "shifted-factorial-telescope",
                    {"k": k, "l": l, "n": n},
                    f_kl[l],
                    f_kl[l + 1] * poch[l],
                )


def _legendre(n: int, p: int) -> int:
    """Exponent of the prime p in n!, by Legendre's formula."""
    e = 0
    while n:
        n //= p
        e += n
    return e


def _valuation(v: int, p: int) -> int:
    """Exponent of the prime p in v > 0."""
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    return e


def _weighted_split_exponents(r: int, n: int, primes: Sequence[int]):
    """Prime-exponent vectors of both sides of the weighted split at (r, n).

    Over the primes p <= n, the left side has exponents
    S_r(n) nu_p(n!) + sum_v v^r nu_p(v) and the right side
    sum_v v^r nu_p(v!) + sum_v S_r(v) nu_p(v), with nu_p(v!) from Legendre's
    formula and nu_p(v) by trial division.
    """
    pow_e = [0] * len(primes)
    fact_e = [0] * len(primes)
    s_e = [0] * len(primes)
    s_run = 0
    for v in range(1, n + 1):
        weight = v ** r
        s_run += weight
        for i, p in enumerate(primes):
            nu = _valuation(v, p)
            pow_e[i] += weight * nu
            fact_e[i] += weight * _legendre(v, p)
            s_e[i] += s_run * nu
    assert s_run == s_r(r, n)
    lhs = tuple(s_run * _legendre(n, p) + e for p, e in zip(primes, pow_e))
    rhs = tuple(f + e for f, e in zip(fact_e, s_e))
    return lhs, rhs


def _weighted_factorial_split(reports, max_r, max_n):
    """n!^(S_r(n)) * prod v^(v^r) == prod v!^(v^r) * prod v^(S_r(v)).

    Both sides are compared as prime-exponent vectors, which is exact by
    unique factorization and never builds the products. Each report's
    sides are the two exponent vectors over the primes p <= n.
    """
    for r in range(0, max_r + 1):
        for n in range(1, max_n + 1):
            lhs, rhs = _weighted_split_exponents(r, n, primes_up_to(n))
            _expect_equal(
                reports, "weighted-factorial-split", {"r": r, "n": n}, lhs, rhs
            )


def _rising_product_gamma(reports, max_n, ctx):
    """prod_{v<=n} (v - a) == Gamma(n+1-a) / Gamma(1-a), within bounds."""
    alphas = (
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 4),
        Fraction(1, 5),
    )
    for alpha in alphas:
        base = log_gamma_rational(1 - alpha, ctx)
        product = Fraction(1)
        for n in range(1, max_n + 1):
            product *= n - alpha
            rhs = (log_gamma_rational(n + 1 - alpha, ctx) - base).exp()
            _expect_within(
                reports,
                "rising-product-gamma",
                {"alpha": str(alpha), "n": n},
                rhs,
                product,
            )


def _telescope_matrix_inverse(reports, max_k):
    """M_k times its explicit inverse candidate equals k * identity."""
    for k in range(2, max_k + 1):
        mt = m_tilde_matrix(k)
        product = []
        for row in m_matrix(k):  # bidiagonal plus one full row: O(k^2) in all
            acc = [0] * k
            # every nonzero entry of M_k is 1 or -1: add or subtract the row
            for x, mt_row in itertools.compress(zip(row, mt), row):
                acc = list(map(add if x == 1 else sub, acc, mt_row))
            product.append(acc)
        expected = [[k if i == j else 0 for j in range(k)] for i in range(k)]
        _expect_equal(
            reports, "telescope-matrix-inverse", {"k": k}, product, expected
        )


def _even_lattice_mass(reports):
    """Mass of even unimodular lattices in dimension 8, exactly."""
    mass = abs(bernoulli(4)) / 8 * exact_bernoulli_product(3, "over_4nu")
    _expect_equal(
        reports,
        "even-lattice-mass-at-8",
        {"dimension": 8},
        mass,
        Fraction(1, 696729600),
    )


def identity_suite(
    ctx: Optional[PrecisionContext] = None,
) -> List[IdentityReport]:
    """Run every exact identity check; any failure raises VerificationFailure.

    The rising-product-gamma bounds are computed at ctx, 20 digits by default.
    """
    reports: List[IdentityReport] = []
    ctx = ctx or make_context(20)
    with ctx.workprec():
        _factorial_power_split(reports, 30)
        _shifted_factorial_identities(reports, 5, 20)
        _weighted_factorial_split(reports, 4, 15)
        _rising_product_gamma(reports, 50, ctx)
        _telescope_matrix_inverse(reports, 50)
        _even_lattice_mass(reports)
    return reports


# -- ratio suite --------------------------------------------------------------

def _checked_grid(grid) -> tuple:
    """grid as a tuple, refused unless strictly increasing with two points."""
    grid = tuple(grid)
    if list(grid) != sorted(set(grid)):
        raise ValueError("n_grid must be strictly increasing")
    if len(grid) < 2:
        raise ValueError(f"a gap trend needs two grid points, got {grid}")
    return grid


def _gap_pairs(grid, diff) -> Tuple[tuple, bool, tuple]:
    """(gaps, monotone, offending) of the gaps |diff(n)| along grid."""
    gaps = tuple((n, abs(float(diff(n).value))) for n in grid)
    for (n1, g1), (n2, g2) in zip(gaps, gaps[1:]):
        if not g2 < g1:
            return gaps, False, (n1, n2)
    return gaps, True, ()


def _progression_diff(r, k, ctx):
    """prod (kv)!^(v^r) against its asymptotic formula.

    The constant is F_(r,k) from its series, except at r = 0, where
    F_(0,k) = F_k has a closed form (and 1/2 log A_0 = 1/4 log 2 pi).
    """
    if r == 0:
        log_f = f_k_log_closed(k, ctx)
    else:
        log_f = f_rk_series(r, k, ctx).value.log()
    log_c = log_f + Fraction(1, 2) * log_glaisher_a(r, ctx)
    log_c = log_c + k * log_glaisher_a(r + 1, ctx)
    logs = {}

    def diff(n: int) -> BoundedReal:
        lhs = _exponents_log(_factorial_product_exponents(k, n, r), logs, ctx)
        rhs = log_c + p_rk_log(r, k, n, ctx)
        rhs = rhs + Fraction(1, 2) * q_r_log(r, n, ctx)
        rhs = rhs + k * q_r_log(r + 1, n, ctx)
        return lhs - rhs

    return diff


def _bernoulli_diff(which: str, ctx):
    """prod |B_2v| ("abs"), prod |B_2v|/(2v) ("over-2nu") or the mass of the
    even unimodular lattices of dimension n, 4 | n ("lattice"), against
    their asymptotic formulas."""
    family = {report.name: report.value for report in b_family(ctx)}
    log_b = family[{"abs": "B1", "over-2nu": "B2", "lattice": "B3"}[which]].log()
    log_2 = BoundedReal.exact(2).log()
    log_pi = log_two_pi(ctx) - log_2

    def diff(n: int) -> BoundedReal:
        log_n = BoundedReal.exact(n).log()
        core = log_n - log_pi - Fraction(3, 2)
        if which == "abs":
            lhs = exact_bernoulli_product(n, "plain")
            rhs = log_b + (n * (n + 1)) * core
            rhs = rhs + Fraction(n, 2) * (4 * log_2 + log_pi + log_n)
            rhs = rhs + Fraction(11, 24) * log_n
        else:
            if which == "over-2nu":
                lhs, sign = exact_bernoulli_product(n, "over_2nu"), 1
            elif n % 4:
                raise ValueError("lattice mass needs 4 | n")
            else:
                mass = exact_bernoulli_product(n - 1, "over_4nu")
                lhs, sign = abs(bernoulli(n)) / (2 * n) * mass, -1
            rhs = log_b + (n * n) * core
            rhs = rhs + Fraction(sign * n, 2) * (2 * log_2 + log_n - log_pi - 1)
            rhs = rhs - Fraction(1, 24) * log_n
        return BoundedReal.exact(lhs).log() - rhs

    return diff


def _power_tower_diff(r, ctx):
    """prod v^(v^r) against the generalized Glaisher asymptotic."""
    log_ar = log_glaisher_a(r, ctx)
    logs = {}

    def diff(n: int) -> BoundedReal:
        lhs = _exponents_log(((v, v ** r) for v in range(2, n + 1)), logs, ctx)
        return lhs - (log_ar + q_r_log(r, n, ctx))

    return diff


def _gamma_ratio_diff(ctx):
    """prod Gamma(v/n)^v against its closed-constant asymptotic."""
    log_g1, log_g2 = (value.log() for value in gamma_product_constants(ctx))

    def diff(n: int) -> BoundedReal:
        terms = [(v, log_gamma_rational(Fraction(v, n), ctx)) for v in range(1, n)]
        lhs = _linear_in_logs(ctx, 0, *terms)
        log_n = BoundedReal.exact(n).log()
        return lhs - (log_g1 + (n * n) * log_g2 - Fraction(1, 12) * log_n)

    return diff


# name -> (builder, its arguments before ctx)
_RATIO_TARGETS = {
    "factorial-progression-k1": (_progression_diff, 0, 1),
    "factorial-progression-k2": (_progression_diff, 0, 2),
    "factorial-progression-k3": (_progression_diff, 0, 3),
    "bernoulli-product-abs": (_bernoulli_diff, "abs"),
    "bernoulli-product-over-2nu": (_bernoulli_diff, "over-2nu"),
    "lattice-mass": (_bernoulli_diff, "lattice"),
    "power-tower-r1": (_power_tower_diff, 1),
    "power-tower-r2": (_power_tower_diff, 2),
    "power-tower-r3": (_power_tower_diff, 3),
    "weighted-progression-r1-k2": (_progression_diff, 1, 2),
    "gamma-ratio-product": (_gamma_ratio_diff,),
}


def _multiple_of_four_grid(grid) -> tuple:
    """grid rounded down to multiples of 4, without repeats or values below 4."""
    return tuple(dict.fromkeys(n - n % 4 for n in grid if n >= 4))


def ratio_suite(
    targets: Optional[Sequence[str]] = None,
    n_grid: Optional[Sequence[int]] = None,
    ctx: Optional[PrecisionContext] = None,
) -> List[RatioReport]:
    """Log-gap decrease checks for every asymptotic product formula."""
    ctx = ctx or make_context(20)
    grid = _checked_grid(n_grid or DEFAULT_RATIO_GRID)
    reports = []
    for name in _RATIO_TARGETS if targets is None else targets:
        if name not in _RATIO_TARGETS:
            raise ValueError(f"unknown ratio target {name!r}")
        build, *args = _RATIO_TARGETS[name]
        used = grid
        if name == "lattice-mass":
            used = _checked_grid(_multiple_of_four_grid(grid))
        with ctx.workprec():
            gaps = _gap_pairs(used, build(*args, ctx))
        reports.append(RatioReport(name, *gaps))
    return reports


# -- eta product, abelian average, Milnor equivalence -------------------------

def primes_up_to(limit: int) -> List[int]:
    """All primes <= limit by a plain sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return list(itertools.compress(range(limit + 1), sieve))


def _euler_factor_terms(p2: int, one: int):
    """_sum_units source for the pentagonal series in q = 1/p2, after its 1.

    Term e is (-1)^k floor(one / p2^e) for e = k(3k -+ 1)/2, each floor
    taken from the last one and low by under a unit. With q <= 1/4 the
    terms from q^e on sum below (4/3) q^e, so 2 (floor + 1) bounds them.
    """
    t, at = one, 0
    for k in itertools.count(1):
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            t //= p2 ** (e - at)
            at = e
            yield e, -t if k % 2 else t, 1, 2 * t + 2


def _eta_prime_product(primes: Sequence[int], ctx: PrecisionContext) -> BoundedReal:
    """prod_{p in primes} p^(1/12) eta(i log p / pi), enclosed in integers.

    With q = e^(-2 log p) = p^-2, each factor is exactly the Euler factor
    prod_v (1 - q^v), summed as Euler's pentagonal series in the exact q
    to 2^-g in units of 2^-P. No log, exp or pi enters. The product keeps
    P + 1 bits and a binary exponent. At 20 digits the primes to 10^4 take
    about 4 ms and those to 10^6 about 0.25 s (2-core VM, CPython 3.11).
    A p below 2 (t = log p / pi <= 0, or q >= 1) raises ValueError.
    """
    g, P, _, _, _ = _plan(ctx)
    one, goal = 1 << P, 1 << (P - g)
    acc, acc_err, acc_exp = 1, 0, 0  # acc of 2^-acc_exp
    for p in primes:
        if p < 2:
            raise ValueError(f"need p >= 2 so that q = 1/p^2 <= 1/4, got {p}")
        s, se, _ = _sum_units(_euler_factor_terms(p * p, one), goal)
        s += one
        acc, acc_err = acc * s, acc * se + s * acc_err + acc_err * se
        shift = max(0, acc.bit_length() - P - 1)
        acc, acc_err = acc >> shift, -(-acc_err >> shift) + 1
        acc_exp += P - shift
    return _from_units(acc, acc_err, acc_exp)


def eta_identity_check(prime_bound: int, ctx: PrecisionContext) -> IdentityReport:
    """Compare prod_{p<=P} p^(1/12) eta(i log p / pi) with 1/C2.

    Each factor equals prod_v (1 - p^(-2v)) < 1, so the truncated product
    exceeds the limit. The omitted log-mass over primes p > P (all odd) is
    majorized by the sum over odd integers m > P of m^(-2) + 2 m^(-4), which
    is below 1/(2(P-1)) + (4/3)(P-1)^(-3); this is folded into the tolerance.
    _eta_prime_product builds the product from exact integers alone, so it
    shares no code with C2's route. P is at most ETA_PRIME_BOUND_CAP.
    """
    if prime_bound < 3:
        raise ValueError("need prime_bound >= 3")
    if prime_bound > ETA_PRIME_BOUND_CAP:
        raise ValueError(f"need prime_bound <= {ETA_PRIME_BOUND_CAP}")
    primes = primes_up_to(prime_bound)
    acc = _eta_prime_product(primes, ctx)
    with ctx.workprec():
        target = BoundedReal.exact(1) / c_constant(2, ctx).value
        diff = acc - target
        gap = abs(float(diff.value))
        tail_log = 1.0 / (2 * (prime_bound - 1)) + (4.0 / 3.0) / (
            prime_bound - 1
        ) ** 3
        tolerance = (
            float(target.abs_upper()) * math.expm1(tail_log)
            + float(diff.abs_err)
        )
    status = "within-bounds" if gap <= tolerance else "FAIL"
    return IdentityReport(
        "prime-eta-product",
        {
            "prime_bound": prime_bound,
            "primes_used": len(primes),
            "tolerance": tolerance,
        },
        float(acc.value),
        float(target.value),
        status,
        gap,
    )


def _abelian_count_sums(limit: int) -> dict:
    """Running sums of a(n) at each power-of-ten checkpoint up to limit.

    a(n) is multiplicative with a(p^e) = p(e), the partition count of e.
    So a = 1 * h, a Dirichlet convolution with h multiplicative and
    h(p^e) = p(e) - p(e-1). As h(p) = 0, h lives on powerful numbers, and
    sum_{n <= x} a(n) = sum of h(m) floor(x/m) over powerful m <= x: about
    2.2 sqrt(x) terms.
    """
    # no exponent exceeds log2(limit): one lookup table of p(e)
    parts = partition_counts(limit.bit_length() - 1)
    primes = primes_up_to(math.isqrt(limit))
    terms = []  # (m, h(m)) for every powerful m <= limit
    stack = [(1, 1, 0)]  # m, h(m), index of the least prime m may gain
    while stack:
        m, h, i = stack.pop()
        terms.append((m, h))
        for j in range(i, len(primes)):
            p = primes[j]
            power, e = m * p * p, 2
            if power > limit:
                break
            while power <= limit:
                stack.append((power, h * (parts[e] - parts[e - 1]), j + 1))
                power, e = power * p, e + 1
    marks, mark = [], 10
    while mark < limit:
        marks.append(mark)
        mark *= 10
    return {
        x: sum(h * (x // m) for m, h in terms if m <= x) for x in marks + [limit]
    }


def abelian_average_check(N: int, ctx: PrecisionContext) -> IdentityReport:
    """Compare the mean of the abelian-group counts a(n), n <= N, with C1."""
    if N < 1:
        raise ValueError("need N >= 1")
    sums = _abelian_count_sums(N)
    mean = Fraction(sums[N], N)
    with ctx.workprec():
        target = c_constant(1, ctx).value
        diff = BoundedReal.exact(mean) - target
        gap = abs(float(diff.value))
    # second-order coefficient of the summatory function is about -14.65,
    # so a safe O(N^(-1/2)) tolerance uses 16 / sqrt(N)
    tolerance = 16.0 / math.sqrt(N)
    status = "within-bounds" if gap <= tolerance else "FAIL"
    means = {
        str(point): float(Fraction(total, point))
        for point, total in sorted(sums.items())
    }
    return IdentityReport(
        "abelian-count-average",
        {"N": N, "tolerance": tolerance, "checkpoint_means": means},
        float(mean),
        float(target.value),
        status,
        gap,
    )


def milnor_equivalence_check(
    n_grid: Optional[Sequence[int]] = None,
    ctx: Optional[PrecisionContext] = None,
) -> RatioReport:
    """Check 2 B' F(2n+1) / (B2 G(n)) -> 1 along the grid."""
    ctx = ctx or make_context(20)
    grid = _checked_grid(n_grid or DEFAULT_MILNOR_GRID)
    with ctx.workprec():
        family = {report.name: report.value for report in b_family(ctx)}
        log_b2 = family["B2"].log()
        log_bp = family["Bprime"].log()
        log_2 = BoundedReal.exact(2).log()

        def diff(n: int) -> BoundedReal:
            lhs = log_2 + log_bp + milnor_f_log(2 * n + 1, ctx)
            return lhs - (log_b2 + milnor_g_log(n, ctx))

        gaps = _gap_pairs(grid, diff)
    return RatioReport("milnor-equivalence", *gaps)
