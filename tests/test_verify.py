"""Tests for the exact oracles and the verification suites.

The oracles themselves are validated against tiny brute-force products
before the suites that rely on them are exercised.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from bernfac import precision, special, verify
from bernfac.constants import c_constant, clear_cache, m_tilde_matrix
from bernfac.precision import (
    BoundedReal,
    PrecisionContext,
    PrecisionError,
    make_context,
    mpf_to_fraction,
)
from bernfac.special import partition_counts
from bernfac.verify import (
    IdentityReport,
    RatioReport,
    VerificationFailure,
    _abelian_count_sums,
    _multiple_of_four_grid,
    abelian_average_check,
    eta_identity_check,
    exact_bernoulli_product,
    identity_suite,
    milnor_equivalence_check,
    primes_up_to,
    ratio_suite,
    report_lines,
    report_records,
)
from references import exact_factorial_product

CTX = make_context(20)


# -- exact oracles ---------------------------------------------------------------

def test_exact_factorial_product_examples():
    assert exact_factorial_product(1, 3, 0) == 1 * 2 * 6
    assert exact_factorial_product(2, 3, 0) == 2 * 24 * 720
    assert exact_factorial_product(1, 3, 1) == 1 * 2**2 * 6**3


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2),
)
def test_exact_factorial_product_brute(k, n, r):
    brute = 1
    for v in range(1, n + 1):
        brute *= math.factorial(k * v) ** (v**r)
    assert exact_factorial_product(k, n, r) == brute


def test_exact_factorial_product_validation():
    with pytest.raises(ValueError):
        exact_factorial_product(0, 5, 0)


def _exponents_by_counting(k, n, r):
    # e_p counted over the factors m <= kn of the product: m occurs in
    # (kv)! for every v >= m/k, with weight sum of those v^r
    weight = {}
    for m in range(1, k * n + 1):
        weight[m] = sum(v**r for v in range(-(-m // k), n + 1))
    exponents = []
    for p in primes_up_to(k * n):
        e = 0
        for m in range(p, k * n + 1, p):
            nu, rest = 0, m
            while rest % p == 0:
                rest //= p
                nu += 1
            e += nu * weight[m]
        exponents.append((p, e))
    return exponents


def _projected_bits(k, n, r):
    return sum(v**r * math.lgamma(k * v + 1) for v in range(1, n + 1)) / math.log(2)


def test_factorial_product_exponents_and_log_match_the_exact_product():
    # over k <= 3, n <= 40, r <= 3: the exponents against a count over the
    # factors, and the log against the built product wherever that product
    # stays below 2^18 bits (building the larger ones takes seconds each);
    # above the cap the exponents refuse
    built = 0
    for k in (1, 2, 3):
        for r in range(4):
            for n in range(41):
                if _projected_bits(k, n, r) > verify.ORACLE_BIT_CAP:
                    with pytest.raises(OverflowError):
                        verify._factorial_product_exponents(k, n, r)
                    continue
                exponents = verify._factorial_product_exponents(k, n, r)
                assert exponents == _exponents_by_counting(k, n, r), (k, n, r)
                if _projected_bits(k, n, r) > 1 << 18:
                    continue
                built += 1
                exact = exact_factorial_product(k, n, r)
                assert math.prod(p**e for p, e in exponents) == exact
                with CTX.workprec():
                    log_sum = verify._exponents_log(exponents, {}, CTX)
                    log_exact = BoundedReal.exact(exact).log()
                assert log_sum.agrees_with(log_exact), (k, n, r)
                if exact.bit_length() < 1 << 14:  # mpmath's log of it is slow
                    assert _contains_mpmath_log(log_sum, exact, 1, CTX), (k, n, r)
    assert built > 300


def test_factorial_product_exponents_refuse_over_cap(monkeypatch):
    monkeypatch.setattr(verify, "ORACLE_BIT_CAP", 1000)
    with pytest.raises(OverflowError):
        verify._factorial_product_exponents(1, 50, 1)
    with pytest.raises(OverflowError):
        ratio_suite(["weighted-progression-r1-k2"], (10, 20))
    assert verify._factorial_product_exponents(1, 5, 0) == [(2, 8), (3, 3), (5, 1)]


@pytest.mark.parametrize("grid", [(11, 45, 64), None])
def test_factorial_ratio_targets_never_build_the_product(grid):
    targets = ["factorial-progression-k1", "factorial-progression-k2",
               "factorial-progression-k3", "weighted-progression-r1-k2"]
    reports = ratio_suite(targets, grid)
    assert [rep.name for rep in reports] == targets
    assert all(rep.monotone_tail for rep in reports)


def test_exact_bernoulli_product_examples():
    assert exact_bernoulli_product(2, "plain") == Fraction(1, 6) * Fraction(1, 30)
    assert exact_bernoulli_product(2, "over_2nu") == Fraction(1, 12) * Fraction(
        1, 120
    )
    assert exact_bernoulli_product(3, "over_4nu") == Fraction(1, 24) * Fraction(
        1, 240
    ) * Fraction(1, 504)
    with pytest.raises(ValueError):
        exact_bernoulli_product(3, "over_8nu")


def _log_exact(x, ctx):
    with ctx.workprec():
        return BoundedReal.exact(x).log()


def test_log_exact_int_round_trips():
    for n in (3, 10**20, 2**200 + 1):
        log_n = _log_exact(n, CTX)
        with CTX.workprec():
            assert log_n.exp().contains(n)
    with pytest.raises(PrecisionError):
        _log_exact(0, CTX)


def test_log_exact_int_huge_matches_lgamma_scale():
    n = math.factorial(300)
    got = float(_log_exact(n, CTX).value)
    assert abs(got - math.lgamma(301)) < 1e-6 * got


def _mpf_of_int(n):
    # mpmath.mpf(n) at mpmath's precision, from the top prec + 2 bits of n
    # and a sticky bit for the rest: the same round-to-nearest, without
    # mpmath's trailing-zero strip of all of n (2.5 s for n = 2^1000000)
    s = n.bit_length() - mpmath.mp.prec - 2
    if s <= 0:
        return mpmath.mpf(n)
    return mpmath.mpf(((n >> s) | (n & ((1 << s) - 1) != 0), s))


def _contains_mpmath_log(enclosure, numerator, denominator, ctx):
    # mpmath reference at three times the working precision
    with mpmath.workdps(3 * ctx.working_digits):
        ref = mpmath.log(_mpf_of_int(numerator)) - mpmath.log(_mpf_of_int(denominator))
        return enclosure.contains(mpf_to_fraction(ref))


@pytest.mark.parametrize("digits", [20, 100])
def test_log_exact_int_top_bits_path(digits):
    # integers about prec + 64 bits long and 10^6 bits long, each rounded
    # to working precision once before its log
    ctx = make_context(digits)
    keep = ctx.prec + 64
    for k in (keep, keep + 1, 10**6):
        m = math.ceil((k - 1) / math.log2(3))
        for n in (2**k - 1, 2**k, 3**m):
            if n % 2:  # mpmath.mpf(n) is quick without trailing zeros
                with mpmath.workdps(3 * ctx.working_digits):
                    assert _mpf_of_int(n)._mpf_ == mpmath.mpf(n)._mpf_
            log_n = _log_exact(n, ctx)
            assert _contains_mpmath_log(log_n, n, 1, ctx), (k, n.bit_length())
            assert log_n.abs_err < 10 ** -(digits + 1) * max(1, log_n.value)


def test_log_exact_fraction_huge():
    # a 10^6-bit numerator, then a 10^6-bit denominator; one Fraction with
    # both would spend seconds in its gcd
    for q in (Fraction(3**700000, 7), Fraction(7, 2**1000000 - 1)):
        log_q = _log_exact(q, CTX)
        assert _contains_mpmath_log(log_q, q.numerator, q.denominator, CTX)


def test_log_exact_fraction():
    q = Fraction(34560, 7)
    log_q = _log_exact(q, CTX)
    with CTX.workprec():
        assert log_q.exp().contains(q)
    with pytest.raises(PrecisionError):
        _log_exact(Fraction(-1, 2), CTX)


# -- report types -----------------------------------------------------------------

def test_identity_report_line_and_record():
    rep = IdentityReport("demo", {"n": 3}, 1, 1, "exact-equal")
    assert rep.line() == "demo[n=3] exact-equal gap=0.000e+00"
    rec = rep.record()
    assert rec == {
        "name": "demo",
        "params": {"n": 3},
        "status": "exact-equal",
        "gap": 0.0,
    }


def test_ratio_report_requires_sorted_grid():
    with pytest.raises(ValueError):
        RatioReport("demo", ((50, 0.1), (25, 0.2)), True)


def test_ratio_report_status_and_line():
    good = RatioReport("demo", ((25, 0.2), (50, 0.1)), True)
    assert good.status == "decreasing"
    assert "decreasing" in good.line()
    bad = RatioReport("demo", ((25, 0.1), (50, 0.2)), False, (25, 50))
    assert bad.status == "FAIL"
    assert "offending" in bad.line()


def test_report_helpers():
    reps = [IdentityReport("a", {}, 0, 0, "exact-equal")]
    assert report_lines(reps) == [reps[0].line()]
    assert report_records(reps) == [reps[0].record()]


# -- identity suite ----------------------------------------------------------------

def _weighted_split_ints(r, n):
    """Both sides of the weighted split at (r, n) as big integers."""
    s = list(itertools.accumulate((v ** r for v in range(1, n + 1)), initial=0))
    lhs = math.factorial(n) ** s[n]
    for v in range(1, n + 1):
        lhs *= v ** (v ** r)
    rhs = 1
    for v in range(1, n + 1):
        rhs *= math.factorial(v) ** (v ** r) * v ** s[v]
    return lhs, rhs


@pytest.mark.parametrize("check", [
    identity_suite,
    lambda ctx: ratio_suite(ctx=ctx),
    lambda ctx: eta_identity_check(1000, ctx),
    lambda ctx: abelian_average_check(1000, ctx),
    lambda ctx: milnor_equivalence_check(ctx=ctx),
], ids=["identities", "ratio", "eta", "abelian", "milnor"])
def test_public_check_sets_its_own_precision(check):
    # a check computes at its context, whatever block encloses the call
    ctx = make_context(20)
    clear_cache()
    plain = check(ctx)
    clear_cache()
    with PrecisionContext(60, 10).workprec():
        assert check(ctx) == plain


def test_identity_suite_computes_at_its_context():
    reports = identity_suite(make_context(60))
    gaps = [rep.gap for rep in reports if rep.name == "rising-product-gamma"]
    assert len(gaps) == 300 and max(gaps) < 1e-50


@pytest.mark.parametrize("digits", [20, 300])
def test_identity_suite_sums_one_stirling_tail_per_alpha(monkeypatch, digits):
    # every log Gamma(n + 1 - alpha), n <= 50, is moved to the same X for a
    # given alpha, up from below T or down from above it, so the six alphas
    # make six sums at any digit count
    sums = []
    terms = special._stirling_terms

    def spy(big, P):
        sums.append(big)
        return terms(big, P)

    monkeypatch.setattr(special, "_stirling_terms", spy)
    clear_cache()
    reports = identity_suite(make_context(digits))
    clear_cache()
    assert len(reports) == 755
    assert len(sums) == len(set(sums)) == 6


def test_identity_suite_passes_and_covers_expected_families():
    reports = identity_suite()
    assert len(reports) == 755
    statuses = {rep.status for rep in reports}
    assert statuses == {"exact-equal", "within-bounds"}
    by_name = {}
    for rep in reports:
        by_name.setdefault(rep.name, []).append(rep)
    assert len(by_name["factorial-power-split"]) == 30
    assert len(by_name["shifted-factorial-merge"]) == 100
    assert len(by_name["shifted-factorial-telescope"]) == 200
    assert len(by_name["weighted-factorial-split"]) == 75
    assert len(by_name["rising-product-gamma"]) == 300
    assert len(by_name["telescope-matrix-inverse"]) == 49
    # every weighted split compares prime-exponent vectors; for the 70 whose
    # sides stay below 2^20 bits, the big integers are the reference that
    # the vectors must factor exactly
    built = []
    for rep in by_name["weighted-factorial-split"]:
        r, n = rep.params["r"], rep.params["n"]
        assert rep.lhs == rep.rhs
        if r == 4 and n > 10:
            continue
        built.append((r, n))
        lhs_int, rhs_int = _weighted_split_ints(r, n)
        assert lhs_int == rhs_int
        assert lhs_int.bit_length() <= 1 << 20
        primes = primes_up_to(n)
        assert math.prod(p**e for p, e in zip(primes, rep.lhs)) == lhs_int
    assert len(built) == 70
    mass = by_name["even-lattice-mass-at-8"]
    assert len(mass) == 1
    assert mass[0].status == "exact-equal"
    assert mass[0].rhs == Fraction(1, 696729600)
    assert all(math.isfinite(rep.gap) for rep in reports)


def test_telescope_check_catches_one_entry_off_by_one(monkeypatch):
    def mutant(k):
        rows = m_tilde_matrix(k)
        if k == 17:
            rows[-1][5] += 1
        return rows

    monkeypatch.setattr(verify, "m_tilde_matrix", mutant)
    with pytest.raises(VerificationFailure) as info:
        verify._telescope_matrix_inverse([], 50)
    assert info.value.report.params == {"k": 17}


@pytest.mark.parametrize("case", [(2, 7), (4, 15)])
def test_weighted_split_rejects_perturbed_exponent(monkeypatch, case):
    # one case whose big integers the identity-suite test builds, and one
    # too large for them
    exponents = verify._weighted_split_exponents

    def perturbed(r, n, primes):
        lhs, rhs = exponents(r, n, primes)
        if (r, n) == case:
            lhs = (lhs[0] + 1,) + lhs[1:]
        return lhs, rhs

    monkeypatch.setattr(verify, "_weighted_split_exponents", perturbed)
    with pytest.raises(VerificationFailure) as failure:
        verify._weighted_factorial_split([], case[0], case[1])
    assert failure.value.report.params == {"r": case[0], "n": case[1]}


# -- ratio suite -------------------------------------------------------------------

def test_ratio_suite_validates_inputs():
    with pytest.raises(ValueError):
        ratio_suite(targets=["no-such-target"])
    with pytest.raises(ValueError):
        ratio_suite(n_grid=(50, 25))
    with pytest.raises(ValueError):
        ratio_suite(n_grid=(25, 25, 50))


def test_multiple_of_four_grid():
    assert _multiple_of_four_grid((25, 50, 100)) == (24, 48, 100)
    assert _multiple_of_four_grid((4, 5, 6, 7)) == (4,)
    assert _multiple_of_four_grid((2, 3)) == ()


def test_ratio_suite_single_target_small_grid():
    reports = ratio_suite(targets=["power-tower-r1"], n_grid=(10, 20, 40))
    assert len(reports) == 1
    rep = reports[0]
    assert rep.name == "power-tower-r1"
    assert rep.monotone_tail
    assert [n for n, _ in rep.gaps] == [10, 20, 40]
    # next-order term of the expansion is 1/(720 n^2)
    for n, gap in rep.gaps:
        assert gap == pytest.approx(1 / (720 * n**2), rel=0.05)


def test_power_tower_gaps_carry_on_the_last_sum():
    # a running sum over an increasing grid gives the balls a sum from
    # v = 2 gives
    with CTX.workprec():
        carried = verify._power_tower_diff(2, CTX)
        for n in (7, 12, 30, 31, 40):
            assert carried(n) == verify._power_tower_diff(2, CTX)(n), n


def test_ratio_suite_takes_every_log_at_working_precision(monkeypatch):
    precs = []
    log = BoundedReal.log

    def spied(self):
        precs.append(precision._get_prec())
        return log(self)

    monkeypatch.setattr(BoundedReal, "log", spied)
    ratio_suite(ctx=make_context(20))
    assert precs
    assert 53 not in precs  # the default outside any workprec() block


def test_ratio_suite_lattice_grid_is_adjusted():
    reports = ratio_suite(targets=["lattice-mass"], n_grid=(10, 20))
    assert [n for n, _ in reports[0].gaps] == [8, 20]
    assert reports[0].monotone_tail


def test_gap_trends_refuse_grids_of_fewer_than_two_points():
    # one gap, or none after the lattice grid drops n < 4, decides nothing
    with pytest.raises(ValueError, match="two grid points"):
        ratio_suite(["lattice-mass"], n_grid=(2, 3))
    with pytest.raises(ValueError, match="two grid points"):
        ratio_suite(["lattice-mass"], n_grid=(3, 7))
    with pytest.raises(ValueError, match="two grid points"):
        ratio_suite(["power-tower-r1"], n_grid=(30,))
    with pytest.raises(ValueError, match="two grid points"):
        milnor_equivalence_check(n_grid=(10,))
    with pytest.raises(ValueError, match="strictly increasing"):
        milnor_equivalence_check(n_grid=(10, 10, 100))
    assert ratio_suite([], n_grid=(30, 40)) == []


# -- eta product -------------------------------------------------------------------

def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10000)) == 1229


def test_eta_factor_is_eulerian_and_below_one():
    # p^(1/12) eta(i log p / pi) = prod_v (1 - q^v) with q = p^-2, and for
    # q <= 1/4 the tail prod_{v>V} (1 - q^v) lies in [1 - 2 q^(V+1), 1]:
    # an exact bracket, taken narrower than the enclosure's radius
    for digits in (20, 100):
        ctx = make_context(digits)
        for p in (2, 3, 5):
            factor = verify._eta_prime_product([p], ctx)
            radius = mpf_to_fraction(factor.abs_err)
            q = Fraction(1, p * p)
            head, V = 1 - q, 1
            while 2 * q ** (V + 1) >= radius:
                V += 1
                head *= 1 - q ** V
            assert factor.contains(head * (1 - 2 * q ** (V + 1)))
            assert factor.contains(head)
            assert factor.upper() < 1


@pytest.mark.parametrize("digits", [20, 100])
def test_eta_prime_product_contains_mpmath(digits):
    # the check's exact Euler product in q = 1/p^2 against mpmath's eta at
    # three times the working digits
    ctx = make_context(digits)
    primes = primes_up_to(200)
    acc = verify._eta_prime_product(primes, ctx)
    with mpmath.workdps(3 * ctx.working_digits):
        ref = mpmath.mpf(1)
        for p in primes:
            tau = 1j * mpmath.log(p) / mpmath.pi
            ref *= mpmath.root(p, 12) * mpmath.eta(tau).real
        assert acc.contains(mpf_to_fraction(ref))
    assert acc.abs_err < mpmath.mpf(10) ** -(digits + 5)


@pytest.mark.parametrize(
    "bound, radius",
    [(10**4, 7.3e-27), (10**5, 6.8e-26), (10**4, 1.2e-31), (10**5, 1.2e-31)],
)
def test_eta_prime_product_radius(bound, radius):
    # at 20 digits: the former BoundedReal product's pins, which no rewrite
    # may exceed, then the exact Euler product's 9.95e-32 at both bounds
    # with a 20% margin; and no drift in the mantissa
    acc = verify._eta_prime_product(primes_up_to(bound), CTX)
    assert acc.abs_err <= radius
    assert acc.abs_err < 1e-30 * acc.value


def test_eta_identity_check_small_bound():
    rep = eta_identity_check(100, CTX)
    assert rep.status == "within-bounds"
    assert rep.params["primes_used"] == 25
    assert 0 < rep.gap <= rep.params["tolerance"]
    assert rep.gap == pytest.approx(9.997e-4, rel=1e-2)


def test_eta_identity_check_validation():
    with pytest.raises(ValueError):
        eta_identity_check(2, CTX)


def test_eta_identity_check_refuses_a_prime_bound_above_its_cap():
    # refused before any prime is sieved
    with pytest.raises(ValueError, match="prime_bound <= 1000000"):
        eta_identity_check(verify.ETA_PRIME_BOUND_CAP + 1, CTX)


def test_eta_identity_check_takes_few_exps(monkeypatch):
    # with C2 cached, the whole check takes no exp: q = 1/p^2 is exact
    # (at most 40 while each factor took eta's exp and p^(1/12)'s)
    c_constant(2, CTX)
    calls = []
    exp = BoundedReal.exp
    monkeypatch.setattr(BoundedReal, "exp", lambda x: calls.append(x) or exp(x))
    assert eta_identity_check(100, CTX).status == "within-bounds"
    assert calls == []


def test_eta_prime_product_takes_no_log_exp_or_pi(monkeypatch):
    # q = 1/p^2 is exact: no log p, no exp and no pi enters the product
    def boom(*args):
        raise AssertionError("the prime-eta product left exact integers")

    monkeypatch.setattr(BoundedReal, "exp", boom)
    monkeypatch.setattr(BoundedReal, "log", boom)
    monkeypatch.setattr(special, "pi_const", boom)
    acc = verify._eta_prime_product(primes_up_to(100), CTX)
    assert 0 < acc.value < 1


# -- abelian averages -----------------------------------------------------------------

def abelian_group_count(n: int) -> int:
    """Number of abelian groups of order n: prod p(e_i) over prime powers.

    The reference for _abelian_count_sums: trial division, one n at a time.
    """
    if n < 1:
        raise ValueError("abelian_group_count needs n >= 1")
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            result *= partition_counts(e)[-1]
        p += 1 if p == 2 else 2
    if m > 1:
        result *= partition_counts(1)[-1]
    return result


def test_abelian_group_count_known_values():
    assert abelian_group_count(1) == 1
    assert abelian_group_count(7) == 1
    assert abelian_group_count(4) == 2
    assert abelian_group_count(8) == 3
    assert abelian_group_count(16) == 5
    assert abelian_group_count(36) == 4
    assert abelian_group_count(72) == 6
    assert abelian_group_count(2**10) == partition_counts(10)[-1]


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
)
def test_abelian_group_count_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert abelian_group_count(a * b) == abelian_group_count(
            a
        ) * abelian_group_count(b)


def test_abelian_group_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        abelian_group_count(0)


def test_abelian_count_sums_against_direct_counts():
    limit = 2000
    sums = _abelian_count_sums(limit)
    direct = sum(abelian_group_count(n) for n in range(1, limit + 1))
    assert sums[limit] == direct
    assert sums[10] == 14
    assert sums[100] == 185
    assert sums[1000] == 2091


def test_abelian_count_sums_look_up_partitions_once(monkeypatch):
    # one table p(0..log2(limit)) is built, and the only sieve runs to
    # sqrt(limit)
    asked, sieved = [], []
    counts, primes = verify.partition_counts, verify.primes_up_to

    def counted(e):
        asked.append(e)
        return counts(e)

    def sieve(limit):
        sieved.append(limit)
        return primes(limit)

    monkeypatch.setattr(verify, "partition_counts", counted)
    monkeypatch.setattr(verify, "primes_up_to", sieve)
    assert _abelian_count_sums(4096)[4096] == sum(
        abelian_group_count(n) for n in range(1, 4097)
    )
    assert asked == [12]
    assert sieved == [64]


def test_abelian_count_sums_match_a_sieve_over_every_n():
    # sums from a smallest-prime-factor sieve that factors every n <= limit
    sums = {10: 14, 100: 185, 1000: 2091, 10000: 22184, 100000: 226610}
    assert _abelian_count_sums(10**5) == sums
    assert _abelian_count_sums(10**6) == {**sums, 10**6: 2284717}
    assert _abelian_count_sums(100749) == {**sums, 100749: 228315}
    assert _abelian_count_sums(1) == {1: 1}
    assert _abelian_count_sums(7) == {7: 8}


def test_abelian_average_check_small():
    rep = abelian_average_check(10000, CTX)
    assert rep.status == "within-bounds"
    assert rep.lhs == pytest.approx(2.2184)
    means = rep.params["checkpoint_means"]
    assert list(means) == ["10", "100", "1000", "10000"]
    # the running means climb toward the limit from below at these scales
    values = [means[key] for key in means]
    assert values == sorted(values)


def test_abelian_average_check_degenerate():
    rep = abelian_average_check(1, CTX)
    assert rep.lhs == 1.0
    with pytest.raises(ValueError):
        abelian_average_check(0, CTX)


# -- Milnor equivalence ----------------------------------------------------------------

def test_milnor_equivalence_default_grid():
    rep = milnor_equivalence_check()
    assert rep.name == "milnor-equivalence"
    assert rep.monotone_tail
    gaps = dict(rep.gaps)
    assert gaps[10] == pytest.approx(4.066e-3, rel=1e-2)
    assert gaps[100] == pytest.approx(4.156e-4, rel=1e-2)
    assert gaps[1000] == pytest.approx(4.166e-5, rel=1e-2)


def test_milnor_limit_constant():
    # the equivalence pins log F(2n+1) - log G(n) -> (11/24) log 2
    from bernfac.asymptotic import milnor_f_log, milnor_g_log

    with CTX.workprec():
        n = 2000
        diff = milnor_f_log(2 * n + 1, CTX) - milnor_g_log(n, CTX)
        limit = Fraction(11, 24) * BoundedReal.exact(2).log()
        assert abs(float((diff - limit).value)) < 1e-4
