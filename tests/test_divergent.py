"""Tests for optimal truncation of divergent tails and certified log Gamma.

The key property: the true tail value lies within the stopping remainder
bound of the partial sum, with the sign of the omitted term giving the
direction.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from bernfac.asymptotic import n_coeff
from bernfac.precision import (
    BoundedReal,
    PrecisionError,
    make_context,
    mpf_to_fraction,
)
from bernfac import special
from bernfac.special import (
    _stirling_terms,
    _sum_units,
    bernoulli,
    log_gamma_rational,
    log_two_pi,
)

CTX = make_context(21)


# -- tail definitions -----------------------------------------------------------

def stirling_coeff(j: int) -> Fraction:
    """B_2j/(2j(2j-1)): the tail of log Gamma(x) is sum_j coeff x^-(2j-1)."""
    return Fraction(bernoulli(2 * j), 2 * j * (2 * j - 1))


def test_stirling_tail_coefficients():
    assert stirling_coeff(1) == Fraction(1, 12)
    assert stirling_coeff(2) == Fraction(-1, 360)
    assert stirling_coeff(3) == Fraction(1, 1260)


# -- the summation engine in smallest-term mode ----------------------------------

def _smallest_stirling(x, P):
    """The Stirling tail at x summed to its smallest term, in units of 2^-P."""
    return _sum_units(_stirling_terms(Fraction(x), P), None)


def test_smallest_term_brackets_true_stirling_tail():
    # The coefficients and 1/n are rational, so the partial sum and the
    # omitted term are exact Fractions; the reference tail is computed far
    # beyond the unit 2^-480.  This checks the bracketing claim at the full
    # strength of the remainder bound (down to 1e-70 at n = 25).
    coeff = stirling_coeff
    P = 480
    for n in (5, 10, 25):
        units, err, m = _smallest_stirling(n, P)

        def term(j):
            return coeff(j) * Fraction(n) ** (1 - 2 * j)

        with mp.workdps(160):
            ref = mp.log(mp.factorial(n)) - (
                mp.log(2 * mp.pi) / 2 + (n + mpf(1) / 2) * mp.log(n) - n
            )
            ref_frac = mpf_to_fraction(ref)
        partial_exact = sum((term(j) for j in range(1, m)), Fraction(0))
        omitted_exact = term(m)
        # m is the smallest term
        assert abs(omitted_exact) < abs(term(m - 1))
        assert abs(omitted_exact) <= abs(term(m + 1))
        residue = ref_frac - partial_exact
        slack = Fraction(1, 10**130)
        assert abs(residue) <= abs(omitted_exact) + slack
        # theta in (0,1): the residue has the sign of the omitted term
        assert (residue > 0) == (omitted_exact > 0)
        # each kept floor is off by less than one unit, and the rest of
        # the radius, the stopping r_m, covers the omitted term
        assert abs(partial_exact * 2**P - units) < m - 1
        assert abs(omitted_exact) * 2**P < err - (m - 1)
        assert abs(ref_frac * 2**P - units) <= err


def test_smallest_term_index_grows_with_x():
    m_small = _smallest_stirling(2, 400)[2]
    m_large = _smallest_stirling(30, 400)[2]
    assert m_small < m_large


def test_smallest_term_is_none_when_terms_never_decrease():
    assert _smallest_stirling(Fraction(1, 10), 400) is None


def test_sum_units_caps_the_term_count():
    # remainder bounds that keep decreasing but never reach the goal, nor
    # turn: both modes give up after 100 000 terms
    for goal in (1, None):
        terms = ((j, 0, 0, 10**9 - j) for j in itertools.count(1))
        with pytest.raises(PrecisionError):
            _sum_units(terms, goal)


def test_smallest_term_sum_of_d3_tail():
    # the D_3 tail sum_j N_{2j,3} x^-(2j-1) at x = 4, with f_rk_series'
    # coefficients, each floored to units of 2^-P
    P, x = 200, 4

    def exact(j):
        return n_coeff(2 * j, 3) * Fraction(1, x ** (2 * j - 1))

    def terms():
        for j in itertools.count(1):
            t = math.floor(exact(j) * 2**P)
            yield j, t, 1, abs(t) + 1

    units, err, m = _sum_units(terms(), None)
    assert all(isinstance(v, int) for v in (units, err, m))
    assert m >= 2
    kept = sum((exact(j) for j in range(1, m)), Fraction(0))
    assert abs(kept * 2**P - units) < m - 1
    assert abs(exact(m)) * 2**P < err - (m - 1)


# -- certified log x! = log Gamma(x + 1) -------------------------------------------

@given(st.integers(min_value=1, max_value=60))
def test_log_factorial_contains_exact_integers(n):
    lf = log_gamma_rational(n + 1, CTX)
    assert lf.exp().contains(math.factorial(n))


def test_log_factorial_is_tight():
    with CTX.workprec():
        for n in (1, 2, 7, 40):
            lf = log_gamma_rational(n + 1, CTX)
            exact = BoundedReal.exact(math.factorial(n)).log()
            assert abs(float((lf - exact).value)) < 1e-25
            assert float(lf.abs_err) < 1e-25


def test_log_factorial_half_integer():
    # (1/2)! = Gamma(3/2) = sqrt(pi)/2
    with CTX.workprec():
        lf = log_gamma_rational(Fraction(3, 2), CTX)
        with mp.workdps(45):
            ref = mpmath.log(mpmath.sqrt(mp.pi) / 2)
            assert abs(lf.value - ref) <= lf.abs_err + mpf(10) ** (-38)


def test_log_factorial_small_rational_promotion():
    with CTX.workprec():
        lf = log_gamma_rational(Fraction(11, 10), CTX)
        with mp.workdps(45):
            ref = mpmath.loggamma(mpf(11) / 10)
            assert abs(lf.value - ref) <= lf.abs_err + mpf(10) ** (-38)


def test_log_factorial_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma_rational(0, CTX)
    with pytest.raises(ValueError):
        log_gamma_rational(Fraction(-1, 2), CTX)


@pytest.mark.parametrize("digits", [20, 100, 300])
def test_log_gamma_rational_contains_mpmath_loggamma(digits):
    # 1/7, 2/3 and 49/3 take the promotion path, log Gamma(x+N) - log prod (x+j);
    # the reference runs at working digits + 40
    ctx = make_context(digits)
    xs = (Fraction(1, 3), Fraction(1, 2), Fraction(15), Fraction(50),
          Fraction(120), Fraction(1, 7), Fraction(2, 3), Fraction(49, 3))
    for x in xs:
        lg = log_gamma_rational(x, ctx)
        with mp.workdps(ctx.working_digits + 40):
            ref = mpmath.loggamma(mpf(x.numerator) / x.denominator)
            assert lg.contains(mpf_to_fraction(ref)), x
        assert lg.abs_err < mpf(10) ** -digits


@pytest.mark.parametrize("digits", [20, 100])
def test_log_gamma_rational_obeys_gauss_multiplication(digits):
    # sum_{v<k} log Gamma(v/k) = ((k-1)/2) log 2pi - (1/2) log k: the relation
    # that a second closed route to log F_k (k >= 3), or B1 through F_2
    # (k = 2), would only test again on every request
    ctx = make_context(digits)
    with ctx.workprec():
        for k in range(2, 41):
            total = BoundedReal.exact(0)
            for nu in range(1, k):
                total = total + log_gamma_rational(Fraction(nu, k), ctx)
            want = (log_two_pi(ctx) * Fraction(k - 1, 2)
                    - BoundedReal.exact(k).log() * Fraction(1, 2))
            assert total.agrees_with(want), k


def test_log_factorial_stops_at_goal(monkeypatch):
    # the Stirling sum stops at the first term below the goal, far before
    # the smallest term (near j = pi x = 157 at x = 50); log Gamma is
    # memoized, so the memo is emptied first for the spy to see a sum
    special.clear_cache()
    seen = []
    engine = special._sum_units

    def spy(*args):
        result = engine(*args)
        seen.append(result[2])
        return result

    monkeypatch.setattr(special, "_sum_units", spy)
    log_gamma_rational(Fraction(50), make_context(20))
    assert seen and max(seen) <= 20


def _stirling_units(big, P, g):
    """The Stirling tail of log Gamma(big) summed to the goal 2^-g."""
    return _sum_units(_stirling_terms(big, P), 1 << (P - g))


def test_stirling_units_bracket_the_exact_tail():
    # the kept terms and the radius against the exact rational partial sums
    # of the tail, and the remainder rule against a 300-digit reference
    P, g = 200, 90
    coeff = stirling_coeff
    for big in (Fraction(12), Fraction(37, 3), Fraction(401, 7)):
        units, radius, j = _stirling_units(big, P, g)
        kept = sum(coeff(i) * big ** (1 - 2 * i) for i in range(1, j))
        omitted = coeff(j) * big ** (1 - 2 * j)
        assert abs(kept * 2**P - units) < j - 1
        assert abs(omitted) * 2**P < radius - (j - 1)
        assert abs(omitted) * 2**P < 2 ** (P - g)
        with mp.workdps(300):
            b = mpf(big.numerator) / big.denominator
            ref = mpmath.loggamma(b + 1) - (
                mp.log(2 * mp.pi) / 2 + (b + mpf(1) / 2) * mp.log(b) - b
            )
            assert abs(mpf_to_fraction(ref) * 2**P - units) <= radius
    # at 12 the smallest term, about e^(-24 pi), is above 2^-150
    assert _stirling_units(Fraction(12), 200, 150) is None
