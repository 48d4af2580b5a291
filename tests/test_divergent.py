"""Tests for optimal truncation of divergent tails and certified log x!.

The key property: the true tail value lies within remainder_bound of the
partial sum, with the sign of the omitted term giving the direction.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from bernfac.asymptotic import n_coeff
from bernfac.divergent import (
    DivergentTail,
    NoDecreaseError,
    TruncationResult,
    eval_optimal,
    log_factorial,
)
from bernfac.precision import (
    BoundedReal,
    PrecisionError,
    make_context,
    mpf_to_fraction,
)
from bernfac import divergent
from bernfac.special import bernoulli, log_gamma_rational, log_two_pi

CTX = make_context(21)


# -- tail definitions -----------------------------------------------------------

def stirling_tail() -> DivergentTail:
    """Correction tail of log Gamma(x+1): sum B_2j/(2j(2j-1)) x^-(2j-1)."""
    return DivergentTail(
        coeff=lambda j: Fraction(bernoulli(2 * j), 2 * j * (2 * j - 1)),
        j_start=1,
        description="stirling",
    )


def test_stirling_tail_coefficients():
    tail = stirling_tail()
    assert tail.j_start == 1
    assert tail.coeff(1) == Fraction(1, 12)
    assert tail.coeff(2) == Fraction(-1, 360)
    assert tail.coeff(3) == Fraction(1, 1260)


# -- optimal truncation -----------------------------------------------------------

def _exact_stirling_tail(n: int) -> BoundedReal:
    # log n! - (log(2 pi)/2 + (n + 1/2) log n - n), all terms certified
    with CTX.workprec():
        base = (
            log_two_pi(CTX) / 2
            + (BoundedReal.exact(n) + Fraction(1, 2)) * BoundedReal.exact(n).log()
            - n
        )
        return BoundedReal.exact(math.factorial(n)).log() - base


def test_eval_optimal_brackets_true_stirling_tail():
    # The coefficients and 1/n are rational, so the partial sum and the
    # omitted term are exact Fractions; the reference tail is computed far
    # beyond the working precision.  This checks the bracketing claim at
    # the full strength of the remainder bound (down to 1e-70 at n = 25),
    # which a float comparison against a 21-digit reference could not.
    tail = stirling_tail()
    for n in (5, 10, 25):
        trunc = eval_optimal(tail, n, CTX)
        with mp.workdps(160):
            ref = mp.log(mp.factorial(n)) - (
                mp.log(2 * mp.pi) / 2 + (n + mpf(1) / 2) * mp.log(n) - n
            )
            ref_frac = mpf_to_fraction(ref)
        partial_exact = sum(
            (tail.coeff(j) * Fraction(n) ** (1 - 2 * j) for j in range(1, trunc.m_opt)),
            Fraction(0),
        )
        omitted_exact = tail.coeff(trunc.m_opt) * Fraction(n) ** (1 - 2 * trunc.m_opt)
        residue = ref_frac - partial_exact
        slack = Fraction(1, 10**130)
        assert abs(residue) <= abs(omitted_exact) + slack
        # theta in (0,1): the residue has the sign of the omitted term
        assert (residue > 0) == (omitted_exact > 0)
        # the certified objects enclose the exact quantities
        assert trunc.partial_sum.contains(partial_exact)
        assert trunc.omitted_term.contains(omitted_exact)
        assert mpf_to_fraction(trunc.remainder_bound) >= abs(omitted_exact)
        # and the certified reference route is consistent within its own bound
        measured = _exact_stirling_tail(n) - trunc.partial_sum
        assert abs(mpf_to_fraction(measured.value)) <= (
            mpf_to_fraction(trunc.remainder_bound) + mpf_to_fraction(measured.abs_err)
        )


def test_eval_optimal_m_opt_grows_with_x():
    m_small = eval_optimal(stirling_tail(), 2, CTX).m_opt
    m_large = eval_optimal(stirling_tail(), 30, CTX).m_opt
    assert m_small < m_large


def test_eval_optimal_rejects_tiny_argument():
    with pytest.raises(NoDecreaseError):
        eval_optimal(stirling_tail(), Fraction(1, 10), CTX)


def test_eval_optimal_rejects_nonpositive():
    with pytest.raises(ValueError):
        eval_optimal(stirling_tail(), 0, CTX)


def test_eval_optimal_result_shape():
    # the D_3 tail sum_j N_{2j,3} x^-(2j-1), with f_rk_series' coefficients
    tail = DivergentTail(coeff=lambda j: n_coeff(2 * j, 3), j_start=1,
                         description="D_3")
    trunc = eval_optimal(tail, 4, CTX)
    assert isinstance(trunc, TruncationResult)
    assert trunc.m_opt >= 2
    assert trunc.remainder_bound > 0
    assert trunc.partial_sum.abs_err >= 0


# -- certified log factorial -------------------------------------------------------

@given(st.integers(min_value=1, max_value=60))
def test_log_factorial_contains_exact_integers(n):
    lf = log_factorial(n, CTX)
    assert lf.exp().contains(math.factorial(n))


def test_log_factorial_is_tight():
    with CTX.workprec():
        for n in (1, 2, 7, 40):
            lf = log_factorial(n, CTX)
            exact = BoundedReal.exact(math.factorial(n)).log()
            assert abs(float((lf - exact).value)) < 1e-25
            assert float(lf.abs_err) < 1e-25


def test_log_factorial_half_integer():
    # (1/2)! = Gamma(3/2) = sqrt(pi)/2
    with CTX.workprec():
        lf = log_factorial(Fraction(1, 2), CTX)
        with mp.workdps(45):
            ref = mpmath.log(mpmath.sqrt(mp.pi) / 2)
            assert abs(lf.value - ref) <= lf.abs_err + mpf(10) ** (-38)


def test_log_factorial_small_rational_promotion():
    with CTX.workprec():
        lf = log_factorial(Fraction(1, 10), CTX)
        with mp.workdps(45):
            ref = mpmath.loggamma(mpf(11) / 10)
            assert abs(lf.value - ref) <= lf.abs_err + mpf(10) ** (-38)


def test_log_factorial_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_factorial(0, CTX)
    with pytest.raises(ValueError):
        log_factorial(Fraction(-1, 2), CTX)


@pytest.mark.parametrize("digits", [20, 100, 300])
def test_log_gamma_rational_contains_mpmath_loggamma(digits):
    # 1/7, 2/3 and 49/3 take the promotion path, log((x+N)!) - log prod (x+j)
    ctx = make_context(digits)
    xs = (Fraction(1, 3), Fraction(1, 2), Fraction(15), Fraction(50),
          Fraction(120), Fraction(1, 7), Fraction(2, 3), Fraction(49, 3))
    for x in xs:
        lg = log_gamma_rational(x, ctx)
        with mp.workdps(3 * ctx.working_digits):
            ref = mpmath.loggamma(mpf(x.numerator) / x.denominator)
            assert lg.contains(mpf_to_fraction(ref)), x
        assert lg.abs_err < mpf(10) ** -digits


def test_log_factorial_stops_at_goal(monkeypatch):
    # the Stirling sum stops at the first term below the goal, far before
    # the smallest term (near j = pi x = 157 at x = 50)
    seen = []
    units = divergent._stirling_units

    def spy(*args):
        result = units(*args)
        seen.append(result[2])
        return result

    monkeypatch.setattr(divergent, "_stirling_units", spy)
    log_gamma_rational(Fraction(50), make_context(20))
    assert seen and max(seen) <= 20


def test_stirling_units_bracket_the_exact_tail():
    # the kept terms and the radius against the exact rational partial sums
    # of the tail, and the remainder rule against a 300-digit reference
    P, g = 200, 90
    coeff = stirling_tail().coeff
    for big in (Fraction(12), Fraction(37, 3), Fraction(401, 7)):
        units, radius, j = divergent._stirling_units(big, P, g)
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
    assert divergent._stirling_units(Fraction(12), 200, 150) is None
