"""Tests for the power sums and the asymptotic main terms.

Power sums are checked against brute sums; the main terms are checked
against hand-expanded closed expressions and against their defining sums
in mpmath at concrete arguments.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from bernfac.asymptotic import (
    milnor_f_log,
    milnor_g_log,
    n_coeff,
    p_rk_log,
    q_r_log,
    s_r,
    s_r_coeffs,
    s_r_weighted,
)
from bernfac.precision import BoundedReal, make_context
from bernfac.special import log_two_pi

CTX = make_context(21)


# -- power sums -------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=150))
def test_s_r_matches_brute_sum(r, n):
    assert s_r(r, n) == sum(v**r for v in range(1, n + 1))


def test_s_r_coeffs_structure():
    for r in range(8):
        coeffs = s_r_coeffs(r)
        assert coeffs[r] == Fraction(1, r + 1)
        assert sum(coeffs) == 1  # S_r(1) = 1
    with pytest.raises(ValueError):
        s_r_coeffs(-1)


def test_s_r_weighted_trivial_weight_is_s_r():
    for r in range(5):
        assert s_r_weighted(r, 9, lambda i: Fraction(1)) == s_r(r, 9)


def test_s_r_weighted_picks_out_slots():
    # weight 1 only at slot i = 2 leaves the single j = 1 term
    r, n = 3, 7
    coeffs = s_r_coeffs(r)
    got = s_r_weighted(r, n, lambda i: Fraction(1) if i == 2 else Fraction(0))
    assert got == coeffs[1] * Fraction(n) ** 2


# -- product main terms --------------------------------------------------------------

def test_n_coeff_values():
    assert n_coeff(2, 1) == Fraction(1, 12)
    assert n_coeff(4, 2) == Fraction(-1, 2880)
    assert n_coeff(3, 5) == 0
    with pytest.raises(ValueError):
        n_coeff(1, 1)


def test_q_r_form_r0_closed_shape():
    # log Q_0(n) = (n + 1/2) log n - n
    with CTX.workprec():
        for n in (5, 50):
            got = q_r_log(0, n, CTX)
            want = (
                (BoundedReal.exact(n) + Fraction(1, 2))
                * BoundedReal.exact(n).log()
                - n
            )
            assert abs(float((got - want).value)) < 1e-25


def test_q_r_form_r1_closed_shape():
    # log Q_1(n) = (n^2/2 + n/2 + 1/12) log n - n^2/4
    with CTX.workprec():
        for n in (5, 50):
            want = (
                BoundedReal.exact(
                    Fraction(n**2, 2) + Fraction(n, 2) + Fraction(1, 12)
                )
                * BoundedReal.exact(n).log()
                - Fraction(n**2, 4)
            )
            got = q_r_log(1, n, CTX)
            assert abs(float((got - want).value)) < 1e-24


def test_p_rk_form_r0_k1_is_stirling_sum():
    # log P_{0,1}(n) = (1/2) S_0(n) log 2pi - S_1(n) + N_{2,1} log n
    #                = (n/2) log 2pi - n(n+1)/2 + (1/12) log n
    with CTX.workprec():
        for n in (5, 40):
            want = (
                log_two_pi(CTX) * Fraction(n, 2)
                - Fraction(n * (n + 1), 2)
                + Fraction(1, 12) * BoundedReal.exact(n).log()
            )
            got = p_rk_log(0, 1, n, CTX)
            assert abs(float((got - want).value)) < 1e-24


def _power_sum(r, n):
    return sum(mpf(v) ** r for v in range(1, n + 1))


@pytest.mark.parametrize("r", [2, 3])
def test_q_r_log_matches_defining_sums(r):
    # log Q_r(n) = (S_r(n) - zeta(-r)) log n + S_r(n; H_r - H_diamond), with
    # S_r(n; f) = sum_j C(r,j) (-1)^(r-j) B_(r-j) n^(j+1) f(j+1)/(j+1)
    def harmonic(m):
        return sum(mpf(1) / i for i in range(1, m + 1))

    with mp.workdps(45):
        for n in (5, 50):
            got = q_r_log(r, n, CTX)
            rest = sum(
                math.comb(r, j) * (-1) ** (r - j) * mpmath.bernoulli(r - j)
                * mpf(n) ** (j + 1) * (harmonic(r) - harmonic(j + 1)) / (j + 1)
                for j in range(r + 1)
            )
            ref = (_power_sum(r, n) - mpmath.zeta(-r)) * mpmath.log(n) + rest
            assert abs(got.value - ref) <= got.abs_err + mpf(10) ** (-30)
            assert got.abs_err < mpf(10) ** (-25) * abs(ref)


@pytest.mark.parametrize("r, k", [(r, k) for r in (1, 2, 3) for k in (2, 3)])
def test_p_rk_log_matches_defining_sums(r, k):
    # log P_{r,k}(n) = (1/2) S_r(n) log(2 pi k) + k S_{r+1}(n) log(k/e)
    #                  + N_{r+2,k} log n + sum_j N_{2j,k} S_{r+1-2j}(n)
    def n_ref(m):
        return mpmath.bernoulli(m) / (m * (m - 1) * mpf(k) ** (m - 1))

    with mp.workdps(45):
        for n in (5, 40):
            got = p_rk_log(r, k, n, CTX)
            ref = (
                _power_sum(r, n) * mpmath.log(2 * mp.pi * k) / 2
                + k * _power_sum(r + 1, n) * (mpmath.log(k) - 1)
                + n_ref(r + 2) * mpmath.log(n)
                + sum(n_ref(2 * j) * _power_sum(r + 1 - 2 * j, n)
                      for j in range(1, (r + 1) // 2 + 1))
            )
            assert abs(got.value - ref) <= got.abs_err + mpf(10) ** (-30)
            assert got.abs_err < mpf(10) ** (-25) * abs(ref)


def test_p_rk_form_rejects_bad_arguments():
    with pytest.raises(ValueError):
        p_rk_log(0, 0, 5, CTX)
    with pytest.raises(ValueError):
        p_rk_log(-1, 1, 5, CTX)


def test_milnor_f_log_matches_direct_formula():
    # log F(n) = (n^2/4) log(n/(2 pi e^(3/2))) + (n/4) log(8 pi e/n)
    #            - (1/24) log n
    with mp.workdps(45):
        for n in (10, 101):
            got = milnor_f_log(n, CTX)
            ref = (
                mpf(n) ** 2 / 4 * mpmath.log(n / (2 * mp.pi * mpmath.exp(mpf(3) / 2)))
                + mpf(n) / 4 * mpmath.log(8 * mp.pi * mp.e / n)
                - mpmath.log(n) / 24
            )
            assert abs(got.value - ref) <= got.abs_err + mpf(10) ** (-30)


def test_milnor_g_log_matches_direct_formula():
    # log G(n) = n^2 log(n/(pi e^(3/2))) + (n/2) log(4n/(pi e)) - (1/24) log n
    with mp.workdps(45):
        for n in (10, 101):
            got = milnor_g_log(n, CTX)
            ref = (
                mpf(n) ** 2 * mpmath.log(n / (mp.pi * mpmath.exp(mpf(3) / 2)))
                + mpf(n) / 2 * mpmath.log(4 * n / (mp.pi * mp.e))
                - mpmath.log(n) / 24
            )
            assert abs(got.value - ref) <= got.abs_err + mpf(10) ** (-30)
