"""Tests for the algebra of asymptotic main terms and the product forms.

Power sums are checked against brute sums; the main-term forms are checked
against hand-expanded closed expressions at concrete arguments.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from bernfac.asymptotic import (
    AsymptoticForm,
    evaluate,
    form_of_degree,
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


# -- form algebra ---------------------------------------------------------------

def test_form_validation_and_degree():
    f = form_of_degree(3)
    assert f.degree == 3
    with pytest.raises(ValueError):
        AsymptoticForm((Fraction(1),), ())


def test_evaluate_polynomial_with_log():
    # f(x) = x^2 + 3 x log x at x = 7
    f = AsymptoticForm(
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(3), Fraction(0)),
    )
    with CTX.workprec():
        got = evaluate(f, 7, CTX)
        want = BoundedReal.exact(49) + 3 * 7 * BoundedReal.exact(7).log()
        assert got.agrees_with(want)
        assert abs(float((got - want).value)) < 1e-25


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


def test_s_r_weighted_bounded_real_input():
    nb = BoundedReal.exact(10)
    got = s_r_weighted(2, nb, lambda i: Fraction(1))
    assert got.contains(385)


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
