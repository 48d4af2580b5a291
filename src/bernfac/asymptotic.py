"""Asymptotic main terms of the studied products, evaluated at integers.

At an integer n the main terms log Q_r(n), log P_{r,k}(n) and the logs of
the Milnor-Husemoller comparison functions F and G are exact rationals
times log n, log 2 pi (or log pi), log k and log 2, plus an exact rational:
S_r(n), the harmonic numbers H_r and the Bernoulli numbers B_m are all
exact. Each function builds those rationals with Fraction arithmetic and
meets the logs once, in one integer sum (special._linear_in_logs) that
takes log n, log k and log 2 as integer logs. The main terms are memoized
per (arguments, context) by special._memoized.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from bernfac.precision import BoundedReal, PrecisionContext
from bernfac.special import (
    _linear_in_logs, _memoized, bernoulli, harmonic, log_two_pi, pi_const,
    zeta_neg_int,
)


def _signed_bernoulli(m: int) -> Fraction:
    # (-1)^m B_m: flips B_1 to +1/2, leaves every other index unchanged
    return Fraction((-1) ** m) * bernoulli(m)


# -- power sums ---------------------------------------------------------------

def s_r_coeffs(r: int) -> list:
    """Coefficients of S_r(n) = sum_{v<=n} v^r: index j holds the n^(j+1) term."""
    if r < 0:
        raise ValueError("s_r needs r >= 0")
    return [
        Fraction(math.comb(r, j)) * _signed_bernoulli(r - j) / (j + 1)
        for j in range(r + 1)
    ]


def s_r(r: int, n: int) -> Fraction:
    """S_r(n) via the Bernoulli closed form, exact."""
    return s_r_weighted(r, n, lambda i: Fraction(1))


def s_r_weighted(r: int, n: int, weight: Callable[[int], Fraction]):
    """S_r(n; f) = sum_j C(r,j) (-1)^(r-j) B_(r-j) n^(j+1) f(j+1)/(j+1).

    weight receives the index j+1 (the diamond slot).
    """
    total = Fraction(0)
    for j, c in enumerate(s_r_coeffs(r)):
        if c != 0:
            total = total + c * weight(j + 1) * Fraction(n) ** (j + 1)
    return total


# -- asymptotic main terms of the studied products ---------------------------

@_memoized
def q_r_log(r: int, n: int, ctx: PrecisionContext) -> BoundedReal:
    """Certified log Q_r(n).

    log Q_r(n) = (S_r(n) - zeta(-r)) log n + S_r(n; H_r - H_diamond). The
    -zeta(-r) log n part is what products over rescaled arguments
    n -> lambda n turn into a -zeta(-r) log lambda shift.
    """
    hr = harmonic(r)
    rest = s_r_weighted(r, n, lambda i: hr - harmonic(i))
    return _linear_in_logs(ctx, rest, (s_r(r, n) - zeta_neg_int(r), n))


def n_coeff(m: int, k: int) -> Fraction:
    """N_{m,k} = B_m / (m (m-1) k^(m-1)), the D_k tail coefficient."""
    if m < 2:
        raise ValueError("n_coeff needs m >= 2")
    return Fraction(bernoulli(m), m * (m - 1) * k ** (m - 1))


@_memoized
def p_rk_log(r: int, k: int, n: int, ctx: PrecisionContext) -> BoundedReal:
    """Certified log P_{r,k}(n), the k-dependent main term of prod (kv)!^(v^r).

    log P_{r,k}(n) = (1/2) S_r(n) log(2 pi k) + k S_{r+1}(n) log(k/e)
                     + N_{r+2,k} log n
                     + sum_{j=1..floor((r+1)/2)} N_{2j,k} S_{r+1-2j}(n).
    """
    if k < 1 or r < 0:
        raise ValueError("p_rk_log needs k >= 1, r >= 0")
    half_s = Fraction(s_r(r, n), 2)
    k_s = k * s_r(r + 1, n)
    rest = -k_s + sum(
        n_coeff(2 * j, k) * s_r(r + 1 - 2 * j, n)
        for j in range(1, (r + 1) // 2 + 1)
    )
    return _linear_in_logs(
        ctx, rest,
        (half_s, log_two_pi(ctx)),
        (half_s + k_s, k),
        (n_coeff(r + 2, k), n),
    )


# -- Milnor-Husemoller comparison functions ----------------------------------

@_memoized
def milnor_f_log(n: int, ctx: PrecisionContext) -> BoundedReal:
    """Certified log F(n) of the Milnor-Husemoller comparison function.

    F(n) = (n/(2 pi e^(3/2)))^(n^2/4) (8 pi e/n)^(n/4) / n^(1/24).
    """
    sq = Fraction(n * n, 4)
    return _linear_in_logs(
        ctx, Fraction(n, 4) - Fraction(3, 2) * sq,
        (sq - Fraction(n, 4) - Fraction(1, 24), n),
        (Fraction(n, 4) - sq, log_two_pi(ctx)),
        (Fraction(n, 2), 2),
    )


@_memoized
def milnor_g_log(n: int, ctx: PrecisionContext) -> BoundedReal:
    """Certified log G(n) of the Bernoulli-quotient comparison function.

    G(n) = (n/(pi e^(3/2)))^(n^2) (4n/(pi e))^(n/2) / n^(1/24).
    """
    half = Fraction(n, 2)
    return _linear_in_logs(
        ctx, -Fraction(3, 2) * n * n - half,
        (n * n + half - Fraction(1, 24), n),
        (-(n * n) - half, pi_const(ctx).log()),
        (n, 2),
    )
