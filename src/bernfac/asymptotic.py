"""Algebra of asymptotic main terms: spans of x^v and x^v log x.

A form f(x) = sum_v (alpha_v x^v + beta_v x^v log x) captures the main
term of the log of the products studied here; its constant term alpha_0
is the asymptotic constant once the divergent remainder is split off, and
evaluate gives f(x) with a certified bound.

Coefficients are exact Fractions where the math is exact, BoundedReal
otherwise; the two mix freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from bernfac.precision import BoundedReal, PrecisionContext
from bernfac.special import bernoulli, harmonic, log_two_pi, pi_const, zeta_neg_int

Coeff = Union[Fraction, BoundedReal]
Exactish = Union[int, Fraction]


def _signed_bernoulli(m: int) -> Fraction:
    # (-1)^m B_m: flips B_1 to +1/2, leaves every other index unchanged
    return Fraction((-1) ** m) * bernoulli(m)


@dataclass(frozen=True)
class AsymptoticForm:
    """f(x) = sum_{v=0..degree} (alpha[v] x^v + beta[v] x^v log x)."""

    alpha: tuple
    beta: tuple

    def __post_init__(self) -> None:
        if len(self.alpha) != len(self.beta) or not self.alpha:
            raise ValueError("alpha and beta must have equal positive length")

    @property
    def degree(self) -> int:
        return len(self.alpha) - 1


def _is_zero(c: Coeff) -> bool:
    return isinstance(c, Fraction) and c == 0


def form_of_degree(degree: int) -> AsymptoticForm:
    z = tuple(Fraction(0) for _ in range(degree + 1))
    return AsymptoticForm(z, z)


def _with(form: AsymptoticForm, kind: str, v: int, delta: Coeff) -> AsymptoticForm:
    a, b = list(form.alpha), list(form.beta)
    if kind == "alpha":
        a[v] = a[v] + delta
    else:
        b[v] = b[v] + delta
    return AsymptoticForm(tuple(a), tuple(b))


def evaluate(
    form: AsymptoticForm, x: Union[Exactish, BoundedReal], ctx: PrecisionContext
) -> BoundedReal:
    """Certified value f(x) for x > 0."""
    with ctx.workprec():
        xb = x if isinstance(x, BoundedReal) else BoundedReal.exact(x)
        log_x = xb.log()
        total = BoundedReal.exact(0)
        for v in range(form.degree, -1, -1):
            coeff = BoundedReal.exact(0)
            if not _is_zero(form.alpha[v]):
                coeff = coeff + form.alpha[v]
            if not _is_zero(form.beta[v]):
                coeff = coeff + form.beta[v] * log_x
            total = total * xb + coeff
        return total


# -- power sums ---------------------------------------------------------------

def s_r_coeffs(r: int) -> list:
    """Coefficients of S_r(n) = sum_{v<=n} v^r: index j holds the n^(j+1) term."""
    if r < 0:
        raise ValueError("s_r needs r >= 0")
    return [
        Fraction(math.comb(r, j)) * _signed_bernoulli(r - j) / (j + 1)
        for j in range(r + 1)
    ]


def s_r(r: int, n: Union[Exactish, BoundedReal]):
    """S_r(n) via the Bernoulli closed form; exact for exact n."""
    return s_r_weighted(r, n, lambda i: Fraction(1))


def s_r_weighted(
    r: int,
    n: Union[Exactish, BoundedReal],
    weight: Callable[[int], Coeff],
):
    """S_r(n; f) = sum_j C(r,j) (-1)^(r-j) B_(r-j) n^(j+1) f(j+1)/(j+1).

    weight receives the index j+1 (the diamond slot). Exact inputs with
    exact weights give a Fraction; BoundedReal anywhere gives BoundedReal.
    """
    coeffs = s_r_coeffs(r)
    if isinstance(n, int):
        n = Fraction(n)
    total: Coeff = Fraction(0)
    for j in range(r + 1):
        if coeffs[j] == 0:
            continue
        w = weight(j + 1)
        if _is_zero(w):
            continue
        if isinstance(n, Fraction):
            npow: Coeff = n ** (j + 1)
        else:
            npow = n.pow_int(j + 1)
        total = total + coeffs[j] * w * npow
    return total


# -- asymptotic main terms of the studied products ---------------------------

def q_r_form(r: int) -> AsymptoticForm:
    """Form of log Q_r: (S_r(n) - zeta(-r)) log n + S_r(n; H_r - H_diamond).

    All coefficients are exact Fractions. The constant term alpha_0 is 0;
    the beta_0 slot carries -zeta(-r), so products over rescaled arguments
    n -> lambda n pick up the -zeta(-r) log lambda shift.
    """
    coeffs = s_r_coeffs(r)
    hr = harmonic(r)
    alpha = [Fraction(0)] * (r + 2)
    beta = [Fraction(0)] * (r + 2)
    beta[0] = -zeta_neg_int(r)
    for j in range(r + 1):
        beta[j + 1] = coeffs[j]
        alpha[j + 1] = coeffs[j] * (hr - harmonic(j + 1))
    return AsymptoticForm(tuple(alpha), tuple(beta))


def q_r_log(
    r: int, n: Union[Exactish, BoundedReal], ctx: PrecisionContext
) -> BoundedReal:
    """Certified log Q_r(n)."""
    return evaluate(q_r_form(r), n, ctx)


def n_coeff(m: int, k: int) -> Fraction:
    """N_{m,k} = B_m / (m (m-1) k^(m-1)), the D_k tail coefficient."""
    if m < 2:
        raise ValueError("n_coeff needs m >= 2")
    return Fraction(bernoulli(m), m * (m - 1) * k ** (m - 1))


def p_rk_form(r: int, k: int, ctx: PrecisionContext) -> AsymptoticForm:
    """Form of log P_{r,k}: the k-dependent main term of prod (kv)!^(v^r).

    log P_{r,k}(n) = (1/2) S_r(n) log(2 pi k) + k S_{r+1}(n) log(k/e)
                     + N_{r+2,k} log n
                     + sum_{j=1..floor((r+1)/2)} N_{2j,k} S_{r+1-2j}(n).
    """
    if k < 1 or r < 0:
        raise ValueError("p_rk_form needs k >= 1, r >= 0")
    with ctx.workprec():
        log_2pik: Coeff
        log_k: Coeff
        if k == 1:
            log_2pik = log_two_pi(ctx)
            log_k = Fraction(0)
        else:
            log_2pik = log_two_pi(ctx) + BoundedReal.exact(k).log()
            log_k = BoundedReal.exact(k).log()
        form = form_of_degree(r + 2)
        half_log = log_2pik * Fraction(1, 2)
        for j, c in enumerate(s_r_coeffs(r)):
            if c != 0:
                form = _with(form, "alpha", j + 1, c * half_log)
        # log(k/e) stays an exact Fraction for k = 1
        log_k_over_e: Coeff = log_k - Fraction(1) if isinstance(log_k, Fraction) else log_k - 1
        for j, c in enumerate(s_r_coeffs(r + 1)):
            if c != 0:
                form = _with(form, "alpha", j + 1, c * k * log_k_over_e)
        nr2 = n_coeff(r + 2, k)
        if nr2 != 0:
            form = _with(form, "beta", 0, nr2)
        for j in range(1, (r + 1) // 2 + 1):
            njk = n_coeff(2 * j, k)
            for i, c in enumerate(s_r_coeffs(r + 1 - 2 * j)):
                if c != 0:
                    form = _with(form, "alpha", i + 1, c * njk)
        return form


def p_rk_log(
    r: int, k: int, n: Union[Exactish, BoundedReal], ctx: PrecisionContext
) -> BoundedReal:
    """Certified log P_{r,k}(n)."""
    return evaluate(p_rk_form(r, k, ctx), n, ctx)


# -- Milnor-Husemoller comparison functions ----------------------------------

def milnor_f_form(ctx: PrecisionContext) -> AsymptoticForm:
    """Form of log F: F(n) = (n/(2 pi e^(3/2)))^(n^2/4) (8 pi e/n)^(n/4) / n^(1/24)."""
    with ctx.workprec():
        log_2pi = log_two_pi(ctx)
        return AsymptoticForm(
            alpha=(
                Fraction(0),
                (log_2pi + 2 * BoundedReal.exact(2).log() + 1) * Fraction(1, 4),
                -(log_2pi + Fraction(3, 2)) * Fraction(1, 4),
            ),
            beta=(Fraction(-1, 24), Fraction(-1, 4), Fraction(1, 4)),
        )


def milnor_g_form(ctx: PrecisionContext) -> AsymptoticForm:
    """Form of log G: G(n) = (n/(pi e^(3/2)))^(n^2) (4n/(pi e))^(n/2) / n^(1/24)."""
    with ctx.workprec():
        log_pi = pi_const(ctx).log()
        return AsymptoticForm(
            alpha=(
                Fraction(0),
                (BoundedReal.exact(4).log() - log_pi - 1) * Fraction(1, 2),
                -(log_pi + Fraction(3, 2)),
            ),
            beta=(Fraction(-1, 24), Fraction(1, 2), Fraction(1)),
        )


def milnor_f_log(
    n: Union[Exactish, BoundedReal], ctx: PrecisionContext
) -> BoundedReal:
    """Certified log F(n) of the Milnor-Husemoller comparison function."""
    return evaluate(milnor_f_form(ctx), n, ctx)


def milnor_g_log(
    n: Union[Exactish, BoundedReal], ctx: PrecisionContext
) -> BoundedReal:
    """Certified log G(n) of the Bernoulli-quotient comparison function."""
    return evaluate(milnor_g_form(ctx), n, ctx)
