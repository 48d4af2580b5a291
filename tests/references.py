"""Independent references the tests hold the package against.

Not collected by pytest (no test_ prefix): the test modules import it.
exact_factorial_product builds the product the factorial-product targets
only ever log, and f_r1_log_zeta_form is a second route to log F_{r,1}.
References is the benchmark's set of mpmath-only formulas (its zeta,
loggamma and glaisher, never bernfac code), read from perfbench/ in place;
f_inf_reference builds F_inf's regularized product on them.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

from bernfac.precision import BoundedReal, PrecisionContext, mpf_to_fraction
from bernfac.special import bernoulli, pi_const, zeta_int

# the repository root makes perfbench/ importable as a namespace package
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.reference import References, exact_fraction, reference_dps  # noqa: E402


def contains_reference(x: BoundedReal, ref, digits: int) -> bool:
    """Whether x's enclosure holds an mpmath reference worked at
    reference_dps(digits) digits, less 5 digits for the reference's own error."""
    ref = exact_fraction(ref)
    slack = Fraction(1, 10 ** (reference_dps(digits) - 5)) * max(1, abs(ref))
    return abs(mpf_to_fraction(x.value) - ref) <= mpf_to_fraction(x.abs_err) + slack


def exact_factorial_product(k: int, n: int, r: int) -> int:
    """Exact prod_{v=1..n} (k v)!^(v^r) as a big integer."""
    if k < 1 or n < 0 or r < 0:
        raise ValueError("need k >= 1, n >= 0, r >= 0")
    product = 1
    fact = 1
    arg = 0
    for v in range(1, n + 1):
        for i in range(arg + 1, k * v + 1):
            fact *= i
        arg = k * v
        product *= pow(fact, v ** r)
    return product


def f_r1_log_zeta_form(r: int, ctx: PrecisionContext) -> BoundedReal:
    """log F_{r,1} for odd r as a real zeta series.

    (-1)^((r-1)/2) (r!/2) [ |B_{r+1}|/(r (r+1)!)
      + sum_{j=1..(r-1)/2} |B_{r+1-2j}| zeta(2j+1)/((r+1-2j)! (2pi)^(2j))
      - (r+2) zeta(r+2)/(2pi)^(r+1) ].
    """
    if r < 1 or r % 2 == 0:
        raise ValueError("the zeta form applies to odd r >= 1")
    with ctx.workprec():
        two_pi = pi_const(ctx) * 2
        acc = BoundedReal.exact(
            Fraction(abs(bernoulli(r + 1)), r * math.factorial(r + 1))
        )
        for j in range(1, (r - 1) // 2 + 1):
            acc = acc + zeta_int(2 * j + 1, ctx) * Fraction(
                abs(bernoulli(r + 1 - 2 * j)), math.factorial(r + 1 - 2 * j)
            ) / two_pi.pow_int(2 * j)
        acc = acc - zeta_int(r + 2, ctx) * Fraction(r + 2) / two_pi.pow_int(r + 1)
        sign = (-1) ** ((r - 1) // 2)
        return acc * Fraction(sign * math.factorial(r), 2)


def f_inf_reference(digits: int) -> tuple:
    """(F_inf, radius) from mpmath alone: its loggamma, glaisher, Hurwitz
    zeta and bernoulli, never bernfac code.

    The regularized product of the F_k, split at K = ceil((digits + 5)/2.73)
    and M = ceil(pi (K + 1)), so that its last term is below about
    10^-(digits + 5):

      log F_inf = gamma^2/12 + sum_{k<=K} (log F_k - gamma/(12k))
                  + sum_{2<=j<M} c_j zeta(2j-1) zeta(2j-1, K+1) + theta R,

    with c_j = B_2j/(2j(2j-1)), R = c_M zeta(2M-1) zeta(2M-1, K+1) and
    theta in (0, 1); log F_k is the closed form of References.f_k. mpmath's
    zeta(s, a) at w digits is accurate to about 10^-w absolutely, not
    relative to its size, so each tail carries log10|c_j| more digits. The
    value takes theta = 1/2, and the radius covers the other thetas and the
    working error at digits + 10 digits.
    """
    refs, dps = References(), digits + 10
    big_k = math.ceil((digits + 5) / 2.73)
    big_m = math.ceil(math.pi * (big_k + 1))

    def term(j):
        s = 2 * j - 1
        c = mpmath.bernoulli(2 * j) / (2 * j * s)
        with mpmath.workdps(dps + max(0, int(mpmath.log10(abs(c))) + 1)):
            tail = mpmath.zeta(s, big_k + 1)
        return c * mpmath.zeta(s) * tail

    with mpmath.workdps(dps):
        gamma = mpmath.euler
        log_f = gamma ** 2 / 12 + sum(term(j) for j in range(2, big_m))
        for k in range(1, big_k + 1):
            log_f += mpmath.log(refs.f_k(k, dps)) - gamma / (12 * k)
        last = term(big_m)
        value = mpmath.exp(log_f + last / 2)
        return value, value * abs(last) + mpmath.mpf(10) ** (5 - dps)
