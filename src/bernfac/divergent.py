"""Divergent series summed in fixed point: Stirling at x > 0, and x = 1.

The terms of these series first decrease in size and then blow up. Both
kinds run through special._sum_units in units of 2^-P, with every floor
and every coefficient's radius counted in the result:

- the Stirling tail sum_j B_2j/(2j(2j-1)) x^-(2j-1) of log x! at rational
  x > 0 (_stirling_terms). Its remainder after any number of terms is below
  the first omitted term, with its sign (DLMF 5.11(ii)), so log_factorial
  stops at the first term below the goal;
- the series of log F_(r,k) and log F_inf at x = 1 (smallest_term_sum),
  summed to the smallest term, which bounds the remainder with its sign.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Union

from bernfac.precision import (
    BoundedReal, PrecisionContext, PrecisionError, _from_units, _to_units,
)
from bernfac.special import (
    _fixed_point_plan,
    _sum_units,
    bernoulli,
    log_two_pi,
)


def _stirling_terms(big: Fraction, P: int):
    """The Stirling tail of log(big!) as a term source, in units of 2^-P.

    For big = a/b the j-th term B_2j/(2j(2j-1)) big^-(2j-1) is taken as
    t_j = floor(B_2j b^(2j-1) 2^P / (2j(2j-1) a^(2j-1))), off by less than
    one unit, so |t_j| + 1 bounds the remainder before j.
    """
    a, b = big.numerator, big.denominator
    num, den = b << P, a  # 2^P b^(2j-1) and a^(2j-1)
    for j in itertools.count(1):
        bern = bernoulli(2 * j)
        scale = bern.denominator * 2 * j * (2 * j - 1)
        t = bern.numerator * num // (scale * den)
        yield j, t, 1, abs(t) + 1
        num *= b * b
        den *= a * a


def log_factorial(
    x: Union[int, Fraction], ctx: PrecisionContext
) -> BoundedReal:
    """Certified log(x!) = log Gamma(x+1) for rational x > 0 via Stirling.

    Arguments too small for the Stirling tail to reach working precision
    are promoted: log(x!) = log((x+N)!) - log prod_{j=1..N} (x+j), the last
    the log of one exact rational. The tail is summed only until a term
    drops below the goal 2^-g < 10^-(working digits + 2), not to its
    smallest term; that term still bounds the remainder.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log_factorial needs x > 0")
    wd = ctx.working_digits
    g, P = _fixed_point_plan(ctx)
    # smallest Stirling term at argument X is ~ e^(-2 pi X); require
    # e^(-2 pi X) < goal, i.e. X > wd * ln(10)/(2 pi) ~ 0.3665 wd
    threshold = int(0.3665 * (wd + 6)) + 2
    for _ in range(6):
        N = max(0, threshold - int(x))
        big = x + N
        tail = _sum_units(_stirling_terms(big, P), 1 << (P - g))
        if tail is not None:
            units, radius, _ = tail
            with ctx.workprec():
                log_big = BoundedReal.exact(big).log()
                total = log_two_pi(ctx) / 2 + (big + Fraction(1, 2)) * log_big
                total = total - big + _from_units(units, radius, P)
                if N:  # prod_{j<=N} (x+j) = prod (a + j b) / b^N
                    a, b = x.numerator, x.denominator
                    rising = math.prod(a + j * b for j in range(1, N + 1))
                    rising = BoundedReal.exact(Fraction(rising, b ** N))
                    total = total - rising.log()
                return total
        threshold *= 2
    raise PrecisionError("log_factorial promotion did not converge")


def smallest_term_sum(coeff, j_start: int, ctx: PrecisionContext) -> tuple:
    """sum_{j >= j_start} coeff(j) at x = 1 to its smallest term m, in units.

    Returns (kept, omitted, m): the sum over j_start <= j < m, whose radius
    counts only the kept terms, and the enclosure of term m, which bounds
    the remainder and has its sign.
    """
    _, P = _fixed_point_plan(ctx)

    def terms():
        for j in itertools.count(j_start):
            t, e = _to_units(coeff(j), P)
            yield j, t, e, abs(t) + e

    total = _sum_units(terms(), None)
    if total is None:
        raise PrecisionError(f"the series from j = {j_start} never decreases")
    units, err, m = total
    t, e = _to_units(coeff(m), P)
    return _from_units(units, err - abs(t) - e, P), _from_units(t, e, P), m
