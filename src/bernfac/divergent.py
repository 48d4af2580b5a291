"""Divergent asymptotic series: optimal truncation with certified bounds.

The series handled here have terms t_j = c_j * x^-(2j-1) whose magnitudes
first decrease and then blow up. Truncating just before the first
non-decrease and bounding the remainder by the first omitted term is the
classical optimal-truncation rule; for the alternating Stirling-type tails
used here the Lindelof bound theta_m in (0,1) makes the first omitted term
a rigorous error bound, with its sign giving one-sided information.

eval_optimal sums a general tail in BoundedReal arithmetic. log_factorial
sums the Stirling tail at an exact rational argument in exact integers in
units of 2^-P, as special.zeta_family does: each term is one floor division,
and every floor is counted in the radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from mpmath import mpf

from bernfac.precision import BoundedReal, PrecisionContext, PrecisionError
from bernfac.special import (
    _fixed_point_plan,
    _from_units,
    bernoulli,
    log_two_pi,
)


class NoDecreaseError(PrecisionError):
    """The series terms never decreased: x is below the usable range."""


@dataclass(frozen=True)
class DivergentTail:
    """Tail sum_{j >= j_start} coeff(j) * x^-(2j-1) in the divergent sense."""

    coeff: Callable[[int], Union[Fraction, BoundedReal]]
    j_start: int
    description: str


@dataclass(frozen=True)
class TruncationResult:
    """Optimal truncation of a divergent tail at a fixed argument.

    partial_sum covers j_start <= j < m_opt. The true tail value equals
    partial_sum + theta * (first omitted term) with theta in (0,1), so
    remainder_bound = |omitted_term| is a rigorous error bound and the
    sign of omitted_term gives the direction of the residual.
    """

    partial_sum: BoundedReal
    m_opt: int
    remainder_bound: mpf
    omitted_term: BoundedReal


def eval_optimal(
    tail: DivergentTail,
    x: Union[BoundedReal, int, Fraction],
    ctx: PrecisionContext,
    j_max: int = 100_000,
) -> TruncationResult:
    """Sum a divergent tail at argument x to its smallest term.

    Terms are scanned from j_start and the scan stops at the first index
    m_opt = j where |t_(j+1)| >= |t_j| (t_j is the smallest term). The
    partial sum keeps j_start..j-1 and t_j becomes the remainder bound.
    Raises NoDecreaseError when even the second term fails to decrease.
    """
    with ctx.workprec():
        xb = x if isinstance(x, BoundedReal) else BoundedReal.exact(x)
        if xb.lower() <= 0:
            raise ValueError("eval_optimal needs x > 0")
        inv2 = (BoundedReal.exact(1) / xb).pow_int(2)
        xpow = (BoundedReal.exact(1) / xb).pow_int(2 * tail.j_start - 1)

        j = tail.j_start
        term = BoundedReal.exact(tail.coeff(j)) * xpow
        mag = term.abs_upper()
        partial = BoundedReal.exact(0)
        while mag != 0:
            xpow = xpow * inv2
            if j + 1 - tail.j_start > j_max:
                raise PrecisionError(f"no smallest term within {j_max} terms")
            nxt = BoundedReal.exact(tail.coeff(j + 1)) * xpow
            nxt_mag = nxt.abs_upper()
            if nxt_mag >= mag:
                if j == tail.j_start:
                    raise NoDecreaseError(
                        f"terms of {tail.description} never decrease at x={x}"
                    )
                break
            partial = partial + term
            term, mag = nxt, nxt_mag
            j += 1
        return TruncationResult(partial, j, mag, term)


def _stirling_units(big: Fraction, P: int, g: int):
    """The Stirling tail of log(big!) in units of 2^-P, or None.

    For big = a/b the j-th term B_2j/(2j(2j-1)) big^-(2j-1) is taken as
    term_j = floor(B_2j b^(2j-1) 2^P / (2j(2j-1) a^(2j-1))), within one
    unit of it. The scan stops at the first j with |term_j| + 1 < 2^(P-g)
    and returns (sum of the kept terms, radius, j). The radius counts one
    unit per kept floor plus |term_j| + 1, which bounds the remainder (DLMF
    5.11(ii)). None means the terms stopped decreasing before the goal.
    """
    a, b = big.numerator, big.denominator
    goal = 1 << (P - g)
    num, den = b << P, a  # 2^P b^(2j-1) and a^(2j-1)
    units, prev, j = 0, None, 1
    while True:
        bern = bernoulli(2 * j)
        scale = bern.denominator * 2 * j * (2 * j - 1)
        term = bern.numerator * num // (scale * den)
        mag = abs(term) + 1  # above the true |t_j|
        if mag < goal:
            return units, j - 1 + mag, j
        if prev is not None and mag >= prev:
            return None
        units += term
        prev = mag
        num *= b * b
        den *= a * a
        j += 1


def log_factorial(
    x: Union[int, Fraction], ctx: PrecisionContext
) -> BoundedReal:
    """Certified log(x!) = log Gamma(x+1) for rational x > 0 via Stirling.

    Arguments too small for the Stirling tail to reach working precision
    are promoted: log(x!) = log((x+N)!) - log prod_{j=1..N} (x+j), the last
    the log of one exact rational. The tail is summed in exact fixed-point
    integers (_stirling_units) only until a term drops below the goal
    2^-g < 10^-(working digits + 2), not to its smallest term: for real
    x > 0 the remainder after any number of terms is below the first
    neglected term (DLMF 5.11(ii)), so that term stays a rigorous bound.
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
        tail = _stirling_units(big, P, g)
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
