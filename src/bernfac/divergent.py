"""Divergent asymptotic series: optimal truncation with certified bounds.

The series handled here have terms t_j = c_j * x^-(2j-1) whose magnitudes
first decrease and then blow up. Truncating just before the first
non-decrease and bounding the remainder by the first omitted term is the
classical optimal-truncation rule; for the alternating Stirling-type tails
used here the Lindelof bound theta_m in (0,1) makes the first omitted term
a rigorous error bound, with its sign giving one-sided information.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from mpmath import mpf

from bernfac.precision import (
    BoundedReal,
    PrecisionContext,
    PrecisionError,
    _add_up,
)
from bernfac.special import bernoulli, log_two_pi


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


def stirling_tail() -> DivergentTail:
    """Correction tail of log Gamma(x+1): sum B_2j/(2j(2j-1)) x^-(2j-1)."""
    return DivergentTail(
        coeff=lambda j: Fraction(bernoulli(2 * j), 2 * j * (2 * j - 1)),
        j_start=1,
        description="stirling",
    )


def eval_optimal(
    tail: DivergentTail,
    x: Union[BoundedReal, int, Fraction],
    ctx: PrecisionContext,
    goal: Union[mpf, None] = None,
    j_max: int = 100_000,
) -> TruncationResult:
    """Sum a divergent tail at argument x, to its smallest term or to a goal.

    Terms are scanned from j_start and the scan stops at the first index
    m_opt = j where either |t_j| < goal (when a goal is given) or
    |t_(j+1)| >= |t_j| (t_j is the smallest term). The partial sum keeps
    j_start..j-1 and t_j becomes the remainder bound.

    The goal stop is only sound for tails whose remainder is bounded by the
    first omitted term at every truncation index, not just the optimal one.
    The Stirling tail at real x > 0 is such a tail: its remainder has the
    sign of the first neglected term and is smaller in magnitude (DLMF
    5.11(ii)). Without a goal the scan runs to the smallest term.
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
        while mag != 0 and (goal is None or mag >= goal):
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


def log_factorial(
    x: Union[int, Fraction, BoundedReal], ctx: PrecisionContext
) -> BoundedReal:
    """Certified log(x!) = log Gamma(x+1) for real x > 0 via Stirling.

    Arguments too small for the Stirling tail to reach working precision
    are promoted: log(x!) = log((x+N)!) - sum_{j=1..N} log(x+j).
    The Stirling tail is summed only until a term drops below the goal
    10^-(working digits + 2), not to its smallest term: for real x > 0 the
    remainder after any number of terms is below the first neglected term
    (DLMF 5.11(ii)), so that term stays a rigorous bound.
    """
    with ctx.workprec():
        xb = x if isinstance(x, BoundedReal) else BoundedReal.exact(x)
        if xb.lower() <= 0:
            raise ValueError("log_factorial needs x > 0")
        wd = ctx.working_digits
        goal = mpf(10) ** (-(wd + 2))
        # smallest Stirling term at argument X is ~ e^(-2 pi X); require
        # e^(-2 pi X) < goal, i.e. X > wd * ln(10)/(2 pi) ~ 0.3665 wd
        threshold = int(0.3665 * (wd + 6)) + 2
        for _ in range(6):
            N = max(0, threshold - int(xb.lower()))
            big = xb + N
            trunc = eval_optimal(stirling_tail(), big, ctx, goal=goal)
            if trunc.remainder_bound < goal * 100:
                base = (
                    log_two_pi(ctx) / 2
                    + (big + Fraction(1, 2)) * big.log()
                    - big
                )
                total = base + trunc.partial_sum
                total = BoundedReal(
                    total.value, _add_up(total.abs_err, trunc.remainder_bound)
                )
                for j in range(1, N + 1):
                    total = total - (xb + j).log()
                return total
            threshold *= 2
        raise PrecisionError("log_factorial promotion did not converge")
