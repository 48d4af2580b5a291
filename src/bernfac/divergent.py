"""Divergent series at x = 1, summed in fixed point to the smallest term.

The series of log F_(r,k) and log F_inf first decrease in size and then
blow up. smallest_term_sum runs them through special._sum_units in units
of 2^-P, with every floor and every coefficient's radius counted in the
result, and stops at the smallest term, which bounds the remainder with its
sign. The Stirling series of log Gamma lives in special.
"""

from __future__ import annotations

import itertools

from bernfac.precision import PrecisionContext, PrecisionError, _from_units, _to_units
from bernfac.special import _plan, _sum_units


def smallest_term_sum(coeff, j_start: int, ctx: PrecisionContext) -> tuple:
    """sum_{j >= j_start} coeff(j) at x = 1 to its smallest term m, in units.

    Returns (kept, omitted, m): the sum over j_start <= j < m, whose radius
    counts only the kept terms, and the enclosure of term m, which bounds
    the remainder and has its sign.
    """
    P = _plan(ctx).P

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
