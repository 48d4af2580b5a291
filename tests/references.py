"""Independent references the tests hold the package against.

Not collected by pytest (no test_ prefix): the test modules import it.
exact_factorial_product builds the product the factorial-product targets
only ever log, and f_r1_log_zeta_form is a second route to log F_{r,1}.
References is the benchmark's set of mpmath-only formulas (its zeta,
loggamma and glaisher, never bernfac code), read from perfbench/ in place.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

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
