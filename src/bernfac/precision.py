"""Working-precision management and error-tracked reals.

Every inexact quantity in this package is a BoundedReal: an mpmath float
paired with a rigorous absolute error bound, so that the interval
value +- abs_err always contains the mathematically exact result, provided
the inputs' intervals contained theirs. Exact data (integers, rationals) is
kept in fractions.Fraction and enters BoundedReal arithmetic only at the
last moment.

Precision: PrecisionContext is the one source of working precision. Its
workprec() sets a context variable to ctx.prec bits for the block, and
every BoundedReal operation reads that variable; outside any workprec()
block it is 53 bits, mpmath's default. mpmath's global precision is neither
read nor written, so each thread and each asyncio task has its own working
precision.

Rounding: each operation rounds its midpoint to nearest at the working
precision and adds |v| * 2^(4 - prec) to the radius for that rounding.
Radii are summed, multiplied and divided at RADIUS_PREC = 64 bits, always
rounded upward. upper() and lower() give the interval ends at working
precision, rounded with ceiling and floor. Every directed sum of a midpoint
and a radius goes through _directed, which avoids a wrong-side rounding.

Radii are built, rounded and read only in this module. Other modules pass
exact radii (int, Fraction or mpf): BoundedReal(x, extra) keeps the
midpoint of the ball x bit for bit and adds extra to its radius, rounded
upward. _to_units and _from_units cross to and from integer units of
2^-P, and _hull joins two balls. contains and agrees_with compare a ball
with a number or another ball exactly, in integers (_within).

Printing: round_to_digits and _decimal read the raw midpoint and radius.
One integer scaling of the mantissa by 10^q (from a cache) gives the
digits, and the same q decides the '~' certificate; for a long 10^|q|, a
directed enclosure of the scaled value does both.
"""

from __future__ import annotations

import contextlib
import functools
import math
from contextvars import ContextVar
from fractions import Fraction
from operator import itemgetter
from typing import Union

from mpmath import mp, mpf
from mpmath.libmp import (
    dps_to_prec,
    from_float,
    from_man_exp,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sub,
    normalize,
    round_ceiling,
    round_floor,
    round_nearest,
    to_int,
)
import mpmath


class PrecisionError(ArithmeticError):
    """An operation could not certify the requested precision."""


class PrecisionContext(tuple):
    """Target output digits plus guard digits for intermediate work.

    An immutable (target_digits, guard_digits) pair. It is a tuple so that
    a memo key holding it is hashed and compared in C; like any tuple it
    also equals the plain tuple of its two fields.
    """

    __slots__ = ()

    def __new__(cls, target_digits: int, guard_digits: int) -> "PrecisionContext":
        if target_digits < 1:
            raise ValueError("target_digits must be at least 1")
        if guard_digits < 10:
            raise ValueError("guard_digits must be at least 10")
        return tuple.__new__(cls, (target_digits, guard_digits))

    def __getnewargs__(self) -> tuple:  # copy and pickle call __new__ with these
        return tuple(self)

    def __repr__(self) -> str:
        return f"PrecisionContext(target_digits={self[0]}, guard_digits={self[1]})"

    target_digits = property(itemgetter(0))
    guard_digits = property(itemgetter(1))

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits

    @property
    def prec(self) -> int:
        """Working precision in bits: working_digits decimal digits."""
        return dps_to_prec(self.working_digits)

    @contextlib.contextmanager
    def workprec(self):
        """Run the block's BoundedReal operations at self.prec bits.

        Sets the precision of the calling thread or task only, and restores
        the enclosing one on exit; mpmath's global precision is untouched.
        """
        token = _prec.set(self.prec)
        try:
            yield
        finally:
            _prec.reset(token)


@functools.lru_cache(maxsize=256)
def make_context(target_digits: int) -> PrecisionContext:
    """Context with the default guard policy: max(10, ceil(target/10)).

    Interned: a repeated target returns the same context object.
    """
    return PrecisionContext(target_digits, max(10, -(-target_digits // 10)))


# Raw-tuple arithmetic. Values and radii are mpmath.libmp raw tuples
# (sign, man, exp, bc). Each operation reads the working precision once and
# passes the precision and rounding mode to libmp explicitly: the midpoint
# is rounded to nearest at working precision, while radii are summed,
# multiplied and divided at RADIUS_PREC bits, always rounded upward (Arb's
# mag_t scheme).

RADIUS_PREC = 64

# The working precision in bits, set by PrecisionContext.workprec; 53 bits,
# mpmath's default, outside any workprec() block.
_prec: ContextVar = ContextVar("bernfac_working_prec", default=53)
_get_prec = _prec.get

_make_mpf = mp.make_mpf


def _ulp_slop(t: tuple, prec: int) -> tuple:
    """Generous bound on the rounding error of one mpmath op that produced t.

    Basic mpf arithmetic is correctly rounded (<= 0.5 ulp) and the
    transcendental functions used here are accurate to ~1 ulp, so
    |t| * 2^(4 - prec), rounded up to RADIUS_PREC bits, covers a single
    operation at precision prec with a wide margin.
    """
    _, man, exp, bc = t
    if not man:
        return fzero
    return normalize(0, man, exp + 4 - prec, bc, RADIUS_PREC, round_ceiling)


def _directed(op, v: tuple, e: tuple, prec: int, rnd) -> tuple:
    """v + e or v - e (op mpf_add or mpf_sub) for a radius e, rounded to
    prec bits in direction rnd.

    mpf_add counts an operand whose exponent is over 100 bits below the
    other's as lying below all of the other's bits, which rounds the wrong
    way if the larger is longer than prec and the smaller reaches into it.
    That needs an operand over 100 bits long and one over prec bits. A
    radius of at most min(prec, 64) bits, as BoundedReal operations make,
    rules it out; a longer one is rounded up, and v outward, to prec bits.
    """
    if e[3] > min(prec, RADIUS_PREC):
        v = normalize(*v, prec, rnd) if v[3] > prec else v
        e = normalize(*e, prec, round_ceiling) if e[3] > prec else e
    return op(v, e, prec, rnd)


def _upward(x) -> tuple:
    """Raw tuple of the number x: exact for mpf and float, else rounded up
    to RADIUS_PREC bits."""
    if isinstance(x, mpf):
        return x._mpf_
    if isinstance(x, float):
        return from_float(x)
    x = Fraction(x)
    return from_rational(x.numerator, x.denominator, RADIUS_PREC, round_ceiling)


def mpf_to_fraction(v) -> Fraction:
    """Exact rational value of a finite mpf or float (both are dyadic).

    Never reconstructs an existing mpf: mpf(x) rounds to mpmath's global
    precision, which would silently truncate values produced at a higher
    working precision.
    """
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"cannot convert {v} to a fraction")
        return Fraction(v)
    if not isinstance(v, mpf):
        v = mpf(v)
    if not mpmath.isfinite(v):
        raise ValueError(f"cannot convert {v} to a fraction")
    sign, man, exp, _ = v._mpf_
    if man == 0:
        return Fraction(0)
    frac = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -frac if sign else frac


class BoundedReal:
    """A real number known to lie in [value - abs_err, value + abs_err].

    Immutable. The midpoint and radius are held as raw libmp tuples;
    ``value`` and ``abs_err`` give them as mpf.
    """

    __slots__ = ("_v", "_e")

    def __new__(cls, value, abs_err) -> "BoundedReal":
        # an mpf value keeps every bit. Any other value goes through
        # exact(), and the radius of its rounding joins abs_err; so a
        # BoundedReal value keeps its midpoint and is widened by abs_err. A
        # non-mpf radius is rounded upward so that it still covers the one given
        err = _upward(abs_err)
        if isinstance(value, mpf):
            return _raw(value._mpf_, err)
        x = BoundedReal.exact(value)
        if x._e[1] and not err[0]:  # _raw refuses a negative err
            err = mpf_add(err, x._e, RADIUS_PREC, round_ceiling)
        return _raw(x._v, err)

    def __setattr__(self, name, value):
        raise AttributeError("BoundedReal is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return BoundedReal, (self.value, self.abs_err)

    @property
    def value(self) -> mpf:
        return _make_mpf(self._v)

    @property
    def abs_err(self) -> mpf:
        return _make_mpf(self._e)

    def __eq__(self, other):
        if type(other) is not BoundedReal:
            return NotImplemented
        return self._v == other._v and self._e == other._e

    def __hash__(self) -> int:
        return hash((self._v, self._e))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(x: Union[int, Fraction, float, mpf]) -> "BoundedReal":
        """Wrap a number, exactly if representable, else with an ulp bound.

        An int or dyadic Fraction stays exact up to prec significant bits; a
        longer one is rounded to nearest at working precision in one step,
        so the log of an exact integer of any size is exact(n).log().
        """
        if isinstance(x, BoundedReal):
            return x
        if isinstance(x, int):
            return _rounded(x, 0)
        if isinstance(x, Fraction):
            p, q = x.numerator, x.denominator
            if q & (q - 1) == 0:  # dyadic: exact unless p is too long
                return _rounded(p, 1 - q.bit_length())
            prec = _get_prec()
            v = from_rational(p, q, prec, round_nearest)
            return _raw(v, _ulp_slop(v, prec))
        if isinstance(x, mpf):
            return _raw(x._mpf_, fzero)
        if isinstance(x, float):
            return _raw(from_float(x), fzero)
        raise TypeError(f"cannot promote {type(x).__name__} to BoundedReal")

    # -- interval views ----------------------------------------------------

    def upper(self) -> mpf:
        return _make_mpf(_directed(mpf_add, self._v, self._e, _get_prec(), round_ceiling))

    def lower(self) -> mpf:
        return _make_mpf(_directed(mpf_sub, self._v, self._e, _get_prec(), round_floor))

    def abs_upper(self) -> mpf:
        v = mpf_abs(self._v)
        return _make_mpf(_directed(mpf_add, v, self._e, _get_prec(), round_ceiling))

    def contains(self, x: Union[int, Fraction, float, mpf]) -> bool:
        """Whether the exact number x lies in the certified interval."""
        if isinstance(x, (mpf, float)):
            x = mpf_to_fraction(x)
        x = Fraction(x)
        return _within(self._v, x.numerator, x.denominator, 0, (self._e,))

    def agrees_with(self, other: "BoundedReal") -> bool:
        """Whether the two certified intervals overlap (exact test)."""
        sign, man, exp, _ = other._v
        return _within(self._v, -man if sign else man, 1, exp, (self._e, other._e))

    def __float__(self) -> float:
        return float(self.value)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "BoundedReal":
        if type(other) is not BoundedReal:
            other = BoundedReal.exact(other)
        return _sum(self, other, mpf_add)

    __radd__ = __add__

    def __neg__(self) -> "BoundedReal":
        return _raw(mpf_neg(self._v), self._e)

    def __sub__(self, other) -> "BoundedReal":
        if type(other) is not BoundedReal:
            other = BoundedReal.exact(other)
        return _sum(self, other, mpf_sub)

    def __rsub__(self, other) -> "BoundedReal":
        return _sum(BoundedReal.exact(other), self, mpf_sub)

    def __mul__(self, other) -> "BoundedReal":
        if type(other) is not BoundedReal:
            other = BoundedReal.exact(other)
        a, b, ea, eb = self._v, other._v, self._e, other._e
        prec = _get_prec()
        v = mpf_mul(a, b, prec, round_nearest)
        err = _ulp_slop(v, prec)
        # |a| eb + |b| ea + ea eb, as |a| eb + (|b| + eb) ea
        if eb[1]:
            err = mpf_add(err, mpf_mul(mpf_abs(a), eb, RADIUS_PREC, round_ceiling),
                          RADIUS_PREC, round_ceiling)
            if ea[1]:
                scale = _directed(mpf_add, mpf_abs(b), eb, RADIUS_PREC, round_ceiling)
                err = mpf_add(err, mpf_mul(scale, ea, RADIUS_PREC, round_ceiling),
                              RADIUS_PREC, round_ceiling)
        elif ea[1]:
            err = mpf_add(err, mpf_mul(mpf_abs(b), ea, RADIUS_PREC, round_ceiling),
                          RADIUS_PREC, round_ceiling)
        return _raw(v, err)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BoundedReal":
        if type(other) is not BoundedReal:
            other = BoundedReal.exact(other)
        a, b, ea, eb = self._v, other._v, self._e, other._e
        abs_b = mpf_abs(b)
        denom_low = _directed(mpf_sub, abs_b, eb, RADIUS_PREC, round_floor)
        if denom_low[0] or not denom_low[1]:
            raise PrecisionError("division by an interval containing zero")
        prec = _get_prec()
        v = mpf_div(a, b, prec, round_nearest)
        err = _ulp_slop(v, prec)
        if ea[1] or eb[1]:
            # |a/b - (a+s)/(b+t)| <= (|b| ea + |a| eb) / (|b| (|b| - eb));
            # the denominator is rounded down so the quotient is an upper bound
            num = mpf_add(
                mpf_mul(abs_b, ea, RADIUS_PREC, round_ceiling),
                mpf_mul(mpf_abs(a), eb, RADIUS_PREC, round_ceiling),
                RADIUS_PREC, round_ceiling,
            )
            den = mpf_mul(abs_b, denom_low, RADIUS_PREC, round_floor)
            err = mpf_add(err, mpf_div(num, den, RADIUS_PREC, round_ceiling),
                          RADIUS_PREC, round_ceiling)
        return _raw(v, err)

    def __rtruediv__(self, other) -> "BoundedReal":
        return BoundedReal.exact(other) / self

    def __abs__(self) -> "BoundedReal":
        return _raw(mpf_abs(self._v), self._e)

    # -- transcendental operations -----------------------------------------

    def exp(self) -> "BoundedReal":
        d = self._e
        prec = _get_prec()
        v = mpf_exp(self._v, prec, round_nearest)
        err = _ulp_slop(v, prec)
        if d[1]:
            # |e^(x+t) - e^x| <= e^x (e^d - 1) <= e^x * d * e^d for |t| <= d.
            # mpf_exp is accurate to well under an ulp but does not promise
            # to round in the requested direction, hence the 2^(4-RADIUS_PREC)
            # relative pad on e^d.
            exp_d = mpf_exp(d, RADIUS_PREC, round_ceiling)
            exp_d = mpf_add(exp_d, mpf_shift(exp_d, 4 - RADIUS_PREC),
                            RADIUS_PREC, round_ceiling)
            growth = mpf_mul(d, exp_d, RADIUS_PREC, round_ceiling)
            top = mpf_add(v, err, RADIUS_PREC, round_ceiling)  # >= e^x
            err = mpf_add(err, mpf_mul(top, growth, RADIUS_PREC, round_ceiling),
                          RADIUS_PREC, round_ceiling)
        return _raw(v, err)

    def log(self) -> "BoundedReal":
        x, d = self._v, self._e
        low = _directed(mpf_sub, x, d, RADIUS_PREC, round_floor)
        if low[0] or not low[1]:
            raise PrecisionError("log of an interval touching zero")
        prec = _get_prec()
        v = mpf_log(x, prec, round_nearest)
        err = _ulp_slop(v, prec)
        if d[1]:
            # |log(x+t) - log(x)| <= d / (x - d) for |t| <= d
            err = mpf_add(err, mpf_div(d, low, RADIUS_PREC, round_ceiling),
                          RADIUS_PREC, round_ceiling)
        return _raw(v, err)

    def pow_int(self, n: int) -> "BoundedReal":
        if n == 0:
            return BoundedReal.exact(1)
        if n < 0:
            return BoundedReal.exact(1) / self.pow_int(-n)
        result = BoundedReal.exact(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def power(self, e: Union[int, Fraction]) -> "BoundedReal":
        """x^e for rational e; non-integer exponents require x > 0."""
        if isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1):
            return self.pow_int(int(e))
        return (self.log() * BoundedReal.exact(e)).exp()

    def sqrt(self) -> "BoundedReal":
        return self.power(Fraction(1, 2))

    def __repr__(self) -> str:
        return f"BoundedReal({mpmath.nstr(self.value, 12)}, err<={mpmath.nstr(self.abs_err, 3)})"


_new = object.__new__
_set_v = BoundedReal._v.__set__
_set_e = BoundedReal._e.__set__


def _raw(v: tuple, e: tuple) -> BoundedReal:
    """BoundedReal from raw tuples, with the public constructor's checks."""
    # a zero mantissa is either fzero or one of finf, fninf, fnan
    if (not v[1] and v != fzero) or (not e[1] and e != fzero):
        raise PrecisionError("non-finite BoundedReal")
    if e[0]:
        raise ValueError("abs_err must be nonnegative")
    x = _new(BoundedReal)
    _set_v(x, v)
    _set_e(x, e)
    return x


def _rounded(man: int, exp: int) -> BoundedReal:
    """man 2^exp, exact if man has at most prec significant bits, else
    rounded to nearest at working precision, with its ulp slop.

    A man longer than prec bits is rounded in one step: from_man_exp with
    no precision would first strip its trailing zeros a byte at a time,
    which takes seconds for a 10^6-bit man.
    """
    prec = _get_prec()
    bits = man.bit_length()
    if bits <= prec:
        return _raw(from_man_exp(man, exp), fzero)
    v = from_man_exp(man, exp, prec, round_nearest)
    if bits - (man & -man).bit_length() < prec:  # the dropped bits are zeros
        return _raw(v, fzero)
    return _raw(v, _ulp_slop(v, prec))


def _within(v: tuple, n: int, q: int, t: int, radii: tuple) -> bool:
    """|v - n 2^t / q| <= the sum of radii, for a raw v, raw radii and q > 0.

    Decided by integer cross-multiplication: both sides times q 2^-s, with
    s the least exponent among v, n 2^t and the radii that are not zero, so
    that every term is an integer.
    """
    sign, man, exp, _ = v
    radii = [(e[1], e[2]) for e in radii if e[1]]
    s = min([e for m, e in ((man, exp), (n, t), *radii) if m], default=0)
    mid = q * (man << (exp - s)) if man else 0
    gap = abs((-mid if sign else mid) - (n << (t - s) if n else 0))
    return gap <= q * sum(m << (e - s) for m, e in radii)


def _sum(x: BoundedReal, y: BoundedReal, op) -> BoundedReal:
    """x + y or x - y, as op is mpf_add or mpf_sub."""
    prec = _get_prec()
    v = op(x._v, y._v, prec, round_nearest)
    err = _ulp_slop(v, prec)
    if x._e[1]:
        err = mpf_add(err, x._e, RADIUS_PREC, round_ceiling)
    if y._e[1]:
        err = mpf_add(err, y._e, RADIUS_PREC, round_ceiling)
    return _raw(v, err)


def _hull(lo: BoundedReal, hi: BoundedReal) -> BoundedReal:
    """The ball about (lo + hi)/2 that holds lo.lower() and hi.upper().

    Its radius is the larger distance from the centre to those ends,
    rounded up at working precision, not at RADIUS_PREC.
    """
    prec = _get_prec()
    centre = ((lo + hi) * Fraction(1, 2))._v
    top = mpf_sub(hi.upper()._mpf_, centre, prec, round_ceiling)
    bottom = mpf_sub(centre, lo.lower()._mpf_, prec, round_ceiling)
    return _raw(centre, top if mpf_cmp(top, bottom) >= 0 else bottom)


# -- crossings from libmp constants and integer units of 2^-P ----------------

def _const(mpf_const, ctx: PrecisionContext) -> BoundedReal:
    """A libmp constant rounded to nearest at ctx.prec, with its ulp slop."""
    prec = ctx.prec
    v = mpf_const(prec, round_nearest)
    return _raw(v, _ulp_slop(v, prec))


def _from_units(units: int, err: int, P: int) -> BoundedReal:
    """units * 2^-P with radius err * 2^-P, both exact."""
    return _raw(from_man_exp(units, -P), from_man_exp(err, -P))


def _to_units(x: BoundedReal, P: int) -> tuple:
    """(t, e): t = floor(x.value 2^P), and every point of x is within e of t."""
    return (to_int(mpf_shift(x._v, P), round_floor),
            to_int(mpf_shift(x._e, P), round_ceiling) + 1)


_LOG10_2 = math.log10(2)


@functools.lru_cache(maxsize=256)
def _ten(k: int) -> int:
    """10^k. Printing asks for the same few powers on every call."""
    return 10 ** k


def _floor_div(n: int, t: int, den: int) -> int:
    """floor(n 2^t / den), for den > 0."""
    return (n << t) // den if t >= 0 else n // (den << -t)


def _pow10(k: int, w: int) -> tuple:
    """(lo, hi, s): integers with lo 2^s <= 10^k <= hi 2^s, for k >= 0.
    Exact while 10^k has at most w bits; above that, by squaring, each
    product cut to w bits, lo rounded down and hi rounded up."""
    if k <= w * _LOG10_2:
        p = _ten(k)
        return p, p, 0
    lo, hi, s = _pow10(k // 2, w)
    lo, hi, s = lo * lo, hi * hi, 2 * s
    if k & 1:
        lo, hi = 10 * lo, 10 * hi
    cut = hi.bit_length() - w
    return lo >> cut, -(-hi >> cut), s + cut


def _floor_scaled(n: int, exp: int, q: int, digits: int) -> int:
    """floor(n 2^exp 10^q) for an integer n, by a shift or one division.

    For |q| > digits + 19 it is read from the ends of an enclosure made of
    _pow10 bounds 64 bits longer than d digits need, unless their floors
    differ: so a huge |q| costs no huge integers."""
    k = abs(q)
    if k > digits + 19:
        lo, hi, s = _pow10(k, int(digits / _LOG10_2) + 64 + k.bit_length())
        if q >= 0:
            m, other = _floor_div(n * lo, exp + s, 1), _floor_div(n * hi, exp + s, 1)
        else:
            m, other = _floor_div(n, exp - s, hi), _floor_div(n, exp - s, lo)
        if m == other:
            return m
    if q < 0:
        return _floor_div(n, exp, _ten(k))
    n *= _ten(q)
    return n << exp if exp >= 0 else n >> -exp


def _scale(v: tuple, err: tuple, digits: int, up: bool = False) -> tuple:
    """(m, e, q, certified) for printing the raw value v with d digits.

    The digits are m = floor(|v| 10^q), or the ceiling if up is set, and
    10^-q is the unit of the last one. 10^e <= |v| < 10^(e+1), unless a
    ceiling carries to 10^(e+1). The raw radius err certifies m iff both ends
    give it, floor((|v| -+ err) 10^q) = m (ceilings if up is set), at q."""
    if digits < 1:
        raise ValueError("digits must be at least 1")
    _, man, exp, bc = v
    if not man:  # 0.00...0, or 0 for one digit
        m, e, q = 0, -1 if digits > 1 else 0, digits - 1
    else:
        # 2^(exp+bc-1) <= |v|: e from the bit length, corrected below
        e = math.floor((exp + bc - 1) * _LOG10_2)
        while True:
            q = digits - 1 if -digits < e < 0 else digits - 1 - e
            m = _floor_scaled(man, exp, q, digits)
            if m < _ten(e + q):
                e -= 1
            elif m >= _ten(e + q + 1):
                e += 1
            else:
                break
        if up:  # ceil(x) = -floor(-x)
            m = -_floor_scaled(-man, exp, q, digits)
            if m == _ten(e + q + 1):  # carried to 10^(e+1)
                e += 1
                q = digits - 1 if -digits < e < 0 else digits - 1 - e
                m = _ten(e + q)
    _, eman, eexp, _ = err
    low, sign = min(exp, eexp), -1 if up else 1  # ceil(x) = -floor(-x)
    mid, rad = man << (exp - low), eman << (eexp - low)
    ends = {sign * _floor_scaled(sign * (mid + d), low, q, digits) for d in (-rad, rad)}
    return m, e, q, ends == {m}


def _int_text(m: int) -> str:
    """str(m) for an integer m >= 0 of any length.

    str() refuses an int longer than sys.get_int_max_str_digits() digits
    (4300 by default, and at least 640 unless 0). So an m of over 1700 bits
    is split by one divmod at 10^k, for the largest power of two k with
    10^k <= m, and each part is converted alone, the low one padded to k
    digits; str() only ever sees at most 512 digits.
    """
    if m.bit_length() <= 1700:  # m < 2^1700 < 10^512
        return str(m)
    k = 256
    while m >= _ten(2 * k):
        k *= 2
    high, low = divmod(m, _ten(k))
    return _int_text(high) + _int_text(low).zfill(k)


def _layout(sign: int, m: int, e: int, digits: int) -> str:
    """The text of _scale's m: round_to_digits' layout."""
    s = _int_text(m)
    if 0 <= e < digits:
        text = s[: e + 1] + ("." + s[e + 1 :] if e + 1 < digits else "")
    elif -digits < e < 0:
        text = "0." + s.rjust(digits - 1, "0")
    else:
        suffix = f"e+{e}" if e > 0 else f"e-{-e}"
        text = s[0] + ("." + s[1:] if digits > 1 else "") + suffix
    return "-" + text if sign else text


def _decimal(v: mpf, digits: int, up: bool = False) -> tuple:
    """(text, last_place): v in round_to_digits' layout, rounded toward
    zero, or away from it if up is set; 10^last_place is the unit of the
    last printed digit.
    """
    m, e, q, _ = _scale(v._mpf_, fzero, digits, up)
    return _layout(v._mpf_[0], m, e, digits), -q


def round_to_digits(x: BoundedReal, digits: int) -> str:
    """Truncated d-digit decimal string for a certified value.

    d counts printed digit characters: integer-part digits plus fractional
    digits, with the leading "0" of a value below one counting as the
    single integer digit (so d=21 prints 1.046...098 and 0.996...433 at
    the same length, the table convention). Values needing scientific
    notation (magnitude >= 10^d or below 10^(1-d)) get d significant
    digits instead. The expansion is truncated toward zero. If the error
    bound does not pin down the printed digits (the ends of the ball,
    |v| - abs_err and |v| + abs_err, truncate to other digits than v), a
    trailing '~' marks the value as not certified at this length.
    """
    v = x._v
    m, e, _, certified = _scale(v, x._e, digits)
    text = _layout(v[0], m, e, digits)
    return text if certified else text + "~"


def format_bound(x) -> str:
    """Scientific-notation display of an error bound, rounded to 4 digits."""
    v = _make_mpf(_upward(x))
    if v == 0:
        return "0"
    return mpmath.nstr(v, 4, min_fixed=1, max_fixed=0, strip_zeros=False)

