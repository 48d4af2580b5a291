"""Exact Bernoulli and harmonic numbers, certified special functions, and
the one memo of bernfac.

Every cached value lives in the write-once dict _memo, written only by
_remember under _lock; _memoized routes a function through it and runs a
miss at its context's working precision.

Everything a context fixes before any work comes from one memoized plan,
_plan(ctx): the goal 2^-g of every sum, the unit 2^-P, zeta's
Euler-Maclaurin cutoff n, the point T where log Gamma sums Stirling's
series, and the cutoff N' of the zeta products C1..C3.

The series here are summed by one engine, _sum_units, in exact integers in
units of 2^-P. A term source gives, per index j, the term after floor
rounding, a bound on that floor's error and a bound on the remainder if
the sum stops before j. The engine stops at the first remainder bound
below the goal, or before the smallest term, and its radius counts every
kept floor and the stopping remainder.

zeta(s) at integers s >= 2 is evaluated for a whole family of s at once and
memoized under ("zeta", s, ctx) (zeta_family, read through zeta_int). One
kernel, _hurwitz_units, sums S(s, a) = sum_{v>=a} (a/v)^s: zeta(s) = S(s, 1),
and the Hurwitz tails are a^-s S(s, a) (_zeta_tails). zeta(s) at large s is
a direct sum and its tail bound; smaller s, and every tail, end in
Euler-Maclaurin (_em_tail), whose remainder is below the first omitted
correction as x^-s is completely monotone, except even zeta(2j), exactly
|B_2j| (2 pi)^(2j) / (2 (2j)!). zeta'(s) takes zeta's split (_split).

log Gamma(x) at rational x > 0 is Stirling's series for log Gamma itself,
at X = x + N = T + frac(x), corrected by the log of the exact rational
prod_{j<|N|} (min(x, X) + j). Every part is summed in the same units of
2^-P and crossed into a ball once: the logs of integers come from one
helper (_log_int, off by at most 2 + bits/4096 units), (X - 1/2) log X and
-X are one floor each, and (1/2) log 2 pi enters through _to_units, whose
radius dominates the result's. The part at X is summed once per X, shared
by every x with the same fractional part.
Every other sum rest + sum c x, with c exact and x a ball or the log of an
integer, is one call of _linear_in_logs, in the same units.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import namedtuple
from fractions import Fraction

from mpmath.libmp import (
    from_int,
    mpf_euler,
    mpf_log,
    mpf_pi,
    mpf_shift,
    round_floor,
    to_int,
)

from bernfac.precision import (
    BoundedReal,
    PrecisionContext,
    PrecisionError,
    _const,
    _from_units,
    _to_units,
)

_lock = threading.Lock()


# -- exact integer sequences ------------------------------------------------

_bern_even: list = [Fraction(1)]  # _bern_even[m] = B_{2m}
_tangent_edge: list = []  # _tangent_edge[k-1] = T(m, k) for the top column m


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention).

    Even B_n = (-1)^(m-1) 2m T_m / (2^(2m) (2^(2m) - 1)), n = 2m, come from
    the tangent numbers T_m of Brent & Harvey's triangle (arXiv:1108.0286),
    with its two loops swapped: column m after sweep k is
    T(m, k) = (m-k) T(m-1, k) + (m-k+2) T(m, k-1), from T(m, 1) = (m-1)!,
    and T_m = T(m, m). A new column needs only the previous column's value
    after each sweep, which _tangent_edge keeps, so the cache grows one
    column at a time, to exactly n/2, each column in m big-integer
    multiply-adds: the same arithmetic as one triangle build to the
    largest index asked for, in any call order. The cache is grown and read
    under _lock, so that a clear_cache() in another thread cannot empty it
    in between. A column is built in a local list and committed in one
    slice assignment before B_2m is appended from it, so an exception
    anywhere in the growth (Ctrl-C, a timeout raised from a signal handler)
    leaves the caches in step or the edge exactly one column ahead.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers need n >= 0")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    with _lock:
        edge = _tangent_edge
        for m in range(len(_bern_even), n // 2 + 1):
            if len(edge) < m:  # column m is not committed yet
                column = []
                t = 0  # T(m, 0)
                for k, left in enumerate(edge, 1):  # left = T(m-1, k)
                    t = (m - k) * left + (m - k + 2) * t
                    column.append(t)
                column.append(2 * t or 1)  # T(m, m) = 2 T(m, m-1); T(1, 1) = 1
                edge[:] = column
            _bern_even.append(Fraction(
                (-1) ** (m - 1) * 2 * m * edge[-1], 4 ** m * (4 ** m - 1)))
        return _bern_even[n // 2]


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n, summed directly: its callers ask for
    n <= r + 1, inside memoized routes and main terms."""
    if n < 0:
        raise ValueError("harmonic numbers need n >= 0")
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


# -- the memo ----------------------------------------------------------------

# Write-once, under (fn, args) for a _memoized function, ("zeta", s, ctx)
# for zeta(s) and ("digits", ball, d) for ConstantReport.digits' text. A
# PrecisionContext is a tuple of (target_digits, guard_digits), so a key
# hashes and compares it in C. Reads take no lock, since a dict lookup is
# atomic and no entry is ever replaced; racing fills compute identical
# values, and _remember keeps the first.
_memo: dict = {}


def _remember(key, value):
    """The value under key: value itself unless a racing fill got there first."""
    with _lock:
        return _memo.setdefault(key, value)


def _memoized(fn):
    """fn(*args, ctx), memoized per args; a miss runs at ctx's working precision."""

    @functools.wraps(fn)
    def memoized(*args):
        key = (fn, args)
        value = _memo.get(key)
        if value is None:
            with args[-1].workprec():
                value = _remember(key, fn(*args))
        return value

    return memoized


def clear_cache() -> None:
    """Drop every cached value: empty the memo, cut the Bernoulli list back
    to its seed and empty the tangent edge, both in place."""
    with _lock:
        _memo.clear()
        del _bern_even[1:]
        _tangent_edge.clear()


# -- the plan ------------------------------------------------------------------

_Plan = namedtuple("_Plan", "g P n T cut")


@_memoized
def _plan(ctx: PrecisionContext) -> _Plan:
    """What ctx fixes before any work, for d target and w working digits:

    - g and P = g + 32: every sum's goal 2^-g < 10^-(w + 2) and unit 2^-P,
      with 32 bits for the floors a sum counts in its radius;
    - n = max(10, 3w/4): zeta's Euler-Maclaurin cutoff;
    - T: log Gamma sums Stirling's series at X in [T, T + 1). As 2 pi
      (T - 1) > (w + 6) ln 10, its smallest term, about e^(-2 pi X), is
      below 2^-g e^-14 there;
    - cut: the C products' N', the least integer with 2^(-N'+3/N') <
      10^-(d+3), i.e. N' - 3/N' > L = (d + 3) log2 10. N0 = bits of
      10^(d+3) is ceil(L), as 10^(d+3) is never a power of 2, and
      N0 + 1 - L > 1 > 3/(N0 + 1), so N' is N0 iff (N0^2 - 3) log 2 >
      N0 (d + 3) log 10: decided with both logs in units of 2^-Q
      (_log_int) and their _log_err slack, Q = 64 doubled while undecided.
    """
    d, w = ctx.target_digits, ctx.working_digits
    g = (10 ** (w + 2)).bit_length()
    n0 = (10 ** (d + 3)).bit_length()
    left, right, Q = n0 * n0 - 3, n0 * (d + 3), 64
    while True:
        gap = left * _log_int(2, Q) - right * _log_int(10, Q)
        if abs(gap) > left * _log_err(2) + right * _log_err(10):
            break
        Q *= 2
    cut = n0 if gap > 0 else n0 + 1
    return _Plan(g, g + 32, max(10, 3 * w // 4), int(0.3665 * (w + 6)) + 2, cut)


# -- engine-rounded constants -----------------------------------------------

@_memoized
def pi_const(ctx: PrecisionContext) -> BoundedReal:
    """pi at ctx, read from mpmath's constant cache under _lock."""
    with _lock:
        return _const(mpf_pi, ctx)


@_memoized
def euler_gamma(ctx: PrecisionContext) -> BoundedReal:
    """Euler's constant at ctx, read from mpmath's constant cache under _lock."""
    with _lock:
        return _const(mpf_euler, ctx)


@_memoized
def log_two_pi(ctx: PrecisionContext) -> BoundedReal:
    """log(2 pi) at ctx."""
    return (pi_const(ctx) * 2).log()


# -- Riemann zeta at integers -----------------------------------------------

def zeta_int(s: int, ctx: PrecisionContext) -> BoundedReal:
    """zeta(s) for integer s >= 2 with a certified error bound.

    Read from the memo that zeta_family fills; a miss evaluates s alone.
    """
    value = _memo.get(("zeta", s, ctx))
    if value is None:
        value = zeta_family((s,), ctx)[s]
    return value


def _split(s: int, a: int, g: int, n: int) -> tuple:
    """(top, cut): _hurwitz_units' route for S(s, a) to the goal 2^-g.

    At a = 1, (V, None): the terms v <= V, for the least V <= n with
    (s-1) V^(s-1) > 2^g, tested exactly, so the tail bound V^(1-s)/(s-1) is
    below 2^-g. A float root, trusted only to within a factor 2, picks the
    first V to try and skips the test at n when the root is far from n.
    With no such V, and always at a >= 2, (c - 1, c): the terms v < c and
    Euler-Maclaurin at c = n, or at c = max(a, n, s) where its corrections
    fall from the first, so its remainder ends far below the goal.
    """
    if a > 1:
        return max(a, n, s) - 1, max(a, n, s)

    def enough(v: int) -> bool:
        return (s - 1) * v ** (s - 1) > 1 << g

    log_root = (g - math.log2(s - 1)) / (s - 1)
    log_n = math.log2(n)
    if log_root > log_n + 1 or (log_root > log_n - 1 and not enough(n)):
        return n - 1, n
    v = max(1, min(n, int(2.0 ** log_root)))
    while v > 1 and enough(v - 1):
        v -= 1
    while not enough(v):
        v += 1
    return v, None


def _hurwitz_units(s_values, a: int, P: int, g: int, n: int) -> dict:
    """{s: (units, err)}: S(s, a) = sum_{v>=a} (a/v)^s >= 1 in units of 2^-P,
    for s >= 2 and a >= 1: zeta(s, a) = a^-s S(s, a), and S(s, 1) = zeta(s).

    Per s, by _split: the terms a <= v <= top and the tail bound, rounded
    up; or the terms v < cut and _em_tail at cut in units of 2^-(P+b),
    b = bits(a^s) (0 at a = 1), crossed by one floor of a^s/2^b. v = a
    gives 2^P; each v > a walks its s upward, x <- floor(x a^d / v^d) per
    step d (Johansson's power ladder, arXiv:1309.2877; one division at
    a = 1). An error e becomes less than e (a/v)^d + 1, so after k steps it
    is below min(k, v/(v - a)), counted as min(k, ceil(v/(v - a))) units,
    or as 2 at a = 1.
    """
    one, top, cuts = 1 << P, {}, {}
    for s in sorted(set(s_values)):
        top[s], cuts[s] = _split(s, a, g, n)
    order = list(top)
    # suffix maxima of the tops: where each v's walk stops
    reach = list(itertools.accumulate((top[s] for s in reversed(order)), max))[::-1]
    sums = {s: one if top[s] >= a else 0 for s in order}
    errs = {s: 2 * (top[s] - 1) if a == 1 else 0 for s in order}
    for v in range(a + 1, max(reach, default=a) + 1):
        x, at, steps, cap = one, 0, 0, -(-v // (v - a))
        for s, last in zip(order, reach):
            if last < v:
                break
            if top[s] >= v:
                if a > 1:
                    x *= a ** (s - at)
                    steps += 1
                    errs[s] += min(steps, cap)
                x //= v ** (s - at)
                at = s
                sums[s] += x
    units = {}
    for s in order:
        total, err, power = sums[s], errs[s], a ** s
        if cuts[s] is None:  # the tail bound, rounded up
            err -= -one // ((s - 1) * top[s] ** (s - 1))
        else:  # b = 0 at a = 1, where the crossing is exact
            b = power.bit_length() if a > 1 else 0
            tail, tail_err = _em_tail(s, cuts[s], P + b, g + b)
            total += tail * power >> b
            err += (a > 1) - (-(tail_err * power) >> b)
        units[s] = total, err
    return units


def _sum_units(terms, goal):
    """Sum a series in units of 2^-P, stopping on its remainder bounds.

    terms yields (j, t_j, e_j, r_j) for increasing indices j, all integers:
    the term after floor rounding, a bound on that floor's error, and a
    bound on the remainder if the sum stops before j. With an integer goal
    the sum stops at the first r_j < goal. With goal None (smallest-term
    mode) it stops instead at the first r_j that is not below r_(j-1),
    before the smallest term j - 1. Returns (units, err, j): the sum of
    the kept t, every kept e plus the stopping r_j, and the stopping index.
    None means the r_j turned before the goal, or, in smallest-term mode,
    never decreased. More than 100 000 terms raise PrecisionError.
    """
    units = err = 0
    held = None  # the last term read, kept once the next one is smaller
    for count, (j, t, e, r) in enumerate(terms):
        if held:
            if r >= held[3]:
                if goal is None and count > 1:
                    return units, err + held[3], held[0]
                return None
            units += held[1]
            err += held[2]
        if goal is not None and r < goal:
            return units, err + r, j
        if count == 100_000:
            raise PrecisionError("no stop within 100 000 terms")
        held = (j, t, e, r)


def _em_tail(s: int, n: int, P: int, g: int) -> tuple:
    """sum_{v>=n} v^-s by Euler-Maclaurin, in units of 2^-P: (units, err).

    sum_{v>=n} v^-s = n^(1-s)/(s-1) + n^(-s)/2
                      + sum_j B_2j/(2j)! * (s)_{2j-1} * n^(1-s-2j)  [+ remainder]
    with |remainder| <= first omitted correction term (the integrand
    x^-s is completely monotone on (0, inf)). The corrections stop at the
    goal 2^-g. Every piece is one floor division, off by less than 1.
    """
    one = 1 << P
    power = n ** (s - 1)
    units = one // ((s - 1) * power) + one // (2 * power * n)

    def corrections():
        poch, fact, scale = s, 2, power * n * n  # (s)_{2j-1}, (2j)!, n^(s+2j-1)
        for j in itertools.count(1):
            b = bernoulli(2 * j)
            t = one * b.numerator * poch // (b.denominator * fact * scale)
            yield j, t, 1, abs(t) + 1
            poch *= (s + 2 * j - 1) * (s + 2 * j)
            fact *= (2 * j + 1) * (2 * j + 2)
            scale *= n * n

    total = _sum_units(corrections(), 1 << (P - g))
    if total is None:
        raise PrecisionError(f"Euler-Maclaurin diverged for zeta({s}) past {n}")
    return units + total[0], 2 + total[1]


def _zeta_tails(s_values, a: int, ctx: PrecisionContext) -> dict:
    """{s: zeta(s, a)} = {s: sum_{v>=a} v^-s} for integers s >= 2, a >= 1.

    a^-s S(s, a) from _hurwitz_units on the plan (_plan), crossed once into
    units of 2^-(P+b) < a^-s 2^-P, b = bits(a^s), so the radius is relative.
    zeta(s) less the terms v < a would lose s log10(a) digits.
    """
    g, P, n, _, _ = _plan(ctx)
    tails = {}
    for s, (units, err) in _hurwitz_units(s_values, a, P, g, n).items():
        power, b = a ** s, (a ** s).bit_length()
        tails[s] = _from_units((units << b) // power, 1 - (-(err << b) // power), P + b)
    return tails


def _zeta_even(s_values: list, ctx: PrecisionContext) -> dict:
    """zeta(2j) = |B_2j| (2 pi)^(2j) / (2 (2j)!) for sorted even s = 2j."""
    with ctx.workprec():
        step = (pi_const(ctx) * 2).pow_int(2)
        power, at = BoundedReal.exact(1), 0
        values = {}
        for s in s_values:
            power = power * step.pow_int((s - at) // 2)
            at = s
            values[s] = power * Fraction(
                abs(bernoulli(s)), 2 * math.factorial(s)
            )
    return values


def zeta_family(s_values, ctx: PrecisionContext) -> dict:
    """{s: zeta(s)} for every s in s_values, from the memo or from one pass
    that fills it.

    With the plan's cutoff n and goal 2^-g, even s with no direct sum to
    some V <= n (_split) take exact Bernoulli numbers and powers of 2 pi;
    every other s is _hurwitz_units at a = 1, in units of 2^-P: the direct
    sum to V, or the terms v < n and Euler-Maclaurin at n.
    """
    zetas = {s: _memo.get(("zeta", s, ctx)) for s in s_values}
    todo = sorted(s for s, value in zetas.items() if value is None)
    if not todo:
        return zetas
    if todo[0] < 2:
        raise ValueError("zeta_int needs s >= 2")
    g, P, n, _, _ = _plan(ctx)
    even = [s for s in todo if s % 2 == 0 and _split(s, 1, g, n)[1]]
    summed = _hurwitz_units(set(todo).difference(even), 1, P, g, n)
    values = {s: _from_units(units, err, P) for s, (units, err) in summed.items()}
    if even:
        values.update(_zeta_even(even, ctx))
    for s, value in values.items():
        zetas[s] = _remember(("zeta", s, ctx), value)
    return zetas


def _log_int(v: int, P: int) -> int:
    """floor(2^P log v) for an integer v >= 1, off by at most _log_err(v).

    mpf_log at P + 16 bits is within |log v| 2^(-12-P) of log v (the ulp
    bound BoundedReal uses for mpf_log), and |log v| < bits(v), so the
    floor is off by less than 1 + bits(v)/4096 units.
    """
    log_v = mpf_log(from_int(v), P + 16, round_floor)
    return to_int(mpf_shift(log_v, P), round_floor)


def _log_err(v: int) -> int:
    """2 + bits(v) // 4096: an integer bound on the error of _log_int(v, P)."""
    return 2 + (v.bit_length() >> 12)


def _linear_in_logs(ctx: PrecisionContext, rest, *terms) -> BoundedReal:
    """rest + sum of c x over the (c, x) terms, crossed into a ball once.

    rest and each c are exact; each x is a BoundedReal, or an int n that
    stands for log n. In units of 2^-P on the plan (_plan), rest is
    one floor, off by less than 1; x enters as (t, e) from _to_units, or
    from _log_int(n, P) and _log_err(n); c x is one floor of c t, off by
    at most |c| e + 1.
    """
    P = _plan(ctx).P
    rest = Fraction(rest)
    units, err = (rest.numerator << P) // rest.denominator, 1
    for c, x in terms:
        if c:
            t, e = (_log_int(x, P), _log_err(x)) if type(x) is int else _to_units(x, P)
            p, q = c.numerator, c.denominator
            units += p * t // q
            err += 1 - (-abs(p) * e // q)
    return _from_units(units, err, P)


def _log_units(top: int, P: int) -> list:
    """log v in units of 2^-P for v <= top, each off by less than 2 Omega(v).

    log v = log(v/p) + log p for the smallest prime factor p of v, with
    log p from _log_int once per prime: off by less than 2 units, as
    p < 2^4096.
    """
    logs, primes = [0, 0], []
    for v in range(2, top + 1):
        p = next((p for p in primes if v % p == 0), v)
        if p < v:
            logs.append(logs[v // p] + logs[p])
        else:
            primes.append(p)
            logs.append(_log_int(p, P))
    return logs


def zeta_prime_int(s: int, ctx: PrecisionContext) -> BoundedReal:
    """zeta'(s) = -sum_{v>=2} log(v) v^-s for integer s >= 2, certified.

    Summed in units of 2^-P on the plan and split. log v (_log_units) is
    off by less than 2 log2 v < v^2 units, so each floor(log v 2^P / v^s)
    is off by less than 2. If _split(s, 1, g + b, n) sums directly to V, with
    2^b > (bit length of n) + 1 > log n + 1, the sum runs to V, and the tail
    bound V^(1-s) (log V/(s-1) + 1/(s-1)^2) < 2^-g joins the radius.
    Otherwise Euler-Maclaurin runs on g(x) = log(x) x^-s at cutoff n, with
    g^(m)(x) = (-1)^m x^(-s-m) ((s)_m log x - c_m) (_log_power_coeffs).
    Once correction j is kept, the remainder is below |B_2j|/(2j)! times
    the integral of |g^(2j)| over (n, inf) (DLMF 2.10.1), so r_j is that
    integral plus a bound on correction j itself.
    """
    if s < 2:
        raise ValueError("zeta_prime_int needs s >= 2")
    g, P, n, _, _ = _plan(ctx)
    one = 1 << P
    last, cut = _split(s, 1, g + (n.bit_length() + 1).bit_length(), n)
    top = cut or last
    logs = _log_units(top, P)
    slop = 2 * top.bit_length()  # above the error of every logs[v], v <= top
    log_up = logs[top] + slop  # above 2^P log(top)
    units = sum(logs[v] // v ** s for v in range(2, last + 1))
    if cut is None:  # the direct sum to V = last
        tail = -(-(log_up * (s - 1) + one) // ((s - 1) ** 2 * last ** (s - 1)))
        return _from_units(-units, 2 * (last - 1) + tail, P)
    # int_n^inf g + g(n)/2, each off by less than 1 + slop/n^(s-1) < 2 units
    power = n ** (s - 1)
    units += (logs[n] * (s - 1) + one) // ((s - 1) ** 2 * power)
    units += logs[n] // (2 * power * n)

    def corrections():
        # + B_2j/(2j)! n^(1-s-2j) ((s)_{2j-1} log n - c_{2j-1})
        coeffs = _log_power_coeffs(s)
        next(coeffs)
        fact, scale = 1, power  # (2j)!, n^(s+2j-1)
        for j in itertools.count(1):
            poch, c = next(coeffs)  # m = 2j - 1
            poch2, c2 = next(coeffs)  # m = 2j
            fact *= (2 * j - 1) * (2 * j)
            scale *= n * n
            b = bernoulli(2 * j)
            num, den = b.numerator, b.denominator * fact * scale
            t = num * (poch * logs[n] - c * one) // den
            e = 2 + abs(num) * poch * slop // den
            k = s + 2 * j - 1
            integral = abs(num) * (poch2 * (log_up * k + one) + c2 * k * one)
            yield j, t, e, abs(t) + e - (-integral // (den * k * k))

    total = _sum_units(corrections(), 1 << (P - g))
    if total is None:
        raise PrecisionError(f"Euler-Maclaurin diverged for zeta'({s})")
    units += total[0]
    return _from_units(-units, 2 * (n - 2) + 4 + total[1], P)


def _log_power_coeffs(s: int):
    """((s)_m, c_m) for m = 0, 1, 2, ...: the derivatives of log(x) x^-s.

    g^(m)(x) = (-1)^m x^(-s-m) ((s)_m log x - c_m), and differentiating once
    more gives (s)_(m+1) = (s)_m (s+m) and c_(m+1) = (s+m) c_m + (s)_m.
    """
    poch, c, m = 1, 0, 0
    while True:
        yield poch, c
        poch, c = poch * (s + m), (s + m) * c + poch
        m += 1


def zeta_neg_int(r: int) -> Fraction:
    """Exact zeta(-r) = (-1)^r B_{r+1}/(r+1) for integer r >= 0."""
    if r < 0:
        raise ValueError("zeta_neg_int needs r >= 0")
    return Fraction((-1) ** r) * bernoulli(r + 1) / (r + 1)


@_memoized
def zeta_prime_neg(r: int, ctx: PrecisionContext) -> BoundedReal:
    """zeta'(-r) for integer r >= 0, via real closed forms.

    r = 0:    -log(2 pi)/2.
    even r:   (-1)^(r/2) r! zeta(r+1) / (2 (2 pi)^r)   [functional equation]
    odd r:    (B_{r+1}/(r+1)) (H_r - gamma - log 2 pi)
              - 2 (-1)^((r+1)/2) r! zeta'(r+1) / (2 pi)^(r+1).
    """
    if r < 0:
        raise ValueError("zeta_prime_neg needs r >= 0")
    if r == 0:
        return -log_two_pi(ctx) / 2
    two_pi = pi_const(ctx) * 2
    if r % 2 == 0:
        sign = (-1) ** (r // 2)
        return (
            BoundedReal.exact(sign * math.factorial(r))
            * zeta_int(r + 1, ctx)
            / (two_pi.pow_int(r) * 2)
        )
    lead = BoundedReal.exact(bernoulli(r + 1) / (r + 1)) * (
        BoundedReal.exact(harmonic(r)) - euler_gamma(ctx) - log_two_pi(ctx)
    )
    sign = (-1) ** ((r + 1) // 2)
    corr = (
        BoundedReal.exact(2 * sign * math.factorial(r))
        * zeta_prime_int(r + 1, ctx)
        / two_pi.pow_int(r + 1)
    )
    return lead - corr


def _stirling_terms(big: Fraction, P: int):
    """The Stirling tail of log Gamma(big) as a term source, in units of 2^-P.

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


@_memoized
def _stirling_units(big: Fraction, ctx: PrecisionContext):
    """(units, err): (X - 1/2) log X - X + (1/2) log 2 pi + S(X) at X = big,
    in units of 2^-P on the plan (_plan), or None if S(X) turns before
    its goal.

    With X = a/b and c = 2a - b, (X - 1/2) log X is one floor of
    c (log a - log b) / (2b), off by less than 1 + c (err(a) + err(b))/(2b)
    for the _log_err bounds err; -X is one floor, off by less than 1;
    (1/2) log 2 pi is log 2 pi in units of 2^-(P-1) (_to_units), within
    its radius; and S(X) brings the radius _sum_units gives it.
    """
    g, P, _, _, _ = _plan(ctx)
    tail = _sum_units(_stirling_terms(big, P), 1 << (P - g))
    if tail is None:
        return None
    a, b = big.numerator, big.denominator
    c = 2 * a - b
    half_log, half_err = _to_units(log_two_pi(ctx), P - 1)
    units = c * (_log_int(a, P) - _log_int(b, P)) // (2 * b)
    units += (-a << P) // b + half_log + tail[0]
    err = 2 - (-c * (_log_err(a) + _log_err(b)) // (2 * b)) + half_err + tail[1]
    return units, err


@_memoized
def log_gamma_rational(x: Fraction, ctx: PrecisionContext) -> BoundedReal:
    """log Gamma(x) for rational x > 0, certified by Stirling's series.

    log Gamma(x) = (X - 1/2) log X - X + (1/2) log 2 pi + S(X)
                   -/+ log prod_{j<|N|} (min(x, X) + j),  X = x + N,
    minus for N > 0 and plus for N < 0, with N = T - floor(x) for the plan's
    T (_plan), so that X = T + frac(x) is the same for every x with the same
    fractional part. S is the Stirling tail (_stirling_terms), summed in
    integer units of 2^-P and crossed into a ball once, only until a term
    drops below the goal 2^-g, not to its smallest term; that term still
    bounds the remainder, with its sign (DLMF 5.11(ii)). At X >= T the sum
    reaches its goal; if it ever turned first, PrecisionError is raised.

    The radius, in units, is the sum of: two floors (-X and the division
    in (X - 1/2) log X); (X - 1/2) times the error bounds of log a and
    log b (_log_int, _log_err) for X = a/b; the radius of log 2 pi at
    working precision, which dominates; S's kept floors and its stopping
    term; and, for N != 0, the error bounds of log prod_{j<|N|} (a + j b)
    and of |N| log b, as prod (low + j) = prod (a + j b) / b^|N| for
    low = min(x, X) = a/b.

    Memoized per (x, ctx), as the F_k closed forms ask for the same nu/k
    many times; the X part is memoized per (X, ctx) (_stirling_units).
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log_gamma_rational needs x > 0")
    _, P, _, T, _ = _plan(ctx)
    N = T - int(x)
    X = x + N
    part = _stirling_units(X, ctx)
    if part is None:
        raise PrecisionError(f"Stirling's series for log Gamma({X}) turned "
                             "before its goal")
    units, err = part
    if N:
        low = min(x, X)
        a, b = low.numerator, low.denominator
        rising = math.prod(a + j * b for j in range(abs(N)))
        log_prod = _log_int(rising, P) - abs(N) * _log_int(b, P)
        units += -log_prod if N > 0 else log_prod
        err += abs(N) * _log_err(b) + _log_err(rising)
    return _from_units(units, err, P)


# -- abelian group counting ---------------------------------------------------

def partition_counts(n: int) -> list:
    """[p(0), ..., p(n)], the integer partition counts, in one pass of
    Euler's pentagonal recurrence."""
    if n < 0:
        raise ValueError("partition counts need n >= 0")
    parts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * parts[m - g1]
            if g2 <= m:
                total += sign * parts[m - g2]
            k += 1
        parts.append(total)
    return parts
