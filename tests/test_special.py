"""Tests for exact sequences and certified special functions.

Every certified value is confronted with an independent route: defining
recurrences and brute sums for the exact sequences, bracketing partial
sums or mpmath's own implementations for the transcendental ones.
"""

import itertools
import math
import random
import re
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from bernfac import constants, special, verify
from bernfac.precision import (
    BoundedReal,
    PrecisionContext,
    PrecisionError,
    make_context,
    mpf_to_fraction,
)
from bernfac.special import (
    bernoulli,
    euler_gamma,
    harmonic,
    log_gamma_rational,
    log_two_pi,
    partition_counts,
    pi_const,
    zeta_int,
    zeta_neg_int,
    zeta_prime_int,
    zeta_prime_neg,
)

CTX = make_context(21)


# -- Bernoulli numbers --------------------------------------------------------

def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(20) == Fraction(-174611, 330)


def test_bernoulli_odd_vanish():
    for n in range(3, 40, 2):
        assert bernoulli(n) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_even_signs_alternate():
    for m in range(1, 30):
        sign = 1 if m % 2 == 1 else -1
        assert sign * bernoulli(2 * m) > 0


@given(st.integers(min_value=2, max_value=60).filter(lambda n: n % 2 == 0))
def test_bernoulli_defining_recurrence(n):
    total = sum(Fraction(math.comb(n + 1, j)) * bernoulli(j) for j in range(n + 1))
    assert total == 0


def _grown(indices):
    """[B_n for n in indices] and the even cache they leave, from a fresh
    cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(special, "_bern_even", [Fraction(1)])
        patch.setattr(special, "_tangent_edge", [])
        return [bernoulli(n) for n in indices], special._bern_even


_SINGLE_BUILD = _grown([400])[1]


@given(st.lists(st.integers(min_value=0, max_value=200).map(lambda m: 2 * m),
                min_size=1, max_size=40))
def test_bernoulli_cache_grows_to_the_largest_index_in_any_order(indices):
    values, grown = _grown(indices)
    assert len(grown) - 1 == max(indices) // 2
    assert grown == _SINGLE_BUILD[: len(grown)]
    assert values == [_SINGLE_BUILD[n // 2] for n in indices]


def test_bernoulli_one_index_at_a_time_against_mpmath():
    one_at_a_time, _ = _grown(range(2, 801, 2))
    assert one_at_a_time[-1] == Fraction(*mpmath.bernfrac(800))


def test_bernoulli_reads_its_cache_under_the_lock(monkeypatch):
    # a read after the lock is released could meet a clear_cache() from
    # another thread and raise IndexError
    class LockedReads(list):
        def __getitem__(self, index):
            assert special._lock.locked()
            return super().__getitem__(index)

        def __setitem__(self, index, value):
            assert special._lock.locked()
            super().__setitem__(index, value)

        def __iter__(self):
            assert special._lock.locked()
            return super().__iter__()

        def __len__(self):
            assert special._lock.locked()
            return super().__len__()

        def append(self, value):
            assert special._lock.locked()
            super().append(value)

    monkeypatch.setattr(special, "_bern_even", LockedReads([Fraction(1)]))
    monkeypatch.setattr(special, "_tangent_edge", LockedReads())
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_survives_an_interrupted_commit(monkeypatch):
    # a KeyboardInterrupt on the edge's third write (partway through a
    # column, were columns written in place) leaves the caches in step,
    # and the next call resumes from them
    class InterruptOnce(list):
        writes_left = None

        def __setitem__(self, index, value):
            if self.writes_left is not None:
                self.writes_left -= 1
                if self.writes_left == 0:
                    self.writes_left = None
                    raise KeyboardInterrupt
            super().__setitem__(index, value)

    edge = InterruptOnce()
    monkeypatch.setattr(special, "_bern_even", [Fraction(1)])
    monkeypatch.setattr(special, "_tangent_edge", edge)
    bernoulli(10)
    edge.writes_left = 3
    with pytest.raises(KeyboardInterrupt):
        bernoulli(30)
    assert len(edge) == len(special._bern_even) - 1
    assert [bernoulli(n) for n in range(0, 41, 2)] == [
        Fraction(*mpmath.bernfrac(n)) for n in range(0, 41, 2)]


def test_bernoulli_survives_an_exception_at_every_opcode(monkeypatch):
    # an exception raised from a signal handler (perfbench's op timeout) or
    # a Ctrl-C can land between any two bytecodes of the growth; at each
    # one, the caches must stay in step or hold the next column whole, so
    # that every later B_n is still exact
    class Interrupt(BaseException):
        pass

    def growth_interrupted_at(opcode):
        seen = 0

        def trace(frame, event, arg):
            if frame.f_code is not bernoulli.__code__:
                return None
            frame.f_trace_opcodes = True
            return step

        def step(frame, event, arg):
            nonlocal seen
            if event == "opcode":
                seen += 1
                if seen == opcode:
                    raise Interrupt
            return step

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            bernoulli(16)
        except Interrupt:
            return True
        finally:
            sys.settrace(previous)
        return False

    expected = [Fraction(*mpmath.bernfrac(n)) for n in range(0, 17, 2)]
    for opcode in itertools.count(1):
        monkeypatch.setattr(special, "_bern_even", [Fraction(1)])
        monkeypatch.setattr(special, "_tangent_edge", [])
        if not growth_interrupted_at(opcode):
            break
        # the trace can also raise in the with statement's exit, before the
        # lock is released, where a signal handler never runs
        monkeypatch.setattr(special, "_lock", threading.Lock())
        grown, edge = special._bern_even, special._tangent_edge
        assert len(edge) in (len(grown) - 1, len(grown)), opcode
        assert [bernoulli(n) for n in range(0, 17, 2)] == expected, opcode
    assert opcode > 1000  # the sweep reached every column's arithmetic


def test_clear_cache_cuts_the_exact_sequences_to_their_seeds():
    # the Bernoulli list and the tangent edge are the caches outside the memo
    assert constants.clear_cache is special.clear_cache
    before = bernoulli(60)
    grown, edge = special._bern_even, special._tangent_edge
    assert len(edge) == len(grown) - 1 >= 30
    constants.clear_cache()
    # reset in place: the same list objects, back at their seeds
    assert special._bern_even is grown
    assert grown == [Fraction(1)]
    assert special._tangent_edge is edge
    assert edge == []
    assert bernoulli(60) == before


def test_bernoulli_top_index_does_not_depend_on_earlier_routes():
    # the cache grows to the largest index asked for, not past it, so
    # f_infty_refined reaches the same B_n whether b_family ran first or not
    def top_after(*routes):
        constants.clear_cache()
        for route in routes:
            route(ctx)
        return len(special._bern_even) - 1

    for digits in (100, 300):
        ctx = make_context(digits)
        alone = top_after(lambda ctx: constants.f_infty_refined(7, 17, ctx))
        after = top_after(constants.b_family,
                          lambda ctx: constants.f_infty_refined(7, 17, ctx))
        assert alone == after, digits


# -- harmonic numbers and Euler's constant ------------------------------------

def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)
    assert harmonic(10) == Fraction(7381, 2520)


def test_euler_gamma_against_harmonic_expansion():
    # H_n - log n = gamma + 1/(2n) - 1/(12 n^2) + O(n^-4) with the O-term
    # below 1/(120 n^4); this pins gamma by a route independent of mpmath
    n = 1000
    h = harmonic(n)
    with CTX.workprec():
        log_n = BoundedReal.exact(n).log()
        gamma = euler_gamma(CTX)
        residue = (
            BoundedReal.exact(h)
            - log_n
            - gamma
            - Fraction(1, 2 * n)
            + Fraction(1, 12 * n**2)
        )
        assert abs(float(residue.value)) < 1 / (100 * n**4)


def test_engine_constants_are_certified():
    with CTX.workprec():
        pi = pi_const(CTX)
        assert abs(float(pi.value) - math.pi) < 1e-12
        assert float(pi.abs_err) < 1e-25
        l2p = log_two_pi(CTX)
        assert abs(float(l2p.value) - math.log(2 * math.pi)) < 1e-12


def test_log_two_pi_is_kept_per_context_until_the_cache_is_cleared():
    ctx = PrecisionContext(37, 13)
    constants.clear_cache()
    first = log_two_pi(ctx)
    assert log_two_pi(ctx) is first
    with ctx.workprec():
        fresh = (pi_const(ctx) * 2).log()
    assert (first._v, first._e) == (fresh._v, fresh._e)
    constants.clear_cache()
    assert (log_two_pi.__wrapped__, (ctx,)) not in special._memo
    again = log_two_pi(ctx)
    assert again is not first and again == first


def test_pi_const_is_kept_per_context_until_the_cache_is_cleared():
    ctx = PrecisionContext(37, 13)
    constants.clear_cache()
    first = pi_const(ctx)
    assert pi_const(ctx) is first
    fresh = special._const(special.mpf_pi, ctx)
    assert (first._v, first._e) == (fresh._v, fresh._e)
    for clear in (constants.clear_cache, special.clear_cache):
        clear()
        assert (pi_const.__wrapped__, (ctx,)) not in special._memo
        again = pi_const(ctx)
        assert again is not first and again == first
        first = again


@pytest.mark.parametrize("read, name", [(pi_const, "mpf_pi"),
                                        (euler_gamma, "mpf_euler")])
def test_constants_are_read_from_mpmath_once_per_context_under_the_lock(
        monkeypatch, read, name):
    # mpmath's constant cache stores a new value before its precision, so a
    # read outside the lock could meet another thread's growth
    reads, mpf_const = [], getattr(special, name)

    def counted(prec, rnd):
        assert special._lock.locked()
        reads.append(prec)
        return mpf_const(prec, rnd)

    monkeypatch.setattr(special, name, counted)
    constants.clear_cache()
    ctx = PrecisionContext(37, 13)
    first = read(ctx)
    assert read(ctx) is first and read(PrecisionContext(37, 13)) is first
    assert read(PrecisionContext(38, 13)) is not first
    assert len(reads) == 2


# -- zeta at positive integers ------------------------------------------------

def test_zeta_int_even_values_against_pi_powers():
    with CTX.workprec():
        pi2 = pi_const(CTX).pow_int(2)
        assert zeta_int(2, CTX).agrees_with(pi2 / 6)
        pi4 = pi_const(CTX).pow_int(4)
        assert zeta_int(4, CTX).agrees_with(pi4 / 90)


def test_zeta_int_bracketing_partial_sums():
    # sum_{v<=M} v^-3 + 1/(2(M+1)^2) < zeta(3) < sum + 1/(2 M^2)
    M = 40
    partial = sum(Fraction(1, v**3) for v in range(1, M + 1))
    lo = partial + Fraction(1, 2 * (M + 1) ** 2)
    hi = partial + Fraction(1, 2 * M**2)
    z = mpf_to_fraction(zeta_int(3, CTX).value)
    assert lo < z < hi


def test_zeta_int_large_s_direct_branch():
    s = 50
    z = zeta_int(s, CTX)
    partial = sum(Fraction(1, v**s) for v in range(1, 5))
    assert abs(mpf_to_fraction(z.value) - partial) < Fraction(1, 10**25)
    assert float(z.abs_err) < 1e-25


def test_zeta_int_rejects_small_s():
    with pytest.raises(ValueError):
        zeta_int(1, CTX)


def test_zeta_int_error_bounds_are_tight():
    for s in (2, 3, 5, 9):
        assert float(zeta_int(s, CTX).abs_err) < 1e-25


@pytest.mark.parametrize("digits", [20, 100, 200])
def test_zeta_int_contains_mpmath_around_each_branch(digits):
    # s = thr-2 .. thr+1 puts an even and an odd s on each side of the
    # direct-sum threshold: exact Bernoulli values and Euler-Maclaurin
    # below it, direct sums above it
    ctx = make_context(digits)
    g, _, n, _, _ = special._plan(ctx)
    thr = next(s for s in range(3, 10 * digits)
               if special._direct_terms(s, n, g) is not None)
    assert special._direct_terms(thr - 1, n, g) is None
    s_values = [2, 3, thr - 2, thr - 1, thr, thr + 1, 4 * digits]
    with mp.workdps(3 * digits):
        for s in s_values:
            z = zeta_int(s, ctx)
            assert z.contains(mp.zeta(s)), s
            assert z.abs_err < mpf(10) ** -(digits + 5)


def test_power_sums_stay_within_two_units_per_term():
    P = 200
    upto = {2: 40, 3: 40, 5: 17, 6: 9, 11: 9, 12: 2, 90: 3}
    sums = special._power_sums(upto, P)
    for s, top in upto.items():
        exact = sum(Fraction(2**P, v**s) for v in range(1, top + 1))
        assert 0 <= exact - sums[s] < 2 * (top - 1)


def test_zeta_family_fills_the_zeta_int_cache(monkeypatch):
    ctx = make_context(30)
    special.clear_cache()
    zetas = special.zeta_family(range(2, 200), ctx)
    assert list(zetas) == list(range(2, 200))
    monkeypatch.setattr(special, "zeta_family", None)  # a miss would call it
    for s in (2, 3, 57, 199):
        assert zeta_int(s, ctx) is zetas[s]


def test_zeta_int_survives_a_clear_between_fill_and_read(monkeypatch):
    ctx = make_context(30)
    fill, cleared = special.zeta_family, []

    def fill_then_clear(s_values, c):
        zetas = fill(s_values, c)
        if not cleared:  # as if clear_cache() ran in another thread
            cleared.append(True)
            constants.clear_cache()
        return zetas

    constants.clear_cache()
    monkeypatch.setattr(special, "zeta_family", fill_then_clear)
    value = zeta_int(5, ctx)
    assert cleared
    assert value == fill((5,), ctx)[5]


def test_f_infty_refined_runs_few_euler_maclaurin_sums(monkeypatch):
    from bernfac.constants import clear_cache, f_infty_refined

    runs = []
    em = special._em_tail

    def counted(*args):
        runs.append((args[0], args[2]))  # (s, P): P grows with a^s in a tail
        return em(*args)

    monkeypatch.setattr(special, "_em_tail", counted)
    clear_cache()
    f_infty_refined(7, 17, make_context(20))
    assert 1 <= len(runs) <= 32
    assert len(set(runs)) == len(runs)


def test_em_tail_contains_mpmath_at_low_precision():
    # every s, cutoff n, unit 2^-P and goal 2^-g < 1 of a small grid, where
    # the radius's fixed 2 units and each correction's floor error are most
    # of it; a sum that diverges before its goal raises and is skipped
    with mp.workdps(60):
        refs = {(s, n): mp.zeta(s, n) for s in range(2, 10) for n in range(2, 13)}
    checked = 0
    for (s, n), ref in refs.items():
        for P in range(4, 41):
            exact = mpmath.ldexp(ref, P)
            for g in range(P):
                try:
                    units, err = special._em_tail(s, n, P, g)
                except PrecisionError:
                    continue
                assert units - err <= exact <= units + err, (s, n, P, g)
                checked += 1
    assert checked > 60_000


@pytest.mark.parametrize("a", [2, 8, 38, 111])
def test_zeta_tails_contain_mpmath_hurwitz_zeta(a):
    # one reference per s at working digits + 40 for the largest request;
    # mpmath's zeta(s, a) is accurate to about 10^-w absolutely at w digits,
    # and zeta(s, a) > a^-s, so it carries s log10(a) more
    sweep = [make_context(digits) for digits in (*range(1, 31), 100)]
    top = max(ctx.working_digits for ctx in sweep) + 40
    refs = {}
    for s in range(3, 42, 2):
        with mp.workdps(top + math.ceil(s * math.log10(a))):
            refs[s] = mp.zeta(s, a)
    with mp.workdps(top):
        for ctx in sweep:
            tails = special._zeta_tails(refs, a, ctx)
            for s, ref in refs.items():
                assert tails[s].contains(ref), (ctx, s)
                assert tails[s].abs_err < ref * mpf(10) ** -ctx.working_digits, (ctx, s)


# -- zeta derivatives ----------------------------------------------------------

def _zeta_prime_contains_mpmath(digits):
    # s = 30 takes the direct sum at 20 digits, and the other s
    # Euler-Maclaurin; the reference runs at working digits + 40
    ctx = make_context(digits)
    with mp.workdps(ctx.working_digits + 40):
        for s in (2, 3, 4, 5, 6, 7, 30):
            ours = zeta_prime_int(s, ctx)
            assert ours.contains(mp.zeta(s, derivative=1)), s
            assert ours.abs_err < mpf(10) ** -(ctx.working_digits + 1), s


def test_zeta_prime_int_against_mpmath():
    _zeta_prime_contains_mpmath(20)


def _c_coeff_by_sum(s, m):
    # c_m = sum_{i=1..m} C(m,i) (i-1)! (s)_{m-i}, summed term by term
    return sum(
        math.comb(m, i) * math.factorial(i - 1) * math.prod(range(s, s + m - i))
        for i in range(1, m + 1)
    )


def test_log_power_coeffs_match_the_binomial_sum():
    for s in range(2, 8):
        coeffs = special._log_power_coeffs(s)
        for m in range(40):
            poch, c = next(coeffs)
            assert poch == math.prod(range(s, s + m))
            assert c == _c_coeff_by_sum(s, m), (s, m)


def test_zeta_prime_int_contains_mpmath_at_300_digits():
    _zeta_prime_contains_mpmath(300)


def test_zeta_prime_int_routes_at_20_digits(monkeypatch):
    # s = 30 sums directly to V; s = 7 runs Euler-Maclaurin in the engine
    goals = []
    engine = special._sum_units

    def counted(terms, goal):
        goals.append(goal)
        return engine(terms, goal)

    monkeypatch.setattr(special, "_sum_units", counted)
    ctx = make_context(20)
    zeta_prime_int(30, ctx)
    assert goals == []
    zeta_prime_int(7, ctx)
    assert len(goals) == 1


def test_zeta_prime_int_contains_mpmath_at_1000_digits():
    ctx = make_context(1000)
    ours = zeta_prime_int(2, ctx)
    with mp.workdps(ctx.working_digits + 50):
        assert ours.contains(mp.zeta(2, derivative=1))
    assert ours.abs_err < mpf(10) ** -(ctx.working_digits + 1)


def test_zeta_prime_int_rejects_small_s():
    with pytest.raises(ValueError):
        zeta_prime_int(1, CTX)


def test_zeta_neg_int_exact_values():
    assert zeta_neg_int(0) == Fraction(-1, 2)
    assert zeta_neg_int(1) == Fraction(-1, 12)
    assert zeta_neg_int(2) == 0
    assert zeta_neg_int(3) == Fraction(1, 120)
    assert zeta_neg_int(4) == 0
    assert zeta_neg_int(5) == Fraction(-1, 252)


def test_zeta_prime_neg_zero_is_half_log_two_pi():
    with CTX.workprec():
        assert zeta_prime_neg(0, CTX).agrees_with(-log_two_pi(CTX) / 2)


def test_zeta_prime_neg_against_mpmath():
    with mp.workdps(45):
        for r in (1, 2, 3, 4, 5, 6):
            ours = zeta_prime_neg(r, CTX)
            ref = mp.zeta(-r, derivative=1)
            assert abs(ours.value - ref) <= ours.abs_err + mpf(10) ** (-38)


# -- log Gamma at rationals ----------------------------------------------------

def test_log_gamma_one_is_zero():
    g = log_gamma_rational(Fraction(1), CTX)
    assert abs(float(g.value)) <= float(g.abs_err)


def test_log_gamma_integer_factorials():
    with CTX.workprec():
        for n, fact in ((5, 24), (10, 362880)):
            g = log_gamma_rational(Fraction(n), CTX)
            assert g.exp().contains(fact)


def test_log_gamma_half_is_half_log_pi():
    with CTX.workprec():
        g = log_gamma_rational(Fraction(1, 2), CTX)
        assert g.agrees_with(pi_const(CTX).log() / 2)
        assert float(g.abs_err) < 1e-25


def test_log_gamma_reflection_at_thirds():
    # Gamma(1/3) Gamma(2/3) = pi / sin(pi/3) = 2 pi / sqrt(3)
    with CTX.workprec():
        lhs = log_gamma_rational(Fraction(1, 3), CTX) + log_gamma_rational(
            Fraction(2, 3), CTX
        )
        rhs = (pi_const(CTX) * 2 / BoundedReal.exact(3).sqrt()).log()
        assert lhs.agrees_with(rhs)
        assert abs(float((lhs - rhs).value)) < 1e-25


def test_log_gamma_is_kept_per_context_and_sets_its_own_precision():
    ctx = PrecisionContext(37, 13)
    constants.clear_cache()
    first = log_gamma_rational(Fraction(1, 3), ctx)
    assert log_gamma_rational(Fraction(1, 3), ctx) is first
    constants.clear_cache()
    with PrecisionContext(60, 10).workprec():
        again = log_gamma_rational(Fraction(1, 3), ctx)
    assert again is not first and again == first


# a sweep at 1-12 target digits, where the radius is a few units of the
# fixed-point plan, both below and above the promotion threshold (8 to 12)
SWEEP_ARGUMENTS = sorted(
    {Fraction(a, b) for b in range(1, 9) for a in range(1, 41)}
)


def test_log_gamma_sweep_at_low_precision_contains_mpmath():
    with mp.workdps(60):
        refs = {x: mpmath.loggamma(mpf(x.numerator) / x.denominator)
                for x in SWEEP_ARGUMENTS}
        slack = mpf(10) ** -58
        refs = {x: (ref - slack, ref + slack) for x, ref in refs.items()}
    constants.clear_cache()
    for digits in range(1, 13):
        ctx = make_context(digits)
        for x in SWEEP_ARGUMENTS:
            lg = log_gamma_rational(x, ctx)
            low, high = refs[x]
            assert lg.contains(low) and lg.contains(high), (digits, x)
            assert lg.abs_err < mpf(10) ** -(ctx.working_digits - 1), (digits, x)


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(7, 2), Fraction(40)])
def test_log_gamma_radius_counts_each_log_error(monkeypatch, x):
    # with every integer log allowed an error of 2^80 units, the radius
    # must hold (X - 1/2) (err(a) + err(b)) + |N| err(b) + err(prod (a + j b));
    # N = T - floor(x) is negative at x = 40
    ctx = make_context(20)
    _, P, _, T, _ = special._plan(ctx)
    N = T - int(x)
    big = 1 << 80
    monkeypatch.setattr(special, "_log_err", lambda v: big)
    constants.clear_cache()
    radius = mpf_to_fraction(log_gamma_rational(x, ctx).abs_err) * 2**P
    want = (x + N - Fraction(1, 2)) * 2 * big + (abs(N) + 1) * big * (N != 0)
    constants.clear_cache()
    assert radius >= want


def test_log_gamma_raises_precision_when_stirling_turns(monkeypatch):
    # a Stirling sum that turned before its goal is reported, not retried
    ctx = make_context(20)
    X = special._plan(ctx).T + Fraction(1, 3)
    monkeypatch.setattr(special, "_stirling_units", lambda big, ctx: None)
    constants.clear_cache()
    with pytest.raises(PrecisionError, match=re.escape(f"log Gamma({X})")):
        log_gamma_rational(Fraction(7, 3), ctx)
    constants.clear_cache()


PRODUCT_10K_BITS = math.prod(range(1, 1200))


def test_integer_log_stays_within_its_error_bound():
    values = [1, 2, 3, 5, 7, 11, 13, 97, 65521, PRODUCT_10K_BITS]
    values += [10**k for k in range(1, 40, 3)]
    assert PRODUCT_10K_BITS.bit_length() > 10**4
    with mp.workprec(500):
        logs = {v: mp.log(v) for v in values}
        for P in range(2, 65):
            for v in values:
                units = special._log_int(v, P)
                bound = 1 + mpf(v.bit_length()) / 4096
                assert abs(units - logs[v] * 2**P) < bound, (P, v)
                assert special._log_err(v) >= bound


def test_linear_in_logs_sweep_at_low_precision_contains_mpmath():
    # at 1-12 target digits the radius is a few units of 2^-P per term, so
    # each floor's unit matters. The exact sum takes every ball term at the
    # edge of its ball that c pushes up, and mpmath's logs at 80 digits for
    # the integer terms; c and rest share one random scale per case, so
    # that some cases have every |c| small
    rng = random.Random(20)
    ints = [1, 2, 10, *(rng.randint(3, 10**6) for _ in range(8)),
            *(rng.randint(1 << 299, 1 << 300) for _ in range(4))]
    with mp.workdps(80):
        logs = {n: mp.log(n) for n in ints}
    slack = mpf(10) ** -60
    for digits in range(1, 13):
        ctx = make_context(digits)
        P = special._plan(ctx).P
        for _ in range(250):
            top, bottom = 10 ** rng.randint(0, 9), 10 ** rng.randint(0, 6)

            def draw():
                p = rng.randint(-top, top)
                return Fraction(p, rng.randint(1, bottom))

            rest = exact = draw()
            terms, log_terms = [], []
            for _ in range(rng.randint(1, 6)):
                c = draw()
                if rng.random() < 0.25:
                    n = rng.choice(ints)
                    terms.append((c, n))
                    log_terms.append((c, n))
                    continue
                den = rng.choice((1 << rng.randint(0, 40), rng.randint(1, 10**6),
                                  1 << (P + rng.randint(1, 40))))
                mid = Fraction(rng.randint(-(1 << 40), 1 << 40), den)
                rad = Fraction(rng.randint(0, 1 << 30), 1 << (P + rng.randint(0, 4)))
                with ctx.workprec():
                    terms.append((c, BoundedReal(mid, rad)))
                exact += c * (mid + (rad if c > 0 else -rad))
            total = special._linear_in_logs(ctx, rest, *terms)
            with mp.workdps(80):
                ref = mpf(exact.numerator) / exact.denominator + mp.fsum(
                    mpf(c.numerator) / c.denominator * logs[n] for c, n in log_terms
                )
                low, high = ref - slack, ref + slack
            assert total.contains(low) and total.contains(high), (digits, rest, terms)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma_rational(Fraction(0), CTX)
    with pytest.raises(ValueError):
        log_gamma_rational(Fraction(-3, 2), CTX)


# -- Dedekind eta on the imaginary axis ----------------------------------------
# eta(i t) is taken only at t = log p / pi, where q = 1/p^2 is exact and
# p^(1/12) eta(i t) is verify's Euler factor prod_v (1 - p^(-2v))

@pytest.mark.parametrize("digits", [20, 100])
def test_eta_contains_mpmath_eta(digits):
    # each factor alone, p = 23, 29 on either side of t = 1 (p = e^pi)
    ctx = make_context(digits)
    for p in (2, 3, 23, 29, 9973):
        factor = verify._eta_prime_product([p], ctx)
        with mp.workdps(3 * ctx.working_digits):
            ref = mp.root(p, 12) * mp.eta(1j * mp.log(p) / mp.pi)
            assert abs(ref.imag) < mpf(10) ** (-2 * ctx.working_digits)
            assert factor.contains(mpf_to_fraction(ref.real)), p
        assert factor.abs_err < mpf(10) ** -digits * abs(factor.value)


def test_eta_rejects_nonpositive_argument():
    # t = log p / pi <= 0 at p = 1, and q = 1/p^2 >= 1 for p < 2
    for p in (0, 1):
        with pytest.raises(ValueError, match="p >= 2"):
            verify._eta_prime_product([p], CTX)


# -- partitions and abelian group counts ----------------------------------------

def test_partition_known_values():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert partition_counts(10) == known
    assert partition_counts(100)[-1] == 190569292


def test_partition_rejects_negative():
    with pytest.raises(ValueError):
        partition_counts(-1)
