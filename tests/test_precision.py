"""Tests for error-tracked reals: interval arithmetic, display, contexts.

The central invariant is containment: feeding exact rationals through any
chain of BoundedReal operations must yield an interval that contains the
exact rational result.
"""

import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, round_nearest

from bernfac.precision import (
    BoundedReal,
    _decimal,
    _hull,
    PrecisionContext,
    PrecisionError,
    format_bound,
    make_context,
    mpf_to_fraction,
    round_to_digits,
)
from bernfac.special import pi_const


# -- contexts -----------------------------------------------------------------

def test_context_guard_policy():
    assert make_context(20).guard_digits == 10
    assert make_context(95).guard_digits == 10
    assert make_context(100).guard_digits == 10
    assert make_context(101).guard_digits == 11
    assert make_context(200).guard_digits == 20
    assert make_context(20).working_digits == 30


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(0, 10)
    with pytest.raises(ValueError):
        PrecisionContext(20, 9)
    with pytest.raises(ValueError):
        make_context(0)


def test_contexts_are_interned_immutable_values():
    assert make_context(37) is make_context(37)
    ctx = PrecisionContext(37, 10)
    assert ctx == make_context(37) and hash(ctx) == hash(make_context(37))
    assert ctx != PrecisionContext(37, 11) and ctx != PrecisionContext(38, 10)
    assert (ctx.target_digits, ctx.guard_digits) == (37, 10)
    with pytest.raises(AttributeError):
        ctx.target_digits = 38


def test_workprec_sets_and_restores_the_precision():
    def third_at(prec):
        return mpmath.libmp.from_rational(1, 3, prec, mpmath.libmp.round_nearest)

    ctx, inner = make_context(40), make_context(100)
    assert ctx.prec == mpmath.libmp.dps_to_prec(50) == 169
    before = mp.prec
    assert BoundedReal.exact(Fraction(1, 3)).value._mpf_ == third_at(53)
    with ctx.workprec():
        assert BoundedReal.exact(Fraction(1, 3)).value._mpf_ == third_at(169)
        with inner.workprec():
            assert BoundedReal.exact(Fraction(1, 3)).value._mpf_ == third_at(inner.prec)
        assert BoundedReal.exact(Fraction(1, 3)).value._mpf_ == third_at(169)
        assert mp.prec == before
    assert BoundedReal.exact(Fraction(1, 3)).value._mpf_ == third_at(53)
    assert mp.prec == before


# -- mpf <-> Fraction ---------------------------------------------------------

def test_mpf_to_fraction_exact_dyadics():
    assert mpf_to_fraction(mpf(0)) == 0
    assert mpf_to_fraction(mpf(3)) == 3
    assert mpf_to_fraction(mpf("0.5")) == Fraction(1, 2)
    assert mpf_to_fraction(mpf("-2.75")) == Fraction(-11, 4)


def test_mpf_to_fraction_keeps_high_precision_values():
    with mp.workdps(50):
        x = mpf(1) / mpf(3)
    # conversion outside the workdps block must not re-round x
    f = mpf_to_fraction(x)
    assert abs(f - Fraction(1, 3)) < Fraction(1, 10**45)


def test_mpf_to_fraction_rejects_non_finite():
    with pytest.raises(ValueError):
        mpf_to_fraction(mpf("inf"))


# -- constructors -------------------------------------------------------------

def test_exact_small_int_has_zero_error():
    x = BoundedReal.exact(12345)
    assert x.abs_err == 0
    assert x.contains(12345)


def test_exact_huge_int_is_contained():
    n = 10**60 + 7
    x = BoundedReal.exact(n)
    assert x.abs_err > 0
    assert x.contains(n)


@pytest.mark.parametrize("kind", [int, Fraction])
def test_exact_rounds_a_long_int_in_one_step(kind):
    # three significant bits in 10^6: exact, with no byte-by-byte strip of
    # the trailing zeros (2.7 s), and its log in well under 0.1 s too
    n = 7 * 2**1000000
    ctx = make_context(20)
    with ctx.workprec():
        start = time.perf_counter()
        x = BoundedReal.exact(kind(n))
        built = time.perf_counter() - start
        start = time.perf_counter()
        log_x = x.log()
        logged = time.perf_counter() - start
    assert x.abs_err == 0 and x.contains(n)
    with mp.workdps(3 * ctx.working_digits):
        ref = mp.log(7) + 1000000 * mp.log(2)
    assert log_x.contains(mpf_to_fraction(ref))
    assert built < 0.1 and logged < 0.1


def test_exact_adds_the_slop_only_past_prec_significant_bits():
    ctx = make_context(20)
    prec = ctx.prec
    with ctx.workprec():
        for n in (2**200, (2**prec - 1) * 2**300):
            for x in (BoundedReal.exact(n), BoundedReal.exact(Fraction(n, 2**900))):
                assert x.abs_err == 0
            assert BoundedReal.exact(n).contains(n)
        for n in ((2 ** (prec + 1) - 1) * 2**300, 3**300, -(3**300) * 2**50):
            x = BoundedReal.exact(n)
            assert x.abs_err > 0 and x.contains(n)
            with mp.workprec(prec):  # the value mpmath rounds to nearest
                assert x.value == mpf(n)


def test_exact_fraction_dyadic_and_generic():
    assert BoundedReal.exact(Fraction(3, 8)).abs_err == 0
    y = BoundedReal.exact(Fraction(1, 3))
    assert y.abs_err > 0
    assert y.contains(Fraction(1, 3))


def test_exact_passthrough_and_float():
    x = BoundedReal.exact(Fraction(1, 3))
    assert BoundedReal.exact(x) is x
    assert BoundedReal.exact(0.5).abs_err == 0


def test_exact_rejects_strings():
    with pytest.raises(TypeError):
        BoundedReal.exact("1.5")


def test_constructor_counts_the_rounding_of_a_non_mpf_value():
    n = 2**100 + 1
    assert BoundedReal(n, 0).contains(n)
    third = BoundedReal(Fraction(1, 3), Fraction(1, 10**30))
    assert third.contains(Fraction(1, 3) + Fraction(1, 10**30))
    assert mpf_to_fraction(third.abs_err) > Fraction(1, 10**30)
    # an mpf keeps every bit, with the radius given
    with mp.workdps(50):
        long_third = mpf(1) / 3
    x = BoundedReal(long_third, 0)
    assert x.value == long_third and x.abs_err == 0


@pytest.mark.parametrize("extra", [3, Fraction(1, 3 * 2**100), "long_mpf"],
                         ids=["int", "fraction", "long_mpf"])
def test_constructor_widens_a_ball_by_an_exact_radius(extra):
    if extra == "long_mpf":
        with mp.workdps(60):
            extra = mpf(1) / 7 * mpf(2) ** -95
    with make_context(20).workprec():
        x = BoundedReal(Fraction(1, 3), Fraction(1, 5 * 2**99))
        wide = BoundedReal(x, extra)
    assert x.abs_err > 0 and wide._v == x._v
    want = mpf_to_fraction(x.abs_err) + (
        mpf_to_fraction(extra) if isinstance(extra, mpf) else extra)
    assert want <= mpf_to_fraction(wide.abs_err) <= want * (1 + Fraction(1, 2**62))


def test_hull_holds_both_ends_about_the_midpoint():
    with make_context(20).workprec():
        third, half = BoundedReal.exact(Fraction(1, 3)), BoundedReal.exact(Fraction(1, 2))
        # lo wider, then hi wider with a distance that must round up
        for lo, hi in [(third.exp(), half.exp()),
                       (BoundedReal(third, Fraction(1, 100)), half),
                       (-third, BoundedReal(third * 2, Fraction(1, 100)))]:
            hull = _hull(lo, hi)
            assert hull._v == ((lo + hi) * Fraction(1, 2))._v
            assert hull.contains(lo.lower()) and hull.contains(hi.upper())


def test_contains_reads_mpf_and_float_exactly():
    # mpf(x) would re-round x to mpmath's global precision
    with mp.workdps(900):
        pi = +mp.pi
    assert pi_const(make_context(300)).contains(pi)
    with mp.workprec(24):
        assert BoundedReal.exact(0.1).contains(0.1)


def test_negative_error_rejected():
    with pytest.raises(ValueError):
        BoundedReal(mpf(1), mpf(-1))


def test_non_finite_rejected():
    with pytest.raises(PrecisionError):
        BoundedReal(mpf("nan"), mpf(0))


# -- interval containment under arithmetic ------------------------------------

fractions_st = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
)


@given(fractions_st, fractions_st)
def test_add_sub_mul_contain_exact_result(a, b):
    xa = BoundedReal.exact(a)
    xb = BoundedReal.exact(b)
    assert (xa + xb).contains(a + b)
    assert (xa - xb).contains(a - b)
    assert (xa * xb).contains(a * b)


@given(fractions_st, fractions_st)
def test_division_contains_exact_result(a, b):
    if abs(b) < Fraction(1, 100):
        b = b + 1
    assert (BoundedReal.exact(a) / BoundedReal.exact(b)).contains(a / b)


@given(fractions_st)
def test_mixed_operand_promotion(a):
    x = BoundedReal.exact(a)
    assert (2 * x).contains(2 * a)
    assert (x + Fraction(1, 3)).contains(a + Fraction(1, 3))
    assert (1 - x).contains(1 - a)
    assert (-x).contains(-a)
    assert abs(x).contains(abs(a))


# mpf operands of widely varying size: a mantissa and a binary exponent
mpf_parts_st = st.tuples(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=-150, max_value=150),
)
radius_parts_st = st.tuples(
    st.integers(min_value=1, max_value=10**20),
    st.integers(min_value=-400, max_value=100),
)


@pytest.mark.parametrize("dps", [20, 300])
@given(mpf_parts_st, radius_parts_st, mpf_parts_st, radius_parts_st)
def test_ops_on_wide_intervals_contain_all_four_corners(dps, a, ea, b, eb):
    ctx = PrecisionContext(dps - 10, 10)
    with ctx.workprec():
        x = BoundedReal(mpf(a, prec=ctx.prec), mpf(ea, prec=ctx.prec))
        y = BoundedReal(mpf(b, prec=ctx.prec), mpf(eb, prec=ctx.prec))
        A, EA, B, EB = (
            mpf_to_fraction(t) for t in (x.value, x.abs_err, y.value, y.abs_err)
        )
        corners = [(A + sa * EA, B + sb * EB) for sa in (-1, 1) for sb in (-1, 1)]
        total, diff, prod = x + y, x - y, x * y
        for p, q in corners:
            assert total.contains(p + q)
            assert diff.contains(p - q)
            assert prod.contains(p * q)
        assume(abs(B) > EB)
        quot = x / y
        for p, q in corners:
            assert quot.contains(p / q)


@pytest.mark.parametrize(
    "a, ea, b, eb",
    [
        (
            "0.0000267909855964311471962911919760005",
            "24031425599647916316184616.2633018",
            "62072894027199746994984453160.3359",
            "61192844096113398839734397929.4219",
        ),
        # a 64-bit |b| (|b| - eb) that needs rounding, with nothing else
        # in the radius to absorb a wrong direction
        (0, mpf(2) ** -10, 16557738134717660093, 708),
    ],
)
def test_division_radius_rounds_its_denominator_down(a, ea, b, eb):
    # (|b| ea + |a| eb) / (|b| (|b| - eb)) is a bound only if the product in
    # the denominator is rounded down
    ctx = PrecisionContext(20, 10)
    with ctx.workprec():
        x = BoundedReal(mpf(a, prec=ctx.prec), mpf(ea, prec=ctx.prec))
        y = BoundedReal(mpf(b, prec=ctx.prec), mpf(eb, prec=ctx.prec))
        A, EA, B, EB = (
            mpf_to_fraction(t) for t in (x.value, x.abs_err, y.value, y.abs_err)
        )
        assert (x / y).contains((A + EA) / (B - EB))


@pytest.mark.parametrize("mid", [-1, 1])
def test_upper_and_lower_bound_the_interval_for_either_sign(mid):
    with PrecisionContext(20, 10).workprec():
        x = BoundedReal(mpf(mid), mpf(2) ** -200)
        assert mpf_to_fraction(x.upper()) >= mid + Fraction(1, 2**200)
        assert mpf_to_fraction(x.lower()) <= mid - Fraction(1, 2**200)


@pytest.mark.parametrize("man", [2**101 - 1, 2**101 + 1], ids=["below", "above"])
@pytest.mark.parametrize("sign", [0, 1], ids=["positive", "negative"])
def test_directed_sums_with_a_long_radius_round_outward(sign, man):
    # a midpoint near 2^31, longer than 70 or 64 bits, and a 121-bit radius
    # near 2^-50 whose exponent is 101 bits below the midpoint's, so that it
    # reaches 20 bits into it: mpf_add's shortcut for exponents over 100
    # bits apart treats the radius as lying below every bit of the midpoint,
    # which rounds these sums inward unless both are first rounded outward
    mid = mp.make_mpf((sign, man, -70, man.bit_length()))
    rad = mp.make_mpf((0, 2**121 - 1, -171, 121))
    M, R = mpf_to_fraction(mid), mpf_to_fraction(rad)
    with PrecisionContext(10, 10).workprec():  # 70 bits
        x = BoundedReal(mid, rad)
        assert mpf_to_fraction(x.upper()) >= M + R
        assert mpf_to_fraction(x.lower()) <= M - R
        assert mpf_to_fraction(x.abs_upper()) >= abs(M) + R
        # [-1, 1] * x reaches |M| + R
        assert (BoundedReal(mpf(0), mpf(1)) * x).contains(abs(M) + R)


def test_bounded_real_is_an_immutable_value():
    x = BoundedReal(mpf(3), mpf("0.25"))
    assert isinstance(x.value, mpf) and isinstance(x.abs_err, mpf)
    assert x == BoundedReal(mpf(3), mpf("0.25"))
    assert hash(x) == hash(BoundedReal(mpf(3), mpf("0.25")))
    assert x != BoundedReal(mpf(3), mpf("0.5"))
    with pytest.raises(AttributeError):
        x.value = mpf(4)


def test_exact_keeps_every_bit_of_a_longer_mpf():
    with mp.workdps(50):
        third = mpf(1) / 3
    with PrecisionContext(10, 10).workprec():
        x = BoundedReal.exact(third)
        assert x.abs_err == 0
        assert mpf_to_fraction(x.value) == mpf_to_fraction(third)


def test_division_by_interval_containing_zero():
    wide = BoundedReal(mpf("0.001"), mpf("0.01"))
    with pytest.raises(PrecisionError):
        BoundedReal.exact(1) / wide


def test_rtruediv():
    x = BoundedReal.exact(4)
    assert (1 / x).contains(Fraction(1, 4))


@given(fractions_st, st.integers(min_value=0, max_value=12))
def test_pow_int_contains_exact_power(a, n):
    assert BoundedReal.exact(a).pow_int(n).contains(a**n)


def test_pow_int_negative_exponent():
    x = BoundedReal.exact(Fraction(3, 2))
    assert x.pow_int(-2).contains(Fraction(4, 9))


def test_power_rational_exponent():
    x = BoundedReal.exact(Fraction(9, 4)).power(Fraction(1, 2))
    assert x.contains(Fraction(3, 2))
    y = BoundedReal.exact(Fraction(9, 4)).sqrt()
    assert y.contains(Fraction(3, 2))


def test_exp_log_roundtrip_contains():
    for q in (Fraction(1, 3), Fraction(7, 2), Fraction(100)):
        x = BoundedReal.exact(q)
        assert x.log().exp().contains(q)


def test_exp_error_propagation_is_outward():
    x = BoundedReal(mpf(1), mpf("1e-10"))
    y = x.exp()
    # interval [e^(1-d), e^(1+d)] must sit inside value +- abs_err
    lo = mpmath.exp(mpf(1) - mpf("1e-10"))
    hi = mpmath.exp(mpf(1) + mpf("1e-10"))
    assert y.lower() <= lo and hi <= y.upper()


def test_log_rejects_interval_touching_zero():
    with pytest.raises(PrecisionError):
        BoundedReal(mpf("1e-5"), mpf("1e-4")).log()


def test_interval_views():
    x = BoundedReal(mpf(2), mpf("0.5"))
    assert x.lower() <= mpf("1.5")
    assert x.upper() >= mpf("2.5")
    assert x.abs_upper() >= mpf("2.5")
    assert float(x) == 2.0


# raw balls for the containment tests: a signed mantissa, an exponent of
# either sign, and a radius that may be zero
ball_parts_st = st.tuples(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=-260, max_value=160),
)


def _ball(parts):
    man, exp, eman, eexp = parts
    x = BoundedReal(mp.make_mpf(from_man_exp(man, exp)),
                    mp.make_mpf(from_man_exp(eman, eexp)))
    return x, mpf_to_fraction(x.value), mpf_to_fraction(x.abs_err)


@given(ball_parts_st, st.integers(min_value=-(10**40), max_value=10**40),
       st.integers(min_value=1, max_value=10**40), st.integers(-3, 3))
def test_contains_agrees_with_the_fraction_formula(parts, n, q, nudge):
    x, mid, rad = _ball(parts)
    for target in (Fraction(n, q), mid, mid + rad, mid - rad,
                   mid + rad + Fraction(nudge, q), mid - rad + Fraction(nudge, q)):
        assert x.contains(target) == (abs(mid - target) <= rad)
        # the same number as an int, a float or an mpf where it is one
        if target.denominator == 1:
            assert x.contains(target.numerator) == x.contains(target)
        as_mpf = mp.make_mpf(from_rational(target.numerator, target.denominator,
                                           200, round_nearest))
        assert x.contains(as_mpf) == (abs(mid - mpf_to_fraction(as_mpf)) <= rad)
        as_float = float(target)
        assert x.contains(as_float) == (abs(mid - Fraction(as_float)) <= rad)


def _dyadic_mpf(x: Fraction) -> mpf:
    return mp.make_mpf(from_man_exp(x.numerator, 1 - x.denominator.bit_length()))


@given(ball_parts_st, ball_parts_st)
def test_agrees_with_matches_the_fraction_formula(a, b):
    x, mx, rx = _ball(a)
    y, my, ry = _ball(b)
    assert x.agrees_with(y) == y.agrees_with(x) == (abs(mx - my) <= rx + ry)
    # balls that just touch, on either side, and ones slightly further off
    for end in (mx + rx + ry, mx - rx - ry):
        touching = BoundedReal(_dyadic_mpf(end), y.abs_err)
        assert x.agrees_with(touching) and touching.agrees_with(x)
        apart = end + (end - mx) / 2**300
        if apart != end:
            assert not x.agrees_with(BoundedReal(_dyadic_mpf(apart), y.abs_err))


def test_contains_refuses_non_finite_numbers():
    x = BoundedReal(mpf(1), mpf(1))
    for bad in (mpf("inf"), mpf("-inf"), mpf("nan"), float("inf"), float("nan")):
        with pytest.raises(ValueError):
            x.contains(bad)


def test_agrees_with_overlapping_and_disjoint():
    a = BoundedReal(mpf(1), mpf("0.1"))
    b = BoundedReal(mpf("1.15"), mpf("0.1"))
    c = BoundedReal(mpf(2), mpf("0.1"))
    assert a.agrees_with(b)
    assert not a.agrees_with(c)


# -- decimal display ----------------------------------------------------------

def test_round_to_digits_counts_all_printed_digits():
    x = BoundedReal.exact(Fraction(123456, 1000))
    # the binary ball around 123.456 straddles it, so its last digit is open
    assert round_to_digits(x, 6) == "123.456~"
    assert round_to_digits(x, 4) == "123.4"
    assert round_to_digits(x, 3) == "123"


def test_round_to_digits_leading_zero_counts():
    x = BoundedReal.exact(Fraction(1, 2))
    assert round_to_digits(x, 3) == "0.50"
    # below 10^(1-d) the display switches to d significant digits
    assert round_to_digits(x, 1) == "5e-1"


def test_round_to_digits_truncates_toward_zero():
    assert round_to_digits(BoundedReal.exact(Fraction(1999, 1000)), 3) == "1.99"
    assert round_to_digits(BoundedReal.exact(Fraction(-1999, 1000)), 3) == "-1.99"


def test_round_to_digits_scientific_branches():
    big = BoundedReal.exact(Fraction(12345, 10))
    assert round_to_digits(big, 2) == "1.2e+3"
    # 1/1000 and 1/100 are not binary: their balls straddle the boundary
    small = BoundedReal.exact(Fraction(1, 1000))
    assert round_to_digits(small, 3) == "1.00e-3~"
    edge = BoundedReal.exact(Fraction(1, 100))
    assert round_to_digits(edge, 3) == "0.01~"
    # 10^20 - 1 in 67 bits: its top 53 bits put log10 at 20.0 in floats,
    # so the exponent must be corrected down exactly
    with PrecisionContext(50, 10).workprec():  # 203 bits
        below = BoundedReal.exact(10**20 - 1)
    assert round_to_digits(below, 3) == "9.99e+19"
    assert round_to_digits(below, 20) == "99999999999999999999"


def test_round_to_digits_zero():
    assert round_to_digits(BoundedReal.exact(0), 4) == "0.000"
    assert round_to_digits(BoundedReal.exact(0), 1) == "0"


def test_round_to_digits_uncertified_marker():
    rough = BoundedReal(mpf("1.5"), mpf("0.1"))
    assert round_to_digits(rough, 5) == "1.5000~"
    assert round_to_digits(rough, 1) == "1"
    # certified only when both ends of the ball truncate to the printed
    # digits: [0.625, 1.375] reaches below 1, and [1.125, 1.875] does not
    assert round_to_digits(BoundedReal(mpf(1), mpf(0.375)), 1) == "1~"
    assert round_to_digits(BoundedReal(mpf("1.5"), mpf(0.375)), 1) == "1"
    assert round_to_digits(BoundedReal(mpf("1.5"), mpf(0.5)), 1) == "1~"
    # the midpoint 1.2350001 prints 1.235, but 1.2349991 is in the ball
    near = BoundedReal(Fraction(12350001, 10**7), Fraction(1, 10**6))
    assert round_to_digits(near, 4) == "1.235~"


def test_round_to_digits_validates_digits():
    with pytest.raises(ValueError):
        round_to_digits(BoundedReal.exact(1), 0)


@given(fractions_st, st.integers(min_value=1, max_value=12))
def test_round_to_digits_prefix_consistency(a, d):
    # a certified longer display starts with the shorter one up to the dot
    x = BoundedReal.exact(a)
    s_long = round_to_digits(x, d + 1).rstrip("~")
    s_short = round_to_digits(x, d).rstrip("~")
    if "e" not in s_long and "e" not in s_short:
        assert s_long.startswith(s_short.rstrip("."))


def _reference_decimal(v: Fraction, digits: int, up: bool) -> tuple:
    """(text, last_place) in round_to_digits' layout, from Fraction alone."""
    if v == 0:
        return ("0" if digits == 1 else "0." + "0" * (digits - 1)), 1 - digits
    a = abs(v)
    e = len(str(a.numerator)) - len(str(a.denominator))
    while Fraction(10) ** e > a:
        e -= 1
    while Fraction(10) ** (e + 1) <= a:
        e += 1
    q = digits - 1 if -digits < e < 0 else digits - 1 - e
    scaled = a * Fraction(10) ** q
    m = -(-scaled.numerator // scaled.denominator) if up else int(scaled)
    if m == 10 ** (e + q + 1):  # a ceiling that carried to 10^(e+1)
        e += 1
        q = digits - 1 if -digits < e < 0 else digits - 1 - e
        m = 10 ** (e + q)
    s = str(m)
    if 0 <= e < digits:  # e + 1 integer digits, the rest after the point
        text = s[: e + 1] + ("." + s[e + 1 :] if e + 1 < digits else "")
    elif -digits < e < 0:  # a leading "0." and digits - 1 fractional digits
        text = "0." + s.zfill(digits - 1)
    else:  # digits significant digits and an exponent
        text = s[0] + ("." + s[1:] if digits > 1 else "") + f"e{e:+d}"
    return ("-" + text if v < 0 else text), -q


def _mantissa_and_exponent():
    """(man, exp) with man of 1-700 bits and exp to +-400, or a power of
    ten and its neighbours at some working precision."""
    plain = st.tuples(
        st.integers(1, 700).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1)),
        st.integers(-400, 400),
    )

    def ten(k, bits, step):
        p = Fraction(10) ** k
        _, man, exp, _ = mpmath.libmp.from_rational(
            p.numerator, p.denominator, bits, mpmath.libmp.round_nearest
        )
        return int(man) + step, exp

    near_ten = st.builds(
        ten, st.integers(-120, 120), st.integers(2, 500), st.sampled_from([-1, 0, 1])
    )
    return st.one_of(plain, near_ten)


@settings(max_examples=400, deadline=None)
@given(st.booleans(), _mantissa_and_exponent(), st.integers(1, 60), st.data())
def test_printing_matches_an_exact_fraction_reference(negative, man_exp, digits, data):
    man, exp = man_exp
    v = mp.make_mpf(mpmath.libmp.from_man_exp(-man if negative else man, exp))
    exact = mpf_to_fraction(v)
    text, last_place = _reference_decimal(exact, digits, up=False)
    # radii at and next to the distance from |v| to either digit boundary
    # around it, or to half a unit in the last place, at 64 bits
    unit = Fraction(10) ** last_place
    a = abs(exact)
    m = a // unit
    gap = data.draw(st.sampled_from([a - m * unit, (m + 1) * unit - a, unit / 2]))
    rounding = data.draw(st.sampled_from(["f", "c"]))
    _, eman, eexp, _ = mpmath.libmp.from_rational(
        gap.numerator, gap.denominator, 64, rounding
    )
    step = data.draw(st.sampled_from([-1, 0, 1]))
    radius = mp.make_mpf(data.draw(st.one_of(
        st.just(mpmath.libmp.from_man_exp(max(int(eman) + step, 0), eexp)),
        st.just(mpmath.libmp.fzero),
        st.builds(mpmath.libmp.from_man_exp,
                  st.integers(1, 2**64), st.integers(-1500, 100)),
    )))
    x = BoundedReal(v, radius)
    r = mpf_to_fraction(radius)
    certified = (a - r) // unit == m == (a + r) // unit
    assert round_to_digits(x, digits) == (text if certified else text + "~")
    assert round_to_digits(x, digits).endswith("~") != certified
    assert _decimal(v, digits) == (text, last_place)
    assert _decimal(v, digits, up=True) == _reference_decimal(
        exact, digits, up=True
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(
           lambda d: st.tuples(st.just(d), st.integers(10 ** (d - 1), 10**d - 1))),
       st.integers(-30, 30), st.integers(-3, 3), st.integers(-120, -3),
       st.integers(0, 2**20), st.integers(-140, 0), st.booleans())
def test_a_display_without_a_tilde_holds_for_the_whole_ball(
        digits_k, t, offset, offset_exp, rad_man, rad_exp, negative):
    # a midpoint within a few 2^offset_exp units of the digit boundary
    # k 10^t, and a radius from nothing to several units of the last place:
    # the display lacks '~' iff both ends of the ball print its digits
    digits, k = digits_k
    scale = Fraction(10) ** t
    centre = (k + offset * Fraction(2) ** offset_exp) * scale
    sign = -1 if negative else 1
    mid = mp.make_mpf(mpmath.libmp.from_rational(
        sign * centre.numerator, centre.denominator, 400, mpmath.libmp.round_nearest))
    rad = rad_man * Fraction(2) ** rad_exp * scale
    radius = mp.make_mpf(mpmath.libmp.from_rational(
        rad.numerator, rad.denominator, 64, mpmath.libmp.round_ceiling))
    a, r = abs(mpf_to_fraction(mid)), mpf_to_fraction(radius)
    printed = round_to_digits(BoundedReal(mid, radius), digits)
    text = _reference_decimal(a, digits, up=False)[0]
    assert printed.rstrip("~") == ("-" + text if negative else text)
    pinned = a - r > 0 and all(
        _reference_decimal(end, digits, up=False)[0] == text for end in (a - r, a + r))
    assert printed.endswith("~") != pinned


@pytest.mark.parametrize("digits", [4300, 4301, 6000])
def test_printing_past_the_int_to_str_limit(digits):
    # str() of an int refuses more than 4300 digits by default
    with PrecisionContext(digits, 20).workprec():
        thirds = round_to_digits(BoundedReal.exact(Fraction(4, 3)), digits)
        near_one = round_to_digits(BoundedReal.exact(1 + Fraction(1, 2**3000)), digits)
    assert thirds == "1." + "3" * (digits - 1)
    tail = str(5**3000).rjust(3000, "0")  # 2^-3000 = 5^3000 10^-3000
    assert near_one == ("1." + tail + "0" * digits)[: digits + 1]


def test_format_bound():
    assert format_bound(mpf(0)) == "0"
    assert format_bound(mpf("6.002e-4")) == "6.002e-4"
    assert format_bound(mpf("1.948e-12")) == "1.948e-12"
    assert format_bound(mpf("0.123")) == "1.230e-1"
