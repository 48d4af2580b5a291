"""Golden-value, route-agreement and reference tests for the constants.

The decimal strings below are frozen expected outputs: truncated displays
of certified values. Every constant with more than one mathematical route
is additionally checked for route agreement within certified bounds, and
the closed-form routes for containment of an mpmath-only reference. The
routes evaluate each constant once; these tests hold the relations among
their forms.
"""

import types
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from bernfac import constants, special
from bernfac.asymptotic import (
    milnor_f_log,
    milnor_g_log,
    n_coeff,
    p_rk_log,
    q_r_log,
    s_r_coeffs,
)
from bernfac.constants import (
    b_family,
    c_constant,
    clear_cache,
    f_infty_refined,
    f_infty_weak,
    f_k_closed,
    f_k_log_closed,
    f_k_via_linear_system,
    f_r1,
    f_r1_alpha,
    f_r1_log,
    f_rk_series,
    gamma_product_constants,
    glaisher_a,
    log_glaisher_a,
)
from bernfac.precision import (
    BoundedReal,
    PrecisionContext,
    PrecisionError,
    _decimal,
    make_context,
    mpf_to_fraction,
    round_to_digits,
)
from bernfac.special import (
    euler_gamma,
    log_gamma_rational,
    log_two_pi,
    pi_const,
    zeta_int,
    zeta_prime_int,
    zeta_prime_neg,
)
from references import (
    References,
    contains_reference,
    exact_fraction,
    f_inf_reference,
    f_r1_log_zeta_form,
    reference_dps,
)

CTX = make_context(21)

F_K_VALUES = {
    1: "1.04633506677050318098",
    2: "1.02393741163711840157",
    3: "1.01604053706462099128",
    4: "1.01204589802394464624",
    5: "1.00963997283647705086",
    6: "1.00803362724207326544",
}

F_K_SERIES_PARAMS = {
    1: (4, "6.002e-4"),
    2: (7, "7.826e-7"),
    3: (10, "1.198e-9"),
    4: (13, "1.948e-12"),
    5: (16, "3.272e-15"),
    6: (20, "5.552e-18"),
}

F_R1_VALUES = {
    0: "1.04633506677050318098",
    1: "0.99600199446870605433",
    2: "0.99904614418135586848",
    3: "1.00097924030236153773",
    4: "1.00007169725554110099",
    5: "0.99937792615674804266",
}

B_VALUES = {
    "B1": "4.85509664652226751252",
    "B2": "1.93690332773294192068",
    "B3": "2.73919495508550621998",
    "Bprime": "0.70486487346802031057",
}


# -- display helpers -----------------------------------------------------------

def test_floor_ceil_to_digits():
    # f_infty_weak's interval ends: the one decimal path, rounded down or up
    a = mpf("1.23456")
    assert _decimal(a, 4) == ("1.234", -3)
    assert _decimal(a, 4, up=True) == ("1.235", -3)
    assert _decimal(mpf(1.25), 3) == ("1.25", -2)
    assert _decimal(mpf(1.25), 3, up=True) == ("1.25", -2)
    assert _decimal(mpf("0.9999"), 3, up=True)[0] == "1.00"


# -- zeta products ---------------------------------------------------------------

def test_c_constants_golden_digits():
    assert c_constant(1, CTX).digits(11) == "2.2948565916"
    assert c_constant(2, CTX).digits(21) == "1.82101745149929239040"
    assert c_constant(3, CTX).digits(11) == "1.2602057107"


def test_c_constants_multiply_up():
    with CTX.workprec():
        c1 = c_constant(1, CTX).value
        c2 = c_constant(2, CTX).value
        c3 = c_constant(3, CTX).value
        assert c1.agrees_with(c2 * c3)
        assert abs(float((c1 - c2 * c3).value)) < 1e-24


def test_c_constant_params_and_validation():
    rep = c_constant(1, CTX)
    assert rep.method == "closed_form"
    assert rep.params["N_prime"] > 20
    with pytest.raises(ValueError):
        c_constant(4, CTX)


@pytest.mark.parametrize("digits", [1, 20, 100])
def test_c_constant_widens_by_the_whole_tail(digits):
    # the factors past N' multiply the product by e^delta with
    # 0 <= delta < b = 2^(1-N'), and e^b - 1 <= b + b^2. Only a short
    # product (N' = 14 at one digit) shows the b^2 term: at 20 digits it is
    # 2^-76 of the radius, below the radius' own 64-bit upward rounding
    ctx = make_context(digits)
    for which, start, step in ((1, 2, 1), (2, 2, 2), (3, 3, 2)):
        report = c_constant(which, ctx)
        n_prime = report.params["N_prime"]
        with ctx.workprec():
            prod = BoundedReal.exact(1)
            for s in range(start, n_prime + 1, step):
                prod = prod * zeta_int(s, ctx)
            b = Fraction(1, 2 ** (n_prime - 1))
            widening = mpf_to_fraction(prod.upper()) * (b + b * b)
        assert report.value.value == prod.value, which
        radius = mpf_to_fraction(report.value.abs_err)
        assert radius >= mpf_to_fraction(prod.abs_err) + widening, which


CUTOFF_DIGITS = range(1, 2001)


def test_zeta_product_cutoff_brackets_the_root():
    # N' - 3/N' > (d+3) log2(10) > (N'-1) - 3/(N'-1), in mpmath at 60 digits
    cutoffs = {d: special._plan(make_context(d)).cut for d in CUTOFF_DIGITS}
    clear_cache()
    with mpmath.workdps(60):
        for d, n in cutoffs.items():
            big_l = (d + 3) * mpmath.log(10) / mpmath.log(2)
            assert n - mpf(3) / n > big_l > (n - 1) - mpf(3) / (n - 1)
    assert (cutoffs[20], cutoffs[100], cutoffs[200]) == (77, 343, 675)


def test_zeta_product_cutoff_builds_no_fraction_powers(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction.__pow__ called")

    clear_cache()
    monkeypatch.setattr(Fraction, "__pow__", refuse)
    n = special._plan(make_context(2000)).cut
    monkeypatch.undo()
    with mpmath.workdps(60):
        big_l = 2003 * mpmath.log(10) / mpmath.log(2)
        assert n - mpf(3) / n > big_l > (n - 1) - mpf(3) / (n - 1)


def test_zeta_product_cutoff_raises_precision_when_undecided(monkeypatch):
    # with each integer log allowed an error of 2^60 units, 64 bits cannot
    # separate N' = 675 from 674 at 200 digits, so the unit must be doubled
    tried = []
    log_int = special._log_int

    def recorded(v, P):
        tried.append(P)
        return log_int(v, P)

    clear_cache()  # the plan is memoized
    monkeypatch.setattr(special, "_log_int", recorded)
    monkeypatch.setattr(special, "_log_err", lambda v: 1 << 60)
    assert special._plan(make_context(200)).cut == 675
    clear_cache()
    assert min(tried) == 64 and max(tried) > 64


# -- Glaisher-type constants ------------------------------------------------------

def test_glaisher_a_golden_digits():
    assert glaisher_a(0, CTX).digits(21) == "2.50662827463100050241"
    assert glaisher_a(1, CTX).digits(21) == "1.28242712910062263687"
    assert glaisher_a(2, CTX).digits(21) == "1.03091675219739211419"
    assert glaisher_a(3, CTX).digits(21) == "0.97955552694284460582"


def test_glaisher_a0_is_sqrt_two_pi():
    with CTX.workprec():
        a0 = glaisher_a(0, CTX).value
        assert a0.agrees_with((log_two_pi(CTX) / 2).exp())


def test_log_glaisher_a1_alternate_route():
    # log A = gamma/12 + log(2 pi)/12 - zeta'(2)/(2 pi^2)
    with CTX.workprec():
        main = log_glaisher_a(1, CTX)
        alt = (
            euler_gamma(CTX) / 12
            + log_two_pi(CTX) / 12
            - zeta_prime_int(2, CTX) / (pi_const(CTX).pow_int(2) * 2)
        )
        assert main.agrees_with(alt)
        assert abs(float((main - alt).value)) < 1e-25


def test_glaisher_rejects_negative():
    with pytest.raises(ValueError):
        log_glaisher_a(-1, CTX)


# -- factorial-product constants F_k ------------------------------------------------

def test_f_k_closed_golden_digits():
    for k, digits in F_K_VALUES.items():
        assert f_k_closed(k, CTX).digits(21) == digits


def test_f_k_closed_params_and_validation():
    assert f_k_closed(2, CTX).params == {"k": 2}
    assert f_k_closed(5, CTX).params == {"k": 5}
    with pytest.raises(ValueError):
        f_k_closed(0, CTX)


def test_f_k_series_truncation_indices_and_bounds():
    for k, (m, bound) in F_K_SERIES_PARAMS.items():
        rep = f_rk_series(0, k, CTX)
        assert rep.params["m"] == m
        assert rep.params["bound"] == bound
        assert rep.method == "divergent_series"


def test_f_k_series_agrees_with_closed_form():
    for k in range(1, 7):
        series = f_rk_series(0, k, CTX)
        closed = f_k_closed(k, CTX)
        assert series.value.agrees_with(closed.value)
        assert series.value.contains(mpf_to_fraction(closed.value.value))


def test_f_rk_series_general_case():
    rep = f_rk_series(1, 2, CTX)
    assert rep.name == "F(1,2)"
    assert rep.digits(21) == "0.99945181855474644074~"
    assert rep.params["m"] == 7
    with pytest.raises(ValueError):
        f_rk_series(-1, 1, CTX)


def test_f_k_linear_system_matches_closed_route():
    for k in range(2, 7):
        lin = f_k_via_linear_system(k, CTX)
        assert lin.method == "linear_system"
        assert lin.digits(21) == F_K_VALUES[k]
        assert lin.params["det"] == k
    with pytest.raises(ValueError):
        f_k_via_linear_system(1, CTX)


def test_f_k_linear_system_first_component():
    # the route reads log F_k off x_1 = log F_k + (1/4) log 2pi + k log A
    k = 3
    lin = f_k_via_linear_system(k, CTX)
    with CTX.workprec():
        assert lin.value.log().agrees_with(f_k_log_closed(k, CTX))


# -- F_inf -----------------------------------------------------------------------

def test_f_infty_weak_interval_display():
    rep = f_infty_weak(CTX)
    assert rep.params["lower"] == "1.02428"
    assert rep.params["upper"] == "1.02491"
    assert rep.params["m"] == 4
    assert rep.params["bound"] == "6.052e-4"
    # only a few digits are pinned down, so a long display is uncertified
    assert rep.digits(21).endswith("~")


def test_f_infty_weak_refuses_an_uncertified_sign(monkeypatch):
    # the bracket side comes from the omitted term's enclosure, so one that
    # straddles 0 gives no side, whatever its midpoint
    summed = constants.smallest_term_sum

    def widened(coeff, j_start, ctx):
        kept, omitted, m = summed(coeff, j_start, ctx)
        return kept, BoundedReal(omitted.value, 2 * abs(omitted.value)), m

    monkeypatch.setattr(constants, "smallest_term_sum", widened)
    clear_cache()
    with pytest.raises(PrecisionError):
        f_infty_weak(CTX)


def test_f_infty_weak_contains_refined_value():
    weak = f_infty_weak(CTX)
    refined = f_infty_refined(7, 17, CTX)
    assert weak.value.contains(mpf_to_fraction(refined.value.value))


def test_f_infty_refined_golden_digits():
    rep = f_infty_refined(7, 17, CTX)
    assert rep.digits(21) == "1.02460688265559721480"
    assert rep.params["bound"] == "6.321e-22"
    # the residual theta is pinned so tightly that the reported bracket
    # endpoints coincide at display resolution; only strictness against the
    # ends of (0, 1) is meaningful here
    assert 0 < rep.params["theta_min_float"] <= rep.params["theta_max_float"] < 1


@pytest.mark.parametrize("n, m, digits, certified", [
    (7, 17, 20, True), (20, 60, 60, False), (37, 117, 100, True),
])
def test_f_infty_refined_contains_the_regularized_product_reference(
    n, m, digits, certified
):
    rep = f_infty_refined(n, m, make_context(digits))
    ref, radius = f_inf_reference(digits)
    gap = abs(mpf_to_fraction(rep.value.value) - exact_fraction(ref))
    assert gap <= mpf_to_fraction(rep.value.abs_err) + exact_fraction(radius)
    assert rep.digits(digits).endswith("~") != certified


def test_f_infty_refined_validation():
    with pytest.raises(ValueError):
        f_infty_refined(7, 2, CTX)
    with pytest.raises(ValueError):
        f_infty_refined(0, 17, CTX)


def test_f_k_ordering_against_f_infty():
    # the progression constants decrease strictly in k, and the infinite
    # product sits above 1 but below the k = 1 constant
    values = [float(f_k_closed(k, CTX).value) for k in range(1, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))
    refined = float(f_infty_refined(7, 17, CTX).value)
    assert 1.0 < refined < values[0]


# -- F_{r,1} ---------------------------------------------------------------------

def test_f_r1_golden_digits():
    for r, digits in F_R1_VALUES.items():
        assert f_r1(r, CTX).digits(21) == digits


def test_f_r1_alpha_exponent_table():
    # r = 1: F_{1,1} = e^(1/24) A_2^(-3/2)
    assert f_r1_alpha(1, 0) == Fraction(1, 24)
    assert f_r1_alpha(1, 1) == 0
    assert f_r1_alpha(1, 2) == Fraction(-3, 2)
    # r = 3: F_{3,1} = e^(-1/720) A_2^(-1/4) A_4^(-5/4)
    assert f_r1_alpha(3, 0) == Fraction(-1, 720)
    assert f_r1_alpha(3, 2) == Fraction(-1, 4)
    assert f_r1_alpha(3, 4) == Fraction(-5, 4)
    with pytest.raises(ValueError):
        f_r1_alpha(0, 0)


def test_f_r1_zeta_form_agreement_for_odd_r():
    for r in (1, 3, 5):
        main = f_r1_log(r, CTX)
        zform = f_r1_log_zeta_form(r, CTX)
        assert main.agrees_with(zform)
        assert abs(float((main - zform).value)) < 1e-18
    with pytest.raises(ValueError):
        f_r1_log_zeta_form(2, CTX)


def test_f_r1_alpha_matches_the_weighted_power_sum_form():
    # log F_(r,1) = (1/2) log A_r - log A_(r+1)
    #   + sum_j c_j (N_(j+2,1) - log A_(j+1)), c_j = s_r_coeffs(r)[j]:
    # the same exponent of each log A_j and the same constant term, exactly
    for r in range(1, 61):
        c = s_r_coeffs(r)
        want = {j: -c[j - 1] for j in range(1, r + 2)}
        want[r] += Fraction(1, 2)
        want[r + 1] -= 1
        for j in range(1, r + 2):
            assert f_r1_alpha(r, j) == want[j], (r, j)
        constant = sum(cj * n_coeff(j + 2, 1) for j, cj in enumerate(c))
        assert f_r1_alpha(r, 0) == constant, r


def test_f_r1_report_params():
    rep = f_r1(1, CTX)
    assert rep.name == "F(1,1)"
    assert rep.params["alpha"] == {"0": "1/24", "2": "-3/2"}


# -- Bernoulli-product constants ----------------------------------------------------

def test_b_family_golden_digits():
    family = {rep.name: rep for rep in b_family(CTX)}
    assert set(family) == set(B_VALUES)
    for name, digits in B_VALUES.items():
        assert family[name].digits(21) == digits


def test_b_family_internal_ratios():
    family = {rep.name: rep.value for rep in b_family(CTX)}
    with CTX.workprec():
        ratio = family["B3"] / family["B2"]
        assert ratio.agrees_with(BoundedReal.exact(2).sqrt())
        assert abs(float((ratio - BoundedReal.exact(2).sqrt()).value)) < 1e-25
        ratio2 = family["B1"] / family["B2"]
        assert ratio2.agrees_with((log_two_pi(CTX) / 2).exp())


def test_b_family_prime_relation():
    # B' = 2^(1/24) 2^(-3/2) B2
    family = {rep.name: rep.value for rep in b_family(CTX)}
    with CTX.workprec():
        factor = (
            BoundedReal.exact(2).log() * (Fraction(1, 24) - Fraction(3, 2))
        ).exp()
        want = family["B2"] * factor
        assert family["Bprime"].agrees_with(want)
        assert abs(float((family["Bprime"] - want).value)) < 1e-25


@pytest.mark.parametrize("digits", [21, 100])
def test_b_family_matches_its_other_closed_forms(digits):
    # B' = C2 e^(1/24) / (2^(5/4) A^(1/2)) and B1 = C2 F_2 A^2 (2pi)^(1/4)
    ctx = make_context(digits)
    family = {rep.name: rep.value for rep in b_family(ctx)}
    with ctx.workprec():
        c2 = c_constant(2, ctx).value
        la = log_glaisher_a(1, ctx)
        bprime = c2 * (
            BoundedReal.exact(Fraction(1, 24))
            - BoundedReal.exact(2).log() * Fraction(5, 4)
            - la * Fraction(1, 2)
        ).exp()
        b1 = c2 * (
            f_k_log_closed(2, ctx) + la * 2 + log_two_pi(ctx) * Fraction(1, 4)
        ).exp()
    assert family["Bprime"].agrees_with(bprime)
    assert family["B1"].agrees_with(b1)


# -- Gamma-power product constants ----------------------------------------------------

def test_gamma_product_constants_golden_digits():
    first, second = gamma_product_constants(CTX)
    assert round_to_digits(first, 11) == "0.8077340270"
    assert round_to_digits(second, 11) == "1.2345601953"
    assert round_to_digits(first, 21) == "0.80773402703788255304"
    assert round_to_digits(second, 21) == "1.23456019539799897381"


def test_gamma_product_second_constant_relation():
    # second = (2 pi)^(1/4) / A = A_0^(1/2) / A
    with CTX.workprec():
        _, second = gamma_product_constants(CTX)
        want = glaisher_a(0, CTX).value.sqrt() / glaisher_a(1, CTX).value
        assert second.agrees_with(want)


# -- independent references ----------------------------------------------------------

REFS = References()

# each sweep: (route value, mpmath reference) pairs at a context and dps
REFERENCE_SWEEPS = {
    "F_k": lambda ctx, dps: [
        (f_k_closed(k, ctx).value, REFS.f_k(k, dps)) for k in (*range(1, 13), 40)
    ],
    "F_r1": lambda ctx, dps: [
        (f_r1(r, ctx).value, REFS.f_r1(r, dps)) for r in range(9)
    ],
    "B": lambda ctx, dps: [
        (rep.value, REFS.b_family(dps)[rep.name]) for rep in b_family(ctx)
    ],
    "gamma_product": lambda ctx, dps: list(
        zip(gamma_product_constants(ctx), REFS.gamma_product(dps))
    ),
}


@pytest.mark.parametrize("digits", [20, 100])
@pytest.mark.parametrize("sweep", REFERENCE_SWEEPS)
def test_route_contains_mpmath_reference(sweep, digits):
    pairs = REFERENCE_SWEEPS[sweep](make_context(digits), reference_dps(digits))
    for i, (value, ref) in enumerate(pairs):
        assert contains_reference(value, ref, digits), (sweep, i)


# -- caching ---------------------------------------------------------------------

def test_memoized_reports_are_shared():
    a = c_constant(2, CTX)
    b = c_constant(2, CTX)
    assert a is b
    # the key holds the context's value, not its identity
    assert c_constant(2, PrecisionContext(21, 10)) is a


def test_memoized_routes_stay_plain_functions_of_the_module():
    # perfbench's tracer wraps only functions whose __module__ is their own
    for route in (c_constant, glaisher_a, f_rk_series, b_family):
        assert isinstance(route, types.FunctionType)
        assert route.__module__ == "bernfac.constants"
    for route in (pi_const, euler_gamma, log_two_pi, log_gamma_rational,
                  zeta_prime_neg):
        assert isinstance(route, types.FunctionType)
        assert route.__module__ == "bernfac.special"
    for route in (q_r_log, p_rk_log, milnor_f_log, milnor_g_log):
        assert isinstance(route, types.FunctionType)
        assert route.__module__ == "bernfac.asymptotic"


# the arguments before the context of every memoized route
MEMOIZED_ROUTES = {
    "c_constant": (1,),
    "log_glaisher_a": (2,),
    "glaisher_a": (3,),
    "f_k_log_closed": (3,),
    "f_k_closed": (2,),
    "f_rk_series": (1, 2),
    "f_k_via_linear_system": (3,),
    "f_infty_weak": (),
    "f_infty_refined": (7, 17),
    "f_r1_log": (2,),
    "f_r1": (3,),
    "b_family": (),
    "gamma_product_constants": (),
}


def test_memoized_routes_are_listed():
    assert set(MEMOIZED_ROUTES) == {
        name for name, fn in vars(constants).items()
        if hasattr(fn, "__wrapped__") and fn.__module__ == constants.__name__
    }


@pytest.mark.parametrize("name", MEMOIZED_ROUTES)
def test_memoized_route_sets_its_own_precision(name):
    # the memo runs a miss at the route's context, whatever block encloses it
    route, args = getattr(constants, name), MEMOIZED_ROUTES[name]
    ctx = make_context(20)
    clear_cache()
    plain = route(*args, ctx)
    clear_cache()
    with PrecisionContext(60, 10).workprec():
        assert route(*args, ctx) == plain


@pytest.mark.parametrize("route, args", [
    (zeta_prime_neg, (0,)),
    (zeta_prime_neg, (2,)),
    (zeta_prime_neg, (3,)),
    (q_r_log, (2, 50)),
    (p_rk_log, (1, 2, 50)),
    (milnor_f_log, (21,)),
    (milnor_g_log, (10,)),
], ids=lambda value: getattr(value, "__name__", None))
def test_memoized_term_sets_its_own_precision(route, args):
    # zeta'(-r) and the main terms are memoized like the routes that call them
    ctx = make_context(20)
    clear_cache()
    plain = route(*args, ctx)
    clear_cache()
    with PrecisionContext(60, 10).workprec():
        assert route(*args, ctx) == plain


def test_digits_are_formatted_once_and_kept_in_the_memo():
    ctx = make_context(100)
    reports = (c_constant(2, ctx), glaisher_a(1, ctx), *b_family(ctx))
    for d in range(1, 121):
        for report in reports:
            text = report.digits(d)
            assert report.digits(d) is text
            assert text == round_to_digits(report.value, d)


def test_clear_cache_drops_the_digits_texts():
    report = c_constant(2, CTX)
    text = report.digits(21)
    assert special._memo[("digits", report.value, 21)] is text
    clear_cache()
    assert ("digits", report.value, 21) not in special._memo
    again = report.digits(21)
    assert again == text and again is not text


def test_clear_cache_preserves_values():
    before = c_constant(2, CTX).digits(21)
    clear_cache()
    after = c_constant(2, CTX).digits(21)
    assert before == after
