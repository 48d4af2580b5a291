"""Certified values of the asymptotic constants of this package.

Each constant is the finite leftover of a product that otherwise grows
without bound: zeta products C1..C3, the Glaisher-type constants A_r of
prod v^(v^r), the factorial-product constants F_k, F_inf and F_{r,k},
and the Bernoulli-product constants B1, B2, B3, B'. The routes are closed
forms in Gamma values and A_r, divergent series summed to the smallest
term, an explicit linear-system solution, and a regularized product of
the exact F_k for F_inf. Each route evaluates its constant once and every
value carries a certified bound; the relations among the routes and against
independent references are checked by the test suite, not per request.

The closed forms linear in logs (log A_r, log F_k by both routes, log
F_(r,1), the B family, the Gamma-product constants) are each summed in
integer units by special._linear_in_logs and cross into a ball once.
Every route is memoized per (arguments, context) by special._memoized,
which also runs it at its context's working precision, and a report's
printed digits are kept in the same memo. Nothing else here sets a
precision: the zeta products' cutoff N' is special._plan's.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from bernfac.asymptotic import n_coeff
from bernfac.divergent import smallest_term_sum
from bernfac.precision import (
    BoundedReal,
    PrecisionContext,
    PrecisionError,
    _decimal,
    _hull,
    format_bound,
    mpf_to_fraction,
    round_to_digits,
)
from bernfac.special import (
    _linear_in_logs,
    _memo,
    _memoized,
    _plan,
    _remember,
    _zeta_tails,
    bernoulli,
    clear_cache,  # documented as constants.clear_cache()
    euler_gamma,
    harmonic,
    log_gamma_rational,
    log_two_pi,
    zeta_family,
    zeta_int,
    zeta_neg_int,
    zeta_prime_neg,
)


class ConstantReport:
    """One computed constant: certified value plus how it was obtained.

    Immutable, and equal to a report with equal fields. Not a tuple: a route
    that returns several reports (b_family) returns a tuple of them.
    """

    __slots__ = ("name", "value", "method", "params")

    def __init__(self, name: str, value: BoundedReal, method: str,
                 params: dict = None) -> None:
        # method: closed_form | divergent_series | linear_system | refined_sum
        _set = object.__setattr__
        _set(self, "name", name)
        _set(self, "value", value)
        _set(self, "method", method)
        _set(self, "params", {} if params is None else params)

    def __setattr__(self, name, value):
        raise AttributeError("ConstantReport is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not ConstantReport:
            return NotImplemented
        return (self.name, self.value, self.method, self.params) == (
            other.name, other.value, other.method, other.params)

    def __repr__(self) -> str:
        return (f"ConstantReport(name={self.name!r}, value={self.value!r}, "
                f"method={self.method!r}, params={self.params!r})")

    def digits(self, d: int) -> str:
        """round_to_digits(self.value, d), formatted once per ball and d and
        kept in the memo until clear_cache()."""
        key = ("digits", self.value, d)
        text = _memo.get(key)
        if text is None:
            text = _remember(key, round_to_digits(self.value, d))
        return text


# -- zeta products C1, C2, C3 --------------------------------------------------

@_memoized
def c_constant(which: int, ctx: PrecisionContext) -> ConstantReport:
    """C1 = prod_{v>=2} zeta(v), C2 = even-index part, C3 = odd-index part."""
    if which not in (1, 2, 3):
        raise ValueError("c_constant selects 1, 2 or 3")
    n_prime = _plan(ctx).cut
    start, step = {1: (2, 1), 2: (2, 2), 3: (3, 2)}[which]
    prod = BoundedReal.exact(1)
    for zeta in zeta_family(range(start, n_prime + 1, step), ctx).values():
        prod = prod * zeta
    # remaining factors multiply by e^delta with
    # 0 <= delta < b = 2^(1-N') >= 2^(-N'+3/N'); e^b - 1 <= b + b^2
    b = Fraction(1, 2 ** (n_prime - 1))
    value = BoundedReal(prod, mpf_to_fraction(prod.upper()) * (b + b * b))
    return ConstantReport(
        name=f"C{which}",
        value=value,
        method="closed_form",
        params={"N_prime": n_prime, "tail_log_bound": format_bound(b)},
    )


# -- Glaisher-type constants A_r ----------------------------------------------

@_memoized
def log_glaisher_a(r: int, ctx: PrecisionContext) -> BoundedReal:
    """log A_r = -zeta(-r) H_r - zeta'(-r)."""
    if r < 0:
        raise ValueError("log_glaisher_a needs r >= 0")
    return _linear_in_logs(
        ctx, -zeta_neg_int(r) * harmonic(r), (-1, zeta_prime_neg(r, ctx))
    )


@_memoized
def glaisher_a(r: int, ctx: PrecisionContext) -> ConstantReport:
    """A_r, the asymptotic constant of prod_{v<=n} v^(v^r)."""
    value = log_glaisher_a(r, ctx).exp()
    return ConstantReport(
        name="A" if r == 1 else f"A_{r}",
        value=value,
        method="closed_form",
        params={"r": r},
    )


# -- factorial-product constants F_k ------------------------------------------

@_memoized
def f_k_log_closed(k: int, ctx: PrecisionContext) -> BoundedReal:
    """Certified log F_k by the closed form in log A and log Gamma(v/k)."""
    if k < 1:
        raise ValueError("f_k_log_closed needs k >= 1")
    gamma_terms = [(Fraction(-nu, k), log_gamma_rational(Fraction(nu, k), ctx))
                   for nu in range(1, k)]
    return _linear_in_logs(
        ctx, Fraction(1, 12 * k),
        (Fraction(-(k * k + 1), k), log_glaisher_a(1, ctx)),
        (Fraction(k, 4), log_two_pi(ctx)),
        (Fraction(-1, 12 * k) if k > 1 else 0, k),
        *gamma_terms,
    )


@_memoized
def f_k_closed(k: int, ctx: PrecisionContext) -> ConstantReport:
    """F_k by closed form."""
    value = f_k_log_closed(k, ctx).exp()
    return ConstantReport(
        name=f"F_{k}",
        value=value,
        method="closed_form",
        params={"k": k},
    )


def _f_rk_term(j: int, r: int, k: int, ctx: PrecisionContext) -> BoundedReal:
    """Term j of the log F_{r,k} series: N_{2j,k} zeta(2j-r-1)."""
    return n_coeff(2 * j, k) * zeta_int(2 * j - r - 1, ctx)


def _f_inf_term(j: int, ctx: PrecisionContext) -> BoundedReal:
    """Term j of the log F_inf series: B_2j zeta(2j-1)^2 / (2j(2j-1))."""
    return Fraction(bernoulli(2 * j), 2 * j * (2 * j - 1)) * zeta_int(
        2 * j - 1, ctx
    ).pow_int(2)


@_memoized
def f_rk_series(r: int, k: int, ctx: PrecisionContext) -> ConstantReport:
    """F_{r,k} by optimal truncation of its divergent series.

    Odd r sums N_{2j,k} zeta(2j-(r+1)) over j > (r+1)/2; even r starts
    with gamma N_{r+2,k} and sums over j > r/2 + 1. The remainder bound
    (in log space) is the first omitted term.
    """
    if k < 1 or r < 0:
        raise ValueError("f_rk_series needs k >= 1, r >= 0")
    big_r = (r + 1) // 2
    if r % 2 == 1:
        j_start = big_r + 1
        prefix = BoundedReal.exact(0)
    else:
        j_start = big_r + 2
        prefix = euler_gamma(ctx) * n_coeff(r + 2, k)
    kept, omitted, m = smallest_term_sum(
        lambda j: _f_rk_term(j, r, k, ctx), j_start, ctx
    )
    bound = omitted.abs_upper()
    value = BoundedReal(prefix + kept, bound).exp()
    return ConstantReport(
        name=f"F_{k}" if r == 0 else f"F({r},{k})",
        value=value,
        method="divergent_series",
        params={
            "r": r,
            "k": k,
            "m": m,
            "bound": format_bound(bound),
            "bound_float": float(bound),
        },
    )


def m_matrix(k: int) -> list:
    """The k x k integer matrix of the telescoping relations among F_{k,l}."""
    if k < 2:
        raise ValueError("m_matrix needs k >= 2")
    rows = [[0] * k for _ in range(k)]
    for i in range(k - 1):
        rows[i][i] = 1
        rows[i][i + 1] = -1
    for j in range(k):
        rows[k - 1][j] = 1
    return rows


def m_tilde_matrix(k: int) -> list:
    """The explicit adjugate-style inverse: M_k^(-1) = (1/k) m_tilde."""
    if k < 2:
        raise ValueError("m_tilde_matrix needs k >= 2")
    # row i: -(j + 1) for j < i, k - 1 - j for i <= j < k - 1, then 1
    return [[*range(-1, -i - 1, -1), *range(k - 1 - i, 0, -1), 1] for i in range(k)]


@_memoized
def f_k_via_linear_system(k: int, ctx: PrecisionContext) -> ConstantReport:
    """F_k by solving the k x k system with the explicit inverse.

    The right side is b_{l+1} = (1/2)log 2pi - log Gamma(1 - l/k) for
    l = 0..k-2 and b_k = (1/2)log 2pi - log A + 1/12 + (5/12)log k;
    the solution components x_{l+1} are the asymptotic constants of the
    shifted products prod (kv-l)!. Only x_1 = log F_k + (1/4)log 2pi
    + k log A is formed, from row 0 of the inverse.
    """
    if k < 2:
        raise ValueError("the linear-system route needs k >= 2")
    l2p, la = log_two_pi(ctx), log_glaisher_a(1, ctx)
    half = (Fraction(1, 2), l2p)
    gammas = [log_gamma_rational(Fraction(k - l, k), ctx) for l in range(1, k - 1)]
    b = [_linear_in_logs(ctx, 0, half)]
    b += [_linear_in_logs(ctx, 0, half, (-1, g)) for g in gammas]
    b += [_linear_in_logs(ctx, Fraction(1, 12), half, (-1, la), (Fraction(5, 12), k))]
    # k x_1 = row 0 of m_tilde times b
    terms = [(Fraction(m, k), b_j) for m, b_j in zip(m_tilde_matrix(k)[0], b)]
    log_fk = _linear_in_logs(ctx, 0, *terms, (Fraction(-1, 4), l2p), (-k, la))
    return ConstantReport(
        name=f"F_{k}",
        value=log_fk.exp(),
        method="linear_system",
        params={"k": k, "det": k},
    )


# -- F_inf ---------------------------------------------------------------------

@_memoized
def f_infty_weak(ctx: PrecisionContext) -> ConstantReport:
    """Enclosure of F_inf straight from its divergent series.

    The series gamma^2/12 + sum_{j>=2} B_2j zeta(2j-1)^2 / (2j(2j-1)) is
    summed to the smallest term; the signed first omitted term brackets
    log F_inf one-sidedly, giving an interval after exponentiation.
    """
    g = euler_gamma(ctx)
    prefix = g * g * Fraction(1, 12)
    kept, omitted, m = smallest_term_sum(lambda j: _f_inf_term(j, ctx), 2, ctx)
    bound = omitted.abs_upper()
    s = prefix + kept
    shifted = s + omitted
    positive = omitted.lower() > 0  # t - e > 0 in units
    if not positive and omitted.upper() >= 0:  # t + e >= 0 too
        raise PrecisionError("the sign of the omitted term is not certified")
    lo_log, hi_log = (s, shifted) if positive else (shifted, s)
    lo, hi = lo_log.exp(), hi_log.exp()
    value = _hull(lo, hi)
    lower_str = _decimal(lo.lower(), 6)[0]
    upper_str = _decimal(hi.upper(), 6, up=True)[0]
    return ConstantReport(
        name="F_inf",
        value=value,
        method="divergent_series",
        params={
            "m": m,
            "bound": format_bound(bound),
            "bound_float": float(bound),
            "lower": lower_str,
            "upper": upper_str,
        },
    )


@_memoized
def f_infty_refined(n: int, m: int, ctx: PrecisionContext) -> ConstantReport:
    """F_inf as the regularized product of the exact F_k, k <= n.

    With c_j = B_2j/(2j(2j-1)) and the Hurwitz tails zeta(s, n+1),

        log F_inf = gamma^2/12 + sum_{k<=n} (log F_k - gamma/(12k))
                    + sum_{2<=j<m} c_j zeta(2j-1) zeta(2j-1, n+1) + theta R,

    R = c_m zeta(2m-1) zeta(2m-1, n+1), theta in (0,1): the sums over j
    are the log F_k series of every k > n, each with its remainder between
    0 and its j = m term (DLMF 5.11(ii), summed over the multiples k nu).
    So log F_inf lies between A, the first three terms, and A + R.
    theta_min and theta_max are those ends as multiples of the j = m term
    of the log F_inf series; both in (0,1) checks the premise on k <= n.
    """
    if m <= 2:
        raise ValueError("f_infty_refined needs m > 2")
    if n < 1:
        raise ValueError("f_infty_refined needs n >= 1")
    odd = range(3, 2 * m, 2)
    zetas = zeta_family(odd, ctx)
    tails = _zeta_tails(odd, n + 1, ctx)
    g = euler_gamma(ctx)
    total = g * g * Fraction(1, 12)
    base = total
    for k in range(1, n + 1):
        total = total + f_k_log_closed(k, ctx) - g * Fraction(1, 12 * k)
    for j in range(2, m):
        s = 2 * j - 1
        total = total + n_coeff(2 * j, 1) * zetas[s] * tails[s]
        base = base + _f_inf_term(j, ctx)
    r_signed = n_coeff(2 * m, 1) * zetas[2 * m - 1] * tails[2 * m - 1]
    r_abs = mpf_to_fraction(r_signed.abs_upper())
    t_m = _f_inf_term(m, ctx)
    theta_min = (total - base) / t_m
    theta_max = (total + r_signed - base) / t_m
    if not (theta_min.lower() > 0 and theta_max.upper() < 1):
        raise PrecisionError("theta bracket escaped (0,1)")
    value = BoundedReal(total + r_signed * Fraction(1, 2), r_abs / 2).exp()
    value_bound = r_abs * mpf_to_fraction(value.upper())
    return ConstantReport(
        name="F_inf",
        value=value,
        method="refined_sum",
        params={
            "n": n,
            "m": m,
            "theta_min": mpmath.nstr(theta_min.value, 12),
            "theta_max": mpmath.nstr(theta_max.value, 12),
            "theta_min_float": float(theta_min.value),
            "theta_max_float": float(theta_max.value),
            "log_bound": format_bound(r_abs),
            "bound": format_bound(value_bound),
            "bound_float": float(value_bound),
        },
    )


# -- F_{r,1} closed forms -------------------------------------------------------

def f_r1_alpha(r: int, j: int) -> Fraction:
    """Exponent of A_j (j >= 1) or the constant term (j = 0) in log F_{r,1}."""
    if r < 1 or j < 0 or j > r + 1:
        raise ValueError("f_r1_alpha needs r >= 1 and 0 <= j <= r+1")
    if j == 0:
        if r % 2 == 1:
            return Fraction(bernoulli(r + 1), 2 * r * (r + 1))
        return sum(
            Fraction(math.comb(r, i)) * bernoulli(r - i) * bernoulli(i + 2)
            / ((i + 1) ** 2 * (i + 2))
            for i in range(r + 1)
        )
    if (r - j) % 2 == 0:
        return Fraction(0)
    delta = Fraction(1) if j == r + 1 else Fraction(0)
    return -delta - Fraction(math.comb(r + 1, j)) * bernoulli(r + 1 - j) / (r + 1)


@_memoized
def f_r1_log(r: int, ctx: PrecisionContext) -> BoundedReal:
    """Certified log F_{r,1} via the A_j exponent table."""
    if r < 0:
        raise ValueError("f_r1_log needs r >= 0")
    if r == 0:  # 1/12 + (1/2) log A_0 - 2 log A_1
        terms = [(Fraction(1, 2), log_glaisher_a(0, ctx)), (-2, log_glaisher_a(1, ctx))]
        return _linear_in_logs(ctx, Fraction(1, 12), *terms)
    alphas = [f_r1_alpha(r, j) for j in range(r + 2)]
    terms = [(a, log_glaisher_a(j, ctx)) for j, a in enumerate(alphas) if j and a]
    return _linear_in_logs(ctx, alphas[0], *terms)


@_memoized
def f_r1(r: int, ctx: PrecisionContext) -> ConstantReport:
    """F_{r,1} by the A_j-form closed expression."""
    value = f_r1_log(r, ctx).exp()
    alphas = {}
    if r > 0:
        alphas = {
            str(j): str(f_r1_alpha(r, j))
            for j in range(r + 2)
            if f_r1_alpha(r, j) != 0
        }
    return ConstantReport(
        name=f"F({r},1)",
        value=value,
        method="closed_form",
        params={"r": r, "alpha": alphas},
    )


# -- Bernoulli-product constants -----------------------------------------------

@_memoized
def b_family(ctx: PrecisionContext) -> tuple:
    """B1, B2, B3 and B' from C2 and A.

    Each is B = C2 exp(1/24 + c log 2 - (1/2) log A [+ (1/2) log 2 pi]):
    B2 = C2 2^(5/24) e^(1/24) / A^(1/2); B1 = B2 (2pi)^(1/2);
    B3 = B2 sqrt(2); B' = 2^(-35/24) B2 = C2 e^(1/24) / (2^(5/4) A^(1/2)).
    """
    c2 = c_constant(2, ctx).value
    la, l2p = log_glaisher_a(1, ctx), log_two_pi(ctx)
    half = Fraction(1, 2)
    return tuple(
        ConstantReport(
            name=name,
            value=c2 * _linear_in_logs(
                ctx, Fraction(1, 24), (c, 2), (-half, la), (c_2pi, l2p)
            ).exp(),
            method="closed_form",
        )
        for name, c, c_2pi in (  # the coefficients of log 2 and log 2 pi
            ("B1", Fraction(5, 24), half),
            ("B2", Fraction(5, 24), 0),
            ("B3", Fraction(17, 24), 0),
            ("Bprime", Fraction(-5, 4), 0),
        )
    )


# -- constants of the Gamma-power product --------------------------------------

@_memoized
def gamma_product_constants(ctx: PrecisionContext) -> tuple:
    """The two constants of prod_{v<n} Gamma(v/n)^v as n grows.

    Returns (e^((1-gamma)/12)/A, (2pi)^(1/4)/A).
    """
    la = log_glaisher_a(1, ctx)
    first = _linear_in_logs(
        ctx, Fraction(1, 12), (Fraction(-1, 12), euler_gamma(ctx)), (-1, la)
    )
    second = _linear_in_logs(ctx, 0, (Fraction(1, 4), log_two_pi(ctx)), (-1, la))
    return (first.exp(), second.exp())
