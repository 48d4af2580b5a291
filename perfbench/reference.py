"""Independent mpmath references and the verdict for each benchmark op.

Every reference is evaluated with mpmath alone (its own zeta, zeta
derivative, loggamma, glaisher, euler and bernfrac), never with bernfac code,
at 2 * digits + 20 significant digits. A printed value v with bound b and
last printed place u (truncated display) encloses [v - u - b, v + u + b].

Checks per selector:
- containment of an independent closed-form value: C1-C3 (zeta products),
  A_r, F_k, F_k_series, F_r1, F_rk_series with r = 0 or k = 1, the B
  family and the Gamma-product constants;
- F_inf: containment in an enclosure the benchmark sums itself from the
  divergent series of log F_inf (smallest term, first omitted term as the
  bound), since F_inf has no independent closed form;
- F_inf_weak and F_rk_series with r >= 1 and k >= 2: overlap with that same
  kind of self-summed series enclosure.
"""

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

OK, REFUSED, FAILED = "ok", "refused", "failed"


def reference_dps(digits):
    return 2 * digits + 20


def _bern(n):
    p, q = mpmath.bernfrac(n)
    return Fraction(int(p), int(q))


class References:
    """Cached reference values; each method works at ``dps`` digits."""

    def __init__(self):
        self._cache = {}

    def _cached(self, key, compute):
        if key not in self._cache:
            with mpmath.workdps(key[-1]):
                self._cache[key] = compute()
        return self._cache[key]

    def c_constant(self, which, dps):
        """C1, C2, C3: products of zeta(v) over v >= 2, even v, odd v >= 3."""
        start, step = {1: (2, 1), 2: (2, 2), 3: (3, 2)}[which]

        def compute():
            tol = mpf(10) ** (-dps - 5)
            acc, v = mpf(0), start
            while True:
                z = mpmath.zeta(v)
                if z - 1 < tol:
                    return mpmath.exp(acc)
                acc += mpmath.log(z)
                v += step
        return self._cached(("C", which, dps), compute)

    def log_a(self, r, dps):
        """log A_r = -zeta(-r) H_r - zeta'(-r); log A_1 from mpmath.glaisher."""
        def compute():
            if r == 1:
                return mpmath.log(mpmath.glaisher)
            return (-mpmath.zeta(-r) * mpmath.harmonic(r)
                    - mpmath.zeta(-r, derivative=1))
        return self._cached(("logA", r, dps), compute)

    def a_r(self, r, dps):
        return self._cached(("A", r, dps),
                            lambda: mpmath.exp(self.log_a(r, dps)))

    def f_k(self, k, dps):
        def compute():
            kf = mpf(k)
            log_f = (-(kf + 1 / kf) * self.log_a(1, dps) + 1 / (12 * kf)
                     + kf / 4 * mpmath.log(2 * mp.pi)
                     - mpmath.log(kf) / (12 * kf))
            for nu in range(1, k):
                log_f -= mpf(nu) / k * mpmath.loggamma(mpf(nu) / k)
            return mpmath.exp(log_f)
        return self._cached(("F", k, dps), compute)

    def f_r1(self, r, dps):
        """F_(r,1) from its exponent table in log A_j, with mpmath's B_n."""
        if r == 0:
            return self.f_k(1, dps)

        def alpha(j):
            if j == 0:
                if r % 2:
                    return _bern(r + 1) / (2 * r * (r + 1))
                return sum(math.comb(r, i) * _bern(r - i) * _bern(i + 2)
                           / ((i + 1) ** 2 * (i + 2)) for i in range(r + 1))
            if (r - j) % 2 == 0:
                return Fraction(0)
            delta = 1 if j == r + 1 else 0
            return -delta - math.comb(r + 1, j) * _bern(r + 1 - j) / (r + 1)

        def compute():
            log_f = mpf(alpha(0).numerator) / alpha(0).denominator
            for j in range(1, r + 2):
                a = alpha(j)
                if a:
                    log_f += mpf(a.numerator) / a.denominator * self.log_a(j, dps)
            return mpmath.exp(log_f)
        return self._cached(("Fr1", r, dps), compute)

    def b_family(self, dps):
        def compute():
            c2 = self.c_constant(2, dps)
            root_a = mpmath.exp(self.log_a(1, dps) / 2)
            b2 = c2 * mpf(2) ** (mpf(5) / 24) * mpmath.exp(mpf(1) / 24) / root_a
            bprime = c2 * mpmath.exp(mpf(1) / 24) / (mpf(2) ** (mpf(5) / 4) * root_a)
            return {"B1": b2 * mpmath.sqrt(2 * mp.pi), "B2": b2,
                    "B3": b2 * mpmath.sqrt(2), "Bprime": bprime}
        return self._cached(("B", dps), compute)

    def gamma_product(self, dps):
        def compute():
            log_a = self.log_a(1, dps)
            return (mpmath.exp((1 - mp.euler) / 12 - log_a),
                    mpmath.exp(mpmath.log(2 * mp.pi) / 4 - log_a))
        return self._cached(("G", dps), compute)

    def series_enclosure(self, kind, r, k, dps):
        """(lo, hi) for F_inf or F_(r,k) by optimal truncation at x = 1.

        log F_inf = gamma^2/12 + sum_{j>=2} B_2j zeta(2j-1)^2/(2j(2j-1));
        log F_(r,k) = [r even: gamma N_(r+2,k)] + sum_j N_(2j,k) zeta(2j-r-1)
        with N_(m,k) = B_m/(m(m-1)k^(m-1)). Terms are summed up to the
        smallest one, whose magnitude bounds the remainder.
        """
        def n_coeff(m):
            b = mpmath.bernoulli(m)
            return b / (m * (m - 1) * mpf(k) ** (m - 1))

        def compute():
            if kind == "F_inf":
                prefix, j = mp.euler ** 2 / 12, 2

                def term(j):
                    return (mpmath.bernoulli(2 * j) * mpmath.zeta(2 * j - 1) ** 2
                            / (2 * j * (2 * j - 1)))
            else:
                if r % 2:
                    prefix, j = mpf(0), (r + 1) // 2 + 1
                else:
                    prefix, j = mp.euler * n_coeff(r + 2), r // 2 + 2

                def term(j):
                    return n_coeff(2 * j) * mpmath.zeta(2 * j - (r + 1))
            total, current = prefix, term(j)
            while True:
                nxt = term(j + 1)
                if abs(nxt) >= abs(current):
                    break
                total += current
                current, j = nxt, j + 1
            bound = abs(current)
            return mpmath.exp(total - bound), mpmath.exp(total + bound)
        return self._cached(("series", kind, r, k, dps), compute)


def parse_display(text):
    """(value, last place, uncertified) of a truncated decimal display."""
    uncertified = text.endswith("~")
    body = text.rstrip("~")
    mantissa, _, exponent = body.partition("e")
    frac_digits = len(mantissa.partition(".")[2])
    last_place = Fraction(10) ** (int(exponent or 0) - frac_digits)
    return Fraction(body), last_place, uncertified


def enclosure(text, bound_text):
    """The interval a printed value and its printed bound certify.

    format_bound rounds to 4 significant digits, so the bound is widened
    by one part in a thousand.
    """
    value, last_place, uncertified = parse_display(text)
    radius = last_place + Fraction(bound_text) * Fraction(1001, 1000)
    return value - radius, value + radius, uncertified


def _contains(lo, hi, ref, dps):
    slack = Fraction(10) ** (-dps + 5) * max(1, abs(ref))
    return lo - slack <= ref <= hi + slack


def _overlaps(lo, hi, ref_lo, ref_hi):
    return lo <= ref_hi and ref_lo <= hi


def exact_fraction(x):
    """The exact rational value of an mpf."""
    # read the mpf exactly: mpf(x) would re-round it to the ambient precision
    sign, man, exp, _ = x._mpf_
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


def verdict(text, bound_text, dps, ref=None, ref_interval=None):
    """ok, refused or failed for one printed value.

    failed: the enclosure misses the reference value (or, for series
    constants, does not meet the reference enclosure). refused: the
    display ends in '~', the program's mark for uncertified digits.
    """
    lo, hi, uncertified = enclosure(text, bound_text)
    if ref is not None:
        good = _contains(lo, hi, exact_fraction(ref), dps)
    else:
        good = _overlaps(lo, hi, *map(exact_fraction, ref_interval))
    if not good:
        return FAILED
    return REFUSED if uncertified else OK


def constant_check(refs, selector, params, digits):
    """(kind, reference) for one CLI selector: kind names the check made."""
    dps = reference_dps(digits)
    r, k = params.get("r"), params.get("k")
    if selector in ("C1", "C2", "C3"):
        return "contains", refs.c_constant(int(selector[1]), dps)
    if selector == "A_r":
        return "contains", refs.a_r(r, dps)
    if selector in ("F_k", "F_k_series"):
        return "contains", refs.f_k(k, dps)
    if selector == "F_r1":
        return "contains", refs.f_r1(r, dps)
    if selector == "F_rk_series":
        if r == 0:
            return "contains", refs.f_k(k, dps)
        if k == 1:
            return "contains", refs.f_r1(r, dps)
        return "overlaps", refs.series_enclosure("F_rk", r, k, dps)
    if selector == "F_inf":
        return "inside-series", refs.series_enclosure("F_inf", 0, 1, dps)
    if selector == "F_inf_weak":
        return "overlaps", refs.series_enclosure("F_inf", 0, 1, dps)
    if selector in ("B1", "B2", "B3", "Bprime"):
        return "contains", refs.b_family(dps)[selector]
    raise ValueError(f"no reference for {selector!r}")


def check_value(refs, selector, params, digits, text, bound_text):
    kind, ref = constant_check(refs, selector, params, digits)
    dps = reference_dps(digits)
    if kind == "contains":
        return verdict(text, bound_text, dps, ref=ref)
    if kind == "inside-series":
        value, last_place, uncertified = parse_display(text)
        lo, hi = map(exact_fraction, ref)
        if not lo <= value <= hi:
            return FAILED
        return REFUSED if uncertified else OK
    return verdict(text, bound_text, dps, ref_interval=ref)


WARM_ROUTES = {
    "c_constant": lambda refs, p, dps: [refs.c_constant(p[0], dps)],
    "glaisher_a": lambda refs, p, dps: [refs.a_r(p[0], dps)],
    "f_k_closed": lambda refs, p, dps: [refs.f_k(p[0], dps)],
    "f_k_via_linear_system": lambda refs, p, dps: [refs.f_k(p[0], dps)],
    "f_r1": lambda refs, p, dps: [refs.f_r1(p[0], dps)],
    "b_family": lambda refs, p, dps: [
        refs.b_family(dps)[n] for n in ("B1", "B2", "B3", "Bprime")],
    "gamma_product_constants": lambda refs, p, dps: list(
        refs.gamma_product(dps)),
}


def check_route(refs, route, params, digits, texts, bound_texts):
    """Worst verdict over the values one library route returned."""
    dps = reference_dps(digits)
    expected = WARM_ROUTES[route](refs, params, dps)
    if len(expected) != len(texts):
        return FAILED
    verdicts = [verdict(t, b, dps, ref=ref)
                for t, b, ref in zip(texts, bound_texts, expected)]
    return worst(verdicts)


def worst(verdicts):
    for v in (FAILED, REFUSED):
        if v in verdicts:
            return v
    return OK


IDENTITY_SUITE_SIZE = 755


def check_oracle(op, payload):
    """An oracle op fails if it raised or missed its own gate."""
    if "error" in payload:
        return FAILED
    if op["op"] == "identity_suite":
        good = payload["passed"] == payload["reports"] == IDENTITY_SUITE_SIZE
    elif op["op"] in ("ratio_suite", "milnor_equivalence_check"):
        good = payload["monotone"]
    else:
        good = payload["status"] == "within-bounds"
    return OK if good else FAILED
