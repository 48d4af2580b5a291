"""Asymptotic constants of Bernoulli-number and factorial products.

Arbitrary-precision evaluation with rigorous error bounds, plus exact
big-integer/rational verification of the underlying identities and
asymptotic formulas.
"""

from bernfac.precision import (
    BoundedReal,
    PrecisionContext,
    PrecisionError,
    format_bound,
    make_context,
    round_to_digits,
)
from bernfac.constants import (
    ConstantReport,
    b_family,
    c_constant,
    f_infty_refined,
    f_infty_weak,
    f_k_closed,
    f_k_via_linear_system,
    f_r1,
    f_rk_series,
    gamma_product_constants,
    glaisher_a,
)

# The verification suite loads on first use (PEP 562), so the constant and
# table requests never import it.
_VERIFY_NAMES = (
    "IdentityReport",
    "RatioReport",
    "VerificationFailure",
    "abelian_average_check",
    "eta_identity_check",
    "exact_bernoulli_product",
    "identity_suite",
    "milnor_equivalence_check",
    "ratio_suite",
)


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from bernfac import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoundedReal",
    "PrecisionContext",
    "PrecisionError",
    "format_bound",
    "make_context",
    "round_to_digits",
    "ConstantReport",
    "b_family",
    "c_constant",
    "f_infty_refined",
    "f_infty_weak",
    "f_k_closed",
    "f_k_via_linear_system",
    "f_r1",
    "f_rk_series",
    "gamma_product_constants",
    "glaisher_a",
    "IdentityReport",
    "RatioReport",
    "VerificationFailure",
    "abelian_average_check",
    "eta_identity_check",
    "exact_bernoulli_product",
    "identity_suite",
    "milnor_equivalence_check",
    "ratio_suite",
]

__version__ = "0.1.0"
