"""Exact inverted Kloosterman sums over finite fields.

Classical and inverted Kloosterman sums as exact cyclotomic integers,
the Gauss-sum identity for the inverted sum, algebraic-degree machinery
over Q(zeta_p), and pi-adic Stickelberger/main-term verification.
"""

from .charsum import (
    additive_char,
    bounds_check,
    gauss_sum,
    ik_formula_scaled,
    inverted_kloosterman_brute,
    kloosterman_brute,
    mult_char,
    s1_identity_check,
    scaled_ik_at_p,
)
from .cyclo import (
    CycInt,
    change_conductor,
    cyclotomic_poly,
    embed_all,
    embed_complex,
    galois_apply,
    lower_conductor,
)
from .ff import Field, FieldElt, get_field
from .galois import (
    conjugate_set,
    degree_of,
    equivariance_check,
    ik_degree,
    min_poly,
)
from .padic import (
    CaseReport,
    PadicElt,
    case_analysis,
    embed_cyclotomic,
    exact_valuation,
    run_case_analysis,
    stickelberger_check,
    teichmuller,
    valuation_formulas,
    zeta_p_padic,
)

__version__ = "0.1.0"

# The convolution kernel is pure Python; build reports read this flag.
HAVE_COMPILED = False

__all__ = [
    "additive_char",
    "bounds_check",
    "gauss_sum",
    "ik_formula_scaled",
    "inverted_kloosterman_brute",
    "kloosterman_brute",
    "mult_char",
    "s1_identity_check",
    "scaled_ik_at_p",
    "CycInt",
    "change_conductor",
    "cyclotomic_poly",
    "embed_all",
    "embed_complex",
    "galois_apply",
    "lower_conductor",
    "Field",
    "FieldElt",
    "get_field",
    "conjugate_set",
    "degree_of",
    "equivariance_check",
    "ik_degree",
    "min_poly",
    "HAVE_COMPILED",
    "CaseReport",
    "PadicElt",
    "case_analysis",
    "embed_cyclotomic",
    "exact_valuation",
    "run_case_analysis",
    "stickelberger_check",
    "teichmuller",
    "valuation_formulas",
    "zeta_p_padic",
    "__version__",
]
