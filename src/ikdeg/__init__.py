"""Exact inverted Kloosterman sums over finite fields.

Classical and inverted Kloosterman sums as exact cyclotomic integers,
the Gauss-sum identity for the inverted sum, algebraic-degree machinery
over Q(zeta_p), and pi-adic Stickelberger/main-term verification.

The package root exports what the commands run. The tests' second routes
(brute characters, the unscaled formula, complex and p-adic embeddings,
conjugate sets) are imported from their own modules.
"""

from .charsum import gauss_sum, inverted_kloosterman_brute, scaled_ik_at_p
from .cyclo import CycInt, cyclotomic_poly, embed_all
from .ff import Field, FieldElt, get_field
from .galois import degree_of, ik_degree, min_poly
from .padic import CaseReport, case_analysis, exact_valuation, stickelberger_check, valuation_formulas

__version__ = "0.1.0"

# The convolution kernel is pure Python; build reports read this flag.
HAVE_COMPILED = False

__all__ = [
    "gauss_sum",
    "inverted_kloosterman_brute",
    "scaled_ik_at_p",
    "CycInt",
    "cyclotomic_poly",
    "embed_all",
    "Field",
    "FieldElt",
    "get_field",
    "degree_of",
    "ik_degree",
    "min_poly",
    "HAVE_COMPILED",
    "CaseReport",
    "case_analysis",
    "exact_valuation",
    "stickelberger_check",
    "valuation_formulas",
    "__version__",
]
