"""The library API on invalid input: every call raises InvalidParameters,
never another exception and never a value."""

import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from ikdeg import (
    CycInt, case_analysis, cyclotomic_poly, get_field, ik_degree, scaled_ik_at_p, stickelberger_check,
)
from ikdeg.charsum import bounds_check, ik_formula_scaled
from ikdeg.errors import InvalidParameters
from ikdeg.ff import is_prime
from ikdeg.galois import equivariance_check
from ikdeg.padic import PadicElt, teichmuller, zeta_p_padic
from oracles import default_precision

PRIMES = (2, 3, 5, 7, 11, 13)
NOT_PRIME = st.integers(min_value=-30, max_value=40).filter(lambda v: not is_prime(v))

# name -> (parameters, call); F-taking functions get F = get_field(p)
API = {
    "ik_formula_scaled": (("p", "n", "b"), lambda p, n, b: ik_formula_scaled(get_field(p), n, b)),
    "scaled_ik_at_p": (("p", "n", "b"), lambda p, n, b: scaled_ik_at_p(get_field(p), n, b)),
    "bounds_check": (("p", "n", "b"), lambda p, n, b: bounds_check(get_field(p), n, b)),
    "ik_degree": (("p", "n", "b"), lambda p, n, b: ik_degree(get_field(p), n, b)),
    "equivariance_check": (
        ("p", "n", "b", "a"),
        lambda p, n, b, a: equivariance_check(get_field(p), n, b, a),
    ),
    "zeta_p_padic": (("p", "prec"), zeta_p_padic),
    "teichmuller": (("p", "a", "prec"), teichmuller),
    "stickelberger_check": (("p", "m"), stickelberger_check),
    "case_analysis": (("p", "n", "b", "a"), case_analysis),
}


@st.composite
def invalid_call(draw):
    """A library call with at least one invalid argument: n <= 0, a unit
    argument = 0 mod p, a composite or tiny p, m outside 0..p-2, or a
    precision below what the truncated route needs."""
    name = draw(st.sampled_from(sorted(API)))
    params, fn = API[name]
    bad = draw(st.sets(st.sampled_from(params), min_size=1))
    p = draw(NOT_PRIME if "p" in bad else st.sampled_from(PRIMES))
    r = p if p in PRIMES else 7  # the modulus the other arguments are drawn against
    min_prec = 1 if name == "teichmuller" else 2 * (r - 1)
    unit = st.tuples(
        st.integers(min_value=1, max_value=r - 1), st.integers(min_value=-2, max_value=2)
    ).map(lambda t: t[0] + r * t[1])
    pools = {
        "n": (st.integers(min_value=-5, max_value=0), st.integers(min_value=1, max_value=3)),
        "b": (st.integers(min_value=-3, max_value=3).map(lambda t: r * t), unit),
        "a": (st.integers(min_value=-3, max_value=3).map(lambda t: r * t), unit),
        "m": (
            st.integers(min_value=-4, max_value=-1) | st.integers(min_value=r - 1, max_value=r + 4),
            st.integers(min_value=0, max_value=r - 2),
        ),
        "prec": (
            st.integers(min_value=-3, max_value=min_prec - 1),
            st.integers(min_value=min_prec, max_value=default_precision(r)),
        ),
    }
    args = {"p": p}
    for arg in params[1:]:
        invalid, valid = pools[arg]
        args[arg] = draw(invalid if arg in bad else valid)
    return name, fn, args


@settings(derandomize=True, max_examples=400, deadline=None)
@given(invalid_call())
@example(("teichmuller", teichmuller, {"p": 4, "a": 1, "prec": 8}))
@example(("teichmuller", teichmuller, {"p": 1, "a": 1, "prec": 8}))
@example(("teichmuller", teichmuller, {"p": 5, "a": 2, "prec": 0}))
@example(("zeta_p_padic", zeta_p_padic, {"p": 6, "prec": 40}))
# one argument at fault each: n <= 0, b = 0 mod p, a = 0 mod p
@example(("equivariance_check", API["equivariance_check"][1], {"p": 7, "n": 0, "b": 1, "a": 2}))
@example(("equivariance_check", API["equivariance_check"][1], {"p": 7, "n": 1, "b": 14, "a": 2}))
@example(("equivariance_check", API["equivariance_check"][1], {"p": 7, "n": 1, "b": 1, "a": -7}))
# a conductor below 1, and negative powers in Z[zeta_m] and in Z_p[pi]
@example(("CycInt", CycInt, {"m": 0}))
@example(("cyclotomic_poly", cyclotomic_poly, {"m": 0}))
@example(("CycInt ** e", operator.pow, {"z": CycInt.monomial(5, 1), "e": -1}))
@example(("PadicElt ** e", operator.pow, {"z": PadicElt.one(5, 8), "e": -1}))
def test_invalid_input_raises_library_error(call):
    name, fn, args = call
    with pytest.raises(InvalidParameters):
        value = fn(*args.values())
        pytest.fail(f"{name}({args}) returned {value!r}")
