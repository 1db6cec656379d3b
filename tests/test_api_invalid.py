"""The library API on invalid input: every call raises an IKDegError subclass,
never a bare exception and never a value."""

import pytest
from hypothesis import example, given, settings, strategies as st

from ikdeg import (
    bounds_check,
    case_analysis,
    default_precision,
    get_field,
    ik_degree,
    ik_formula_scaled,
    scaled_ik_at_p,
    stickelberger_check,
    teichmuller,
    zeta_p_padic,
)
from ikdeg.errors import IKDegError
from ikdeg.ff import is_prime

PRIMES = (2, 3, 5, 7, 11, 13)
NOT_PRIME = st.integers(min_value=-30, max_value=40).filter(lambda v: not is_prime(v))

# name -> (parameters, call); F-taking functions get F = get_field(p)
API = {
    "ik_formula_scaled": (("p", "n", "b"), lambda p, n, b: ik_formula_scaled(get_field(p), n, b)),
    "scaled_ik_at_p": (("p", "n", "b"), lambda p, n, b: scaled_ik_at_p(get_field(p), n, b)),
    "bounds_check": (("p", "n", "b"), lambda p, n, b: bounds_check(get_field(p), n, b)),
    "ik_degree": (("p", "n", "b"), lambda p, n, b: ik_degree(get_field(p), n, b)),
    "zeta_p_padic": (("p", "prec"), zeta_p_padic),
    "teichmuller": (("p", "a", "prec"), teichmuller),
    "stickelberger_check": (("p", "m", "prec"), stickelberger_check),
    "case_analysis": (("p", "n", "b", "a", "prec"), case_analysis),
}


@st.composite
def invalid_call(draw):
    """A library call with at least one invalid argument: n <= 0, a unit
    argument = 0 mod p, a composite or tiny p, m outside 0..p-2, or a
    precision below what the construction needs."""
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
# trivial cases read no digit, so only the up-front check catches the precision
@example(("case_analysis", case_analysis, {"p": 3, "n": 1, "b": 1, "a": 2, "prec": 1}))
@example(("case_analysis", case_analysis, {"p": 2, "n": 1, "b": 1, "a": 1, "prec": 0}))
def test_invalid_input_raises_library_error(call):
    name, fn, args = call
    with pytest.raises(IKDegError):
        value = fn(*args.values())
        pytest.fail(f"{name}({args}) returned {value!r}")
