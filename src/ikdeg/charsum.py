"""Characters, Gauss sums, and Kloosterman sums (classical and inverted).

Two exact routes to the inverted sum are provided, and every command
except `verify identity` and `sum --path formula|both` reads the first.
The counting route tallies the (q-1)^n unit tuples by their sum, with a
recursion on sums and products that uses only field addition and
discrete logs: each of its n steps is two cyclic convolutions of length
q-1, and a field keeps the two b-free rows of each n. One row, counted
once per (q, n), serves every b: `scaled_ik_values` reads all q-1 values
of a (q, n) in Z[zeta_p] off it, and `scaled_ik_at_p` is one entry of
that tuple. The Gauss-sum formula is the second, independent route: a
sum over characters of relabelled copies rho_m of one term in
Z[zeta_{p(q-1)}]. `ik_formula_scaled` states it literally, while
`ik_formula` reads one value in Z[zeta_p] off that term, since the sum
of rho_m over all m is (q-1) times the zeta_{q-1}-free row. A field
keeps the powers of its Gauss sum, and for each n it was asked for the
count's rows, the tuple of values and the formula's term. The kept
values are scaled by q(q-1), as the census reads them; `ik_formula`
divides it out exactly.
"""

import operator
import sys
from math import gcd

from . import kernels
from .cyclo import CycInt, _evaluate, _exact_div, _root_row, embed_all, embedding_error, map_exponents, subtract_top
from .errors import CheckFailed, InvalidParameters
from .ff import Field, FieldElt, check_fits

def additive_char(F: Field, x) -> CycInt:
    """psi(x) = zeta_p^Tr(x), at conductor p."""
    return CycInt.monomial(F.p, F.trace(x))


def mult_char(F: Field, m: int, x) -> CycInt:
    """chi(x) = zeta_{q-1}^(-m * dlog x) for chi = omega^(-m), omega(g^j) =
    zeta_{q-1}^j, at conductor q-1."""
    x = F.elt(x)
    if x.is_zero():
        raise InvalidParameters("multiplicative character at zero")
    q1 = F.q - 1
    return CycInt.monomial(q1, (-m * F.dlog(x)) % q1)


def gauss_sum(F: Field, m: int) -> CycInt:
    """G(chi) = sum over x != 0 of chi(x) psi(x) for chi = omega^(-m), m
    read mod q-1, at conductor p(q-1). Not cached: the formula reads only
    G(omega^(-1)), which _gauss_power keeps."""
    p, q1 = F.p, F.q - 1
    big_m = p * q1
    out = [0] * big_m
    for j in range(q1):
        # zeta_{q-1} = zeta_M^p, zeta_p = zeta_M^(q-1)
        e = (p * ((-m * j) % q1) + q1 * F._trace_of_power(j)) % big_m
        out[e] += 1
    return CycInt(big_m, out)


def _check_ik_args(F: Field, n: int, b) -> FieldElt:
    if n < 1:
        raise InvalidParameters("dimension n must be >= 1")
    b = F.elt(b)
    if b.is_zero():
        raise InvalidParameters("parameter b must be nonzero")
    return b


def _spread(row: list, shifts) -> list:
    """Entry i is the sum of row[i - d] over d in shifts, 0 <= d < len(row):
    the cyclic convolution of row with the multiplicities of shifts."""
    mult = [0] * len(row)
    for d in shifts:
        mult[d] += 1
    return kernels.cyclic_convolve(row, mult)


def _count_rows(F: Field, n: int) -> tuple:
    """The rows s = 0 and s = 1 of D_(n+1) (see _brute_counts), kept per
    field as ("counts", n); ("counts", 0) is D_1, which counts the tuple
    (1).

    It steps, in a loop, from the largest n kept below the one asked for,
    and keeps every row it passes: a census of n = 1 .. N costs two cyclic
    convolutions of length q-1 per n.
    """
    cache, q1 = F._cache, F.q - 1
    kept = n
    while kept > 0 and ("counts", kept) not in cache:
        kept -= 1
    if kept == 0 and ("counts", 0) not in cache:
        cache[("counts", 0)] = ([0] * q1, [1] + [0] * (q1 - 1))
    zero_row, one_row = cache[("counts", kept)]
    if kept < n:
        neg_one = F.dlog(F.elt(-1))
        log_one_minus = F._log_one_minus_powers()  # 1 - g^c = g^(log_one_minus[c - 1])
        for k in range(kept + 2, n + 2):
            # D_(k-1)(g^e, i) = one_row[i - (k-1) e]. For s = 1 the unit g^0
            # leaves s - g^0 = 0; for s = 0, s - g^c = g^(c + neg_one).
            from_one = ((c + (k - 1) * e) % q1 for c, e in enumerate(log_one_minus, 1))
            from_zero = ((k * c + (k - 1) * neg_one) % q1 for c in range(q1))
            zero_row, one_row = (
                _spread(one_row, from_zero),
                [z + r for z, r in zip(zero_row, _spread(one_row, from_one))],
            )
            cache[("counts", k - 1)] = (zero_row, one_row)
    return zero_row, one_row


def _brute_counts(F: Field, n: int, b):
    """Count unit tuples by s = x_1 + ... + x_n + b/(x_1 ... x_n): returns
    (N_0, N) with N_0 the count at s = 0 and N[c] the count at s = g^c.

    Appending x_(n+1) = b/(x_1 ... x_n) makes these the unit (n+1)-tuples
    with product b, counted by sum. Let D_k(s, j) count the unit k-tuples
    with sum s and product g^j; then D_k(s, j) is the sum over units g^c
    of D_(k-1)(s - g^c, j - c). Scaling a tuple by a unit a gives
    D_k(a s, j + k dlog a) = D_k(s, j), so the rows s = 0 and s = 1 hold
    all of D_k, and a step convolves row s = 1 of D_(k-1) with the
    multiplicities of q-1 shifts, read through the logs of 1 - g^c. The
    steps run once per (F, n) (_count_rows), and each b reads the rows of
    D_(n+1) in O(q). Only dlog and field addition enter: no character or
    cyclotomic value.
    """
    q1 = F.q - 1
    zero_row, one_row = _count_rows(F, n)
    beta = F.dlog(b)
    # D_(n+1)(g^c, beta) = D_(n+1)(1, beta - (n+1) c)
    return zero_row[beta], [one_row[(beta - (n + 1) * c) % q1] for c in range(q1)]


def kloosterman_brute(F: Field, n: int, b) -> CycInt:
    """K_n(q, b) at conductor p, from the counts of unit tuples by sum
    (_brute_counts)."""
    b = _check_ik_args(F, n, b)
    zero, by_log = _brute_counts(F, n, b)
    counts = [zero] + [0] * (F.p - 1)  # Tr(0) = 0
    for c, count in enumerate(by_log):
        counts[F._trace_of_power(c)] += count
    return CycInt(F.p, counts)


def inverted_kloosterman_brute(F: Field, n: int, b) -> CycInt:
    """IK_n(q, b) at conductor p, from the counts of unit tuples by sum;
    the empty sum is 0."""
    b = _check_ik_args(F, n, b)
    counts = [0] * F.p
    for c, count in enumerate(_brute_counts(F, n, b)[1]):
        counts[F._trace_of_power(-c)] += count  # 1/g^c = g^(-c)
    return CycInt(F.p, counts)


def _relabel(z: CycInt, p: int, s: int) -> CycInt:
    """rho_s on Z[zeta_{p(q-1)}]: zeta_{q-1} -> zeta_{q-1}^s, zeta_p fixed.

    On exponents it is e -> k*e mod p(q-1), with k = s mod q-1 and
    k = 1 mod p. It is a ring endomorphism of the group ring
    Z[x]/(x^(p(q-1)) - 1) for every s, even when gcd(s, q-1) > 1:
    exponents that collide just add their coefficients.
    """
    q1 = z.m // p
    return map_exponents(z, 1 + p * ((s - 1) * pow(p, -1, q1) % q1), z.m)


def _gauss_power(F: Field, e: int) -> CycInt:
    """G^e for G = G(omega^(-1)) and e >= 1, cached per field: G itself at
    e = 1, else one product from the power below it when that is cached,
    else a square-and-multiply."""
    key = ("gauss_power", e)
    cached = F._cache.get(key)
    if cached is None:
        if e == 1:
            cached = gauss_sum(F, 1)
        else:
            g = _gauss_power(F, 1)
            below = F._cache.get(("gauss_power", e - 1))
            cached = below * g if below is not None else g**e
        F._cache[key] = cached
    return cached


def _character_terms(F: Field, n: int) -> CycInt:
    """Term 1, the b-independent factor of the scaled Gauss-sum formula.

    It is chi^(n+1)(-1) * G(chi^-(n+1))^2 * G(chi)^(n+1) for
    chi = omega^(-1), at conductor p(q-1). The term for omega^(-m) is
    its image under rho_m (see _relabel), since
    G(omega^(-m)) = rho_m(G(omega^(-1))) and rho_m rho_s = rho_(ms), so
    one Gauss sum and one product serve every character; the powers of
    G(chi) are shared by every n of the field (_gauss_power).
    """
    p, q1 = F.p, F.q - 1
    term = _relabel(_gauss_power(F, 2), p, -(n + 1)) * _gauss_power(F, n + 1)
    return term.shifted(p * ((-(n + 1) * F.dlog(F.elt(-1))) % q1))  # chi^(n+1)(-1)


def ik_formula_scaled(F: Field, n: int, b) -> CycInt:
    """q(q-1) * IK_n(q, b) at conductor p(q-1), via the Gauss-sum identity.

    The character omega^(-m) contributes rho_m(T_b), where T_b is term 1
    times chi^(-1)(b) = zeta_{q-1}^(dlog b).
    """
    b = _check_ik_args(F, n, b)
    p, q1 = F.p, F.q - 1
    t_b = _character_terms(F, n).shifted(p * F.dlog(b))
    total = CycInt.from_int(p * q1, -(q1 ** (n + 1)) + (-1) ** (n + 1))
    for m in range(1, q1):
        total = total + _relabel(t_b, p, m)
    return total


# Bytes that _check_fits charges one (q, n), measured as the growth of
# VmPeak (/proc/self/status) from the address space held at the check to
# the end of `census --p P --k K --n N`, over q-1 (CPython 3.11, x86-64). A
# coefficient costs its int, at the width of the widest one rounded up to
# the allocator's 16 bytes, and _SLOT_BYTES beside it; over F_q, q > p,
# the scaled convolutions hold a second int per coefficient until the
# values are built. The charge was 1.01 to 2.2 times the growth with 16
# slot bytes, at p = 401, 1009 and 1511 (n up to 8) and at q = 2^14, 2^16,
# 3^9, 5^6, 61^2, 101^2, 13^4 and 31^3 (n up to 8 at 2^14, else 4); the
# least were p = 1009, n = 4 (48.9 kB a value) and p = 1511, n = 3, where
# the ints are 32 bytes. 20 leaves a tenth to spare there.
_VALUE_BYTES = 1000  # the value, its bounds tuple, its census row and CSV line
_SLOT_BYTES = 20  # the tuple slot, and the census's transient work per coefficient


def _int_bytes(widest: int) -> int:
    """The bytes an int as wide as widest takes in the allocator."""
    return -(-sys.getsizeof(widest) // 16) * 16


def _check_fits(F: Field, widest: int) -> None:
    """Raise InvalidParameters unless the q-1 values of a (q, n), p
    coefficients each, none wider than widest, fit in memory beside what
    the process holds (ff.check_fits). Without it, census --p 100003 would
    fill about 10^10 coefficients one value at a time before failing."""
    q1, p = F.q - 1, F.p
    ints = 1 if F.k == 1 else 2
    need = q1 * (_VALUE_BYTES + p * ints * (_SLOT_BYTES + _int_bytes(widest)))
    check_fits(f"q = {F.q}", need, f"{q1} values of {p} coefficients")


def _canonical(p: int, coeffs) -> CycInt:
    """The element of Z[zeta_p] with these coefficients, in canonical form
    (subtract_top), which it keeps as its own. It skips __init__, whose
    length check and copies these p coefficients do not need."""
    z = CycInt.__new__(CycInt)
    z.m, z.coeffs = p, subtract_top(coeffs)
    z._canon = z.coeffs
    return z


def scaled_ik_values(F: Field, n: int) -> tuple:
    """q(q-1) * IK_n(q, g^j) in Z[zeta_p], reduced, for j = 0 .. q-2: the
    values of one (F, n) in dlog order, read off the count and kept per
    field.

    With D = D_(n+1)(1, .) (_count_rows),
    IK_n(q, g^j) = sum over c of zeta_p^Tr(g^-c) * D[j - (n+1) c], so the
    coefficient of zeta_p^t gathers D over the trace class of t. Over F_p
    each class t != 0 is the one c = -dlog t, and a value is one gather of
    the row rotated by j; class 0 is empty. Over F_q, q > p, column t of
    every value is the cyclic convolution of D with the multiplicities of
    (n+1) c over class t: p convolutions of length q-1.
    """
    if n < 1:
        raise InvalidParameters("dimension n must be >= 1")
    key = ("values", n)
    values = F._cache.get(key)
    if values is None:
        p, q1 = F.p, F.q - 1
        scale, row = F.q * q1, _count_rows(F, n)[1]
        # a coefficient is a difference of two scaled entries of the row,
        # over F_q, q > p, each a sum of at most q-1 of them
        _check_fits(F, 2 * scale * max(row) * (q1 if F.k > 1 else 1))
        if F.k == 1:
            # class t != 0, c = -dlog t, reads D[j + (n+1) dlog t]: entry
            # (n+1) dlog t of the row rotated by j; class 0 reads the 0
            # appended after it
            at = [(n + 1) * F.dlog_table[(t,)] % q1 for t in range(1, p)]
            gather = operator.itemgetter(q1, *at)
            row = [scale * x for x in row]
            columns = (gather(row[j:] + row[:j] + [0]) for j in range(q1))
        else:
            mult = [[0] * q1 for _ in range(p)]
            for c in range(q1):
                mult[F._trace_of_power(-c)][(n + 1) * c % q1] += 1
            # scaled after the convolutions, whose slots then stay narrow
            columns = zip(*[[scale * x for x in kernels.cyclic_convolve(row, m)] for m in mult])
        values = F._cache[key] = tuple([_canonical(p, c) for c in columns])
    return values


def scaled_ik_at_p(F: Field, n: int, b) -> CycInt:
    """q(q-1) * IK_n(q, b) in Z[zeta_p], reduced: entry dlog b of
    scaled_ik_values(F, n)."""
    b = _check_ik_args(F, n, b)
    return scaled_ik_values(F, n)[F.dlog(b)]


# Ints that `sum --path formula|both` holds per coefficient of term 1, each
# as wide as the widest coefficient of term 1 and _SLOT_BYTES beside it:
# G^2, G^(n+1) and term 1, the packed operands and product of the
# convolution that builds it, and what min_poly holds after. Measured as
# the growth of VmPeak (/proc/self/status) from the address space held at
# the check to the end of `sum --p P --k K --n N --b 3 --path formula`,
# over p(q-1) (CPython 3.11, x86-64): 110 to 193 bytes at p = 211 and 401
# (n = 1), p = 401 (n = 3), 2^12 (n = 1) and 13^3 (n = 2), where the charge
# is 312; 175 at p = 211 (n = 4), charged 312; 275 at 2^12 (n = 4) and
# 349 at p = 211 (n = 8), charged 408. min_poly's powers grow with the
# degree and the width of IK, not with p(q-1), so past these n they can
# outgrow the charge (1 088 bytes at p = 61, n = 40).
_FORMULA_INTS = 6


def _formula_parts(F: Field, n: int) -> tuple:
    """(term 1's coefficients, rho_0(term 1)'s coefficients, the constant)
    of the scaled formula, kept per field as ("formula", n). Raises
    InvalidParameters, before any Gauss sum is built, unless the route's
    charge fits (ff.check_fits)."""
    key = ("formula", n)
    parts = F._cache.get(key)
    if parts is None:
        p, q1 = F.p, F.q - 1
        # term 1 is a product of G^2 and G^(n+1), G a sum of q-1 roots of
        # unity, so no coefficient passes (q-1)^(n+3)
        need = p * q1 * _FORMULA_INTS * (_SLOT_BYTES + _int_bytes(q1 ** (n + 3)))
        check_fits(f"q = {F.q}", need, f"the Gauss-sum formula's {p * q1} coefficients")
        term = _character_terms(F, n)
        # rho_0 sends zeta_{q-1} to 1, so rho_0(T_b) = rho_0(T) for every b
        rho0 = map_exponents(term, pow(q1, -1, p), p).coeffs
        parts = F._cache[key] = (term.coeffs, rho0, -(q1 ** (n + 1)) + (-1) ** (n + 1))
    return parts


def ik_formula(F: Field, n: int, b) -> CycInt:
    """IK_n(q, b) in Z[zeta_p], reduced, by the Gauss-sum formula: the
    second route, which `verify identity` and `sum --path formula|both`
    compare with the count. Term 1 and rho_0 are kept per (F, n), and a b
    costs O(p).

    Summed over m = 0 .. q-2, rho_m(x) is (q-1) times the row of x free of
    zeta_{q-1}, so the formula's sum over m = 1 .. q-2 is
    (q-1) * row_0(T_b) - rho_0(T_b), T_b term 1 times zeta_{q-1}^(dlog b).
    Exponents split by CRT:
    zeta_{p(q-1)}^e = zeta_p^(e/(q-1) mod p) * zeta_{q-1}^(e/p mod q-1).
    That is q(q-1) * IK, divided out exactly (CheckFailed on a remainder).

    Term 1 must be the unreduced group-ring product (_character_terms):
    rho_m is a ring map of Z[x]/(x^(p(q-1)) - 1), but not mod Phi when
    gcd(m, q-1) > 1. So no representative built from an identity mod Phi
    serves. Jacobi sums give term 1 = q * C * G(chi^-(n+1)) with
    C = prod over a = 1 .. n of J(chi^a, chi), exactly in Z[zeta_{p(q-1)}]
    (Ireland and Rosen, A Classical Introduction to Modern Number Theory,
    ch. 8); read through that representative, the values differed at
    every n >= 2 on 7 fields, and through term.reduced() at every (q, n)
    tried. Hasse-Davenport falls into the same trap. C is the count's row
    in character form, J(chi, ..., chi) = sum over j of D_(n+1)(1, j) *
    chi(g^j), which is why the count and the formula are two readings of
    one object.
    """
    b = _check_ik_args(F, n, b)
    t, rho0, const = _formula_parts(F, n)
    p, q1 = F.p, F.q - 1
    big_m = p * q1
    # T_b is free of zeta_{q-1} where T has zeta_{q-1}^(-dlog b)
    row = p * (-F.dlog(b) % q1)
    out = [q1 * t[(q1 * a + row) % big_m] - r for a, r in enumerate(rho0)]
    out[0] += const
    return _canonical(p, [_exact_div(c, F.q * q1) for c in subtract_top(out)])


def s1_identity_check(F: Field, n: int) -> bool:
    """Recompute the u = 0 slice of the orthogonality split in scaled form
    and compare it with -(q-1)^(n+1)."""
    if n < 1:
        raise InvalidParameters("dimension n must be >= 1")
    p, q1 = F.p, F.q - 1
    big_m = p * q1
    lam_sum = CycInt(big_m)
    for lam in F.units():
        lam_sum = lam_sum + CycInt.monomial(big_m, q1 * F.trace(lam.inverse()))
    chi_sum = CycInt(big_m)
    for mi in range(q1):
        inner = [0] * big_m
        for j in range(q1):
            inner[(p * ((-mi * j) % q1)) % big_m] += 1
        chi_sum = chi_sum + CycInt(big_m, inner) ** (n + 1)
    return lam_sum * chi_sum == CycInt.from_int(big_m, -(q1 ** (n + 1)))


def _bound_terms(F: Field, n: int):
    """(scale, rhs1, rhs2, shift1, shift2) of both estimates; rhs2 and
    shift2 are None when p divides n+1."""
    q = F.q
    second = (n + 1) % F.p != 0
    rhs1 = float(q) ** ((n + 1) / 2)
    rhs2 = 2 * n * float(q) ** (n / 2) if second else None
    shift1 = (q - 1) ** n / q
    shift2 = ((q - 1) ** n - (-1) ** n * (q + 1)) / q if second else None
    return q * (q - 1), rhs1, rhs2, shift1, shift2


def _bounds_of(iks, rhs1, rhs2, shift1, shift2):
    """(lhs1, rhs1, lhs2, rhs2), each lhs the maximum over the values iks."""
    lhs1 = max(abs(ik + shift1) for ik in iks)
    lhs2 = max(abs(ik + shift2) for ik in iks) if shift2 is not None else None
    return lhs1, rhs1, lhs2, rhs2


def bounds_check(F: Field, n: int, b):
    """Numeric check of both estimates at every complex embedding.

    Returns (lhs1, rhs1, lhs2, rhs2), each lhs the maximum over the p-1
    embeddings; lhs2 and rhs2 are None when p divides n+1.
    """
    b = _check_ik_args(F, n, b)
    scale, *terms = _bound_terms(F, n)
    iks = [c / scale for c in embed_all(scaled_ik_at_p(F, n, b))[0].values()]
    return _bounds_of(iks, *terms)


def galois_orbits(F: Field, n: int):
    """(a, step, count) for the values z_j = scaled_ik_at_p(F, n, g^j).

    a = g^((q-1)/(p-1)) generates F_p^*, and
    sigma_a(IK_n(q, b)) = IK_n(q, b a^-(n+1)) reads
    sigma_a(z_j) = z_(j - step) with step = (n+1)(q-1)/(p-1). The index
    orbits j + step Z mod q-1 are the classes of j mod count,
    count = gcd(step, q-1); every exact invariant is constant on each.
    """
    q1 = F.q - 1
    d = q1 // (F.p - 1)
    step = (n + 1) * d
    return F.pow_of_generator(d).coeffs[0], step, gcd(step, q1)


def _check_orbits(F: Field, n: int, a: int, step: int, canon: list) -> None:
    """Raise CheckFailed unless sigma_a(z_j) = z_(j - step) for every j
    (galois_orbits), compared exactly on the canonical tuples canon[j].

    sigma_a moves coefficient e to a*e mod p, so sigma_a(z_j) gathers
    c[a^-1 f mod p] at f: one itemgetter serves every j, and subtract_top
    makes the gathered tuple canonical.
    """
    p, q1 = F.p, F.q - 1
    inverse = pow(a, -1, p)
    gather = operator.itemgetter(*[inverse * f % p for f in range(p)])
    for j, c in enumerate(canon):
        if subtract_top(gather(c)) != canon[(j - step) % q1]:
            raise CheckFailed(
                f"sigma_{a}(IK_{n}({F.q}, {F.pow_of_generator(j).serialize()})) is not "
                f"IK_{n}({F.q}, {F.pow_of_generator(j - step).serialize()}) (bug)"
            )


# Readings within _WINDOW times their float error delta (bound_errors) of
# an orbit's maximum estimate are read in full (orbit_bounds): eight times
# the 4 delta that the proof there needs, and exactly the float 2^-26 B.
_WINDOW = 32


def bound_errors(F: Field, n: int, values) -> tuple:
    """(delta1, delta2): the float error of every reading of both estimates
    of bounds_check over values, the values of one (F, n). Each is
    cyclo.embedding_error with B = S/scale + |shift|, S the largest sum
    |c| of the values' canonical coefficients; delta2 is None when p
    divides n+1."""
    scale, _, _, shift1, shift2 = _bound_terms(F, n)
    spread = max(sum(map(abs, z.canonical())) for z in values) / scale
    return tuple(None if h is None else embedding_error(F.p, spread + abs(h)) for h in (shift1, shift2))


def orbit_bounds(F: Field, n: int, values: list) -> list:
    """bounds_check(F, n, g^j) for every j, bit for bit, read per orbit.

    values[j] is z_j = scaled_ik_at_p(F, n, g^j), j = 0 .. q-2, each read
    through its canonical coefficients, so any representative of z_j gives
    the same floats. Raises InvalidParameters unless p < 2^20, where the
    float error delta of bound_errors is proven, and CheckFailed unless
    sigma_a(z_j) = z_(j - step) exactly for every j
    (_check_orbits, galois_orbits). Then sigma_(a^t)(z_j) = z_(j - step t),
    so the embedding of z_j at zeta^(a^t) equals the first embedding (at
    zeta) of z_(j - step t): the q-1 first embeddings estimate every
    reading of bounds_check, and only the rows whose estimate lies within
    a window W of the maximum estimate over the orbit are evaluated, with
    the floats of bounds_check. Each row serves both shifts.

    Why the row of bounds_check's maximum is never left out. Every reading
    r_a of z_j at row a, estimates included, is within delta of its exact
    value R_a (cyclo.embedding_error). If a* gives the largest reading r*
    of z_j and e_a is the estimate of row a, then
    e_a <= R_a + delta <= r_a + 2 delta <= r* + 2 delta <= R_(a*) + 3 delta
    <= e_(a*) + 4 delta: e_(a*) lies within 4 delta = 2^-29 B, twice the
    error of both readings, of the maximum estimate. W = 32 delta = 2^-26 B
    leaves room for the rounding of W and of the comparison.
    """
    p, q1 = F.p, F.q - 1
    if p >= 2**20:
        raise InvalidParameters("the window's error bound needs p < 2^20")
    a, step, orbits = galois_orbits(F, n)
    canon = [z.canonical() for z in values]
    _check_orbits(F, n, a, step, canon)
    scale, rhs1, rhs2, shift1, shift2 = _bound_terms(F, n)
    rows = {1: _root_row(p, 1)}  # the rows of other a are built when first read
    firsts = [_evaluate(c, rows[1]) / scale for c in canon]
    near = set()  # indices whose first embedding can reach their orbit's maximum
    for shift, delta in zip((shift1, shift2), bound_errors(F, n, values)):
        if shift is None:
            continue
        est = [abs(ik + shift) for ik in firsts]
        window = _WINDOW * delta
        floors = [max(est[r::orbits]) - window for r in range(orbits)]
        near.update(i for i, e in enumerate(est) if e >= floors[i % orbits])
    # row a^t of z_j reads z_(j - step t) at zeta: it is kept when that index is near
    wanted = [[] for _ in range(q1)]
    for i in near:
        at = 1
        for t in range(p - 1):
            wanted[(i + step * t) % q1].append(at)
            at = at * a % p
    out = []
    for c, first, row_ids in zip(canon, firsts, wanted):
        iks = []
        for at in row_ids:
            if at == 1:  # the first embedding, read already
                iks.append(first)
                continue
            row = rows.get(at)
            if row is None:
                row = rows[at] = _root_row(p, at)
            iks.append(_evaluate(c, row) / scale)
        out.append(_bounds_of(iks, rhs1, rhs2, shift1, shift2))
    return out
