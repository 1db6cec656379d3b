"""Characters, Gauss sums, and Kloosterman sums (classical and inverted).

Two exact routes to the inverted sum are provided. The counting route
tallies the (q-1)^n unit tuples by their sum, with a recursion on sums
and products that uses only field addition and discrete logs: O(q) work
for n = 1, O(n q^2) beyond, and never more than 2n (q-1)^n additions.
It is the independent witness. The Gauss-sum formula, the object under
test, is a sum over characters of relabelled copies rho_m of one term in
Z[zeta_{p(q-1)}]; `ik_formula_scaled` states it literally, while
`scaled_ik_at_p` reads its value in Z[zeta_p] off that one term, since
the sum of rho_m over all m is (q-1) times the zeta_{q-1}-free row.
Identities involving 1/(q(q-1)) are kept in scaled form so that
everything stays inside a ring with decidable equality.
"""

from __future__ import annotations

from .cyclo import CycInt, embed_all, map_exponents
from .errors import BudgetExceeded, CharAtZero, ZeroParameter
from .ff import Field, FieldElt

DEFAULT_BUDGET = 2_000_000


def additive_char(F: Field, x) -> CycInt:
    """psi(x) = zeta_p^Tr(x), at conductor p."""
    return CycInt.monomial(F.p, F.trace(x))


def mult_char(F: Field, m: int, x) -> CycInt:
    """chi(x) = zeta_{q-1}^(-m * dlog x) for chi = omega^(-m), omega(g^j) =
    zeta_{q-1}^j, at conductor q-1."""
    x = F.elt(x)
    if x.is_zero():
        raise CharAtZero("multiplicative character at zero")
    q1 = F.q - 1
    return CycInt.monomial(q1, (-m * F.dlog(x)) % q1)


def gauss_sum(F: Field, m: int) -> CycInt:
    """G(chi) = sum over x != 0 of chi(x) psi(x) for chi = omega^(-m), m
    read mod q-1, at conductor p(q-1)."""
    q1 = F.q - 1
    m %= q1
    key = ("gauss", m)
    cached = F._cache.get(key)
    if cached is not None:
        return cached
    p = F.p
    big_m = p * q1
    out = [0] * big_m
    for j in range(q1):
        # zeta_{q-1} = zeta_M^p, zeta_p = zeta_M^(q-1)
        e = (p * ((-m * j) % q1) + q1 * F._trace_of_power(j)) % big_m
        out[e] += 1
    g = CycInt(big_m, out)
    F._cache[key] = g
    return g


def _check_ik_args(F: Field, n: int, b) -> FieldElt:
    if n < 1:
        raise ZeroParameter("dimension n must be >= 1")
    b = F.elt(b)
    if b.is_zero():
        raise ZeroParameter("parameter b must be nonzero")
    return b


def _enumeration_guard(F: Field, n: int, b, budget: int) -> FieldElt:
    """Refuse (q-1)^n > budget; the counting does at most 2n times that work."""
    b = _check_ik_args(F, n, b)
    if (F.q - 1) ** n > budget:
        raise BudgetExceeded(f"(q-1)^n = {(F.q - 1) ** n} exceeds budget {budget}")
    return b


def _add_rotations(acc: list, row: list, shifts) -> list:
    """acc[i] plus row[i - d] for each d in shifts, with 0 <= d < len(row).

    Only the nonzero entries of row are spread, so the cost is the number
    of shifts times the number of those entries.
    """
    q1 = len(row)
    acc = list(acc)
    nonzero = [(i, r) for i, r in enumerate(row) if r]
    if not nonzero:  # nothing to spread: leave the shifts unread
        return acc
    for d in shifts:
        for i, r in nonzero:
            acc[(i + d) % q1] += r
    return acc


def _brute_counts(F: Field, n: int, b):
    """Count unit tuples by s = x_1 + ... + x_n + b/(x_1 ... x_n): returns
    (N_0, N) with N_0 the count at s = 0 and N[c] the count at s = g^c.

    Appending x_(n+1) = b/(x_1 ... x_n) makes these the unit (n+1)-tuples
    with product b, counted by sum. Let D_k(s, j) count the unit k-tuples
    with sum s and product g^j; then D_k(s, j) is the sum over units g^c
    of D_(k-1)(s - g^c, j - c). Scaling a tuple by a unit a gives
    D_k(a s, j + k dlog a) = D_k(s, j), so the rows s = 0 and s = 1 hold
    all of D_k, and a step spreads each nonzero entry of row s = 1 of
    D_(k-1) over q-1 shifts through the logs of 1 - g^c. That row is empty
    for D_0 and has one entry for D_1, so n = 1 costs O(q) and the whole
    count at most 2n (q-1)^n additions: the tuple budget bounds the work.
    Only dlog and field addition enter: no character or cyclotomic value.
    """
    q1 = F.q - 1
    neg_one = F.dlog(F.elt(-1))
    log_one_minus = F._log_one_minus_powers()  # 1 - g^c = g^(log_one_minus[c - 1])
    zero_row, one_row = [1] + [0] * (q1 - 1), [0] * q1  # D_0 counts the empty tuple
    for k in range(1, n + 2):
        # D_(k-1)(g^e, i) = one_row[i - (k-1) e]. For s = 1 the unit g^0
        # leaves s - g^0 = 0; for s = 0, s - g^c = g^(c + neg_one).
        from_one = ((c + (k - 1) * e) % q1 for c, e in enumerate(log_one_minus, 1))
        from_zero = ((k * c + (k - 1) * neg_one) % q1 for c in range(q1))
        zero_row, one_row = (
            _add_rotations([0] * q1, one_row, from_zero),
            _add_rotations(zero_row, one_row, from_one),
        )
    beta = F.dlog(b)
    # D_(n+1)(g^c, beta) = D_(n+1)(1, beta - (n+1) c)
    return zero_row[beta], [one_row[(beta - (n + 1) * c) % q1] for c in range(q1)]


def _brute_distribution(F: Field, n: int, b) -> dict:
    """The nonzero counts of _brute_counts, keyed by s.coeffs."""
    zero, by_log = _brute_counts(F, n, b)
    dist = {F.zero.coeffs: zero}
    for c, count in enumerate(by_log):
        dist[F.pow_of_generator(c).coeffs] = count
    return {s: count for s, count in dist.items() if count}


def kloosterman_brute(F: Field, n: int, b, budget: int = DEFAULT_BUDGET) -> CycInt:
    """K_n(q, b) at conductor p, from the counts of unit tuples by sum
    (_brute_counts)."""
    b = _enumeration_guard(F, n, b, budget)
    zero, by_log = _brute_counts(F, n, b)
    counts = [zero] + [0] * (F.p - 1)  # Tr(0) = 0
    for c, count in enumerate(by_log):
        counts[F._trace_of_power(c)] += count
    return CycInt(F.p, counts)


def inverted_kloosterman_brute(
    F: Field, n: int, b, budget: int = DEFAULT_BUDGET
) -> CycInt:
    """IK_n(q, b) at conductor p, from the counts of unit tuples by sum;
    the empty sum is 0."""
    b = _enumeration_guard(F, n, b, budget)
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
    """G^e for G = G(omega^(-1)) and e >= 2, cached per field: one product
    from the power below it when that is cached, else a square-and-multiply."""
    key = ("gauss_power", e)
    cached = F._cache.get(key)
    if cached is None:
        g = gauss_sum(F, 1)
        below = g if e == 2 else F._cache.get(("gauss_power", e - 1))
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
    key = ("ikterm", n)
    cached = F._cache.get(key)
    if cached is None:
        p, q1 = F.p, F.q - 1
        cached = _relabel(_gauss_power(F, 2), p, -(n + 1)) * _gauss_power(F, n + 1)
        cached = cached.shifted(p * ((-(n + 1) * F.dlog(F.elt(-1))) % q1))  # chi^(n+1)(-1)
        F._cache[key] = cached
    return cached


def _rho0_term(F: Field, n: int) -> tuple:
    """The coefficients of rho_0(T) in Z[zeta_p], T term 1: zeta_{q-1} -> 1,
    so zeta_{p(q-1)}^e -> zeta_p^(e/(q-1)). It does not depend on b, so it
    is cached per (q, n) next to term 1."""
    key = ("rho0", n)
    cached = F._cache.get(key)
    if cached is None:
        cached = map_exponents(_character_terms(F, n), pow(F.q - 1, -1, F.p), F.p).coeffs
        F._cache[key] = cached
    return cached


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


def scaled_ik_at_p(F: Field, n: int, b) -> CycInt:
    """q(q-1) * IK_n(q, b) in Z[zeta_p], reduced, read off term 1.

    Summed over m = 0 .. q-2, rho_m(x) is (q-1) times the row of x free of
    zeta_{q-1}, so the formula's sum over m = 1 .. q-2 is
    (q-1) * row_0(T_b) - rho_0(T_b). Exponents split by CRT:
    zeta_{p(q-1)}^e = zeta_p^(e/(q-1) mod p) * zeta_{q-1}^(e/p mod q-1).
    """
    b = _check_ik_args(F, n, b)
    key = ("ik_at_p", n, b.coeffs)
    cached = F._cache.get(key)
    if cached is None:
        p, q1 = F.p, F.q - 1
        big_m = p * q1
        rho0 = _rho0_term(F, n)  # rho_0(T_b) = rho_0(T)
        t = _character_terms(F, n).coeffs
        # T_b is free of zeta_{q-1} where T has zeta_{q-1}^(-dlog b)
        row = p * (-F.dlog(b) % q1)
        out = [q1 * t[(q1 * a + row) % big_m] - r for a, r in enumerate(rho0)]
        out[0] += -(q1 ** (n + 1)) + (-1) ** (n + 1)
        cached = CycInt(p, out).reduced()
        F._cache[key] = cached
    return cached


def s1_identity_check(F: Field, n: int) -> bool:
    """Recompute the u = 0 slice of the orthogonality split in scaled form
    and compare it with -(q-1)^(n+1)."""
    if n < 1:
        raise ZeroParameter("dimension n must be >= 1")
    p, q1 = F.p, F.q - 1
    big_m = p * q1
    lam_sum = CycInt.zero(big_m)
    for lam in F.units():
        lam_sum = lam_sum + CycInt.monomial(big_m, q1 * F.trace(lam.inverse()))
    chi_sum = CycInt.zero(big_m)
    for mi in range(q1):
        inner = [0] * big_m
        for j in range(q1):
            inner[(p * ((-mi * j) % q1)) % big_m] += 1
        chi_sum = chi_sum + CycInt(big_m, inner) ** (n + 1)
    return lam_sum * chi_sum == CycInt.from_int(big_m, -(q1 ** (n + 1)))


def bounds_check(F: Field, n: int, b):
    """Numeric check of both estimates at every complex embedding.

    Returns (lhs1, rhs1, lhs2, rhs2), each lhs the maximum over the p-1
    embeddings; lhs2 and rhs2 are None when p divides n+1.
    """
    b = _check_ik_args(F, n, b)
    z = scaled_ik_at_p(F, n, b)
    q = F.q
    second = (n + 1) % F.p != 0
    rhs1 = float(q) ** ((n + 1) / 2)
    rhs2 = 2 * n * float(q) ** (n / 2) if second else None
    shift1 = (q - 1) ** n / q
    shift2 = ((q - 1) ** n - (-1) ** n * (q + 1)) / q if second else None
    scale = q * (q - 1)
    iks = [c / scale for c in embed_all(z)[0].values()]
    lhs1 = max(abs(ik + shift1) for ik in iks)
    lhs2 = max(abs(ik + shift2) for ik in iks) if second else None
    return lhs1, rhs1, lhs2, rhs2
