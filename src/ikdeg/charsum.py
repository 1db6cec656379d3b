"""Characters, Gauss sums, and Kloosterman sums (classical and inverted).

Two exact routes to the inverted sum are provided. The counting route
tallies the (q-1)^n unit tuples by their sum, with a recursion on sums
and products that uses only field addition and discrete logs: at most
count_work(q, n) additions, and a count over COUNT_LIMIT is refused.
It is the independent witness. The Gauss-sum formula, the object under
test, is a sum over characters of relabelled copies rho_m of one term in
Z[zeta_{p(q-1)}]; `ik_formula_scaled` states it literally, while
`scaled_ik_values` reads all q-1 values of one (q, n) in Z[zeta_p] off
that one term, since the sum of rho_m over all m is (q-1) times the
zeta_{q-1}-free row. A field keeps the powers of its Gauss sum and the
tuple of values of each n it was asked for; `scaled_ik_at_p` is one
entry of that tuple.
Identities involving 1/(q(q-1)) are kept in scaled form so that
everything stays inside a ring with decidable equality.
"""

from math import gcd

from .cyclo import CycInt, _evaluate, _root_row, embed_all, galois_apply, map_exponents
from .errors import CheckFailed, InvalidParameters
from .ff import Field, FieldElt

# The counting route's limit on additions. It exceeds count_work at every
# (q, n), q >= 3, whose (q-1)^n <= 2 000 000 tuples an earlier tuple budget
# admitted: the largest is 4 001 620, at q-1 = 1414 and n = 2.
COUNT_LIMIT = 2**22


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


def count_work(q: int, n: int) -> int:
    """The additions of _brute_counts at most: each of its n+1 steps
    spreads row s = 1 over q-1 shifts twice, and that row has no entry for
    D_0, one for D_1 and at most q-1 after that."""
    return 2 * (q - 1) * (1 + (n - 1) * (q - 1))


def over_budget(q: int, n: int) -> bool:
    """Whether counting IK_n(q, b) would take over COUNT_LIMIT additions."""
    return count_work(q, n) > COUNT_LIMIT


def _enumeration_guard(F: Field, n: int, b) -> FieldElt:
    """Refuse a count that is over_budget."""
    b = _check_ik_args(F, n, b)
    if over_budget(F.q, n):
        raise InvalidParameters(f"counting takes {count_work(F.q, n)} additions, over the limit {COUNT_LIMIT}")
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
    count at most count_work(q, n) additions.
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


def kloosterman_brute(F: Field, n: int, b) -> CycInt:
    """K_n(q, b) at conductor p, from the counts of unit tuples by sum
    (_brute_counts)."""
    b = _enumeration_guard(F, n, b)
    zero, by_log = _brute_counts(F, n, b)
    counts = [zero] + [0] * (F.p - 1)  # Tr(0) = 0
    for c, count in enumerate(by_log):
        counts[F._trace_of_power(c)] += count
    return CycInt(F.p, counts)


def inverted_kloosterman_brute(F: Field, n: int, b) -> CycInt:
    """IK_n(q, b) at conductor p, from the counts of unit tuples by sum;
    the empty sum is 0."""
    b = _enumeration_guard(F, n, b)
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


def scaled_ik_values(F: Field, n: int) -> tuple:
    """q(q-1) * IK_n(q, g^j) in Z[zeta_p], reduced, for j = 0 .. q-2: the
    values of one (F, n) in dlog order, read off term 1 once and kept per
    field.

    Summed over m = 0 .. q-2, rho_m(x) is (q-1) times the row of x free of
    zeta_{q-1}, so the formula's sum over m = 1 .. q-2 is
    (q-1) * row_0(T_b) - rho_0(T_b), T_b term 1 times zeta_{q-1}^(dlog b).
    Exponents split by CRT:
    zeta_{p(q-1)}^e = zeta_p^(e/(q-1) mod p) * zeta_{q-1}^(e/p mod q-1).
    """
    if n < 1:
        raise InvalidParameters("dimension n must be >= 1")
    key = ("values", n)
    values = F._cache.get(key)
    if values is None:
        p, q1 = F.p, F.q - 1
        big_m = p * q1
        term = _character_terms(F, n)
        t = term.coeffs
        # rho_0 sends zeta_{q-1} to 1, so rho_0(T_b) = rho_0(T) for every b
        rho0 = map_exponents(term, pow(q1, -1, p), p).coeffs
        const = -(q1 ** (n + 1)) + (-1) ** (n + 1)
        values = []
        for j in range(q1):
            # T_b, b = g^j, is free of zeta_{q-1} where T has zeta_{q-1}^(-j)
            row = p * (-j % q1)
            out = [q1 * t[(q1 * a + row) % big_m] - r for a, r in enumerate(rho0)]
            out[0] += const
            values.append(CycInt(p, out).reduced())
        values = F._cache[key] = tuple(values)
    return values


def scaled_ik_at_p(F: Field, n: int, b) -> CycInt:
    """q(q-1) * IK_n(q, b) in Z[zeta_p], reduced: entry dlog b of
    scaled_ik_values(F, n)."""
    b = _check_ik_args(F, n, b)
    return scaled_ik_values(F, n)[F.dlog(b)]


def s1_identity_check(F: Field, n: int) -> bool:
    """Recompute the u = 0 slice of the orthogonality split in scaled form
    and compare it with -(q-1)^(n+1)."""
    if n < 1:
        raise InvalidParameters("dimension n must be >= 1")
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


def _check_orbits(F: Field, n: int, a: int, step: int, values: list) -> None:
    """Raise CheckFailed unless sigma_a(z_j) = z_(j - step) for every j
    (galois_orbits), compared exactly: CycInt equality reads canonical
    forms, so any representative of z_j passes."""
    q1 = F.q - 1
    for j, z in enumerate(values):
        if galois_apply(z, a) != values[(j - step) % q1]:
            raise CheckFailed(
                f"sigma_{a}(IK_{n}({F.q}, {F.pow_of_generator(j).serialize()})) is not "
                f"IK_{n}({F.q}, {F.pow_of_generator(j - step).serialize()}) (bug)"
            )


# Readings within this share of S/scale + |shift| of an orbit's maximum
# estimate are read in full (orbit_bounds): eight times the error margin
# that the proof there needs.
_WINDOW = 2.0**-26


def orbit_bounds(F: Field, n: int, values: list) -> list:
    """bounds_check(F, n, g^j) for every j, bit for bit, read per orbit.

    values[j] is z_j = scaled_ik_at_p(F, n, g^j), j = 0 .. q-2, each read
    through its canonical coefficients, so any representative of z_j gives
    the same floats. Raises
    InvalidParameters unless p < 2^20, which the proof below needs, and
    CheckFailed unless sigma_a(z_j) = z_(j - step) exactly for every j
    (_check_orbits, galois_orbits). Then sigma_(a^t)(z_j) = z_(j - step t),
    so the embedding of z_j at zeta^(a^t) equals the first embedding (at
    zeta) of z_(j - step t): the q-1 first embeddings estimate every
    reading of bounds_check, and only the rows whose estimate lies within
    a window W of the maximum estimate over the orbit are evaluated, with
    the floats of bounds_check. Each row serves both shifts.

    Why the row of bounds_check's maximum is never left out. A reading of
    z at row a is r = |fl(fl(sum_e c_e w_(ae)) / s) + h|, with s the
    scale, h the float shift and w_k the table's e^(2 pi i k/p); its exact
    value is R = |z(zeta^a)/s + h|. Let u = 2^-53, S the largest sum |c_e|
    among the values and B = S/s + |h|. Each table root is within 2^-46 of
    its true value (its argument takes at most three roundings, under
    2^-48, and cos and sin are within an ulp); each product c_e w adds at
    most 2u per part (int to float, one rounding); the recursive sum of p
    terms adds at most sqrt(2) gamma_(p-1) sum |c_e w| (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, section 3.1, per part,
    gamma_k = ku/(1 - ku) < 1.001 * 2^-33 for p < 2^20); division, the
    addition of h and abs add at most 6uB. So |r - R| < 2^-31 B = delta
    for every reading, estimates included. If a* gives the largest
    reading r* of z_j and e_a is the estimate of row a, then
    e_a <= R_a + delta <= r_a + 2 delta <= r* + 2 delta <= R_(a*) + 3 delta
    <= e_(a*) + 4 delta: e_(a*) lies within 4 delta = 2^-29 B, twice the
    error of both readings, of the maximum estimate. W = 2^-26 B leaves
    room for the rounding of W and of the comparison.
    """
    p, q1 = F.p, F.q - 1
    if p >= 2**20:
        raise InvalidParameters("the window's error bound needs p < 2^20")
    a, step, orbits = galois_orbits(F, n)
    canon = [z.canonical() for z in values]
    _check_orbits(F, n, a, step, values)
    scale, rhs1, rhs2, shift1, shift2 = _bound_terms(F, n)
    rows = {1: _root_row(p, 1)}  # the rows of other a are built when first read
    firsts = [_evaluate(c, rows[1]) / scale for c in canon]
    spread = max(sum(map(abs, c)) for c in canon) / scale
    near = set()  # indices whose first embedding can reach their orbit's maximum
    for shift in (shift1,) if shift2 is None else (shift1, shift2):
        est = [abs(ik + shift) for ik in firsts]
        window = _WINDOW * (spread + abs(shift))
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
