"""Oracles that only tests use: glue generators (no certificate enumerates
overlattices; ``sat.511`` glues one index-2 extension per S_9 orbit), the
element list of a generated subgroup (the package counts it by a Hermite
index, ``FiniteQuadraticForm.subgroup_order``), the
Fraction lift of a discriminant class (the generator lifts are the unique
dual-lattice representatives with all coordinates in [0, 1), read off a
reference Smith form of the Gram), the pairing of two rational vectors (the
package pairs order-2 classes as doubled integer lifts), the ambient
coordinates of an overlattice vector, the JSON text of a lattice file (the
package only reads them), N's Gram and inverse by hand, a reference Smith
normal form, the two-kernel saturation that ``core.saturation`` replaces by
one left Smith form, the separate four-square and 2x^2+2y^2+2z^2+3u^2
search loops that ``hassett._square_reps`` replaces, the one-extension-
per-class form of ``sat.511``, which the certificate replaces by one
extension per S_9 orbit, the admissibility scan as it stood before R4 read
each vector's own span (it saturated every span and walked L to norm 8),
Milgram's formula as a check across the discriminant form, group and
signature, and the p-elementary hyperbolic existence table, which tests hold
against direct sums of standard pieces, and the plain matrix product and
transpose that the package does without."""
import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import mul

from cubiclat import catalog
from cubiclat.core import (DependentSpan, FiniteQuadraticForm,
                           IntegralLattice, NoRepresentation, ParityError,
                           LatticeError, Sublattice, _coords, _gram_product,
                           _sublattice, discriminant_form, discriminant_group,
                           divisibility, orthogonal_complement,
                           signature_of_gram)
from cubiclat.exact import _xgcd, bareiss, identity, integer_kernel, numerators
from cubiclat.geomchecks import Violation, _check_eta, admissibility_scan
from cubiclat.glue import Overlattice, isotropic_elements, overlattice_from_glue
from cubiclat.hassett import is_admissible
from cubiclat.shortvec import enumerate_by_norm


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


@lru_cache(maxsize=None)
def _generator_lifts(gram) -> tuple[tuple[Fraction, ...], ...]:
    """Column i of v over d_i, reduced into [0, 1), for each invariant factor
    d_i > 1 of the Smith form u G v = diag(d_i), in the order of
    ``FiniteQuadraticForm.factors``."""
    d, _, v = smith_normal_form_reference([list(r) for r in gram])
    return tuple(tuple(Fraction(row[i] % d[i][i], d[i][i]) for row in v)
                 for i in range(len(gram)) if d[i][i] > 1)


def lift(form: FiniteQuadraticForm, coeffs) -> tuple[Fraction, ...]:
    """The dual vector sum c_i g_i over the generator lifts g_i, reduced into
    [0, 1) componentwise."""
    gens = _generator_lifts(form.lattice.gram)
    acc = [sum((c * g[k] for c, g in zip(coeffs, gens)), Fraction(0))
           for k in range(form.lattice.rank)]
    return tuple(x - x.__floor__() for x in acc)


def pair_rational(L: IntegralLattice, u, v) -> Fraction:
    """u^T gram v for rational coordinate vectors, as one integer Gram
    product over the two vectors' cleared denominators."""
    un, uden = numerators(u)
    vn, vden = numerators(v)
    return Fraction(_gram_product(L.gram, _coords(un, L.rank),
                                  _coords(vn, L.rank)), uden * vden)


def to_ambient(ext: Overlattice, v) -> tuple[Fraction, ...]:
    """Rational ambient-basis coordinates of the extension vector v; the
    inverse of ``Overlattice.from_ambient``."""
    n = len(ext.basis)
    return tuple(sum(Fraction(v[a]) * ext.basis[a][i] for a in range(n))
                 for i in range(n))


def lattice_json(L: IntegralLattice) -> str:
    """L as the text of a lattice file that ``cli.lattice_from_json`` reads."""
    return json.dumps({"name": L.name or "", "labels": list(L.labels),
                       "gram": [list(row) for row in L.gram]},
                      indent=2, sort_keys=True)


ETA_F = [0] + list(range(2, 11))  # eta, F_1..F_9 in the (eta, y, F_i) basis


def plane_inverse_times_two() -> list[list[int]]:
    """2 * N^-1 by hand: N^-1 is 3/2 on the eta/F_i diagonal, 1 between two
    distinct members of {eta, F_i}, -5/2 in the y row and column and 6 at
    (y, y)."""
    x2 = [[-5] * 11 for _ in range(11)]
    for i in ETA_F:
        for j in ETA_F:
            x2[i][j] = 3 if i == j else 2
    x2[1][1] = 12
    return x2


def plane_gram_N(s) -> list[list[Fraction]]:
    """B S B^T over Fractions for the symbol pairing s and the basis
    (eta, y, F_1..F_9) of N, with y = (P + F_1 + ... + F_9)/2 halved."""
    half = Fraction(1, 2)
    basis = [[Fraction(0)] * 11 for _ in range(11)]
    basis[0][0] = Fraction(1)
    for j in range(1, 11):
        basis[1][j] = half
    for i in range(2, 11):
        basis[i][i] = Fraction(1)
    return [[sum(basis[a][i] * s[i][j] * basis[b][j]
                 for i in range(11) for j in range(11))
             for b in range(11)] for a in range(11)]


def _closure(generators, factors) -> frozenset:
    """All elements of the subgroup generated by the given coefficient tuples,
    by breadth-first search: the reference for ``subgroup_order``."""
    zero = tuple(0 for _ in factors)
    elems = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                s = tuple((a + b) % d for a, b, d in zip(e, g, factors))
                if s not in elems:
                    elems.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(elems)


def enumerate_even_overlattices(L: IntegralLattice, max_index: int):
    """(order, overlattice) for each isotropic subgroup of order <= max_index,
    the order counted by ``_closure``.

    Subgroups are listed up to equality (no automorphism quotient), smallest
    first, the trivial subgroup included.
    """
    if not L.is_even:
        raise ParityError("even overlattice enumeration needs an even lattice")
    form = discriminant_form(L)
    iso = isotropic_elements(form)
    found: dict[frozenset, tuple[tuple[int, ...], ...]] = {}
    zero = tuple(0 for _ in form.factors)
    frontier = [(frozenset({zero}), ())]
    found[frozenset({zero})] = ()
    while frontier:
        nxt = []
        for elems, gens in frontier:
            for g in iso:
                if g in elems:
                    continue
                new_gens = gens + (g,)
                new_elems = _closure(new_gens, form.factors)
                if len(new_elems) > max_index or new_elems in found:
                    continue
                if any(form.q(e) != 0 for e in new_elems):
                    continue
                found[new_elems] = new_gens
                nxt.append((new_elems, new_gens))
        frontier = nxt
    out = []
    for elems in sorted(found, key=lambda s: (len(s), sorted(s))):
        lifts = [lift(form, g) for g in found[elems]]
        out.append((len(elems), overlattice_from_glue(L, lifts)))
    return out


def _divmod_monic(p: list[int], f: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the integer polynomial p by the monic f, both
    as coefficient lists from the constant term up."""
    k = len(f) - 1
    r = list(p)
    q = [0] * max(len(p) - k, 0)
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i]
        if c:
            q[i - k] = c
            for j, x in enumerate(f):
                r[i - k + j] -= c * x
    return q, r[:k]


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n: x^n - 1 divided by Phi_d for every proper divisor d of n."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p, rest = _divmod_monic(p, list(_cyclotomic(d)))
            assert not any(rest)
    return tuple(p)


def milgram_holds(L: IntegralLattice) -> bool:
    """Milgram's formula squared for an even lattice: G^2 = |A_L| * i^(t+ - t-)
    for the Gauss sum G = sum over A_L of exp(pi i q(x)).  With every q-value
    in (1/s)Z and M = lcm(2s, 4), exp(pi i q) is zeta_M^(q M / 2) and i is
    zeta_M^(M / 4), so the identity is decided in integers: G^2 minus the
    right side, as a polynomial in zeta_M, must vanish modulo Phi_M."""
    group = discriminant_group(L)
    counts = discriminant_form(L).value_counts([range(d) for d in group.factors])
    m = lcm(2 * lcm(*(v.denominator for v in counts)), 4)
    gauss = [0] * m
    for v, n in counts.items():
        gauss[int(v * m / 2)] += n
    square = [0] * m
    for i, a in enumerate(gauss):
        if a:
            for j, b in enumerate(gauss):
                square[(i + j) % m] += a * b
    pos, neg = signature_of_gram(bareiss(L.gram, symmetric=True))
    square[(pos - neg) * m // 4 % m] -= group.order
    return not any(_divmod_monic(square, list(_cyclotomic(m)))[1])


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def p_elementary_hyperbolic_exists(p: int, rank: int, a: int) -> bool:
    """Whether an even hyperbolic p-elementary lattice (p odd) of this rank and
    discriminant length exists."""
    if p == 2 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if a < 0 or rank < 0:
        raise ValueError("rank and a must be nonnegative")
    if a > rank or rank % 2 != 0:
        return False
    if a % 2 == 0:
        if rank % 4 != 2:
            return False
    else:
        sign = 1 if (rank // 2 - 1) % 2 == 0 else -1
        if (p - sign) % 4 != 0:
            return False
    if rank % 8 != 2 and not (rank > a > 0):
        return False
    return True


def smith_normal_form_reference(a):
    """The Smith normal form (d, u, v) by the same pivot rule and sequence of
    row and column operations as ``exact.smith_normal_form``, each operation
    applied in full to both of its rows or columns."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = identity(m)
    v = identity(n)

    def row_op(i, j, s, t, x, y):
        # (row i, row j) <- (s*row_i + t*row_j, x*row_i + y*row_j)
        for mat in (d, u):
            ri, rj = mat[i], mat[j]
            for k in range(len(ri)):
                ri[k], rj[k] = s * ri[k] + t * rj[k], x * ri[k] + y * rj[k]

    def col_op(i, j, s, t, x, y):
        for mat in (d, v):
            for row in mat:
                row[i], row[j] = s * row[i] + t * row[j], x * row[i] + y * row[j]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_op(t, pi, 0, 1, 1, 0)
        if pj != t:
            col_op(t, pj, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    if d[i][t] % d[t][t] == 0:
                        row_op(t, i, 1, 0, -(d[i][t] // d[t][t]), 1)
                    else:
                        g, s, w = _xgcd(d[t][t], d[i][t])
                        p, q = d[t][t] // g, d[i][t] // g
                        row_op(t, i, s, w, -q, p)
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    if d[t][j] % d[t][t] == 0:
                        col_op(t, j, 1, 0, -(d[t][j] // d[t][t]), 1)
                    else:
                        g, s, w = _xgcd(d[t][t], d[t][j])
                        p, q = d[t][t] // g, d[t][j] // g
                        col_op(t, j, s, w, -q, p)
            if all(d[i][t] == 0 for i in range(t + 1, m)):
                break
        stray = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    stray = i
                    break
            if stray:
                break
        if stray is not None:
            row_op(t, stray, 1, 1, 0, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i][i] = -d[i][i]
            u[i] = [-x for x in u[i]]
    return d, u, v


def saturation_reference(L: IntegralLattice, vectors) -> Sublattice:
    """span_Q(vectors) ∩ L as two integer kernels: the functionals vanishing
    on the span (L.rank minus its rank of them), then their joint kernel."""
    vs = [list(_coords(v, L.rank)) for v in vectors]
    if not vs:
        raise DependentSpan("saturation of the empty span is undefined")
    funcs = integer_kernel(vs)
    if L.rank - len(funcs) < len(vs):
        raise DependentSpan("spanning vectors are linearly dependent")
    basis = integer_kernel(funcs) if funcs else identity(L.rank)
    return _sublattice(L, basis)


def _four_square_reps(n: int):
    """Every n = x^2+y^2+z^2+u^2 with x >= y >= z >= u >= 0, in descending
    lexicographic order."""
    for x in range(isqrt(n), -1, -1):
        r1 = n - x * x
        for y in range(min(x, isqrt(r1)), -1, -1):
            r2 = r1 - y * y
            for z in range(min(y, isqrt(r2)), -1, -1):
                r3 = r2 - z * z
                u = isqrt(r3)
                if u * u == r3 and u <= z:
                    yield (x, y, z, u)


def ramanujan_rep(n: int) -> tuple[int, int, int, int]:
    """A representation n = 2x^2+2y^2+2z^2+3u^2; impossible exactly for 1, 17."""
    if n < 1:
        raise ValueError("n must be positive")
    for x in range(isqrt(n // 2), -1, -1):
        r1 = n - 2 * x * x
        for y in range(min(x, isqrt(r1 // 2)), -1, -1):
            r2 = r1 - 2 * y * y
            for z in range(min(y, isqrt(r2 // 2)), -1, -1):
                r3 = r2 - 2 * z * z
                if r3 % 3 == 0:
                    u = isqrt(r3 // 3)
                    if 3 * u * u == r3:
                        return (x, y, z, u)
    raise NoRepresentation(f"{n} is not of the form 2x^2+2y^2+2z^2+3u^2")


def coset_rules_by_class() -> dict[tuple[int, ...], tuple[str, str | None]]:
    """(support family, bound-3 scan rule) for each of the 511 isotropic
    classes lam of A_N, one glued extension N + (lam + N) per class, keyed by
    the class's symbols (0 for eta*, i for F_i*) in the order ``sat.511``
    meets them."""
    n = catalog.plane_lattice_N()
    eta = catalog.n_class("eta")
    dual2, _ = catalog.n_dual_classes()
    out = {}
    for size in range(1, 11):
        for symbols in combinations(range(10), size):
            lift2 = [sum(c) for c in zip(*(dual2[s] for s in symbols))]
            if _gram_product(n.gram, lift2, lift2) % 4:
                continue
            fibres = len(symbols) - (0 in symbols)
            key = f"eta+{fibres}F" if 0 in symbols else f"{fibres}F"
            ext = overlattice_from_glue(n, [[Fraction(c, 2) for c in lift2]])
            hit = admissibility_scan(ext.lattice, ext.from_ambient(eta),
                                     norm_bound=3)
            out[symbols] = key, hit and hit.rule
    return out


def _labeling_det(span: int, eta, u) -> int:
    """Determinant of the saturation of <eta, u>, from span = 3 u.u -
    (eta.u)^2 = det <eta, u> and the gcd of the 2x2 minors of the
    coordinate matrix; a gcd of 1 ends the scan early."""
    if span == 0:
        return 0
    g = 0
    for i in range(len(eta)):
        for j in range(i + 1, len(eta)):
            g = gcd(g, eta[i] * u[j] - eta[j] * u[i])
            if g == 1:
                return span
    if span % (g * g):
        raise LatticeError(f"span determinant {span} is not divisible by the "
                           f"squared saturation index {g * g}")
    return span // (g * g)


def admissibility_scan_reference(L: IntegralLattice, eta,
                                 norm_bound: int = 12) -> Violation | None:
    """The scan with R4 on saturated determinants: every vector of L up to
    norm min(norm_bound, 8) is saturated with eta before its determinant is
    read."""
    ec = _check_eta(L, eta)
    comp = orthogonal_complement(L, [ec])
    comp_bound = min(norm_bound, 6) if comp.lattice.is_even else norm_bound
    comp_slices = enumerate_by_norm(comp.lattice, comp_bound)

    for sl in comp_slices:
        if sl.norm % 2 == 1:
            w = comp.to_ambient(sl.vectors[0])
            return Violation("R1", w, {"norm": sl.norm})

    r4cap = min(norm_bound, 8)
    slices = enumerate_by_norm(L, max(2, r4cap))
    for sl in slices:
        if sl.norm == 2:
            return Violation("R2", tuple(sl.vectors[0]), {"norm": 2})

    for sl in comp_slices:
        if sl.norm != 6:
            continue
        for w in sl.vectors:
            if divisibility(comp.lattice, w) == 3:
                return Violation("R3", comp.to_ambient(w),
                                 {"norm": 6, "divisibility": 3})

    eta_dual = L.dual_pairings(ec)
    for sl in slices:
        if sl.norm > r4cap:
            break
        for u in sl.vectors:
            e = sum(map(mul, eta_dual, u))
            d = _labeling_det(3 * sl.norm - e * e, ec, u)
            if 0 < d <= 18 and not is_admissible(d):
                return Violation("R4", tuple(u), {"det": d})
    return None
