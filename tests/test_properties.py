"""Property-based tests: exact-arithmetic identities, classification facts
that hold across whole families, and smoke runs of the randomized batteries.

The acceptance suite reruns the batteries at full size; here they run small
to keep the unit suite fast.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubiclat import catalog
from cubiclat.classify import _torsion_q_multiset, two_elementary_invariants
from cubiclat.core import (
    DegenerateLattice,
    IntegralLattice,
    basic_invariants,
    combine,
    direct_sum,
    discriminant_form,
    discriminant_group,
    gram_of,
    rescale,
    signature_of_gram,
)
from cubiclat.exact import (
    bareiss,
    bareiss_det,
    frac_inverse,
    identity,
    rational_rank,
    smith_normal_form,
    solve_exact,
)
from cubiclat.hassett import four_squares, ramanujan_rep
from property_battery import (
    disc_lift_trials,
    glue_identity_trials,
    random_even_lattice,
    random_positive_definite,
    run_battery,
    shortvec_trials,
)
from oracles import (lift, mat_mul, milgram_holds, pair_rational,
                     smith_normal_form_reference, transpose)


@st.composite
def square_int_matrices(draw, max_rank=4, bound=6):
    rank = draw(st.integers(1, max_rank))
    return [[draw(st.integers(-bound, bound)) for _ in range(rank)]
            for _ in range(rank)]


@given(square_int_matrices())
def test_determinant_invariant_under_transpose(m):
    assert bareiss_det(m) == bareiss_det(transpose(m))


@given(square_int_matrices(max_rank=5), st.data())
def test_vector_family_kernels_match_the_matrix_oracle(gram, data):
    # u^T G v for every square G, so the Gram need not be symmetric; the
    # family may be empty
    n = len(gram)
    family = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n,
                                         max_size=n), max_size=4))
    assert gram_of(gram, family) == mat_mul(mat_mul(family, gram),
                                            transpose(family))
    for coeff in (st.integers(-6, 6),
                  st.fractions(-3, 3, max_denominator=4)):
        c = data.draw(st.lists(coeff, min_size=len(family),
                               max_size=len(family)))
        assert list(combine(c, family)) == mat_mul([c], family)[0]


@st.composite
def snf_inputs(draw):
    """Square or rectangular integer matrices: random, rank-deficient (the
    last row a combination of the others), zero, or diagonal (which needs
    the divisibility fix-up whenever one entry does not divide the next)."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("random", "rank-deficient", "zero", "diagonal")))
    if kind in ("zero", "diagonal"):
        return [[draw(st.integers(0, 12)) if i == j and kind == "diagonal" else 0
                 for j in range(cols)] for i in range(rows)]
    a = [[draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    if kind == "rank-deficient":
        coeffs = [draw(st.integers(-3, 3)) for _ in range(rows - 1)]
        a[-1] = [sum(c * row[j] for c, row in zip(coeffs, a)) for j in range(cols)]
    return a


@settings(deadline=None, max_examples=300)
@given(snf_inputs())
def test_smith_normal_form_matches_the_reference(a):
    d, u, v = smith_normal_form(a)
    assert (d, u, v) == smith_normal_form_reference(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(bareiss_det(u)) == abs(bareiss_det(v)) == 1


@given(square_int_matrices(max_rank=3, bound=4))
def test_snf_diagonal_chain_and_determinant(m):
    assume(bareiss_det(m) != 0)
    d, _, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(len(m))]
    prod = 1
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    for d in diag:
        assert d > 0
        prod *= d
    assert prod == abs(bareiss_det(m))


# blocks of U, U(2) and <+-k> with their signatures; U and U(2) have a zero
# diagonal, so eliminating them needs the congruence fallback
BLOCKS = [([[0, 1], [1, 0]], (1, 1)), ([[0, 2], [2, 0]], (1, 1))] + [
    ([[s * k]], (1, 0) if s > 0 else (0, 1)) for k in (1, 2, 3) for s in (1, -1)]


def _block_sum(blocks):
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            gram[at + i][at:at + len(b)] = row
        at += len(b)
    return gram


def _twisted(draw, gram):
    """P^T gram P for a random unimodular P: row negations and additions."""
    n = len(gram)
    p = identity(n)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            p[i] = [-x for x in p[i]]
        else:
            c = draw(st.integers(-2, 2))
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    return mat_mul(mat_mul(transpose(p), gram), p)


@st.composite
def congruent_grams(draw):
    """(B, P^T B P, signature of B) for a block sum B and a unimodular P."""
    blocks = draw(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=4))
    gram = _block_sum([b for b, _ in blocks])
    signature = tuple(map(sum, zip(*(s for _, s in blocks))))
    return gram, _twisted(draw, gram), signature


@settings(deadline=None)
@given(congruent_grams(), st.data())
def test_elimination_kernel_on_congruent_grams(case, data):
    gram, g, signature = case
    n = len(g)
    assert tuple(signature_of_gram(bareiss(g, symmetric=True))) \
        == tuple(signature_of_gram(bareiss(gram, symmetric=True))) \
        == signature
    assert bareiss_det(g) == bareiss_det(gram)
    assert mat_mul(frac_inverse(g), g) == identity(n)
    b = [Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 4)))
         for _ in range(n)]
    x = solve_exact(g, b)
    assert [sum(a * y for a, y in zip(row, x)) for row in g] == b
    # k independent rows of g and integer combinations of them span rank k
    k = data.draw(st.integers(1, n))
    combos = [[data.draw(st.integers(-3, 3)) for _ in range(k)]
              for _ in range(data.draw(st.integers(0, 3)))]
    product = g[:k] + mat_mul(combos, g[:k]) if combos else g[:k]
    assert rational_rank(product) == k
    assert rational_rank(transpose(product)) == k
    assert rational_rank([[Fraction(x, 3) for x in row] for row in product]) == k


@st.composite
def even_grams(draw):
    """Symmetric integer Grams of rank 1-5 with even diagonal, entries at most
    8 in size, nonzero determinant of size at most 2^8."""
    n = draw(st.integers(1, 5))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-4, 4))
    assume(0 < abs(bareiss_det(gram)) <= 2 ** 8)
    return gram


@settings(deadline=None, max_examples=60)
@given(even_grams())
def test_milgram_formula_on_random_even_grams(gram):
    # the Gauss sum of q, |A_L| and the signature, read from three layers
    assert milgram_holds(IntegralLattice(gram))


@st.composite
def even_lattices(draw):
    """A_n, D_n, U(k) and <2k> blocks (signs mixed), summed while the group
    order stays at most 2^12, then twisted by a random unimodular P."""
    names = st.one_of(st.builds("A{}".format, st.integers(1, 6)),
                      st.builds("D{}".format, st.integers(4, 6)),
                      st.builds("U({})".format, st.integers(1, 4)),
                      st.builds("<{}>".format, st.integers(1, 6).map(lambda k: 2 * k)))
    blocks, order = [], 1
    for name in draw(st.lists(names, min_size=1, max_size=4)):
        sign = draw(st.sampled_from([1, -1]))
        lat = catalog.standard(f"{name}({sign})")
        if order * abs(lat.det) <= 2 ** 12:
            blocks.append(lat.gram)
            order *= abs(lat.det)
    return IntegralLattice(_twisted(draw, _block_sum(blocks)))


@settings(deadline=None, max_examples=40)
@given(even_lattices(), st.data())
def test_integer_forms_match_a_fraction_oracle(L, data):
    form = discriminant_form(L)
    # q(e) = lift(e)^T G lift(e) mod 2, computed on Fractions element by
    # element; each lift is built once
    lifts = {e: lift(form, e) for e in form.elements()}
    oracle = {e: pair_rational(L, y, y) % 2 for e, y in lifts.items()}
    assert form.value_multiset() == tuple(sorted(oracle.values()))
    for e, value in oracle.items():
        assert form.q(e) == value
        assert form.class_of_rational(lifts[e]) == e
    for m in (2, 3):
        killed = Counter(v for e, v in oracle.items()
                         if all(m * c % d == 0 for c, d in zip(e, form.factors)))
        assert _torsion_q_multiset(form, m) == dict(killed)
    e, f = (data.draw(st.sampled_from(sorted(oracle))) for _ in range(2))
    assert form.bilinear(e, f) == pair_rational(L, lifts[e], lifts[f]) % 1
    # adding e_i / s, s above every entry of Gram column i, leaves the dual
    i = data.draw(st.integers(0, L.rank - 1))
    s = 1 + max(abs(row[i]) for row in L.gram)
    off = [x + Fraction(int(j == i), s) for j, x in enumerate(lifts[e])]
    with pytest.raises(ValueError, match="dual"):
        form.class_of_rational(off)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(entries)
    return gram


@settings(deadline=None)
@given(symmetric_matrices())
def test_lattice_det_is_the_last_symmetric_pivot(gram):
    # the lattice reads det off its congruence elimination of the reversed
    # Gram; it must agree with plain row-reduction Bareiss
    det = bareiss_det(gram)
    if det == 0:
        with pytest.raises(DegenerateLattice):
            IntegralLattice(gram)
    else:
        assert IntegralLattice(gram).det == det


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_direct_sum_determinant_multiplies(seed_a, seed_b):
    a = random_positive_definite(random.Random(seed_a), max_rank=3)
    b = random_positive_definite(random.Random(seed_b), max_rank=3)
    assert direct_sum(a, b).det == a.det * b.det


@given(st.integers(0, 10 ** 6))
def test_doubling_makes_even(seed):
    lat = random_positive_definite(random.Random(seed), max_rank=4)
    assert rescale(lat, 2).is_even


@given(st.integers(0, 10 ** 6))
def test_discriminant_order_is_absolute_determinant(seed):
    lat = random_even_lattice(random.Random(seed))
    assert discriminant_group(lat).order == abs(lat.det)


@given(st.integers(0, 5000))
def test_four_squares_always_resums(n):
    x, y, z, u = four_squares(n)
    assert x * x + y * y + z * z + u * u == n


@given(st.integers(2, 5000))
def test_ramanujan_rep_resums_off_the_exceptions(n):
    assume(n != 17)
    x, y, z, u = ramanujan_rep(n)
    assert 2 * x * x + 2 * y * y + 2 * z * z + 3 * u * u == n


@given(st.integers(1, 6))
def test_hyperbolic_two_elementary_halves_to_odd(k):
    # full-length delta-1 lattices stay integral but turn odd when halved
    lat = direct_sum(catalog.standard("<2>"),
                     *[catalog.standard("<-2>") for _ in range(k)])
    inv = two_elementary_invariants(lat)
    assert inv.a == lat.rank
    assert inv.delta == 1
    half = rescale(lat, Fraction(1, 2))
    assert basic_invariants(half).parity == "odd"


def test_doubled_odd_lattices_have_half_integral_class():
    # every odd catalog lattice, once doubled, shows its oddness in the
    # discriminant form: some order-2 class has non-integral q
    checked = 0
    for builder in catalog.CATALOG.values():
        lat = builder()
        if basic_invariants(lat).parity != "odd":
            continue
        form = discriminant_form(rescale(lat, 2))
        factors = form.factors
        hits = 0
        for i, f in enumerate(factors):
            if f % 2 == 0:
                cls = tuple((f // 2) if j == i else 0
                            for j in range(len(factors)))
                if form.q(cls).denominator != 1:
                    hits += 1
        assert hits > 0, entry.name
        checked += 1
    assert checked == 8  # N and the seven scroll lattices


@settings(deadline=None)
@given(st.integers(0, 10 ** 6))
def test_shortvec_battery_single(seed):
    assert shortvec_trials(random.Random(seed), 1) == 1


def test_battery_smoke():
    rng = random.Random(99)
    assert shortvec_trials(rng, 50) == 50
    assert disc_lift_trials(rng, 50) == 50
    assert glue_identity_trials(rng, 50) >= 50


def test_battery_full_size_reaches_thousand():
    counts = run_battery(seed=1, shortvec=10, disc=10, glue=10)
    assert set(counts) == {"shortvec_vs_box_oracle",
                           "discriminant_lift_independence",
                           "overlattice_det_identity"}
