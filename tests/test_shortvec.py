import itertools
from fractions import Fraction
from math import ceil, floor, isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubiclat import catalog, checks, core, exact, shortvec
from cubiclat.core import (IndefiniteLattice, IntegralLattice,
                           NotRootGenerated, TooManyVectors, direct_sum,
                           rescale)
from cubiclat.shortvec import (ade_root_number, enumerate_by_norm,
                               identify_root_lattice, root_count,
                               vectors_of_norm)

A2 = IntegralLattice([[2, -1], [-1, 2]])


def test_enumerate_by_norm_a2():
    slices = enumerate_by_norm(A2, 2)
    assert [s.norm for s in slices] == [2]
    roots = slices[0].vectors
    assert len(roots) == 6
    assert (1, 0) in roots and (-1, 0) in roots and (1, 1) in roots
    assert roots == sorted(roots)
    assert not slices[0].negated


def test_zero_vector_excluded():
    for s in enumerate_by_norm(IntegralLattice([[2]]), 10):
        assert (0,) not in s.vectors


def test_slices_cover_every_norm_value():
    slices = enumerate_by_norm(A2, 8)
    assert [s.norm for s in slices] == [2, 6, 8]
    assert [len(s.vectors) for s in slices] == [6, 6, 6]


def test_coset_enumeration():
    half = (Fraction(1, 2),)
    slices = enumerate_by_norm(IntegralLattice([[2]]), 5, center=half)
    assert [s.norm for s in slices] == [Fraction(1, 2), Fraction(9, 2)]
    assert [len(s.vectors) for s in slices] == [2, 2]
    # the zero offset stays in when a center is given
    zero_centered = enumerate_by_norm(IntegralLattice([[2]]), 0,
                                      center=(Fraction(0),))
    assert zero_centered[0].vectors == [(0,)]


@pytest.mark.parametrize("center", [
    None, (Fraction(1, 2), 0), (Fraction(1, 3), Fraction(1, 3))])
def test_negative_bound_gives_the_empty_list(center):
    for bound in (-1, Fraction(-1, 2)):
        assert enumerate_by_norm(A2, bound, center=center) == []


def test_negative_definite_enumeration():
    slices = enumerate_by_norm(rescale(A2, -1), 2)
    assert slices[0].negated
    assert len(slices[0].vectors) == 6


def test_enumeration_eliminates_once(monkeypatch):
    # definiteness is read off the signature, and the signature and
    # construction's determinant come from the one elimination the walk uses
    grams = [rescale(A2, -1).gram, catalog.standard("E8").gram,
             rescale(catalog.standard("D4"), -1).gram]
    calls = []
    bareiss = exact.bareiss
    monkeypatch.setattr(exact, "bareiss",
                        lambda *a, **k: calls.append(1) or bareiss(*a, **k))
    lattices = [IntegralLattice(g) for g in grams]
    results = [enumerate_by_norm(L, 2)[0] for L in lattices]
    assert len(calls) == len(lattices)
    assert [(sl.negated, len(sl.vectors)) for sl in results] == [
        (True, 6), (False, 240), (True, 24)]


def test_one_elimination_serves_every_walk_and_the_signature(monkeypatch):
    gram = catalog.standard("D4").gram
    calls = []
    bareiss = exact.bareiss
    monkeypatch.setattr(exact, "bareiss",
                        lambda *a, **k: calls.append(1) or bareiss(*a, **k))
    L = IntegralLattice(gram)
    assert L.det == 4
    plain = enumerate_by_norm(L, 2)
    centred = enumerate_by_norm(L, 1, center=(Fraction(1, 2), 0, 0, 0))
    assert L.signature == (4, 0)
    assert len(calls) == 1
    assert [len(sl.vectors) for sl in plain] == [24]
    assert [sl.norm for sl in centred] == [Fraction(1, 2)]


@pytest.mark.parametrize("center", [
    (Fraction(1, 3), Fraction(2, 3), 5),
    (Fraction(1, 3),),
], ids=["long", "short"])
def test_enumerate_by_norm_rejects_a_center_of_the_wrong_length(center):
    with pytest.raises(ValueError, match=f"{len(center)} coordinates, not 2"):
        enumerate_by_norm(A2, 2, center=center)


def test_enumeration_guard_counts_leaves(monkeypatch):
    # E8 up to norm 2 visits 241 leaves: its 240 roots and the zero vector
    e8 = catalog.standard("E8")
    monkeypatch.setattr(shortvec, "ENUMERATION_GUARD", 241)
    assert len(enumerate_by_norm(e8, 2)[0].vectors) == 240
    monkeypatch.setattr(shortvec, "ENUMERATION_GUARD", 240)
    with pytest.raises(TooManyVectors, match="more than 240 vectors"):
        enumerate_by_norm(e8, 2)


def test_enumeration_guard_counts_the_centred_zero_once(monkeypatch):
    # centred on 0, E8 up to norm 2 has the zero vector and its 240 roots
    e8 = catalog.standard("E8")
    center = (Fraction(0),) * 8
    monkeypatch.setattr(shortvec, "ENUMERATION_GUARD", 241)
    slices = enumerate_by_norm(e8, 2, center=center)
    assert [(sl.norm, len(sl.vectors)) for sl in slices] == [(0, 1), (2, 240)]
    assert slices[0].vectors == [(0,) * 8]
    monkeypatch.setattr(shortvec, "ENUMERATION_GUARD", 240)
    with pytest.raises(TooManyVectors, match="more than 240 vectors"):
        enumerate_by_norm(e8, 2, center=center)


@st.composite
def definite_queries(draw):
    """A definite Gram (B^T B or its negation, rank 1-4), a bound, and
    either no center, a rational one, one in (1/2)Z^n (a coset closed under
    negation, which the walk covers one sign at a time) or an integral one
    (whose coset holds the zero vector)."""
    n = draw(st.integers(1, 4))
    b = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(exact.bareiss_det(b) != 0)
    sign = draw(st.sampled_from([1, -1]))
    gram = [[sign * sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    bound = draw(st.integers(0, 6) | st.fractions(0, 6, max_denominator=4))
    halves = st.integers(-4, 4).map(lambda a: Fraction(a, 2))
    center = draw(st.none()
                  | st.tuples(*[st.fractions(-2, 2, max_denominator=6)] * n)
                  | st.tuples(*[halves] * n)
                  | st.tuples(*[st.integers(-2, 2).map(Fraction)] * n))
    return gram, sign, bound, center


def _box_search(gram, sign, bound, center):
    """Every norm slice by brute force over a box that holds all solutions,
    |y_i| <= sqrt(bound * inv(G)_ii) for y = x + center, as (norm, sorted
    vectors) with an integral norm as an int."""
    n = len(gram)
    g = [[sign * x for x in row] for row in gram]
    inv = exact.frac_inverse(g)
    c = center or (0,) * n
    ranges = []
    for i in range(n):
        reach = isqrt(ceil(bound * inv[i][i])) + 1
        ranges.append(range(floor(-c[i] - reach), ceil(-c[i] + reach) + 1))
    assume(prod(len(r) for r in ranges) <= 5000)
    found = {}
    for x in itertools.product(*ranges):
        if center is None and not any(x):
            continue
        y = [a + b for a, b in zip(x, c)]
        norm = sum(y[i] * g[i][j] * y[j] for i in range(n) for j in range(n))
        if norm <= bound:
            found.setdefault(Fraction(norm), []).append(x)
    return [(int(norm) if norm.denominator == 1 else norm, sorted(found[norm]))
            for norm in sorted(found)]


@settings(deadline=None, max_examples=150)
@given(definite_queries())
def test_enumeration_matches_box_search(query):
    # slice by slice: the norm value and its type, the vectors, and negated
    gram, sign, bound, center = query
    expected = [(type(norm), norm, vectors, sign < 0)
                for norm, vectors in _box_search(gram, sign, bound, center)]
    got = enumerate_by_norm(IntegralLattice(gram), bound, center=center)
    assert [(type(sl.norm), sl.norm, sl.vectors, sl.negated)
            for sl in got] == expected


def test_enumeration_rejects_indefinite_pivot_signs():
    # signatures (1, 1) and (1, 2) have both parts nonzero
    with pytest.raises(IndefiniteLattice, match="positive definite"):
        enumerate_by_norm(IntegralLattice([[1, 0], [0, -1]]), 2)
    with pytest.raises(IndefiniteLattice):
        enumerate_by_norm(IntegralLattice([[-2, 1, 0], [1, -2, 0], [0, 0, 1]]), 2)


def test_root_counts_match_ade_formula():
    assert root_count(catalog.standard("E8"), 2) == ade_root_number("E8") == 240
    assert root_count(catalog.standard("D4"), 2) == 24
    assert root_count(catalog.standard("A1"), 2) == 2
    assert ade_root_number("D8") == 112
    assert ade_root_number("E7") == 126


def test_scaled_root_count():
    assert root_count(catalog.standard("E8(2)"), 4) == 240
    assert root_count(catalog.standard("E8(2)"), 2) == 0


def test_identify_simple_types():
    assert identify_root_lattice(A2) == ["A2"]
    assert identify_root_lattice(catalog.standard("D4")) == ["D4"]
    assert identify_root_lattice(catalog.standard("E6")) == ["E6"]


def test_identify_direct_sum():
    s = direct_sum(catalog.standard("D7"), catalog.standard("A1"))
    assert identify_root_lattice(s) == ["A1", "D7"]
    assert root_count(s, 2) == 86


def test_identify_every_ade_sum_of_rank_at_most_8():
    sums = checks._ade_sums(8)
    assert len(sums) == 100
    for labels in sums:
        L = direct_sum(*(catalog.standard(label) for label in labels))
        assert identify_root_lattice(L) == sorted(labels), labels


def test_identify_names_odd_root_systems():
    # the norm-2 vectors of Z^3 are A3 = D3, named A3; those of Z^4 are D4
    for n, labels in ((3, ["A3"]), (4, ["D4"])):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert identify_root_lattice(IntegralLattice(identity)) == labels


def test_ade_root_counts_fix_the_type_within_each_rank():
    # identification reads a component's type off its rank and root count,
    # which is sound only while no two types of one rank share a count
    assert ade_root_number("A3") == ade_root_number("D3") == 12
    for n in range(1, core.MAX_RANK + 1):
        labels = [f"A{n}"] + [f"D{n}"] * (n >= 4) + [f"E{n}"] * (6 <= n <= 8)
        counts = [ade_root_number(label) for label in labels]
        assert len(set(counts)) == len(counts), labels


def test_identify_rejects_non_root_lattices():
    with pytest.raises(NotRootGenerated):
        identify_root_lattice(IntegralLattice([[4]]))
    with pytest.raises(IndefiniteLattice):
        identify_root_lattice(IntegralLattice([[0, 1], [1, 0]]))


def test_identify_handles_changed_basis():
    # E8 presented on a scrambled basis still identifies
    e8 = catalog.standard("E8")
    t = [[1, 0, 0, 0, 0, 0, 0, 0],
         [1, 1, 0, 0, 0, 0, 0, 0],
         [0, 1, 1, 0, 0, 0, 0, 0],
         [0, 0, 0, 1, 0, 0, 0, 0],
         [0, 0, 0, 1, 1, 0, 0, 0],
         [0, 0, 0, 0, 0, 1, 0, 0],
         [0, 0, 0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 0, 1, 1]]
    gram = [[sum(t[i][a] * e8.gram[a][b] * t[j][b]
                 for a in range(8) for b in range(8)) for j in range(8)]
            for i in range(8)]
    assert identify_root_lattice(IntegralLattice(gram)) == ["E8"]


def test_root_count_of_a_negative_definite_lattice_reads_signed_norms():
    # A2(-1) has its six roots at norm -2, none at +2
    assert root_count(catalog.standard("A2(-1)"), -2) == 6


def test_root_count_of_a_negative_definite_lattice_has_no_positive_norms():
    assert root_count(catalog.standard("A2(-1)"), 2) == 0


def test_vectors_of_norm_missing_value():
    assert vectors_of_norm(A2, 4) == []
