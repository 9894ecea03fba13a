import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest

from cubiclat import catalog, core, exact
from cubiclat.cli import lattice_from_json
from cubiclat.core import (
    DegenerateLattice,
    DependentSpan,
    FiniteQuadraticForm,
    IntegralLattice,
    NotIntegral,
    ParityError,
    Signature,
    TooLarge,
    ZeroVector,
    basic_invariants,
    direct_sum,
    discriminant_bilinear_form,
    discriminant_form,
    discriminant_group,
    divisibility,
    orthogonal_complement,
    rescale,
    saturation,
)
from cubiclat.glue import glue_group
from oracles import (_closure, lattice_json, lift, milgram_holds, pair_rational,
                     saturation_reference)
from property_battery import random_positive_definite

A2 = IntegralLattice([[2, -1], [-1, 2]], name="A2")
U = IntegralLattice([[0, 1], [1, 0]], name="U")


def test_constructor_validation():
    with pytest.raises(ValueError, match="not symmetric"):
        IntegralLattice([[1, 2], [3, 1]])
    with pytest.raises(ValueError, match="length"):
        IntegralLattice([[1, 2], [3]])
    with pytest.raises(DegenerateLattice):
        IntegralLattice([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="labels"):
        IntegralLattice([[1, 0], [0, 1]], labels=["a"])
    with pytest.raises(ValueError, match="distinct"):
        IntegralLattice([[1, 0], [0, 1]], labels=["a", "a"])


def test_pairing_and_norm():
    assert A2.norm((1, 0)) == 2
    assert A2.pair((1, 0), (0, 1)) == -1
    assert A2.norm((1, 1)) == 2
    assert pair_rational(A2, (Fraction(1, 3), Fraction(2, 3)),
                         (Fraction(1, 3), Fraction(2, 3))) == Fraction(2, 3)
    assert A2.dual_pairings((1, 0)) == (2, -1)


def test_mis_sized_vectors_are_rejected():
    # a vector of the wrong length is an error, not silently truncated
    with pytest.raises(ValueError, match="1 coordinates, not 2"):
        A2.norm((1,))
    with pytest.raises(ValueError, match="3 coordinates, not 2"):
        A2.pair((1, 0, 7), (1, 0, 9))
    with pytest.raises(ValueError, match="1 coordinates, not 2"):
        A2.dual_pairings((1,))
    with pytest.raises(ValueError, match="3 coordinates, not 2"):
        pair_rational(A2, (Fraction(1), 0, 5), (Fraction(1, 2), 0, 7))
    with pytest.raises(ValueError, match="3 coordinates, not 2"):
        glue_group(U, [(1, 1, 5)], [(1, -1, 3)])
    # with one span empty no pairing is taken, so the length is checked first
    with pytest.raises(ValueError, match="3 coordinates, not 2"):
        glue_group(U, [], [(1, 1, 5), (1, -1, 3)])
    with pytest.raises(ValueError, match="3 coordinates, not 2"):
        glue_group(U, [(1, 1, 5), (1, -1, 3)], [])


def test_non_integral_coordinates_are_rejected():
    # a fractional coordinate is an error, not silently truncated
    with pytest.raises(ValueError, match="non-integral"):
        A2.pair((Fraction(1, 2), 0), (1, 0))
    with pytest.raises(ValueError, match="non-integral"):
        A2.norm((1.9, 0))
    with pytest.raises(ValueError, match="non-integral"):
        A2.dual_pairings((0, Fraction(-1, 3)))
    with pytest.raises(ValueError, match="non-integral"):
        glue_group(U, [(1, 1)], [(Fraction(1, 2), Fraction(-1, 2))])
    # integral Fractions and floats are integer coordinates
    assert A2.pair((Fraction(2, 1), 0), (1, 0)) == 4
    assert A2.norm((1.0, 1)) == 2
    assert A2.dual_pairings((Fraction(3), 0)) == (6, -3)
    assert glue_group(U, [(Fraction(1), 1)], [(1, -1)]) == (2,)


def test_pair_rational_matches_fraction_sum():
    rng = random.Random(7)
    L = IntegralLattice([[4, -1, 2], [-1, 3, 0], [2, 0, -5]])
    for _ in range(50):
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3)]
        v = [rng.choice([Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                         rng.randint(-9, 9)]) for _ in range(3)]
        want = sum(u[i] * L.gram[i][j] * Fraction(v[j])
                   for i in range(3) for j in range(3))
        got = pair_rational(L, u, v)
        assert isinstance(got, Fraction) and got == want


def test_parity_and_signature():
    assert A2.is_even and A2.parity == "even"
    assert U.is_even
    odd = IntegralLattice([[1, 0], [0, -1]])
    assert not odd.is_even and odd.parity == "odd"
    assert A2.signature == Signature(2, 0)
    assert U.signature == Signature(1, 1)
    assert odd.signature == Signature(1, 1)
    assert A2.is_positive_definite()
    assert not U.is_positive_definite()
    assert rescale(A2, -1).signature == (0, 2)


def test_inverse_gram():
    assert A2.inverse_gram == [[Fraction(2, 3), Fraction(1, 3)],
                               [Fraction(1, 3), Fraction(2, 3)]]


def test_basic_invariants():
    inv = basic_invariants(A2)
    assert inv.determinant == 3
    assert tuple(inv.signature) == (2, 0)
    assert inv.parity == "even"


def test_discriminant_group_small():
    g = discriminant_group(A2)
    assert g.factors == (3,)
    assert g.order == 3
    assert g.class_of_rational(lift(g, (1,))) == (1,)
    assert g.class_of_rational((0, 0)) == (0,)
    with pytest.raises(ValueError, match="dual"):
        g.class_of_rational((Fraction(1, 2), 0))


def test_class_of_dual_coords_needs_one_coordinate_per_basis_vector():
    # a plain zip against u's rows would read both as the class of e1*
    group = discriminant_group(catalog.plane_lattice_N())
    e1 = (1,) + (0,) * 10
    assert any(group.class_of_dual_coords(e1))
    for z in ((1,), e1 + (0, 0)):
        with pytest.raises(ValueError, match=f"{len(z)} coordinates, not 11"):
            group.class_of_dual_coords(z)


def test_discriminant_group_unimodular_and_2elem():
    assert discriminant_group(U).factors == ()
    d4 = IntegralLattice([[2, 0, -1, 0], [0, 2, -1, 0],
                          [-1, -1, 2, -1], [0, 0, -1, 2]])
    assert discriminant_group(d4).factors == (2, 2)


def test_unimodular_lattices_get_the_trivial_group_without_a_smith_form(
        monkeypatch):
    lattices = [IntegralLattice(catalog.resolve(name).gram)
                for name in ("K3", "E8", "U")]
    lattices.append(direct_sum(IntegralLattice(U.gram),
                               catalog.standard("E8(-1)")))
    odd = IntegralLattice([[1, 0], [0, -1]])

    def smith_normal_form(*args, **kwargs):
        raise AssertionError("Smith form of a unimodular lattice")

    monkeypatch.setattr(exact, "smith_normal_form", smith_normal_form)
    for L in lattices + [odd]:
        group = discriminant_group(L)
        assert group.factors == () and group.order == 1
        assert group.class_of_rational([1] * L.rank) == ()
        with pytest.raises(ValueError, match="dual"):
            group.class_of_rational([Fraction(1, 2)] + [0] * (L.rank - 1))
    for L in lattices:
        assert discriminant_form(L).value_multiset() == (0,)


def test_form_coefficients_must_match_the_factor_count():
    d4 = IntegralLattice([[2, 0, -1, 0], [0, 2, -1, 0],
                          [-1, -1, 2, -1], [0, 0, -1, 2]])
    form = discriminant_form(d4)
    assert form.factors == (2, 2)
    with pytest.raises(ValueError, match="3 coordinates, not 2"):
        form.bilinear((1, 0, 1), (0, 1, 1))
    with pytest.raises(ValueError, match="1 coordinates, not 2"):
        form.bilinear((1, 0), (1,))
    with pytest.raises(ValueError, match="1 coordinates, not 2"):
        form.q((1,))
    with pytest.raises(ValueError, match="3 coordinates, not 2"):
        form.q((1, 0, 5))
    assert form.q((1, 0)) == 1 and form.bilinear((1, 0), (0, 1)) == Fraction(1, 2)
    # a short list would count the first generators only, a long one would
    # run off the pairing matrix
    m_form = discriminant_form(catalog.resolve("M"))
    for n in (1, 12):
        with pytest.raises(ValueError, match=f"^{n} coefficient lists, not 10$"):
            m_form.value_counts([range(2)] * n)


@pytest.mark.parametrize("build, factors", [
    # generators that pair with each other: merged states must carry the
    # later linear terms with the partial value
    (lambda: catalog.resolve("M"), (2,) * 9 + (6,)),
    # one generator: nothing merges, the last level is the whole count
    (lambda: IntegralLattice([[2 ** 12]]), (2 ** 12,)),
    # mixed orders: states of unequal weight reach the last level
    (lambda: IntegralLattice([[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 8, 0],
                              [0, 0, 0, 6]]), (2, 2, 4, 24)),
    # odd factors
    (lambda: direct_sum(A2, A2, A2, A2), (3, 3, 3, 3)),
], ids=["M", "cyclic", "mixed", "A2^4"])
def test_value_counts_agree_with_q_on_each_element(build, factors):
    # q is one Gram product, read on each element of the torsion choices
    form = discriminant_form(build())
    assert form.factors == factors
    for m in (2, 3, 6):
        choices = [range(0, d, d // gcd(m, d)) for d in factors]
        counts = Counter(form.q(e) for e in itertools.product(*choices))
        assert form.value_counts(choices) == dict(sorted(counts.items()))


def test_one_smith_form_serves_the_group_and_both_forms(monkeypatch):
    calls = []
    smith_normal_form = exact.smith_normal_form
    monkeypatch.setattr(exact, "smith_normal_form",
                        lambda *a: calls.append(1) or smith_normal_form(*a))
    d4 = IntegralLattice([[2, 0, -1, 0], [0, 2, -1, 0],
                          [-1, -1, 2, -1], [0, 0, -1, 2]])
    assert discriminant_group(d4).factors == (2, 2)
    assert discriminant_form(d4).value_multiset() == (0, 1, 1, 1)
    assert discriminant_bilinear_form(d4).bilinear(
        (1, 0), (0, 1)) == Fraction(1, 2)
    assert len(calls) == 1
    assert (discriminant_group(d4) is discriminant_form(d4)
            is discriminant_bilinear_form(d4))


def test_discriminant_form_values():
    q = discriminant_form(A2)
    assert q.q((0,)) == 0
    assert q.q((1,)) == Fraction(2, 3)
    assert sorted(q.value_multiset()) == [0, Fraction(2, 3), Fraction(2, 3)]
    with pytest.raises(ParityError):
        discriminant_form(IntegralLattice([[1]]))


def test_value_multiset_guard_comes_before_any_value(monkeypatch):
    form = discriminant_form(direct_sum(A2, A2, IntegralLattice([[4]])))
    order = form.order
    assert order == 36
    monkeypatch.setattr(core, "ENUMERATION_GUARD", order)
    expected = form.value_multiset()
    assert len(expected) == order

    def kernel_called(self, choices):
        raise AssertionError("q evaluated before the guard")

    with monkeypatch.context() as m:
        m.setattr(FiniteQuadraticForm, "_scaled_values", kernel_called)
        m.setattr(core, "ENUMERATION_GUARD", order - 1)
        with pytest.raises(TooLarge, match="36 elements"):
            form.value_multiset()
    assert form.value_multiset() == expected


def test_subgroup_order_matches_the_closure_oracle():
    # the Hermite index of the classes and the relations d_i e_i counts the
    # subgroup they generate, as the breadth-first closure lists it
    pieces = [catalog.standard(name) for name in (
        "D4", "D8", "A2", "A3", "A7", "U(2)", "E6(2)", "<4>", "<8>", "<-12>",
        "E8(2)", "A1", "<24>", "D9(2)", "<6>")]
    rng = random.Random(1)
    drawn = 0
    for _ in range(400):
        parts = rng.choices(pieces, k=rng.randint(1, 3))
        if abs(prod(L.det for L in parts)) > 2 ** 14:
            continue
        form = direct_sum(*parts).disc_form
        classes = [tuple(rng.randrange(d) for d in form.factors)
                   for _ in range(rng.randint(0, 3))]
        assert form.subgroup_order(classes) == len(_closure(classes, form.factors))
        drawn += 1
    assert drawn > 300
    # (Z/2)^20, where the closure lists 2^20 elements
    e8_2, u_2 = catalog.standard("E8(2)"), catalog.standard("U(2)")
    form = direct_sum(e8_2, e8_2, u_2, u_2).disc_form
    units = [tuple(int(i == j) for i in range(20)) for j in range(20)]
    assert form.subgroup_order(units) == 2 ** 20
    with pytest.raises(ValueError, match="3 coordinates, not 2"):
        discriminant_form(catalog.standard("D4")).subgroup_order([(1, 0, 1)])


def test_discriminant_bilinear_form():
    b = discriminant_bilinear_form(IntegralLattice([[4]]))
    assert b.bilinear((1,), (1,)) == Fraction(1, 4)
    assert b.bilinear_matrix() == [[Fraction(1, 4)]]


def test_odd_lattice_form_has_b_but_no_q():
    odd = IntegralLattice([[1, 0], [0, 4]], labels=["x", "y"])
    form = discriminant_bilinear_form(odd)
    assert form.factors == (4,)
    assert form.bilinear_matrix() == [[Fraction(1, 4)]]
    for read in (lambda: form.q((1,)), form.value_multiset,
                 lambda: form.value_counts([range(4)]),
                 lambda: discriminant_form(odd)):
        with pytest.raises(ParityError, match="basis vector 'x' is odd"):
            read()


def test_milgram_formula_on_the_even_catalog_lattices(monkeypatch):
    # G^2 = |A_L| i^(t+ - t-) ties q's value counts, the Smith-form group and
    # the Bareiss signature, three layers that share no code
    lattices = [catalog.resolve(name) for name in (
        "E8(2)", "E6(2)", "D4", "A2", "E7", "A5", "U(2)", "D9", "E8", "K3",
        "A1", "M", "T", "Ktilde", "NS")]
    # (Z/2)^20, at the enumeration guard
    e8_2, u_2 = catalog.resolve("E8(2)"), catalog.resolve("U(2)")
    lattices.append(direct_sum(e8_2, e8_2, u_2, u_2))
    assert discriminant_group(lattices[-1]).order == core.ENUMERATION_GUARD
    assert all(L.is_even for L in lattices)
    assert all(milgram_holds(L) for L in lattices)
    # control: moving one element's q-value by 1/2 breaks it on every one
    real = FiniteQuadraticForm.value_counts

    def moved(self, choices):
        counts = dict(real(self, choices))
        v = next(iter(counts))
        w = (v + Fraction(1, 2)) % 2
        counts[v] -= 1
        counts[w] = counts.get(w, 0) + 1
        return counts

    monkeypatch.setattr(FiniteQuadraticForm, "value_counts", moved)
    assert not any(milgram_holds(L) for L in lattices)


def test_divisibility():
    assert divisibility(A2, (1, 0)) == 1
    assert divisibility(IntegralLattice([[2]]), (1,)) == 2
    assert divisibility(rescale(A2, 2), (1, 0)) == 2
    with pytest.raises(ZeroVector):
        divisibility(A2, (0, 0))


def test_rescale():
    assert rescale(IntegralLattice([[4]]), Fraction(1, 2)).gram == ((2,),)
    assert rescale(A2, 2).gram == ((4, -2), (-2, 4))
    with pytest.raises(NotIntegral):
        rescale(A2, Fraction(1, 2))


def test_direct_sum():
    s = direct_sum(A2, IntegralLattice([[4]], labels=["d"]))
    assert s.rank == 3
    assert s.gram == ((2, -1, 0), (-1, 2, 0), (0, 0, 4))
    assert s.det == 12
    assert len(set(s.labels)) == 3


def test_orthogonal_complement():
    comp = orthogonal_complement(A2, [(1, 0)])
    assert comp.lattice.gram == ((6,),)
    v = comp.to_ambient((1,))
    assert A2.pair(v, (1, 0)) == 0
    with pytest.raises(DependentSpan):
        orthogonal_complement(A2, [(1, 0), (2, 0)])


def test_orthogonal_complement_reads_the_span_rank_off_its_kernel(
        monkeypatch):
    def no_rank(a):
        raise RuntimeError("rational_rank called")

    monkeypatch.setattr(exact, "rational_rank", no_rank)
    assert orthogonal_complement(A2, [(1, 0)]).lattice.gram == ((6,),)
    assert orthogonal_complement(A2, []).lattice.gram == A2.gram
    assert orthogonal_complement(A2, [(1, 0), (0, 1)]).lattice.rank == 0
    for vs in ([(1, 0), (2, 0)], [(0, 0)], [(1, 0), (0, 1), (1, 1)]):
        with pytest.raises(DependentSpan):
            orthogonal_complement(A2, vs)


def test_saturation():
    z2 = IntegralLattice([[1, 0], [0, 1]])
    sat = saturation(z2, [(2, 4)])
    assert sat.lattice.rank == 1
    assert tuple(sat.basis[0]) in {(1, 2), (-1, -2)}
    with pytest.raises(DependentSpan):
        saturation(z2, [])


def test_saturation_rejects_a_dependent_span():
    z2 = IntegralLattice([[1, 0], [0, 1]])
    with pytest.raises(DependentSpan):
        saturation(z2, [(1, 2), (2, 4)])
    with pytest.raises(DependentSpan):
        saturation(z2, [(1, 0), (0, 1), (1, 1)])
    assert saturation(z2, [(1, 0), (1, 2)]).lattice.det == 1


def test_saturation_matches_the_two_kernel_reference():
    # spans of k <= n + 1 vectors: random ones, integer combinations of them
    # (a saturation index above 1) and ones whose last vector depends on the rest
    rng = random.Random(31)
    outcomes = Counter()
    for _ in range(400):
        L = random_positive_definite(rng, max_rank=8)
        n = L.rank
        k = rng.randint(1, n + 1)
        vs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        shape = rng.randrange(3)
        if shape == 1:
            vs = [core.combine([rng.randint(-3, 3) for _ in vs], vs) for _ in vs]
        elif shape == 2 and k > 1:
            vs[-1] = core.combine([rng.randint(-2, 2) for _ in vs[1:]], vs[:-1])
        try:
            want = saturation_reference(L, vs)
        except DependentSpan:
            with pytest.raises(DependentSpan):
                saturation(L, vs)
            outcomes["dependent"] += 1
            continue
        got = saturation(L, vs)
        assert got.lattice.rank == want.lattice.rank == k
        assert got.lattice.det == want.lattice.det
        # the union spans a rank-k lattice with the same Hermite pivot
        # product as either basis alone, so the two bases span one lattice
        hermites = [exact.hermite_column_basis(bs) for bs in
                    (got.basis, want.basis, got.basis + want.basis)]
        assert len(hermites[2]) == k
        assert len({prod(next(filter(None, b)) for b in h)
                    for h in hermites}) == 1
        raw_det = exact.bareiss_det(core.gram_of(L.gram, vs))
        outcomes["index 1" if raw_det == got.lattice.det else "index > 1"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_saturation_rejects_a_smith_row_its_factor_does_not_divide(monkeypatch):
    # a diagonal that is not u A v: the division check is not an assert
    snf = exact.smith_normal_form

    def doubled(a, **kw):
        d, u, v = snf(a, **kw)
        return [[2 * x for x in row] for row in d], u, v

    monkeypatch.setattr(exact, "smith_normal_form", doubled)
    with pytest.raises(core.LatticeError, match="not divisible"):
        saturation(IntegralLattice([[1, 0], [0, 1]]), [(1, 2)])


def test_json_round_trip():
    text = lattice_json(A2)
    back = lattice_from_json(text)
    assert back.gram == A2.gram
    assert back.name == "A2"
    assert back.labels == A2.labels


@pytest.mark.parametrize("payload, message", [
    ("[1, 2]", "object"),
    ('{"labels": ["a"]}', "gram"),
    ('{"gram": [[1]]}', "labels"),
    ('{"labels": ["a"], "gram": [[1.5]]}', "integers"),
    ('{"labels": ["a"], "gram": [[true]]}', "integers"),
    ('{"labels": 5, "gram": [[1]]}', "labels must be a list of strings"),
    ('{"labels": [1], "gram": [[1]]}', "labels must be a list of strings"),
    ('{"labels": ["a"], "gram": [[1]], "name": 7}', "name must be a string"),
    ('{"labels": [], "gram": []}', "rank 0"),
])
def test_json_rejects_bad_payloads(payload, message):
    with pytest.raises(ValueError, match=message):
        lattice_from_json(payload)


def test_json_rejects_asymmetric_gram():
    with pytest.raises(ValueError, match="not symmetric"):
        lattice_from_json('{"labels": ["a", "b"], "gram": [[1, 2], [3, 1]]}')
