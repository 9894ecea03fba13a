"""Tests for the named-lattice catalog and the standard-family parser."""

from fractions import Fraction

import pytest

from cubiclat import catalog, checks, exact
from cubiclat.core import (
    CrossCheckFailed,
    DegenerateLattice,
    NotIntegral,
    TooLarge,
    UnknownLattice,
    basic_invariants,
    discriminant_group,
    divisibility,
    orthogonal_complement,
    rescale,
)
from oracles import (ETA_F, pair_rational, plane_gram_N,
                     plane_inverse_times_two)


def test_registry_invariants():
    expected = {
        "N": (1024, (11, 0), "odd"),
        "M": (3072, (10, 0), "even"),
        "Ktilde": (49152, (10, 0), "even"),
        "T": (1024, (10, 2), "even"),
        "K3": (-1, (3, 19), "even"),
        "NS": (-1024, (1, 9), "even"),
    }
    for name, (det, sig, parity) in expected.items():
        inv = basic_invariants(catalog.resolve(name))
        assert inv.determinant == det, name
        assert tuple(inv.signature) == sig, name
        assert inv.parity == parity, name


def test_scroll_lattice_determinants():
    dets = [catalog.scroll_lattice_K(tau).det for tau in range(7)]
    assert dets == [21, 36, 45, 48, 45, 36, 21]
    for tau in range(7):
        assert catalog.scroll_lattice_K(tau).signature == (3, 0)


def test_scroll_lattice_degenerates_at_tau_seven():
    with pytest.raises(DegenerateLattice):
        catalog.scroll_lattice_K(7)
    inv = basic_invariants(catalog.scroll_lattice_K(8))
    assert inv.determinant == -27
    assert tuple(inv.signature) == (2, 1)


def test_plane_lattice_symbol_classes():
    n = catalog.plane_lattice_N()
    eta = (1,) + (0,) * 10
    p = catalog.p_in_N()
    assert p == (0, 2) + (-1,) * 9
    assert n.norm(p) == 3
    assert n.pair(eta, p) == 1
    # fiber planes meet P in -1 and each other in 1
    f1 = (0, 0, 1) + (0,) * 8
    f2 = (0, 0, 0, 1) + (0,) * 7
    assert n.pair(p, f1) == -1
    assert n.pair(f1, f2) == 1


def test_plane_lattice_matches_the_fraction_product():
    oracle = plane_gram_N(catalog._symbol_pairing())
    assert catalog.plane_lattice_N().gram == tuple(map(tuple, oracle))


def test_plane_lattice_rejects_a_non_integral_pairing(monkeypatch):
    # F_1.F_2 = 2 instead of 1 makes y.y = (84 + 2)/4 = 43/2, the first
    # non-integral entry in row order
    real = catalog._symbol_pairing

    def skewed():
        s = real()
        s[2][3] = s[3][2] = 2
        return s

    monkeypatch.setattr(catalog, "_symbol_pairing", skewed)
    with pytest.raises(NotIntegral,
                       match="^N has the non-integral pairing 43/2$"):
        catalog.plane_lattice_N.__wrapped__()


def test_n_dual_classes_are_the_doubled_inverse_columns():
    # twice the closed form of N^-1 (checked against N's Gram in c01) on
    # eta, F_1..F_9, as integer lists
    x2 = plane_inverse_times_two()
    dual2, independent = catalog.n_dual_classes()
    dg = catalog.plane_lattice_N().disc_form
    assert dual2 == [[row[c] for row in x2] for c in ETA_F]
    assert all(type(c) is int for d in dual2 for c in d)
    assert independent is True
    # the classes read from unit dual coordinates are those of the Fraction
    # columns of N^-1
    n = catalog.plane_lattice_N()
    labels = ["eta"] + [f"F{i}" for i in range(1, 10)]
    assert ([dg.class_of_dual_coords(catalog.n_class(a)) for a in labels]
            == [dg.class_of_rational([row[c] for row in n.inverse_gram])
                for c in ETA_F])


def test_n_dual_classes_reject_a_non_integral_doubled_class(monkeypatch):
    # N(3) has inverse N^-1 / 3, so twice its dual classes are not integral
    n3 = rescale(catalog.plane_lattice_N(), 3)
    monkeypatch.setattr(catalog, "plane_lattice_N", lambda: n3)
    with pytest.raises(NotIntegral, match="not integral"):
        catalog.n_dual_classes()


def test_n_dual_classes_report_a_dependent_family(monkeypatch):
    # with F_9 read as F_8 the ten classes span only 2^9 elements, so they
    # are not independent and N.disc fails on that alone
    real = catalog.n_class
    monkeypatch.setattr(catalog, "n_class",
                        lambda label: real("F8" if label == "F9" else label))
    assert catalog.n_dual_classes()[1] is False
    report = checks.n_disc_certificate()
    assert report.status == "fail"
    assert report.details["generators_independent"] is False
    assert report.details["diagonal_half"] and report.details["off_diagonal_zero"]


def test_delta_class():
    n = catalog.plane_lattice_N()
    delta = catalog.delta_in_N()
    eta = (1,) + (0,) * 10
    p = catalog.p_in_N()
    assert delta == tuple(e - 3 * c for e, c in zip(eta, p))
    assert n.norm(delta) == 24
    assert n.pair(delta, eta) == 0


def test_delta_in_m_coordinates():
    m = catalog.prim_lattice_M()
    dm = catalog.delta_in_M()
    assert dm == (4, -2, 0, -2, 0, -2, 0, -2, 1, -1)
    assert m.norm(dm) == 24
    assert divisibility(m, dm) == 6
    # same vector under the embedding of M into N
    n = catalog.plane_lattice_N()
    basis = catalog.m_basis_in_N()
    emb = tuple(sum(c * v[i] for c, v in zip(dm, basis)) for i in range(11))
    assert emb == catalog.delta_in_N()


def test_m_basis_spans_complement_of_eta():
    n = catalog.plane_lattice_N()
    basis = catalog.m_basis_in_N()
    eta = (1,) + (0,) * 10
    assert len(basis) == 10
    for v in basis:
        assert n.pair(v, eta) == 0
    regram = [[n.pair(v, w) for w in basis] for v in basis]
    assert regram == [list(row) for row in catalog.prim_lattice_M().gram]
    comp = orthogonal_complement(n, [eta])
    assert basic_invariants(comp.lattice) == basic_invariants(
        catalog.prim_lattice_M())


def test_m_cross_check_raises_on_a_wrong_gram(monkeypatch):
    wrong = [list(row) for row in catalog._GM]
    wrong[0][0] = 8
    monkeypatch.setattr(catalog, "_GM", wrong)
    catalog.prim_lattice_M.cache_clear()
    try:
        with pytest.raises(CrossCheckFailed, match="does not reproduce"):
            catalog.prim_lattice_M()
    finally:
        monkeypatch.undo()
        catalog.prim_lattice_M.cache_clear()
    assert catalog.prim_lattice_M().gram == tuple(map(tuple, catalog._GM))


def test_m_builds_without_an_overlattice(monkeypatch):
    # M's Gram is checked against N alone; the Ktilde glue is M.glue's claim
    def no_hnf(a):
        raise RuntimeError("hermite_column_basis called")

    monkeypatch.setattr(exact, "hermite_column_basis", no_hnf)
    catalog.prim_lattice_M.cache_clear()
    try:
        assert catalog.prim_lattice_M().gram == tuple(map(tuple, catalog._GM))
    finally:
        monkeypatch.undo()
        catalog.prim_lattice_M.cache_clear()


def test_kappa_tilde_and_glue_lift():
    kt = catalog.kappa_tilde()
    assert kt.det == 16 * catalog.prim_lattice_M().det
    lift = catalog.kappa_glue_lift()
    assert lift[0] == Fraction(1, 4)
    # an order-4 class: 4*lift is integral, 2*lift is not
    assert all((4 * c).denominator == 1 for c in lift)
    assert any((2 * c).denominator != 1 for c in lift)
    # isotropic for the glue construction: the norm is an even integer
    assert pair_rational(kt, lift, lift) == 6


def test_discriminant_group_shapes():
    assert discriminant_group(catalog.plane_lattice_N()).factors == (2,) * 10
    assert discriminant_group(catalog.prim_lattice_M()).factors == (2,) * 9 + (6,)
    assert discriminant_group(catalog.transcendental_T()).factors == (2,) * 10
    assert discriminant_group(catalog.k3_lattice()).factors == ()


def test_eckardt_lattice():
    inv = basic_invariants(catalog.eckardt_E6_2())
    assert inv.determinant == 192
    assert tuple(inv.signature) == (6, 0)
    assert inv.parity == "even"


def test_standard_parser():
    assert catalog.standard("A5").det == 6
    assert catalog.standard("D9").det == 4
    assert catalog.standard("E8").det == 1
    assert catalog.standard("U").det == -1
    assert catalog.standard("<24>").gram == ((24,),)
    assert catalog.standard("<-2>").gram == ((-2,),)
    scaled = catalog.standard("E8(2)")
    assert scaled.gram == rescale(catalog.standard("E8"), 2).gram
    assert scaled.det == 2 ** 8


def test_standard_a_family_is_the_tridiagonal_path():
    for n in range(1, 13):
        want = tuple(tuple(2 if i == j else -1 if abs(i - j) == 1 else 0
                           for j in range(n)) for i in range(n))
        assert catalog.standard(f"A{n}").gram == want, n


def test_standard_parser_rejections():
    for bad in ["A0", "D3", "E9", "E5", "Q5", "<x>"]:
        with pytest.raises(UnknownLattice):
            catalog.standard(bad)
    # the family rank cap is inclusive: A128 builds, A129 does not
    assert catalog.standard("A128").rank == 128
    with pytest.raises(TooLarge, match="rank 129 is above the limit 128"):
        catalog.standard("A129")


def test_resolve_falls_back_to_parser():
    assert catalog.resolve("E8(2)").det == 256
    with pytest.raises(UnknownLattice, match="catalog names"):
        catalog.resolve("Zorro")


def test_catalog_entries_documented():
    assert len(catalog.CATALOG) == 13
    assert sorted(catalog.CATALOG) == sorted(
        ["N", "M", "Ktilde", "T", "K3", "NS"] + [f"Ktau{t}" for t in range(7)])


def test_scroll_catalog_closures_bind_distinct_tau():
    dets = [catalog.resolve(f"Ktau{t}").det for t in range(7)]
    assert dets == [21, 36, 45, 48, 45, 36, 21]
