from fractions import Fraction

import pytest

from cubiclat import catalog, exact
from cubiclat.checks import run_checks
from cubiclat.core import (BadSplitting, IntegralLattice, NotIsotropic,
                           basic_invariants, discriminant_form,
                           discriminant_bilinear_form)
from cubiclat.glue import (glue_group, glue_subgroup, isotropic_elements,
                           overlattice_from_glue)
from cubiclat.shortvec import identify_root_lattice, root_count
from oracles import enumerate_even_overlattices, lift, to_ambient

D8 = catalog.standard("D8")


def _spinor_lift():
    """Dual lift of one of the two isotropic (spinor) classes of A_{D8}."""
    form = discriminant_form(D8)
    iso = isotropic_elements(form)
    return lift(form, iso[0])


def test_glue_subgroup_validates_isotropy():
    # glue_subgroup counts the subgroup of A2's order-3 class untested; the
    # glued Gram rejects it
    a2 = IntegralLattice([[2, -1], [-1, 2]])
    lifts = [(Fraction(2, 3), Fraction(1, 3))]
    assert glue_subgroup(discriminant_form(a2), lifts) == 3
    with pytest.raises(NotIsotropic):
        overlattice_from_glue(a2, lifts)


@pytest.mark.parametrize("name, q, message", [
    ("D8", 1, "came out odd"),
    ("A2", Fraction(2, 3), "do not pair integrally"),
], ids=["D8 vector class", "A2 order-3 class"])
def test_overlattice_from_glue_rejects_a_non_isotropic_class(name, q, message):
    # the glued Gram alone rejects the D8 vector class (the odd Z^8) and the
    # order-3 class of A2 (norm 2/3)
    L = catalog.standard(name)
    form = discriminant_form(L)
    e = next(e for e in form.elements() if form.q(e) == q)
    with pytest.raises(NotIsotropic, match=message):
        overlattice_from_glue(L, [lift(form, e)])


def test_glued_gram_decides_isotropy_exactly():
    """A nonzero class glues exactly when isotropic_elements lists it: by q
    on the even forms, by b on the odd <1> + <4> + A1."""
    names = ("D4", "D8", "A2", "A3", "A7", "U(2)", "E6(2)", "<4>", "<8>",
             "<-12>")
    lattices = [catalog.standard(name) for name in names]
    lattices.append(IntegralLattice([[1, 0, 0], [0, 4, 0], [0, 0, 2]]))
    classes = glued = 0
    for L in lattices:
        form = (discriminant_form(L) if L.is_even
                else discriminant_bilinear_form(L))
        iso = set(isotropic_elements(form))
        for e in form.elements():
            if not any(e):
                continue
            classes += 1
            try:
                overlattice_from_glue(L, [lift(form, e)])
            except NotIsotropic:
                assert e not in iso, (L.gram, e)
            else:
                assert e in iso, (L.gram, e)
                glued += 1
    assert (classes, glued) == (240, 34)


def test_glue_subgroup_requires_dual_vector():
    with pytest.raises(ValueError, match="dual"):
        glue_subgroup(discriminant_form(D8), [(Fraction(1, 3),) * 8])


@pytest.mark.parametrize("length", [7, 9])
def test_overlattice_from_glue_rejects_a_lift_of_the_wrong_length(length):
    with pytest.raises(ValueError, match=f"vector has {length} coordinates, not 8"):
        overlattice_from_glue(D8, [(Fraction(1, 2),) * length])


def test_trivial_glue():
    ext = overlattice_from_glue(D8, [])
    assert ext.index == 1
    assert ext.lattice.gram == D8.gram


def test_d8_glues_to_e8():
    """A spinor glue class extends D8 to the unimodular E8."""
    ext = overlattice_from_glue(D8, [_spinor_lift()])
    assert ext.index == 2
    assert ext.lattice.det == 1
    assert ext.lattice.is_even
    assert identify_root_lattice(ext.lattice) == ["E8"]
    assert root_count(ext.lattice, 2) == 240


def test_overlattice_det_index_identity():
    ext = overlattice_from_glue(D8, [_spinor_lift()])
    assert ext.lattice.det * ext.index ** 2 == D8.det


def test_overlattice_coordinate_round_trip():
    lift = _spinor_lift()
    ext = overlattice_from_glue(D8, [lift])
    for v in [(1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 2, 0)]:
        amb = to_ambient(ext, v)
        assert ext.from_ambient(amb) == v
    # the glue vector itself is a point of the overlattice
    coords = ext.from_ambient(lift)
    assert to_ambient(ext, coords) == lift


def test_isotropic_elements_d8():
    iso = isotropic_elements(discriminant_form(D8))
    assert len(iso) == 2  # the two spinor classes; the vector class has q = 1
    # on an odd lattice the test is b(x, x) = 0: A = Z/4 with b = 1/4
    odd = IntegralLattice([[1, 0], [0, 4]])
    assert isotropic_elements(discriminant_bilinear_form(odd)) == [(2,)]


def test_glue_group_of_split_hyperbolic():
    u = IntegralLattice([[0, 1], [1, 0]])
    assert glue_group(u, [(1, 1)], [(1, -1)]) == (2,)


def test_glue_group_rejects_bad_splittings():
    u = IntegralLattice([[0, 1], [1, 0]])
    with pytest.raises(BadSplitting, match="orthogonal"):
        glue_group(u, [(1, 0)], [(1, 1)])
    with pytest.raises(BadSplitting, match="rank"):
        glue_group(u, [(1, 1)], [])


def test_glue_group_reads_the_rank_off_its_smith_form(monkeypatch):
    def no_rank(a):
        raise RuntimeError("rational_rank called")

    monkeypatch.setattr(exact, "rational_rank", no_rank)
    u = IntegralLattice([[0, 1], [1, 0]])
    assert glue_group(u, [(1, 1)], [(1, -1)]) == (2,)
    for s1, s2, rank in (([(1, 1)], [], 1), ([], [], 0),
                         ([(1, 0)], [(2, 0)], 1)):
        with pytest.raises(BadSplitting,
                           match=f"combined rank {rank}, need 2"):
            glue_group(u, s1, s2)
    assert run_checks(["M.glue"])[0].ok


def test_enumerate_even_overlattices_d8():
    found = enumerate_even_overlattices(D8, 2)
    assert len(found) == 3  # trivial and the two spinor glues
    orders = sorted(order for order, _ in found)
    assert orders == [1, 2, 2]
    dets = sorted(ext.lattice.det for _, ext in found)
    assert dets == [1, 1, 4]


def test_kappa_tilde_glue_reaches_m():
    kt = catalog.kappa_tilde()
    ext = overlattice_from_glue(kt, [catalog.kappa_glue_lift()])
    assert ext.index == 4
    assert ext.lattice.det == catalog.prim_lattice_M().det == 3072


# another order-4 isotropic class of A_Ktilde, on Ktilde's basis; its
# overlattice has M's invariants and q-value multiset but is not M
LOOKALIKE_LIFT = ("1/4", "1/2", "0", "1/2", "0", "1/2", "0", "1/2", "1/4",
                  "3/4")


def test_m_glue_fails_on_a_lookalike_glue_class(monkeypatch):
    lookalike = tuple(map(Fraction, LOOKALIKE_LIFT))
    kt, m = catalog.kappa_tilde(), catalog.prim_lattice_M()
    ext = overlattice_from_glue(kt, [lookalike])
    assert ext.index == 4
    assert basic_invariants(ext.lattice) == basic_invariants(m)
    assert (discriminant_form(ext.lattice).value_multiset()
            == discriminant_form(m).value_multiset())
    monkeypatch.setattr(catalog, "kappa_glue_lift", lambda: lookalike)
    rep = run_checks(["M.glue"])[0]
    assert rep.status == "fail"
    assert rep.details["invariants_match"] is False
    assert rep.details["q_value_multiset_match"] is False


def test_m_glue_fails_on_a_lookalike_glue_class_under_optimize(
        run_optimized):
    # the isometry check must not be an assert, which python -O strips
    script = (
        "from fractions import Fraction\n"
        "from cubiclat import catalog\n"
        "from cubiclat.checks import run_checks\n"
        f"lift = tuple(map(Fraction, {LOOKALIKE_LIFT!r}))\n"
        "catalog.kappa_glue_lift = lambda: lift\n"
        "rep = run_checks(['M.glue'])[0]\n"
        "print(rep.status, rep.details['invariants_match'],\n"
        "      rep.details['q_value_multiset_match'])\n")
    assert run_optimized(script).split() == ["fail", "False", "False"]
