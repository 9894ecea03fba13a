"""Tests for plane enumeration, the admissibility rules, and the geometric
parity certificates."""

from collections import Counter
from fractions import Fraction

import pytest

from cubiclat import catalog, geomchecks
from cubiclat.core import IntegralLattice, LatticeError
from cubiclat.geomchecks import (
    RULES,
    Violation,
    admissibility_scan,
    enumerate_planes,
    no_plane_order3_certificate,
    oadp_certificate,
    pfaffian_certificate,
    saturation_certificate,
    scroll_screen,
    trivial_rationality_certificate,
)
from cubiclat.hassett import _labeling_det
from cubiclat.shortvec import enumerate_by_norm
from oracles import coset_rules_by_class

ETA = (1,) + (0,) * 10


def test_plane_enumeration_in_n():
    n = catalog.plane_lattice_N()
    planes = enumerate_planes(n, ETA)
    assert len(planes) == 19
    assert planes == sorted(set(planes))
    assert catalog.p_in_N() in planes
    for i in range(1, 10):
        assert tuple(int(k == 1 + i) for k in range(11)) in planes
    for p in planes:
        assert n.norm(p) == 3
        assert n.pair(p, ETA) == 1


def test_plane_enumeration_can_be_empty():
    three = IntegralLattice([[3]])
    assert enumerate_planes(three, (1,)) == []


def test_plane_enumeration_validates_eta():
    with pytest.raises(ValueError, match="norm 3"):
        enumerate_planes(IntegralLattice([[1]]), (1,))


def test_plane_enumeration_rejects_a_non_integral_eta():
    n = catalog.plane_lattice_N()
    for first in (Fraction(3, 2), 1.7):
        with pytest.raises(ValueError, match="non-integral"):
            enumerate_planes(n, (first,) + (0,) * 10)


def test_rule_table():
    assert sorted(RULES) == ["R1", "R2", "R3", "R4"]


def test_scan_passes_on_n():
    assert admissibility_scan(catalog.plane_lattice_N(), ETA) is None


def test_scan_walks_an_even_complement_only_to_norm_6(monkeypatch):
    # N's eta-complement is even: R1 cannot fire there, and R3 reads only the
    # norm-6 slice
    bounds = []
    walk = geomchecks.enumerate_by_norm
    monkeypatch.setattr(geomchecks, "enumerate_by_norm", lambda L, bound, **kw:
                        bounds.append((L.rank, bound)) or walk(L, bound, **kw))
    assert admissibility_scan(catalog.plane_lattice_N(), ETA) is None
    assert bounds == [(10, 6), (11, 8)]


def test_scan_flags_odd_complement_norm():
    hit = admissibility_scan(IntegralLattice([[3, 0], [0, 1]]), (1, 0))
    assert hit is not None
    assert hit.rule == "R1"
    assert hit.data == {"norm": 1}


def test_scan_walks_an_odd_complement_to_the_full_bound():
    # the complement <7> is odd but has no odd norm below 7
    hit = admissibility_scan(IntegralLattice([[3, 0], [0, 7]]), (1, 0))
    assert hit is not None
    assert hit.rule == "R1"
    assert hit.data == {"norm": 7}


def test_scan_flags_norm_two_class():
    hit = admissibility_scan(IntegralLattice([[3, 0], [0, 2]]), (1, 0))
    assert hit is not None
    assert hit.rule == "R2"
    assert hit.data == {"norm": 2}


def test_scan_flags_long_root():
    gram = [[3, 0, 0], [0, 6, -3], [0, -3, 6]]
    hit = admissibility_scan(IntegralLattice(gram), (1, 0, 0))
    assert hit is not None
    assert hit.rule == "R3"
    assert hit.data == {"norm": 6, "divisibility": 3}


def test_scan_flags_inadmissible_labeling():
    gram = [[3, 0, 1], [0, 4, -2], [1, -2, 4]]
    hit = admissibility_scan(IntegralLattice(gram), (1, 0, 0))
    assert hit is not None
    assert hit.rule == "R4"
    assert hit.data == {"det": 11}
    assert isinstance(hit, Violation)


def test_saturation_certificate():
    rep = saturation_certificate()
    assert rep.ok
    d = rep.details
    assert d["isotropic_classes"] == 511
    assert d["generators_independent"] is True
    assert d["problems"] == []
    assert d["families"] == {
        "2F": 36, "4F": 126, "6F": 84, "8F": 9, "eta+1F": 9,
        "eta+3F": 84, "eta+5F": 126, "eta+7F": 36, "eta+9F": 1,
    }
    assert d["scan_rules"] == {"R1": 240, "R2": 271}
    assert sum(d["families"].values()) == 511


# one class per support family of A_N: symbol 0 is eta*, symbol i is F_i*
FAMILY_REPRESENTATIVES = {
    "2F": (1, 2), "4F": (1, 2, 3, 4), "6F": (1, 2, 3, 4, 5, 6),
    "8F": (1, 2, 3, 4, 5, 6, 7, 8), "eta+1F": (0, 1), "eta+3F": (0, 1, 2, 3),
    "eta+5F": (0, 1, 2, 3, 4, 5), "eta+7F": (0, 1, 2, 3, 4, 5, 6, 7),
    "eta+9F": tuple(range(10)),
}


def test_coset_rule_is_constant_on_each_support_family():
    # the direct evidence for the orbit argument of sat.511: one glued
    # extension and scan per class gives each class its family
    # representative's rule
    rules = coset_rules_by_class()
    assert len(rules) == 511
    for symbols, (family, rule) in rules.items():
        assert rule == rules[FAMILY_REPRESENTATIVES[family]][1], symbols
    assert Counter(rule for _, rule in rules.values()) == {"R1": 240, "R2": 271}


def test_labeling_det_raises_on_inconsistent_span():
    # in Z^2, eta = (1, 1) has norm 2, so 3 u.u - (eta.u)^2 = 6 for
    # u = (1, -1) is no span determinant: <eta, u> has index 2
    with pytest.raises(LatticeError, match="not divisible"):
        _labeling_det(6, (1, 1), (1, -1))


def test_slice_span_matches_the_pairing_formula():
    # the R4 scan takes span(eta, u) from the slice norm and eta's pairing row
    n = catalog.plane_lattice_N()
    eta_row = n.dual_pairings(ETA)
    seen = 0
    for sl in enumerate_by_norm(n, 8):
        for u in sl.vectors:
            e = sum(p * x for p, x in zip(eta_row, u))
            assert 3 * sl.norm - e * e == 3 * n.norm(u) - n.pair(ETA, u) ** 2
            seen += 1
    assert seen > 0


def test_saturation_certificate_fails_without_coset_vectors(monkeypatch):
    monkeypatch.setattr(geomchecks, "enumerate_by_norm",
                        lambda *args, **kwargs: [])
    rep = saturation_certificate()
    assert not rep.ok
    assert rep.status == "fail"
    assert rep.details["scan_rules"] == {}
    assert len(rep.details["problems"]) == 511
    assert {p["error"] for p in rep.details["problems"]} == {"scan passed"}


def test_saturation_certificate_scans_one_extension_per_family(monkeypatch):
    # the S_9 orbit reduction: one glued extension per support family, each
    # scanned once
    glue = geomchecks.overlattice_from_glue
    scan = geomchecks.admissibility_scan
    glued, scanned = [], []

    def counting_glue(L, lifts):
        ext = glue(L, lifts)
        glued.append(ext.lattice)
        return ext

    def counting_scan(L, eta, norm_bound=12):
        scanned.append(L)
        return scan(L, eta, norm_bound)

    monkeypatch.setattr(geomchecks, "overlattice_from_glue", counting_glue)
    monkeypatch.setattr(geomchecks, "admissibility_scan", counting_scan)
    assert saturation_certificate().ok
    assert len(glued) == 9
    assert len(scanned) == 9
    assert all(any(L is E for E in glued) for L in scanned)


def test_saturation_certificate_fails_on_witness_outside(monkeypatch):
    # shifting each family witness by eta/2 (its doubled form by an odd
    # integer) moves it off N and off lam + N
    family_witness = geomchecks._family_witness

    def shifted(*args):
        w2 = family_witness(*args)
        return (w2[0] + 1,) + w2[1:]

    monkeypatch.setattr(geomchecks, "_family_witness", shifted)
    rep = saturation_certificate()
    assert rep.status == "fail"
    assert {p["error"] for p in rep.details["problems"]} == {"witness outside"}


def test_saturation_certificate_fails_on_witness_data(monkeypatch):
    # 2 eta lies in N, but eta (norm 3, eta-degree 3, span determinant 0)
    # breaks no rule
    two_eta = tuple(2 * x for x in catalog.n_class("eta"))
    monkeypatch.setattr(geomchecks, "_family_witness", lambda *args: two_eta)
    rep = saturation_certificate()
    assert rep.status == "fail"
    problems = rep.details["problems"]
    assert len(problems) == 511
    assert {p["error"] for p in problems} == {"witness data"}


def test_s9_symmetry_holds_on_n():
    assert geomchecks._s9_symmetric(catalog.plane_lattice_N().gram)


def _swap_y_f1(g):
    order = [0, 2, 1] + list(range(3, 11))
    return [[g[a][b] for b in order] for a in order]


def _bump(g, a, b):
    g = [list(row) for row in g]
    g[a][b] += 1
    g[b][a] = g[a][b]
    return g


# perturbed Grams of N that the S_9 check must reject: y <-> F_1 swapped
# (N re-based, with y of norm 21 among the F coordinates), and one entry
# changed for each of the four facts the check reads
ASYMMETRIC_GRAMS = {
    "y <-> F_1": _swap_y_f1,
    "F_1.F_1": lambda g: _bump(g, 2, 2),
    "F_3.F_7": lambda g: _bump(g, 4, 8),
    "eta.F_1": lambda g: _bump(g, 0, 2),
    "y.F_1": lambda g: _bump(g, 1, 2),
}


@pytest.mark.parametrize("case", sorted(ASYMMETRIC_GRAMS))
def test_s9_symmetry_fails_on_a_perturbed_gram(case):
    gram = ASYMMETRIC_GRAMS[case](catalog.plane_lattice_N().gram)
    assert not geomchecks._s9_symmetric(gram)


S9_PROBLEM = {"class": (), "error": "Gram not S_9-symmetric"}


def test_saturation_certificate_fails_without_s9_symmetry(monkeypatch):
    monkeypatch.setattr(geomchecks, "_s9_symmetric", lambda gram: False)
    rep = saturation_certificate()
    assert rep.status == "fail"
    assert rep.details["problems"] == [S9_PROBLEM]


def test_saturation_certificate_fails_without_s9_symmetry_under_optimize(
        run_optimized):
    # the symmetry check must not be an assert, which python -O strips
    script = (
        "from cubiclat import geomchecks\n"
        "geomchecks._s9_symmetric = lambda gram: False\n"
        "rep = geomchecks.saturation_certificate()\n"
        "print(rep.status, rep.details['problems'] == "
        f"[{S9_PROBLEM!r}])\n")
    assert run_optimized(script).split() == ["fail", "True"]


def test_scroll_screen():
    rep = scroll_screen()
    assert rep.ok
    rows = rep.details["tau"]
    assert [rows[str(t)]["kind"] for t in range(7)] == [
        "short", "none", "long", "none", "long", "none", "short"]
    assert [rows[str(t)]["det"] for t in range(7)] == [21, 36, 45, 48, 45, 36, 21]
    assert rows["2"]["divisibility"] == 3
    assert rows["1"]["complement_norms_to_6"] == [4]


def test_pfaffian_certificate():
    rep = pfaffian_certificate()
    assert rep.ok
    d = rep.details
    assert d["delta_norm"] == 24
    assert d["delta_pairings_all_even"] is True
    assert d["plane_count"] == 19
    assert d["disjoint_pairs"] == 0
    assert d["product_distribution"] == {"-1": 27, "1": 144}


def test_oadp_certificate():
    rep = oadp_certificate()
    assert rep.ok
    assert rep.details["T_eta"] == 4
    assert rep.details["T_norm"] == 10
    assert rep.details["plane_pairings"] == [0, 2]


def test_rationality_certificate():
    rep = trivial_rationality_certificate()
    assert rep.ok
    assert rep.details["eta_Q"] == 2
    assert rep.details["y_Q"] == 8
    assert rep.details["F_Q"] == [2] * 9


def test_no_plane_order3_certificate():
    rep = no_plane_order3_certificate()
    assert rep.ok
    assert rep.details["order"] == 256
    assert rep.details["three_torsion"] is False
    assert rep.details["control_M_three_torsion"] is True
    assert rep.details["control_E62_three_torsion"] is True
