"""Acceptance suite: seventeen criteria, one test and one printed pass/fail
line each.

Criterion 1 pins down the discriminant form of the plane lattice N: the
group is (Z/2)^10, and the bilinear form b_N on the dual classes eta*,
F_1*..F_9* is 1/2 on the diagonal and 0 off it.  The expected matrix comes
from a closed form of N^-1 checked by an integer product, not from the
library's inverse.  The all-1/2 shape once stated for these classes is kept
as a checked refutation: on ten independent classes it has F_2 rank 1, so it
would vanish on the even-weight subspace, and the discriminant form of a
nondegenerate lattice is nondegenerate (Nikulin 1979).
"""

import random
from fractions import Fraction

from cubiclat import catalog
from cubiclat.checks import run_checks
from cubiclat.classify import (
    phi2_no_associated_k3,
    phi3_k3_exists,
    two_elementary_exists,
    two_elementary_invariants,
    unimodular_complement_profile,
)
from cubiclat.core import (
    DegenerateLattice,
    Signature,
    basic_invariants,
    discriminant_form,
    discriminant_group,
    rescale,
)
from cubiclat.delpezzo import intersection_lemma_verify
from cubiclat.geomchecks import (
    oadp_certificate,
    pfaffian_certificate,
    saturation_certificate,
    scroll_screen,
    trivial_rationality_certificate,
)
from cubiclat.glue import glue_group, overlattice_from_glue
from cubiclat.hassett import hassett_sweep, labeling_for_d
from cubiclat.shortvec import identify_root_lattice, root_count
from oracles import ETA_F, pair_rational, plane_inverse_times_two
from property_battery import run_battery

import pytest


def _line(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")


def _f2_rank(rows: list[list[int]]) -> int:
    """Rank over F_2 of an integer matrix read mod 2."""
    rows = [[x % 2 for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_c01_plane_disc_group_and_all_half_form():
    n = catalog.plane_lattice_N()
    g = n.gram
    dg = discriminant_group(n)
    group_ok = dg.factors == (2,) * 10

    x2 = plane_inverse_times_two()
    inverse_ok = ([[sum(g[i][k] * x2[k][j] for k in range(11))
                    for j in range(11)] for i in range(11)]
                  == [[2 * (i == j) for j in range(11)] for i in range(11)])
    assert inverse_ok, "hand-written N^-1 does not satisfy G * X = I"
    hand = [tuple(Fraction(x2[k][c], 2) for k in range(11)) for c in ETA_F]
    expected = [[sum(u[k] * g[k][l] * v[l]
                     for k in range(11) for l in range(11)) % 1
                 for v in hand] for u in hand]
    half = Fraction(1, 2)
    diag_half = [[half if i == j else Fraction(0) for j in range(10)]
                 for i in range(10)]
    independent = _f2_rank([list(dg.class_of_rational(u)) for u in hand]) == 10

    ginv = n.inverse_gram
    duals = [[row[c] for row in ginv] for c in ETA_F]
    matrix = [[pair_rational(n, a, b) % 1 for b in duals] for a in duals]

    cert = run_checks(["N.disc"])[0]

    # The all-1/2 matrix on ten independent classes is J/2; read as 2*b mod 2
    # it has F_2 rank 1, so it is degenerate and cannot be b_N.
    all_half = [[half] * 10 for _ in range(10)]
    all_half_rank = _f2_rank([[int(2 * v) for v in row] for row in all_half])

    ok = (group_ok and independent and expected == diag_half
          and matrix == expected and cert.ok
          and cert.details["matrix"] == expected
          and cert.details["generators_independent"] is True
          and all_half_rank == 1)
    _line(1, ok, "discriminant group (Z/2)^10 with b_N = diag(1/2) on eta*, "
                 "F_i*; the all-1/2 form is refuted as degenerate "
                 "(F_2 rank 1 < 10)")
    assert group_ok
    assert independent
    assert expected == diag_half
    assert matrix == expected
    assert cert.ok
    assert cert.details["matrix"] == expected
    assert cert.details["generators_independent"] is True
    assert all_half_rank == 1


def test_c02_m_determinant_and_disc_group():
    m = catalog.prim_lattice_M()
    factors = discriminant_group(m).factors
    ok = (m.det == 3072 and factors == (2,) * 9 + (6,)
          and discriminant_group(m).order == 3 * 2 ** 10)
    _line(2, ok, "det 3072 with discriminant group Z/3 + (Z/2)^10")
    assert ok


def test_c03_glue_reconstruction_and_glue_group():
    kt = catalog.kappa_tilde()
    glued = overlattice_from_glue(kt, [catalog.kappa_glue_lift()])
    m = catalog.prim_lattice_M()
    match = (basic_invariants(glued.lattice) == basic_invariants(m)
             and discriminant_form(glued.lattice).value_multiset()
             == discriminant_form(m).value_multiset())

    delta = catalog.delta_in_M()
    alphas = [tuple(int(i == j) for i in range(10)) for j in range(1, 10)]
    gg = glue_group(m, [delta], alphas)
    reports = run_checks(["M.glue"])
    d = reports[0].details
    ok = (match and glued.index == 4 and gg == (4,)
          and d["overlattice_index"] == 4 and d["commonly_quoted_index"] == 2
          and reports[0].ok)
    _line(3, ok, "index-4 glue of <24> + D9(2) reproduces the primitive "
                 "lattice; glue group Z/4; quoted index 2 reported beside "
                 "the computed 4")
    assert ok


def test_c04_alpha_span_halves_to_d9():
    halved = rescale(catalog.alpha_d9_2(), Fraction(1, 2))
    labels = identify_root_lattice(halved)
    roots = root_count(halved, 2)
    ok = labels == ["D9"] and roots == 144
    _line(4, ok, "halved alpha-span is D9 with 144 roots")
    assert ok


def test_c05_e8_exhaustive_among_ade_sums():
    rep = run_checks(["E8.roots"])[0]
    d = rep.details
    ok = (rep.ok and d["with_240_roots"] == [("E8",)] and d["d8_roots"] == 112
          and d["d7a1_roots"] == 86 and d["d7a1_commonly_quoted"] == 85)
    _line(5, ok, "only E8 reaches 240 roots among ADE sums of rank <= 8; "
                 "D8 112; D7+A1 computes to 86 beside the quoted 85")
    assert ok


def test_c06_scroll_screen():
    rep = scroll_screen()
    rows = rep.details["tau"]
    kinds = [rows[str(t)]["kind"] for t in range(7)]
    with pytest.raises(DegenerateLattice):
        catalog.scroll_lattice_K(7)
    beyond = catalog.scroll_lattice_K(8)
    ok = (rep.ok and kinds == ["short", "none", "long", "none", "long",
                               "none", "short"]
          and not beyond.is_positive_definite())
    _line(6, ok, "scroll lattices positive definite exactly for tau 0..6, "
                 "short roots at 0 and 6, long roots at 2 and 4, neither "
                 "at odd tau")
    assert ok


def test_c07_transcendental_invariants_and_profile():
    t = catalog.transcendental_T()
    inv = two_elementary_invariants(t)
    prof = unimodular_complement_profile(catalog.prim_lattice_M(), (20, 2))
    rep = run_checks(["T.invariants"])[0]
    ok = (inv == (Signature(10, 2), 10, 1)
          and two_elementary_exists(inv.signature, inv.a, inv.delta)
          and tuple(prof.signature) == (10, 2)
          and rep.ok and rep.details["two_part_matches_T"] is True)
    _line(7, ok, "transcendental model has invariants ((10,2),10,1) and "
                 "matches the complement profile of the primitive lattice")
    assert ok


def test_c08_no_associated_k3_for_square_involution():
    rep = phi2_no_associated_k3()
    d = rep.details
    ok = (rep.ok and d["halving_defined"] and d["odd_half_excluded"]
          and d["unique_3elementary_rank8"] and d["three_parts_differ"])
    _line(8, ok, "forced complement halves to the unique 3-elementary "
                 "candidate U + E6, whose doubled 3-part mismatches")
    assert ok


def test_c09_k3_embedding_for_cube_involution():
    rep = phi3_k3_exists()
    d = rep.details
    ok = (rep.ok and d["ns_invariants"] == ((1, 9), 10, 1)
          and d["model_invariants"] == ((1, 9), 10, 1)
          and d["complement_signature"] == (2, 10)
          and d["transcendental_invariants"] == ((2, 10), 10, 1)
          and d["q_multisets_agree"])
    _line(9, ok, "nodal-sextic lattice shares invariants ((1,9),10,1) and "
                 "its complement profile matches the sign-flipped "
                 "transcendental lattice")
    assert ok


def test_c10_full_discriminant_sweep():
    rep = hassett_sweep(10000)
    lab14 = labeling_for_d(14)
    n = catalog.plane_lattice_N()
    eta = (1,) + (0,) * 10
    ok = (rep.ok and rep.details["failures"] == []
          and rep.details["labeled"] == 3331
          and n.norm(lab14.v) == 5 and n.pair(eta, lab14.v) == 1)
    _line(10, ok, "all 3331 admissible discriminants to 10000 labeled; "
                  "d=14 witness has norm 5 and degree 1")
    assert ok


def test_c11_all_511_extensions_rejected():
    rep = saturation_certificate()
    d = rep.details
    ok = (rep.ok and d["isotropic_classes"] == 511 and d["problems"] == []
          and d["families"] == {"2F": 36, "4F": 126, "6F": 84, "8F": 9,
                                "eta+1F": 9, "eta+3F": 84, "eta+5F": 126,
                                "eta+7F": 36, "eta+9F": 1})
    _line(11, ok, "all 511 index-2 extensions rejected across the nine "
                  "support families 36/126/84/9/9/84/126/36/1")
    assert ok


def test_c12_no_disjoint_plane_pair():
    rep = pfaffian_certificate()
    d = rep.details
    ok = (rep.ok and d["gram_entries_even"] and d["disjoint_pairs"] == 0
          and d["plane_count"] == 19)
    _line(12, ok, "Gram entries all even and no disjoint pair among the 19 "
                  "plane classes")
    assert ok


def test_c13_degree_four_class_parity():
    rep = oadp_certificate()
    d = rep.details
    ok = (rep.ok and d["T_eta"] == 4 and d["T_norm"] == 10 and d["all_even"])
    _line(13, ok, "degree-4 norm-10 class pairs evenly with every plane "
                  "class")
    assert ok


def test_c14_quadric_section_parity():
    rep = trivial_rationality_certificate()
    ok = rep.ok and rep.details["all_even"]
    _line(14, ok, "quadric-section class pairs evenly with the whole basis")
    assert ok


def test_c15_ramanujan_form_range():
    rep = run_checks(["ramanujan.range"])[0]
    ok = rep.ok and rep.details["missing"] == [17]
    _line(15, ok, "2x^2+2y^2+2z^2+3u^2 represents every 2 <= n <= 10000 "
                  "except 17")
    assert ok


def test_c16_cubic_surface_intersection_table():
    rep = intersection_lemma_verify()
    d = rep.details
    ok = (rep.ok and d["lines"] == 27 and d["sixers"] == 72
          and d["double_sixes"] == 36 and d["pairs"] == 2556
          and d["distribution"][5] == 36)
    _line(16, ok, "27 lines, 72 sixers, 36 double sixes; four-case table "
                  "over all 2556 pairs with exactly 36 double-six pairs")
    assert ok


def test_c17_randomized_property_batteries():
    counts = run_battery()
    total = sum(counts.values())
    ok = (total >= 1000 and counts["shortvec_vs_box_oracle"] >= 350
          and counts["discriminant_lift_independence"] >= 400
          and counts["overlattice_det_identity"] >= 250)
    _line(17, ok, f"{total} randomized trials across the three suites, "
                  "zero failures")
    assert ok
