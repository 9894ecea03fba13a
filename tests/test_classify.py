"""Tests for 2-elementary / p-elementary classification and the embedding
certificates built on it."""
from collections import Counter

import pytest

from cubiclat import catalog, classify
from cubiclat.classify import (
    _torsion_q_multiset,
    phi2_no_associated_k3,
    phi3_k3_exists,
    two_elementary_exists,
    two_elementary_invariants,
    unimodular_complement_profile,
)
from cubiclat.core import (
    DoesNotFit,
    IntegralLattice,
    Not2Elementary,
    Signature,
    direct_sum,
    discriminant_form,
    discriminant_group,
    rescale,
)
from oracles import p_elementary_hyperbolic_exists


def test_two_elementary_invariants_known_lattices():
    cases = [
        (catalog.standard("A1"), (1, 0), 1, 1),
        (catalog.standard("A1(-1)"), (0, 1), 1, 1),
        (catalog.standard("U"), (1, 1), 0, 0),
        (catalog.standard("D4"), (4, 0), 2, 0),
        (catalog.standard("E8(2)"), (8, 0), 8, 0),
    ]
    for lat, sig, a, delta in cases:
        inv = two_elementary_invariants(lat)
        assert tuple(inv.signature) == sig
        assert inv.a == a
        assert inv.delta == delta


def test_transcendental_lattice_invariants():
    inv = two_elementary_invariants(catalog.transcendental_T())
    assert inv == (Signature(10, 2), 10, 1)


def test_nodal_sextic_ns_invariants():
    inv = two_elementary_invariants(catalog.nodal_sextic_NS())
    assert inv == (Signature(1, 9), 10, 1)


def test_two_elementary_rejects_odd_torsion():
    with pytest.raises(Not2Elementary, match=r"\(3,\)"):
        two_elementary_invariants(catalog.standard("A2"))


def test_two_elementary_exists_accepts_realized_invariants():
    assert two_elementary_exists((10, 2), 10, 1)
    assert two_elementary_exists((2, 10), 10, 1)
    assert two_elementary_exists((1, 9), 10, 1)
    assert two_elementary_exists((8, 0), 0, 0)
    assert two_elementary_exists((1, 1), 0, 0)
    assert two_elementary_exists((1, 0), 1, 1)
    assert two_elementary_exists((4, 0), 2, 0)


def test_two_elementary_exists_rejections():
    # length cannot exceed rank
    assert not two_elementary_exists((1, 0), 2, 0)
    # rank + length must be even
    assert not two_elementary_exists((2, 0), 1, 1)
    # delta = 0 forces signature difference divisible by 4
    assert not two_elementary_exists((2, 0), 2, 0)
    # unimodular even lattices need signature divisible by 8
    assert not two_elementary_exists((2, 0), 0, 0)
    # length 2 with signature difference 4 mod 8 forces delta = 0
    assert not two_elementary_exists((6, 2), 2, 1)


def test_two_elementary_exists_validates_input():
    with pytest.raises(ValueError):
        two_elementary_exists((1, 0), 1, 2)
    with pytest.raises(ValueError):
        two_elementary_exists((1, 0), -1, 0)
    with pytest.raises(ValueError):
        two_elementary_exists((-1, 2), 1, 1)


def test_p_elementary_hyperbolic_exists():
    # the unique shape behind the halved complement: 3-elementary, rank 8,
    # length 1, realized by U + E6(-1)
    assert p_elementary_hyperbolic_exists(3, 8, 1)
    assert not p_elementary_hyperbolic_exists(3, 8, 2)
    assert not p_elementary_hyperbolic_exists(3, 7, 1)
    assert not p_elementary_hyperbolic_exists(5, 8, 1)
    assert not p_elementary_hyperbolic_exists(3, 8, 9)


def test_p_elementary_hyperbolic_validates_input():
    with pytest.raises(ValueError, match="odd prime"):
        p_elementary_hyperbolic_exists(2, 8, 1)
    with pytest.raises(ValueError, match="odd prime"):
        p_elementary_hyperbolic_exists(9, 8, 1)
    with pytest.raises(ValueError):
        p_elementary_hyperbolic_exists(3, -2, 1)


def _dual_scaled(L, p):
    """L*(p), the dual lattice with its form times p: integral, and even,
    when A_L is p-elementary (for p = 2 with q integral on A_L)."""
    gram = [[p * x for x in row] for row in L.inverse_gram]
    assert all(x.denominator == 1 for row in gram for x in row)
    return IntegralLattice([[int(x) for x in row] for row in gram])


def _sums(pieces, keep):
    """Every entrywise sum of one or more of the tuples ``pieces`` that
    ``keep`` accepts; keep must also accept every partial sum of such a sum."""
    found = {p for p in pieces if keep(p)}
    frontier = list(found)
    while frontier:
        sums = {tuple(map(sum, zip(s, p))) for s in frontier for p in pieces}
        frontier = [t for t in sums if keep(t) and t not in found]
        found.update(frontier)
    return found


def test_two_elementary_table_matches_direct_sums():
    """Nikulin's table (1979, Thm 3.6.2) against direct sums of U, U(2), A1,
    E7, E8, E8(2) and D4, D6, ..., D20 in both signs, plus L*(2) for each
    piece with delta = 0, up to rank 22: the table accepts exactly the
    (signature, a, delta) triples these sums realize.  A sum proves its True
    entry; a False entry is only shown consistent with these pieces, not
    proved."""
    names = ["U", "U(2)", "A1", "E7", "E8", "E8(2)"] + [f"D{n}" for n in range(4, 21, 2)]
    lattices = [catalog.standard(f"{name}({sign})") for name in names
                for sign in (1, -1)]
    lattices += [_dual_scaled(L, 2) for L in lattices
                 if two_elementary_invariants(L).delta == 0]
    pieces = {(*inv.signature, inv.a, inv.delta)
              for inv in map(two_elementary_invariants, lattices)}
    assert len(pieces) == 36
    # delta of a sum is the largest delta of its summands
    realized = {(pos, neg, a, min(delta, 1)) for pos, neg, a, delta
                in _sums(pieces, lambda t: t[0] + t[1] <= 22)}
    accepted = {(pos, neg, a, delta) for pos in range(23) for neg in range(23 - pos)
                if pos + neg for a in range(23) for delta in (0, 1)
                if two_elementary_exists((pos, neg), a, delta)}
    assert realized == accepted


def test_p_elementary_oracle_matches_direct_sums():
    """The 3-elementary hyperbolic oracle against direct sums of U, U(3), A2,
    E6, E8 and E8(3) in both signs, plus L*(3) for each, up to rank 24: it
    accepts exactly the (rank, a) of the hyperbolic sums.  As above, a False
    entry is only shown consistent, not proved."""
    names = ["U", "U(3)", "A2", "E6", "E8", "E8(3)"]
    lattices = [catalog.standard(f"{name}({sign})") for name in names
                for sign in (1, -1)]
    lattices += [_dual_scaled(L, 3) for L in lattices]
    pieces = set()
    for L in lattices:
        factors = discriminant_group(L).factors
        assert set(factors) <= {3}
        pieces.add((*L.signature, len(factors)))
    realized = {(pos + neg, a) for pos, neg, a
                in _sums(pieces, lambda t: t[0] <= 1 and t[0] + t[1] <= 24)
                if pos == 1}
    accepted = {(rank, a) for rank in range(1, 25) for a in range(25)
                if p_elementary_hyperbolic_exists(3, rank, a)}
    assert realized == accepted


def test_unimodular_complement_profile_of_e8():
    prof = unimodular_complement_profile(catalog.standard("E8"), (8, 0))
    assert tuple(prof.signature) == (0, 0)
    assert prof.form.factors == ()


def test_unimodular_complement_profile_of_m():
    prof = unimodular_complement_profile(catalog.prim_lattice_M(), (20, 2))
    assert tuple(prof.signature) == (10, 2)
    assert sorted(prof.form.factors) == [2] * 9 + [6]


def test_unimodular_complement_profile_rejects_bad_fit():
    with pytest.raises(DoesNotFit):
        unimodular_complement_profile(catalog.standard("A2"), (1, 0))


def test_torsion_q_multiset_picks_out_primary_part():
    form = discriminant_form(
        direct_sum(catalog.standard("A2"), catalog.standard("A1")))
    three = _torsion_q_multiset(form, 3)
    assert sum(three.values()) == 3
    two = _torsion_q_multiset(form, 2)
    assert sum(two.values()) == 2


def test_two_torsion_counts_are_the_whole_form_exactly_when_2_elementary():
    # T.invariants and phi3.k3-exists compare q's counts on 2-torsion; on
    # their 2-elementary forms that is every element, and on M's factor 6
    # it is not
    t = catalog.transcendental_T()
    same = [t, rescale(t, -1),
            direct_sum(catalog.standard("E8(-2)"), catalog.standard("U"),
                       catalog.standard("A1"), catalog.standard("A1(-1)"))]
    forms = [discriminant_form(L) for L in same]
    forms.append(unimodular_complement_profile(
        catalog.nodal_sextic_NS(), (3, 19)).form)
    m = catalog.prim_lattice_M()
    other = [discriminant_form(m),
             unimodular_complement_profile(m, (20, 2)).form]
    for whole, cases in ((True, forms), (False, other)):
        for form in cases:
            assert set(form.factors) == ({2} if whole else {2, 6})
            assert (_torsion_q_multiset(form, 2)
                    == Counter(form.value_multiset())) == whole


def test_phi2_certificate_passes():
    rep = phi2_no_associated_k3()
    assert rep.ok
    assert rep.details["complement_signature"] == (1, 7)
    assert sorted(rep.details["target_group_factors"]) == [2] * 7 + [6]
    assert rep.details["unique_3elementary_rank8"] is True
    assert rep.details["three_parts_differ"] is True
    assert rep.details["verdict"] == "no lattice K realizes the forced form"


def test_phi2_negative_control_flips_verdict(monkeypatch):
    # feeding in a 3-part that matches the forced form must defeat the
    # obstruction, otherwise the final comparison is vacuous: the candidate
    # U + E6(-1), doubled, is given A2's form
    candidate = rescale(direct_sum(catalog.standard("U"),
                                   catalog.standard("E6(-1)")), 2)
    real = classify.discriminant_form
    monkeypatch.setattr(
        classify, "discriminant_form",
        lambda L: real(catalog.standard("A2") if L.gram == candidate.gram
                       else L))
    rep = phi2_no_associated_k3()
    assert not rep.ok
    assert rep.details["three_parts_differ"] is False
    assert rep.details["verdict"] == "matching 3-part: such a K would exist"


def test_phi3_certificate_passes():
    rep = phi3_k3_exists()
    assert rep.ok
    assert rep.details["ns_invariants"] == ((1, 9), 10, 1)
    assert rep.details["transcendental_invariants"] == ((2, 10), 10, 1)
    assert rep.details["complement_signature"] == (2, 10)
    assert rep.details["q_multisets_agree"] is True


def test_rescaled_model_matches_transcendental_invariants():
    model = direct_sum(catalog.standard("E8(-2)"), catalog.standard("U"),
                       catalog.standard("A1"), catalog.standard("A1(-1)"))
    tx = rescale(catalog.transcendental_T(), -1)
    assert two_elementary_invariants(model) == two_elementary_invariants(tx)
