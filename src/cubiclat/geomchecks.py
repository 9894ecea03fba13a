"""Vector-level certificates: plane enumeration, admissibility rules, the
saturation argument over the 511 index-2 extensions (one extension glued and
scanned per S_9 orbit, the symmetry read off N's Gram), scroll root screens,
and the parity arguments.

A lattice bundled with a distinguished norm-3 class eta is "admissible" when
it could be the algebraic lattice of a smooth cubic: no odd-norm class
orthogonal to eta, no norm-2 class, no norm-6 class of divisibility 3 in the
eta-complement, and no labeling (saturated <eta, u>) of forbidden
determinant, which u's own span decides (``_class_rule``).
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul
from typing import NamedTuple

from . import catalog
from .core import (IntegralLattice, _coords, _gram_product, combine,
                   divisibility, gram_of, orthogonal_complement)
from .glue import overlattice_from_glue
from .hassett import is_admissible
from .report import certificate
from .shortvec import enumerate_by_norm, vectors_of_norm


RULES = ("R1", "R2", "R3", "R4")


class Violation(NamedTuple):
    rule: str
    witness: tuple[int, ...]
    data: dict


def _check_eta(L: IntegralLattice, eta) -> tuple[int, ...]:
    ec = _coords(eta, L.rank)
    if L.norm(ec) != 3:
        raise ValueError(f"eta must have norm 3, got {L.norm(ec)}")
    return ec


def enumerate_planes(L: IntegralLattice, eta) -> list[tuple[int, ...]]:
    """All classes v with v^2 = 3 and v.eta = 1, sorted, by exhaustive
    enumeration of the norm-3 shell."""
    ec = _check_eta(L, eta)
    return sorted(tuple(v) for v in vectors_of_norm(L, 3) if L.pair(v, ec) == 1)


def admissibility_scan(L: IntegralLattice, eta,
                       norm_bound: int = 12) -> Violation | None:
    """First violation of rules R1-R4 (in that order), or None.

    The eta-complement is scanned up to norm_bound (R1, and R3 whenever the
    bound reaches 6); an even complement has no odd norm for R1, so its scan
    stops at min(norm_bound, 6), all R3 reads.  R2 and R4 walk L to
    max(2, min(norm_bound, 6)), R4 on each vector's own span.  That finds
    the first saturated labeling of inadmissible det D <= 18: (1) eta has
    norm 3, so it is primitive; (2) such a labeling has a basis (eta, u)
    with |eta.u| <= 1, so u.u = (D + (eta.u)^2)/3 <= 6; (3) an inadmissible
    span s <= 18 saturates to s or to at most s/4 <= 4, inadmissible either
    way; (4) the first u whose span breaks R4 is primitive, else its
    saturation has a basis vector of norm 1 (2 is R2) met first.
    """
    ec = _check_eta(L, eta)
    comp = orthogonal_complement(L, [ec])
    comp_bound = min(norm_bound, 6) if comp.lattice.is_even else norm_bound
    comp_slices = enumerate_by_norm(comp.lattice, comp_bound)

    for sl in comp_slices:
        if sl.norm % 2 == 1:
            w = comp.to_ambient(sl.vectors[0])
            return Violation("R1", w, {"norm": sl.norm})

    slices = enumerate_by_norm(L, max(2, min(norm_bound, 6)))
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

    # no u here is R1 or R2: the R1 loop covers the complement at least up
    # to this walk's bound, and the R2 loop covers L
    eta_dual = L.dual_pairings(ec)
    for sl in slices:
        for u in sl.vectors:
            e = sum(map(mul, eta_dual, u))
            if _class_rule(sl.norm, e) == "R4":
                return Violation("R4", tuple(u), {"det": 3 * sl.norm - e * e})
    return None


def _plane_family():
    """eta, P, and F_1..F_9 as coordinate tuples in the plane lattice."""
    fs = [catalog.n_class(f"F{i}") for i in range(1, 10)]
    return (catalog.plane_lattice_N(), catalog.n_class("eta"),
            catalog.p_in_N(), fs)


_FAMILY_COUNTS = {
    "2F": 36, "4F": 126, "6F": 84, "8F": 9, "eta+1F": 9,
    "eta+3F": 84, "eta+5F": 126, "eta+7F": 36, "eta+9F": 1,
}


def _family_witness(has_eta: bool, supp: tuple[int, ...], eta, p, fs):
    """Twice the explicit half-integer class rejecting this support family,
    as an integer signed sum.

    supp holds the 1-based F-indices in the class.
    """
    f_in = [fs[i - 1] for i in supp]
    f_out = [fs[i - 1] for i in sorted(set(range(1, 10)) - set(supp))]
    if not has_eta:
        if len(supp) == 2:
            return combine((1, 1), f_in)
        if len(supp) in (4, 6):
            return combine([(-1) ** k for k in range(len(supp))], f_in)
        return combine((1, 1), (p, f_out[0]))
    if len(supp) == 1:
        return combine((1, 1), (eta, *f_in))
    if len(supp) == 3:
        return combine((1,) * 4, (eta, *f_in))
    if len(supp) == 5:
        return combine((1, -1, -1, -1, -1, 1), (eta, p, *f_out))
    if len(supp) == 7:
        return combine((1, -1, -1, -1), (eta, p, *f_out))
    return combine((1, -1), (eta, p))


def _class_rule(norm, degree) -> str | None:
    """The rule broken by a class of this norm and eta-degree: R2, then R1
    (the two never both hold), then R4 on its span 3 norm - degree^2; None
    if it breaks none (no sat.511 witness needs R3).  The one R4 predicate,
    read by the scan and by sat.511."""
    if norm == 2:
        return "R2"
    if norm % 2 == 1 and degree == 0:
        return "R1"
    span = 3 * norm - degree * degree
    if 0 < span <= 18 and not is_admissible(span):
        return "R4"
    return None


def _s9_symmetric(gram) -> bool:
    """Whether every permutation of the F coordinates 2..10 of N's basis
    (eta, y, F_1..F_9) fixes the Gram: equal F norms, equal F-F pairings,
    and eta's and y's rows constant across the F columns."""
    f = range(2, len(gram))
    return (len({gram[i][i] for i in f}) == 1
            and len({gram[i][j] for i in f for j in f if i != j}) == 1
            and all(len({gram[a][i] for i in f}) == 1 for a in (0, 1)))


@certificate("sat.511", "all 511 index-2 extensions of the plane lattice are "
             "inadmissible",
             "all 511 index-2 extensions of the plane lattice are "
             "inadmissible, split 36/126/84/9/9/84/126/36/1 across the nine "
             "support families")
def saturation_certificate():
    """Reject all 511 candidate index-2 extensions of the plane lattice.

    The discriminant group is (Z/2)^10 on the duals of eta and the fibre
    classes; a class is isotropic exactly when its support is even.  Each of
    the 511 nonzero even-support classes lam yields an index-2 extension
    E = N + (lam + N) (Nikulin 1979), which the bound-3 admissibility scan
    rejects; E is glued and scanned once per support family, and the
    explicit rejecting class for each family is re-verified for every class
    directly.

    One scan per family suffices because the families are the S_9 orbits.
    The body checks that N's Gram G is fixed by every permutation pi of the
    F coordinates (``_s9_symmetric``), so each pi is an isometry fixing eta
    and y, whose coordinates 0 and 1 never move.  P G P^T = G gives
    P G^-1 P^T = G^-1, so pi carries the doubled dual class of each F_i to
    that of pi(F_i), and S_9, transitive on the k-subsets of {F_1..F_9},
    moves each class through exactly its family.  An isometry of N fixing
    eta carries E_lam onto E_pi(lam) and fixes eta, so the scan's rule is
    constant on each family.
    """
    n, eta, p, fs = _plane_family()
    # dual2[0] = 2 eta*, dual2[i] = 2 F_i*: columns of 2 G^-1
    dual2, independent = catalog.n_dual_classes()
    family_scan = {}
    family_rule = {}
    supports: Counter = Counter()
    scan_rules: Counter = Counter()
    problems = []
    if not _s9_symmetric(n.gram):
        problems.append({"class": (), "error": "Gram not S_9-symmetric"})
    # the norm of a subset sum of dual2 is the sum of its block of this Gram
    dual_gram = gram_of(n.gram, dual2)
    for size in range(1, 11):
        for symbols in combinations(range(10), size):
            if sum(dual_gram[s][t] for s in symbols for t in symbols) % 4:
                continue
            lift2 = [sum(c) for c in zip(*(dual2[s] for s in symbols))]
            has_eta = 0 in symbols
            supp = tuple(s for s in symbols if s != 0)
            key = f"eta+{len(supp)}F" if has_eta else f"{len(supp)}F"
            supports[key] += 1

            # bound 3 suffices here: every family is rejected by a class
            # of norm at most 3 (the witnesses below); the family's first
            # class stands for its orbit
            if key not in family_scan:
                ext = overlattice_from_glue(
                    n, [[Fraction(c, 2) for c in lift2]])
                hit = admissibility_scan(ext.lattice, ext.from_ambient(eta),
                                         norm_bound=3)
                family_scan[key] = hit and hit.rule
            rule = family_scan[key]
            if rule is None:
                problems.append({"class": symbols, "error": "scan passed"})
                continue
            scan_rules[rule] += 1

            # w lies in N or in lam + N: 2w = 0 or 2 lam mod 2
            w2 = _family_witness(has_eta, supp, eta, p, fs)
            if not (all(x % 2 == 0 for x in w2)
                    or all((x - c) % 2 == 0 for x, c in zip(w2, lift2))):
                problems.append({"class": symbols, "error": "witness outside"})
                continue
            wn = Fraction(_gram_product(n.gram, w2, w2), 4)
            we = Fraction(n.pair(w2, eta), 2)
            rule = _class_rule(wn, we)
            if rule is None or rule != family_rule.setdefault(key, rule):
                problems.append({"class": symbols, "error": "witness data",
                                 "norm": wn, "eta": we})
    families = dict(sorted(supports.items()))
    isotropic = sum(families.values())
    details = {
        "isotropic_classes": isotropic,
        "generators_independent": independent,
        "families": families,
        "family_rule": dict(sorted(family_rule.items())),
        "scan_rules": dict(sorted(scan_rules.items())),
        "problems": problems,
    }
    ok = (isotropic == 511 and independent and not problems
          and families == _FAMILY_COUNTS)
    return ok, details


@certificate("scroll.screen", "scroll lattices: short/long roots at even "
             "tau, none at odd tau",
             "scroll lattices are positive definite for tau in 0..6 with a "
             "short root at tau in {{0,6}}, a long root at tau in {{2,4}}, "
             "and neither at odd tau")
def scroll_screen():
    """Short/long root screen over the seven positive-definite scroll
    lattices: roots at even tau, certified absence at odd tau."""
    rows = {}
    ok = True
    witness = {0: (-2, 1, 1), 2: (-2, 1, 1), 4: (0, 1, -1), 6: (0, 1, -1)}
    for tau in range(7):
        k = catalog.scroll_lattice_K(tau)
        eta = (1, 0, 0)
        row = {"det": k.det, "positive_definite": k.is_positive_definite()}
        ok = ok and row["positive_definite"]
        comp = orthogonal_complement(k, [eta])
        ok = ok and 3 * comp.lattice.det == k.det
        if tau % 2 == 0:
            v = witness[tau]
            norm = k.norm(v)
            row["witness"] = v
            row["witness_norm"] = norm
            if norm == 2:
                row["kind"] = "short"
                ok = ok and k.pair(v, eta) == 0
            else:
                div = gcd(*(k.pair(v, b) for b in comp.basis))
                row["kind"] = "long"
                row["divisibility"] = div
                ok = ok and norm == 6 and div == 3 and k.pair(v, eta) == 0
        else:
            slices = enumerate_by_norm(comp.lattice, 6)
            norms = [sl.norm for sl in slices]
            row["kind"] = "none"
            row["complement_norms_to_6"] = norms
            longs = [w for sl in slices if sl.norm == 6 for w in sl.vectors
                     if divisibility(comp.lattice, w) == 3]
            ok = ok and 2 not in norms and not longs
        rows[str(tau)] = row
    return ok, {"tau": rows}


@certificate("pfaffian", "delta pairs evenly with everything; no disjoint "
             "plane pair",
             "every class pairs evenly with the norm-24 class delta, so a "
             "disjoint plane pair (which would pair to 9) cannot exist; the "
             "plane scan confirms no pair has product 0")
def pfaffian_certificate():
    """Parity argument against disjoint plane pairs, plus the direct scan."""
    m = catalog.prim_lattice_M()
    delta = catalog.delta_in_M()
    entries_even = all(x % 2 == 0 for row in m.gram for x in row)
    pair_parity = [x % 2 for x in m.dual_pairings(delta)]

    n, eta, p, fs = _plane_family()
    planes = enumerate_planes(n, eta)
    products = Counter(n.pair(a, b) for a, b in combinations(planes, 2))
    details = {
        "gram_entries_even": entries_even,
        "delta_norm": m.norm(delta),
        "delta_pairings_all_even": all(x == 0 for x in pair_parity),
        "disjoint_pair_obstruction": 9,
        "plane_count": len(planes),
        "disjoint_pairs": products.get(0, 0),
        "product_distribution": {str(k): v for k, v in sorted(products.items())},
    }
    ok = (entries_even and details["delta_norm"] == 24
          and details["delta_pairings_all_even"]
          and details["disjoint_pairs"] == 0 and 9 % 2 == 1)
    return ok, details


@certificate("oadp", "the norm-10 degree-4 class pairs evenly with every "
             "plane",
             "the norm-10, degree-4 class T pairs evenly with every plane "
             "class, ruling out the odd pairings demanded by the other two "
             "cases")
def oadp_certificate():
    """Parity screen for the degree-4 surface class T = 2 eta - y + F7+F8+F9."""
    n, eta, p, fs = _plane_family()
    t = (2, -1, 0, 0, 0, 0, 0, 0, 1, 1, 1)
    planes = enumerate_planes(n, eta)
    pairings = sorted({n.pair(pl, t) for pl in planes})
    details = {
        "T_eta": n.pair(t, eta),
        "T_norm": n.norm(t),
        "plane_pairings": pairings,
        "all_even": all(x % 2 == 0 for x in pairings),
        "case1_identity": 3,
        "case1_identity_odd": 3 % 2 == 1,
    }
    ok = (details["T_eta"] == 4 and details["T_norm"] == 10
          and details["all_even"] and details["case1_identity_odd"])
    return ok, details


@certificate("rationality.section", "eta - P pairs evenly with the whole "
             "basis",
             "the quadric-section class eta - P pairs evenly with every "
             "basis class of the plane lattice")
def trivial_rationality_certificate():
    """The quadric-section class Q = eta - P pairs evenly with the whole
    lattice."""
    n, eta, p, fs = _plane_family()
    q = tuple(a - b for a, b in zip(eta, p))
    pairings = list(n.dual_pairings(q))
    details = {
        "eta_Q": n.pair(eta, q),
        "y_Q": pairings[1],
        "F_Q": pairings[2:],
        "all_even": all(x % 2 == 0 for x in pairings),
    }
    ok = (details["eta_Q"] == 2 and details["y_Q"] == 8
          and all(x == 2 for x in details["F_Q"]) and details["all_even"])
    return ok, details


@certificate("phi2.no-plane", "E8(2) has no order-3 discriminant class",
             "the order-256 discriminant group of E8(2) has no order-3 "
             "class, while both control groups do")
def no_plane_order3_certificate():
    """Absence of 3-torsion in the discriminant group of E8(2), against two
    controls that do carry an order-3 class."""
    e82 = catalog.standard("E8(2)")
    dg = e82.disc_form
    m = catalog.prim_lattice_M()
    e62 = catalog.eckardt_E6_2()
    three = [f for f in dg.factors if f % 3 == 0]
    details = {
        "order": dg.order,
        "factors": dg.factors,
        "three_torsion": bool(three),
        "control_M_three_torsion": any(
            f % 3 == 0 for f in m.disc_form.factors),
        "control_E62_three_torsion": any(
            f % 3 == 0 for f in e62.disc_form.factors),
    }
    ok = (details["order"] == 256 and not details["three_torsion"]
          and details["control_M_three_torsion"]
          and details["control_E62_three_torsion"])
    return ok, details
