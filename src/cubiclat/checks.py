"""The check registry: every scripted certificate under a frozen id.

A certificate is declared once, by ``report.certificate(id, summary, claim)``
on the function that computes it.  ``REGISTRY`` maps the id of each of the
20 functions it lists to that function, in id order; ``checks list`` prints
their summaries.

Certificates that need real machinery live with that machinery (saturation
and the geometric parity arguments in geomchecks, the K3 comparisons in
classify, the discriminant sweep in hassett, the cubic-surface table in
delpezzo).  The catalog-level facts certified here are thin: Gram
determinants, discriminant groups, glue indices, and root counts.

``run_checks`` runs any selection one check at a time, in check-id order.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

from . import catalog, delpezzo, exact, geomchecks, hassett
from .classify import (_torsion_q_multiset, phi2_no_associated_k3,
                       phi3_k3_exists, two_elementary_exists,
                       two_elementary_invariants, unimodular_complement_profile)
from .core import (NoRepresentation, basic_invariants, combine, direct_sum,
                   discriminant_form, discriminant_group, gram_of, rescale)
from .glue import glue_group, overlattice_from_glue
from .report import CheckReport, certificate
from .shortvec import ade_root_number, identify_root_lattice, root_count


class UnknownCheck(ValueError):
    """Raised for a check id not present in the registry."""


@certificate("N.gram", "plane lattice: det 1024, odd, positive definite",
             "the rank-11 plane lattice is odd positive definite of "
             "determinant 1024")
def n_gram_certificate():
    n = catalog.plane_lattice_N()
    inv = basic_invariants(n)
    details = {"rank": n.rank, "det": exact.bareiss_det(n.gram),
               "signature": tuple(n.signature), "parity": n.parity}
    ok = (details["det"] == 1024 and details["signature"] == (11, 0)
          and details["parity"] == "odd" and inv.determinant == 1024)
    return ok, details


@certificate("N.disc", "A_N = (Z/2)^10 with b_N = diag(1/2) on eta*, F_i*",
             "the plane lattice's discriminant group is (Z/2)^10 and its "
             "bilinear form on the eta*, F_i* classes is 1/2 on the diagonal "
             "and 0 off it")
def n_disc_certificate():
    n = catalog.plane_lattice_N()
    dual2, independent = catalog.n_dual_classes()
    matrix = [[Fraction(n.pair(u2, v2), 4) % 1 for v2 in dual2] for u2 in dual2]
    half = Fraction(1, 2)
    diagonal_half = all(matrix[i][i] == half for i in range(10))
    off_zero = all(matrix[i][j] == 0
                   for i in range(10) for j in range(10) if i != j)
    details = {"factors": n.disc_form.factors, "matrix": matrix,
               "diagonal_half": diagonal_half, "off_diagonal_zero": off_zero,
               "generators_independent": independent}
    ok = (details["factors"] == (2,) * 10 and diagonal_half and off_zero
          and independent)
    return ok, details


@certificate("N.planes", "exactly 19 norm-3 degree-1 classes",
             "the plane lattice contains exactly 19 norm-3 classes of degree "
             "1; their pairwise products are reported")
def n_planes_certificate():
    n = catalog.plane_lattice_N()
    eta = catalog.n_class("eta")
    planes = geomchecks.enumerate_planes(n, eta)
    products = Counter(n.pair(a, b) for a, b in combinations(planes, 2))
    details = {"count": len(planes),
               "planes": planes,
               "pair_products": dict(sorted(products.items()))}
    return len(planes) == 19, details


@certificate("N.admissible", "the plane lattice passes rules R1-R4",
             "the plane lattice itself passes all four admissibility rules")
def n_admissible_certificate():
    n = catalog.plane_lattice_N()
    eta = catalog.n_class("eta")
    violation = geomchecks.admissibility_scan(n, eta)
    details = {"rules": list(geomchecks.RULES),
               "violation": violation._asdict() if violation else None}
    return violation is None, details


@certificate("M.gram", "primitive sublattice: det 3072, A_M = Z/3 x (Z/2)^10",
             "the primitive sublattice is even of determinant 3072 with "
             "discriminant group Z/3 x (Z/2)^10")
def m_gram_certificate():
    m = catalog.prim_lattice_M()
    dg = discriminant_group(m)
    primary = {p: sum(1 for f in dg.factors if f % p == 0)
               for p in (2, 3)}
    details = {"det": exact.bareiss_det(m.gram),
               "signature": tuple(m.signature), "parity": m.parity,
               "invariant_factors": dg.factors,
               "primary_decomposition": primary}
    ok = (details["det"] == 3072 and details["signature"] == (10, 0)
          and m.is_even and dg.factors == (2,) * 9 + (6,)
          and primary == {2: 10, 3: 1})
    return ok, details


@certificate("M.glue", "<24>+D9(2) glues to M with glue group Z/4 (index 4)",
             "<24> + D9(2) glues by an order-4 isotropic class to a lattice "
             "matching the primitive sublattice; the glue group over (delta, "
             "alpha-span) is Z/4, so the index is 4 and not the commonly "
             "quoted 2")
def m_glue_certificate():
    """Ktilde sits in M by delta -> delta_in_M and alpha_i -> basis vector i.
    The glued basis maps to integral rows of det +-1 that carry the glued
    Gram: an isometry onto M, which implies both "match" keys they report."""
    m = catalog.prim_lattice_M()
    kt = catalog.kappa_tilde()
    ext = overlattice_from_glue(kt, [catalog.kappa_glue_lift()])
    delta, alphas = catalog.delta_in_M(), exact.identity(10)[1:]
    rows = [combine(b, [delta, *alphas]) for b in ext.basis]
    integral = all(c.denominator == 1 for row in rows for c in row)
    rows = [[int(c) for c in row] for row in rows]
    isometry = (integral and abs(exact.bareiss_det(rows)) == 1
                and gram_of(m.gram, rows) == [list(r) for r in ext.lattice.gram])
    glue_factors = glue_group(m, [delta], alphas)
    details = {"glue_order": ext.index,
               "overlattice_index": ext.index,
               "commonly_quoted_index": 2,
               "invariants_match": isometry,
               "q_value_multiset_match": isometry,
               "glue_factors": glue_factors}
    ok = ext.index == 4 and isometry and glue_factors == (4,)
    return ok, details


@certificate("K.d9", "the halved alpha-span is D9 with 144 roots",
             "the alpha-span inside the primitive sublattice halves to the "
             "root lattice D9 with 144 roots")
def k_d9_certificate():
    m = catalog.prim_lattice_M()
    sub = [[m.gram[i][j] for j in range(1, 10)] for i in range(1, 10)]
    matches = sub == [list(r) for r in catalog.alpha_d9_2().gram]
    half = rescale(catalog.alpha_d9_2(), Fraction(1, 2))
    labels = identify_root_lattice(half)
    roots = root_count(half, 2)
    details = {"alpha_span_matches_catalog": matches,
               "identified": labels, "roots": roots}
    return matches and labels == ["D9"] and roots == 144, details


def _ade_sums(max_rank: int) -> list[tuple[str, ...]]:
    """All nonempty multisets of simple ADE labels with total rank bounded."""
    simple = [(f"A{n}", n) for n in range(1, max_rank + 1)]
    simple += [(f"D{n}", n) for n in range(4, max_rank + 1)]
    simple += [(f"E{n}", n) for n in (6, 7, 8) if n <= max_rank]
    out: list[tuple[str, ...]] = []

    def rec(start: int, budget: int, acc: list[str]):
        for k in range(start, len(simple)):
            label, r = simple[k]
            if r <= budget:
                acc.append(label)
                out.append(tuple(acc))
                rec(k, budget - r, acc)
                acc.pop()

    rec(0, max_rank, [])
    return out


@certificate("E8.roots", "only E8 reaches 240 roots in rank <= 8; D8 112, "
             "D7+A1 86",
             "among all direct sums of simple root lattices of rank at most "
             "8 only E8 reaches 240 roots; D8 has 112 and D7+A1 has 86 (not "
             "the commonly quoted 85)")
def e8_roots_certificate():
    sums = _ade_sums(8)
    # the one-label sums are the simple lattices, in _ade_sums's list order
    formula_checked = [s[0] for s in sums if len(s) == 1]
    for label in formula_checked:
        if ade_root_number(label) != root_count(catalog.standard(label), 2):
            return False, {"formula_mismatch": label}

    with_240 = [s for s in sums
                if sum(ade_root_number(x) for x in s) == 240]
    d7a1 = direct_sum(catalog.standard("D7"), catalog.standard("A1"))
    d7a1_roots = root_count(d7a1, 2)
    details = {"sums_considered": len(sums),
               "with_240_roots": with_240,
               "formula_crosschecked": formula_checked,
               "d8_roots": root_count(catalog.standard("D8"), 2),
               "d7a1_roots": d7a1_roots,
               "d7a1_commonly_quoted": 85}
    ok = (with_240 == [("E8",)] and details["d8_roots"] == 112
          and d7a1_roots == 86)
    return ok, details


@certificate("T.invariants", "transcendental lattice: ((10,2), 10, 1), "
             "forced by the complement profile",
             "the transcendental lattice has 2-elementary invariants "
             "((10,2), 10, 1); the complement profile of the primitive "
             "sublattice inside signature (20,2) forces its signature and, "
             "on 2-torsion, its whole discriminant form")
def t_invariants_certificate():
    """T's form and the profile's 2-part are 2-elementary; there the q-value
    multiset fixes a, delta and the signature mod 8, which determine q
    (Nikulin 1980, section 3.6), so equal multisets mean isomorphic forms."""
    t = catalog.transcendental_T()
    inv = two_elementary_invariants(t)
    flat = (tuple(inv.signature), inv.a, inv.delta)
    exists = two_elementary_exists(inv.signature, inv.a, inv.delta)
    profile = unimodular_complement_profile(
        catalog.prim_lattice_M(), (20, 2))
    t_multiset = _torsion_q_multiset(discriminant_form(t), 2)
    two_part = _torsion_q_multiset(profile.form, 2)
    details = {"invariants": flat, "exists": exists,
               "det": exact.bareiss_det(t.gram),
               "profile_signature": tuple(profile.signature),
               "profile_factors": profile.form.factors,
               "two_part_matches_T": two_part == t_multiset}
    ok = (flat == ((10, 2), 10, 1) and exists
          and tuple(profile.signature) == (10, 2)
          and profile.form.factors == (2,) * 9 + (6,)
          and two_part == t_multiset)
    return ok, details


RAMANUJAN_LIMIT = 10000


@certificate("ramanujan.range", "2x^2+2y^2+2z^2+3u^2 represents 2..10^4 "
             "except 17",
             "2x^2+2y^2+2z^2+3u^2 represents every n in 2..10000 except 17")
def ramanujan_range_certificate():
    missing = []
    for n in range(2, RAMANUJAN_LIMIT + 1):
        try:
            x, y, z, u = hassett.ramanujan_rep(n)
        except NoRepresentation:
            missing.append(n)
            continue
        if 2 * x * x + 2 * y * y + 2 * z * z + 3 * u * u != n:
            return False, {"bad_witness": (n, (x, y, z, u))}
    details = {"range": (2, RAMANUJAN_LIMIT), "missing": missing}
    return missing == [17], details


REGISTRY = {fn.check_id: fn for fn in sorted((
    n_gram_certificate, n_disc_certificate, n_planes_certificate,
    n_admissible_certificate, m_gram_certificate, m_glue_certificate,
    k_d9_certificate, e8_roots_certificate, t_invariants_certificate,
    ramanujan_range_certificate, geomchecks.scroll_screen,
    geomchecks.no_plane_order3_certificate, phi2_no_associated_k3,
    phi3_k3_exists, hassett.hassett_sweep, geomchecks.saturation_certificate,
    geomchecks.pfaffian_certificate, geomchecks.oadp_certificate,
    geomchecks.trivial_rationality_certificate,
    delpezzo.intersection_lemma_verify), key=lambda fn: fn.check_id)}


def run_checks(names=None) -> list[CheckReport]:
    """Run the named checks (default: all) and return reports sorted by id."""
    ids = list(REGISTRY) if names is None else list(names)
    unknown = [name for name in ids if name not in REGISTRY]
    if unknown:
        raise UnknownCheck(f"unknown check id {unknown[0]!r}; valid ids: "
                           + ", ".join(REGISTRY))
    return [REGISTRY[check_id]() for check_id in sorted(set(ids))]
