"""Decision procedures for elementary lattices and the K3-association checks.

A lattice is p-elementary when its discriminant group is a direct sum of
Z/p factors.  For 2-elementary even lattices the triple (signature, length a,
delta) decides existence and, in the indefinite case, uniqueness; delta is 0
exactly when the quadratic form on the discriminant group is integer-valued.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple

from . import catalog
from .core import (
    IntegralLattice,
    DoesNotFit,
    FiniteQuadraticForm,
    Not2Elementary,
    Signature,
    direct_sum,
    discriminant_form,
    discriminant_group,
    rescale,
)
from .report import certificate


class TwoElemInvariants(NamedTuple):
    signature: Signature
    a: int
    delta: int


def two_elementary_invariants(L: IntegralLattice) -> TwoElemInvariants:
    """(signature, length, delta) of an even lattice with (Z/2)^a discriminant."""
    factors = discriminant_group(L).factors
    bad = [f for f in factors if f != 2]
    if bad:
        raise Not2Elementary(
            f"discriminant group has invariant factors {factors}; "
            f"offending entries {bad}")
    form = discriminant_form(L)
    a = len(factors)
    delta = 0
    for i in range(a):
        gen = tuple(int(i == j) for j in range(a))
        if form.q(gen).denominator != 1:
            delta = 1
            break
    return TwoElemInvariants(L.signature, a, delta)


def two_elementary_exists(sig, a: int, delta: int) -> bool:
    """Whether an even 2-elementary lattice with these invariants exists."""
    t_plus, t_minus = sig
    if a < 0 or delta not in (0, 1) or t_plus < 0 or t_minus < 0:
        raise ValueError("invalid invariants")
    r = t_plus + t_minus
    diff = t_plus - t_minus
    if a > r:
        return False
    if (r + a) % 2 != 0:
        return False
    if delta == 0 and diff % 4 != 0:
        return False
    if a == 0 and not (delta == 0 and diff % 8 == 0):
        return False
    if a == 1 and diff % 8 not in (1, 7):
        return False
    if a == 2 and diff % 8 == 4 and delta != 0:
        return False
    if delta == 0 and a == r and diff % 8 != 0:
        return False
    return True


class ComplementProfile(NamedTuple):
    """Forced invariants of the orthogonal complement of a primitive even
    sublattice of an even unimodular lattice: signature by subtraction, and
    discriminant form the negation of the sublattice's."""
    signature: Signature
    form: FiniteQuadraticForm


def unimodular_complement_profile(M: IntegralLattice, ambient_sig) -> ComplementProfile:
    amb = Signature(*ambient_sig)
    sig = M.signature
    pos, neg = amb.positive - sig.positive, amb.negative - sig.negative
    if pos < 0 or neg < 0:
        raise DoesNotFit(
            f"signature {tuple(sig)} does not fit inside {tuple(amb)}")
    form = discriminant_form(rescale(M, -1))
    return ComplementProfile(Signature(pos, neg), form)


def _torsion_q_multiset(form: FiniteQuadraticForm, m: int) -> dict:
    """Value multiset of q over the elements killed by m: on the factor Z/d
    those are the multiples k * step of step = d / gcd(m, d)."""
    return form.value_counts([range(0, d, d // gcd(m, d))
                              for d in form.factors])


@certificate("phi2.no-associated-k3", "no rank-8 hyperbolic lattice glues "
             "the transcendental lattice into the K3 lattice",
             "no even hyperbolic rank-8 lattice realizes the discriminant "
             "form forced on the complement of the doubled-E8 transcendental "
             "lattice in the K3 lattice")
def phi2_no_associated_k3():
    """Certify that the rank-14 transcendental lattice with E8(2)-primitive
    part admits no primitive embedding into the K3 lattice.

    The proof chain: a complement K would be even hyperbolic of rank 8 with
    discriminant form of 2-part q_{E8(2)} and 3-part q_{A2}; halving K is
    forced integral and even, leaving a unique 3-elementary candidate, whose
    doubled form has the wrong 3-part.
    """
    details: dict = {}
    ambient = Signature(3, 19)
    embedded = Signature(2, 12)
    k_sig = Signature(ambient.positive - embedded.positive,
                      ambient.negative - embedded.negative)
    details["complement_signature"] = tuple(k_sig)
    ok = k_sig == (1, 7)

    target = discriminant_form(
        direct_sum(catalog.standard("E8(-2)"), catalog.standard("A2")))
    factors = target.factors
    details["target_group_factors"] = factors
    ok = ok and sorted(factors) == [2] * 7 + [6]

    rank_k = sum(k_sig)
    even_factors = sum(1 for f in factors if f % 2 == 0)
    details["halving_defined"] = even_factors == rank_k
    ok = ok and even_factors == rank_k

    two_part = _torsion_q_multiset(target, 2)
    odd_excluded = all(v.denominator == 1 for v in two_part)
    details["two_part_values"] = sorted(two_part)
    details["odd_half_excluded"] = odd_excluded
    ok = ok and odd_excluded

    # Nikulin 1979, Cor. 1.13.3: an even indefinite lattice of rank at least
    # 2 + l(A) is the only one in its genus, so a halved K is U + E6(-1)
    half = direct_sum(catalog.standard("U"), catalog.standard("E6(-1)"))
    half_factors = discriminant_group(half).factors
    unique = (half.is_even and min(half.signature) > 0
              and half.rank >= 2 + len(half_factors))
    details["unique_3elementary_rank8"] = unique
    ok = ok and unique and half.signature == (1, 7) and half_factors == (3,)
    candidate = rescale(half, 2)
    details["candidate_factors"] = discriminant_group(candidate).factors
    ok = ok and sorted(details["candidate_factors"]) == sorted(factors)

    cand3 = _torsion_q_multiset(discriminant_form(candidate), 3)
    need3 = _torsion_q_multiset(target, 3)
    details["candidate_3_part"] = {str(k): v for k, v in sorted(cand3.items())}
    details["required_3_part"] = {str(k): v for k, v in sorted(need3.items())}
    mismatch = cand3 != need3
    details["three_parts_differ"] = mismatch
    if not mismatch:
        details["verdict"] = "matching 3-part: such a K would exist"
    else:
        details["verdict"] = "no lattice K realizes the forced form"
    return ok and mismatch, details


@certificate("phi3.k3-exists", "the nodal-sextic Neron-Severi lattice "
             "produces a compatible K3 embedding",
             "the nine-nodal sextic double plane's Neron-Severi lattice "
             "matches the complement data of the transcendental lattice "
             "inside the K3 lattice, so a primitive embedding exists")
def phi3_k3_exists():
    """Certify the primitive K3 embedding for the threefold-square involution
    via the nine-nodal sextic double plane.  Every form compared is
    2-elementary, so (signature, a, delta) determine q (Nikulin 1980, 3.6)
    and q's counts on 2-torsion are its counts on the whole group."""
    details: dict = {}
    ns = catalog.nodal_sextic_NS()
    inv = two_elementary_invariants(ns)
    details["ns_invariants"] = (tuple(inv.signature), inv.a, inv.delta)
    ok = inv == (Signature(1, 9), 10, 1)
    ok = ok and two_elementary_exists(inv.signature, inv.a, inv.delta)

    model = direct_sum(catalog.standard("E8(-2)"), catalog.standard("A1"),
                       catalog.standard("A1(-1)"))
    minv = two_elementary_invariants(model)
    details["model_invariants"] = (tuple(minv.signature), minv.a, minv.delta)
    ok = ok and minv == inv
    flipped = rescale(model, -1)
    finv = two_elementary_invariants(flipped)
    details["sign_flipped_model_invariants"] = (tuple(finv.signature),
                                               finv.a, finv.delta)

    prof = unimodular_complement_profile(ns, (3, 19))
    details["complement_signature"] = tuple(prof.signature)
    ok = ok and prof.signature == (2, 10)
    ok = ok and prof.form.factors == (2,) * 10

    ts_model = direct_sum(catalog.standard("E8(-2)"), catalog.standard("U"),
                          catalog.standard("A1"), catalog.standard("A1(-1)"))
    tinv = two_elementary_invariants(ts_model)
    details["transcendental_invariants"] = (tuple(tinv.signature), tinv.a,
                                           tinv.delta)
    ok = ok and tinv == (Signature(2, 10), 10, 1)
    tx_neg = rescale(catalog.transcendental_T(), -1)
    ok = ok and two_elementary_invariants(tx_neg) == tinv

    forced = _torsion_q_multiset(prof.form, 2)
    got = _torsion_q_multiset(discriminant_form(ts_model), 2)
    also = _torsion_q_multiset(discriminant_form(tx_neg), 2)
    agree = forced == got == also
    details["q_multisets_agree"] = agree
    ok = ok and agree
    details["verdict"] = ("nodal-sextic surface realizes the complement; "
                          "embedding exists" if ok else "chain failed")
    return ok, details
