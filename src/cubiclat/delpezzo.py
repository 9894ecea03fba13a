"""Line combinatorics of a cubic surface in its Picard lattice.

The lattice is <1> + <-1>^6 with basis (l, e_1..e_6) and canonical class
K = -3l + e_1 + ... + e_6, so lines are the classes v with v^2 = -1 and
anticanonical degree v.(-K) = 1.  Two lines are disjoint exactly when they
pair to zero, a sixer is six pairwise-disjoint lines, and each sixer carries
a twisted-cubic class C = (-K + sum of its lines)/3 and a root
alpha = 2C - (sum of its lines).  The certificate checks the counts
(27 lines, 72 sixers, 36 double sixes) and the four-case intersection table
for C.C' over all pairs of distinct sixers by brute force.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from . import exact
from .core import IntegralLattice, NotIntegral, combine, gram_of, rescale
from .report import certificate
from .shortvec import identify_root_lattice


class PicardBasis(NamedTuple):
    lattice: IntegralLattice
    canonical: tuple[int, ...]


class Sixer(NamedTuple):
    """Six pairwise-disjoint lines with their twisted-cubic class and root."""
    lines: tuple[tuple[int, ...], ...]
    cubic: tuple[int, ...]
    root: tuple[int, ...]


@lru_cache(maxsize=None)
def picard_basis() -> PicardBasis:
    gram = [[0] * 7 for _ in range(7)]
    gram[0][0] = 1
    for i in range(1, 7):
        gram[i][i] = -1
    lat = IntegralLattice(gram, labels=["l"] + [f"e{i}" for i in range(1, 7)])
    return PicardBasis(lat, (-3, 1, 1, 1, 1, 1, 1))


@lru_cache(maxsize=None)
def line_classes() -> tuple[tuple[int, ...], ...]:
    """All classes of norm -1 and anticanonical degree 1; 27 of them."""
    pic = picard_basis()
    lat = pic.lattice
    anti = tuple(-c for c in pic.canonical)
    found = []
    # For v = a*l + sum(c_i e_i) the degree condition 3a + sum(c_i) = 1 and
    # the norm condition a^2 - sum(c_i^2) = -1 force 0 <= a <= 2 and
    # |c_i| <= 1, so this box is exhaustive.
    for a in range(3):
        for cs in product((-1, 0, 1), repeat=6):
            v = (a,) + cs
            if lat.norm(v) == -1 and lat.pair(v, anti) == 1:
                found.append(v)
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def sixers() -> tuple[Sixer, ...]:
    """All 6-cliques of pairwise-disjoint lines; 72 of them."""
    pic = picard_basis()
    lat = pic.lattice
    lines = line_classes()
    n = len(lines)
    disjoint = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if lat.pair(lines[i], lines[j]) == 0:
                disjoint[i].add(j)
                disjoint[j].add(i)

    cliques: list[tuple[int, ...]] = []

    def extend(chosen: list[int], allowed: set[int]):
        if len(chosen) == 6:
            cliques.append(tuple(chosen))
            return
        for j in sorted(allowed):
            chosen.append(j)
            extend(chosen, {k for k in allowed if k > j and k in disjoint[j]})
            chosen.pop()

    extend([], set(range(n)))

    out = []
    for clique in cliques:
        members = [lines[i] for i in clique]
        total = combine((1,) * 6, members)
        numer = combine((1, -1), (total, pic.canonical))
        if any(x % 3 for x in numer):
            raise NotIntegral(
                f"sixer {clique}: sum of lines minus K is not divisible by 3")
        cubic = tuple(x // 3 for x in numer)
        root = combine((2, -1), (cubic, total))
        out.append(Sixer(tuple(members), cubic, root))
    return tuple(out)


def double_sixes() -> list[tuple[Sixer, Sixer]]:
    """Unordered sixer pairs whose roots are negatives of each other."""
    sxs = sixers()
    by_root = {s.root: s for s in sxs}
    pairs = []
    for s in sxs:
        neg = tuple(-c for c in s.root)
        partner = by_root.get(neg)
        if partner is not None and s.root < neg:
            pairs.append((s, partner))
    return pairs


def _root_span_labels() -> list[str]:
    """ADE type of the negated span of the sixer roots."""
    basis = exact.hermite_column_basis([s.root for s in sixers()])
    gram = gram_of(picard_basis().lattice.gram, basis)
    return identify_root_lattice(rescale(IntegralLattice(gram), -1))


@certificate("delpezzo.lemma", "27 lines, 72 sixers, 36 double sixes, and "
             "the four-case intersection table",
             "27 lines, 72 sixers and 36 double sixes, with the four-case "
             "twisted-cubic intersection table holding over all 2556 sixer "
             "pairs")
def intersection_lemma_verify():
    """Brute-force certificate for the twisted-cubic intersection table.

    For every pair of distinct sixers, with C, C' their twisted-cubic
    classes and alpha, beta their roots, exactly one of four cases holds:
    C.C' = 2 with (alpha, beta) = -1, C.C' = 3 with (alpha, beta) even,
    C.C' = 4 with (alpha, beta) = 1, or C.C' = 5 with beta = -alpha (a
    double six).  The even pairings that actually occur in the C.C' = 3
    case are reported rather than assumed.
    """
    pic = picard_basis()
    lat = pic.lattice
    anti = tuple(-c for c in pic.canonical)
    lines = line_classes()
    sxs = sixers()
    problems: list[dict] = []

    for s in sxs:
        if lat.norm(s.cubic) != 1 or lat.pair(s.cubic, anti) != 3:
            problems.append({"kind": "cubic", "cubic": s.cubic})
        if lat.norm(s.root) != -2 or lat.pair(s.root, pic.canonical) != 0:
            problems.append({"kind": "root", "root": s.root})
        if any(lat.pair(s.root, f) != 1 for f in s.lines):
            problems.append({"kind": "root-line", "root": s.root})

    roots = {s.root for s in sxs}
    negation_closed = all(tuple(-c for c in r) in roots for r in roots)
    dsx = double_sixes()

    # C.C' and (alpha, beta) for every sixer pair, one table each
    cubic_gram = gram_of(lat.gram, [s.cubic for s in sxs])
    root_gram = gram_of(lat.gram, [s.root for s in sxs])
    distribution: Counter[int] = Counter()
    even_pairings: set[int] = set()
    for i in range(len(sxs)):
        for j in range(i + 1, len(sxs)):
            m = cubic_gram[i][j]
            p = root_gram[i][j]
            double = sxs[j].root == tuple(-c for c in sxs[i].root)
            cases = {2: p == -1, 3: p % 2 == 0 and not double,
                     4: p == 1, 5: double}
            if not cases.get(m, False):
                problems.append({"kind": "table", "product": m,
                                 "pairing": p, "pair": (i, j)})
            elif m == 3:
                even_pairings.add(p)
            distribution[m] += 1

    details = {
        "lines": len(lines),
        "sixers": len(sxs),
        "double_sixes": len(dsx),
        "pairs": sum(distribution.values()),
        "distribution": dict(sorted(distribution.items())),
        "roots_distinct": len(roots) == len(sxs),
        "roots_negation_closed": negation_closed,
        "syzygetic_pairings": sorted(even_pairings),
        "root_span": _root_span_labels(),
        "problems": problems,
    }
    ok = (len(lines) == 27 and len(sxs) == 72 and len(dsx) == 36
          and not problems and distribution[5] == 36
          and details["roots_distinct"] and negation_closed
          and details["root_span"] == ["E6"])
    return ok, details
