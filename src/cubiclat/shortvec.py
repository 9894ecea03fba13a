"""Bounded-norm vector enumeration in definite lattices.

Branch-and-bound on the exact rational ``L D L^T`` decomposition of the Gram
matrix (Fincke-Pohst), read off its fraction-free elimination.  Interval
endpoints at each level are computed with ``math.isqrt`` on cleared
denominators, so the search stays exact end to end.
Negative definite inputs are auto-negated; indefinite inputs are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from .core import IndefiniteLattice, IntegralLattice, NotRootGenerated
from . import exact


@dataclass
class NormSlice:
    """All vectors of one exact norm; both sign partners are listed."""
    norm: Fraction | int
    vectors: list[tuple[int, ...]] = field(default_factory=list)
    negated: bool = False


def _ldl(gram) -> tuple[list[list[Fraction]], bool]:
    """Fincke-Pohst working array of a definite Gram, and whether it was
    negated: q[i][i] pivots, q[i][j] (j>i) coefficients.

    After this, norm(x) = sum_i q[i][i] * (x_i + sum_{j>i} q[i][j] x_j)^2 for
    the Gram itself, or for its negation when that is the definite one.
    With U the fraction-free elimination and D_i its pivots (D_0 = 1, D_i the
    leading i x i minor), q[i][i] = D_{i+1} / D_i and q[i][j] = U[i][j] /
    U[i][i].  The Gram is positive definite when every D_i is positive and
    negative definite when D_i has sign (-1)^i (Sylvester); negating it flips
    the sign of every q[i][i] and leaves every q[i][j].  Any other pattern
    raises IndefiniteLattice.
    """
    n = len(gram)
    u, pivots, _ = exact.bareiss(gram, symmetric=True)
    minors = [1] + [u[i][i] for i in range(len(pivots))]
    if len(pivots) == n and all(d > 0 for d in minors):
        negated = False
    elif len(pivots) == n and all((d > 0) == (i % 2 == 0)
                                  for i, d in enumerate(minors)):
        negated = True
    else:
        raise IndefiniteLattice(
            "Gram matrix is neither positive definite nor negative definite")
    sign = -1 if negated else 1
    return [[0] * i + [Fraction(sign * minors[i + 1], minors[i])]
            + [Fraction(x, u[i][i]) for x in u[i][i + 1:]]
            for i in range(n)], negated


def _enumerate(q, max_norm: Fraction, center: tuple[Fraction, ...]):
    """Yield (x, norm) for all x in Z^n whose shifted norm
    sum_i q[i][i] * (y_i + sum_{j>i} q[i][j] y_j)^2, y = x + center, is at
    most max_norm, for the working array q of ``_ldl``.

    All recursion-level quantities are pre-scaled to integers (one global
    scale clears every pivot and coefficient denominator), so the tree walk
    runs on exact integer arithmetic.
    """
    n = len(q)
    if n == 0:
        return

    w_den = exact.lcm_list([c.denominator for c in center] or [1])
    c_scaled = [int(c * w_den) for c in center]
    row_den = []
    row_num = []
    for i in range(n):
        r = exact.lcm_list([q[i][j].denominator for j in range(i + 1, n)] or [1])
        row_den.append(r)
        row_num.append([int(q[i][j] * r) for j in range(i + 1, n)])
    level_den = [row_den[i] * w_den for i in range(n)]

    scale = Fraction(max_norm).denominator
    for i in range(n):
        scale = scale * (q[i][i].denominator * level_den[i] ** 2) // gcd(
            scale, q[i][i].denominator * level_den[i] ** 2)
    k = [int(q[i][i] * scale) // level_den[i] ** 2 for i in range(n)]
    total = int(Fraction(max_norm) * scale)

    x = [0] * n
    w_int = list(c_scaled)

    def rec(i: int, rem: int):
        if i < 0:
            yield tuple(x), Fraction(total - rem, scale)
            return
        ni = c_scaled[i] * row_den[i] + sum(
            a * w_int[i + 1 + jo] for jo, a in enumerate(row_num[i]))
        t = isqrt(rem // k[i])
        di = level_den[i]
        lo = -((ni + t) // di)
        hi = (t - ni) // di
        for xi in range(lo, hi + 1):
            x[i] = xi
            w_int[i] = xi * w_den + c_scaled[i]
            s = di * xi + ni
            yield from rec(i - 1, rem - k[i] * s * s)
        x[i] = 0
        w_int[i] = c_scaled[i]

    yield from rec(n - 1, total)


def enumerate_by_norm(L: IntegralLattice, max_norm,
                      center=None) -> list[NormSlice]:
    """Complete list of nonzero vectors with norm <= max_norm, by norm slice.

    With ``center`` (a rational coordinate tuple) the coset center+Z^rank is
    enumerated instead and the zero offset is not excluded.  Vectors within a
    slice are in lexicographic coordinate order; slices are sorted by norm.
    For a negative definite lattice the enumeration runs on the negated Gram
    and each slice carries negated=True (norms refer to the negated form).
    """
    q, negated = _ldl(L.gram)
    c = tuple(Fraction(t) for t in center) if center is not None else \
        tuple(Fraction(0) for _ in range(L.rank))
    slices: dict[Fraction, list] = {}
    for v, norm in _enumerate(q, Fraction(max_norm), c):
        if center is None and all(t == 0 for t in v):
            continue
        slices.setdefault(norm, []).append(v)
    out = []
    for norm in sorted(slices):
        vecs = sorted(slices[norm])
        val = int(norm) if norm.denominator == 1 else norm
        out.append(NormSlice(norm=val, vectors=vecs, negated=negated))
    return out


def vectors_of_norm(L: IntegralLattice, norm: int, center=None) -> list[tuple[int, ...]]:
    for sl in enumerate_by_norm(L, norm, center=center):
        if sl.norm == norm:
            return sl.vectors
    return []


def root_count(L: IntegralLattice, norm: int) -> int:
    return len(vectors_of_norm(L, norm))


ADE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "D": lambda n: 2 * n * (n - 1),
    "E": {6: 72, 7: 126, 8: 240}.get,
}


def ade_root_number(label: str) -> int:
    return ADE_ROOT_COUNTS[label[0]](int(label[1:]))


def _component_label(nodes: list[int], adj: dict[int, set[int]]) -> str:
    n = len(nodes)
    degrees = {v: len(adj[v] & set(nodes)) for v in nodes}
    branch = [v for v in nodes if degrees[v] >= 3]
    if not branch:
        return f"A{n}"
    if len(branch) > 1 or degrees[branch[0]] > 3:
        raise NotRootGenerated("norm-2 graph is not an ADE diagram")
    b = branch[0]
    arms = []
    for start in adj[b] & set(nodes):
        length = 1
        prev, cur = b, start
        while True:
            nxt = (adj[cur] & set(nodes)) - {prev}
            if not nxt:
                break
            prev, cur = cur, nxt.pop()
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return f"D{arms[2] + 3}"
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    raise NotRootGenerated("norm-2 graph is not an ADE diagram")


def identify_root_lattice(L: IntegralLattice) -> list[str]:
    """ADE decomposition of the sublattice generated by norm-2 vectors.

    Requires the norm-2 vectors to span L over the rationals; otherwise
    NotRootGenerated.  Returns sorted labels like ["A1", "D9"].
    """
    if L.rank and not L.is_positive_definite():
        raise IndefiniteLattice("root identification needs a positive definite lattice")
    roots = vectors_of_norm(L, 2)
    if exact.rational_rank([list(r) for r in roots]) < L.rank:
        raise NotRootGenerated(
            f"norm-2 vectors span rank {exact.rational_rank([list(r) for r in roots])}"
            f" < {L.rank}")
    # generic positive functional: balanced base-B digits cannot cancel
    big = max(abs(x) for r in roots for x in r)
    base = max(2 * big + 1, L.rank + 1)
    weights = [base ** i for i in range(L.rank)]

    def height(v):
        return sum(w * x for w, x in zip(weights, v))

    positives = [r for r in roots if height(r) > 0]
    pos_set = set(positives)
    simple = []
    for r in positives:
        if not any(tuple(a - b for a, b in zip(r, s)) in pos_set
                   for s in positives if s != r):
            simple.append(r)
    adj = {i: set() for i in range(len(simple))}
    for i in range(len(simple)):
        for j in range(i + 1, len(simple)):
            p = L.pair(simple[i], simple[j])
            if p == -1:
                adj[i].add(j)
                adj[j].add(i)
            elif p != 0:
                raise NotRootGenerated(
                    f"simple-root pairing {p} outside a simply-laced diagram")
    seen: set[int] = set()
    labels = []
    for start in range(len(simple)):
        if start in seen:
            continue
        comp = []
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp.append(v)
            stack.extend(adj[v] - seen)
        labels.append(_component_label(comp, adj))
    labels.sort()
    total = sum(ade_root_number(lab) for lab in labels)
    if total != len(roots):
        raise NotRootGenerated(
            f"{len(roots)} roots but diagram {labels} accounts for {total}")
    return labels
