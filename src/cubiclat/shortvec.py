"""Bounded-norm vector enumeration in definite lattices.

Branch-and-bound on the ``L D L^T`` decomposition of the Gram matrix
(Fincke-Pohst), read off the lattice's cached fraction-free elimination
``IntegralLattice.elimination``: the pivots and row coefficients come out of
the Bareiss minors as integers, so a lattice is eliminated once however many
plain or centred walks it gets, and only the scaling that depends on the
centre and the bound is redone per call.  The walk is one loop over an
explicit level index on integers; interval endpoints come from
``math.isqrt``, so the search stays exact end to end, and the leaves are
grouped by their integer scaled norm, one ``Fraction`` per norm slice.

The elimination is of the reversed Gram, so the first coordinate is the
outermost level and the walk meets the vectors in lexicographic order: no
slice is sorted.  When the coset is closed under negation (no centre, or
twice the centre integral) the walk covers one sign only, those y = x +
centre whose first nonzero coordinate is positive, and each slice is
completed by the partners -y, which reversed come first in the same order
(Cohen, GTM 138, Algorithm 2.7.7, lists vectors up to sign).

Negative definite inputs are auto-negated; indefinite inputs are rejected,
and a walk that would visit more than ``ENUMERATION_GUARD`` leaves, both
signs counted, raises TooManyVectors.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul, sub
from typing import NamedTuple

from .core import (ENUMERATION_GUARD, IndefiniteLattice, IntegralLattice,
                   NotRootGenerated, TooManyVectors)
from . import exact


class NormSlice(NamedTuple):
    """All vectors of one exact norm; both sign partners are listed."""
    norm: Fraction | int
    vectors: list[tuple[int, ...]]
    negated: bool = False


def _levels(L: IntegralLattice):
    """The Fincke-Pohst levels of a definite lattice as integers, and whether
    its Gram was negated.

    With U the fraction-free elimination of the reversed Gram and D_i its
    pivots (D_0 = 1, D_i the leading i x i minor), norm(x) = sum_i p_i (x_i
    + sum_{j>i} U[i][j] x_j / U[i][i])^2 with p_i = D_{i+1} / D_i in
    reversed coordinates (x_i is coordinate n-1-i), for the Gram itself or
    for its negation when that is the definite one.  The Gram is positive
    definite when every D_i is positive and negative definite when D_i has
    sign (-1)^i (Sylvester); negating it flips the sign of every p_i and
    leaves the coefficients.  Any other pattern raises IndefiniteLattice.

    Level i is returned as (p_num, p_den, r, a): p_i = p_num / p_den in
    lowest terms with both positive, and the coefficients U[i][j] / U[i][i]
    over the least common denominator r > 0 as the integers a (j > i).
    """
    n = L.rank
    u = L.elimination[0]
    minors = [1] + [u[i][i] for i in range(n)]  # a lattice has n pivots
    if all(d > 0 for d in minors):
        negated = False
    elif all((d > 0) == (i % 2 == 0) for i, d in enumerate(minors)):
        negated = True
    else:
        raise IndefiniteLattice(
            "Gram matrix is neither positive definite nor negative definite")
    levels = []
    for i in range(n):
        pivot, row = minors[i + 1], u[i][i + 1:]
        g = gcd(minors[i], pivot)
        h = gcd(pivot, *row) if pivot > 0 else -gcd(pivot, *row)
        levels.append((abs(pivot) // g, abs(minors[i]) // g, pivot // h,
                       [x // h for x in row]))
    return levels, negated


def _walk(k, dens, bases, rows, c, w_den, total):
    """Leaves of the Fincke-Pohst tree, as {scaled norm: [x, ...]}.

    x runs over Z^n with sum_i k[i] * s_i^2 <= total, where s_i = dens[i] *
    x_i + bases[i] + sum_{j>i} rows[i][j-i-1] * w_j and w_j = w_den * x_j +
    c[j]; the key of x is that sum.  Level n-1 is the outermost and every
    level counts upwards, so the leaves, stored as (x_{n-1}, ..., x_0), come
    out in lexicographic order.  Each open level i keeps x[i], its upper end
    hi[i] and the budget rem[i + 1] left by the levels above it; ni[i] is the
    centre term of s_i, set in full when level i + 1 opens and moved by one
    row entry per step of x_{i+1}.  Level 0 runs as a plain range.

    With w_den <= 2 the tree is closed under w -> -w, and the walk keeps only
    the leaves with w = 0 or with w >lex 0 in stored order: level i starts at
    w_i >= 0 while every outer w_j is 0 (fix[i]).  The guard still counts
    both signs, w = 0 once: more than ENUMERATION_GUARD leaves raise
    TooManyVectors.
    """
    n = len(k)
    half = w_den <= 2
    x = [0] * n
    w = list(c) + [0]
    hi = [0] * n
    ni = [0] * (n - 1) + [bases[n - 1]]
    rem = [0] * n + [total]
    fix = [False] * n + [half]
    starts = [-(ci // w_den) for ci in c]  # least x_i with w_i >= 0
    steps = [row[0] * w_den if row else 0 for row in rows]
    out = defaultdict(list)
    count = 0
    i = n - 1
    while True:
        # open level i: the x_i that fit the budget rem[i + 1]
        nc = ni[i]
        budget = rem[i + 1]
        ki, d = k[i], dens[i]
        t = isqrt(budget // ki)
        lo = -((nc + t) // d)
        top = (t - nc) // d
        f = fix[i] = fix[i + 1] and not w[i + 1]
        if f and lo < starts[i]:
            lo = starts[i]
        if not i:
            if lo <= top:  # a sign-fixed start can lie past top + 1
                count += top - lo + 1
                if half:  # each leaf and its partner, w = 0 once
                    count += top - lo + 1 - (f and lo * w_den + c[0] == 0)
                if count > ENUMERATION_GUARD:
                    raise TooManyVectors(f"enumeration visits more than "
                                         f"{ENUMERATION_GUARD} vectors")
                tail = tuple(x[:0:-1])
                used = total - budget
                for x0 in range(lo, top + 1):
                    s = d * x0 + nc
                    out[used + ki * s * s].append((*tail, x0))
            i = 1
        elif lo <= top:
            hi[i] = top
            x[i] = lo - 1
            w[i] = x[i] * w_den + c[i]
            ni[i - 1] = bases[i - 1] + sum(map(mul, rows[i - 1], w[i:]))
        else:
            i += 1
        # step the lowest open level that has room, closing exhausted ones
        while i < n:
            xi = x[i] + 1
            if xi <= hi[i]:
                break
            i += 1
        else:
            return out
        x[i] = xi
        w[i] += w_den
        ni[i - 1] += steps[i - 1]
        s = dens[i] * xi + ni[i]
        rem[i] = rem[i + 1] - k[i] * s * s
        i -= 1


def enumerate_by_norm(L: IntegralLattice, max_norm,
                      center=None) -> list[NormSlice]:
    """Complete list of nonzero vectors with norm <= max_norm, by norm slice.

    With ``center`` (a rational coordinate tuple) the coset center+Z^rank is
    enumerated instead and the zero offset is not excluded.  Vectors within a
    slice are in lexicographic coordinate order, as the walk emits them (no
    sort); slices are sorted by norm.  For a negative definite lattice the
    enumeration runs on the negated Gram and each slice carries negated=True
    (norms refer to the negated form).
    """
    if center is not None and len(center) != L.rank:
        raise ValueError(f"center has {len(center)} coordinates, not {L.rank}")
    levels, negated = _levels(L)
    bound = Fraction(max_norm)
    if not levels or bound < 0:
        return []
    c, w_den = ([0] * L.rank, 1) if center is None else exact.numerators(center)
    # with 2 * center integral the walk keeps y = x + center >lex 0 and y = 0;
    # the partner of x is -x - 2 * center
    minus = [-ci * (2 // w_den) for ci in c] if w_den <= 2 else None
    c = c[::-1]  # the elimination, hence the walk, is on the reversed basis
    # level i carries s_i = (y_i + sum_{j>i} a_ij y_j / r_i) * r_i * w_den
    # with y = x + center; one scale clears each p_i / (r_i * w_den)^2 and
    # the bound
    p_num, p_den, r, rows = zip(*levels)
    dens = [ri * w_den for ri in r]
    scale = lcm(bound.denominator, *(pd * d * d for pd, d in zip(p_den, dens)))
    k = [pn * (scale // (pd * d * d)) for pn, pd, d in zip(p_num, p_den, dens)]
    bases = [ri * ci for ri, ci in zip(r, c)]
    slices = _walk(k, dens, bases, rows, c, w_den,
                   bound.numerator * (scale // bound.denominator))
    if center is None:
        del slices[0]  # a definite form vanishes only at x = 0
    out = []
    for key in sorted(slices):
        norm = Fraction(key, scale)
        val = int(norm) if norm.denominator == 1 else norm
        vectors = slices[key]
        if minus is not None and key:  # y = 0 alone has norm 0
            # negation reverses lexicographic order, and every partner has
            # y <lex 0, so the reversed partners precede the walked vectors
            vectors = [tuple(map(sub, minus, v))
                       for v in reversed(vectors)] + vectors
        out.append(NormSlice(norm=val, vectors=vectors, negated=negated))
    return out


def vectors_of_norm(L: IntegralLattice, norm: int) -> list[tuple[int, ...]]:
    """All vectors whose norm under L's own form is ``norm``: a negative
    definite lattice has them only at negative norms."""
    for sl in enumerate_by_norm(L, abs(norm)):
        if (-sl.norm if sl.negated else sl.norm) == norm:
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


def identify_root_lattice(L: IntegralLattice) -> list[str]:
    """ADE decomposition of the sublattice generated by norm-2 vectors.

    Requires the norm-2 vectors to span L over the rationals; otherwise
    NotRootGenerated.  Returns sorted labels like ["A1", "D9"].

    The reflections x -> x - (x.r) r in norm-2 vectors r preserve L, so
    those vectors form a simply-laced root system.  Its irreducible pieces
    are the connected components of the graph joining two roots that pair
    nonzero, and an irreducible piece is fixed by its rank n and its root
    count (Humphreys, GTM 9, section 11): A_n has n(n+1) roots, D_n has
    2n(n-1), E6, E7 and E8 have 72, 126 and 240, and the counts coincide
    only at A3 = D3, labelled A3.  The E8.roots certificate checks this
    count table against enumeration for A1-A8, D4-D8 and E6-E8.
    """
    if L.rank and not L.is_positive_definite():
        raise IndefiniteLattice("root identification needs a positive definite lattice")
    roots = vectors_of_norm(L, 2)
    span = exact.rational_rank([list(r) for r in roots])
    if span < L.rank:
        raise NotRootGenerated(f"norm-2 vectors span rank {span} < {L.rank}")
    rest = set(roots)
    labels = []
    while rest:
        component = [rest.pop()]
        for r in component:  # grows until the component is closed
            linked = [s for s in rest if L.pair(r, s)]
            rest.difference_update(linked)
            component.extend(linked)
        n = exact.rational_rank([list(r) for r in component])
        label = next((lab for lab in (f"A{n}", f"D{n}", f"E{n}")
                      if ade_root_number(lab) == len(component)), None)
        if label is None:
            raise NotRootGenerated(
                f"{len(component)} roots of rank {n} fit no ADE type")
        labels.append(label)
    return sorted(labels)
