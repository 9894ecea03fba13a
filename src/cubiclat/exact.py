"""Exact integer and rational kernels: elimination, inverse and solve, Smith
form, integer kernels and the Hermite basis of a list of vectors.

Everything in this module works on plain lists of lists holding Python ints
(or Fractions where stated) and never touches floating point.  Matrices are
row-major; "columns of V" etc. always means ``[row[j] for row in V]``.  A
vector family is paired and combined in ``core`` (``gram_of``, ``combine``),
not here.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

IntMatrix = list[list[int]]
FracMatrix = list[list[Fraction]]


def identity(n: int) -> IntMatrix:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def bareiss(a, symmetric: bool = False) -> tuple[IntMatrix, list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix.

    Returns (m, pivots, sign): the k-th pivot sits in row k of the reduced
    matrix m at column pivots[k], and sign is (-1)^(row swaps).  Every entry
    of m is an integer minor of the (permuted) input, so each division by the
    previous pivot is exact.  Pivot k is the minor on the first k+1 rows and
    the columns pivots[:k+1]; for a nonsingular square input sign * (last
    pivot) is the determinant.  It serves det, rank, the signature and
    Fincke-Pohst; ``_inverse`` runs its Gauss-Jordan form in place.

    ``symmetric`` pivots a symmetric matrix by congruence on the diagonal: a
    zero diagonal entry is swapped with a later nonzero one, or else row and
    column k gain a later j with m[k][j] != 0.  The result is the elimination
    of P^T a P for a unimodular P, and it stops at the first zero row of the
    trailing block.
    """
    m = [list(row) for row in a]
    rows = len(m)
    width = len(m[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(width):
        r = len(pivots)
        if r == rows:
            break
        if symmetric:
            if not _congruence_pivot(m, r):
                break
        else:
            p = next((i for i in range(r, rows) if m[i][c]), None)
            if p is None:
                continue
            if p != r:
                m[r], m[p] = m[p], m[r]
                sign = -sign
        prow = m[r]
        pv = prow[c]
        tail = prow[c + 1:]
        for row in m[r + 1:]:
            f = row[c]
            row[c:] = [0, *[(x * pv - f * y) // prev
                            for x, y in zip(row[c + 1:], tail)]]
        pivots.append(c)
        prev = pv
    return m, pivots, sign


def _congruence_pivot(m: IntMatrix, k: int) -> bool:
    """Make m[k][k] nonzero by a congruence on indices >= k; False when row
    k is zero from the diagonal on."""
    if m[k][k]:
        return True
    n = len(m)
    j = next((j for j in range(k + 1, n) if m[j][j]), None)
    if j is not None:
        m[k], m[j] = m[j], m[k]
        for row in m:
            row[k], row[j] = row[j], row[k]
        return True
    j = next((j for j in range(k + 1, n) if m[k][j]), None)
    if j is None:
        return False
    # m[j][j] = 0 too, so the new diagonal entry is 2 m[k][j]
    m[k] = [x + y for x, y in zip(m[k], m[j])]
    for row in m:
        row[k] += row[j]
    return True


def numerators(v) -> tuple[list[int], int]:
    """(integer numerators, common denominator) of a vector of ints and
    Fractions; the empty vector gives ([], 1)."""
    den = lcm(*{x.denominator for x in v})
    return [x.numerator * (den // x.denominator) for x in v], den


def bareiss_det(a: IntMatrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    m, pivots, sign = bareiss(a)
    if len(pivots) < n:
        return 0
    return sign * m[n - 1][n - 1] if n else 1


def _inverse(a) -> tuple[IntMatrix, int]:
    """(m, p) with a^-1 = m / p for a square matrix of ints or Fractions:
    fraction-free Gauss-Jordan in place, with row swaps, on rows cleared of
    denominators (row k's scale c).  Step k writes pivot row k's identity
    column, -f * c off the pivot and prev * c on it, over column k of a, now
    zero off the pivot; a row with f = 0 is only rescaled by pv / prev.  The
    swaps are undone on the columns at the end."""
    m = [numerators(row) for row in a]
    swaps, prev = [], 1
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][0][k]), None)
        if p is None:
            raise ZeroDivisionError("matrix is singular")
        if p != k:
            m[k], m[p] = m[p], m[k]
            swaps.append((k, p))
        prow, c = m[k]
        pv = prow[k]
        for row, _ in m:
            f = row[k]
            if f and row is not prow:
                row[:] = [(x * pv - f * y) // prev for x, y in zip(row, prow)]
                row[k] = -f * c
            elif not f and pv != prev:
                row[:] = [x * pv // prev for x in row]
        prow[k] = prev * c
        prev = pv
    for k, p in reversed(swaps):
        for row, _ in m:
            row[k], row[p] = row[p], row[k]
    return [row for row, _ in m], prev


def frac_inverse(a) -> FracMatrix:
    """Inverse of a square matrix over the rationals, from ``_inverse``."""
    m, p = _inverse(a)
    return [[Fraction(x, p) for x in row] for row in m]


def rational_rank(a) -> int:
    """Rank over Q of a rational matrix."""
    return len(bareiss([numerators(row)[0] for row in a])[1])


def solve_exact(a, b):
    """Solve a x = b over Q for square nonsingular a (ints or Fractions);
    returns a list of Fractions, m b / p from ``_inverse``."""
    m, p = _inverse(a)
    num, den = numerators(b)
    return [Fraction(sum(x * y for x, y in zip(r, num)), p * den) for r in m]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(a) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form of an integer m x n matrix.

    Returns (d, u, v) with u @ a @ v = d, u and v unimodular, d diagonal with
    nonnegative entries d[0][0] | d[1][1] | ....  u rides as m trailing
    columns of d (the identity appended to a), so a row operation is one
    pass over one list; column operations read only the first n columns.
    An elimination changes only the entries of its target row or column
    whose source entry is nonzero, an xgcd combination skips pairs of zero
    entries, and a swap does no arithmetic.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(r) + e for r, e in zip(a, identity(m))]
    v = identity(n)

    t = 0
    while t < min(m, n):
        # pivot: the first nonzero entry (pi, pj) of d[t:, t:] in row order
        for pi in range(t, m):
            row = d[pi]
            for pj in range(t, n):
                if row[pj]:
                    break
            else:
                continue
            break
        else:
            break  # d[t:, t:] is zero
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
        if pj != t:
            for row in d + v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t; plain subtraction when the pivot divides (leaves
            # row t untouched), xgcd combine otherwise (shrinks the pivot)
            src = d[t]
            for i in range(t + 1, m):
                dst = d[i]
                f = dst[t]
                if f:
                    p = src[t]
                    if f % p == 0:
                        q = f // p
                        for k, e in enumerate(src):
                            if e:
                                dst[k] -= q * e
                    else:
                        g, s, w = _xgcd(p, f)
                        x, y = -(f // g), p // g
                        for k, (e, h) in enumerate(zip(src, dst)):
                            if e or h:
                                src[k], dst[k] = s * e + w * h, x * e + y * h
            # clear row t in the same way, on d and v; live rows are nonzero at t
            live = [row for row in d + v if row[t]]
            combined = False
            for j in range(t + 1, n):
                f = src[j]
                if f:
                    p = src[t]
                    if f % p == 0:
                        q = f // p
                        for row in live:
                            row[j] -= q * row[t]
                    else:
                        g, s, w = _xgcd(p, f)
                        x, y = -(f // g), p // g
                        for row in d + v:
                            e, h = row[t], row[j]
                            if e or h:
                                row[t], row[j] = s * e + w * h, x * e + y * h
                        live = [row for row in d + v if row[t]]
                        combined = True
            # only a column xgcd combination can refill column t below the pivot
            if not (combined and any(d[i][t] for i in range(t + 1, m))):
                break
        # divisibility fix-up: the pivot must divide every remaining entry
        # (a unit pivot does); otherwise add the first stray row to row t
        if d[t][t] not in (1, -1):
            stray = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                          if d[i][j] % d[t][t]), None)
            if stray is not None:
                d[t] = [a + b for a, b in zip(d[t], d[stray])]
                continue
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
    return [r[:n] for r in d], [r[n:] for r in d], v


def integer_kernel(a) -> IntMatrix:
    """Saturated basis of {x in Z^n : a x = 0}, returned as a list of columns.

    Result is an n x k matrix (list of k column vectors of length n).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d, _, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    return [[row[j] for row in v] for j in range(rank, n)]


def hermite_column_basis(vectors) -> IntMatrix:
    """Canonical basis of the span of a list of integer vectors.

    Hermite form: returns linearly independent vectors (each a list of
    length m) in echelon order, each one's first nonzero entry (its pivot)
    positive, and every other basis vector reduced into [0, pivot) at that
    pivot's coordinate.
    """
    m = len(vectors[0]) if vectors else 0
    by_pivot: dict[int, list[int]] = {}
    for v in vectors:
        c = list(v)
        while True:
            lead = next((i for i in range(m) if c[i] != 0), None)
            if lead is None:
                break
            b = by_pivot.get(lead)
            if b is None:
                by_pivot[lead] = c
                break
            g, s, t = _xgcd(b[lead], c[lead])
            bp, cp = b[lead] // g, c[lead] // g
            for i in range(lead, m):
                b[i], c[i] = s * b[i] + t * c[i], -cp * b[i] + bp * c[i]
    basis = [by_pivot[p] for p in sorted(by_pivot)]
    for b in basis:
        p = next(i for i in range(m) if b[i] != 0)
        if b[p] < 0:
            for i in range(m):
                b[i] = -b[i]
    for b in reversed(basis):
        p = next(i for i in range(m) if b[i] != 0)
        for c in basis:
            if c is not b:
                q = c[p] // b[p]
                if q:
                    for i in range(m):
                        c[i] -= q * b[i]
    return basis
