"""Diophantine labelings: a primitive rank-2 sublattice of N through eta for
every admissible discriminant d > 6, d = 0 or 2 mod 6.

Witness vectors live in the frame alpha_1, alpha_3, alpha_5, alpha_7 (norm 4,
orthogonal to eta), beta = eta - P - F_9 (norm 3, eta-degree 1) and
gamma = y - F_5 - ... - F_9 (norm 6, orthogonal to eta); for
v = sum x_i alpha_i + s beta + t gamma the span <eta, v> has discriminant
12(x_1^2+x_3^2+x_5^2+x_7^2) + 8 s^2 + 18 t^2, primitive for coprime minors.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from operator import mul
from typing import NamedTuple

from . import catalog
from .core import NoRepresentation, NotAHassettDiscriminant, combine
from .report import certificate


def _square_reps(n: int, a: int = 1, b: int = 1):
    """Every n = a(x^2+y^2+z^2) + b u^2 with x >= y >= z >= 0 and u >= 0, in
    descending lexicographic order of (x, y, z), for (a, b) = (1, 1) or (2, 3).

    For (1, 1) the first representation, and the first one with an even
    coordinate, already have u <= z: a u > z sorts into a larger leading
    triple of the same coordinates, which comes earlier.  Skipped branches
    cannot yield: for (1, 1) an x with n - x^2 = 4^k(8m+7) (Legendre) and a y
    with r2 = 3 mod 4; for (2, 3), where r2 = 2z^2 mod 3, a y with
    r2 = 1 mod 3 and, when 3 | r2, each z prime to 3."""
    for x in range(isqrt(n // a), -1, -1):
        r1 = n - a * x * x
        if b == 1 and r1 and (r1 >> ((r1 & -r1).bit_length() - 1 & ~1)) % 8 == 7:
            continue
        for y in range(min(x, isqrt(r1 // a)), -1, -1):
            r2 = r1 - a * y * y
            if r2 % 4 == 3 if b == 1 else r2 % 3 == 1:
                continue
            top, step = min(y, isqrt(r2 // a)), 3 if b == 3 and r2 % 3 == 0 else 1
            for z in range(top - top % step, -1, -step):
                r3 = r2 - a * z * z
                if r3 % b:
                    continue
                u = isqrt(r3 // b)
                if b * u * u == r3:
                    yield (x, y, z, u)


def four_squares(n: int) -> tuple[int, int, int, int]:
    """A representation n = x^2+y^2+z^2+u^2 with x >= y >= z >= u, largest
    leading square first (one exists for every n >= 0, by Lagrange)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return next(_square_reps(n))


def ramanujan_rep(n: int) -> tuple[int, int, int, int]:
    """A representation n = 2x^2+2y^2+2z^2+3u^2; impossible exactly for 1, 17."""
    if n < 1:
        raise ValueError("n must be positive")
    rep = next(_square_reps(n, 2, 3), None)
    if rep is None:
        raise NoRepresentation(f"{n} is not of the form 2x^2+2y^2+2z^2+3u^2")
    return rep


def is_admissible(d: int) -> bool:
    return d > 6 and d % 6 in (0, 2)


def _minor_gcd(x, y) -> int:
    """gcd of the 2x2 minors of the coordinate rows x and y, the index of
    <x, y> in its saturation for independent x, y; a gcd of 1 ends early."""
    g = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            g = gcd(g, x[i] * y[j] - x[j] * y[i])
            if g == 1:
                return 1
    return g


class Labeling(NamedTuple):
    """A verified discriminant-d labeling: v spans with eta a primitive rank-2
    sublattice of N of determinant d."""
    d: int
    v: tuple[int, ...]
    witness: object


def _minus(a, *labels):
    """The class a minus the basis classes of N with the given labels."""
    return combine((1,) + (-1,) * len(labels),
                   (a, *map(catalog.n_class, labels)))


@lru_cache(maxsize=None)
def _frame_vectors():
    """N, eta, y, (alpha_1, alpha_3, alpha_5, alpha_7), beta and gamma."""
    eta, y = catalog.n_class("eta"), catalog.n_class("y")
    alphas = tuple(catalog.m_basis_in_N()[1:8:2])
    beta = combine((1, -1, -1),
                   (eta, catalog.p_in_N(), catalog.n_class("F9")))
    gamma = _minus(y, "F5", "F6", "F7", "F8", "F9")
    return catalog.plane_lattice_N(), eta, y, alphas, beta, gamma


def _four_squares_even(m: int) -> tuple[int, int, int, int]:
    """A four-square representation of m with at least one even coordinate.

    One always exists: a zero coordinate counts, m = 4^a(8b+7) has one via
    m - 4 (three squares), and multiples of 4 via doubling a representation
    of m/4."""
    return next(r for r in _square_reps(m) if any(c % 2 == 0 for c in r))


def _witness(n: int, s: int) -> tuple[int, int, int, int, int]:
    """(x1, x3, x5, x7, t) with n = 2(x1^2+..+x7^2) + 3t^2 for the
    eta-degree-s branch (s = 0 or 1), keeping the frame vector primitive.

    Odd n takes t = 1 (Lagrange).  With s = 1 the frame coordinates are
    x_i + 1 and t, so even n needs an even x_i: an all-odd x with even t
    lands in 2N + eta.  With s = 0 a unit x1 keeps it primitive and
    ``ramanujan_rep`` gives the rest."""
    if n % 2 == 1:
        return (*four_squares((n - 3) // 2), 1)
    if s == 1:
        return (*_four_squares_even(n // 2), 0)
    return (1, *ramanujan_rep(n - 2)) if n > 2 else (1, 0, 0, 0, 0)


def labeling_for_d(d: int) -> Labeling:
    """The labeling of discriminant d, verified by 3 v.v - (eta.v)^2 = d and
    coprime 2x2 minors of (eta, v) (else NoRepresentation); raises
    NotAHassettDiscriminant for d <= 6 or d = 1, 3, 4, 5 mod 6."""
    if not is_admissible(d):
        raise NotAHassettDiscriminant(
            f"d = {d} is not admissible (need d > 6 and d = 0 or 2 mod 6)")
    n, eta, y, alphas, beta, gamma = _frame_vectors()

    if d == 8:
        v = catalog.p_in_N()
        witness = "plane"
    elif d == 14:
        v = _minus(y, "F2", "F4", "F6", "F8")
        witness = "y-F2-F4-F6-F8"
    else:
        k, r = divmod(d, 6)
        s = r // 2
        *xs, t = _witness(k - s, s)
        witness = (*xs, s, t)
        v = combine(witness, (*alphas, beta, gamma))

    gv = n.dual_pairings(v)
    vv, ev = sum(map(mul, gv, v)), sum(map(mul, gv, eta))
    disc = 3 * vv - ev * ev
    if disc != d:
        raise NoRepresentation(f"witness {witness} gives discriminant {disc}, "
                               f"not {d}")
    index = _minor_gcd(eta, v)
    if index != 1:
        raise NoRepresentation(f"witness {witness} has index {index} in its "
                               f"saturation, not a primitive labeling of {d}")
    return Labeling(d=d, v=v, witness=witness)


@certificate("hassett.sweep", "every admissible d <= 10000 carries a "
             "verified labeling",
             "every admissible discriminant d <= {d_max} (d > 6, d = 0 or 2 "
             "mod 6) is realized by a verified primitive rank-2 labeling "
             "through eta")
def hassett_sweep(d_max: int = 10000):
    """Label and verify every admissible discriminant up to d_max."""
    labeled = 0
    failures = []
    for d in range(7, d_max + 1):
        if not is_admissible(d):
            continue
        try:
            labeling_for_d(d)
            labeled += 1
        except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
            failures.append({"d": d, "error": str(exc)})
    details = {
        "d_max": d_max,
        "admissible": labeled + len(failures),
        "labeled": labeled,
        "failures": failures,
    }
    return not failures, details
