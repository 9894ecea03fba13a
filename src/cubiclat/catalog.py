"""Named lattice constructors.

Standard root/hyperbolic families plus the specific Gram matrices of the
cubic-fourfold computation: the algebraic lattice N spanned by the square of
the hyperplane class, the half-sum class y and nine fiber plane classes; its
primitive part M; the scroll lattices K_tau; and the associated transcendental
and K3-side models.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial

from . import exact
from .core import (
    MAX_RANK,
    CrossCheckFailed,
    IntegralLattice,
    NotIntegral,
    TooLarge,
    UnknownLattice,
    basic_invariants,
    combine,
    direct_sum,
    gram_of,
    orthogonal_complement,
    rescale,
)

_STD = re.compile(r"^(?P<fam>[ADE])(?P<n>\d+)$")
_BRACKET = re.compile(r"^<(?P<k>-?\d+)>$")
_SCALED = re.compile(r"^(?P<base>.+)\((?P<s>-?\d+)\)$")


def _tree_gram(arms: tuple[int, ...]) -> list[list[int]]:
    """Gram matrix of the simply laced tree with the given arm lengths."""
    n = 1 + sum(arms)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    pos = 1
    for arm in arms:
        prev = 0
        for _ in range(arm):
            g[prev][pos] = g[pos][prev] = -1
            prev = pos
            pos += 1
    return g


def standard(name: str) -> IntegralLattice:
    """A standard lattice by name: An, Dn, E6/E7/E8, U, or <k> for rank one.

    A trailing ``(s)`` in the name multiplies the form, as in ``"E8(2)"`` or
    ``"A1(-1)"``.  A family rank above MAX_RANK raises TooLarge.
    """
    scale = 1
    while (m := _SCALED.match(name)):
        name, scale = m.group("base"), scale * int(m.group("s"))
    if name == "U":
        lat = IntegralLattice([[0, 1], [1, 0]], labels=["u1", "u2"])
    elif (m := _BRACKET.match(name)):
        lat = IntegralLattice([[int(m.group("k"))]], labels=["g"])
    elif (m := _STD.match(name)):
        fam, n = m.group("fam"), int(m.group("n"))
        if n > MAX_RANK:
            raise TooLarge(f"rank {n} is above the limit {MAX_RANK} "
                           "for standard families")
        if fam == "A" and n >= 1:
            gram = _tree_gram((n - 1,))
        elif fam == "D" and n >= 4:
            gram = _tree_gram((1, 1, n - 3))
        elif fam == "E" and n in (6, 7, 8):
            gram = _tree_gram((1, 2, n - 4))
        else:
            raise UnknownLattice(f"no standard lattice {name!r} (need A n>=1, "
                                 f"D n>=4, E n in 6..8)")
        lat = IntegralLattice(gram, labels=[f"{fam.lower()}{i+1}" for i in range(n)])
    else:
        raise UnknownLattice(f"cannot parse lattice name {name!r}")
    if scale != 1:
        lat = rescale(lat, scale)
    return lat


_N_LABELS = ("eta", "y") + tuple(f"F{i}" for i in range(1, 10))


# Pairing rules for the symbol basis (eta, P, F_1..F_9): every class has norm
# 3, eta pairs to 1 with each plane class, P meets each fiber plane in -1, and
# distinct fiber planes meet in 1.
def _symbol_pairing() -> list[list[int]]:
    s = [[1] * 11 for _ in range(11)]
    for i in range(11):
        s[i][i] = 3
    for j in range(2, 11):
        s[1][j] = s[j][1] = -1
    return s


@lru_cache(maxsize=None)
def plane_lattice_N() -> IntegralLattice:
    """The rank-11 algebraic lattice with basis (eta, y, F_1..F_9).

    y is the half-sum (P + F_1 + ... + F_9)/2; P itself is the derived vector
    2y - sum(F_i).
    """
    s = _symbol_pairing()
    # 2 * (eta, y, F_1..F_9) in the symbol basis: integral, as 2y = P + sum F_i
    basis2 = [[2 * (j == a) for j in range(11)] for a in range(11)]
    basis2[1] = [0] + [1] * 10
    gram4 = gram_of(s, basis2)
    bad = next((x for row in gram4 for x in row if x % 4), None)
    if bad is not None:
        raise NotIntegral(f"N has the non-integral pairing {Fraction(bad, 4)}")
    return IntegralLattice([[x // 4 for x in row] for row in gram4],
                           labels=_N_LABELS)


def n_class(label: str) -> tuple[int, ...]:
    """The basis class of N with the given label (eta, y, F1..F9)."""
    i = _N_LABELS.index(label)
    return tuple(int(k == i) for k in range(len(_N_LABELS)))


def n_dual_classes():
    """The dual classes eta*, F_1*..F_9* of N doubled (twice columns 0 and
    2..10 of N's inverse Gram, as integer lists), and whether they generate
    A_N = (Z/2)^10 independently: ten classes that generate a group of order
    2^10 are a basis, so distinct supports give distinct classes."""
    n = plane_lattice_N()
    dg = n.disc_form
    labels = ("eta", *_N_LABELS[2:])
    dual2 = [[2 * row[_N_LABELS.index(a)] for row in n.inverse_gram]
             for a in labels]
    if any(c.denominator != 1 for d in dual2 for c in d):
        raise NotIntegral("twice a dual class of N is not integral")
    # the dual coordinates of e_i* are the unit vector e_i
    classes = [dg.class_of_dual_coords(n_class(a)) for a in labels]
    independent = (dg.factors == (2,) * 10
                   and dg.subgroup_order(classes) == dg.order)
    return [[int(c) for c in d] for d in dual2], independent


def p_in_N() -> tuple[int, ...]:
    """The plane class P in the (eta, y, F_i) basis: P = 2y - sum(F_i)."""
    return (0, 2) + (-1,) * 9


def delta_in_N() -> tuple[int, ...]:
    """The norm-24 class eta - 3P."""
    return combine((1, -3), (n_class("eta"), p_in_N()))


def delta_in_M() -> tuple[int, ...]:
    """The norm-24 class eta - 3P in the (x, alpha_1..alpha_9) basis of M.

    Derived from delta_in_N by pairing against the M-basis and applying the
    inverse Gram matrix; the coordinates come out integral because delta is
    orthogonal to eta and therefore lies in M.
    """
    n = plane_lattice_N()
    rhs = [n.pair(delta_in_N(), v) for v in m_basis_in_N()]
    coords = exact.solve_exact(prim_lattice_M().gram, rhs)
    if any(c.denominator != 1 for c in coords):
        raise NotIntegral("eta - 3P does not lie in M")
    return tuple(int(c) for c in coords)


def m_basis_in_N() -> list[tuple[int, ...]]:
    """The basis (x, alpha_1..alpha_9) of M written in N's coordinates.

    alpha_i = F_i - F_{i+1} for i <= 8, alpha_9 = P + F_8 + F_9 - eta, and
    x = (alpha_1 + alpha_3 + alpha_5 + alpha_7 + F_9 - P)/2.
    """
    f = {i: n_class(f"F{i}") for i in range(1, 10)}
    alphas = [combine((1, -1), (f[i], f[i + 1])) for i in range(1, 9)]
    p = p_in_N()
    alphas.append(combine((1, 1, 1, -1), (p, f[8], f[9], n_class("eta"))))
    two_x = combine((1, 1, 1, 1, 1, -1), (*alphas[0:7:2], f[9], p))
    if any(c % 2 for c in two_x):
        raise NotIntegral("2x is not divisible by 2 in N")
    return [tuple(c // 2 for c in two_x)] + alphas


_GM = [
    [6, 2, -2, 2, -2, 2, -2, 2, -2, 0],
    [2, 4, -2, 0, 0, 0, 0, 0, 0, 0],
    [-2, -2, 4, -2, 0, 0, 0, 0, 0, 0],
    [2, 0, -2, 4, -2, 0, 0, 0, 0, 0],
    [-2, 0, 0, -2, 4, -2, 0, 0, 0, 0],
    [2, 0, 0, 0, -2, 4, -2, 0, 0, 0],
    [-2, 0, 0, 0, 0, -2, 4, -2, 0, 0],
    [2, 0, 0, 0, 0, 0, -2, 4, -2, -2],
    [-2, 0, 0, 0, 0, 0, 0, -2, 4, 0],
    [0, 0, 0, 0, 0, 0, 0, -2, 0, 4],
]


def alpha_d9_2() -> IntegralLattice:
    """D9 doubled, in the alpha-chain basis with the fork at alpha_7."""
    g = [[0] * 9 for _ in range(9)]
    for i in range(9):
        g[i][i] = 4
    for i in range(7):
        g[i][i + 1] = g[i + 1][i] = -2
    g[6][8] = g[8][6] = -2
    return IntegralLattice(g, labels=[f"a{i}" for i in range(1, 10)])


@lru_cache(maxsize=None)
def kappa_tilde() -> IntegralLattice:
    """The index-4 sublattice <24> + D9(2) of M, basis (delta, alpha_1..alpha_9)."""
    return direct_sum(IntegralLattice([[24]], labels=["delta"]), alpha_d9_2())


def kappa_glue_lift() -> tuple[Fraction, ...]:
    """Dual-vector lift of the order-4 glue class 6*xi + 2*beta of kappa_tilde.

    xi is the dual generator delta/24 and beta the dual basis vector of
    alpha_9.
    """
    return tuple(exact.solve_exact(kappa_tilde().gram, [6] + [0] * 8 + [2]))


@lru_cache(maxsize=None)
def prim_lattice_M() -> IntegralLattice:
    """The rank-10 primitive algebraic lattice, basis (x, alpha_1..alpha_9).

    Checked against N on first build: m_basis_in_N is orthogonal to eta with
    Gram _GM, so it spans a finite-index sublattice of eta-perp, and equal
    determinants make the index 1.  The M.glue certificate checks the glue.
    """
    labels = ["x"] + [f"a{i}" for i in range(1, 10)]
    lat = IntegralLattice(_GM, labels=labels)

    n = plane_lattice_N()
    basis = m_basis_in_N()
    eta = n_class("eta")
    if any(n.pair(v, eta) for v in basis):
        raise CrossCheckFailed("the M-basis is not orthogonal to eta in N")
    if gram_of(n.gram, basis) != _GM:
        raise CrossCheckFailed(
            "basis change into N does not reproduce the Gram matrix")
    comp = orthogonal_complement(n, [eta])
    if basic_invariants(comp.lattice) != basic_invariants(lat):
        raise CrossCheckFailed("eta-perp in N has other invariants than M")
    return lat


def scroll_lattice_K(tau: int) -> IntegralLattice:
    """Rank-3 span of eta and two scroll classes meeting in tau points."""
    gram = [[3, 3, 3], [3, 7, tau], [3, tau, 7]]
    return IntegralLattice(gram, labels=["eta", "T1", "T2"])


def eckardt_E6_2() -> IntegralLattice:
    """E6(2): the primitive algebraic lattice of the Eckardt involution."""
    return standard("E6(2)")


@lru_cache(maxsize=None)
def transcendental_T() -> IntegralLattice:
    """E8(2) + A1 + A1(-1) + U, the transcendental lattice model."""
    return direct_sum(standard("E8(2)"), standard("A1"), standard("A1(-1)"),
                      standard("U"))


@lru_cache(maxsize=None)
def k3_lattice() -> IntegralLattice:
    """The even unimodular lattice of signature (3,19): U^3 + E8(-1)^2."""
    return direct_sum(standard("U"), standard("U"), standard("U"),
                      standard("E8(-1)"), standard("E8(-1)"))


def nodal_sextic_NS() -> IntegralLattice:
    """<2> + <-2>^9 on the basis (h, e_1..e_9) of a nodal-sextic double plane."""
    gram = [[0] * 10 for _ in range(10)]
    gram[0][0] = 2
    for i in range(1, 10):
        gram[i][i] = -2
    return IntegralLattice(gram, labels=["h"] + [f"e{i}" for i in range(1, 10)])


CATALOG = {
    "N": plane_lattice_N,
    "M": prim_lattice_M,
    "Ktilde": kappa_tilde,
    "T": transcendental_T,
    "K3": k3_lattice,
    "NS": nodal_sextic_NS,
    **{f"Ktau{tau}": partial(scroll_lattice_K, tau) for tau in range(7)},
}


def resolve(name: str) -> IntegralLattice:
    """Look up a catalog name, falling back to the standard-family parser."""
    builder = CATALOG.get(name)
    if builder is not None:
        return builder()
    try:
        return standard(name)
    except UnknownLattice:
        names = ", ".join(sorted(CATALOG))
        raise UnknownLattice(
            f"unknown lattice {name!r}; catalog names: {names}; or a standard "
            f"name like A5, D9, E8, U, <24>, E8(2)") from None
