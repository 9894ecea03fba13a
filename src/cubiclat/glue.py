"""Overlattice machinery: isotropic subgroups of discriminant forms and the
finite-index extensions they generate.

An even overlattice of L corresponds to an isotropic subgroup H of (A_L, q_L)
(Nikulin 1979); callers give H by dual-vector lifts of its generators, and
its order is read off L's own form.  The glued Gram decides isotropy:
L + sum Z lift is integral exactly when b vanishes on H x H, and for even L
it is even exactly when q also vanishes on H; only ``isotropic_elements``
reads L's parity.
det(overlattice) * |H|^2 = det(L) holds for every construction and is checked
here: |H| is a Hermite index over classes, det that of the glued Gram.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from . import exact
from .core import (
    BadSplitting,
    FiniteQuadraticForm,
    IntegralLattice,
    NotIsotropic,
    _coords,
    gram_of,
)


def glue_subgroup(ambient: FiniteQuadraticForm, lifts) -> int:
    """Order of the subgroup of ambient generated by the classes of
    dual-vector lifts."""
    return ambient.subgroup_order([ambient.class_of_rational(y) for y in lifts])


def isotropic_elements(form: FiniteQuadraticForm) -> list[tuple[int, ...]]:
    """All nonzero elements with q = 0 mod 2Z on an even lattice, or
    b(x, x) = 0 mod Z on an odd one."""
    even = form.lattice.is_even
    return [e for e in form.elements() if any(e)
            and (form.q(e) if even else form.bilinear(e, e)) == 0]


class Overlattice(NamedTuple):
    """A finite-index extension of an ambient lattice L.

    ``basis[i]`` holds the rational L-basis coordinates of the i-th basis
    vector of the extension, so the rank is ``len(basis)``; ``index`` is the
    extension index.
    """
    lattice: IntegralLattice
    basis: tuple[tuple[Fraction, ...], ...]
    index: int

    def from_ambient(self, w) -> tuple[int, ...]:
        """Coordinates in the extension basis of a rational ambient vector."""
        if len(w) != len(self.basis):
            raise ValueError(f"vector has {len(w)} coordinates, not "
                             f"{len(self.basis)}")
        c = exact.solve_exact(list(zip(*self.basis)), [Fraction(x) for x in w])
        if any(x.denominator != 1 for x in c):
            raise ValueError("vector does not lie in the overlattice")
        return tuple(int(x) for x in c)


def overlattice_from_glue(L: IntegralLattice, lifts) -> Overlattice:
    """The extension of L generated by dual-vector lifts, in rational
    L-basis coordinates, re-based integrally.  ValueError when a lift has
    the wrong length or is not a dual vector; NotIsotropic when the lifts
    pair non-integrally or even L comes out odd."""
    n = L.rank
    lifts = [[Fraction(x) for x in lift] for lift in lifts]
    order = glue_subgroup(L.disc_form, lifts)
    den = lcm(*(f.denominator for lift in lifts for f in lift))
    vectors = [[den * int(i == j) for i in range(n)] for j in range(n)]
    vectors += [[int(den * f) for f in lift] for lift in lifts]
    # den e_1 .. den e_n are among the vectors, so the rank is always n
    hbasis = exact.hermite_column_basis(vectors)
    basis = tuple(tuple(Fraction(x, den) for x in v) for v in hbasis)
    # den-scaled basis vectors are integral, so the Gram is an integer
    # product divided by den^2
    scaled = gram_of(L.gram, hbasis)
    gram = []
    for a in range(n):
        row = []
        for b in range(n):
            num, rem = divmod(scaled[a][b], den * den)
            if rem:
                raise NotIsotropic(
                    "glue lifts do not pair integrally: entry "
                    f"({a},{b}) = {Fraction(scaled[a][b], den * den)}")
            row.append(num)
        gram.append(row)
    out = IntegralLattice(gram)
    if L.is_even and not out.is_even:
        raise NotIsotropic("even ambient glued by a non-isotropic class came out odd")
    if L.det != out.det * order ** 2:
        raise BadSplitting(f"det {L.det} != {out.det} * {order}^2 for the "
                           "overlattice of the glue subgroup")
    return Overlattice(lattice=out, basis=basis, index=order)


def glue_group(L: IntegralLattice, s1, s2) -> tuple[int, ...]:
    """Invariant factors of L/(S1 + S2) for orthogonal spans S1 and S2 whose
    union is a rational basis of L."""
    s1 = [_coords(v, L.rank) for v in s1]
    s2 = [_coords(v, L.rank) for v in s2]
    for v in s1:
        for w in s2:
            if L.pair(v, w) != 0:
                raise BadSplitting(f"spans are not orthogonal: {v} . {w} != 0")
    combined = [*s1, *s2]
    # the spans as rows (A and A^T share their invariant factors); their
    # rank is the number of nonzero diagonal entries of the Smith form
    d, _, _ = exact.smith_normal_form(combined)
    rank = sum(1 for i in range(min(len(d), L.rank)) if d[i][i])
    if len(combined) != L.rank or rank != L.rank:
        raise BadSplitting(f"spans have combined rank {rank}, need {L.rank}")
    return tuple(d[i][i] for i in range(L.rank) if d[i][i] > 1)
