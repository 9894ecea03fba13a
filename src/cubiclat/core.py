"""Integral lattices with exact arithmetic.

An integral lattice is a free Z-module of finite rank carrying a symmetric
integer Gram matrix with nonzero determinant.  Vectors are integer coordinate
tuples in the lattice basis; dual vectors are rational tuples in the same
basis, paired on integer numerators (an order-2 class as its doubled lift, so
b = ``pair`` / 4 mod 1).  All values (determinants, signatures,
discriminant-form values) are exact: ints and fractions.Fraction throughout,
floats nowhere.

Conventions:
  - discriminant quadratic values live in Q/2Z, reduced into [0, 2);
  - discriminant bilinear values live in Q/Z, reduced into [0, 1).
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from . import exact

ENUMERATION_GUARD = 2 ** 20
# far above the rank-22 K3 lattice; A128 builds its invariants in well under
# a second
MAX_RANK = 128


class LatticeError(Exception):
    pass


class DegenerateLattice(LatticeError):
    pass


class ParityError(LatticeError):
    pass


class NotIntegral(LatticeError):
    pass


class ZeroVector(LatticeError):
    pass


class DependentSpan(LatticeError):
    pass


class IndefiniteLattice(LatticeError):
    pass


class NotRootGenerated(LatticeError):
    pass


class NotIsotropic(LatticeError):
    pass


class TooLarge(LatticeError):
    pass


class TooManyVectors(TooLarge):
    pass


class CrossCheckFailed(LatticeError):
    pass


class BadSplitting(LatticeError):
    pass


class Not2Elementary(LatticeError):
    pass


class DoesNotFit(LatticeError):
    pass


class NoRepresentation(LatticeError):
    pass


class NotAHassettDiscriminant(LatticeError):
    pass


class UnknownLattice(LatticeError):
    pass


class Signature(NamedTuple):
    positive: int
    negative: int


class Invariants(NamedTuple):
    determinant: int
    signature: Signature
    parity: str  # "even" | "odd"


def _coords(v, rank: int) -> tuple[int, ...]:
    """v as a tuple of ints; v must be integral and have ``rank`` entries."""
    vc = tuple(map(int, v))
    if len(vc) != rank:
        raise ValueError(f"vector has {len(vc)} coordinates, not {rank}")
    if vc != tuple(v):
        raise ValueError(f"vector {tuple(v)} has non-integral coordinates")
    return vc


def _gram_product(gram, u, v) -> int:
    """u^T gram v for integer coordinates: one Gram-row product per u_i != 0."""
    return sum(a * sum(map(mul, row, v)) for a, row in zip(u, gram) if a)


def gram_of(gram, vectors) -> list[list[int]]:
    """u^T gram v for each pair of the vectors, from one Gram image per v."""
    images = [[sum(map(mul, row, v)) for row in gram] for v in vectors]
    return [[sum(map(mul, u, gv)) for gv in images] for u in vectors]


def combine(coeffs, vectors) -> tuple:
    """sum c_i v_i, coordinate by coordinate."""
    return tuple(sum(map(mul, coeffs, col)) for col in zip(*vectors))


class IntegralLattice:
    """A finite-rank lattice given by a symmetric nondegenerate integer Gram.

    ``elimination`` is ``exact.bareiss`` of the reversed Gram with
    ``symmetric=True``, made once at construction.  ``det`` is its last
    pivot, since the reversal and the congruence pivoting are unimodular;
    ``signature`` and short-vector enumeration read it too.  The reversal
    makes the first coordinate the outermost level of the Fincke-Pohst walk,
    which then meets vectors in lexicographic order.  ``disc_form`` is the
    lattice's one discriminant form, which is also its group A_L, made on
    first use and returned by ``discriminant_group``, ``discriminant_form``
    and ``discriminant_bilinear_form``.
    """

    def __init__(self, gram: Sequence[Sequence[int]],
                 labels: Sequence[str] | None = None,
                 name: str | None = None):
        rows = [tuple(int(x) for x in row) for row in gram]
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"gram row {i} has length {len(row)}, expected {n}")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(
                        f"gram is not symmetric: entry ({i},{j}) = {rows[i][j]} "
                        f"but ({j},{i}) = {rows[j][i]}")
        if labels is None:
            labels = tuple(f"e{i+1}" for i in range(n))
        else:
            labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for rank {n}")
        if len(set(labels)) != n:
            raise ValueError("labels are not pairwise distinct")
        self.gram: tuple[tuple[int, ...], ...] = tuple(rows)
        self.labels = labels
        self.name = name
        self.rank = n
        self.elimination = exact.bareiss([r[::-1] for r in rows[::-1]],
                                         symmetric=True)
        m, pivots, _ = self.elimination
        if len(pivots) < n:
            raise DegenerateLattice("gram matrix has determinant zero")
        self.det = m[n - 1][n - 1] if n else 1

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<IntegralLattice{tag} rank {self.rank} det {self.det}>"

    def pair(self, u, v) -> int:
        return _gram_product(self.gram, _coords(u, self.rank),
                             _coords(v, self.rank))

    def norm(self, v) -> int:
        return self.pair(v, v)

    def dual_pairings(self, v) -> tuple[int, ...]:
        """The pairings of v with each basis vector, i.e. gram times v."""
        vc = _coords(v, self.rank)
        return tuple(sum(map(mul, row, vc)) for row in self.gram)

    @cached_property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def parity(self) -> str:
        return "even" if self.is_even else "odd"

    @cached_property
    def signature(self) -> Signature:
        return signature_of_gram(self.elimination)

    @cached_property
    def inverse_gram(self) -> list[list[Fraction]]:
        return exact.frac_inverse(self.gram)

    @cached_property
    def disc_form(self) -> FiniteQuadraticForm:
        return FiniteQuadraticForm(self)

    def is_positive_definite(self) -> bool:
        return self.signature == (self.rank, 0)


class Sublattice(NamedTuple):
    """A sublattice presented abstractly plus its embedding into the ambient.

    ``basis`` lists the ambient coordinates of the abstract basis vectors
    (one integer vector per abstract basis element).
    """
    lattice: IntegralLattice
    basis: list[list[int]]

    def to_ambient(self, v) -> tuple[int, ...]:
        return combine(_coords(v, len(self.basis)), self.basis)


def signature_of_gram(elimination) -> Signature:
    """Exact signature by fraction-free congruence elimination: the k-th
    pivot of the diagonalization is D_k / D_{k-1} for the Bareiss pivots D.
    ``elimination`` is ``exact.bareiss(g, symmetric=True)`` for a Gram g of
    the lattice in any basis, such as the reversed Gram behind
    ``IntegralLattice.elimination``; by Sylvester's law of inertia the
    signature does not depend on the basis."""
    m, pivots, _ = elimination
    n = len(m)
    if len(pivots) < n:
        raise DegenerateLattice("degenerate block in signature computation")
    minors = [1] + [m[k][k] for k in range(n)]
    pos = sum(1 for k in range(n) if minors[k] * minors[k + 1] > 0)
    return Signature(pos, n - pos)


def basic_invariants(L: IntegralLattice) -> Invariants:
    return Invariants(L.det, L.signature, L.parity)


class FiniteQuadraticForm:
    """The discriminant form of L: the group A_L = L*/L with b_L: A_L x A_L
    -> Q/Z, and q_L: A_L -> Q/2Z when L is even; on an odd L, ``q`` and the
    value counts raise ParityError.

    A_L comes from the Smith form u G v = diag(d_i): ``factors`` are the
    d_i > 1, generator i is the dual vector column i of v over d_i, and
    ``_u[i]`` is row i of u, which reads a class off dual-basis coordinates.
    |A_L| = |det L|, so a unimodular lattice gets the trivial group without a
    Smith form.  The pairings of the generators are kept scaled to ints
    modulo 2 * ``_scale``, which fixes b mod Z and q mod 2Z.
    """

    def __init__(self, L: IntegralLattice):
        d = u = v = kept = ()
        if abs(L.det) > 1:
            d, u, v = exact.smith_normal_form([list(r) for r in L.gram])
            kept = [i for i in range(L.rank) if d[i][i] > 1]
        self.lattice = L
        self.factors = factors = tuple(d[i][i] for i in kept)
        nums = [[row[i] % d[i][i] for row in v] for i in kept]
        self._u = tuple(tuple(u[i]) for i in kept)
        # generators over one common denominator den: pairings are x / den^2
        den = lcm(*factors)
        lifts = [[x * (den // f) for x in num] for num, f in zip(nums, factors)]
        pair = gram_of(L.gram, lifts)
        d2 = den * den
        scale = lcm(*(d2 // gcd(x, d2) for row in pair for x in row))
        self._scale = scale
        self._pair_scaled = [[x * scale // d2 % (2 * scale) for x in row]
                             for row in pair]

    @property
    def order(self) -> int:
        return prod(self.factors)

    def elements(self) -> Iterator[tuple[int, ...]]:
        if self.order > ENUMERATION_GUARD:
            raise TooLarge(f"discriminant group has {self.order} elements "
                           f"(guard {ENUMERATION_GUARD})")
        return itertools.product(*(range(d) for d in self.factors))

    def subgroup_order(self, classes) -> int:
        """Order of the subgroup the classes generate: |A_L| over the index
        in Z^k of the span of the classes and the relations d_i e_i, which is
        the product of its Hermite pivots."""
        k = len(self.factors)
        rows = [_coords(c, k) for c in classes]
        rows += [[d * (i == j) for i in range(k)] for j, d in enumerate(self.factors)]
        basis = exact.hermite_column_basis(rows)
        return self.order // prod(next(x for x in b if x) for b in basis)

    def class_of_dual_coords(self, z: Sequence[int]) -> tuple[int, ...]:
        """Class of a dual vector given by its integer dual-basis coordinates."""
        if len(z) != self.lattice.rank:
            raise ValueError(f"vector has {len(z)} coordinates, "
                             f"not {self.lattice.rank}")
        return tuple(sum(map(mul, row, z)) % d
                     for row, d in zip(self._u, self.factors))

    def class_of_rational(self, y: Sequence[Fraction]) -> tuple[int, ...]:
        """Class of a dual vector given in rational lattice-basis coordinates,
        by integer Gram-row products over its cleared denominators."""
        num, den = exact.numerators(y)
        z = []
        for pairing in self.lattice.dual_pairings(num):
            c, r = divmod(pairing, den)
            if r:
                raise ValueError("vector is not in the dual lattice")
            z.append(c)
        return self.class_of_dual_coords(z)

    def require_even(self) -> None:
        """ParityError unless the lattice is even, naming an odd basis vector."""
        L = self.lattice
        if not L.is_even:
            bad = next(i for i in range(L.rank) if L.gram[i][i] % 2)
            raise ParityError(
                f"quadratic discriminant form needs an even lattice; "
                f"diagonal entry for basis vector {L.labels[bad]!r} is odd")

    def bilinear(self, c1: Sequence[int], c2: Sequence[int]) -> Fraction:
        """b(x, y) in Q/Z, reduced into [0, 1)."""
        c1, c2 = (_coords(c, len(self.factors)) for c in (c1, c2))
        return Fraction(_gram_product(self._pair_scaled, c1, c2) % self._scale,
                        self._scale)

    def bilinear_matrix(self) -> list[list[Fraction]]:
        """b on each pair of generators."""
        s = self._scale
        return [[Fraction(x % s, s) for x in row] for row in self._pair_scaled]

    def _scaled_values(self, choices) -> Counter:
        """The integer kernel: how often q(c) * _scale mod 2 * _scale takes
        each value over ``product(*choices)``.  After generator i an element's
        future is its state: partial value and later generators' linear terms
        (twice sum_{j<=i} c_j P[j][l]), mod 2 * _scale.  Each level counts
        states, merging equal ones; the last adds values with their weight."""
        p, mod = self._pair_scaled, 2 * self._scale
        states = Counter([(0,) * (len(choices) + 1)])
        for i, cs in enumerate(choices):
            diag, steps = p[i][i], [2 * x for x in p[i][i + 1:]]
            merged = Counter()
            for (v, t, *lin), w in states.items():
                if lin:
                    for c in cs:
                        merged[((v + c * (c * diag + t)) % mod,
                                *[(x + c * s) % mod for x, s in zip(lin, steps)])] += w
                elif w == 1:
                    merged.update((v + c * (c * diag + t)) % mod for c in cs)
                else:
                    for c in cs:
                        merged[(v + c * (c * diag + t)) % mod] += w
            states = merged
        return states if choices else Counter([0])

    def q(self, coeffs: Sequence[int]) -> Fraction:
        """q(x) in Q/2Z, reduced into [0, 2): one Gram product c^T P c."""
        self.require_even()
        c = _coords(coeffs, len(self.factors))
        return Fraction(_gram_product(self._pair_scaled, c, c) % (2 * self._scale),
                        self._scale)

    def value_counts(self, choices) -> dict[Fraction, int]:
        """How often q takes each value over ``product(*choices)``, one
        coefficient list per invariant factor, in increasing order of value."""
        self.require_even()
        if len(choices) != len(self.factors):
            raise ValueError(f"{len(choices)} coefficient lists, "
                             f"not {len(self.factors)}")
        counts = self._scaled_values(choices)
        return {Fraction(v, self._scale): counts[v] for v in sorted(counts)}

    def value_multiset(self) -> tuple[Fraction, ...]:
        self.elements()  # TooLarge before any value is computed
        counts = self.value_counts([range(d) for d in self.factors])
        return tuple(itertools.chain.from_iterable(
            itertools.repeat(v, n) for v, n in counts.items()))


def discriminant_group(L: IntegralLattice) -> FiniteQuadraticForm:
    """A_L, which is L's one discriminant form."""
    return L.disc_form


def discriminant_form(L: IntegralLattice) -> FiniteQuadraticForm:
    """q_L; ParityError on an odd lattice."""
    L.disc_form.require_even()
    return L.disc_form


def discriminant_bilinear_form(L: IntegralLattice) -> FiniteQuadraticForm:
    """b_L, read off the same form object as q_L."""
    return L.disc_form


def divisibility(L: IntegralLattice, v) -> int:
    vc = _coords(v, L.rank)
    if all(x == 0 for x in vc):
        raise ZeroVector("divisibility of the zero vector is undefined")
    return gcd(*L.dual_pairings(vc))


def rescale(L: IntegralLattice, r) -> IntegralLattice:
    r = Fraction(r)
    new = []
    for i, row in enumerate(L.gram):
        out = []
        for j, x in enumerate(row):
            v = r * x
            if v.denominator != 1:
                raise NotIntegral(f"entry ({i},{j}) scales to non-integer {v}")
            out.append(int(v))
        new.append(out)
    name = f"{L.name}({r})" if L.name else None
    return IntegralLattice(new, labels=L.labels, name=name)


def direct_sum(*lattices: IntegralLattice) -> IntegralLattice:
    if not lattices:
        raise ValueError("direct_sum needs at least one summand")
    total = sum(L.rank for L in lattices)
    gram = [[0] * total for _ in range(total)]
    labels: list[str] = []
    offset = 0
    for L in lattices:
        for i in range(L.rank):
            for j in range(L.rank):
                gram[offset + i][offset + j] = L.gram[i][j]
        for lab in L.labels:
            new = lab
            while new in labels:
                new += "'"
            labels.append(new)
        offset += L.rank
    names = [L.name for L in lattices]
    name = " + ".join(names) if all(names) else None
    return IntegralLattice(gram, labels=labels, name=name)


def _sublattice(L: IntegralLattice, basis) -> Sublattice:
    """The sublattice of L on ``basis``."""
    return Sublattice(IntegralLattice(gram_of(L.gram, basis)), basis)


def orthogonal_complement(L: IntegralLattice, vectors) -> Sublattice:
    vs = [list(_coords(v, L.rank)) for v in vectors]
    constraints = [list(L.dual_pairings(v)) for v in vs]
    basis = exact.integer_kernel(constraints) if vs else exact.identity(L.rank)
    # the Gram is nondegenerate, so the constraints have the span's rank
    if len(basis) > L.rank - len(vs):
        raise DependentSpan("spanning vectors are linearly dependent")
    return _sublattice(L, basis)


def saturation(L: IntegralLattice, vectors) -> Sublattice:
    """span_Q(vectors) ∩ L: with u A v = D the left Smith form of the k x n
    span A, row i of u A is d_i times row i of the unimodular v^-1 (Cohen,
    GTM 138, §2.4); dependent exactly when k > n or one of d_0..d_{k-1} is 0."""
    vs = [_coords(v, L.rank) for v in vectors]
    if not vs:
        raise DependentSpan("saturation of the empty span is undefined")
    d, u, _ = exact.smith_normal_form(vs)
    if len(vs) > L.rank or not all(d[i][i] for i in range(len(vs))):
        raise DependentSpan("spanning vectors are linearly dependent")
    qr = [[divmod(x, d[i][i]) for x in combine(r, vs)] for i, r in enumerate(u)]
    if any(r for row in qr for _, r in row):
        raise LatticeError("a Smith row is not divisible by its invariant factor")
    return _sublattice(L, [[q for q, _ in row] for row in qr])
