"""Randomized trial batteries shared by the property tests and the
acceptance suite.

Each suite runs a counted number of independent trials and raises
AssertionError on the first failure, so a clean return means zero failures.
"""

import random
from itertools import product
from math import isqrt

from cubiclat import catalog
from cubiclat.core import (
    IntegralLattice,
    direct_sum,
    discriminant_form,
    rescale,
)
from cubiclat.exact import bareiss_det, smith_normal_form
from cubiclat.shortvec import enumerate_by_norm
from oracles import enumerate_even_overlattices, lift, pair_rational


def random_positive_definite(rng: random.Random, max_rank: int = 4,
                             spread: int = 3) -> IntegralLattice:
    """Gram matrix B^T B for a random nonsingular integer B."""
    rank = rng.randint(1, max_rank)
    while True:
        b = [[rng.randint(-spread, spread) for _ in range(rank)]
             for _ in range(rank)]
        if bareiss_det(b) != 0:
            break
    gram = [[sum(b[k][i] * b[k][j] for k in range(rank))
             for j in range(rank)] for i in range(rank)]
    return IntegralLattice(gram)


_EVEN_BLOCKS = ["A1", "A1(-1)", "A1(2)", "A2", "A2(-1)", "A3", "D4", "<4>",
                "<6>", "<-4>"]


def random_even_lattice(rng: random.Random, max_blocks: int = 3) -> IntegralLattice:
    """A direct sum of small even blocks on a randomly twisted basis."""
    blocks = [catalog.standard(name)
              for name in rng.sample(_EVEN_BLOCKS, rng.randint(1, max_blocks))]
    lat = blocks[0] if len(blocks) == 1 else direct_sum(*blocks)
    gram = [list(row) for row in lat.gram]
    rank = lat.rank
    # random unimodular basis change: row operations applied symmetrically
    for _ in range(2 * rank):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(rank):
            gram[i][k] += c * gram[j][k]
        for k in range(rank):
            gram[k][i] += c * gram[k][j]
    return IntegralLattice(gram)


def _box_norm_counts(L: IntegralLattice, bound: int) -> dict[int, int]:
    """Counts of nonzero vectors by norm <= bound, by brute-force box search.

    For positive definite G and norm(x) <= bound, each coordinate obeys
    x_i^2 <= bound * (G^-1)_ii, so the box is exhaustive.
    """
    ginv = L.inverse_gram
    caps = []
    for i in range(L.rank):
        f = bound * ginv[i][i]
        caps.append(isqrt(f.numerator // f.denominator))
    counts: dict[int, int] = {}
    gram = L.gram
    for x in product(*[range(-c, c + 1) for c in caps]):
        if not any(x):
            continue
        norm = sum(x[i] * gram[i][j] * x[j]
                   for i in range(L.rank) for j in range(L.rank))
        if norm <= bound:
            counts[norm] = counts.get(norm, 0) + 1
    return counts


def shortvec_trials(rng: random.Random, trials: int, bound: int = 4,
                    box_limit: int = 200000) -> int:
    """Short-vector enumeration against the box oracle, and the SNF
    determinant against the fraction-free determinant."""
    done = 0
    while done < trials:
        L = random_positive_definite(rng)
        gram = [list(row) for row in L.gram]
        assert_prod = 1
        snf, _, _ = smith_normal_form(gram)
        for i in range(L.rank):
            assert_prod *= snf[i][i]
        assert assert_prod == abs(bareiss_det(gram))

        ginv = L.inverse_gram
        volume = 1
        for i in range(L.rank):
            f = bound * ginv[i][i]
            volume *= 2 * isqrt(f.numerator // f.denominator) + 1
        if volume > box_limit:
            continue
        expected = _box_norm_counts(L, bound)
        got = {sl.norm: len(sl.vectors) for sl in enumerate_by_norm(L, bound)}
        assert got == expected, (gram, got, expected)
        done += 1
    return done


def disc_lift_trials(rng: random.Random, trials: int) -> int:
    """Well-definedness of the discriminant form: shifting a lift by a
    lattice vector changes neither the class, q mod 2, nor b mod 1."""
    done = 0
    while done < trials:
        L = random_even_lattice(rng)
        form = discriminant_form(L)
        if not form.factors:
            continue
        cls = tuple(rng.randrange(f) for f in form.factors)
        other = tuple(rng.randrange(f) for f in form.factors)
        v = lift(form, cls)
        u = lift(form, other)
        w = [rng.randint(-3, 3) for _ in range(L.rank)]
        v2 = tuple(a + b for a, b in zip(v, w))
        assert form.class_of_rational(v) == cls
        assert form.class_of_rational(v2) == cls
        assert (pair_rational(L, v, v) - pair_rational(L, v2, v2)) % 2 == 0
        assert (pair_rational(L, v, u) - pair_rational(L, v2, u)) % 1 == 0
        assert (form.q(cls) - pair_rational(L, v, v)) % 2 == 0
        done += 1
    return done


def glue_identity_trials(rng: random.Random, min_trials: int,
                         max_index: int = 4) -> int:
    """det(overlattice) * |H|^2 = det(L) over enumerated even overlattices."""
    done = 0
    while done < min_trials:
        L = random_even_lattice(rng)
        for order, ov in enumerate_even_overlattices(L, max_index):
            assert ov.lattice.det * order ** 2 == L.det
            assert ov.index == order
            assert ov.lattice.is_even
            done += 1
    return done


def run_battery(seed: int = 20260823, shortvec: int = 350, disc: int = 400,
                glue: int = 250) -> dict[str, int]:
    """Run all three suites; returns per-suite trial counts (zero failures
    guaranteed by the asserts inside)."""
    rng = random.Random(seed)
    return {
        "shortvec_vs_box_oracle": shortvec_trials(rng, shortvec),
        "discriminant_lift_independence": disc_lift_trials(rng, disc),
        "overlattice_det_identity": glue_identity_trials(rng, glue),
    }
