"""The four benchmark workloads: seeded inputs, one operation, and its check.

Inputs are generated here from the seed and handed to the program only as
plain ``int`` Gram matrices, ``Fraction`` centers and ``int`` discriminants;
every query builds its own ``IntegralLattice``, so no per-lattice cache can
carry over from one operation to the next.  The checks use only reference
data (``reference.py``) and integer arithmetic written here, never the
program's own asserts, which ``python -O`` strips.

The program is reached through module attributes (``core.IntegralLattice``,
``shortvec.enumerate_by_norm``...) looked up at call time, so the traced run
can rebind them.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import reference as ref
from cubiclat import catalog, checks, core, hassett, shortvec


# --- exact helpers of the benchmark's own -----------------------------------

def block_gram(blocks: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def canonical_gram(parts) -> list[list[int]]:
    """Block sum of scaled catalog Grams, as plain lists of ints."""
    return block_gram([[[s * x for x in row] for row in catalog.resolve(name).gram]
                       for name, s in parts])


def twist(gram, rng: random.Random, moves: int, max_entry: int):
    """Rewrite a Gram in a seeded unimodular basis.

    Returns (g, u, uinv) with g = u gram u^T: a signed permutation followed by
    ``moves`` tries of b_i += k b_j (k = +-1), each kept only if every entry
    stays within max_entry, which bounds the twist.
    """
    n = len(gram)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    u = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    uinv = [list(col) for col in zip(*u)]
    g = [[signs[i] * signs[j] * gram[perm[i]][perm[j]] for j in range(n)]
         for i in range(n)]
    for _ in range(moves if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((1, -1))
        h = [row[:] for row in g]
        h[i] = [a + k * b for a, b in zip(h[i], h[j])]
        for row in h:
            row[i] += k * row[j]
        if max(abs(x) for row in h for x in row) > max_entry:
            continue
        g = h
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        for row in uinv:
            row[j] -= k * row[i]
    return g, u, uinv


def span_index(rows, k: int) -> int:
    """Index in Z^k of the span of integer rows; 0 when not of full rank."""
    rows = [list(r) for r in rows if any(r)]
    index = 1
    for col in range(k):
        while True:
            live = [r for r in rows if r[col]]
            if not live:
                return 0
            p = min(live, key=lambda r: abs(r[col]))
            others = [r for r in live if r is not p]
            if not others:
                break
            for r in others:
                q = r[col] // p[col]
                for j in range(k):
                    r[j] -= q * p[j]
        rows = [r for r in rows if r is not p]
        index *= abs(p[col])
    return index


def norm_counts(matrix, factors) -> Counter:
    """Multiset of b(x, x) in Q/Z over the group Z/d1 x ... from b's matrix."""
    k = len(factors)
    den = 1
    for row in matrix:
        for x in row:
            den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    b = [[int(Fraction(x) * den) for x in row] for row in matrix]
    out: Counter = Counter()
    for c in itertools.product(*(range(d) for d in factors)):
        total = sum(c[i] * c[j] * b[i][j] for i in range(k) for j in range(k)
                    if c[i] and c[j])
        out[str(Fraction(total % den, den))] += 1
    return out


def exact_norm(gram, x, center) -> Fraction:
    y = [Fraction(a) + c for a, c in zip(x, center)]
    return sum(y[i] * gram[i][j] * y[j] for i in range(len(y)) for j in range(len(y)))


def digest(keys) -> str:
    h = hashlib.sha256()
    for k in keys:
        h.update(k.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# --- workloads ---------------------------------------------------------------

class Workload:
    """One item per operation unless a workload says otherwise.  Host-speed
    probes run for ``probe_seconds`` (at least once) before every operation
    and after the last (see ``run.measure``)."""
    probe_seconds = 0.0

    def items(self, inp) -> int:
        return 1


class Invariants(Workload):
    """`lat show --invariants --disc`-style queries on twisted Gram matrices."""
    name = "invariants"
    setup_modules = ("cubiclat.core", "cubiclat.catalog")
    setup_lattices = tuple(sorted({p for parts in ref.INVARIANT_BASES.values()
                                   for p, _ in parts}))
    rounds = 4
    # Ktilde's 49152-element value multiset costs as much as a whole round of
    # the other bases, so it appears once per batch rather than once a round
    once = ("Ktilde",)

    def __init__(self):
        self.grams = {b: canonical_gram(p) for b, p in ref.INVARIANT_BASES.items()}
        self.values = ref.load("invariants.json")

    def inputs(self, seed: int, rounds: int | None = None):
        """Each base once per round (the ``once`` bases once in all) in its
        own seeded basis.  Round r tries 2 * rank * r / (rounds - 1) twist
        moves, so every batch spans the same range of entry sizes."""
        rng = random.Random(f"invariants/{seed}")
        rounds = self.rounds if rounds is None else rounds
        jobs = [(b, 2 * len(g) * r // max(rounds - 1, 1))
                for b, g in self.grams.items() for r in range(rounds)
                if r == 0 or b not in self.once]
        rng.shuffle(jobs)
        return [(b, twist(self.grams[b], rng, moves, 64)[0]) for b, moves in jobs]

    def label(self, inp) -> str:
        return inp[0]

    def op(self, inp):
        L = core.IntegralLattice(inp[1])
        inv = core.basic_invariants(L)
        group = core.discriminant_group(L)
        ginv = L.inverse_gram
        classes = [group.class_of_rational([row[c] for row in ginv])
                   for c in range(L.rank)]
        if L.is_even:
            form = core.discriminant_form(L).value_multiset()
        else:
            form = core.discriminant_bilinear_form(L).bilinear_matrix()
        return inv, group.factors, classes, form

    def check(self, inp, res) -> list[str]:
        base, gram = inp
        inv, factors, classes, form = res
        rank, det, sig, parity, fac = ref.INVARIANTS[base]
        got = (len(gram), inv.determinant, tuple(inv.signature), inv.parity)
        if got != (rank, det, sig, parity):
            return [f"invariants {got} != {(rank, det, sig, parity)}"]
        if tuple(factors) != fac:
            return [f"factors {tuple(factors)} != {fac}"]
        if (len(classes) != rank
                or any(len(c) != len(fac) or not all(0 <= x < d for x, d in zip(c, fac))
                       for c in classes)):
            return ["dual-basis classes out of range"]
        relations = [[d if i == j else 0 for j in range(len(fac))]
                     for i, d in enumerate(fac)]
        if span_index(list(classes) + relations, len(fac)) != 1:
            return ["dual-basis classes do not generate the discriminant group"]
        if parity == "even":
            values = Counter(str(v) for v in form)
        else:
            values = norm_counts(form, fac)
        if values != Counter(self.values[base]):
            return ["discriminant value multiset differs from the canonical basis"]
        return []

    def key(self, res) -> str:
        inv, factors, classes, form = res
        return repr((tuple(inv), tuple(factors), [tuple(c) for c in classes],
                     json.dumps(form, default=str)))


class Enum(Workload):
    """`enumerate_by_norm` on definite lattices, plain and on dual cosets."""
    name = "enum"
    setup_modules = ("cubiclat.shortvec", "cubiclat.catalog")
    setup_lattices = tuple(sorted({p for parts, _ in ref.ENUM_BASES.values()
                                   for p, _ in parts}))
    rounds = 10

    def __init__(self):
        self.grams = {b: canonical_gram(p) for b, (p, _) in ref.ENUM_BASES.items()}
        self.shells = ref.load("enum.json")

    def inputs(self, seed: int, rounds: int | None = None):
        """Per round, each lattice once plain and once on a dual coset.

        Bounds and cosets cycle with the round and half the queries get a
        mild twist, the rest stay reduced (a signed permutation only), so
        every batch does comparable work.  A coset center is a frozen
        canonical representative plus a random lattice vector, carried into
        the query's basis.
        """
        rng = random.Random(f"enum/{seed}")
        jobs = [(b, r, centered) for b in self.grams
                for r in range(self.rounds if rounds is None else rounds)
                for centered in (False, True)]
        rng.shuffle(jobs)
        out = []
        for base, r, centered in jobs:
            gram = self.grams[base]
            n = len(gram)
            g, _, uinv = twist(gram, rng, n // 2 if (r + centered) % 2 else 0, 12)
            bounds = ref.ENUM_BASES[base][1]
            bound = bounds[r % len(bounds)]
            coset = center = None
            if centered:
                cosets = self.shells[base]["cosets"]
                coset = r % len(cosets)
                c = [Fraction(x) + rng.randint(-1, 1) for x in cosets[coset]["center"]]
                center = tuple(sum(uinv[j][i] * c[j] for j in range(n))
                               for i in range(n))
            out.append((base, g, bound, center, coset))
        return out

    def label(self, inp) -> str:
        base, _, bound, _, coset = inp
        return f"{base} bound {bound}" + ("" if coset is None else f" coset {coset}")

    def op(self, inp):
        _, gram, bound, center, _ = inp
        return shortvec.enumerate_by_norm(core.IntegralLattice(gram), bound,
                                          center=center)

    def check(self, inp, res) -> list[str]:
        base, gram, bound, center, coset = inp
        frozen = self.shells[base]
        want = frozen["shells"] if coset is None else frozen["cosets"][coset]["shells"]
        want = {k: v for k, v in want.items() if Fraction(k) <= bound}
        got = {str(Fraction(sl.norm)): len(sl.vectors) for sl in res}
        if got != want:
            return [f"shell counts {got} != {want}"]
        if coset is None:
            for norm, count in ref.CLASSICAL_SHELLS.get(base, {}).items():
                if norm <= bound and got.get(str(norm), 0) != count:
                    return [f"norm {norm}: {got.get(str(norm), 0)} != {count}"]
        c = center or (0,) * len(gram)
        for sl in res:
            if sl.negated:
                return ["positive definite lattice was negated"]
            for v in (sl.vectors[0], sl.vectors[-1]):
                if exact_norm(gram, v, c) != sl.norm:
                    return [f"vector {v} does not have norm {sl.norm}"]
        return []

    def key(self, res) -> str:
        return hashlib.sha256(repr([(str(sl.norm), sl.vectors) for sl in res])
                              .encode()).hexdigest()


class Sweep(Workload):
    """`hassett.labeling_for_d` over a log-uniform sample of admissible d."""
    name = "sweep"
    setup_modules = ("cubiclat.hassett",)
    setup_lattices = ("N",)
    count = 2000

    def __init__(self):
        self.gram = ref.plane_lattice_gram()

    def inputs(self, seed: int, count: int | None = None):
        rng = random.Random(f"sweep/{seed}")
        out = []
        for _ in range(self.count if count is None else count):
            d = int(math.exp(rng.uniform(math.log(8), math.log(10 ** 6))))
            while d % 6 not in (0, 2):
                d -= 1
            out.append(d)
        return out

    def label(self, inp) -> str:
        return f"d = {inp}"

    def op(self, d):
        return hassett.labeling_for_d(d)

    def check(self, d, lab) -> list[str]:
        """3 v.v - (eta.v)^2 = d, and <eta, v> is primitive: the 2x2 minors of
        (eta, v) are coprime, so the saturation has determinant d too."""
        v = list(lab.v)
        g = self.gram
        gv = [sum(a * b for a, b in zip(row, v)) for row in g]
        vv = sum(a * b for a, b in zip(v, gv))
        eta = [1] + [0] * 10
        ev = gv[0]
        if lab.d != d or 3 * vv - ev * ev != d:
            return [f"labeling has discriminant {3 * vv - ev * ev}, not {d}"]
        minors = 0
        for i in range(11):
            for j in range(i + 1, 11):
                minors = gcd(minors, eta[i] * v[j] - eta[j] * v[i])
        if minors != 1:
            return [f"<eta, v> is not primitive (minor gcd {minors})"]
        return []

    def key(self, lab) -> str:
        return repr((lab.d, tuple(lab.v), lab.witness))


class Suite(Workload):
    """`checks run --all --json`: the 20 certificates against frozen reports.

    Untraced, one operation is ``run_checks()`` with default arguments (its
    thread pool included).  Traced, the operations are ``run_checks([id])``
    one id at a time, so per-check spans do not overlap.
    """
    name = "suite"
    # One call lasts 15-30 s, so a single probe on either side says little of
    # the host's speed during it; two seconds of probes read the phase.  (A
    # probe thread beside the pool competes for the GIL it would measure.)
    probe_seconds = 2.0
    setup_modules = ("cubiclat.checks",)
    setup_lattices = ("N", "M")
    ALL = "--all"

    def __init__(self):
        self.reports = {json.loads(line)["check_id"]: line for line in
                        (ref.REFERENCE_DIR / "suite.jsonl").read_text().splitlines()}

    def inputs(self, seed: int, traced: bool = False):
        return sorted(self.reports) if traced else [self.ALL]

    def items(self, inp) -> int:
        return len(self.reports) if inp == self.ALL else 1

    def label(self, inp) -> str:
        return inp

    def op(self, inp):
        return checks.run_checks() if inp == self.ALL else checks.run_checks([inp])

    def check(self, inp, reports) -> list[str]:
        want = sorted(self.reports) if inp == self.ALL else [inp]
        lines = {r.check_id: report_line(r) for r in reports}
        errors = [f"{cid}: report differs from the frozen report"
                  for cid in want if lines.get(cid) != self.reports[cid]]
        if [r.check_id for r in reports] != want:
            errors.append("report ids or order differ")
        return errors

    def key(self, reports) -> str:
        return "\n".join(report_line(r) for r in reports)


def report_line(report) -> str:
    """A report as `checks run --json` prints it, without ``elapsed_ms``."""
    payload = report.to_json()
    payload.pop("elapsed_ms")
    return json.dumps(payload, sort_keys=True)


WORKLOADS = {w.name: w for w in (Suite, Invariants, Enum, Sweep)}
