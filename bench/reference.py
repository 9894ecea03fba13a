"""Reference data the checker compares against.

Two kinds of data live here.  The tables in this file are written by hand
from the catalog docstrings, the README and classical lattice theory; the
program under test never produced them.  The files under ``reference/`` were
frozen once from the program on the canonical (untwisted) bases by
``freeze.py``; a query in a seeded random basis must reproduce them exactly,
so they catch any basis dependence or regression in the program.
"""
from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A base lattice is a direct sum of (catalog or standard name, scale) parts.
# Scaling by -1 flips the sign of the form; the Gram matrices come from the
# catalog at set-up and are then only given to the program as plain ints.
INVARIANT_BASES: dict[str, tuple[tuple[str, int], ...]] = {
    "N": (("N", 1),),
    "N(-1)": (("N", -1),),
    "M": (("M", 1),),
    "Ktilde": (("Ktilde", 1),),
    "T": (("T", 1),),
    "K3": (("K3", 1),),
    "NS": (("NS", 1),),
    **{f"Ktau{t}": ((f"Ktau{t}", 1),) for t in range(7)},
    "E8": (("E8", 1),),
    "E8(-1)": (("E8", -1),),
    "E8(2)": (("E8", 2),),
    "D9": (("D9", 1),),
    "D9(-1)": (("D9", -1),),
    "A5": (("A5", 1),),
    "A5(-1)": (("A5", -1),),
    "<24>": (("<24>", 1),),
    "A2+<-1>": (("A2", 1), ("<-1>", 1)),
    "D4+<3>": (("D4", 1), ("<3>", 1)),
    "A1+A1(-1)+U": (("A1", 1), ("A1", -1), ("U", 1)),
    "U+E8(-1)": (("U", 1), ("E8", -1)),
    "<2>+<-6>": (("<2>", 1), ("<-6>", 1)),
}


def _ktau_det(t: int) -> int:
    # Gram [[3,3,3],[3,7,t],[3,t,7]] is congruent to <3> + [[4,t-3],[t-3,4]]
    return 3 * (16 - (t - 3) ** 2)


# name -> (rank, det, (t+, t-), parity, invariant factors of the
# discriminant group).  Catalog entries follow the README tour and the
# catalog docstrings; the others are classical (A_n: det n+1, D_n: det 4
# and A = Z/4 for odd n, E8 unimodular, U hyperbolic with det -1).
INVARIANTS: dict[str, tuple[int, int, tuple[int, int], str, tuple[int, ...]]] = {
    "N": (11, 1024, (11, 0), "odd", (2,) * 10),
    "N(-1)": (11, -1024, (0, 11), "odd", (2,) * 10),
    "M": (10, 3072, (10, 0), "even", (2,) * 9 + (6,)),
    "Ktilde": (10, 24 * 4 * 2 ** 9, (10, 0), "even", (2,) * 8 + (8, 24)),
    "T": (12, 256 * 2 * -2 * -1, (10, 2), "even", (2,) * 10),
    "K3": (22, -1, (3, 19), "even", ()),
    "NS": (10, 2 * (-2) ** 9, (1, 9), "even", (2,) * 10),
    "Ktau0": (3, _ktau_det(0), (3, 0), "odd", (21,)),
    "Ktau1": (3, _ktau_det(1), (3, 0), "odd", (6, 6)),
    "Ktau2": (3, _ktau_det(2), (3, 0), "odd", (3, 15)),
    "Ktau3": (3, _ktau_det(3), (3, 0), "odd", (4, 12)),
    "Ktau4": (3, _ktau_det(4), (3, 0), "odd", (3, 15)),
    "Ktau5": (3, _ktau_det(5), (3, 0), "odd", (6, 6)),
    "Ktau6": (3, _ktau_det(6), (3, 0), "odd", (21,)),
    "E8": (8, 1, (8, 0), "even", ()),
    "E8(-1)": (8, 1, (0, 8), "even", ()),
    "E8(2)": (8, 256, (8, 0), "even", (2,) * 8),
    "D9": (9, 4, (9, 0), "even", (4,)),
    "D9(-1)": (9, -4, (0, 9), "even", (4,)),
    "A5": (5, 6, (5, 0), "even", (6,)),
    "A5(-1)": (5, -6, (0, 5), "even", (6,)),
    "<24>": (1, 24, (1, 0), "even", (24,)),
    "A2+<-1>": (3, -3, (2, 1), "odd", (3,)),
    "D4+<3>": (5, 12, (5, 0), "odd", (2, 6)),
    "A1+A1(-1)+U": (4, 4, (2, 2), "even", (2, 2)),
    "U+E8(-1)": (10, -1, (1, 9), "even", ()),
    "<2>+<-6>": (2, -12, (1, 1), "even", (2, 6)),
}

# Positive definite lattices of the enum workload with the norm bounds a
# query may use (each keeps a query between about 10^2 and 10^4 vectors).
ENUM_BASES: dict[str, tuple[tuple[tuple[str, int], ...], tuple[int, ...]]] = {
    "E8": ((("E8", 1),), (4, 6)),
    "D9": ((("D9", 1),), (4, 5)),
    "A5": ((("A5", 1),), (8, 10)),
    "D7+A1": ((("D7", 1), ("A1", 1)), (4, 5)),
    "N": ((("N", 1),), (5, 6, 7)),
    "M": ((("M", 1),), (8, 10)),
    "E8(2)": ((("E8", 2),), (8, 12)),
    "Ktilde": ((("Ktilde", 1),), (8, 12)),
    "Ktau0": ((("Ktau0", 1),), (30, 60)),
    "Ktau2": ((("Ktau2", 1),), (30, 60)),
    "Ktau4": ((("Ktau4", 1),), (30, 60)),
    "Ktau6": ((("Ktau6", 1),), (30, 60)),
}

# Classical shell counts (norm -> number of vectors) of the enum lattices:
# E8 theta series 240, 2160, 6720; D9 = {x in Z^9 : sum x even}, so norm 2
# is 2n(n-1) = 144 and norm 4 is 16*C(9,4) + 2*9 = 2034 with no odd norms;
# A5 has n(n+1) = 30 roots; D7+A1 has 84 + 2; E8(2) doubles every E8 norm.
CLASSICAL_SHELLS: dict[str, dict[int, int]] = {
    "E8": {2: 240, 4: 2160, 6: 6720},
    "D9": {2: 144, 4: 2034, 3: 0, 5: 0},
    "A5": {2: 30},
    "D7+A1": {2: 86},
    "E8(2)": {2: 0, 4: 240, 8: 2160, 12: 6720},
}


def plane_lattice_gram() -> list[list[int]]:
    """Gram of N on (eta, y, F1..F9), derived from the pairing rules alone.

    Every symbol class has norm 3, eta meets every class in 1, P meets each
    fibre plane in -1 and distinct fibre planes meet in 1; y = (P + sum F)/2.
    Hence eta.y = 5, y.y = (3 - 18 + 27 + 72)/4 = 21 and y.F_i = 5.
    """
    gram = [[1] * 11 for _ in range(11)]
    for i in range(11):
        gram[i][i] = 3
    gram[0][1] = gram[1][0] = 5
    gram[1][1] = 21
    for i in range(2, 11):
        gram[1][i] = gram[i][1] = 5
    return gram


def load(name: str):
    path = REFERENCE_DIR / name
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in path.read_text().splitlines() if line]
    return json.loads(path.read_text())
