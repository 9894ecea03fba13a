"""Freeze the reference data under ``reference/`` from the program.

Run once, at the commit that defines the benchmark, from the repository
root: ``python3 bench/freeze.py``.  It records, on the canonical bases only:

* ``suite.jsonl``: the 20 ``checks run --all --json`` reports without
  ``elapsed_ms``;
* ``invariants.json``: per base lattice, the multiset of discriminant values
  (q for even lattices, b(x, x) for odd ones);
* ``enum.json``: per enum lattice, the shell counts up to its largest bound,
  plainly and on up to four dual cosets.

Every frozen value that a hand-written table in ``reference.py`` also gives
is cross-checked against it here.  Rerunning this on a later commit would
launder that commit's behaviour into the reference, so a change to these
files needs its own justification.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
from cubiclat import checks, core, shortvec  # noqa: E402
from workloads import canonical_gram, norm_counts, report_line  # noqa: E402


def shells(L, bound, center=None) -> dict[str, int]:
    return {str(Fraction(sl.norm)): len(sl.vectors)
            for sl in shortvec.enumerate_by_norm(L, bound, center=center)}


def freeze_suite() -> str:
    return "".join(report_line(r) + "\n" for r in checks.run_checks())


def freeze_invariants() -> dict:
    out = {}
    for base, parts in ref.INVARIANT_BASES.items():
        L = core.IntegralLattice(canonical_gram(parts))
        rank, det, sig, parity, fac = ref.INVARIANTS[base]
        assert (L.rank, L.det, tuple(L.signature), L.parity) == (rank, det, sig, parity), base
        assert core.discriminant_group(L).factors == fac, base
        if L.is_even:
            values = Counter(str(v) for v in core.discriminant_form(L).value_multiset())
        else:
            values = norm_counts(core.discriminant_bilinear_form(L).bilinear_matrix(), fac)
        out[base] = dict(sorted(values.items()))
    return out


def freeze_enum() -> dict:
    out = {}
    for base, (parts, bounds) in ref.ENUM_BASES.items():
        L = core.IntegralLattice(canonical_gram(parts))
        top = max(bounds)
        plain = shells(L, top)
        for norm, count in ref.CLASSICAL_SHELLS.get(base, {}).items():
            assert plain.get(str(norm), 0) == count, (base, norm)
        centers = []
        for c in range(L.rank):
            col = tuple(row[c] - (row[c].numerator // row[c].denominator)
                        for row in L.inverse_gram)
            if any(col) and col not in centers:
                centers.append(col)
            if len(centers) == 4:
                break
        centers = centers or [tuple(Fraction(0) for _ in range(L.rank))]
        out[base] = {
            "shells": plain,
            "cosets": [{"center": [str(x) for x in c], "shells": shells(L, top, c)}
                       for c in centers],
        }
    return out


def one_entry_per_line(data: dict) -> str:
    return "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                               for k, v in data.items()) + "\n}\n"


def main() -> None:
    out = ref.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    (out / "invariants.json").write_text(one_entry_per_line(freeze_invariants()))
    (out / "enum.json").write_text(one_entry_per_line(freeze_enum()))
    (out / "suite.jsonl").write_text(freeze_suite())


if __name__ == "__main__":
    main()
