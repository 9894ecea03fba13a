"""Spans around the calls into the program's public functions.

The benchmark wraps each hooked function from its own files; ``src/`` is not
changed.  A module-level function is rebound in every ``cubiclat.*`` module
whose attribute is that same function object (``geomchecks``, ``checks`` and
``cli`` import by name); a constructor or method is patched on its class.
Spans record name, start, end, parent and op id, stay in memory while the
run lasts, and every original is restored on exit.

Only one operation runs at a time.  ``run_checks([id])`` runs its check on a
worker thread, so a span opened on a thread with no open span takes the
current operation's span as its parent.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# <module>.<attribute>[.<method>] under cubiclat; a class alone means its
# constructor.
HOOKS = (
    "exact.bareiss_det", "exact.smith_normal_form", "exact.hermite_column_basis",
    "exact.integer_kernel", "exact.frac_inverse", "exact.solve_exact",
    "exact.rational_rank",
    "core.IntegralLattice", "core.signature_of_gram", "core.discriminant_group",
    "core.discriminant_form", "core.discriminant_bilinear_form",
    "core.orthogonal_complement", "core.saturation",
    "core.FiniteQuadraticForm.value_multiset",
    "glue.overlattice_from_glue", "glue.glue_subgroup", "glue.Overlattice.from_ambient",
    "glue.isotropic_elements", "glue.glue_group",
    "shortvec.enumerate_by_norm", "shortvec.identify_root_lattice",
    "geomchecks.admissibility_scan", "hassett.labeling_for_d",
    "classify.two_elementary_invariants",
)

# name -> counter fed from the hooked call's result
COUNTERS = {
    "shortvec.enumerate_by_norm": ("shortvec.vectors_returned",
                                   lambda res: sum(len(sl.vectors) for sl in res)),
}

# name -> (numerator hook, base hook); each ratio is printed with its base
RATIOS = {
    "ratio.signature_per_enum": ("core.signature_of_gram", "shortvec.enumerate_by_norm"),
    "ratio.inverse_per_solve": ("exact.frac_inverse", "exact.solve_exact"),
    "ratio.overlattice_per_scan": ("glue.overlattice_from_glue",
                                   "geomchecks.admissibility_scan"),
}


class HookError(RuntimeError):
    """Some hook targets do not resolve; the message names each one."""


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or None, op id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op_id: int | None = None
        self.op_span: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.op_span
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def begin_op(self, op_id: int, name: str) -> None:
        """Open the root span of one operation."""
        self.op_id = op_id
        self.op_span = None
        self.op_span = self.start(name)

    def end_op(self) -> None:
        self.end(self.op_span)
        self.op_span = None

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _resolve(target: str):
    """(owner, attribute, original) for one hook target, or raise
    LookupError or ImportError."""
    mod_name, *path = target.split(".")
    owner = importlib.import_module(f"cubiclat.{mod_name}")
    for i, part in enumerate(path):
        if part not in vars(owner):
            raise LookupError(f"{owner.__name__ if i == 0 else path[i - 1]} "
                              f"has no attribute {part!r}")
        if i < len(path) - 1:
            owner = vars(owner)[part]
    obj = vars(owner)[path[-1]]
    if isinstance(obj, type):
        if "__init__" not in vars(obj):
            raise LookupError("class defines no constructor of its own")
        return obj, "__init__", vars(obj)["__init__"]
    if not callable(obj):
        raise LookupError("not callable")
    return owner, path[-1], obj


def resolve_all(targets=HOOKS) -> list[tuple[str, object, str, object]]:
    """Resolve every target; raise HookError naming all that do not resolve."""
    out, missing = [], []
    for target in targets:
        try:
            out.append((target, *_resolve(target)))
        except (LookupError, ImportError) as exc:
            missing.append(f"{target} ({exc})")
    if missing:
        raise HookError("trace hooks do not resolve: " + "; ".join(missing))
    return out


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        idx = tracer.start(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if counter:
            tracer.count(counter[0], counter[1](res))
        return res
    return hooked


class installed:
    """Context manager: hooks in place on enter, originals back on exit.

    The binding sites are found once, when it is built, so entering and
    leaving it many times is cheap.
    """

    def __init__(self, tracer: Tracer, targets=HOOKS):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cubiclat" or n.startswith("cubiclat."))]
        # (owner, attribute, original, hooked)
        self.sites: list[tuple[object, str, object, object]] = []
        for target, owner, attr, orig in resolve_all(targets):
            hooked = _wrap(tracer, target, orig)
            if isinstance(owner, type):
                self.sites.append((owner, attr, orig, hooked))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self.sites.append((mod, key, orig, hooked))

    def __enter__(self):
        for owner, attr, _, hooked in self.sites:
            setattr(owner, attr, hooked)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig, _ in self.sites:
            setattr(owner, attr, orig)
        return False


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, check_ids) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name as (value, unit); absent work reads 0."""
    calls = {t: 0 for t in HOOKS}
    self_ms = {t: 0.0 for t in HOOKS}
    check_ms = {c: 0.0 for c in check_ids}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = span[0]
        if name in calls:
            calls[name] += 1
            self_ms[name] += own * 1000
        elif name.startswith("check.") and name[6:] in check_ms:
            check_ms[name[6:]] += (span[2] - span[1]) * 1000
    out: dict[str, tuple[float, str]] = {}
    for t in HOOKS:
        out[f"{t}.calls"] = (calls[t], "count")
        out[f"{t}.self_ms"] = (self_ms[t], "ms")
    for name, _ in COUNTERS.values():
        out[name] = (tracer.counts.get(name, 0), "count")
    for c in check_ids:
        out[f"check.{c}.ms"] = (check_ms[c], "ms")
    for name, (num, base) in RATIOS.items():
        out[name] = (calls[num] / calls[base] if calls[base] else 0.0, "ratio")
    return out

