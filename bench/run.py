"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {suite,invariants,enum,sweep} \
        --seed N --seconds S --trace {0,1}

Run from the repository root (or from any checkout of it); the program is
imported from ``src/``, which needs no build.  One run is one fresh
interpreter and a closed loop with one caller: the next operation starts when
the previous one has returned.

``--trace 0`` measures set-up in fresh child interpreters, then repeats the
workload's fixed batch of operations until ``--seconds`` is used up and
reports the end-to-end metrics (each operation at its median over the
batches, rescaled to the host's fastest observed speed; see ``measure``).
``--trace 1`` runs the batch once untraced to fill caches, then each operation untraced
and traced back to back, with spans around the program's public functions,
and reports the per-layer metrics.  Every output is checked
against reference data; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details, the
environment record and the spans go to ``.bench_out/`` under the root.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
PERCENTILES = (50, 90, 99, 99.9)

SETUP_CODE = """\
import importlib, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
for m in {modules!r}:
    importlib.import_module(m)
from cubiclat import catalog
for name in {lattices!r}:
    catalog.resolve(name)
took = time.perf_counter() - t0
from fractions import Fraction
{probe}
speeds = [probe() for _ in range(20)][10:]
print(took, sum(speeds) / len(speeds))
"""


def probe() -> float:
    """Seconds for a fixed piece of pure-Python ``Fraction`` arithmetic, the
    kind of work the program does: a reading of the host's current speed."""
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 60):
        x += Fraction(i * 7919, i + 13) * (i % 17)
    return time.perf_counter() - t0


def probe_gap(seconds: float) -> list[float]:
    """Probe readings for at least ``seconds`` (at least one reading)."""
    end = time.perf_counter() + seconds
    readings = [probe()]
    while time.perf_counter() < end:
        readings.append(probe())
    return readings


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def highest_percentile(n: int, candidates=PERCENTILES):
    """The highest candidate percentile with at least 10 of n samples beyond
    it, or None when even the median has fewer."""
    ok = [p for p in candidates if n * (100 - Fraction(str(p))) / 100 >= 10]
    return max(ok) if ok else None


def measure_setup(w) -> list[tuple[float, float]]:
    """Seconds for a fresh interpreter to import the workload's entry modules
    and resolve the catalog lattices its inputs derive from, each with the
    mean host-speed probe that interpreter ran right after (the last ten of
    twenty, once the interpreter has specialised the probe's code)."""
    code = SETUP_CODE.format(src=str(SRC), modules=w.setup_modules,
                             lattices=w.setup_lattices,
                             probe=inspect.getsource(probe))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        took, speed = proc.stdout.split()[-2:]
        times.append((float(took), float(speed)))
    return times


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cubiclat").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_record(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Batch:
    """One pass over the fixed inputs: per-op times, results and errors."""

    def __init__(self):
        # arrays, so that the harness's own memory, which peak_rss_mb counts,
        # stays small however many batches a run fits
        self.op_s = array("d")
        self.cpu_s = array("d")
        self.probe_s = array("d")  # mean probe reading of each gap
        self.fastest_probe = math.inf
        self.keys: list[str | None] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def probe_gap(self, seconds: float) -> None:
        readings = probe_gap(seconds)
        self.probe_s.append(statistics.fmean(readings))
        self.fastest_probe = min(self.fastest_probe, *readings)

    def add(self, other: "Batch") -> None:
        self.op_s += other.op_s
        self.cpu_s += other.cpu_s
        self.keys += other.keys
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    @property
    def wall(self) -> float:
        return sum(self.op_s)

    @property
    def cpu(self) -> float:
        return sum(self.cpu_s)


def run_batch(w, inputs, tracer=None, reference_keys=None, first_id=0,
              probe_seconds=None) -> Batch:
    """Run every input once, timing each operation from outside; the check
    of each result runs between operations and is excluded from the times.
    Given the keys of a checked batch, a result is checked by comparing its
    key with the one at the same position.  Given ``probe_seconds``, host-speed
    probes run that long before each operation and after the last one."""
    batch = Batch()
    for i, inp in enumerate(inputs):
        if probe_seconds is not None:
            batch.probe_gap(probe_seconds)
        if tracer is not None:
            tracer.begin_op(first_id + i, f"check.{inp}" if w.name == "suite" else "op")
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            res, exc = w.op(inp), None
        except Exception as e:  # noqa: BLE001 - a raising op counts as failed
            res, exc = None, e
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.end_op()
        batch.op_s.append(t1 - t0)
        batch.cpu_s.append(c1 - c0)
        items = w.items(inp)
        batch.attempted += items
        if exc is not None:
            errors = [f"raised {type(exc).__name__}: {exc}"]
            batch.failed += items
            batch.keys.append(None)
        else:
            errors = w.check(inp, res) if reference_keys is None else []
            key = hashlib.sha256(w.key(res).encode()).hexdigest()[:16]
            batch.keys.append(key)
            if reference_keys is not None and key != reference_keys[i]:
                errors.append("result differs from the first batch's")
            batch.failed += min(items, len(errors))
        batch.errors += [f"{w.label(inp)}: {e}" for e in errors]
    if probe_seconds is not None:
        batch.probe_gap(probe_seconds)
    return batch


def summarize(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def at_full_speed(batches: list[Batch], fastest: float, field: str) -> list[float]:
    """Each operation's median over the batches of its time (``op_s`` or
    ``cpu_s``) times fastest / the mean probe reading of the two gaps around
    it."""
    def rescaled(b: Batch, i: int) -> float:
        around = (b.probe_s[i] + b.probe_s[i + 1]) / 2
        return getattr(b, field)[i] * fastest / around

    return [statistics.median(rescaled(b, i) for b in batches)
            for i in range(len(batches[0].op_s))]


def measure(w, inputs, seconds: float, setup) -> tuple[dict, dict, list[Batch]]:
    """Repeat the batch until the next one would overrun ``seconds``; report
    it and the set-up samples from ``measure_setup``."""
    batches: list[Batch] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ref_keys = batches[0].keys if batches else None
        batches.append(run_batch(w, inputs, reference_keys=ref_keys,
                                 probe_seconds=w.probe_seconds))
        took = time.perf_counter() - t0
        if len(batches) > 1:
            batches[-1].keys = []  # compared with the first batch's already
        if time.perf_counter() - start + took > seconds:
            break
    # A shared host runs this process at two speeds up to about 2x apart, in
    # phases from tens of milliseconds to minutes, so a raw time moves with
    # the share of the run spent slow.  Each operation's time is therefore
    # rescaled by the probes around it to the fastest speed any probe of the
    # run saw, and taken at its median over the batches; so is set-up.
    fastest = min([b.fastest_probe for b in batches] + [p for _, p in setup])
    setup_s = [t * fastest / p for t, p in setup]
    op_s = at_full_speed(batches, fastest, "op_s")
    cpu_s = at_full_speed(batches, fastest, "cpu_s")
    ops = len(inputs)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(op_s), "s"),
        "cpu_s": (sum(cpu_s), "s"),
        "op_ms.p50": (percentile(op_s, 50) * 1000, "ms"),
        "op_ms.p90": (percentile(op_s, 90) * 1000, "ms"),
    }
    detail = {
        "setup_s": summarize(setup_s),
        "raw_setup_s": summarize([t for t, _ in setup]),
        "raw_wall_s": summarize([b.wall for b in batches]),
        "host_speed": summarize([fastest / p for b in batches for p in b.probe_s]),
        "raw_cpu_s": summarize([b.cpu for b in batches]),
        "ops_per_batch": ops,
        "batches": len(batches),
        "highest_percentile_per_batch": highest_percentile(ops),
    }
    return metrics, detail, batches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "invariants", "enum", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubiclat" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'cubiclat'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    env = env_record(args)
    w = workloads.WORKLOADS[args.workload]()
    inputs = (w.inputs(args.seed, traced=True) if args.workload == "suite" and args.trace
              else w.inputs(args.seed))
    input_digest = workloads.digest(repr(i) for i in inputs)

    if args.trace == 0:
        setup = measure_setup(w)
        metrics, detail, batches = measure(w, inputs, args.seconds, setup)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {**metrics, "peak_rss_mb": (peak_rss, "MB")}
        tracer = None
    else:
        tracer = spans.Tracer()
        try:
            hooks = spans.installed(tracer)
        except spans.HookError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        # A first pass fills the catalog's lru caches (the suite's first
        # certificates build N, M, T...).  Then each operation runs untraced
        # and traced back to back: the host's speed changes in phases of
        # seconds, which would swamp the overhead between two whole passes.
        warm = run_batch(w, inputs)
        plain, traced = Batch(), Batch()
        for i, inp in enumerate(inputs):
            ref_key = warm.keys[i:i + 1]
            plain.add(run_batch(w, [inp], reference_keys=ref_key))
            with hooks:
                traced.add(run_batch(w, [inp], tracer, ref_key, first_id=i))
        batches = [warm, plain, traced]
        metrics = spans.layer_metrics(tracer, sorted(workloads.Suite().reports))
        metrics["trace.overhead_pct"] = ((traced.wall / plain.wall - 1) * 100, "%")
        calls = {name: metrics[f"{name}.calls"][0] for name in spans.HOOKS}
        detail = {"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall,
                  "spans": len(tracer.spans),
                  "ratio_bases": {r: f"{calls[num]} {num} calls / {calls[base]} {base} calls"
                                  for r, (num, base) in spans.RATIOS.items()}}

    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    errors = [e for b in batches for e in b.errors]
    env["loadavg_end"] = os.getloadavg()
    result_digest = workloads.digest(k or "" for k in batches[0].keys)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"env": env, "input_digest": input_digest,
         "result_digest": result_digest,
         "detail": detail, "errors": errors[:50], **result}, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {input_digest}  results {result_digest}")
    print(f"ops {attempted} attempted, {failed} failed: error_rate "
          f"{failed / attempted:.6g}")
    for e in errors[:10]:
        print(f"  error: {e}")
    if args.trace == 0:
        print(f"batches {detail['batches']} x {detail['ops_per_batch']} ops "
              f"(highest percentile with 10 samples beyond: "
              f"p{detail['highest_percentile_per_batch']})")
        print(f"raw batch time median {detail['raw_wall_s']['median']:.6g} s; "
              f"host speed median {detail['host_speed']['median']:.3f} "
              f"of the fastest probe")
    else:
        for name, base in detail["ratio_bases"].items():
            print(f"  {name}: {base}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
