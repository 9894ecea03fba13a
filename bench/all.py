"""Run every workload several times and print each metric's median and
quartiles across the runs.

    python3 bench/all.py [--runs 10] [--seed 1] [--workloads suite,enum]
                         [--seconds S] [--trace 0|1]

Each run is ``bench/run.py`` in a fresh interpreter, one at a time, with
seeds seed, seed+1, ...  Run length and bounds come from ``BENCHMARK.json``.
For every end-to-end metric the spread is (q3 - q1) / median, with the
quartiles of ``statistics.quantiles(values, n=4)``; it is printed beside the
metric's bound.  The exit code is 1 when any run fails or is incorrect.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for i in range(args.runs):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {args.seed + i}: exit {proc.returncode}\n"
                      f"{proc.stderr.strip()[-2000:]}")
                bad = True
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            bad = bad or not result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rate = failed / attempted if attempted else float("nan")
        print(f"== {workload}: {args.runs} runs, {attempted} ops attempted, "
              f"{failed} failed, error_rate {rate:.6g}")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = "" if bound is None else (
                f"  bound {bound:.2f}" + ("" if spread < bound / 3 else "  WIDE"))
            print(f"  {name:48s} {med:12.6g} {units[name]:6s} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.3f}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
