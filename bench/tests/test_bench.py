"""Tests of the benchmark itself: python -m pytest bench/tests"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cubiclat import core, hassett  # noqa: E402
from cubiclat.report import CheckReport  # noqa: E402


def test_percentile_rule():
    assert run.highest_percentile(19) is None
    assert run.highest_percentile(20) == 50
    assert run.highest_percentile(99) == 50
    assert run.highest_percentile(100) == 90
    assert run.highest_percentile(999) == 90
    assert run.highest_percentile(1000) == 99
    assert run.highest_percentile(9999) == 99
    assert run.highest_percentile(10000) == 99.9
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile(range(11), 90) == 9
    assert run.percentile([0, 10], 25) == 2.5


def test_self_time_on_nested_spans():
    # root covers 0..10; a and b overlap (as spans from two threads would),
    # c runs past the root's end and only its covered part counts there
    tree = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 3.0, 3.0]

    tracer = spans.Tracer()
    tracer.spans = [["check.N.gram", 0.0, 0.010, None, 0],
                    ["core.IntegralLattice", 0.001, 0.004, 0, 0],
                    ["exact.bareiss_det", 0.002, 0.003, 1, 0],
                    ["exact.bareiss_det", 0.005, 0.006, 0, 0]]
    m = spans.layer_metrics(tracer, ["N.gram"])
    assert m["exact.bareiss_det.calls"] == (2, "count")
    assert m["exact.bareiss_det.self_ms"][0] == pytest.approx(2.0)
    assert m["core.IntegralLattice.self_ms"][0] == pytest.approx(2.0)
    assert m["check.N.gram.ms"][0] == pytest.approx(10.0)
    assert m["glue.glue_group.calls"] == (0, "count")


def test_every_hook_resolves_and_missing_ones_are_named():
    assert len(spans.resolve_all()) == len(spans.HOOKS)
    with pytest.raises(spans.HookError) as info:
        spans.resolve_all(("exact.frac_det_gone", "core.Nope.method",
                           "nosuchmodule.f", "exact.bareiss_det"))
    msg = str(info.value)
    for name in ("exact.frac_det_gone", "core.Nope.method", "nosuchmodule"):
        assert name in msg
    assert "bareiss" not in msg


def test_hooks_count_calls_and_restore_originals():
    originals = (core.saturation, hassett.saturation, core.IntegralLattice.__init__)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert hassett.saturation is core.saturation is not originals[0]
        tracer.begin_op(0, "op")
        hassett.labeling_for_d(38)
        tracer.end_op()
    assert (core.saturation, hassett.saturation,
            core.IntegralLattice.__init__) == originals
    m = spans.layer_metrics(tracer, [])
    assert m["hassett.labeling_for_d.calls"][0] == 1
    assert m["core.saturation.calls"][0] == 1
    assert m["exact.smith_normal_form.calls"][0] == 2
    assert all(s[3] is not None for s in tracer.spans[1:])


def test_twist_is_a_unimodular_change_of_basis():
    rng = random.Random(5)
    gram = [list(r) for r in workloads.canonical_gram((("K3", 1),))]
    g, u, uinv = workloads.twist(gram, rng, 40, 64)
    mul = lambda a, b: [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]
    assert mul(mul(u, gram), [list(c) for c in zip(*u)]) == g
    assert mul(u, uinv) == [[int(i == j) for j in range(22)] for i in range(22)]
    assert g != gram and max(abs(x) for r in g for x in r) <= 64


def test_rescaling_to_full_speed():
    def batch(op_s, probe_s):
        b = run.Batch()
        b.op_s, b.cpu_s, b.probe_s = op_s, op_s, probe_s
        return b

    # the second batch ran at half speed throughout, the third only around
    # its second operation
    batches = [batch([1.0, 2.0], [1.0, 1.0, 1.0]), batch([2.0, 4.0], [2.0, 2.0, 2.0]),
               batch([1.0, 6.0], [1.0, 3.0, 3.0])]
    assert run.at_full_speed(batches, 1.0, "op_s") == [1.0, 2.0]
    assert run.at_full_speed(batches, 0.5, "cpu_s") == [0.5, 1.0]


def test_span_index():
    assert workloads.span_index([[1, 0], [0, 1], [2, 0], [0, 2]], 2) == 1
    assert workloads.span_index([[1, 1], [2, 0], [0, 2]], 2) == 2
    assert workloads.span_index([[3, 0], [0, 6]], 2) == 18
    assert workloads.span_index([[1, 0]], 2) == 0


SMALL = {"invariants": {"rounds": 1}, "enum": {"rounds": 1}, "sweep": {"count": 60}}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs_and_results(name):
    w = workloads.WORKLOADS[name]()
    first = w.inputs(7, **SMALL[name])
    assert repr(first) == repr(w.inputs(7, **SMALL[name]))
    other = w.inputs(8, **SMALL[name])
    assert repr(other) != repr(first)
    a = run.run_batch(w, first)
    b = run.run_batch(w, first, reference_keys=a.keys)
    c = run.run_batch(w, other)
    assert a.keys == b.keys
    assert (a.failed, b.failed, c.failed) == (0, 0, 0), a.errors + b.errors + c.errors
    assert a.attempted == len(first)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_negative_control_corrupted_reference_fails(name):
    w = workloads.WORKLOADS[name]()
    inputs = w.inputs(3, **SMALL[name])
    if name == "invariants":
        key = next(iter(w.values["M"]))
        w.values["M"][key] += 1
    elif name == "enum":
        w.shells["E8"]["shells"]["2"] = 239
        inputs = [i for i in inputs if i[0] == "E8"]
    else:
        w.gram[1][1] += 2
    batch = run.run_batch(w, inputs)
    assert batch.failed > 0 and batch.failed / batch.attempted > 0


def test_suite_check_flags_a_changed_report():
    w = workloads.Suite()
    reports = []
    for line in sorted(w.reports.values()):
        payload = json.loads(line)
        reports.append(CheckReport(payload["check_id"], payload["claim"],
                                   payload["status"], payload["details"], 1))
    assert w.check(w.ALL, reports) == []
    reports[3] = CheckReport(reports[3].check_id, reports[3].claim, "fail",
                             reports[3].details, 1)
    assert len(w.check(w.ALL, reports)) == 1


def test_benchmark_json_names_match_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = spans.layer_metrics(spans.Tracer(), sorted(workloads.Suite().reports))
    assert [m["name"] for m in spec["per_layer"]] == list(layer) + ["trace.overhead_pct"]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "cpu_s", "op_ms.p50", "op_ms.p90", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == ["suite", "invariants", "enum", "sweep"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
