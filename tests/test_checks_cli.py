"""Tests for the check registry, the runner, and the command-line interface."""

import doctest
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cubiclat import catalog, checks, delpezzo, geomchecks, hassett
from cubiclat.checks import UnknownCheck, run_checks
from cubiclat.cli import main
from cubiclat.core import NoRepresentation, Signature, direct_sum, rescale
from cubiclat.report import certificate, jsonable
from oracles import lattice_json

FAST = ["K.d9", "M.gram", "N.gram"]
REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "bench" / "reference" / "suite.jsonl"


def test_manifest_shape():
    ids = list(checks.REGISTRY)
    assert len(ids) == 20
    assert ids == sorted(ids)
    for check_id, run in checks.REGISTRY.items():
        assert run.check_id == check_id
        assert run.summary
    # the README's certificate table documents every check, in id order
    table = re.findall(r"^\| `([^`]+)` \|", (REPO / "README.md").read_text(
        encoding="utf-8"), re.MULTILINE)
    assert table == ids


def test_readme_quick_tour_runs_as_documented():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    test = doctest.DocTestParser().get_doctest(
        tour.group(1), {}, "README quick tour", "README.md", 0)
    assert len(test.examples) == 13
    result = doctest.DocTestRunner().run(test)
    assert result.failed == 0


def test_run_checks_subset():
    reports = run_checks(["N.gram", "K.d9"])
    assert [r.check_id for r in reports] == ["K.d9", "N.gram"]
    for r in reports:
        assert r.ok
        assert r.status == "pass"
        assert r.elapsed_ms >= 0


def test_run_checks_unknown_id():
    with pytest.raises(UnknownCheck) as exc:
        run_checks(["N.gram", "bogus"])
    assert "'bogus'" in str(exc.value)
    assert "N.gram" in str(exc.value)


def _without_elapsed(payloads) -> str:
    """JSON report lines as `checks run --json` prints them, minus elapsed_ms."""
    lines = []
    for payload in payloads:
        payload.pop("elapsed_ms")
        lines.append(json.dumps(payload, sort_keys=True) + "\n")
    return "".join(lines)


def test_run_checks_is_deterministic_and_sorted():
    first = run_checks(FAST)
    again = run_checks(list(reversed(FAST)) + FAST[:1])
    assert [r.check_id for r in first] == sorted(FAST)
    assert [r.check_id for r in again] == sorted(FAST)
    assert _without_elapsed(r.to_json() for r in first) == \
        _without_elapsed(r.to_json() for r in again)


def test_cli_checks_list():
    result = CliRunner().invoke(main, ["checks", "list"])
    assert result.exit_code == 0
    for check_id in checks.REGISTRY:
        assert check_id in result.output


def test_cli_checks_run_single():
    result = CliRunner().invoke(main, ["checks", "run", "--name", "N.gram"])
    assert result.exit_code == 0
    assert "pass" in result.output
    assert "1 check: 1 passed, 0 failed" in result.output
    two = CliRunner().invoke(
        main, ["checks", "run", "--name", "N.gram", "--name", "M.gram"])
    assert two.output.splitlines()[-1] == "2 checks: 2 passed, 0 failed"


def test_cli_checks_run_json_sorted():
    result = CliRunner().invoke(
        main, ["checks", "run", "--name", "N.gram", "--name", "M.gram",
               "--json"])
    assert result.exit_code == 0
    lines = [json.loads(line) for line in result.output.splitlines()]
    assert [r["check_id"] for r in lines] == ["M.gram", "N.gram"]
    assert all(r["status"] == "pass" for r in lines)


def test_cli_checks_run_selector_usage_errors():
    runner = CliRunner()
    neither = runner.invoke(main, ["checks", "run"])
    assert neither.exit_code == 2
    assert "--all or --name" in neither.output
    both = runner.invoke(main, ["checks", "run", "--all", "--name", "N.gram"])
    assert both.exit_code == 2


def test_cli_checks_run_unknown_id():
    result = CliRunner().invoke(main, ["checks", "run", "--name", "bogus"])
    assert result.exit_code == 2
    assert "unknown check id 'bogus'" in result.output


def test_cli_checks_run_reports_failure(monkeypatch):
    @certificate("tmp.fail", "always fails", "always fails")
    def always_fails():
        return False, {"reason": "test"}

    monkeypatch.setitem(checks.REGISTRY, "tmp.fail", always_fails)
    result = CliRunner().invoke(main, ["checks", "run", "--name", "tmp.fail"])
    assert result.exit_code == 1
    assert "fail" in result.output
    assert "details" in result.output


def test_claim_is_formatted_from_the_details():
    # the claim names a details key, not a parameter of the body
    @certificate("tmp.count", "counts", "n is {n}")
    def count():
        return True, {"n": 3}

    assert count().claim == "n is 3"


def test_jsonable_writes_a_named_tuple_as_a_list():
    # a NamedTuple is a tuple, so it serializes as a sequence
    assert jsonable(Signature(10, 2)) == [10, 2]
    assert json.dumps(jsonable({"signature": Signature(10, 2)})) \
        == '{"signature": [10, 2]}'


def test_failing_admissibility_keeps_its_structured_witness(monkeypatch):
    monkeypatch.setattr(geomchecks, "admissibility_scan", lambda L, eta:
                        geomchecks.Violation("R2", (1, 0, 0), {"norm": 2}))
    report = checks.n_admissible_certificate().to_json()
    assert report["status"] == "fail"
    assert report["details"]["violation"] == {
        "rule": "R2", "witness": [1, 0, 0], "data": {"norm": 2}}


def _n_disc_with_eta_first(monkeypatch):
    real = catalog.n_dual_classes

    def swapped():
        dual2, independent = real()
        return [list(catalog.n_class("eta")), *dual2[1:]], independent
    monkeypatch.setattr(catalog, "n_dual_classes", swapped)


def _t_with_u2(monkeypatch):
    monkeypatch.setattr(catalog, "transcendental_T", lambda: direct_sum(
        catalog.standard("E8(2)"), catalog.standard("A1"),
        catalog.standard("A1(-1)"), catalog.standard("U(2)")))


def _e8_2_as_e6_2(monkeypatch):
    real = catalog.standard
    monkeypatch.setattr(catalog, "standard", lambda name: real(
        "E6(2)" if name == "E8(2)" else name))


def _d9_2_as_a9_2(monkeypatch):
    monkeypatch.setattr(catalog, "alpha_d9_2",
                        lambda: catalog.standard("A9(2)"))


def _delta_plus_alpha_1(monkeypatch):
    real = catalog.delta_in_M

    def shifted():
        delta = real()
        return delta[:1] + (delta[1] + 1,) + delta[2:]
    monkeypatch.setattr(catalog, "delta_in_M", shifted)


def _p_minus_f1(monkeypatch):
    real = catalog.p_in_N

    def shifted():
        p = real()
        return p[:2] + (p[2] - 1,) + p[3:]
    monkeypatch.setattr(catalog, "p_in_N", shifted)


def _d8_with_240_roots(monkeypatch):
    real = checks.ade_root_number
    monkeypatch.setattr(checks, "ade_root_number",
                        lambda label: 240 if label == "D8" else real(label))


def _scroll_tau_1_as_2(monkeypatch):
    real = catalog.scroll_lattice_K
    monkeypatch.setattr(catalog, "scroll_lattice_K",
                        lambda tau: real(2 if tau == 1 else tau))


def _first_plane_dropped(monkeypatch):
    real = geomchecks.enumerate_planes
    monkeypatch.setattr(geomchecks, "enumerate_planes",
                        lambda L, eta: real(L, eta)[1:])


def _eta_f1_pairing_3(monkeypatch):
    real = catalog._symbol_pairing

    def bumped():
        s = real()
        s[0][2] = s[2][0] = 3
        return s
    monkeypatch.setattr(catalog, "_symbol_pairing", bumped)


def _m_negated(monkeypatch):
    real = catalog.prim_lattice_M
    monkeypatch.setattr(catalog, "prim_lattice_M", lambda: rescale(real(), -1))


def _f1_as_eta(monkeypatch):
    real = geomchecks._plane_family

    def swapped():
        n, eta, p, fs = real()
        return n, fs[0], p, fs
    monkeypatch.setattr(geomchecks, "_plane_family", swapped)


def _ns_as_u_e8_minus_2(monkeypatch):
    monkeypatch.setattr(catalog, "nodal_sextic_NS", lambda: direct_sum(
        catalog.standard("U"), catalog.standard("E8(-2)")))


def _no_representation_of_18(monkeypatch):
    real = hassett.ramanujan_rep

    def missing_18(n):
        if n == 18:
            raise NoRepresentation("18")
        return real(n)
    monkeypatch.setattr(hassett, "ramanujan_rep", missing_18)


def _last_double_six_dropped(monkeypatch):
    real = delpezzo.double_sixes
    monkeypatch.setattr(delpezzo, "double_sixes", lambda: real()[:-1])


# one mutated catalog builder, witness or helper per certificate, under which
# it must fail
CONTROLS = {
    "N.disc": _n_disc_with_eta_first,
    "T.invariants": _t_with_u2,
    "phi2.no-plane": _e8_2_as_e6_2,
    "K.d9": _d9_2_as_a9_2,
    "pfaffian": _delta_plus_alpha_1,
    "rationality.section": _p_minus_f1,
    "E8.roots": _d8_with_240_roots,
    "scroll.screen": _scroll_tau_1_as_2,
    "N.planes": _first_plane_dropped,
    "N.gram": _eta_f1_pairing_3,
    "M.gram": _m_negated,
    "oadp": _f1_as_eta,
    "phi3.k3-exists": _ns_as_u_e8_minus_2,
    "ramanujan.range": _no_representation_of_18,
    "delpezzo.lemma": _last_double_six_dropped,
}
# certificates whose failing control is a test of its own
ELSEWHERE = {
    "sat.511": "test_geomchecks.py::"
               "test_saturation_certificate_fails_without_coset_vectors",
    "M.glue": "test_glue.py::test_m_glue_fails_on_a_lookalike_glue_class",
    "phi2.no-associated-k3": "test_classify.py::"
                             "test_phi2_negative_control_flips_verdict",
    "hassett.sweep": "test_hassett.py::"
                     "test_sweep_fails_on_wrong_saturation_under_optimize",
    "N.admissible": "test_checks_cli.py::"
                    "test_failing_admissibility_keeps_its_structured_witness",
}
CACHED_BUILDERS = (catalog.plane_lattice_N, catalog.kappa_tilde,
                   catalog.prim_lattice_M, catalog.transcendental_T,
                   catalog.k3_lattice)


@pytest.mark.parametrize("check_id", sorted(CONTROLS))
def test_certificate_fails_under_its_control(monkeypatch, check_id):
    CONTROLS[check_id](monkeypatch)
    try:
        for builder in CACHED_BUILDERS:
            builder.cache_clear()
        assert run_checks([check_id])[0].status == "fail"
    finally:
        monkeypatch.undo()
        for builder in CACHED_BUILDERS:
            builder.cache_clear()
    assert run_checks([check_id])[0].status == "pass"


def test_every_certificate_has_a_failing_control():
    # a certificate that has never been seen to fail has not been tested
    assert not CONTROLS.keys() & ELSEWHERE.keys()
    assert CONTROLS.keys() | ELSEWHERE.keys() == set(checks.REGISTRY)
    for test in ELSEWHERE.values():
        path, name = test.split("::")
        assert f"\ndef {name}(" in (REPO / "tests" / path).read_text(
            encoding="utf-8"), test


def test_cli_lat_show_catalog_entry():
    result = CliRunner().invoke(main, ["lat", "show", "M", "--invariants"])
    assert result.exit_code == 0
    assert "rank 10" in result.output
    assert "det 3072" in result.output
    assert "signature (10, 0)" in result.output
    assert "even" in result.output


def test_cli_lat_show_roots():
    result = CliRunner().invoke(main, ["lat", "show", "E8(2)", "--roots", "4"])
    assert result.exit_code == 0
    assert "vectors of norm 4: 240" in result.output


def test_cli_lat_show_planes():
    result = CliRunner().invoke(main, ["lat", "show", "N", "--planes"])
    assert result.exit_code == 0
    assert "plane classes: 19" in result.output


def test_cli_lat_show_vectors():
    result = CliRunner().invoke(main, ["lat", "show", "A2", "--vectors", "2"])
    assert result.exit_code == 0
    assert "norm 2 (6):" in result.output


def test_cli_lat_show_negative_definite_norms():
    # a negative definite lattice is enumerated on its negation; the output
    # gives the true, negative norms
    result = CliRunner().invoke(
        main, ["lat", "show", "A2(-1)", "--vectors", "2", "--roots", "2"])
    assert result.exit_code == 0
    assert "vectors of norm -2: 6" in result.output
    assert "norm -2 (6):" in result.output
    assert "norm 2" not in result.output


def test_cli_lat_show_disc():
    trivial = CliRunner().invoke(main, ["lat", "show", "U", "--disc"])
    assert trivial.exit_code == 0
    assert "trivial" in trivial.output
    d4 = CliRunner().invoke(main, ["lat", "show", "D4", "--disc"])
    assert d4.exit_code == 0
    assert "[2, 2]" in d4.output


def test_cli_lat_show_vectors_rejects_indefinite():
    result = CliRunner().invoke(main, ["lat", "show", "U", "--vectors", "2"])
    assert result.exit_code == 2
    assert "positive definite" in result.output


def test_cli_lat_show_file_target(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(lattice_json(catalog.standard("A2")))
    result = CliRunner().invoke(main, ["lat", "show", str(path), "--invariants"])
    assert result.exit_code == 0
    assert "rank 2" in result.output
    assert "det 3" in result.output


def test_cli_lat_show_file_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"gram": [[3, ]]}')
    result = CliRunner().invoke(main, ["lat", "show", str(path)])
    assert result.exit_code == 2
    assert "parse error at line 1" in result.output


def test_cli_lat_show_file_bad_gram(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"gram": [[0, 1], [2, 0]], "labels": ["a", "b"]}')
    result = CliRunner().invoke(main, ["lat", "show", str(path)])
    assert result.exit_code == 2
    assert "not symmetric" in result.output


def _assert_usage_error(result, message):
    """Exit 2 with a one-line error message (an uncaught exception would
    exit 1)."""
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("option, value", [("--roots", "-4"),
                                           ("--vectors", "-1")])
def test_cli_lat_show_rejects_negative_norm(option, value):
    result = CliRunner().invoke(main, ["lat", "show", "E8", option, value])
    _assert_usage_error(result, option)


def test_cli_lat_show_guards_vector_listing():
    # E8 has about 3.7 million vectors of norm <= 30
    result = CliRunner().invoke(main, ["lat", "show", "E8", "--vectors", "30"])
    _assert_usage_error(result, "more than 1048576 vectors")


@pytest.mark.parametrize("payload, message", [
    ({"gram": [[2]], "labels": 5}, "labels must be a list of strings"),
    ({"gram": [[2]], "labels": ["a"], "name": 7}, "name must be a string"),
    ({"gram": [], "labels": []}, "rank 0"),
])
def test_cli_lat_show_file_rejects_malformed_lattice(tmp_path, payload, message):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(payload))
    result = CliRunner().invoke(main, ["lat", "show", str(path), "--invariants"])
    _assert_usage_error(result, message)


@pytest.mark.parametrize("name", ["E8(0)", "<0>"])
def test_cli_lat_show_degenerate_catalog_name(name):
    result = CliRunner().invoke(main, ["lat", "show", name])
    _assert_usage_error(result, "determinant zero")


@pytest.mark.parametrize("name", ["A99999999", "A" + "9" * 5000])
def test_cli_lat_show_oversized_standard_name(name):
    result = CliRunner().invoke(main, ["lat", "show", name, "--invariants"])
    _assert_usage_error(result, "limit")


def test_cli_lat_show_rejects_a_file_above_the_rank_cap(tmp_path):
    # A_n as a file: rank 128, the cap itself, is shown; 129 is refused
    results = {}
    for n in (128, 129):
        path = tmp_path / f"a{n}.json"
        path.write_text(json.dumps({
            "gram": [[2 * (i == j) - (abs(i - j) == 1) for j in range(n)]
                     for i in range(n)],
            "labels": [f"e{i}" for i in range(n)]}))
        results[n] = CliRunner().invoke(main, ["lat", "show", str(path),
                                               "--invariants", "--disc"])
    assert results[128].exit_code == 0
    assert "det 129  signature (128, 0)  even" in results[128].output
    assert "invariant factors: [129]" in results[128].output
    _assert_usage_error(results[129], "rank 129 is above the limit 128")
    assert "Traceback" not in results[129].output


def test_cli_lat_show_many_scale_suffixes():
    result = CliRunner().invoke(main, ["lat", "show", "A1" + "(1)" * 3000,
                                       "--invariants"])
    assert result.exit_code == 0 and "det 2  signature (1, 0)" in result.output


def test_cli_lat_show_directory_target(tmp_path):
    result = CliRunner().invoke(main, ["lat", "show", str(tmp_path)])
    _assert_usage_error(result, "cannot read")


def test_cli_lat_show_deeply_nested_file(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    result = CliRunner().invoke(main, ["lat", "show", str(path)])
    _assert_usage_error(result, "nested too deeply")


def test_cli_lat_show_planes_rejects_eta_of_wrong_norm(tmp_path):
    path = tmp_path / "eta2.json"
    path.write_text(json.dumps({"gram": [[2]], "labels": ["eta"]}))
    result = CliRunner().invoke(main, ["lat", "show", str(path), "--planes"])
    _assert_usage_error(result, "eta must have norm 3, got 2")


_JUNK = st.one_of(st.integers(), st.booleans(), st.none(),
                 st.floats(allow_nan=False), st.text(max_size=2),
                 st.lists(st.integers(-2, 2), max_size=2))
_LABEL = st.one_of(st.sampled_from(["eta", "x", "y", "e1"]),
                   st.text(alphabet="aety01_ ()", max_size=3))


@st.composite
def _lattice_payloads(draw):
    """Lattice-file JSON of rank 1 to 4: a symmetric Gram with entries in
    -3..3 (often degenerate or indefinite) and distinct labels, with at most
    one defect drawn in: a non-integer entry, a short or long row, an
    asymmetric pair, a junk (or empty) Gram, junk labels or name, a missing
    key or a junk document."""
    n = draw(st.integers(1, 4))
    upper = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    gram = [[upper[min(i, j) * n + max(i, j)] for j in range(n)]
            for i in range(n)]
    payload = {"gram": gram,
               "labels": draw(st.lists(_LABEL, min_size=n, max_size=n,
                                       unique=True))}
    if draw(st.booleans()):
        payload["name"] = draw(st.text(alphabet="abN ", max_size=3))
    defect = draw(st.sampled_from([None, None, None, "entry", "row", "pair",
                                   "gram", "labels", "name", "key", "doc"]))
    if defect in ("entry", "row", "pair"):
        i = draw(st.integers(0, n - 1))
        if defect == "entry":
            gram[i][draw(st.integers(0, n - 1))] = draw(_JUNK)
        elif defect == "row":
            gram[i] = gram[i][:-1] if draw(st.booleans()) else gram[i] + [0]
        else:
            gram[i][n - 1 - i] += 1
    elif defect in ("gram", "labels", "name"):
        payload[defect] = draw(st.one_of(_JUNK, st.lists(_LABEL, max_size=5)))
    elif defect == "key":
        del payload[draw(st.sampled_from(["gram", "labels"]))]
    elif defect == "doc":
        return draw(_JUNK)
    return payload


_NAMES = st.one_of(
    st.sampled_from(["E8(2)", "E8(0)", "<0>", "A99999", "E8(1/2)", "A0",
                     "D3", "E9", "U(0)", "<>", "()", "A2((2))", ""]),
    st.integers(-30, 30).map("<{}>".format),
    st.builds("{}{}{}".format, st.sampled_from(["A", "D", "E", "U", "N", "M"]),
              st.sampled_from(["2", "4", "6", "8", "1", "0", "-1", ""]),
              st.sampled_from(["", "(2)", "(-1)", "", "(0)", "(1/2)", "(x)"])))
_SHOW_OPTIONS = st.lists(st.sampled_from([
    ["--invariants"], ["--disc"], ["--roots", "2"], ["--vectors", "2"],
    ["--planes"]]), max_size=3).map(lambda opts: sum(opts, []))


@settings(deadline=None, max_examples=100)
@given(payload=_lattice_payloads(), name=_NAMES, options=_SHOW_OPTIONS)
def test_cli_lat_show_exits_0_or_2_on_any_file_or_name(
        tmp_path_factory, payload, name, options):
    # a malformed lattice file or catalog name is a usage error with one
    # message; an uncaught exception would exit 1
    path = tmp_path_factory.getbasetemp() / "lattice.json"
    path.write_text(json.dumps(payload))
    for target in (str(path), name):
        result = CliRunner().invoke(main, ["lat", "show", target, *options])
        assert result.exit_code in (0, 2), (target, result.exception)
        if result.exit_code == 2:
            assert sum(line.startswith("Error:")
                       for line in result.output.splitlines()) == 1, result.output


def test_cli_lat_show_unknown_target():
    result = CliRunner().invoke(main, ["lat", "show", "Zorro"])
    assert result.exit_code == 2
    assert "catalog names" in result.output


def test_cli_hassett_sweep():
    result = CliRunner().invoke(main, ["hassett", "sweep", "--dmax", "30"])
    assert result.exit_code == 0
    line, *rest = result.output.splitlines()
    assert line.startswith("pass hassett.sweep")
    assert "every admissible discriminant d <= 30 (d > 6" in line
    assert rest == ["1 check: 1 passed, 0 failed"]


@pytest.mark.parametrize("dmax", ["-5", "0"])
def test_cli_hassett_sweep_rejects_dmax_below_8(dmax):
    result = CliRunner().invoke(main, ["hassett", "sweep", "--dmax", dmax])
    _assert_usage_error(result, "x>=8")


def test_cli_hassett_sweep_json():
    result = CliRunner().invoke(
        main, ["hassett", "sweep", "--dmax", "30", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["check_id"] == "hassett.sweep"
    assert payload["status"] == "pass"
    assert payload["details"]["labeled"] == 8


def test_cli_delpezzo_verify():
    result = CliRunner().invoke(main, ["delpezzo", "verify"])
    assert result.exit_code == 0
    line = result.output.splitlines()[0]
    assert line.startswith("pass delpezzo.lemma")
    assert "27 lines, 72 sixers and 36 double sixes" in line


def _golden_lines(output: str) -> str:
    return _without_elapsed(json.loads(line) for line in output.splitlines())


def test_cli_checks_run_all_matches_golden_reports():
    result = CliRunner().invoke(main, ["checks", "run", "--all", "--json"])
    assert result.exit_code == 0
    assert _golden_lines(result.output) == GOLDEN.read_text()


def test_cli_checks_run_all_matches_golden_reports_under_optimize(
        run_optimized):
    stdout = run_optimized("from cubiclat.cli import main; "
                           "main(['checks', 'run', '--all', '--json'])")
    assert _golden_lines(stdout) == GOLDEN.read_text()
