"""Tests for the discriminant-labeling machinery: quadratic-form
representations and the rank-2 sublattice sweep."""

import random

import pytest

from cubiclat import catalog, core, exact, hassett
from cubiclat.core import NoRepresentation, NotAHassettDiscriminant, saturation
from cubiclat.hassett import (
    _four_squares_even,
    _labeling_det,
    four_squares,
    hassett_sweep,
    is_admissible,
    labeling_for_d,
    ramanujan_rep,
)
import oracles


def test_four_squares_known_values():
    assert four_squares(0) == (0, 0, 0, 0)
    assert four_squares(1) == (1, 0, 0, 0)
    assert four_squares(7) == (2, 1, 1, 1)


def test_four_squares_resums_and_orders():
    for n in range(80):
        x, y, z, u = four_squares(n)
        assert x * x + y * y + z * z + u * u == n
        assert x >= y >= z >= u >= 0


def test_four_squares_rejects_negative():
    with pytest.raises(ValueError):
        four_squares(-1)


def test_four_squares_even_has_even_coordinate():
    for n in range(1, 60):
        rep = _four_squares_even(n)
        assert sum(c * c for c in rep) == n
        assert any(c % 2 == 0 for c in rep)


def test_ramanujan_rep_examples():
    assert ramanujan_rep(2) == (1, 0, 0, 0)
    assert ramanujan_rep(5) == (1, 0, 0, 1)


def test_ramanujan_rep_resums():
    for n in range(2, 80):
        if n == 17:
            continue
        x, y, z, u = ramanujan_rep(n)
        assert 2 * x * x + 2 * y * y + 2 * z * z + 3 * u * u == n


def _outcome(search, n):
    try:
        return search(n)
    except NoRepresentation as exc:
        return type(exc)


def test_square_searches_match_the_separate_loops():
    # the one generator of a(x^2+y^2+z^2) + b u^2, which has no u <= z
    # filter, against separate loops, the four-square one filtering u <= z
    for n in range(20001):
        reps = oracles._four_square_reps(n)
        assert four_squares(n) == next(reps)
        assert _four_squares_even(n) == next(
            r for r in oracles._four_square_reps(n)
            if any(c % 2 == 0 for c in r))
        if n:
            assert (_outcome(ramanujan_rep, n)
                    == _outcome(oracles.ramanujan_rep, n))
    assert _outcome(ramanujan_rep, 1) is NoRepresentation
    assert _outcome(ramanujan_rep, 17) is NoRepresentation


def test_ramanujan_exceptions():
    for n in (1, 17):
        with pytest.raises(NoRepresentation):
            ramanujan_rep(n)
    with pytest.raises(ValueError):
        ramanujan_rep(0)


def test_is_admissible():
    assert [d for d in range(30) if is_admissible(d)] == [8, 12, 14, 18, 20, 24, 26]
    assert not is_admissible(6)
    assert not is_admissible(7)


def test_labeling_d8_is_a_plane():
    lab = labeling_for_d(8)
    assert lab.witness == "plane"
    assert lab.v == catalog.p_in_N()


def test_labeling_d14():
    lab = labeling_for_d(14)
    assert lab.witness == "y-F2-F4-F6-F8"
    n = catalog.plane_lattice_N()
    eta = (1,) + (0,) * 10
    assert n.norm(lab.v) == 5
    assert n.pair(eta, lab.v) == 1


def test_labeling_frame_witnesses():
    assert labeling_for_d(12).witness == (1, 0, 0, 0, 0, 0)
    assert labeling_for_d(56).witness == (2, 0, 0, 0, 1, 0)
    assert labeling_for_d(110).witness == (2, 1, 1, 1, 1, 1)


def test_labelings_span_primitively():
    n = catalog.plane_lattice_N()
    eta = (1,) + (0,) * 10
    for d in (8, 12, 14, 18, 20, 24, 38, 42, 74, 96):
        lab = labeling_for_d(d)
        raw_det = 3 * n.norm(lab.v) - n.pair(eta, lab.v) ** 2
        sat = saturation(n, [eta, lab.v])
        # saturating does not shrink the determinant, so the span is primitive
        assert sat.lattice.rank == 2
        assert raw_det == sat.lattice.det == d


def test_labeling_smith_forms_match_the_reference(monkeypatch):
    # the saturation's one left Smith form takes the 2 x 11 span of (eta, v),
    # a shape the hypothesis strategy never draws
    n = catalog.plane_lattice_N()
    eta = catalog.n_class("eta")
    seen = []
    snf = exact.smith_normal_form
    monkeypatch.setattr(exact, "smith_normal_form", lambda a:
                        seen.append([list(r) for r in a]) or snf(a))
    ds = [38, 9998, 999998] + [d for d in range(60) if is_admissible(d)]
    for d in ds:
        assert saturation(n, [eta, labeling_for_d(d).v]).lattice.det == d
    assert [(len(a), len(a[0])) for a in seen] == [(2, 11)] * len(ds)
    for a in seen:
        assert snf(a) == oracles.smith_normal_form_reference(a)


def test_labeling_makes_no_smith_form_kernel_or_lattice(monkeypatch):
    # primitivity comes from the 2 x 2 minors of (eta, v), not a saturation
    hassett._frame_vectors()
    calls = []
    for owner, name in ((exact, "smith_normal_form"), (exact, "integer_kernel"),
                        (core.IntegralLattice, "__init__")):
        f = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _f=f, _n=name, **kw:
                            calls.append(_n) or _f(*a, **kw))
    assert labeling_for_d(38).d == 38
    assert calls == []


def test_labeling_det_matches_the_saturation():
    n = catalog.plane_lattice_N()
    eta = catalog.n_class("eta")
    rng = random.Random(32)
    sample = set()
    while len(sample) < 300:
        d = rng.randrange(7, 10 ** 6 + 1)
        if is_admissible(d):
            sample.add(d)
    for d in [d for d in range(7, 3001) if is_admissible(d)] + sorted(sample):
        v = labeling_for_d(d).v
        span = 3 * n.norm(v) - n.pair(eta, v) ** 2
        sat = saturation(n, [eta, v]).lattice
        assert _labeling_det(span, eta, v) == sat.det == d
        # <eta, 2v> has span determinant 4d and index 2 in its saturation
        v2 = tuple(2 * x for x in v)
        assert _labeling_det(4 * span, eta, v2) == d
        assert saturation(n, [eta, v2]).lattice.det == d


def test_labeling_rejects_a_witness_that_is_not_primitive(monkeypatch):
    # v = 2 alpha_1 has discriminant 12 * 2^2 = 48, but <eta, v> has index 2
    # in <eta, alpha_1>, of determinant 12
    monkeypatch.setattr(hassett, "_witness", lambda n, s: (2, 0, 0, 0, 0))
    with pytest.raises(NoRepresentation, match="saturates to det 12, not a "
                       "primitive labeling of 48"):
        labeling_for_d(48)


def test_labeling_rejects_inadmissible():
    for d in (6, 7, 9, 13, -2):
        with pytest.raises(NotAHassettDiscriminant):
            labeling_for_d(d)


def test_admissible_ds_label_in_order():
    ds = [labeling_for_d(d).d for d in range(7, 31) if is_admissible(d)]
    assert ds == [8, 12, 14, 18, 20, 24, 26, 30]


def test_hassett_sweep_report():
    # the claim is formatted from details' d_max, the bound passed either way
    for rep in (hassett_sweep(100), hassett_sweep(d_max=100)):
        assert rep.ok
        assert rep.check_id == "hassett.sweep"
        assert rep.claim.startswith("every admissible discriminant d <= 100 (")
        assert rep.details["failures"] == []
        assert rep.details["labeled"] == rep.details["admissible"] == 31


def test_sweep_fails_on_wrong_saturation_under_optimize(run_optimized):
    # the labeling checks must not be asserts, which python -O strips
    script = (
        "from cubiclat import hassett\n"
        "hassett._labeling_det = lambda span, eta, u: span // 4\n"
        "print(hassett.hassett_sweep(50).status)\n")
    assert run_optimized(script).split() == ["fail"]
