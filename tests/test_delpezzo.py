"""Tests for the cubic-surface Picard lattice: lines, sixers, double sixes,
and the twisted-cubic intersection table."""

from cubiclat.delpezzo import (
    double_sixes,
    intersection_lemma_verify,
    line_classes,
    picard_basis,
    sixers,
)

L = (1, 0, 0, 0, 0, 0, 0)
E = [tuple(int(k == i) for k in range(7)) for i in range(1, 7)]


def test_picard_basis():
    pb = picard_basis()
    assert pb.lattice.rank == 7
    assert pb.lattice.signature == (1, 6)
    assert pb.canonical == (-3, 1, 1, 1, 1, 1, 1)
    assert pb.lattice.norm(pb.canonical) == 3


def test_line_count_and_samples():
    lines = line_classes()
    assert len(lines) == 27
    assert E[0] in lines
    assert (1, -1, -1, 0, 0, 0, 0) in lines
    pb = picard_basis()
    minus_k = tuple(-c for c in pb.canonical)
    for v in lines:
        assert pb.lattice.norm(v) == -1
        assert pb.lattice.pair(v, minus_k) == 1


def test_line_breakdown_by_degree_in_l():
    # 6 exceptional classes, 15 conics through two points, 6 conics with
    # degree 2
    by_a = {}
    for v in line_classes():
        by_a[v[0]] = by_a.get(v[0], 0) + 1
    assert by_a == {0: 6, 1: 15, 2: 6}


def test_sixer_count_and_coordinate_sixer():
    ss = sixers()
    assert len(ss) == 72
    coord = [s for s in ss if set(s.lines) == set(E)]
    assert len(coord) == 1
    s = coord[0]
    assert s.cubic == L
    assert s.root == (2, -1, -1, -1, -1, -1, -1)


def test_sixer_lines_are_pairwise_disjoint():
    pb = picard_basis()
    for s in sixers()[:12]:
        for i in range(6):
            for j in range(i + 1, 6):
                assert pb.lattice.pair(s.lines[i], s.lines[j]) == 0


def test_double_six_count_and_classical_partner():
    ds = double_sixes()
    assert len(ds) == 36
    pair = [d for d in ds if set(E) in (set(d[0].lines), set(d[1].lines))]
    assert len(pair) == 1
    a, b = pair[0]
    other = b if set(a.lines) == set(E) else a
    # the partner lines are the conics 2l - sum(e) + e_i
    expected = {tuple(2 if k == 0 else (-1 if k != i else 0) for k in range(7))
                for i in range(1, 7)}
    assert set(other.lines) == expected
    assert other.root == tuple(-c for c in (2, -1, -1, -1, -1, -1, -1))


def test_double_six_cubics_meet_in_five_points():
    pb = picard_basis()
    for a, b in double_sixes():
        assert pb.lattice.pair(a.cubic, b.cubic) == 5
        assert a.root == tuple(-c for c in b.root)


def test_intersection_table_certificate():
    rep = intersection_lemma_verify()
    assert rep.ok
    d = rep.details
    assert d["lines"] == 27
    assert d["sixers"] == 72
    assert d["double_sixes"] == 36
    assert d["pairs"] == 2556
    assert d["distribution"] == {2: 720, 3: 1080, 4: 720, 5: 36}
    assert d["syzygetic_pairings"] == [0]
    assert d["root_span"] == ["E6"]
    assert d["problems"] == []


def test_sixer_divisibility_raises_under_optimize(run_optimized):
    # with K replaced by (-2, 1, ..., 1) the six e_i stay lines, but their
    # sum minus K is not divisible by 3; python -O would strip an assert
    script = (
        "from cubiclat import delpezzo\n"
        "from cubiclat.core import NotIntegral\n"
        "real = delpezzo.picard_basis()\n"
        "delpezzo.picard_basis = lambda: delpezzo.PicardBasis(\n"
        "    real.lattice, (-2, 1, 1, 1, 1, 1, 1))\n"
        "try:\n"
        "    delpezzo.sixers()\n"
        "except NotIntegral as exc:\n"
        "    print('raised', exc)\n"
        "else:\n"
        "    print('passed')\n")
    stdout = run_optimized(script)
    assert stdout.startswith("raised sixer"), stdout
