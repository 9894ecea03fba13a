from fractions import Fraction
from math import gcd

import pytest

from cubiclat import exact
from oracles import mat_mul, transpose


def test_bareiss_det_small():
    assert exact.bareiss_det([]) == 1
    assert exact.bareiss_det([[7]]) == 7
    assert exact.bareiss_det([[1, 2], [3, 4]]) == -2
    assert exact.bareiss_det([[2, -1], [-1, 2]]) == 3
    assert exact.bareiss_det([[1, 2], [2, 4]]) == 0


def test_bareiss_det_matches_cofactor_expansion():
    a = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    det3 = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    assert exact.bareiss_det(a) == det3 == -90


def test_bareiss_needs_no_row_swap_luck():
    # zero pivot in the corner forces the swap path
    assert exact.bareiss_det([[0, 1], [1, 0]]) == -1
    assert exact.bareiss_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_frac_inverse():
    for a in ([[2, 1], [1, 1]],
              # zero pivots at steps 0 and 1: swaps (0, 2) then (1, 2), which
              # must be undone on the columns in reverse order
              [[0, 1, 2], [0, 0, 3], [2, 1, 1]],
              [[Fraction(1, 2), Fraction(2, 3)], [Fraction(-3, 4), 5]]):
        inv = exact.frac_inverse(a)
        assert mat_mul(inv, a) == exact.identity(len(a))
        assert mat_mul(a, inv) == exact.identity(len(a))
    with pytest.raises(ZeroDivisionError):
        exact.frac_inverse([[1, 2], [2, 4]])


def test_solve_exact():
    for a, b in (([[2, 1], [1, 3]], [5, 10]),
                 ([[Fraction(1, 2), 3], [Fraction(2, 3), Fraction(-1, 5)]],
                  [Fraction(7, 4), Fraction(-2, 9)])):
        x = exact.solve_exact(a, b)
        assert [sum(a[i][j] * x[j] for j in range(2)) for i in range(2)] == b
        assert all(isinstance(c, Fraction) for c in x)


def test_solve_exact_rejects_a_singular_matrix():
    # the elimination runs over a alone: a singular a has a column with no
    # pivot, whatever b is
    with pytest.raises(ZeroDivisionError):
        exact.solve_exact([[1, 1], [1, 1]], [1, 2])
    with pytest.raises(ZeroDivisionError):
        exact.solve_exact([[1, 1], [1, 1]], [1, 1])


def test_square_entry_points_reject_a_mis_shaped_matrix():
    for a, message in (([[1, 2, 3], [4, 5, 6]], "2 rows but a row of 3"),
                       ([[1, 0], [0, 1], [1, 1]], "3 rows but a row of 2"),
                       ([[1, 0, 0], [0, 1]], "2 rows but a row of 3")):
        for f in (exact.bareiss_det, exact.frac_inverse):
            with pytest.raises(ValueError, match=message):
                f(a)
        with pytest.raises(ValueError, match=message):
            exact.solve_exact(a, [1] * len(a))


def test_solve_exact_rejects_a_right_hand_side_of_the_wrong_length():
    for b in ([1], [1, 2, 3]):
        with pytest.raises(ValueError,
                           match=f"right-hand side has {len(b)} entries, not 2"):
            exact.solve_exact([[1, 0], [0, 1]], b)


def test_rational_rank():
    assert exact.rational_rank([[1, 2], [2, 4]]) == 1
    assert exact.rational_rank([[1, 0], [0, 1]]) == 2
    assert exact.rational_rank([[0, 0], [0, 0]]) == 0
    assert exact.rational_rank([[1, 2, 3], [4, 5, 6]]) == 2


def test_smith_normal_form_factorization():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, u, v = exact.smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(exact.bareiss_det(u)) == 1
    assert abs(exact.bareiss_det(v)) == 1
    diag = [d[i][i] for i in range(3)]
    for i in range(2):
        if diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0
    # |det| is preserved by the unimodular transforms
    assert diag[0] * diag[1] * diag[2] == abs(exact.bareiss_det(a))


def _snf_diagonal(a):
    d, _, _ = exact.smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def test_snf_diagonal_known_values():
    assert _snf_diagonal([[2, 0], [0, 6]]) == [2, 6]
    assert _snf_diagonal([[6, 0], [0, 4]]) == [2, 12]
    assert _snf_diagonal([[1, 2], [2, 4]]) == [1, 0]


def test_integer_kernel():
    k = exact.integer_kernel([[1, 2, 3]])
    assert len(k) == 2
    for col in k:
        assert col[0] + 2 * col[1] + 3 * col[2] == 0
    assert exact.integer_kernel([[1, 0], [0, 1]]) == []
    # saturation: the kernel of [2 4] is generated by (2, -1), not (4, -2)
    k = exact.integer_kernel([[2, 4]])
    assert len(k) == 1
    assert gcd(*k[0]) == 1


def test_hermite_column_basis():
    vectors = [[2, 0], [4, 2], [6, 4]]
    basis = exact.hermite_column_basis(vectors)
    assert len(basis) == 2
    for col in basis:
        lead = next(x for x in col if x != 0)
        assert lead > 0
    # span is unchanged: rebuilding from basis + originals adds nothing
    again = exact.hermite_column_basis(vectors + [list(b) for b in basis])
    assert again == basis


def test_hermite_reduces_off_pivot_entries():
    basis = exact.hermite_column_basis([[3, 0], [5, 4]])
    pivots = [next(i for i, x in enumerate(col) if x) for col in basis]
    for j, col in enumerate(basis):
        for k, other in enumerate(basis):
            if k != j:
                assert 0 <= other[pivots[j]] < col[pivots[j]]


def test_matrix_helpers():
    # the test-only oracles the factorization tests multiply with
    a = [[1, 2], [3, 4]]
    assert transpose(a) == [[1, 3], [2, 4]]
    assert mat_mul(a, exact.identity(2)) == a


def test_numerators_clear_denominators():
    assert exact.numerators([3, -2, 0]) == ([3, -2, 0], 1)
    assert exact.numerators([Fraction(1, 2), Fraction(-2, 3), 5]) == (
        [3, -4, 30], 6)
    assert exact.numerators([Fraction(4, 2), Fraction(0)]) == ([2, 0], 1)
    assert exact.numerators([]) == ([], 1)
