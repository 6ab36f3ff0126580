import random
from fractions import Fraction as F

import pytest

from twistscl.fibration import (
    MAX_MATRIX_SIZE,
    ContradictionSearch,
    find_contradiction_n,
    intersection_matrix,
    invariants_report,
)


def test_direct_substitution_g2():
    inv = invariants_report(2, F(1, 10), 10)
    assert inv.rn == 1
    assert inv.chi == 10
    assert inv.b1_upper == 6
    assert inv.b2minus_lower == 9
    assert inv.b2plus_upper == 11
    assert inv.sigma_upper == 2
    assert inv.c1sq_li_lower == 0
    assert inv.contradiction_value == 26
    assert not inv.contradiction


def test_boundary_and_negative_cases():
    assert invariants_report(3, F(1, 49), 49).contradiction_value == -1
    assert invariants_report(3, F(1, 48), 48).contradiction_value == 0
    assert invariants_report(3, F(1, 49), 49).contradiction


def test_non_integral_rn_rejected():
    with pytest.raises(ValueError):
        invariants_report(3, F(1, 10), 7)
    with pytest.raises(ValueError):
        invariants_report(1, F(1, 2), 2)
    with pytest.raises(ValueError):
        invariants_report(3, F(-1, 2), 2)


def test_identities_on_random_inputs():
    rng = random.Random(1234)
    for _ in range(1000):
        g = rng.randrange(2, 30)
        r = F(rng.randrange(1, 40), rng.randrange(1, 25))
        n = r.denominator * rng.randrange(1, 50)
        inv = invariants_report(g, r, n)
        rn = inv.rn
        assert rn == r * n
        assert inv.chi == 4 * g * rn - 4 * rn - 4 * g + 4 + n
        assert inv.sigma_upper == inv.b2plus_upper - inv.b2minus_lower
        assert inv.c1sq_upper == 20 * g * rn - 8 * rn - n + 20 - 8 * g
        assert inv.split_consistent
        assert (inv.c1sq_li_lower <= inv.c1sq_upper) == (inv.contradiction_value >= 0)
        assert inv.contradiction_value == (18 * g - 6) * rn - n + 18 - 6 * g


def test_find_contradiction_examples():
    assert find_contradiction_n(3, F(1, 49)) == ContradictionSearch(49, False)
    assert find_contradiction_n(3, F(1, 24)) == ContradictionSearch(None, True)
    assert find_contradiction_n(2, F(1, 31)) == ContradictionSearch(217, False)


def test_find_contradiction_returns_minimal_valid_n():
    found = find_contradiction_n(2, F(1, 31))
    assert found.n == 217
    q = 31
    for n in range(q, found.n, q):
        assert invariants_report(2, F(1, 31), n).contradiction_value >= 0
    assert invariants_report(2, F(1, 31), found.n).contradiction_value < 0


def test_find_contradiction_none_at_or_above_the_bound():
    for g in range(2, 12):
        bound = F(1, 18 * g - 6)
        for r in (bound, 2 * bound, bound + F(1, 1000), F(1, 2), F(3)):
            assert find_contradiction_n(g, r).impossible
        below = bound - F(1, 10 ** 6)
        found = find_contradiction_n(g, below)
        assert not found.impossible and found.n is not None
        assert invariants_report(g, below, found.n).contradiction


def test_find_contradiction_rejects_bad_input():
    with pytest.raises(ValueError):
        find_contradiction_n(1, F(1, 10))
    with pytest.raises(ValueError):
        find_contradiction_n(3, 0)


def _det_oracle(matrix):
    """Fraction-free Gaussian elimination on a copy (Bareiss)."""
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for swap in range(k + 1, n):
                if m[swap][k]:
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def test_matrix_small_cases():
    form = intersection_matrix(1)
    assert form.matrix == ((2,),) and form.minors == (2,) and form.positive_definite
    form = intersection_matrix(2)
    assert form.matrix == ((2, 1), (1, 2)) and form.minors == (2, 3)
    form = intersection_matrix(5)
    assert form.minors == (2, 3, 4, 5, 6)
    with pytest.raises(ValueError):
        intersection_matrix(0)


def test_matrix_minors_match_determinant_oracle():
    form = intersection_matrix(8)
    for k in range(1, 9):
        top_left = [row[:k] for row in form.matrix[:k]]
        assert _det_oracle(top_left) == form.minors[k - 1] == k + 1


def test_matrix_minors_up_to_200():
    form = intersection_matrix(200)
    assert form.positive_definite
    assert form.minors == tuple(k + 1 for k in range(1, 201))
    assert all(form.matrix[i][j] == (2 if i == j else 1 if abs(i - j) == 1 else 0)
               for i in range(200) for j in range(200))


def test_matrix_size_is_capped():
    assert intersection_matrix(MAX_MATRIX_SIZE).minors[-1] == MAX_MATRIX_SIZE + 1
    with pytest.raises(ValueError, match=str(MAX_MATRIX_SIZE)):
        intersection_matrix(MAX_MATRIX_SIZE + 1)
