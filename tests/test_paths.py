import itertools
import math
from collections import Counter

import pytest

import qproj.paths
from qproj import BudgetExceeded, area_generating_function, q_binomial_recurrence


def _walk_area(m, n, rpos):
    # the path with its R steps at the positions rpos, walked step by
    # step: an up step taken at horizontal position x adds a row of
    # m - x cells
    x = area = 0
    for step in range(m + n):
        if step in rpos:
            x += 1
        else:
            area += m - x
    return area


def test_two_paths_in_unit_box():
    # RU hugs the bottom edge and UR encloses the one cell
    assert area_generating_function(1, 1).coeffs == (1, 1)


def test_three_paths():
    assert area_generating_function(2, 1).coeffs == (1, 1, 1)


def test_counts_match_binomial():
    for m in range(1, 7):
        for n in range(1, 7):
            assert sum(area_generating_function(m, n).coeffs) == math.comb(m + n, m)


def test_area_unit_box():
    assert _walk_area(1, 1, (1,)) == 1  # up first
    assert _walk_area(1, 1, (0,)) == 0  # right first


def test_hugging_path_has_area_zero():
    for m, n in ((3, 2), (1, 5), (4, 4)):
        assert _walk_area(m, n, tuple(range(m))) == 0
        # and it is the only path of area zero
        assert area_generating_function(m, n).coeffs[0] == 1


def test_area_extremes():
    for m, n in ((2, 3), (4, 2)):
        coeffs = area_generating_function(m, n).coeffs
        assert len(coeffs) == m * n + 1
        assert coeffs[0] == coeffs[-1] == 1
        # the path that goes all the way up first encloses the whole box
        assert _walk_area(m, n, tuple(range(n, m + n))) == m * n


def test_area_matches_step_walk():
    # the generating function reads a path's area as the sum of its R
    # positions less _area_offset(m)
    for m in range(1, 6):
        for n in range(1, 6):
            for rpos in itertools.combinations(range(m + n), m):
                area = sum(rpos) - qproj.paths._area_offset(m)
                assert area == _walk_area(m, n, rpos), rpos


def test_generating_function_small():
    assert area_generating_function(1, 1).coeffs == (1, 1)
    assert area_generating_function(2, 2).coeffs == (1, 1, 2, 1, 1)


def test_generating_function_is_gaussian_binomial():
    for m in range(1, 7):
        for n in range(1, 7):
            assert area_generating_function(m, n) == q_binomial_recurrence(m + n, m)


def test_generating_function_matches_per_path_areas():
    # the reference lists the R positions of every whole path and walks
    # each one; it shares no code with the midpoint split or with qcalc
    for total in range(2, 15):
        for m in range(1, total):
            n = total - m
            areas = Counter(_walk_area(m, n, rpos)
                            for rpos in itertools.combinations(range(total), m))
            expected = [areas[a] for a in range(m * n + 1)]
            assert list(area_generating_function(m, n).coeffs) == expected, (m, n)


def test_generating_function_lists_half_paths_only(monkeypatch):
    # listing whole paths at 12x12 draws C(24, 12) = 2,704,156 tuples; the
    # split draws sum_j C(12, j) + C(12, 12 - j) = 2 * 2^12
    drawn = 0
    combinations = itertools.combinations

    def counting_combinations(pool, r):
        nonlocal drawn
        for t in combinations(pool, r):
            drawn += 1
            yield t

    monkeypatch.setattr(qproj.paths.itertools, "combinations", counting_combinations)
    area_generating_function(12, 12)
    assert 0 < drawn <= 2 * 2 ** 12


def test_lost_half_path_is_an_internal_error(monkeypatch):
    # a raise, not an assert, so python -O keeps the check
    monkeypatch.setattr(qproj.paths, "Counter", lambda sums: Counter(list(sums)[1:]))
    with pytest.raises(AssertionError, match="paths counted"):
        area_generating_function(3, 3)


def test_palindromic_coefficients():
    # reversing a path and swapping R/U sends area a to mn - a
    for m in range(1, 6):
        for n in range(1, 6):
            assert area_generating_function(m, n).is_palindromic()


def test_value_at_one_counts_paths():
    for m, n in ((2, 3), (5, 4)):
        assert area_generating_function(m, n).evaluate(1) == math.comb(m + n, m)


def test_budget():
    with pytest.raises(BudgetExceeded):
        area_generating_function(20, 10)
    with pytest.raises(BudgetExceeded):
        area_generating_function(3, 3, max_steps=5)
    # the raised cap admits it
    assert area_generating_function(3, 3, max_steps=6).evaluate(1) == 20


def test_positive_box_required():
    for m, n in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            area_generating_function(m, n)
