import itertools
import math
from collections import Counter

import pytest

import qproj.paths
from qproj import (BudgetExceeded, LatticePath, area_generating_function,
                   enumerate_paths, path_area, q_binomial_recurrence)


def test_two_paths_in_unit_box():
    paths = enumerate_paths(1, 1)
    assert [str(p) for p in paths] == ["RU", "UR"]


def test_three_paths():
    assert len(enumerate_paths(2, 1)) == 3


def test_counts_match_binomial():
    for m in range(1, 7):
        for n in range(1, 7):
            paths = enumerate_paths(m, n)
            assert len(paths) == math.comb(m + n, m)
            assert len(set(str(p) for p in paths)) == len(paths)


def test_lexicographic_order():
    strings = [str(p) for p in enumerate_paths(3, 2)]
    assert strings == sorted(strings)  # 'R' < 'U' in ASCII


def test_area_unit_box():
    up_first = LatticePath(("U", "R"), (1, 1))
    right_first = LatticePath(("R", "U"), (1, 1))
    assert path_area(up_first) == 1
    assert path_area(right_first) == 0


def test_hugging_path_has_area_zero():
    for m, n in ((3, 2), (1, 5), (4, 4)):
        p = LatticePath(("R",) * m + ("U",) * n, (m, n))
        assert path_area(p) == 0


def test_area_extremes():
    for m, n in ((2, 3), (4, 2)):
        areas = [path_area(p) for p in enumerate_paths(m, n)]
        assert min(areas) == 0
        assert max(areas) == m * n
        top = LatticePath(("U",) * n + ("R",) * m, (m, n))
        assert path_area(top) == m * n


def _walk_area(p):
    # an up step taken at horizontal position x adds a row of m - x cells
    m = p.box[0]
    x = area = 0
    for step in p.steps:
        if step == "R":
            x += 1
        else:
            area += m - x
    return area


def test_area_matches_step_walk():
    for m in range(1, 6):
        for n in range(1, 6):
            for p in enumerate_paths(m, n):
                assert path_area(p) == _walk_area(p), str(p)


def test_step_count_enforced():
    with pytest.raises(ValueError):
        LatticePath(("R", "R"), (1, 1))


def test_generating_function_small():
    assert area_generating_function(1, 1).coeffs == (1, 1)
    assert area_generating_function(2, 2).coeffs == (1, 1, 2, 1, 1)


def test_generating_function_is_gaussian_binomial():
    for m in range(1, 7):
        for n in range(1, 7):
            assert area_generating_function(m, n) == q_binomial_recurrence(m + n, m)


def test_generating_function_matches_per_path_areas():
    # the reference lists every whole path and reads its area one path at
    # a time; it shares no code with the midpoint split or with qcalc
    for total in range(2, 15):
        for m in range(1, total):
            n = total - m
            areas = Counter(path_area(p) for p in enumerate_paths(m, n))
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
        enumerate_paths(20, 10)
    with pytest.raises(BudgetExceeded):
        area_generating_function(20, 10)
    with pytest.raises(BudgetExceeded):
        enumerate_paths(3, 3, max_steps=5)
    assert len(enumerate_paths(3, 3, max_steps=6)) == 20  # raised cap admits it


def test_positive_box_required():
    for m, n in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            enumerate_paths(m, n)
        with pytest.raises(ValueError):
            area_generating_function(m, n)
