"""Monotone lattice paths counted by the area they enclose.

A path from (0,0) to (m,n) takes unit steps right (R) and up (U).  The
area statistic is the area between the path and the bottom and right
walls of the m-by-n box: each up step taken at horizontal position x
contributes a row of m - x unit cells, so the area counts the pairs
(up step, later right step).  Summing q^area over all paths gives a
polynomial that coincides with the Gaussian binomial [m+n choose m]_q;
that identity is what pins the area convention down, and it is asserted
wherever these paths are used.

The area generating function reads each path as the positions of its R
steps and takes the area from their sum.  It splits each path at step
h = (m+n)//2 into a first half with some j R steps in positions 0..h-1
and a second half with the other m - j in positions h..m+n-1; every path
is exactly one such pair, and its position sum is the sum of the two
halves'.  So it lists half-paths, at most 2^h + 2^(m+n-h) of them, and
never whole paths.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .errors import BudgetExceeded
from .qcalc import MAX_Q_SERIES_N, QPoly, over_q_series_cap

DEFAULT_MAX_STEPS = 24


def _check_box(m: int, n: int, max_steps: int) -> None:
    """Refuse an empty box, one over max_steps, and one past the q-series
    cap, whose C(m+n, m) >= C(121, 60) > 10^35 paths no budget admits and
    whose [m+n choose m]_q cannot be formed to compare with."""
    if m < 1 or n < 1:
        raise ValueError("box sides must be positive")
    if m + n > max_steps:
        raise BudgetExceeded(
            f"{m}+{n} steps exceed the path budget of {max_steps}")
    if m + n > MAX_Q_SERIES_N:
        raise over_q_series_cap(m + n, f"[{m + n} choose {m}] has degree {m * n}")


def _area_offset(m: int) -> int:
    # the i-th R step (0-based) at position p has p - i up steps before
    # it, and each (U before R) pair is one cell of the area, so the area
    # is the sum of the R positions less 0 + 1 + ... + (m - 1)
    return m * (m - 1) // 2


def area_generating_function(m: int, n: int,
                             max_steps: int = DEFAULT_MAX_STEPS) -> QPoly:
    """Sum of q^area over all paths in the m-by-n box.

    Each path is read as the sum of the positions of its R steps, with
    no step tuple built.  Splitting at h = (m+n)//2, a path with j R steps
    among its first h is one j-subset of range(h) followed by one
    (m-j)-subset of range(h, m+n), and every such pair is one path, so
    the number of paths with position sum s is the sum, over j and over
    s_left + s_right = s, of the product of the two halves' counts.  Only
    the half-paths are listed, sum_j C(h, j) + C(m+n-h, m-j) <=
    2^h + 2^(m+n-h) of them.  The pairing loop visits pairs of distinct
    half sums, at most sum_j C(h, j) C(m+n-h, m-j) = C(m+n, m)
    (Vandermonde), the number of whole paths, and far fewer once m+n
    passes a few steps.  It is plain counting, with no q-identity and no
    recursion, so the result stays independent of both q-binomial
    routes.  Equals the Gaussian binomial [m+n choose m]_q; checked in
    the tests and by the CLI rather than assumed here.
    """
    _check_box(m, n, max_steps)
    counts = [0] * (m * n + 1)
    offset = _area_offset(m)
    total = m + n
    h = total // 2
    for j in range(max(0, m - (total - h)), min(m, h) + 1):
        left = Counter(map(sum, itertools.combinations(range(h), j)))
        right = Counter(map(sum, itertools.combinations(range(h, total), m - j)))
        for s_left, c_left in left.items():
            for s_right, c_right in right.items():
                counts[s_left + s_right - offset] += c_left * c_right
    assert sum(counts) == math.comb(m + n, m)
    return QPoly(counts)
