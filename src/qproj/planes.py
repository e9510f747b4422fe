"""Abstract finite projective planes and the Bruck-Ryser order test.

A projective plane of order q, stated tersely: a finite set of points
with distinguished subsets called lines such that not all points lie on
one line, each line has q + 1 points, each pair of distinct points is on
a unique line, and each pair of distinct lines meets in a unique point.
validate_plane checks exactly that, inferring q from the first line.

Degenerate order-1 structures (lines of two points) are reported as
valid with an explicit flag rather than rejected; the q = 1 thread is
the point of this package.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterable, Sequence

from .errors import BudgetExceeded, DimensionMismatch, GeometryFormatError
from .geometry import (Check, IncidenceGeometry, Report, _checks,
                       _geometry_dimension)
from .lattice import _bits
from .record import Record

# about 0.15 s for a 25-digit order, 1.4 s for 4000 digits, on a 2-core VM
MAX_TWO_SQUARES_CANDIDATES = 10 ** 6


class PlaneStructure(Record):
    points: tuple[str, ...]
    lines: tuple[tuple[str, ...], ...]


class PlaneReport(Report):
    checks: tuple[Check, ...]
    order: int | None
    uniform_line_sizes: bool
    at_least_three_points: bool  # the hypothesis that already forces uniformity

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        # `plane check --json` lists the checks without their numbers
        out = super().as_dict()
        for c in out["checks"]:
            del c["number"]
        return out


def _unique_line_witness(points: Sequence[str],
                         line_masks: Iterable[int]) -> str | None:
    """Witness for the first pair of distinct points not on exactly one line."""
    pair_lines: dict[tuple[int, int], int] = {}
    for m in line_masks:
        for pair in itertools.combinations(_bits(m), 2):
            pair_lines[pair] = pair_lines.get(pair, 0) + 1
    for a, b in itertools.combinations(range(len(points)), 2):
        c = pair_lines.get((a, b), 0)
        if c != 1:
            return f"points {points[a]} and {points[b]} lie on {c} lines"
    return None


def validate_plane(p: PlaneStructure) -> PlaneReport:
    """Check the plane conditions; failures carry a witness."""
    index = {name: i for i, name in enumerate(p.points)}
    npts = len(p.points)
    masks = []
    for line in p.lines:
        mask = 0
        for name in line:
            mask |= 1 << index[name]
        masks.append(mask)
    full = (1 << npts) - 1

    w_span = None
    for i, m in enumerate(masks):
        if npts > 0 and m == full:
            w_span = f"line {i} contains every point"
            break

    sizes = [m.bit_count() for m in masks]
    uniform = len(set(sizes)) <= 1
    order = sizes[0] - 1 if sizes else None
    w_uniform = None
    if not uniform:
        j = next(i for i, s in enumerate(sizes) if s != sizes[0])
        w_uniform = f"line 0 has {sizes[0]} points but line {j} has {sizes[j]}"

    w_pairs = _unique_line_witness(p.points, masks)

    w_meets = None
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] == masks[j]:
                w_meets = f"lines {i} and {j} are identical"
                break
            common = (masks[i] & masks[j]).bit_count()
            if common != 1:
                w_meets = f"lines {i} and {j} meet in {common} points"
                break
        if w_meets:
            break

    checks = _checks(
        {1: "not all points lie on one line",
         2: "every line has the same number of points",
         3: "each pair of distinct points is on a unique line",
         4: "each pair of distinct lines meets in a unique point"},
        {1: w_span, 2: w_uniform, 3: w_pairs, 4: w_meets})
    at_least_three = bool(sizes) and min(sizes) >= 3
    return PlaneReport(checks, order if uniform else None,
                       uniform, at_least_three)


class BruckRyserVerdict(enum.Enum):
    NOT_APPLICABLE = "NotApplicable"
    FAILS = "Fails"
    PASSES = "Passes"


def two_squares(n: int) -> tuple[int, int] | None:
    """A representation n = a^2 + b^2 with a <= b and a least, or None.

    Tries a = 0, 1, ... while a^2 <= n/2, where b >= a always holds,
    keeping b = isqrt(n - a^2) by stepping it down instead of taking a
    square root of a large number per candidate.  Raises BudgetExceeded
    when the first MAX_TWO_SQUARES_CANDIDATES values of a give no
    representation and more remain.
    """
    candidates = math.isqrt(n // 2) + 1
    b = math.isqrt(n)
    rest, b_square = n, b * b  # n - a^2 and b^2 for the current a
    for a in range(min(candidates, MAX_TWO_SQUARES_CANDIDATES)):
        while b_square > rest:
            b_square -= 2 * b - 1
            b -= 1
        if b_square == rest:
            return a, b
        rest -= 2 * a + 1
    if candidates > MAX_TWO_SQUARES_CANDIDATES:
        raise BudgetExceeded(
            f"order {n} needs up to {candidates} candidates a for a^2 + b^2, "
            f"over the cap of {MAX_TWO_SQUARES_CANDIDATES}")
    return None


def bruck_ryser(order: int) -> tuple[BruckRyserVerdict, tuple[int, int] | None]:
    """Necessary condition on plane orders congruent to 1 or 2 mod 4.

    Such an order must be a sum of two squares for a plane to exist.
    PASSES means only "not excluded by this test"; famously, order 10
    passes yet no plane of order 10 exists (ruled out by exhaustive
    computer search).  Returns the verdict and, for PASSES, the
    decomposition (a, b) from two_squares; None otherwise.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if order % 4 not in (1, 2):
        return BruckRyserVerdict.NOT_APPLICABLE, None
    decomposition = two_squares(order)
    if decomposition is None:
        return BruckRyserVerdict.FAILS, None
    return BruckRyserVerdict.PASSES, decomposition


def plane_from_geometry(g: IncidenceGeometry) -> PlaneStructure:
    """Extract the lines of a 2-dimensional geometry as a plane structure."""
    dim_p = _geometry_dimension(g)
    if dim_p != 2:
        raise DimensionMismatch(
            f"geometry has dimension {dim_p}, need 2 to extract a plane")
    lines = tuple(g.subspace_point_names(i)
                  for i in range(len(g.subspaces)) if g.dims[i] == 1)
    return PlaneStructure(g.points, lines)


def plane_to_json(p: PlaneStructure) -> dict:
    return {
        "points": list(p.points),
        "lines": [sorted(line) for line in p.lines],
    }


def plane_from_json(obj: object) -> PlaneStructure:
    if not isinstance(obj, dict):
        raise GeometryFormatError("top level: expected an object")
    if "points" not in obj or not isinstance(obj["points"], list):
        raise GeometryFormatError("points: expected a list")
    for i, name in enumerate(obj["points"]):
        if not isinstance(name, str):
            raise GeometryFormatError(f"points[{i}]: expected a string")
    if len(set(obj["points"])) != len(obj["points"]):
        raise GeometryFormatError("points: duplicate point identifier")
    if "lines" not in obj or not isinstance(obj["lines"], list):
        raise GeometryFormatError("lines: expected a list")
    known = set(obj["points"])
    lines = []
    for i, line in enumerate(obj["lines"]):
        if not isinstance(line, list):
            raise GeometryFormatError(f"lines[{i}]: expected a list")
        for name in line:
            if not isinstance(name, str) or name not in known:
                raise GeometryFormatError(f"lines[{i}]: unknown point {name!r}")
        if len(set(line)) != len(line):
            raise GeometryFormatError(f"lines[{i}]: duplicate point")
        lines.append(tuple(line))
    return PlaneStructure(tuple(obj["points"]), tuple(lines))
