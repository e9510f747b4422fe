import pytest

from qproj import (BruckRyserVerdict, DimensionMismatch, GeometryFormatError,
                   PlaneStructure, bruck_ryser, build_boolean_geometry,
                   build_projective_space, plane_from_geometry,
                   plane_from_json, plane_to_json, two_squares,
                   validate_axioms, validate_plane)
from qproj.errors import BudgetExceeded
from qproj.geometry import IncidenceGeometry
from qproj.planes import MAX_TWO_SQUARES_CANDIDATES


def _fano_plane():
    return plane_from_geometry(build_projective_space(2, 2))


class TestValidatePlane:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_projective_planes_valid(self, q):
        plane = plane_from_geometry(build_projective_space(q, 2))
        report = validate_plane(plane)
        assert report.passed, [c for c in report.checks if not c.passed]
        assert report.order == q
        assert len(plane.points) == q * q + q + 1
        assert len(plane.lines) == q * q + q + 1
        assert report.at_least_three_points
        assert report.uniform_line_sizes

    def test_point_deleted_from_line(self):
        plane = _fano_plane()
        lines = [list(line) for line in plane.lines]
        lines[0] = lines[0][1:]  # one line loses a point
        report = validate_plane(PlaneStructure(plane.points,
                                               tuple(tuple(l) for l in lines)))
        assert not report.passed
        failed = {c.description: c for c in report.checks if not c.passed}
        assert any("unique line" in d for d in failed)
        assert all(c.witness for c in failed.values())

    def test_line_removed(self):
        plane = _fano_plane()
        report = validate_plane(PlaneStructure(plane.points, plane.lines[1:]))
        assert not report.passed

    def test_degenerate_order_one(self):
        plane = plane_from_geometry(build_boolean_geometry(3))
        report = validate_plane(plane)
        assert report.passed
        assert report.order == 1
        assert not report.at_least_three_points
        assert len(plane.lines) == 3
        assert all(len(line) == 2 for line in plane.lines)

    def test_all_points_on_one_line(self):
        plane = PlaneStructure(("a", "b", "c"), (("a", "b", "c"),))
        report = validate_plane(plane)
        assert not report.checks[0].passed

    def test_uniformity_hypothesis_holds_per_instance(self):
        # whenever every line has >= 3 points on our instances, sizes agree
        for q in (2, 3, 4, 5):
            report = validate_plane(plane_from_geometry(build_projective_space(q, 2)))
            if report.at_least_three_points:
                assert report.uniform_line_sizes


class TestGeometryAgreement:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_valid_plane_completes_to_geometry(self, q):
        plane = plane_from_geometry(build_projective_space(q, 2))
        report = validate_plane(plane)
        assert report.passed and report.order == q
        specs = [(-1, [])]
        specs += [(0, [p]) for p in plane.points]
        specs += [(1, line) for line in plane.lines]
        specs += [(2, plane.points)]
        g = IncidenceGeometry.from_point_sets(plane.points, specs,
                                              claimed_order=q)
        geo_report = validate_axioms(g)
        assert geo_report.passed
        assert geo_report.order == q
        assert geo_report.dimension == 2


class TestPlaneFromGeometry:
    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            plane_from_geometry(build_projective_space(2, 3))
        with pytest.raises(DimensionMismatch):
            plane_from_geometry(build_projective_space(2, 1))

    def test_p2_f4_shape(self):
        plane = plane_from_geometry(build_projective_space(4, 2))
        assert len(plane.points) == 21
        assert len(plane.lines) == 21
        assert all(len(line) == 5 for line in plane.lines)


class TestBruckRyser:
    def test_known_verdicts(self):
        assert bruck_ryser(6)[0] is BruckRyserVerdict.FAILS
        assert bruck_ryser(10)[0] is BruckRyserVerdict.PASSES
        assert bruck_ryser(12)[0] is BruckRyserVerdict.NOT_APPLICABLE
        assert bruck_ryser(14)[0] is BruckRyserVerdict.FAILS  # 14 = 2 mod 4
        assert bruck_ryser(2)[0] is BruckRyserVerdict.PASSES

    def test_no_prime_power_excluded(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            if q % 4 in (1, 2):
                assert bruck_ryser(q)[0] is BruckRyserVerdict.PASSES, q

    def test_precondition(self):
        with pytest.raises(ValueError):
            bruck_ryser(1)

    def test_two_squares(self):
        assert two_squares(10) == (1, 3)
        assert two_squares(9) == (0, 3)
        assert two_squares(6) is None
        # brute force: the representation with the least a, for every n < 2000
        first = {}
        for a in range(45):
            for b in range(a, 45):
                first.setdefault(a * a + b * b, (a, b))
        for n in range(2000):
            assert two_squares(n) == first.get(n), n

    def test_huge_order_past_the_candidate_cap_is_refused(self):
        # 3 * (10^24 + 3) = 1 mod 4 has the factor 3 once: a FAIL that
        # would need about 1.2 * 10^12 candidates to prove
        order = 3 * (10 ** 24 + 3)
        with pytest.raises(BudgetExceeded) as err:
            bruck_ryser(order)
        assert str(order) in str(err.value)
        assert f"cap of {MAX_TWO_SQUARES_CANDIDATES}" in str(err.value)


class TestPlaneJson:
    def test_round_trip(self):
        plane = _fano_plane()
        doc = plane_to_json(plane)
        back = plane_from_json(doc)
        assert set(back.points) == set(plane.points)
        assert {frozenset(l) for l in back.lines} == {frozenset(l) for l in plane.lines}

    def test_format_errors(self):
        cases = [
            ([], "top level"),
            ({"lines": []}, "points"),
            ({"points": ["a"], "lines": [["b"]]}, "unknown point"),
            ({"points": ["a"], "lines": [["a", "a"]]}, "duplicate"),
            ({"points": ["a", "a"], "lines": []}, "duplicate"),
        ]
        for doc, fragment in cases:
            with pytest.raises(GeometryFormatError) as err:
                plane_from_json(doc)
            assert fragment in str(err.value)
