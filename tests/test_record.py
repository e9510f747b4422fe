"""Record against frozen dataclasses with the same fields."""

import dataclasses
from dataclasses import dataclass

import pytest

from qproj.cli import CommandResult
from qproj.geometry import (AxiomReport, CensusReport, Check, DerivedPropertiesReport,
                            IncidenceGeometry, Report)
from qproj.groups import AlternatingComparison, GroupOrderReport
from qproj.planes import PlaneReport, PlaneStructure
from qproj.record import Record


# the twins: each record's fields, declared by hand as a frozen dataclass
@dataclass(frozen=True)
class IncidenceGeometryTwin:
    points: tuple
    subspaces: tuple
    dims: tuple
    claimed_order: object = None


@dataclass(frozen=True)
class CheckTwin:
    number: int
    description: str
    passed: bool
    witness: object = None


@dataclass(frozen=True)
class AxiomReportTwin:
    axioms: tuple
    order: object
    dimension: object


@dataclass(frozen=True)
class DerivedPropertiesReportTwin:
    properties: tuple


@dataclass(frozen=True)
class CensusReportTwin:
    counts: dict
    expected: dict
    recurrence_passed: bool
    order: int
    dimension: int


@dataclass(frozen=True)
class PlaneStructureTwin:
    points: tuple
    lines: tuple


@dataclass(frozen=True)
class PlaneReportTwin:
    checks: tuple
    order: object
    uniform_line_sizes: bool
    at_least_three_points: bool


@dataclass(frozen=True)
class GroupOrderReportTwin:
    family: str
    n: int
    q: int
    order: int
    method: str


@dataclass(frozen=True)
class AlternatingComparisonTwin:
    n: int
    alternating_order: int
    symmetric_order: int
    alternating_is_simple: bool


@dataclass(frozen=True)
class CommandResultTwin:
    exit_code: int
    text: str = ""
    error: str = ""


def _checks(make):
    return (make(1, "first", True), make(2, "second", False, "a witness"))


def _cases():
    """(id, record class, twin class, arguments(make_check), keywords)."""
    yield "geometry", IncidenceGeometry, IncidenceGeometryTwin, \
        lambda c: (("a", "b"), (0, 1, 2, 3), (-1, 0, 0, 1)), {}
    yield "geometry ordered", IncidenceGeometry, IncidenceGeometryTwin, \
        lambda c: (("a", "b", "c"), (0, 1, 2, 4, 7), (-1, 0, 0, 0, 1)), \
        {"claimed_order": 2}
    yield "check", Check, CheckTwin, lambda c: (3, "text", True), {}
    yield "check with witness", Check, CheckTwin, lambda c: (3, "text", False), \
        {"witness": "{a}(dim 0)"}
    yield "axioms", AxiomReport, AxiomReportTwin, lambda c: (_checks(c), 2, None), {}
    yield "derived", DerivedPropertiesReport, DerivedPropertiesReportTwin, \
        lambda c: (_checks(c),), {}
    yield "census", CensusReport, CensusReportTwin, \
        lambda c: ({-1: 1, 0: 7}, {-1: 1, 0: 7}, True), {"order": 2, "dimension": 2}
    yield "plane structure", PlaneStructure, PlaneStructureTwin, \
        lambda c: (("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))), {}
    yield "plane report", PlaneReport, PlaneReportTwin, \
        lambda c: (_checks(c), 1, True, False), {}
    yield "group order", GroupOrderReport, GroupOrderReportTwin, \
        lambda c: ("PSL", 3, 2, 168, "formula"), {}
    yield "alternating", AlternatingComparison, AlternatingComparisonTwin, \
        lambda c: (5, 60, 120, True), {}
    yield "command result", CommandResult, CommandResultTwin, lambda c: (0,), {"text": "7"}
    yield "command result defaults", CommandResult, CommandResultTwin, lambda c: (2,), {}


CASES = [pytest.param(*case[1:], id=case[0]) for case in _cases()]


def _pair(cls, twin, args, kwargs):
    return cls(*args(Check), **kwargs), twin(*args(CheckTwin), **kwargs)


@pytest.mark.parametrize("cls, twin, args, kwargs", CASES)
def test_matches_a_frozen_dataclass(cls, twin, args, kwargs):
    record, reference = _pair(cls, twin, args, kwargs)
    assert repr(record) == repr(reference).replace("Twin(", "(")
    assert record._asdict() == dataclasses.asdict(reference)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    assert record == cls(*args(Check), **kwargs)
    try:
        expected = hash(reference)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("cls, twin, args, kwargs", CASES)
def test_equal_only_to_the_same_class(cls, twin, args, kwargs):
    record, reference = _pair(cls, twin, args, kwargs)
    values = tuple(record._asdict().values())
    assert record != reference
    assert record != values
    assert not record == values
    # a record of another class with the same field values
    other = type("Other", (cls,), {})(*args(Check), **kwargs)
    assert record != other


@pytest.mark.parametrize("cls, twin, args, kwargs", CASES)
def test_a_changed_field_is_unequal(cls, twin, args, kwargs):
    record, _ = _pair(cls, twin, args, kwargs)
    fields = {f: getattr(record, f) for f in cls._fields}
    fields[cls._fields[-1]] = 99
    assert cls(**fields) != record


@pytest.mark.parametrize("cls, twin, args, kwargs", CASES)
def test_frozen(cls, twin, args, kwargs):
    record, _ = _pair(cls, twin, args, kwargs)
    before = repr(record)
    for name in cls._fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("call", [
    pytest.param(lambda: Check(1, "text"), id="missing"),
    pytest.param(lambda: Check(1, "text", True, None, "extra"), id="extra positional"),
    pytest.param(lambda: Check(1, "text", True, colour="red"), id="unknown keyword"),
    pytest.param(lambda: Check(1, "text", True, number=2), id="repeated"),
    pytest.param(lambda: CommandResult(), id="missing, all else defaulted"),
])
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_keywords_and_positions_build_the_same_record():
    assert (Check(1, "text", False, "w")
            == Check(number=1, description="text", passed=False, witness="w")
            == Check(1, "text", witness="w", passed=False))


def test_report_subclasses_have_exactly_their_declared_fields():
    # on Python 3.10 cls.__annotations__ of a class that declares nothing
    # is its base's, so a field list read from it would be wrong here
    assert Record._fields == Report._fields == ()
    assert AxiomReport._fields == ("axioms", "order", "dimension")
    assert DerivedPropertiesReport._fields == ("properties",)
    assert PlaneReport._fields == ("checks", "order", "uniform_line_sizes",
                                   "at_least_three_points")

    class Bare(Check):
        pass

    class Extended(Check):
        extra: int = 0

    assert Bare._fields == Check._fields
    assert Extended._fields == Check._fields + ("extra",)
    assert Extended(1, "text", True)._asdict() == {
        "number": 1, "description": "text", "passed": True, "witness": None, "extra": 0}


def test_cached_properties_live_beside_the_fields():
    g = IncidenceGeometry(("a", "b"), (0, 1, 2, 3), (-1, 0, 0, 1))
    assert g._lattice is g._lattice
    assert g == IncidenceGeometry(("a", "b"), (0, 1, 2, 3), (-1, 0, 0, 1))
    assert g._asdict() == {"points": ("a", "b"), "subspaces": (0, 1, 2, 3),
                           "dims": (-1, 0, 0, 1), "claimed_order": None}


def test_asdict_copies_containers():
    census = CensusReport({0: 7}, {0: 7}, True, 2, 2)
    out = census._asdict()
    out["counts"][0] = 8
    assert census.counts == {0: 7}
