"""Golden CLI corpus: fixed commands whose exact output must not change.

golden_cli.json holds, for each command of the corpus, its exit code and
the exact text and error strings that ``qproj.cli.run`` returned, and,
for each corpus geometry that passes the axioms (P2(F2), P2(F3), P3(F2),
P1(F3) and Boolean(4)), the ``as_dict()`` of its derived-property
report.  The mutants of ``standard_mutations`` each fail an axiom, so
they have no ``derived`` entry: the library refuses their report, and
``geometry check`` stops after the axioms.  Each entry was written
from the code before the refactor it guards (the lattice pass for the
geometry and plane cases, the integer-coded oracles for the ``paths gf``
and ``--brute-force`` cases, the packed coefficients for the ``expand``
cases, the single axiom pass for the P2(F4) and Boolean(6) checks, the
per-filling checks of the subspace enumeration for the ``subspaces``,
``geometry build --projective`` and ``geometry affine`` cases); a change
that alters any byte of it changes behaviour, not just structure.

The enumeration cases list the subspaces of F_2^4 (k = 2), F_3^3 (k = 1),
F_16^2 (k = 1) and the trivial k = 0 and k = n cases of F_2^3, count the
3-subspaces of F_2^8, build P2(F2), P2(F3) and P3(F2) as JSON, and split
P3(F16) and P2(F3) into affine pieces.

The error cases (exit 2, an ``error:`` line) are ``subspaces 6 2 1``, a
non-prime-power q; ``group order PSL 3 1``, the degenerate q = 1;
``group order GL 2 2 --brute-force``, a family without an oracle;
``qbinom 5 7``, k > n; ``group an 1``; and ``plane bruck-ryser 1``.
``group an 5`` and ``plane bruck-ryser`` 10, 12 and 21 cover the
alternating comparison and the three Bruck-Ryser verdicts; they were
written from the code before the error handler of ``cli.run`` and the
two-squares search were simplified.

Four cases were written from the code before the reports shared one
serialiser (``Report.as_dict``): ``plane check`` on the order-1 triangle
(the degenerate-plane note, ``at_least_three_points: false``) and on the
Fano plane with the first point of its first line removed (``order:
null``, ``uniform_line_sizes: false``), and ``geometry check`` on
P3(F2) and Boolean(4) with their members shuffled by ``SHUFFLE_SEED``,
which pin the census in increasing dim whatever the member order.

Four failing cases were written from the code before meets and joins
were read from up-set bitsets instead of a stored table, each a
``geometry check`` on a copy shuffled by ``SHUFFLE_SEED``: P3(F2)
without the line at index 18 (axiom 1 names a missing join), Boolean(5)
without its first line (axiom 1 names a missing meet, which the old
code found by gathering lower bounds), P3(F2) with its first line's dim
bumped (axioms 2 and 5 fail) and P2(F4) without its first line (axiom 5
alone fails, so the pair pass runs to the end).

Three cases were written from the code before the derived properties of
a geometry that passes the axioms were certified by the axiom pass alone:
``geometry check`` on P3(F3) and Boolean(7), valid and large enough that
the certificate alone answers, and "fano line twice", the Fano plane
with its first line inserted again right after itself.

Four documents list one point set twice, which IncidenceGeometry refuses,
so they are written as JSON with no geometry behind them: "fano line
twice", and "fano minus point" 0, 1 and 2, the Fano plane with the
point's name dropped everywhere, so that its singleton repeats the empty
set.  Their ``geometry check`` and ``geometry collineations`` entries
exit 2 ("duplicate subspace"); they were written from the code before
the reader left that check to IncidenceGeometry, and they have no
``derived`` entry.

Four cases were written from the code before the collineation search kept
one trace list per depth: ``geometry collineations`` with ``--max-points``
set to the point count on P2(F3) (13 points), P3(F2) (15), P2(F4) (21)
and "P2(F3) minus line" (13 points, order 432), past the default cap of
the other collineation cases.

Four failing cases were written from the code before the pair pass
stopped once axioms 1 and 5 were settled, each a ``geometry check`` on a
copy shuffled by ``SHUFFLE_SEED``: P3(F3) without its first line (axiom
1 fails and axiom 5 never does, so every row after axiom 1's witness is
read), P3(F3) with its first line's dim bumped (every intersection is in
L, so axiom 1 holds while axioms 2 and 5 fail), Boolean(7) without its
first line, and P3(F2) without the line at index 18 and with the line at
index 16 bumped (axiom 2 fails and axiom 1 has a witness).

Five ``paths gf`` cases were written from the code before the area
generating function split each path at its midpoint: the boxes 10x10,
11x11 and 12x12, and the lopsided 5x19 and 1x23 at the 24-step budget.

Four q-series cases were written from the code before the quotient route
ran over min(k, n-k) and the expansion read its slots with one struct
call: ``qbinom 120 119`` (k next to n, where the old quotient built a
product of degree about 7,000), ``qbinom 66 36``, ``qbinom 40 39 --at 3``
and ``group order PSL 60 3``, whose formula takes [60]! from
``q_factorial``.

Two cases were written from the code before the brute-force oracle
shared the last-row cofactors of each first n-1 rows among their q^n
completions: ``group order PSL 2 11 --brute-force`` and ``group order
PSL 3 3 --brute-force``, the latter exactly at the cap of 3^9 matrices.

To extend the corpus, add the new cases here and write the new entries
from a commit whose output is trusted:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import functools
import json
from pathlib import Path

import pytest

from qproj import (build_boolean_geometry, build_projective_space,
                   check_derived_properties, geometry_to_json,
                   plane_from_geometry, plane_to_json)
from qproj import geometry
from qproj.cli import run

from util import (drop_subspace, perturb_dim, reference_axioms,
                  repeated_mask_documents, shuffle_members, standard_mutations)

GOLDEN = Path(__file__).with_name("golden_cli.json")
FILE = "{file}"
SHUFFLE_SEED = 12


@functools.cache
def _geometries():
    geoms = {
        "P2(F2)": build_projective_space(2, 2),
        "P2(F3)": build_projective_space(3, 2),
        "P3(F2)": build_projective_space(2, 3),
        "P1(F3)": build_projective_space(3, 1),
        "Boolean(4)": build_boolean_geometry(4),
    }
    geoms.update(standard_mutations(geoms["P2(F2)"], geoms["P2(F3)"],
                                    geoms["Boolean(4)"]))
    return geoms


@functools.cache
def _collineation_geometries():
    """The collineation cases besides Fano: every corpus family on <= 9 points."""
    geoms = {name: g for name, g in _geometries().items()
             if len(g.points) <= 9 and name != "P2(F2)"}
    geoms["Boolean(6)"] = build_boolean_geometry(6)
    geoms["P1(F7)"] = build_projective_space(7, 1)
    return geoms


@functools.cache
def _cases():
    """name -> (argv with FILE standing for the input path, input document)."""
    geoms = _geometries()
    fano = geoms["P2(F2)"]
    fano_line = next(i for i, d in enumerate(fano.dims) if d == 1)
    base = {}
    docs = {name: geometry_to_json(g) for name, g in geoms.items()}
    docs.update(repeated_mask_documents())
    for name, doc in docs.items():
        base[f"geometry check {name}"] = (["geometry", "check", FILE], doc)
    for name, g in (("P2(F4)", build_projective_space(4, 2)),
                    ("Boolean(6)", build_boolean_geometry(6)),
                    ("P3(F3)", build_projective_space(3, 3)),
                    ("Boolean(7)", build_boolean_geometry(7))):
        base[f"geometry check {name}"] = (["geometry", "check", FILE],
                                          geometry_to_json(g))
    base["plane check fano"] = (["plane", "check", FILE],
                                plane_to_json(plane_from_geometry(fano)))
    base["plane check fano minus line"] = (
        ["plane", "check", FILE],
        plane_to_json(plane_from_geometry(drop_subspace(fano, fano_line))))
    cut_line = plane_to_json(plane_from_geometry(fano))
    cut_line["lines"][0] = cut_line["lines"][0][1:]
    base["plane check fano minus a point of line 0"] = (["plane", "check", FILE],
                                                       cut_line)
    base["plane check order-1 triangle"] = (
        ["plane", "check", FILE],
        {"points": ["a", "b", "c"], "lines": [["a", "b"], ["a", "c"], ["b", "c"]]})
    for name in ("P3(F2)", "Boolean(4)"):
        base[f"geometry check {name} shuffled"] = (
            ["geometry", "check", FILE],
            geometry_to_json(shuffle_members(geoms[name], SHUFFLE_SEED)))
    p3f2, b5, p2f4 = (geoms["P3(F2)"], build_boolean_geometry(5),
                      build_projective_space(4, 2))
    for name, g in (("P3(F2) minus line 18", drop_subspace(p3f2, 18)),
                    ("Boolean(5) minus line", drop_subspace(b5, b5.dims.index(1))),
                    ("P3(F2) line dim bumped", perturb_dim(p3f2, p3f2.dims.index(1))),
                    ("P2(F4) minus line", drop_subspace(p2f4, p2f4.dims.index(1)))):
        base[f"geometry check {name} shuffled"] = (
            ["geometry", "check", FILE],
            geometry_to_json(shuffle_members(g, SHUFFLE_SEED)))
    p3f3, b7 = build_projective_space(3, 3), build_boolean_geometry(7)
    for name, g in (("P3(F3) minus line", drop_subspace(p3f3, p3f3.dims.index(1))),
                    ("P3(F3) line dim bumped", perturb_dim(p3f3, p3f3.dims.index(1))),
                    ("Boolean(7) minus line", drop_subspace(b7, b7.dims.index(1))),
                    ("P3(F2) minus line 18, line 16 dim bumped",
                     perturb_dim(drop_subspace(p3f2, 18), 16))):
        base[f"geometry check {name} shuffled"] = (
            ["geometry", "check", FILE],
            geometry_to_json(shuffle_members(g, SHUFFLE_SEED)))
    base["geometry collineations fano"] = (["geometry", "collineations", FILE],
                                           geometry_to_json(fano))
    base["geometry collineations fano --max-points 6"] = (
        ["geometry", "collineations", FILE, "--max-points", "6"],
        geometry_to_json(fano))
    for name, g in _collineation_geometries().items():
        base[f"geometry collineations {name}"] = (
            ["geometry", "collineations", FILE], geometry_to_json(g))
    for name, doc in repeated_mask_documents().items():
        base[f"geometry collineations {name}"] = (
            ["geometry", "collineations", FILE], doc)
    for name, g in (("P2(F3)", geoms["P2(F3)"]), ("P3(F2)", p3f2),
                    ("P2(F4)", p2f4), ("P2(F3) minus line", geoms["P2(F3) minus line"])):
        npts = str(len(g.points))
        base[f"geometry collineations {name} --max-points {npts}"] = (
            ["geometry", "collineations", FILE, "--max-points", npts],
            geometry_to_json(g))
    for m, n in ((3, 3), (4, 5), (1, 6), (6, 1), (10, 10), (11, 11), (12, 12),
                 (5, 19), (1, 23)):
        base[f"paths gf {m} {n}"] = (["paths", "gf", str(m), str(n)], None)
    base["group order SL 3 4"] = (["group", "order", "SL", "3", "4"], None)
    base["group order PGL 4 3"] = (["group", "order", "PGL", "4", "3"], None)
    for n, q in ((2, 3), (3, 2), (2, 4), (2, 11), (3, 3)):
        base[f"group order PSL {n} {q} --brute-force"] = (
            ["group", "order", "PSL", str(n), str(q), "--brute-force"], None)
    for n in (0, 1, 2, 5, 12, 30, 121):
        base[f"expand {n}"] = (["expand", str(n)], None)
    for argv in (["2", "4", "2", "--list"], ["3", "3", "1", "--list"],
                 ["16", "2", "1", "--list"], ["2", "3", "0", "--list"],
                 ["2", "3", "3", "--list"], ["2", "8", "3"]):
        base[" ".join(["subspaces"] + argv)] = (["subspaces"] + argv, None)
    for q, n in (("2", "2"), ("3", "2"), ("2", "3")):
        base[f"geometry build --projective {q} {n}"] = (
            ["geometry", "build", "--projective", q, n], None)
    for q, n in (("16", "3"), ("3", "2")):
        base[f"geometry affine {q} {n}"] = (["geometry", "affine", q, n], None)
    base["qbinom 12 5"] = (["qbinom", "12", "5"], None)
    base["qbinom 12 5 --at 3"] = (["qbinom", "12", "5", "--at", "3"], None)
    for argv in (["qbinom", "120", "119"], ["qbinom", "66", "36"],
                 ["qbinom", "40", "39", "--at", "3"],
                 ["group", "order", "PSL", "60", "3"]):
        base[" ".join(argv)] = (argv, None)
    for argv in (["subspaces", "6", "2", "1"], ["group", "order", "PSL", "3", "1"],
                 ["group", "order", "GL", "2", "2", "--brute-force"],
                 ["qbinom", "5", "7"], ["group", "an", "1"], ["group", "an", "5"]):
        base[" ".join(argv)] = (argv, None)
    for order in ("1", "10", "12", "21"):
        base[f"plane bruck-ryser {order}"] = (["plane", "bruck-ryser", order], None)
    cases = {}
    for name, (argv, doc) in base.items():
        cases[name] = (argv, doc)
        cases[f"{name} --json"] = (argv + ["--json"], doc)
    return cases


@functools.cache
def _derived_names():
    """The corpus geometries that pass the axioms, by the plain-loop oracle."""
    return sorted(name for name, g in _geometries().items()
                  if reference_axioms(g)["passed"])


def _run_case(name, tmp_path):
    argv, doc = _cases()[name]
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(path) if a == FILE else a for a in argv]
    res = run(argv)
    return {"exit_code": res.exit_code, "text": res.text, "error": res.error}


@functools.cache
def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_matches_golden_names():
    golden = _golden()
    assert sorted(golden["commands"]) == sorted(_cases())
    assert sorted(golden["derived"]) == _derived_names()


@pytest.mark.parametrize("name", sorted(_cases()))
def test_command_output_is_byte_identical(name, tmp_path):
    expected = _golden()["commands"][name]
    got = _run_case(name, tmp_path)
    assert got == {k: expected[k] for k in ("exit_code", "text", "error")}


@pytest.mark.parametrize("b", range(3))
def test_point_deletion_mutants_reach_the_axioms(b, tmp_path):
    # with its emptied singleton dropped, the mutant passes the JSON reader
    # and fails an axiom with a witness instead of stopping at "duplicate"
    got = _run_case(f"geometry check fano minus point {b}, singleton dropped",
                    tmp_path)
    assert got["exit_code"] == 1
    assert "FAIL" in got["text"] and "witness:" in got["text"]
    assert got["error"] == ""


@pytest.mark.parametrize("name", sorted(set(_geometries()) - set(_derived_names())))
def test_failing_geometry_skips_the_derived_properties(name, tmp_path, monkeypatch):
    # geometry check stops after the axioms and never asks for the derived
    # properties, which the library refuses on such input: a call would
    # end in exit 4
    def refuse(g):
        raise RuntimeError("check_derived_properties called on failing axioms")
    monkeypatch.setattr(geometry, "check_derived_properties", refuse)
    got = _run_case(f"geometry check {name}", tmp_path)
    assert got["exit_code"] == 1 and got["error"] == ""
    assert got["text"].splitlines()[-1] == "axioms failed; skipping dependent checks"


@pytest.mark.parametrize("name", _derived_names())
def test_derived_report_is_identical(name):
    report = check_derived_properties(_geometries()[name])
    assert report.as_dict() == _golden()["derived"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        commands = {}
        for case_name in sorted(_cases()):
            argv = _cases()[case_name][0]
            commands[case_name] = {"argv": argv, **_run_case(case_name, Path(tmp))}
    derived = {name: check_derived_properties(_geometries()[name]).as_dict()
               for name in _derived_names()}
    GOLDEN.write_text(json.dumps({"commands": commands, "derived": derived},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")
