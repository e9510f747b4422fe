import argparse
import hashlib
import itertools
import json
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproj import cli
from qproj.cli import _int_digit_limit, run
from qproj.groups import MAX_GL_ORDER_BITS, gl_order
from qproj.qcalc import MAX_Q_SERIES_N, QPoly, q_binomial_quotient


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestQbinom:
    def test_coefficients(self):
        res = run(["qbinom", "4", "2"])
        assert res.exit_code == 0
        assert res.text == "1 1 2 1 1"

    def test_evaluated(self):
        res = run(["qbinom", "3", "1", "--at", "2"])
        assert res.exit_code == 0
        assert res.text == "7"

    def test_json_payload(self):
        res = run(["qbinom", "4", "2", "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.text)
        assert doc["command"] == "qbinom"
        assert doc["ok"] is True
        assert doc["data"]["coefficients"] == [1, 1, 2, 1, 1]
        assert doc["data"]["routes_agree"] is True

    def test_out_of_range_is_usage_error(self):
        res = run(["qbinom", "3", "5"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_value_past_default_int_str_digit_limit(self, flags):
        # the value has 4,501 digits; str() refused it, which read as exit 2
        res = run(["qbinom", "60", "30", "--at", "100000"] + flags)
        assert res.exit_code == 0
        value = q_binomial_quotient(60, 30).evaluate(100000)
        with _int_digit_limit(0):
            if flags:
                assert json.loads(res.text)["data"]["value_at"]["value"] == value
            else:
                assert res.text == str(value)

    def test_value_size_cap(self):
        # evaluating this took 90 s to build a 12M-bit value
        start = time.perf_counter()
        res = run(["qbinom", "120", "60", "--at", str(10 ** 1000)])
        assert time.perf_counter() - start < 1
        assert res.exit_code == 3
        assert res.error == ("budget exceeded: [120 choose 60] at Q0 has about "
                             "k(n-k) * bit_length(|Q0|) = 11959200 bits, over the "
                             f"cap of {MAX_GL_ORDER_BITS}")

    @pytest.mark.parametrize("sign", [1, -1])
    def test_value_one_bit_over_the_cap(self, sign):
        # k(n-k) = 8 * 16 and an 8193-bit Q0 give 2^20 + 128 bits
        res = run(["qbinom", "24", "8", "--at", str(sign * 2 ** 8192)])
        assert res.exit_code == 3
        assert res.error.endswith(f"= {MAX_GL_ORDER_BITS + 128} bits, over the "
                                  f"cap of {MAX_GL_ORDER_BITS}")

    def test_value_at_the_cap_is_answered(self):
        # an 8192-bit Q0 gives k(n-k) * bit_length(|Q0|) = 2^20 exactly
        q0 = 2 ** 8191
        res = run(["qbinom", "24", "8", "--at", str(q0)])
        assert res.exit_code == 0
        value = q_binomial_quotient(24, 8).evaluate(q0)
        assert 10 ** (len(res.text) - 1) <= value < 10 ** len(res.text)
        assert int(res.text[-40:]) == value % 10 ** 40


def _int_text_cases():
    """(id, value) pairs on both sides of _STR_INT_BITS and at 2^20 bits."""
    t = cli._STR_INT_BITS
    yield "0", 0
    yield "-1", -1
    yield "10^4300", 10 ** 4300
    yield "-2^(T+1)", -2 ** (t + 1)
    for e, name in ((t - 1, "T-1"), (t, "T"), (t + 1, "T+1")):
        yield f"2^{name}-1", 2 ** e - 1
        yield f"2^{name}", 2 ** e
    # 10^19728 has 65,535 bits and 10^19729 has 65,539
    for d in (19728, 19729):
        yield f"10^{d}-1", 10 ** d - 1
        yield f"10^{d}", 10 ** d
    yield "random 2^18 bits", random.Random(0).getrandbits(2 ** 18)
    yield "random 2^20 bits", random.Random(1).getrandbits(2 ** 20) | 1 << (2 ** 20 - 1)


class TestIntText:
    @pytest.mark.parametrize("value", [pytest.param(v, id=i) for i, v in _int_text_cases()])
    def test_equals_str(self, value):
        with _int_digit_limit(0):
            assert cli._int_text(value) == str(value)

    @pytest.mark.parametrize("d", [315652, 315653])
    def test_powers_of_ten_near_the_cap(self, d):
        # 10^315652 has 1,048,574 bits and 10^315653 has 2^20 + 1
        assert cli._int_text(10 ** d - 1) == "9" * d
        assert cli._int_text(10 ** d) == "1" + "0" * d

    def test_decimal_imported_only_past_the_threshold(self):
        # decimal raises the memory peak of every command that imports it
        script = ("import sys\n"
                  "from qproj.cli import run\n"
                  "run(['group', 'order', 'GL', '100', '2'])\n"
                  "print('decimal' in sys.modules)\n"
                  "run(['group', 'order', 'GL', '300', '2'])\n"
                  "print('decimal' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "False\nTrue\n"


class TestJsonText:
    @pytest.mark.parametrize("bits, sign", [(2 ** 16 - 1, 1), (2 ** 16, -1),
                                            (2 ** 16 + 1, 1), (2 ** 16 + 1, -1),
                                            (2 ** 20, 1)])
    def test_equals_json_dumps(self, bits, sign):
        value = sign * (random.Random(bits).getrandbits(bits) | 1 << (bits - 1))
        doc = {"command": "group order", "ok": True,
               "data": {"order": value, "rows": [[1, -2], [], {}, ("é\"", 0.5, None)],
                        3: False, None: 1.5, True: -value, 0.25: [value]}}
        with _int_digit_limit(0):
            assert cli._json_text(doc) == json.dumps(doc, indent=2)


class TestJsonFormatsNoText:
    # the text lines are discarded under --json, so none is formatted
    @pytest.mark.parametrize("argv, formatter", [
        (["qbinom", "4", "2"], "_poly_text"),
        (["qbinom", "3", "1", "--at", "2"], "_int_text"),
        (["group", "order", "PSL", "3", "2"], "_int_text"),
        (["subspaces", "2", "3", "1", "--list"], "_basis_text"),
    ])
    def test_formatter_not_called(self, monkeypatch, argv, formatter):
        def refuse(*args):
            raise AssertionError("a text line was formatted")

        want = run(argv + ["--json"]).text
        monkeypatch.setattr(cli, formatter, refuse)
        res = run(argv + ["--json"])
        assert res.exit_code == 0
        assert res.text == want
        assert run(argv).exit_code == cli.EXIT_INTERNAL

    def test_geometry_build_dumps_the_document_once(self, monkeypatch):
        argv = ["geometry", "build", "--projective", "2", "2", "--json"]
        want = run(argv).text
        docs = []
        to_json, dumps = cli.geo.geometry_to_json, json.dumps

        def recording_to_json(g):
            docs.append(to_json(g))
            return docs[-1]

        def refusing_dumps(obj, **kwargs):
            if any(obj is doc for doc in docs):
                raise AssertionError("the document was formatted as text")
            return dumps(obj, **kwargs)

        def refusing_text(g):
            raise AssertionError("the text line was formatted")

        monkeypatch.setattr(cli.geo, "geometry_to_json", recording_to_json)
        monkeypatch.setattr(json, "dumps", refusing_dumps)
        monkeypatch.setattr(cli, "_geometry_text", refusing_text)
        res = run(argv)
        assert res.exit_code == 0
        assert res.text == want
        assert len(docs) == 1


class TestTextBuildsNoPayload:
    # the payload is discarded without --json, so its big parts are not built
    def test_geometry_build_calls_no_geometry_to_json(self, monkeypatch):
        argv = ["geometry", "build", "--projective", "2", "3"]
        want = run(argv).text

        def refuse(g):
            raise AssertionError("the JSON document was built")

        monkeypatch.setattr(cli.geo, "geometry_to_json", refuse)
        res = run(argv)
        assert res.exit_code == 0
        assert res.text == want
        assert run(argv + ["--json"]).exit_code == cli.EXIT_INTERNAL

    def test_subspaces_list_builds_no_listing_payload(self, monkeypatch):
        argv = ["subspaces", "3", "3", "2", "--list"]
        want = run(argv).text
        payloads = []
        handler = cli._cmd_subspaces

        def recording(args):
            code, lines, payload = handler(args)
            payloads.append(payload)
            return code, lines, payload

        monkeypatch.setattr(cli, "_cmd_subspaces", recording)
        res = run(argv)
        assert res.exit_code == 0
        assert res.text == want
        assert "subspaces" not in payloads[-1]
        listed = json.loads(run(argv + ["--json"]).text)["data"]["subspaces"]
        assert payloads[-1]["subspaces"] == listed
        assert len(listed) == len(want.splitlines()) - 1 == 13


class TestExpand:
    def test_n2(self):
        res = run(["expand", "2"])
        assert res.exit_code == 0
        assert res.text.splitlines() == [
            "x^0 y^2: 1",
            "x^1 y^1: 1 + q",
            "x^2 y^0: 1",
        ]

    def test_json_formats_no_text(self, monkeypatch):
        # the text lines are discarded under --json, so none is formatted
        def refuse(self):
            raise AssertionError("a text line was formatted")

        want = run(["expand", "6", "--json"]).text
        monkeypatch.setattr(QPoly, "__str__", refuse)
        res = run(["expand", "6", "--json"])
        assert res.exit_code == 0
        assert res.text == want
        assert (json.loads(res.text)["data"]["terms"][3]["coefficients"]
                == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1])
        # the text path formats them, and a failure there is still internal
        assert run(["expand", "6"]).exit_code == cli.EXIT_INTERNAL


class TestSubspaces:
    def test_count(self):
        res = run(["subspaces", "2", "3", "1"])
        assert res.exit_code == 0
        assert "count: 7 (expected 7)" in res.text

    def test_list(self):
        res = run(["subspaces", "2", "2", "1", "--list"])
        lines = res.text.splitlines()
        assert lines[0] == "count: 3 (expected 3)"
        assert set(lines[1:]) == {"1 0", "1 1", "0 1"}

    def test_budget_exit_code(self):
        res = run(["subspaces", "5", "4", "2", "--budget", "10"])
        assert res.exit_code == 3
        assert "budget" in res.error

    def test_bad_q(self):
        res = run(["subspaces", "6", "3", "1"])
        assert res.exit_code == 2


class TestGeometryText:
    """The text of geometry build, written from the masks, is
    json.dumps(geometry_to_json(g), indent=2)."""

    @pytest.mark.parametrize("g", [
        cli.geo.build_boolean_geometry(1),
        cli.geo.build_projective_space(3, 0),
        # "p10" < "p2": name order is not index order
        cli.geo.build_boolean_geometry(11),
        # escapes and non-ASCII, listed against index order
        cli.geo.IncidenceGeometry(("\u00e9\"\\", "a"), (0b11,), (1,)),
        cli.geo.IncidenceGeometry(("a",), (0, 1), (-1, 0), claimed_order=7),
        cli.geo.IncidenceGeometry((), (0,), (-1,)),
        cli.geo.IncidenceGeometry((), (), ()),
    ], ids=["Boolean(1)", "P0(F3)", "Boolean(11)", "escaped names",
            "empty subspace", "empty point list", "no subspaces"])
    def test_equals_json_dumps(self, g):
        assert cli._geometry_text(g) == json.dumps(cli.geo.geometry_to_json(g), indent=2)

    def test_writer_peak_is_near_its_output(self):
        # pieces are shared per point and joined once; the route through
        # the document and a second text took about 6x the output
        g = cli.geo.build_projective_space(2, 5)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            text = cli._geometry_text(g)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)

    # sha256 of the stdout of geometry build --projective Q N, with and
    # without --json, written from the code before the masks were joined
    # from lines and the text from strings
    @pytest.mark.parametrize("q, n, flags, digest", [
        ("2", "5", [], "5f3de9c45d3c99776f4d17738432d60f2ba8bab832095c99bc9c0f4e9aa7008b"),
        ("2", "5", ["--json"], "042aad09272e4beef72fb67ec35ec52b20d0c95773875f0574961490ebe51923"),
        ("4", "3", [], "c563685d4c091cc9e20cf2dc93b88ae3f84abb2289eaf44e5e95b2fb27c5df3f"),
        ("4", "3", ["--json"], "ca49cbfeb812ed524532bb09332bfdf21df7f9fe0a190c46b50e29927a890e87"),
        ("9", "2", [], "fe9b95df0d4ba1db40e2ded3f400a8a30adc35a55aac716069b395d628793216"),
        ("9", "2", ["--json"], "0570fdef425b94aadcd8328999b93b4e036270d5ee14857dfa450541be9e80f0"),
        ("16", "2", [], "35de0025f37ed9193595f1efa84112410df863dac5d37188f3c2abe7a62b614c"),
        ("16", "2", ["--json"], "f0c9065e1baa85a8b354eda2d10606482886b060d922ff4df52e1ffff86ae2a1"),
    ])
    def test_build_stdout_is_pinned(self, q, n, flags, digest):
        res = run(["geometry", "build", "--projective", q, n, *flags])
        assert res.exit_code == 0
        # main prints the text with a newline
        assert hashlib.sha256((res.text + "\n").encode()).hexdigest() == digest


class TestGeometry:
    @pytest.mark.parametrize("flags", [["--projective", "2", "2"],
                                       ["--projective", "3", "1"],
                                       ["--boolean", "4"]])
    def test_build_check_round_trip(self, tmp_path, flags):
        res = run(["geometry", "build", *flags])
        assert res.exit_code == 0
        path = tmp_path / "g.json"
        path.write_text(res.text)
        check = run(["geometry", "check", str(path)])
        assert check.exit_code == 0, check.text
        assert "census: PASS" in check.text

    def test_build_output_parses_and_is_stable(self):
        res = run(["geometry", "build", "--boolean", "3"])
        doc = json.loads(res.text)
        assert len(doc["points"]) == 3
        assert len(doc["subspaces"]) == 8
        res2 = run(["geometry", "build", "--boolean", "3"])
        assert res.text == res2.text

    def test_check_mutated_fano_fails(self, tmp_path):
        res = run(["geometry", "build", "--projective", "2", "2"])
        doc = json.loads(res.text)
        idx = next(i for i, s in enumerate(doc["subspaces"]) if s["dim"] == 1)
        del doc["subspaces"][idx]
        path = _write(tmp_path, "bad.json", doc)
        check = run(["geometry", "check", path])
        assert check.exit_code == 1
        assert "FAIL" in check.text
        assert "witness" in check.text

    def test_check_json_mode(self, tmp_path):
        res = run(["geometry", "build", "--boolean", "3"])
        path = tmp_path / "b3.json"
        path.write_text(res.text)
        check = run(["geometry", "check", str(path), "--json"])
        doc = json.loads(check.text)
        assert doc["ok"] is True
        assert doc["data"]["passed"] is True
        assert doc["data"]["census"]["passed"] is True

    def test_format_error_names_field(self, tmp_path):
        path = _write(tmp_path, "bad.json", {
            "points": ["a"],
            "subspaces": [{"dim": -1, "points": []},
                          {"dim": 0, "points": ["missing"]}],
        })
        res = run(["geometry", "check", path])
        assert res.exit_code == 2
        assert "subspaces[1].points" in res.error

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        res = run(["geometry", "check", str(path)])
        assert res.exit_code == 2
        assert "invalid JSON" in res.error

    def test_missing_file(self):
        res = run(["geometry", "check", "/nonexistent/g.json"])
        assert res.exit_code == 2

    def test_deeply_nested_json_is_format_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        res = run(["geometry", "check", str(path)])
        assert res.exit_code == 2
        assert res.error.startswith("format error:")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no int-to-str digit limit")
    def test_huge_integer_literal_is_usage_error(self, tmp_path):
        # parsing keeps Python's guard against quadratic str-to-int conversion
        path = tmp_path / "huge_int.json"
        path.write_text('{"points": ["a"], "subspaces": [{"dim": 1'
                        + "0" * 5000 + ', "points": []}]}')
        res = run(["geometry", "check", str(path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("n", ["119", "130", "100000000"])
    def test_projective_budget_names_n(self, n):
        # the point count alone refuses these, before any q-binomial is formed
        res = run(["geometry", "build", "--projective", "2", n])
        assert res.exit_code == 3
        assert f"P^{n}(F_2)" in res.error
        assert "q-series cap" not in res.error

    def test_lattice_cap_exit_code(self, tmp_path):
        # 2^16 subspaces (empty set, singletons, pairs of 362 points)
        points = [str(i) for i in range(362)]
        subsets = itertools.chain([()], ((p,) for p in points),
                                  itertools.combinations(points, 2))
        subspaces = [{"dim": len(s) - 1, "points": list(s)}
                     for s in itertools.islice(subsets, 1 << 16)]
        path = _write(tmp_path, "huge.json",
                      {"points": points, "subspaces": subspaces})
        res = run(["geometry", "check", path])
        assert res.exit_code == 3
        assert "65536" in res.error and "4096" in res.error

    def test_collineations(self, tmp_path):
        res = run(["geometry", "build", "--projective", "2", "2"])
        path = tmp_path / "fano.json"
        path.write_text(res.text)
        out = run(["geometry", "collineations", str(path)])
        assert out.exit_code == 0
        assert out.text == "collineations: 168"

    def test_collineations_cap(self, tmp_path):
        res = run(["geometry", "build", "--projective", "3", "2"])
        path = tmp_path / "p2f3.json"
        path.write_text(res.text)
        out = run(["geometry", "collineations", str(path)])
        assert out.exit_code == 3
        out = run(["geometry", "collineations", str(path), "--max-points", "13"])
        assert out.exit_code == 0
        assert out.text == "collineations: 5616"  # |PGammaL_3(F_3)| = |PGL_3(F_3)|

    def test_affine(self):
        res = run(["geometry", "affine", "3", "2"])
        assert res.exit_code == 0
        assert "piece sizes: 9 3 1" in res.text

    @pytest.mark.parametrize("n, count", [
        ("19", "1048575"), ("200", "at least 1048575"),
        ("100000000", "at least 1048575")])
    def test_affine_budget_names_n_and_points(self, n, count):
        # the point count alone refuses these, before any q-binomial is formed
        res = run(["geometry", "affine", "2", n])
        assert res.exit_code == 3
        assert res.error == (f"budget exceeded: P^{n}(F_2) has {count} points, "
                             "over the budget of 1000000")


class TestPlane:
    def test_check_valid(self, tmp_path):
        lines = [[f"n{i}", f"n{(i + 1) % 7}", f"n{(i + 3) % 7}"] for i in range(7)]
        path = _write(tmp_path, "plane.json", {
            "points": [f"n{i}" for i in range(7)],
            "lines": lines,
        })
        res = run(["plane", "check", path])
        assert res.exit_code == 0
        assert "order: 2" in res.text

    def test_check_invalid(self, tmp_path):
        path = _write(tmp_path, "plane.json", {
            "points": ["a", "b", "c"],
            "lines": [["a", "b"]],
        })
        res = run(["plane", "check", path])
        assert res.exit_code == 1

    def test_bruck_ryser_fails_is_exit_zero(self):
        res = run(["plane", "bruck-ryser", "6"])
        assert res.exit_code == 0  # the test itself succeeded
        assert res.text.startswith("FAILS (6 = 2 mod 4")

    def test_bruck_ryser_order_ten_annotated(self):
        res = run(["plane", "bruck-ryser", "10"])
        assert res.exit_code == 0
        assert "PASSES (10 = 1^2 + 3^2)" in res.text
        assert "no projective plane of order 10" in res.text

    def test_bruck_ryser_searches_two_squares_once(self, monkeypatch):
        calls = []
        search = cli.pl.two_squares

        def counted(n):
            calls.append(n)
            return search(n)

        monkeypatch.setattr(cli.pl, "two_squares", counted)
        assert run(["plane", "bruck-ryser", "10"]).exit_code == 0
        assert calls == [10]

    def test_bruck_ryser_not_applicable(self):
        res = run(["plane", "bruck-ryser", "12"])
        assert res.exit_code == 0
        assert res.text.startswith("NOT APPLICABLE")

    def test_bruck_ryser_huge_order(self):
        res = run(["plane", "bruck-ryser", "3000000000000000000000009"])
        assert res.exit_code == 3
        assert res.error.startswith("budget exceeded: order 3000000000000000000000009")
        res = run(["plane", "bruck-ryser", "10000000000000000000001"])
        assert res.exit_code == 0
        assert res.text == "PASSES (10000000000000000000001 = 1^2 + 100000000000^2)"

    def test_bruck_ryser_json(self):
        doc = json.loads(run(["plane", "bruck-ryser", "10", "--json"]).text)
        assert doc["data"]["verdict"] == "Passes"
        assert doc["data"]["decomposition"] == [1, 3]


class TestPaths:
    def test_gf(self):
        res = run(["paths", "gf", "2", "2"])
        assert res.exit_code == 0
        lines = res.text.splitlines()
        assert lines[0] == "1 1 2 1 1"
        assert "PASS" in lines[1]

    def test_budget(self):
        res = run(["paths", "gf", "20", "10"])
        assert res.exit_code == 3


class TestGroup:
    def test_order(self):
        res = run(["group", "order", "PSL", "3", "2"])
        assert res.exit_code == 0
        assert res.text == "|PSL_3(F_2)| = 168"

    def test_order_brute_force(self):
        res = run(["group", "order", "PSL", "2", "3", "--brute-force"])
        assert res.exit_code == 0
        assert "brute force: 12 - MATCH" in res.text

    def test_order_at_the_cap(self):
        # 457^2 * bit_length(16) = 1,044,245, just under the cap; the
        # order has 835,396 bits
        res = run(["group", "order", "GL", "457", "16"])
        assert res.exit_code == 0
        with _int_digit_limit(0):
            assert res.text == f"|GL_457(F_16)| = {gl_order(457, 16)}"

    def test_order_past_default_int_str_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        res = run(["group", "order", "GL", "300", "9"])
        assert res.exit_code == 0
        assert run(["group", "order", "GL", "300", "9", "--json"]).exit_code == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        with _int_digit_limit(0):
            assert res.text == f"|GL_300(F_9)| = {gl_order(300, 9)}"

    @pytest.mark.parametrize("family", ["GL", "SL"])
    def test_order_size_cap(self, family):
        start = time.perf_counter()
        res = run(["group", "order", family, "3000", "2"])
        assert time.perf_counter() - start < 0.1
        assert res.exit_code == 3
        assert res.error == (f"budget exceeded: |GL_3000(F_2)| has up to n^2 * "
                             f"bit_length(q) = 18000000 bits, over the cap of "
                             f"{MAX_GL_ORDER_BITS}")

    def test_psl_order_size_cap(self):
        start = time.perf_counter()
        res = run(["group", "order", "PSL", "120", str(2 ** 400)])
        assert time.perf_counter() - start < 1
        assert res.exit_code == 3
        assert res.error == (f"budget exceeded: |PSL_120(F_{2 ** 400})| has up to "
                             f"n^2 * bit_length(q) = 5774400 bits, over the cap of "
                             f"{MAX_GL_ORDER_BITS}")

    @pytest.mark.parametrize("argv, code", [
        (["subspaces", str(10 ** 18 + 3), "2", "1"], 3),
        (["geometry", "affine", str(10 ** 18 + 3), "2"], 3),
        (["group", "order", "GL", "2", str(10 ** 18 + 3)], 0),
        (["group", "order", "PSL", "2", str(10 ** 18 + 3)], 0),
        (["group", "order", "GL", "2", str(2 ** 127 - 1)], 3),
    ])
    def test_large_prime_q_is_decided_at_once(self, argv, code):
        # q = 10^18 + 3 is prime with no factor below 2^16, so trial
        # division alone would run to 10^9; 2^127 - 1 is past the exact bound
        start = time.perf_counter()
        res = run(argv)
        assert time.perf_counter() - start < 0.1
        assert res.exit_code == code, res.error

    def test_brute_force_cap(self):
        res = run(["group", "order", "PSL", "3", "4", "--brute-force"])
        assert res.exit_code == 3

    def test_degenerate_q(self):
        res = run(["group", "order", "PSL", "3", "1"])
        assert res.exit_code == 2
        assert "0/n" in res.error

    def test_an(self):
        res = run(["group", "an", "5"])
        assert res.exit_code == 0
        assert "A_5: order 60 (simple)" in res.text
        assert "order 120" in res.text


class TestStartup:
    def test_import_loads_neither_dataclasses_nor_typing(self):
        # each command is a fresh interpreter, so these imports cost every
        # call; typing may already come with site (a .pth file), so the
        # modules of an empty run are subtracted
        def loaded(statement):
            script = f"import sys\n{statement}\nprint(' '.join(sorted(sys.modules)))"
            env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
            res = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=60)
            assert res.returncode == 0, res.stderr
            return set(res.stdout.split())

        added = loaded("import qproj.cli") - loaded("pass")
        assert "qproj.cli" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


class TestUsage:
    def test_no_command(self):
        assert run([]).exit_code == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]).exit_code == 2

    def test_help_is_success(self):
        assert run(["--help"]).exit_code == 0

    @pytest.mark.parametrize("argv", [
        [], [""], ["--help"], ["-h"], ["bogus"], ["--", "qbinom", "4", "2"],
        ["qbin", "4", "2"], ["qbinom", "4", "2"], ["qbinom", "x", "2"],
        ["qbinom", "4", "2", "extra"], ["qbinom", "-h"], ["geometry"],
        ["geometry", "bogus"], ["geometry", "--help"], ["geometry", "check"],
        ["geometry", "check", "g.json", "extra"], ["geometry", "build"],
        ["geometry", "collineations", "g.json", "--max-points", "-1"],
        ["plane"], ["paths", "gf", "2"], ["group", "order", "XX", "2", "2"],
        ["group", "an", "5", "--json"]])
    def test_partial_parser_reads_as_the_whole_tree(self, argv, capsys):
        # the parser built for argv holds only the subparsers argv names,
        # yet parses, prints and exits as the whole tree does
        def outcome(parser):
            try:
                parsed = parser.parse_args(argv)
            except SystemExit as e:
                parsed = e.code
            out = capsys.readouterr()
            return parsed, out.out, out.err

        assert outcome(cli._build_parser(argv)) == outcome(cli._build_parser())

    def test_only_the_named_subparsers_are_built(self, monkeypatch):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        cli._build_parser(["geometry", "check", "g.json"])
        assert built == ["geometry", "check"]
        built.clear()
        cli._build_parser(["bogus"])
        assert len(built) == 16  # every parser but the top one


class TestCapFlags:
    @pytest.mark.parametrize("argv", [
        ["subspaces", "2", "3", "1", "--budget"],
        ["geometry", "build", "--projective", "2", "2", "--budget"],
        ["geometry", "collineations", "fano.json", "--max-points"],
        ["paths", "gf", "2", "2", "--max-steps"]])
    def test_negative_cap_is_usage_error(self, argv, tmp_path, capsys):
        if "collineations" in argv:
            fano = tmp_path / "fano.json"
            fano.write_text(run(["geometry", "build", "--projective", "2", "2"]).text)
            argv = [str(fano) if a == "fano.json" else a for a in argv]
        assert run(argv + ["-1"]).exit_code == 2
        assert "must be nonnegative, got -1" in capsys.readouterr().err
        assert run(argv + ["0"]).exit_code == 3


class TestQSeriesCap:
    @pytest.mark.parametrize("argv", [["qbinom", "1200", "1"],
                                      ["group", "order", "PSL", "1100", "2"],
                                      ["expand", "121"]])
    def test_over_cap_is_budget_exit(self, argv):
        # these used to end in a RecursionError traceback with exit 1
        res = run(argv)
        assert res.exit_code == 3
        assert res.error.startswith("budget exceeded:")
        assert f"cap of n <= {MAX_Q_SERIES_N}" in res.error

    def test_at_cap_is_answered(self):
        res = run(["qbinom", str(MAX_Q_SERIES_N), "1"])
        assert res.exit_code == 0
        assert res.text == " ".join(["1"] * MAX_Q_SERIES_N)

    @pytest.mark.parametrize("argv", [
        ["paths", "gf", str(10 ** 20), "1", "--max-steps", str(10 ** 21)],
        ["paths", "gf", str(MAX_Q_SERIES_N), "1", "--max-steps", "200"],
        ["subspaces", "2", str(10 ** 20), "0"],
        ["subspaces", "2", str(MAX_Q_SERIES_N + 1), str(MAX_Q_SERIES_N + 1)]])
    def test_box_and_ambient_space_past_the_cap(self, argv):
        # the 20-digit ones used to end in an OverflowError (exit 4)
        res = run(argv)
        assert res.exit_code == 3
        assert res.error.startswith("budget exceeded: n = ")
        assert f"cap of n <= {MAX_Q_SERIES_N}" in res.error

    def test_box_and_ambient_space_at_the_cap(self):
        res = run(["paths", "gf", str(MAX_Q_SERIES_N - 1), "1", "--max-steps", "200"])
        assert res.exit_code == 0
        assert res.text.splitlines()[0] == " ".join(["1"] * MAX_Q_SERIES_N)
        res = run(["subspaces", "2", str(MAX_Q_SERIES_N), str(MAX_Q_SERIES_N)])
        assert res.exit_code == 0 and res.text == "count: 1 (expected 1)"


def test_unexpected_exception_is_internal_error(monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_qbinom", broken)
    res = run(["qbinom", "4", "2"])
    assert res.exit_code == cli.EXIT_INTERNAL == 4
    assert res.error == "internal error: RuntimeError: boom"


# --- argv fuzzing: every subcommand, small ints, junk tokens and files -------

# each command with the kinds of its positionals: n a number, f a file, g a family
_FUZZ_COMMANDS = [(["qbinom"], "nn"), (["expand"], "n"), (["subspaces"], "nnn"),
                  (["geometry", "build"], ""), (["geometry", "check"], "f"),
                  (["geometry", "collineations"], "f"), (["geometry", "affine"], "nn"),
                  (["plane", "check"], "f"), (["plane", "bruck-ryser"], "n"),
                  (["paths", "gf"], "nn"), (["group", "order"], "gnn"),
                  (["group", "an"], "n")]
_FUZZ_FLAGS = ["--json", "--list", "--at", "--budget", "--projective", "--boolean",
               "--max-points", "--max-steps", "--brute-force", "--help"]
_FUZZ_JUNK = ["", "x", "-", "--", "1.5", "0x10", "nan", "1e3", "-7", "10000000"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    fano = run(["geometry", "build", "--projective", "2", "2"]).text
    minus_line = json.loads(fano)
    minus_line["subspaces"] = [s for s in minus_line["subspaces"]
                               if s["points"] != ["[0,0,1]", "[0,1,0]", "[0,1,1]"]]
    docs = {
        "fano.json": fano,
        "fano_minus_line.json": json.dumps(minus_line),
        "b3.json": run(["geometry", "build", "--boolean", "3"]).text,
        "plane.json": json.dumps({
            "points": [f"n{i}" for i in range(7)],
            "lines": [[f"n{i}", f"n{(i + 1) % 7}", f"n{(i + 3) % 7}"]
                      for i in range(7)]}),
        "not_json.json": "geometry?",
        "deep.json": "[" * 5000 + "]" * 5000,
        "wrong_shape.json": json.dumps({"points": 3, "lines": {"a": 1}}),
        "empty_list.json": "[]",
        "null.json": "null",
        "bad_dims.json": json.dumps({"points": ["a"], "subspaces": [
            {"dim": "x", "points": ["a"]}, {"dim": None, "points": None}]}),
    }
    for name, text in docs.items():
        (d / name).write_text(text)
    return [str(d / name) for name in docs] + [str(d / "missing.json")]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_argv_exits_with_a_documented_code(fuzz_files, data):
    # small ints reach the verdicts; 20-digit ints, either sign, must meet
    # a cap or a usage error at once, whatever command or flag takes them
    huge = st.integers(10 ** 19, 10 ** 21)
    number = st.one_of(st.integers(-2, 4), huge, huge.map(operator.neg)).map(str)
    kinds = {"n": number, "f": st.sampled_from(fuzz_files),
             "g": st.sampled_from(["PSL", "gl", "SL", "pgl", "AN"])}
    command, shape = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    argv = command + [data.draw(kinds[k]) for k in shape]
    option = st.tuples(st.sampled_from(_FUZZ_FLAGS), st.lists(number, max_size=2))
    junk = st.tuples(st.sampled_from(_FUZZ_JUNK + fuzz_files), st.just([]))
    for flag, values in data.draw(st.lists(st.one_of(option, junk), max_size=3)):
        argv += [flag, *values]
    start = time.perf_counter()
    res = run(argv)
    assert res.exit_code in (0, 1, 2, 3), (argv, res.error)
    assert time.perf_counter() - start < 2, argv
