"""Tests of the benchmark itself: generator, verdict checker, span recorder.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import expect  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def env():
    return dict(os.environ, PYTHONPATH=str(run.SRC))


def _write(corpus, tmp_path):
    for name, text in corpus.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a, b = gen.corpus(workload, 7), gen.corpus(workload, 7)
    assert a.files == b.files
    assert [c.argv for c in a.commands] == [c.argv for c in b.commands]
    other = gen.corpus(workload, 8)
    assert (other.files, [c.argv for c in other.commands]) != \
        (a.files, [c.argv for c in a.commands])


@pytest.mark.parametrize("q, n", [(2, 2), (4, 2), (9, 2), (3, 3), (2, 4), (1, 5)])
def test_generated_geometries_match_the_formulas(q, n):
    npts, subspaces = gen._space(q, n)
    assert npts == expect.point_count(q, n)
    counts = {}
    for d, s in subspaces:
        counts[d] = counts.get(d, 0) + 1
        assert len(s) == (0 if d < 0 else expect.point_count(q, d))
    assert counts == {k: expect.gauss_at(n + 1, k + 1, q) for k in range(-1, n + 1)}


def _pascal(n, k):
    # [n choose k] = [n-1 choose k-1] + q^k [n-1 choose k], kept apart from
    # the product formula it checks
    if k < 0 or k > n:
        return []
    if k in (0, n):
        return [1]
    a, b = _pascal(n - 1, k - 1), [0] * k + _pascal(n - 1, k)
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def test_product_formula_matches_pascal_rule():
    for n in range(9):
        for k in range(n + 1):
            assert expect.gauss_poly(n, k) == _pascal(n, k)
            assert expect.gauss_at(n, k, 3) == sum(c * 3 ** i for i, c in
                                                   enumerate(_pascal(n, k)))


def test_group_orders():
    assert expect.group_order("PSL", 2, 7) == 168
    assert expect.group_order("PSL", 3, 2) == 168
    assert expect.group_order("GL", 2, 2) == 6
    assert expect.group_order("PSL", 2, 11) == 660


@pytest.fixture
def fano_check(tmp_path, env):
    corpus = gen.Corpus("geometry", 1)
    path = gen._geometry_file(corpus, 2, 2)
    _write(corpus, tmp_path)
    proc = subprocess.run([sys.executable, "-m", "qproj.cli", "geometry", "check", path],
                          cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    return expect.geometry_check(2, 2), proc.stdout


def test_checker_accepts_the_true_verdict(fano_check):
    check, out = fano_check
    assert expect.verdict(check, 0, out, "") is None


def test_checker_flags_a_tampered_census_line(fano_check):
    check, out = fano_check
    assert "census dim 1: 7 (expected 7)" in out
    for forged in ("census dim 1: 8 (expected 7)", "census dim 1: 8 (expected 8)"):
        assert expect.verdict(check, 0, out.replace("census dim 1: 7 (expected 7)",
                                                    forged), "")


def test_checker_flags_a_wrong_exit_code(fano_check):
    check, out = fano_check
    assert "exit 1" in expect.verdict(check, 1, out, "")
    assert expect.verdict(expect.budget_exceeded(), 2, "", "budget exceeded: x")


def test_checker_flags_a_traceback(fano_check):
    check, out = fano_check
    err = ("Traceback (most recent call last):\n  File \"x\", line 1\n"
           "RecursionError: maximum recursion depth exceeded\n")
    assert "traceback" in expect.verdict(check, 0, out, err)
    assert "traceback" in expect.verdict(expect.refused(), 2, "", err)


def _traced(tmp_path, env, *argv):
    corpus = gen.Corpus("geometry", 3)
    gen._geometry_file(corpus, 2, 3)
    _write(corpus, tmp_path)
    outcome = run.run_command(gen.Command(argv, lambda *a: None), tmp_path, env, True)
    assert outcome.exit_code == 0
    return outcome


@pytest.mark.parametrize("argv", [("geometry", "check", "P3_F2.json"),
                                  ("qbinom", "14", "6"),
                                  ("subspaces", "3", "4", "2")])
def test_self_times_never_exceed_the_command_wall_time(tmp_path, env, argv):
    outcome = _traced(tmp_path, env, *argv)
    self_s = spans.self_times(outcome.trace["spans"])
    assert self_s["cli.run"] > 0
    assert all(v >= -1e-9 for v in self_s.values())
    assert sum(self_s.values()) <= outcome.run_s


def test_recursion_spans_the_outermost_call_and_counts_every_call(tmp_path, env):
    record = _traced(tmp_path, env, "qbinom", "14", "6").trace
    name = "qcalc.q_binomial_recurrence"
    assert sum(1 for s in record["spans"] if s[0] == name) == 1
    assert record["calls"][name] > 14


def test_derived_property_one_revalidates_every_subspace(tmp_path, env):
    record = _traced(tmp_path, env, "geometry", "check", "P3_F2.json").trace
    _, subspaces = gen._space(2, 3)
    assert record["calls"]["geometry.validate_axioms"] == 1 + len(subspaces)
    # |L| pairs for the whole geometry, then |L_S| for each restriction to S
    sizes = [len(subspaces)] + [sum(1 for _, t in subspaces if t <= s)
                                for _, s in subspaces]
    assert record["work"]["geometry.lattice_pairs"] == sum(k * (k + 1) // 2 for k in sizes)


def test_untraced_child_patches_nothing(tmp_path, env):
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(HERE / "child.py"), str(result), "0", "qbinom", "4", "2"],
                   cwd=tmp_path, env=env, capture_output=True, check=True)
    record = json.loads(result.read_text())
    assert "spans" not in record and record["run_s"] > 0
