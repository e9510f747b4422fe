"""qproj benchmark: CLI commands in fresh interpreters, verdicts checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs the workload's commands one at a time (a closed loop with
one client), each in a fresh interpreter with ``src`` on PYTHONPATH, so the
``lru_cache`` memos in ``qcalc`` and ``gf`` start cold per command as they do
for a user.  It repeats whole passes over the workload's corpus for about
``--seconds`` and checks every verdict against the formulas in
``expect.py``.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
from the outside-in span recorder (``spans.py``).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Inputs
with a known defect (``reject`` and ``qseries``) run in every pass and are
named in the output with their state; they are left out of ``attempted``
and ``failed`` and counted in the printed ``failed_share``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import expect
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120

PER_LAYER = [
    ("qcalc.q_binomial_quotient.self_s", "s"),
    ("qcalc.q_factorial.self_s", "s"),
    ("qcalc.q_binomial_recurrence.self_s", "s"),
    ("qcalc.q_binomial_recurrence.calls", "count"),
    ("qword.expand_binomial.self_s", "s"),
    ("qword.nc_multiply.calls", "count"),
    ("paths.area_generating_function.self_s", "s"),
    ("paths.paths", "count"),
    ("groups.group_order.self_s", "s"),
    ("gf.make_field.self_s", "s"),
    ("linalg.enumerate_subspaces.self_s", "s"),
    ("linalg.subspaces_out", "count"),
    ("linalg.us_per_subspace", "us"),
    ("geometry.build_projective_space.self_s", "s"),
    ("geometry.collineation_order.self_s", "s"),
    ("geometry.collineations_found", "count"),
    ("groups.brute_force_psl_order.self_s", "s"),
    ("groups.matrices", "count"),
    ("geometry.validate_axioms.self_s", "s"),
    ("geometry.validate_axioms.calls", "count"),
    ("geometry.lattice_pairs", "count"),
    ("geometry.check_derived_properties.self_s", "s"),
    ("geometry.subspace_census.self_s", "s"),
    ("geometry.point_count_check.self_s", "s"),
    ("planes.validate_plane.self_s", "s"),
    ("geometry.geometry_from_json.self_s", "s"),
    ("geometry.geometry_to_json.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Outcome:
    """One execution of one command."""
    command: gen.Command
    exit_code: int
    setup_s: float
    run_s: float
    maxrss_kb: int
    problem: str | None       # None when the verdict is the expected one
    trace: dict | None = None


def run_command(cmd: gen.Command, work: Path, env: dict, trace: bool) -> Outcome:
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(result_path),
         "1" if trace else "0", *cmd.argv],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    try:
        record = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return Outcome(cmd, proc.returncode, 0.0, 0.0, 0,
                       f"no result record (exit {proc.returncode})")
    problem = expect.verdict(cmd.expect, proc.returncode,
                             out.decode(errors="replace"), err.decode(errors="replace"))
    return Outcome(cmd, proc.returncode, record["imported"] - spawned,
                   record["run_s"], record["maxrss_kb"], problem,
                   record if trace else None)


def run_passes(corpus: gen.Corpus, work: Path, env: dict, seconds: float,
               trace: bool) -> tuple[list[list[Outcome]], list[list[Outcome]]]:
    """Whole passes over the corpus for about `seconds`.

    Stops once another pass, as long as the last, would end more than half
    a pass past `seconds`.  With trace, passes alternate between untraced
    and traced, and each kind runs at least once.
    """
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        as_traced = trace and len(plain) > len(traced)
        outcomes = [run_command(c, work, env, as_traced) for c in corpus.commands]
        (traced if as_traced else plain).append(outcomes)
        now = time.monotonic()
        if now - start + (now - began) / 2 >= seconds and (traced or not trace):
            return plain, traced


def pass_wall(outcomes: list[Outcome]) -> float:
    return sum(o.run_s for o in outcomes)


def end_to_end(plain: list[list[Outcome]]) -> dict[str, tuple[float, str]]:
    """wall_s sums each command's median over the passes."""
    return {
        "wall_s": (sum(statistics.median(o.run_s for o in runs)
                       for runs in zip(*plain)), "s"),
        "setup_s": (statistics.median(o.setup_s for p in plain for o in p), "s"),
        "peak_rss_mb": (statistics.median(max(o.maxrss_kb for o in p) / 1024
                                          for p in plain), "MB"),
    }


def per_layer(plain, traced) -> dict[str, tuple[float, str]]:
    per_pass = []
    for outcomes in traced:
        totals: Counter = Counter()
        for o in outcomes:
            if not o.trace:
                continue
            for name, s in spans.self_times(o.trace["spans"]).items():
                totals[f"{name}.self_s"] += s
            for name, n in o.trace["calls"].items():
                totals[f"{name}.calls"] += n
            totals.update(o.trace["work"])
        out = totals["linalg.subspaces_out"]
        totals["linalg.us_per_subspace"] = (
            totals["linalg.enumerate_subspaces.self_s"] / out * 1e6 if out else 0.0)
        per_pass.append(totals)
    metrics = {m: (statistics.median(t[m] for t in per_pass), unit)
               for m, unit in PER_LAYER if m != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(map(pass_wall, traced))
                                   - statistics.median(map(pass_wall, plain)), "s")
    return metrics


def report(corpus: gen.Corpus, plain, traced, trace: bool) -> dict:
    runs = [o for p in plain + traced for o in p]
    counted = [o for o in runs if not o.command.known_defect]
    failed = [o for o in counted if o.problem]
    print(f"perfbench workload={corpus.workload} seed={corpus.seed} "
          f"commands={len(corpus.commands)} passes={len(plain)} traced_passes={len(traced)}")
    print("pass wall_s: " + " ".join(f"{pass_wall(p):.4f}" for p in plain))
    for o in failed[:10]:
        print(f"FAILED: {o.command.label}: {o.problem}")
    for o in plain[0]:
        if o.command.known_defect:
            state = f"FAILED ({o.problem})" if o.problem else f"ok (exit {o.exit_code})"
            print(f"known defect: {o.command.label}: {state}")
    metrics = per_layer(plain, traced) if trace else end_to_end(plain)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value} {unit}")
    share = sum(1 for o in runs if o.problem) / len(runs)
    print(f"{'failed_share':44s} {share} share (known defects included)")
    return {"correct": not failed, "attempted": len(counted), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # the checker prints group orders of any size
    if not (SRC / "qproj" / "cli.py").is_file():
        print(f"perfbench: no qproj sources under {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        corpus = gen.corpus(args.workload, args.seed)
        for name, text in corpus.files.items():
            (work / name).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        warm = run_command(gen.Command(("qbinom", "4", "2"), expect.qbinom(4, 2)),
                           work, env, False)
        if warm.problem:
            print(f"perfbench: qproj does not run: {warm.problem}", file=sys.stderr)
            return 2
        plain, traced = run_passes(corpus, work, env, args.seconds, bool(args.trace))
        result = report(corpus, plain, traced, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
