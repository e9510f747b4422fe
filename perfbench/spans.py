"""Outside-in span recorder for the traced run.

``Recorder.install()`` wraps the public qproj functions listed in SPANNED
and COUNTED in every loaded ``qproj`` module that binds them: ``cli`` and
``geometry`` import functions by name, so patching only the defining
module would miss their calls.  The program's source is not touched.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  A recursive function records only its outermost
span, but every call is counted.  COUNTED functions are counted without a
span, so their time stays in their caller's self time.  WORK adds work
counters computed from a call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter

SPANNED = {
    "cli": ("run",),
    "qcalc": ("q_binomial_quotient", "q_factorial", "q_binomial_recurrence"),
    "qword": ("expand_binomial",),
    "paths": ("area_generating_function",),
    "groups": ("group_order", "brute_force_psl_order"),
    "gf": ("make_field",),
    "linalg": ("enumerate_subspaces",),
    "geometry": ("build_projective_space", "collineation_order", "validate_axioms",
                 "check_derived_properties", "subspace_census", "point_count_check",
                 "geometry_from_json", "geometry_to_json"),
    "planes": ("validate_plane",),
}
COUNTED = {"qword": ("nc_multiply",)}


def _lattice_pairs(args, result):
    size = len(args[0].subspaces)
    return size * (size + 1) // 2


WORK = {
    "paths.area_generating_function":
        ("paths.paths", lambda a, r: math.comb(a[0] + a[1], a[0])),
    "linalg.enumerate_subspaces": ("linalg.subspaces_out", lambda a, r: len(r)),
    "geometry.collineation_order": ("geometry.collineations_found", lambda a, r: r),
    "groups.brute_force_psl_order": ("groups.matrices", lambda a, r: a[1] ** (a[0] ** 2)),
    "geometry.validate_axioms": ("geometry.lattice_pairs", _lattice_pairs),
    "cli.run": ("cli.output_bytes",
                lambda a, r: len(r.text.encode()) + len(r.error.encode())),
}


class Recorder:
    """Spans and call/work counts of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def _wrap(self, name, fn, spanned):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if not spanned or self._active[name]:
                result = fn(*args, **kwargs)
            else:
                idx = len(self.spans)
                span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
                self.spans.append(span)
                self._stack.append(idx)
                self._active[name] += 1
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
                    self._active[name] -= 1
            if work:
                self.work[work[0]] += work[1](args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Replace each listed function in every qproj module binding it."""
        by_id = {}
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for mod, names in table.items():
                module = importlib.import_module(f"qproj.{mod}")
                for fn_name in names:
                    fn = getattr(module, fn_name)
                    by_id[id(fn)] = self._wrap(f"{mod}.{fn_name}", fn, spanned)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qproj" and not mod_name.startswith("qproj."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def as_dict(self) -> dict:
        return {"spans": self.spans, "calls": dict(self.calls), "work": dict(self.work)}


def self_times(spans) -> Counter:
    """Seconds per span name, each span minus the time of its child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return out
