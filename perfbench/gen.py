"""Seeded inputs for the benchmark's four workloads.

``corpus(workload, seed)`` returns every input file and every argv the
workload runs, with the expected verdict of each command.  Geometries are
built here from first principles (a small finite-field table and span
closure), never by the program under test, then relabelled, shuffled and,
for the ``reject`` workload, corrupted by a generator seeded from the
workload name, the seed and the file name.  The same seed gives
byte-identical files and argv.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass, field

import expect

WORKLOADS = ("geometry", "reject", "qseries", "enumerate")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect: expect.Expectation
    known_defect: bool = False  # fails at this commit; reported by name

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Corpus:
    workload: str
    seed: int
    files: dict[str, str] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)

    def rng(self, purpose: str) -> random.Random:
        # string seeds hash with SHA-512, so they ignore PYTHONHASHSEED
        return random.Random(f"{self.workload}:{self.seed}:{purpose}")

    def add(self, expectation, *argv, known_defect=False) -> None:
        self.commands.append(Command(tuple(str(a) for a in argv), expectation,
                                     known_defect))


# --- geometries built without the program ---------------------------------------

def _field_tables(q: int):
    """Addition, multiplication and inverse tables of F_q on codes 0..q-1."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = round(math.log(q, p))
    if p ** e != q or e > 3:
        raise ValueError(f"F_{q}: only prime powers p^e with e <= 3 are built here")
    digits = [[c // p ** i % p for i in range(e)] for c in range(q)]
    code = {tuple(d): c for c, d in enumerate(digits)}
    # for degree 2 or 3, a monic polynomial without roots is irreducible
    modulus = [0, 1] if e == 1 else next(
        list(t) + [1] for t in itertools.product(range(p), repeat=e)
        if all(sum(a * x ** i for i, a in enumerate(list(t) + [1])) % p
               for x in range(p)))

    def times(a, b):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(digits[a]):
            for j, y in enumerate(digits[b]):
                prod[i + j] += x * y
        for deg in range(2 * e - 2, e - 1, -1):
            c = prod[deg]
            for i in range(e + 1):
                prod[deg - e + i] -= c * modulus[i]
        return code[tuple(x % p for x in prod[:e])]

    add = [[code[tuple((x + y) % p for x, y in zip(digits[a], digits[b]))]
            for b in range(q)] for a in range(q)]
    mul = [[times(a, b) for b in range(q)] for a in range(q)]
    inv = [next((b for b in range(q) if mul[a][b] == 1), 0) for a in range(q)]
    return add, mul, inv


@functools.lru_cache(maxsize=None)
def projective_space(q: int, n: int) -> tuple[int, list[tuple[int, frozenset]]]:
    """(point count, [(dim, point-index set)]) of P^n(F_q).

    Level d+1 is the closure of each level-d subspace S with one more
    point v: the points of S, v, and s + c v for s in S, c in F_q^*.
    """
    add, mul, inv = _field_tables(q)

    def normalize(v):
        s = inv[next(x for x in v if x)]
        return tuple(mul[s][x] for x in v)

    pts = [v for v in itertools.product(range(q), repeat=n + 1)
           if any(v) and next(x for x in v if x) == 1]
    index = {v: i for i, v in enumerate(pts)}
    levels = [[frozenset()], [frozenset([i]) for i in range(len(pts))]]
    for _ in range(n):
        nxt: dict[frozenset, None] = {}
        for s_set in levels[-1]:
            covered = set(s_set)
            for p in range(len(pts)):
                if p in covered:
                    continue
                v = pts[p]
                t = set(s_set)
                t.add(p)
                for s in s_set:
                    u = pts[s]
                    for c in range(1, q):
                        t.add(index[normalize(tuple(add[a][mul[c][b]]
                                                    for a, b in zip(u, v)))])
                covered |= t
                nxt.setdefault(frozenset(t), None)
        levels.append(list(nxt))
    return len(pts), [(d - 1, s) for d, level in enumerate(levels) for s in level]


def boolean_space(n: int) -> tuple[int, list[tuple[int, frozenset]]]:
    """The power set of n points with dim = size - 1 (order 1)."""
    return n, [(r - 1, frozenset(c)) for r in range(n + 1)
               for c in itertools.combinations(range(n), r)]


def _space(q: int, n: int):
    return boolean_space(n + 1) if q == 1 else projective_space(q, n)


def _name(q: int, n: int) -> str:
    return f"B{n + 1}" if q == 1 else f"P{n}_F{q}"


def geometry_text(rng: random.Random, q: int, n: int, corrupt: str | None = None) -> str:
    """The geometry as interchange JSON, relabelled and shuffled by rng.

    corrupt: None, or one single-step change applied to a seeded line
    (dim-1 subspace): 'drop' removes it, 'bump' raises its dim by one,
    'duplicate' lists some subspace twice, 'unknown' names a point that
    is not in the point list.
    """
    npts, subspaces = _space(q, n)
    names = [f"v{x}" for x in rng.sample(range(100 * npts), npts)]
    subs = [[d, sorted(names[i] for i in s)] for d, s in subspaces]
    rng.shuffle(subs)
    points = names[:]
    rng.shuffle(points)
    lines = [i for i, (d, _) in enumerate(subs) if d == 1]
    if corrupt == "drop":
        del subs[rng.choice(lines)]
    elif corrupt == "bump":
        subs[rng.choice(lines)][0] += 1
    elif corrupt == "duplicate":
        subs.insert(rng.randrange(len(subs) + 1), list(subs[rng.randrange(len(subs))]))
    elif corrupt == "unknown":
        line = subs[rng.choice(lines)][1]
        line[rng.randrange(len(line))] = "nowhere"
    elif corrupt is not None:
        raise ValueError(f"unknown corruption {corrupt!r}")
    doc = {"points": points,
           "subspaces": [{"dim": d, "points": p} for d, p in subs],
           "claimed_order": q}
    return json.dumps(doc)


def plane_text(rng: random.Random, q: int) -> str:
    """The lines of P^2(F_q) as a plane file, relabelled and shuffled."""
    npts, subspaces = projective_space(q, 2)
    names = [f"w{x}" for x in rng.sample(range(100 * npts), npts)]
    lines = [sorted(names[i] for i in s) for d, s in subspaces if d == 1]
    rng.shuffle(lines)
    points = names[:]
    rng.shuffle(points)
    return json.dumps({"points": points, "lines": lines})


def _geometry_file(c: Corpus, q: int, n: int, corrupt: str | None = None) -> str:
    path = _name(q, n) + (f".{corrupt}" if corrupt else "") + ".json"
    c.files[path] = geometry_text(c.rng(path), q, n, corrupt)
    return path


def _build_argv(q: int, n: int) -> tuple:
    return ("--boolean", n + 1) if q == 1 else ("--projective", q, n)


# --- the four workloads -------------------------------------------------------

# (q, n) of P^n(F_q); q = 1 is Boolean(n + 1)
GEOMETRY_SPACES = [(2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2),
                   (2, 3), (3, 3), (4, 3), (2, 4), (1, 5), (1, 7), (1, 8)]
CORRUPTED_SPACES = [(4, 3), (2, 4), (1, 8), (9, 2)]


def _geometry(c: Corpus) -> None:
    for q, n in GEOMETRY_SPACES:
        c.add(expect.geometry_build(q, n), "geometry", "build", *_build_argv(q, n))
        c.add(expect.geometry_check(q, n), "geometry", "check", _geometry_file(c, q, n))
        if n == 2 and q > 1:
            path = f"{_name(q, n)}.plane.json"
            c.files[path] = plane_text(c.rng(path), q)
            c.add(expect.plane_check(q), "plane", "check", path)


def _reject(c: Corpus) -> None:
    for q, n in CORRUPTED_SPACES:
        for corrupt in ("drop", "bump"):
            c.add(expect.axioms_rejected(), "geometry", "check",
                  _geometry_file(c, q, n, corrupt))
    c.add(expect.format_error("duplicate subspace"), "geometry", "check",
          _geometry_file(c, 4, 3, "duplicate"))
    c.add(expect.format_error("unknown point"), "geometry", "check",
          _geometry_file(c, 2, 4, "unknown"))
    r = c.rng("argv")
    n = r.randint(20, 24)
    c.add(expect.budget_exceeded(), "subspaces", 2, n, n // 2)
    c.add(expect.budget_exceeded(), "geometry", "build", "--boolean", r.randint(13, 16))
    c.add(expect.budget_exceeded(), "paths", "gf", r.randint(13, 15), 12)
    c.add(expect.budget_exceeded(), "group", "order", "PSL", r.randint(4, 5), 2,
          "--brute-force")
    c.add(expect.budget_exceeded(), "geometry", "collineations",
          _geometry_file(c, 1, 9))
    # Known crash inputs: they must be refused (exit 2 or 3), and today
    # they end in a RecursionError traceback instead.
    c.files["deep.json"] = "[" * 100_000 + "]" * 100_000
    c.add(expect.refused(), "qbinom", 1200, 1, known_defect=True)
    c.add(expect.refused(), "group", "order", "PSL", 1100, 2, known_defect=True)
    c.add(expect.refused(), "geometry", "check", "deep.json", known_defect=True)


def _qseries(c: Corpus) -> None:
    r = c.rng("argv")
    for n, with_at in ((80, False), (72, True), (66, False), (60, True)):
        k = n // 2 + r.randint(-3, 3)
        if with_at:
            at = r.randint(2, 99)
            c.add(expect.qbinom(n, k, at), "qbinom", n, k, "--at", at)
        else:
            c.add(expect.qbinom(n, k), "qbinom", n, k)
    for n in (50, 60):
        c.add(expect.expand(n), "expand", n)
    for m in (10, 11):
        c.add(expect.paths_gf(m, m), "paths", "gf", m, m)
    for family, n, q in (("GL", 100, 2), ("SL", 70, 5), ("PGL", 90, 3),
                         ("PSL", 60, 3), ("PSL", 80, 2)):
        c.add(expect.group_order_line(family, n, q), "group", "order", family, n, q)
    # Known defect: the order has over 4300 digits, which Python will not
    # turn into a string by default, so qproj exits 2 instead of answering.
    c.add(expect.group_order_line("GL", 300, 9), "group", "order", "GL", 300, 9,
          known_defect=True)


def _enumerate(c: Corpus) -> None:
    for q, n, k in ((2, 8, 3), (3, 6, 3), (4, 5, 2), (16, 3, 1)):
        c.add(expect.subspaces(q, n, k), "subspaces", q, n, k)
    c.add(expect.geometry_build(2, 5), "geometry", "build", "--projective", 2, 5)
    for (q, n), count in (((1, 7), math.factorial(8)), ((2, 2), 168),
                          ((7, 1), math.factorial(8))):
        c.add(expect.collineations(count), "geometry", "collineations",
              _geometry_file(c, q, n))
    for n, q in ((2, 11), (3, 2)):
        c.add(expect.group_order_line("PSL", n, q, brute=True),
              "group", "order", "PSL", n, q, "--brute-force")
    c.add(expect.affine(16, 3), "geometry", "affine", 16, 3)


_BUILDERS = {"geometry": _geometry, "reject": _reject,
             "qseries": _qseries, "enumerate": _enumerate}


def corpus(workload: str, seed: int) -> Corpus:
    c = Corpus(workload, seed)
    _BUILDERS[workload](c)
    return c
