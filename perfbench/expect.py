"""Expected verdicts for the benchmark's commands, from closed-form formulas.

Nothing here imports qproj.  Every expected number is computed from an
integer formula of this module's own (the Gaussian binomial product
formula, 1 + q + ... + q^n, factorials, binomial coefficients and the
GL/SL/PGL/PSL order formulas), never from the program's second route or
oracle.

An expectation is a function ``(exit_code, stdout, stderr) -> str | None``
that returns None when the output is the expected verdict and a reason
otherwise.  ``verdict`` applies one and treats any traceback as a failure
first: a crash never counts as a verdict.
"""

from __future__ import annotations

import json
import math
import re
from typing import Callable, Optional

Expectation = Callable[[int, str, str], Optional[str]]

TRACEBACK = "Traceback (most recent call last)"


# --- closed-form formulas -----------------------------------------------------

def gauss_poly(n: int, k: int) -> list[int]:
    """Coefficients (low to high) of [n choose k]_q by the product formula.

    [n choose t] = prod_{i<t} (1 - q^(n-i)) / (1 - q^(i+1)); every partial
    product is itself [n choose i+1], so each division is exact.
    """
    if not 0 <= k <= n:
        raise ValueError("requires 0 <= k <= n")
    p = [1]
    for i in range(k):
        a, b = n - i, i + 1
        p = p + [0] * a                      # times (1 - q^a)
        for j in range(len(p) - 1, a - 1, -1):
            p[j] -= p[j - a]
        for j in range(b, len(p)):            # divided by (1 - q^b)
            p[j] += p[j - b]
        if any(p[len(p) - b:]):
            raise ArithmeticError(f"inexact division at [{n} choose {i + 1}]")
        p = p[:len(p) - b]
    return p


def gauss_at(n: int, k: int, q: int) -> int:
    """[n choose k]_q at the integer q; C(n, k) at q = 1."""
    if q == 1:
        return math.comb(n, k)
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"[{n} choose {k}] at q={q} is not an integer")
    return value


def point_count(q: int, n: int) -> int:
    """|P^n(F_q)| = 1 + q + ... + q^n."""
    return sum(q ** i for i in range(n + 1))


def group_order(family: str, n: int, q: int) -> int:
    """|GL_n|, |SL_n|, |PGL_n| or |PSL_n| over F_q."""
    gl = math.prod(q ** n - q ** i for i in range(n))
    if family == "GL":
        return gl
    if family in ("SL", "PGL"):
        return gl // (q - 1)
    if family == "PSL":
        return gl // (q - 1) // math.gcd(n, q - 1)
    raise ValueError(f"unknown family {family}")


# --- output parsing ------------------------------------------------------------

def parse_qpoly(text: str) -> list[int]:
    """Coefficients of a polynomial printed as '1 + q + 2q^2 - q^5'."""
    coeffs: dict[int, int] = {}
    for term in re.split(r"(?=[+-])", text.replace(" ", "")):
        if not term:
            continue
        sign = -1 if term[0] == "-" else 1
        term = term.lstrip("+-")
        if "q" in term:
            c, _, e = term.partition("q")
            coef, exp = int(c) if c else 1, int(e[1:]) if e else 1
        else:
            coef, exp = int(term), 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
    if not coeffs:
        return []
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


def _exit(code: int, want: int) -> str | None:
    return None if code == want else f"exit {code}, expected {want}"


def _text(want: str) -> Expectation:
    def check(code, out, err):
        return _exit(code, 0) or (None if out.strip() == want
                                  else f"output {out.strip()[:80]!r}, expected {want[:80]!r}")
    return check


# --- expectations ----------------------------------------------------------------

def verdict(expect: Expectation, code: int, out: str, err: str) -> str | None:
    """None if the outcome is the expected verdict, else the reason."""
    if TRACEBACK in err:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        return f"traceback ({last[:120]})"
    return expect(code, out, err)


def geometry_check(q: int, n: int) -> Expectation:
    """All axioms and derived properties pass; counts match the formulas."""
    census_want = {k: gauss_at(n + 1, k + 1, q) for k in range(-1, n + 1)}
    points_want = point_count(q, n)

    def check(code, out, err):
        bad = _exit(code, 0)
        if bad:
            return bad
        status = re.findall(r"^(axiom|property) (\d+): (PASS|FAIL)", out, re.M)
        want = [("axiom", str(k), "PASS") for k in range(1, 7)] + \
               [("property", str(k), "PASS") for k in range(1, 6)]
        if status != want:
            return f"axiom/property lines {status}"
        if f"inferred order: {q}, dimension: {n}" not in out.splitlines():
            return "inferred order/dimension line missing or wrong"
        m = re.search(r"^point count: (\d+) \(expected (\d+)\): PASS$", out, re.M)
        if not m or int(m[1]) != points_want or int(m[2]) != points_want:
            return f"point count line wrong, expected {points_want}"
        census = {int(k): (int(got), int(exp)) for k, got, exp in re.findall(
            r"^census dim (-?\d+): (\d+) \(expected (\d+)\)$", out, re.M)}
        if census != {k: (v, v) for k, v in census_want.items()}:
            return f"census {census}, expected {census_want}"
        if "census: PASS" not in out.splitlines():
            return "census verdict missing"
        return None
    return check


def geometry_build(q: int, n: int) -> Expectation:
    """The JSON has [n+1]_q points and [n+1 choose k+1]_q subspaces of dim k."""
    def check(code, out, err):
        bad = _exit(code, 0)
        if bad:
            return bad
        try:
            doc = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if len(doc["points"]) != point_count(q, n):
            return f"{len(doc['points'])} points, expected {point_count(q, n)}"
        counts: dict[int, int] = {}
        for sub in doc["subspaces"]:
            d = sub["dim"]
            counts[d] = counts.get(d, 0) + 1
            size = 0 if d < 0 else point_count(q, d)
            if len(sub["points"]) != size:
                return f"a dim-{d} subspace has {len(sub['points'])} points, expected {size}"
        want = {k: gauss_at(n + 1, k + 1, q) for k in range(-1, n + 1)}
        if counts != want:
            return f"subspace counts {counts}, expected {want}"
        if doc.get("claimed_order") != q:
            return f"claimed_order {doc.get('claimed_order')}, expected {q}"
        return None
    return check


def plane_check(q: int) -> Expectation:
    """All four plane conditions pass and the order is q."""
    def check(code, out, err):
        bad = _exit(code, 0)
        if bad:
            return bad
        lines = out.splitlines()
        if sum(line.startswith("PASS - ") for line in lines) != 4 or \
                any(line.startswith("FAIL") for line in lines):
            return "plane conditions do not all pass"
        return None if f"order: {q}" in lines else f"order line missing, expected {q}"
    return check


def axioms_rejected() -> Expectation:
    """A corrupted geometry: exit 1, axioms fail with a witness."""
    def check(code, out, err):
        bad = _exit(code, 1)
        if bad:
            return bad
        if "axioms failed; skipping dependent checks" not in out.splitlines():
            return "no axiom failure reported"
        return None if re.search(r"^  witness: ", out, re.M) else "no witness"
    return check


def format_error(phrase: str) -> Expectation:
    """Malformed input: exit 2 with a format error naming the problem."""
    def check(code, out, err):
        bad = _exit(code, 2)
        if bad:
            return bad
        return None if err.startswith("format error:") and phrase in err \
            else f"stderr {err.strip()[:80]!r} lacks 'format error: ... {phrase}'"
    return check


def budget_exceeded() -> Expectation:
    """An over-cap request: exit 3 with a budget message."""
    def check(code, out, err):
        return _exit(code, 3) or (None if err.startswith("budget exceeded:")
                                  else f"stderr {err.strip()[:80]!r}")
    return check


def refused() -> Expectation:
    """Input the program must refuse as bad (2) or over a cap (3)."""
    def check(code, out, err):
        return None if code in (2, 3) else f"exit {code}, expected 2 or 3"
    return check


def qbinom(n: int, k: int, at: int | None = None) -> Expectation:
    if at is None:
        return _text(" ".join(map(str, gauss_poly(n, k))))
    return _text(str(gauss_at(n, k, at)))


def expand(n: int) -> Expectation:
    """(x+y)^n = sum_a [n choose a]_q x^a y^(n-a) under yx = qxy."""
    def check(code, out, err):
        bad = _exit(code, 0)
        if bad:
            return bad
        seen = set()
        for line in out.splitlines():
            m = re.fullmatch(r"x\^(\d+) y\^(\d+): (.*)", line)
            if not m or int(m[1]) + int(m[2]) != n:
                return f"unexpected line {line[:60]!r}"
            a = int(m[1])
            if parse_qpoly(m[3]) != gauss_poly(n, a):
                return f"coefficient of x^{a} y^{n - a} differs from [{n} choose {a}]_q"
            seen.add(a)
        return None if seen == set(range(n + 1)) else f"terms {sorted(seen)}"
    return check


def paths_gf(m: int, n: int) -> Expectation:
    """Area generating function = [m+n choose m]_q; C(m+n, m) paths in all."""
    want = gauss_poly(m + n, m)
    verdict_line = f"matches [{m + n} choose {m}]_q: PASS"

    def check(code, out, err):
        bad = _exit(code, 0)
        if bad:
            return bad
        lines = out.splitlines()
        if len(lines) != 2 or lines[1] != verdict_line:
            return f"expected the line {verdict_line!r}"
        got = [int(c) for c in lines[0].split()]
        if sum(got) != math.comb(m + n, m):
            return f"{sum(got)} paths, expected C({m + n}, {m}) = {math.comb(m + n, m)}"
        return None if got == want else f"area counts differ from [{m + n} choose {m}]_q"
    return check


def group_order_line(family: str, n: int, q: int, brute: bool = False) -> Expectation:
    order = group_order(family, n, q)

    def check(code, out, err):
        # built per check: an order past 4300 digits prints only under the
        # digit limit that run.py lifts for its own process
        want = f"|{family}_{n}(F_{q})| = {order}"
        if brute:
            want += f"\nbrute force: {order} - MATCH"
        return _text(want)(code, out, err)
    return check


def subspaces(q: int, n: int, k: int) -> Expectation:
    count = gauss_at(n, k, q)
    return _text(f"count: {count} (expected {count})")


def collineations(count: int) -> Expectation:
    return _text(f"collineations: {count}")


def affine(q: int, n: int) -> Expectation:
    sizes = " ".join(str(q ** i) for i in range(n, -1, -1))
    return _text(f"piece sizes: {sizes}\ntotal points: {point_count(q, n)}")
