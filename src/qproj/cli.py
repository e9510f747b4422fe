"""Command-line interface; the only process boundary of the package.

Exit codes are a contract so shell pipelines can tell outcomes apart:

    0  success (including "the test ran and its verdict is negative",
       as for a failing Bruck-Ryser order: the computation succeeded)
    1  verification failure: the math disagrees (axiom failure,
       two-route mismatch, oracle mismatch), witness printed
    2  usage or input-format error
    3  an enumeration budget or cap was exceeded
    4  internal error: an exception no handler expects, which is a bug,
       never a verdict

With --json every payload is wrapped uniformly as
{"command": ..., "ok": ..., "data": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

from . import geometry as geo
from . import planes as pl
from .errors import BudgetExceeded, GeometryFormatError
from .groups import (MAX_GL_ORDER_BITS, alternating_group_comparison,
                     brute_force_psl_order, group_order)
from .linalg import DEFAULT_SUBSPACE_BUDGET, _rref_bases
from .paths import DEFAULT_MAX_STEPS, area_generating_function
from .qcalc import QPoly, q_binomial_recurrence, q_binomial_quotient
from .qword import expand_binomial
from .record import Record

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class CommandResult(Record):
    exit_code: int
    text: str = ""
    error: str = ""


def _later(fn, *args, **kwargs):
    """The one text line fn(*args, **kwargs), formatted only when run joins
    the lines, which it does not under --json."""
    yield fn(*args, **kwargs)


def _poly_text(p: QPoly) -> str:
    """Space-separated coefficients, low to high; '0' for the zero polynomial."""
    if not p:
        return "0"
    return " ".join(str(c) for c in p.coeffs)


@contextlib.contextmanager
def _int_digit_limit(limit: int):
    """Set Python's int-to-str digit limit (4300 by default, 0 for none)
    while output is formatted.

    Exact group orders can pass the default limit.  It is changed only
    where output is formatted and restored afterwards, so parsing input
    keeps the guard against quadratic str-to-int conversion.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# Above this many bits _int_text leaves str(), which is quadratic in the
# digits on Python 3.11 (about 8 ms at 2^16 bits on a 2-core VM), for
# halves joined in decimal arithmetic
_STR_INT_BITS = 2 ** 16
# the digits of 2^_STR_INT_BITS, so str() of an int up to _STR_INT_BITS
# bits stays within this limit
_STR_INT_DIGITS = 19729


def _int_text(value: int) -> str:
    """The decimal digits of an exact integer the CLI prints, as str(value).

    Up to _STR_INT_BITS bits this is str(value), with the digit limit
    lifted.  Above it the bits are split in halves, recursively down to
    _STR_INT_BITS, and the halves are joined as hi * 2^w + lo in the
    decimal module, whose multiplication is subquadratic; at 2^20 bits,
    the cap on group orders and --at values, that is four levels.  The
    context has MAX_PREC digits and traps Inexact, so every step is exact
    or raises.  decimal is imported only here, since importing it costs
    about 0.5 MB of memory.
    """
    with _int_digit_limit(0):
        if value.bit_length() <= _STR_INT_BITS:
            return str(value)
        import decimal
        ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              traps=[decimal.Inexact])
        powers = {}

        def join(v: int, bits: int):
            """v, with 0 <= v < 2^bits, as a Decimal."""
            if bits <= _STR_INT_BITS:
                return decimal.Decimal(str(v))
            w = bits // 2
            if w not in powers:
                powers[w] = ctx.power(2, w)
            hi = join(v >> w, bits - w)
            lo = join(v & ((1 << w) - 1), w)
            return ctx.add(ctx.multiply(hi, powers[w]), lo)

        digits = str(join(abs(value), value.bit_length()))
    return "-" + digits if value < 0 else digits


def _json_text(x, indent: str = "") -> str:
    """x as json.dumps(x, indent=2) writes it at this indent, with ints
    past _STR_INT_BITS bits formatted by _int_text; run it under
    _int_digit_limit(0).

    json.dumps prints ints by int.__repr__, which is quadratic in the
    digits on Python 3.11.  So x goes to one json.dumps call under a
    digit limit of _STR_INT_DIGITS, re-indented (JSON text holds no raw
    newline), and only a subtree whose dump raises at a longer int is
    walked here, down to that int.
    """
    try:
        with _int_digit_limit(_STR_INT_DIGITS):
            text = json.dumps(x, indent=2)
        return text.replace("\n", "\n" + indent) if indent else text
    except ValueError:
        pass
    if isinstance(x, int):
        return _int_text(x)
    inner = indent + "  "
    if isinstance(x, dict):
        # json.dumps writes a non-str key as the text of its JSON value
        items = (f"{inner}{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{_json_text(v, inner)}" for k, v in x.items())
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    items = (inner + _json_text(v, inner) for v in x)
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise GeometryFormatError(f"cannot read {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise GeometryFormatError(f"{path}: invalid JSON at line {e.lineno}") from e
    except RecursionError as e:
        raise GeometryFormatError(f"{path}: JSON nested too deeply") from e


# --- subcommand handlers: return (exit_code, text_lines, payload) -----------

def _cmd_qbinom(args):
    rec = q_binomial_recurrence(args.n, args.k)
    quo = q_binomial_quotient(args.n, args.k)
    agree = rec == quo
    payload = {"n": args.n, "k": args.k,
               "coefficients": list(rec.coeffs), "routes_agree": agree}
    if not agree:
        lines = ["MISMATCH between the recurrence and quotient routes:",
                 f"  recurrence: {_poly_text(rec)}",
                 f"  quotient:   {_poly_text(quo)}"]
        payload["quotient_coefficients"] = list(quo.coeffs)
        return EXIT_VERIFY, lines, payload
    if args.at is not None:
        bits = args.k * (args.n - args.k) * abs(args.at).bit_length()
        if bits > MAX_GL_ORDER_BITS:
            raise BudgetExceeded(
                f"[{args.n} choose {args.k}] at Q0 has about "
                f"k(n-k) * bit_length(|Q0|) = {bits} bits, "
                f"over the cap of {MAX_GL_ORDER_BITS}")
        value = rec.evaluate(args.at)
        payload["value_at"] = {"q": args.at, "value": value}
        return EXIT_OK, _later(_int_text, value), payload
    return EXIT_OK, _later(_poly_text, rec), payload


def _cmd_expand(args):
    p = expand_binomial(args.n)
    lines = (f"x^{a} y^{b}: {coeff}" for (a, b), coeff in p.terms())
    payload = {"n": args.n,
               "terms": [{"x": a, "y": b, "coefficients": list(c.coeffs)}
                         for (a, b), c in p.terms()]}
    return EXIT_OK, lines, payload


def _cmd_subspaces(args):
    # without --list the count walks the stream of RREF bases and keeps none
    bases = _rref_bases(args.q, args.n, args.k, budget=args.budget)
    if args.list:
        bases = [basis for basis, _ in bases]
        count = len(bases)
    else:
        count = sum(1 for _ in bases)
    expected = q_binomial_recurrence(args.n, args.k).evaluate(args.q)
    ok = count == expected
    payload = {"q": args.q, "n": args.n, "k": args.k,
               "count": count, "expected": expected, "matches": ok}
    listing = ()
    if args.list:
        listing = map(_basis_text, bases)
        if args.json:
            payload["subspaces"] = [[list(row) for row in basis] for basis in bases]
    verdict = [] if ok else ["MISMATCH: enumeration disagrees with the Gaussian binomial"]
    lines = itertools.chain([f"count: {count} (expected {expected})"],
                            listing, verdict)
    return (EXIT_OK if ok else EXIT_VERIFY), lines, payload


def _basis_text(basis) -> str:
    """The rows of a basis, entries space-separated, rows joined by '; '."""
    return "; ".join(" ".join(str(c) for c in row) for row in basis) or "(empty basis)"


def _cmd_geometry_build(args):
    if args.projective:
        q, n = args.projective
        g = geo.build_projective_space(q, n, budget=args.budget)
    else:
        g = geo.build_boolean_geometry(args.boolean)
    if args.json:
        return EXIT_OK, (), geo.geometry_to_json(g)
    return EXIT_OK, _later(_geometry_text, g), None


def _geometry_text(g: geo.IncidenceGeometry) -> str:
    """json.dumps(geometry_to_json(g), indent=2), written from the masks.

    Each name is quoted once, and the text is one join over a flat list
    of pieces, most of them a name with its separator made once per
    point; no document and no per-subspace string is built.
    """
    quoted = list(map(json.dumps, g.points))
    first = ["[\n        " + s for s in quoted]  # a name first in its subspace
    later = [",\n        " + s for s in quoted]
    opening = {d: f'{{\n      "dim": {d},\n      "points": ' for d in set(g.dims)}
    pieces = ['{\n  "points": ',
              "[\n    " + ",\n    ".join(quoted) + "\n  ]" if quoted else "[]",
              ',\n  "subspaces": [']
    sep = "\n    "
    for d, on in zip(g.dims, geo._name_ordered_points(g)):
        pieces += (sep, opening[d])
        sep = ",\n    "
        if on:
            pieces.append(first[on[0]])
            pieces += map(later.__getitem__, on[1:])
            pieces.append("\n      ]\n    }")
        else:
            pieces.append("[]\n    }")
    pieces.append("\n  ]" if g.subspaces else "]")
    if g.claimed_order is not None:
        pieces.append(f',\n  "claimed_order": {g.claimed_order}')
    pieces.append("\n}")
    return "".join(pieces)


def _check_lines(title, results):
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{title} {r.number}: {status} - {r.description}")
        if r.witness:
            lines.append(f"  witness: {r.witness}")
    return lines


def _cmd_geometry_check(args):
    g = geo.geometry_from_json(_load_json(args.file))
    report = geo.validate_axioms(g)
    lines = _check_lines("axiom", report.axioms)
    lines.append(f"inferred order: {report.order}, dimension: {report.dimension}")
    payload = {"axioms": report.as_dict()}
    if not report.passed:
        lines.append("axioms failed; skipping dependent checks")
        payload["passed"] = False
        return EXIT_VERIFY, lines, payload

    derived = geo.check_derived_properties(g)
    lines += _check_lines("property", derived.properties)
    pc = geo.point_count_check(g)
    lines.append(f"point count: {pc.actual} (expected {pc.expected}): "
                 f"{'PASS' if pc.passed else 'FAIL'}")
    census = geo.subspace_census(g)
    for k in sorted(census.expected):
        got = census.counts.get(k, 0)
        lines.append(f"census dim {k}: {got} (expected {census.expected[k]})")
    lines.append(f"census: {'PASS' if census.passed else 'FAIL'}")
    payload.update({
        "derived_properties": derived.as_dict(),
        "point_count": pc._asdict(),
        "census": census.as_dict(),
    })
    ok = pc.passed and census.passed
    payload["passed"] = ok
    return (EXIT_OK if ok else EXIT_VERIFY), lines, payload


def _cmd_geometry_collineations(args):
    g = geo.geometry_from_json(_load_json(args.file))
    count = geo.collineation_order(g, max_points=args.max_points)
    payload = {"points": len(g.points), "collineations": count}
    return EXIT_OK, [f"collineations: {count}"], payload


def _cmd_geometry_affine(args):
    sizes = geo.affine_decomposition(args.q, args.n)
    payload = {"q": args.q, "n": args.n, "piece_sizes": sizes,
               "total": sum(sizes)}
    lines = [f"piece sizes: {' '.join(str(s) for s in sizes)}",
             f"total points: {sum(sizes)}"]
    return EXIT_OK, lines, payload


def _cmd_plane_check(args):
    plane = pl.plane_from_json(_load_json(args.file))
    report = pl.validate_plane(plane)
    lines = []
    for c in report.checks:
        lines.append(f"{'PASS' if c.passed else 'FAIL'} - {c.description}")
        if c.witness:
            lines.append(f"  witness: {c.witness}")
    lines.append(f"order: {report.order}")
    if not report.at_least_three_points:
        lines.append("note: some line has fewer than three points "
                     "(degenerate; order-1 structures look like this)")
    payload = report.as_dict()
    return (EXIT_OK if report.passed else EXIT_VERIFY), lines, payload


def _cmd_plane_bruck_ryser(args):
    order = args.order
    verdict, decomposition = pl.bruck_ryser(order)
    payload = {"order": order, "verdict": verdict.value}
    if verdict is pl.BruckRyserVerdict.NOT_APPLICABLE:
        lines = [f"NOT APPLICABLE ({order} = {order % 4} mod 4)"]
    elif verdict is pl.BruckRyserVerdict.FAILS:
        lines = [f"FAILS ({order} = {order % 4} mod 4, not a sum of two squares)"]
    else:
        a, b = decomposition
        payload["decomposition"] = [a, b]
        lines = [f"PASSES ({order} = {a}^2 + {b}^2)"]
    if order == 10:
        note = ("note: order 10 passes this test, but no projective plane of "
                "order 10 exists (ruled out by the Lam-Thiel-Swiercz "
                "exhaustive computer search)")
        payload["note"] = note
        lines.append(note)
    return EXIT_OK, lines, payload


def _cmd_paths_gf(args):
    gf = area_generating_function(args.m, args.n, max_steps=args.max_steps)
    target = q_binomial_recurrence(args.m + args.n, args.m)
    ok = gf == target
    lines = [_poly_text(gf),
             f"matches [{args.m + args.n} choose {args.m}]_q: "
             f"{'PASS' if ok else 'FAIL'}"]
    payload = {"m": args.m, "n": args.n, "coefficients": list(gf.coeffs),
               "matches_gaussian_binomial": ok}
    if not ok:
        payload["expected_coefficients"] = list(target.coeffs)
        lines.append(f"expected: {_poly_text(target)}")
    return (EXIT_OK if ok else EXIT_VERIFY), lines, payload


def _cmd_group_order(args):
    report = group_order(args.family, args.n, args.q)
    payload = report._asdict()
    code, brute_lines = EXIT_OK, []
    if args.brute_force:
        if report.family != "PSL":
            raise ValueError("--brute-force is implemented for PSL only")
        brute = brute_force_psl_order(args.n, args.q)
        ok = brute == report.order
        brute_lines.append(f"brute force: {brute} - {'MATCH' if ok else 'MISMATCH'}")
        payload["brute_force"] = brute
        payload["matches"] = ok
        if not ok:
            code = EXIT_VERIFY
    order_line = _later(lambda: f"|{report.family}_{report.n}(F_{report.q})| = "
                                f"{_int_text(report.order)}")
    return code, itertools.chain(order_line, brute_lines), payload


def _cmd_group_an(args):
    rep = alternating_group_comparison(args.n)
    simple = " (simple)" if rep.alternating_is_simple else ""
    lines = [
        f"A_{rep.n}: order {rep.alternating_order}{simple}",
        f"full collineation group of the order-1 geometry on {rep.n} points: "
        f"S_{rep.n}, order {rep.symmetric_order}",
    ]
    return EXIT_OK, lines, rep._asdict()


# --- parser ------------------------------------------------------------------

def _nonnegative_int(text: str) -> int:
    """argparse type of the cap flags: a negative cap is bad input (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _args_qbinom(p):
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--at", type=int, default=None, metavar="Q0",
                   help="evaluate at q = Q0 instead of printing coefficients")


def _args_subspaces(p):
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--list", action="store_true", help="print canonical bases")
    p.add_argument("--budget", type=_nonnegative_int,
                   default=DEFAULT_SUBSPACE_BUDGET)


def _args_geometry_build(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--projective", nargs=2, type=int, metavar=("Q", "N"))
    group.add_argument("--boolean", type=int, metavar="N")
    p.add_argument("--budget", type=_nonnegative_int,
                   default=geo.DEFAULT_GEOMETRY_BUDGET)


def _args_file(p):
    p.add_argument("file")


def _args_geometry_collineations(p):
    p.add_argument("file")
    p.add_argument("--max-points", type=_nonnegative_int,
                   default=geo.DEFAULT_COLLINEATION_CAP,
                   help="refuse more points than this (default %(default)s)")


def _args_q_n(p):
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)


def _args_order(p):
    p.add_argument("order", type=int)


def _args_paths_gf(p):
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--max-steps", type=_nonnegative_int, default=DEFAULT_MAX_STEPS)


def _args_group_order(p):
    p.add_argument("family", choices=["GL", "SL", "PGL", "PSL",
                                      "gl", "sl", "pgl", "psl"])
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--brute-force", action="store_true",
                   help="recount by matrix enumeration and compare")


def _args_n(p):
    p.add_argument("n", type=int)


def _commands() -> dict:
    """name -> (help, handler, adds the arguments before --json), or (help,
    table of subcommands) for a command group, in the order of the help
    text.  Built per parser, so each handler is the module's at that time."""
    return {
        "qbinom": ("Gaussian binomial by both routes", _cmd_qbinom, _args_qbinom),
        "expand": ("normal-ordered expansion of (x+y)^n", _cmd_expand, _args_n),
        "subspaces": ("enumerate k-subspaces of F_q^n", _cmd_subspaces, _args_subspaces),
        "geometry": ("incidence geometry commands", {
            "build": ("construct a geometry, JSON to stdout",
                      _cmd_geometry_build, _args_geometry_build),
            "check": ("validate axioms, counts and census",
                      _cmd_geometry_check, _args_file),
            "collineations": ("collineation group order by orbit-stabiliser search",
                              _cmd_geometry_collineations, _args_geometry_collineations),
            "affine": ("affine piece sizes of P^n(F_q)", _cmd_geometry_affine, _args_q_n),
        }),
        "plane": ("projective plane commands", {
            "check": ("validate the plane conditions", _cmd_plane_check, _args_file),
            "bruck-ryser": ("sum-of-two-squares order test",
                            _cmd_plane_bruck_ryser, _args_order),
        }),
        "paths": ("lattice path commands", {
            "gf": ("area generating function of the m-by-n box",
                   _cmd_paths_gf, _args_paths_gf),
        }),
        "group": ("classical group orders", {
            "order": ("order of GL/SL/PGL/PSL over F_q", _cmd_group_order,
                      _args_group_order),
            "an": ("alternating group vs order-1 collineations", _cmd_group_an, _args_n),
        }),
    }


def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for argv, or the whole tree when argv is None.

    Only the subparser of the command that argv names is built, and for a
    command group only the subcommand's.  Where argv names none or an
    unknown one, that level gets all its subparsers, so help and usage
    errors read as with the whole tree.
    """
    parser = argparse.ArgumentParser(
        prog="qproj",
        description="Exact q-analogues, subspace enumeration over F_q, and "
                    "finite projective geometry validation.")
    _add_commands(parser, "command", _commands(), argv)
    return parser


def _add_commands(parser, dest, table, argv):
    name = argv[0] if argv else None
    if name in table:
        # the usage line of an unrecognised-arguments error still lists
        # every name
        sub = parser.add_subparsers(dest=dest, required=True,
                                    metavar="{" + ",".join(table) + "}")
        table, argv = {name: table[name]}, argv[1:]
    else:
        sub = parser.add_subparsers(dest=dest, required=True)
        argv = None
    for name, (help_text, *spec) in table.items():
        p = sub.add_parser(name, help=help_text)
        if len(spec) == 1:
            _add_commands(p, "subcommand", spec[0], argv)
            continue
        handler, add_arguments = spec
        add_arguments(p)
        p.add_argument("--json", action="store_true",
                       help="emit a uniform JSON payload")
        p.set_defaults(handler=handler)


def run(argv: list[str]) -> CommandResult:
    """Parse and execute; printing is left to main()."""
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed usage/help; normalize the code
        code = EXIT_OK if e.code in (0, None) else EXIT_USAGE
        return CommandResult(code)
    try:
        exit_code, lines, payload = args.handler(args)
        if not getattr(args, "json", False):
            # a handler may yield its lines lazily, so they are joined here
            return CommandResult(exit_code, "\n".join(lines))
    except GeometryFormatError as e:
        return CommandResult(EXIT_USAGE, error=f"format error: {e}")
    except ValueError as e:
        return CommandResult(EXIT_USAGE, error=f"error: {e}")
    except BudgetExceeded as e:
        return CommandResult(EXIT_BUDGET, error=f"budget exceeded: {e}")
    except Exception as e:  # a crash must not read as exit 1, "the math disagrees"
        return CommandResult(EXIT_INTERNAL,
                             error=f"internal error: {type(e).__name__}: {e}")
    command = args.command + (
        f" {args.subcommand}" if getattr(args, "subcommand", None) else "")
    wrapped = {"command": command, "ok": exit_code == EXIT_OK, "data": payload}
    with _int_digit_limit(0):
        return CommandResult(exit_code, _json_text(wrapped))


def main() -> None:
    result = run(sys.argv[1:])
    if result.text:
        print(result.text)
    if result.error:
        print(result.error, file=sys.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
