"""Command-line front end.

Every computation is exposed with machine-readable output.  Exit codes: 0 for
success (including successful verification), 1 for a failed verification, 2
for invalid input, 3 for an exceeded work budget (``BudgetExceeded``: trace
tree nodes or cells, period term products, recursion or inclusion-exclusion
summands, strata, terms of the mirror polynomial, binomials too large to
form) and 4 for any other error, a closed stdout included; codes 2 to 4 come
with an ``error:`` line on stderr and, but for a closed stdout, nothing on
stdout.  That line stands alone, except for a flag the parser rejects: argparse
prints the command's usage lines before its ``fanolg <command>: error:``
line.

Each subcommand returns its exit code and one payload, and ``main`` renders
the payload whole through one of the command's views (text, JSON, DOT or CSV)
before writing any of it, so an answer is printed whole or not at all.  Exact
answers may pass the 4,300 digits ``str(int)`` allows by default, so the limit
is lifted while a payload is rendered, and while a variety is built from its
parsed numbers, whose error messages may print their sum.  JSON output
renders every numeric field as a decimal string, since the exact values
outgrow 64-bit integers quickly; ``_render_json`` writes it in one pass.

Each run builds the parser of the subcommand it names and no other (see
``_build_parser``).  The subcommands live in one table, ``_COMMANDS``: per
command its help, its arguments, its run and its views, from which the parser
takes the ``--format`` choices.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Sequence

from .exactmath import BudgetExceeded
from .givental import verify_period
from .jacobian_ring import hodge_h1
from .lg_count import k_lg, verify_main_theorem
from .resolution import (
    DEFAULT_NODE_LIMIT,
    ChartType,
    ResolutionTrace,
    f_closed,
    fg_rec,
    g_closed,
    resolution_trace,
)
from .varieties import CompleteIntersection, fano_sweep


@contextmanager
def _whole_numbers():
    """Lift the int-to-str digit limit for the block, so that exact numbers of
    any length print whole; input text is parsed outside such a block."""
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}")
    return values


def _render_json(payload) -> str:
    """``payload`` as ``json.dumps`` prints it with ``indent=2``, except that
    every int (bools excluded) is rendered as a decimal string.

    ``json.dumps`` runs its pure-Python encoder whenever it indents, and
    turning the ints into strings first copies the whole payload; one
    recursive pass writes the text directly instead.  A payload holds str,
    int, bool and None values, lists, tuples and dicts with str keys.
    """
    parts: list[str] = []
    _render(payload, "\n", parts.append)
    return "".join(parts)


def _render(obj, newline: str, write) -> None:
    if isinstance(obj, str):
        write(_encode_str(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(f'"{obj}"')
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in obj.items():
            write(separator)
            write(_encode_str(key))
            write(": ")
            _render(value, inner, write)
            separator = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for value in obj:
            write(separator)
            _render(value, inner, write)
            separator = "," + inner
        write(newline + "]")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _make_ci(args: argparse.Namespace) -> CompleteIntersection:
    degrees = _parse_int_list(args.degrees, "degrees")
    with _whole_numbers():
        return CompleteIntersection(args.dim, degrees)


def _cmd_hodge(args: argparse.Namespace) -> tuple[int, dict]:
    ci = _make_ci(args)
    report = hodge_h1(ci)
    return 0, {
        "dim": ci.dim,
        "degrees": list(ci.degrees),
        "index": report.index,
        "dim_R_prime": report.dim_R_prime,
        "dim_R": report.dim_R,
        "h_pr": report.h_pr,
        "h": report.h,
    }


def _cmd_klg(args: argparse.Namespace) -> tuple[int, dict]:
    ci = _make_ci(args)
    report = k_lg(ci)
    payload = {
        "dim": ci.dim,
        "degrees": list(ci.degrees),
        "k_lg": report.k_lg,
        "central_fiber_components": report.central_fiber_components,
        "branch": report.branch,
    }
    if args.strata:
        payload["contributions"] = [c._asdict() for c in report.contributions]
    return 0, payload


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    ci = _make_ci(args)
    report = verify_main_theorem(ci)
    return 0 if report.holds else 1, {
        "dim": ci.dim,
        "degrees": list(ci.degrees),
        "holds": report.holds,
        "h": report.h,
        "h_pr": report.h_pr,
        "k_lg": report.k_lg,
    }


def _cmd_periods(args: argparse.Namespace) -> tuple[int, dict]:
    ci = _make_ci(args)
    order = args.order if args.order is not None else 3 * ci.index
    report = verify_period(ci, order)
    return 0 if report.match else 1, {
        "dim": ci.dim,
        "degrees": list(ci.degrees),
        "order": order,
        "match": report.match,
        "first_mismatch": report.first_mismatch,
        "alpha": report.i0.alpha,
        "constant_terms": list(report.phi.coefficients),
        "closed_form": list(report.i0.coefficients),
    }


def _cmd_fg(args: argparse.Namespace) -> tuple[int, dict]:
    d, s = args.d, args.s
    f_recursion, g_recursion = fg_rec(d, s)
    payload = {
        "d": d,
        "s": s,
        "f_recursion": f_recursion,
        "f_closed": f_closed(d, s),
        "g_recursion": g_recursion,
        "g_closed": g_closed(d, s),
    }
    payload["agree"] = f_recursion == payload["f_closed"] and g_recursion == payload["g_closed"]
    return 0 if payload["agree"] else 1, payload


def _cmd_resolve_trace(args: argparse.Namespace) -> tuple[int, ResolutionTrace]:
    dbar = _parse_int_list(args.dbar, "dbar")
    return 0, resolution_trace(ChartType(dbar, args.s), node_limit=args.node_limit)


def _cmd_sweep(args: argparse.Namespace) -> tuple[int, list]:
    for flag, bound, least, rule in (
        ("--max-dim", args.max_dim, 2, "dim >= 2"),
        ("--max-k", args.max_k, 1, "k >= 1"),
        ("--max-degree", args.max_degree, 2, "every degree >= 2"),
    ):
        if bound < least:
            raise ValueError(f"{flag} {bound} admits no variety ({rule})")
    sweep = fano_sweep(args.max_dim, args.max_k, args.max_degree)
    rows = [(ci, verify_main_theorem(ci)) for ci in sweep]
    return 0 if all(r.holds for _, r in rows) else 1, rows


def _ci_text(payload: dict) -> str:
    return str(CompleteIntersection(payload["dim"], payload["degrees"]))


def _hodge_text(p: dict) -> str:
    n = p["dim"] - 1
    rows = [
        ("complete intersection", _ci_text(p)),
        ("index", p["index"]),
        ("dim R'", p["dim_R_prime"]),
        ("dim R", p["dim_R"]),
        (f"h_pr^(1,{n})", p["h_pr"]),
        (f"h^(1,{n})", p["h"]),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}: {value}" for label, value in rows)


def _klg_text(p: dict) -> str:
    lines = [
        f"complete intersection    : {_ci_text(p)}",
        f"branch                   : {p['branch']}",
        f"k_lg                     : {p['k_lg']}",
        f"central fiber components : {p['central_fiber_components']}",
    ]
    for c in p.get("contributions", ()):
        ivec = ",".join(map(str, c["ivec"]))
        lines.append(
            f"  stratum j={c['j']} ivec=({ivec})"
            f" multiplicity={c['multiplicity']} divisors={c['divisors']}"
        )
    return "\n".join(lines)


def _verify_text(p: dict) -> str:
    verdict = "holds" if p["holds"] else "FAILS"
    return (
        f"{_ci_text(p)}: h = {p['h']}, h_pr = {p['h_pr']}, k_lg = {p['k_lg']}"
        f" -> comparison {verdict}"
    )


def _periods_text(p: dict) -> str:
    phi, closed, order = p["constant_terms"], p["closed_form"], p["order"]
    width = max([len("constant term")] + [len(str(c)) for c in phi + closed])
    lines = [
        f"complete intersection: {_ci_text(p)}   (order {order})",
        f"{'n':>4}  {'constant term':>{width}}  {'closed form':>{width}}",
    ]
    for n, (a, b) in enumerate(zip(phi, closed)):
        lines.append(f"{n:>4}  {a:>{width}}  {b:>{width}}")
    if p["match"]:
        lines.append(f"period condition verified up to order {order}")
    else:
        lines.append(f"MISMATCH at order {p['first_mismatch']}")
    return "\n".join(lines)


def _fg_text(p: dict) -> str:
    d, s = p["d"], p["s"]
    return (
        f"F({d},{s}): recursion {p['f_recursion']}, closed form {p['f_closed']}\n"
        f"G({d},{s}): recursion {p['g_recursion']}, closed form {p['g_closed']}\n"
        f"agreement: {'yes' if p['agree'] else 'NO'}"
    )


def _sweep_csv(rows: list) -> str:
    lines = ["N,degrees,index,h_pr,h,k_lg,theorem_holds"]
    for ci, r in rows:
        degrees = "-".join(map(str, ci.degrees))
        holds = "true" if r.holds else "false"
        lines.append(f"{ci.dim},{degrees},{ci.index},{r.h_pr},{r.h},{r.k_lg},{holds}")
    return "\n".join(lines)


def _add_ci_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, required=True, help="dimension of the variety")
    p.add_argument(
        "--degrees", required=True, help="comma-separated hypersurface degrees, e.g. 2,3"
    )


def _add_klg_args(p: argparse.ArgumentParser) -> None:
    _add_ci_flags(p)
    p.add_argument("--strata", action="store_true", help="list each stratum that carries divisors")


def _add_periods_args(p: argparse.ArgumentParser) -> None:
    _add_ci_flags(p)
    p.add_argument(
        "--order", type=int, default=None, help="truncation order (default: 3 * index)"
    )


def _add_fg_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)


def _add_resolve_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dbar", required=True, help="comma-separated exponents, e.g. 3,2")
    p.add_argument("--s", type=int, required=True, help="number of x-variables")
    p.add_argument(
        "--node-limit",
        type=int,
        default=DEFAULT_NODE_LIMIT,
        help="budget on the nodes of the rewriting tree, shared subtrees counted each time",
    )


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--max-degree", type=int, default=6)


# name -> (help, adds the subcommand's arguments, runs it, its views by --format),
# in the order of --help.  A view renders a whole payload without the final
# newline; the first is the default.  The trace views look the trace's methods up
# at call time, as bench/tracer.py binds them.
_COMMANDS = {
    "hodge": (
        "Hodge number h^{1,N-1} and the ring dimensions", _add_ci_flags, _cmd_hodge,
        {"text": _hodge_text, "json": _render_json},
    ),
    "klg": (
        "central-fiber component count of the mirror model", _add_klg_args, _cmd_klg,
        {"text": _klg_text, "json": _render_json},
    ),
    "verify": (
        "check h^{1,N-1} against k_LG (exit 1 on failure)", _add_ci_flags, _cmd_verify,
        {"text": _verify_text, "json": _render_json},
    ),
    "periods": (
        "constant-term expansion vs closed-form series", _add_periods_args, _cmd_periods,
        {"text": _periods_text, "json": _render_json},
    ),
    "fg": (
        "F(d,s) and G(d,s) by recursion and closed form", _add_fg_args, _cmd_fg,
        {"text": _fg_text, "json": _render_json},
    ),
    "resolve-trace": (
        "blow-up rewriting of a local model, one node per distinct chart",
        _add_resolve_trace_args, _cmd_resolve_trace,
        {"json": lambda t: _render_json(t.to_json_dict()), "dot": lambda t: t.to_dot()},
    ),
    "sweep": (
        "CSV table over a range of Fano complete intersections", _add_sweep_args, _cmd_sweep,
        {"csv": _sweep_csv},
    ),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with ``command`` alone.

    A parser for one subcommand prints the same text as the full one for any
    command line that starts with that subcommand: the only place where the
    other subcommands show is the usage line of the top-level parser (after a
    trailing extra argument, say), and ``metavar`` writes them there.  Lines
    that do not start with a subcommand (help, no command, an unknown one)
    need the full parser, whose ``invalid choice`` error names ``command``.
    """
    parser = argparse.ArgumentParser(
        prog="fanolg",
        description=(
            "Exact computations for Fano complete intersections: Hodge numbers,"
            " central-fiber component counts of the compactified mirror model,"
            " period verification, and resolution bookkeeping."
        ),
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        help_text, add_arguments, _, views = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        default = next(iter(views))
        if len(views) > 1:
            p.add_argument("--format", choices=tuple(views), default=default)
        else:  # the one view; no flag selects it
            p.set_defaults(format=default)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    _, _, run, views = _COMMANDS[args.command]
    try:
        code, payload = run(args)
        with _whole_numbers():
            text = views[args.format](payload)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the last boundary: a one-line error, never a traceback
        message = " ".join(str(exc).split())
        detail = f": {message}" if message else ""
        print(f"error: internal error ({type(exc).__name__}){detail}", file=sys.stderr)
        return 4
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point fd 1 at devnull so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
