"""Command-line front end.

Every computation is exposed with machine-readable output.  Exit codes: 0 for
success (including successful verification), 1 for a failed verification, 2
for invalid input, 3 for an exceeded work budget (trace tree nodes or cells,
period term products, recursion or inclusion-exclusion summands, strata) and
4 for any other error; codes 2 to 4 come with a one-line ``error:`` on stderr.
JSON output renders every numeric field as a decimal string, since the exact
values outgrow 64-bit integers quickly; ``_render_json`` writes it in one pass.

Each run builds the parser of the subcommand it names and no other (see
``_build_parser``); the subcommands live in one table, ``_COMMANDS``.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Sequence

from .givental import TermLimitExceeded, verify_period
from .jacobian_ring import hodge_h1
from .lg_count import k_lg, verify_main_theorem
from .resolution import (
    ChartType,
    NodeLimitExceeded,
    SummandLimitExceeded,
    f_closed,
    fg_rec,
    g_closed,
    resolution_trace,
)
from .varieties import CompleteIntersection, fano_sweep


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}")
    if not values:
        raise ValueError(f"{what} must not be empty")
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


def _emit_json(payload: dict) -> None:
    print(_render_json(payload))


def _make_ci(args: argparse.Namespace) -> CompleteIntersection:
    degrees = _parse_int_list(args.degrees, "degrees")
    return CompleteIntersection(args.dim, degrees)


def _cmd_hodge(args: argparse.Namespace) -> int:
    ci = _make_ci(args)
    report = hodge_h1(ci)
    if args.format == "json":
        _emit_json(
            {
                "dim": ci.dim,
                "degrees": list(ci.degrees),
                "index": report.index,
                "dim_R_prime": report.dim_R_prime,
                "dim_R": report.dim_R,
                "h_pr": report.h_pr,
                "h": report.h,
            }
        )
    else:
        print(f"complete intersection: {ci}")
        print(f"index                : {report.index}")
        print(f"dim R'               : {report.dim_R_prime}")
        print(f"dim R                : {report.dim_R}")
        print(f"h_pr^(1,{ci.dim - 1})           : {report.h_pr}")
        print(f"h^(1,{ci.dim - 1})              : {report.h}")
    return 0


def _cmd_klg(args: argparse.Namespace) -> int:
    ci = _make_ci(args)
    report = k_lg(ci)
    if args.format == "json":
        payload = {
            "dim": ci.dim,
            "degrees": list(ci.degrees),
            "k_lg": report.k_lg,
            "central_fiber_components": report.central_fiber_components,
            "branch": report.branch,
        }
        if args.strata:
            payload["contributions"] = [
                {
                    "j": c.label.j,
                    "ivec": list(c.label.ivec),
                    "multiplicity": c.multiplicity,
                    "divisors": c.divisors,
                }
                for c in report.contributions
            ]
        _emit_json(payload)
    else:
        print(f"complete intersection    : {ci}")
        print(f"branch                   : {report.branch}")
        print(f"k_lg                     : {report.k_lg}")
        print(f"central fiber components : {report.central_fiber_components}")
        if args.strata:
            for c in report.contributions:
                ivec = ",".join(map(str, c.label.ivec))
                print(
                    f"  stratum j={c.label.j} ivec=({ivec})"
                    f" multiplicity={c.multiplicity} divisors={c.divisors}"
                )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    ci = _make_ci(args)
    report = verify_main_theorem(ci)
    if args.format == "json":
        _emit_json(
            {
                "dim": ci.dim,
                "degrees": list(ci.degrees),
                "holds": report.holds,
                "h": report.h,
                "h_pr": report.h_pr,
                "k_lg": report.k_lg,
            }
        )
    else:
        verdict = "holds" if report.holds else "FAILS"
        print(
            f"{ci}: h = {report.h}, h_pr = {report.h_pr}, k_lg = {report.k_lg}"
            f" -> comparison {verdict}"
        )
    return 0 if report.holds else 1


def _cmd_periods(args: argparse.Namespace) -> int:
    ci = _make_ci(args)
    order = args.order if args.order is not None else 3 * ci.index
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    report = verify_period(ci, order)
    if args.format == "json":
        _emit_json(
            {
                "dim": ci.dim,
                "degrees": list(ci.degrees),
                "order": order,
                "match": report.match,
                "first_mismatch": report.first_mismatch,
                "alpha": report.i0.alpha,
                "constant_terms": list(report.phi.coefficients),
                "closed_form": list(report.i0.coefficients),
            }
        )
    else:
        print(f"complete intersection: {ci}   (order {order})")
        width = max(
            [len("constant term")]
            + [len(str(c)) for c in report.phi.coefficients + report.i0.coefficients]
        )
        print(f"{'n':>4}  {'constant term':>{width}}  {'closed form':>{width}}")
        for n in range(order + 1):
            print(
                f"{n:>4}  {report.phi.coefficients[n]:>{width}}"
                f"  {report.i0.coefficients[n]:>{width}}"
            )
        if report.match:
            print(f"period condition verified up to order {order}")
        else:
            print(f"MISMATCH at order {report.first_mismatch}")
    return 0 if report.match else 1


def _cmd_fg(args: argparse.Namespace) -> int:
    d, s = args.d, args.s
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    f_recursion, g_recursion = fg_rec(d, s)
    values = {
        "f_recursion": f_recursion,
        "f_closed": f_closed(d, s),
        "g_recursion": g_recursion,
        "g_closed": g_closed(d, s),
    }
    agree = (
        values["f_recursion"] == values["f_closed"]
        and values["g_recursion"] == values["g_closed"]
    )
    if args.format == "json":
        _emit_json({"d": d, "s": s, **values, "agree": agree})
    else:
        print(f"F({d},{s}): recursion {values['f_recursion']}, closed form {values['f_closed']}")
        print(f"G({d},{s}): recursion {values['g_recursion']}, closed form {values['g_closed']}")
        print(f"agreement: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


def _cmd_resolve_trace(args: argparse.Namespace) -> int:
    dbar = _parse_int_list(args.dbar, "dbar")
    chart = ChartType(dbar, args.s)
    trace = resolution_trace(chart, node_limit=args.node_limit)
    if args.format == "dot":
        print(trace.to_dot())
    else:
        _emit_json(trace.to_json_dict())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    print("N,degrees,index,h_pr,h,k_lg,theorem_holds")
    for ci in fano_sweep(args.max_dim, args.max_k, args.max_degree, min_dim=args.min_dim):
        report = verify_main_theorem(ci)
        degrees = "-".join(map(str, ci.degrees))
        holds = "true" if report.holds else "false"
        print(
            f"{ci.dim},{degrees},{ci.index},{report.h_pr},{report.h},{report.k_lg},{holds}"
        )
    return 0


def _add_ci_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, required=True, help="dimension of the variety")
    p.add_argument(
        "--degrees", required=True, help="comma-separated hypersurface degrees, e.g. 2,3"
    )


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_ci_args(p: argparse.ArgumentParser) -> None:
    _add_ci_flags(p)
    _add_format_flag(p)


def _add_klg_args(p: argparse.ArgumentParser) -> None:
    _add_ci_args(p)
    p.add_argument("--strata", action="store_true", help="list each stratum that carries divisors")


def _add_periods_args(p: argparse.ArgumentParser) -> None:
    _add_ci_flags(p)
    p.add_argument(
        "--order", type=int, default=None, help="truncation order (default: 3 * index)"
    )
    _add_format_flag(p)


def _add_fg_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _add_format_flag(p)


def _add_resolve_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dbar", required=True, help="comma-separated exponents, e.g. 3,2")
    p.add_argument("--s", type=int, required=True, help="number of x-variables")
    p.add_argument(
        "--node-limit",
        type=int,
        default=1_000_000,
        help="budget on the nodes of the rewriting tree, shared subtrees counted each time",
    )
    p.add_argument("--format", choices=("json", "dot"), default="json")


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-dim", type=int, default=2)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--max-degree", type=int, default=6)


# name -> (help, adds the subcommand's arguments, runs it), in the order of --help
_COMMANDS = {
    "hodge": ("Hodge number h^{1,N-1} and the ring dimensions", _add_ci_args, _cmd_hodge),
    "klg": ("central-fiber component count of the mirror model", _add_klg_args, _cmd_klg),
    "verify": ("check h^{1,N-1} against k_LG (exit 1 on failure)", _add_ci_args, _cmd_verify),
    "periods": (
        "constant-term expansion vs closed-form series", _add_periods_args, _cmd_periods
    ),
    "fg": ("F(d,s) and G(d,s) by recursion and closed form", _add_fg_args, _cmd_fg),
    "resolve-trace": (
        "blow-up rewriting of a local model, one node per distinct chart",
        _add_resolve_trace_args,
        _cmd_resolve_trace,
    ),
    "sweep": (
        "CSV table over a range of Fano complete intersections", _add_sweep_args, _cmd_sweep
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
        help_text, add_arguments, run = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(run=run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return args.run(args)
    except (NodeLimitExceeded, TermLimitExceeded, SummandLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the last boundary: a one-line error, never a traceback
        message = " ".join(str(exc).split())
        print(f"error: internal error ({type(exc).__name__}): {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
