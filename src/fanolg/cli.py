"""Command-line front end.

Every computation is exposed with machine-readable output.  Exit codes: 0 for
success (including successful verification), 1 for a failed verification, 2
for invalid input, 3 for an exceeded work budget (trace tree nodes or cells,
period term products, recursion or inclusion-exclusion summands) and 4 for
any other error; codes 2 to 4 come with a one-line ``error:`` on stderr.
JSON output renders every numeric field as a decimal string, since the exact
values outgrow 64-bit integers quickly.
"""

from __future__ import annotations

import argparse
import json
import sys
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


def _stringify(obj):
    """Render every int in a JSON payload as a decimal string (bools excluded)."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {key: _stringify(value) for key, value in obj.items()}
    return obj


def _emit_json(payload: dict) -> None:
    print(json.dumps(_stringify(payload), indent=2))


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
        print(json.dumps(_stringify(trace.to_json_dict()), indent=2))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanolg",
        description=(
            "Exact computations for Fano complete intersections: Hodge numbers,"
            " central-fiber component counts of the compactified mirror model,"
            " period verification, and resolution bookkeeping."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ci_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", type=int, required=True, help="dimension of the variety")
        p.add_argument(
            "--degrees", required=True, help="comma-separated hypersurface degrees, e.g. 2,3"
        )

    p = sub.add_parser("hodge", help="Hodge number h^{1,N-1} and the ring dimensions")
    add_ci_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_cmd_hodge)

    p = sub.add_parser("klg", help="central-fiber component count of the mirror model")
    add_ci_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--strata", action="store_true", help="list each stratum that carries divisors")
    p.set_defaults(run=_cmd_klg)

    p = sub.add_parser("verify", help="check h^{1,N-1} against k_LG (exit 1 on failure)")
    add_ci_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("periods", help="constant-term expansion vs closed-form series")
    add_ci_flags(p)
    p.add_argument(
        "--order", type=int, default=None, help="truncation order (default: 3 * index)"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_cmd_periods)

    p = sub.add_parser("fg", help="F(d,s) and G(d,s) by recursion and closed form")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_cmd_fg)

    p = sub.add_parser(
        "resolve-trace", help="blow-up rewriting of a local model, one node per distinct chart"
    )
    p.add_argument("--dbar", required=True, help="comma-separated exponents, e.g. 3,2")
    p.add_argument("--s", type=int, required=True, help="number of x-variables")
    p.add_argument(
        "--node-limit",
        type=int,
        default=1_000_000,
        help="budget on the nodes of the rewriting tree, shared subtrees counted each time",
    )
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(run=_cmd_resolve_trace)

    p = sub.add_parser("sweep", help="CSV table over a range of Fano complete intersections")
    p.add_argument("--min-dim", type=int, default=2)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--max-degree", type=int, default=6)
    p.set_defaults(run=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
