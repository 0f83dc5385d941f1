"""Every command line the CLI refuses, one row each.

A row gives the line (its words split at spaces), the exit code (2 for invalid
input, 3 for an exceeded work budget) and the whole stderr at 80 columns.  An
exit-3 row also names the budget it exceeds, as ``module.NAME`` in ``fanolg``.
``seconds``, where given, bounds the wall time of the refusal.  A row that
gives ``address_space`` (a cap in bytes) or ``peak`` (a tracemalloc peak in
bytes) also runs in a fresh interpreter under that cap, which
``test_bounds.py`` checks.
``test_refusals.py`` runs every row through ``fanolg.cli.main``, and
``test_package.py`` requires each module-level ``MAX_*`` constant of the package
to be named by a row, so a new budget comes with a line that exceeds it.

``line_id`` and ``row_id`` name a line, and a row of either table, as a test.
"""

import re
from typing import NamedTuple

NINES = "9" * 4300  # the longest int that str() prints by default
USAGE = "usage: fanolg [-h] {hodge,klg,verify,periods,fg,resolve-trace,sweep} ...\n"
HODGE_USAGE = "usage: fanolg hodge [-h] --dim DIM --degrees DEGREES [--format {text,json}]\n"
TRACE_USAGE = (
    "usage: fanolg resolve-trace [-h] --dbar DBAR --s S [--node-limit NODE_LIMIT]\n"
    "                            [--format {json,dot}]\n"
)
STRATA = "would cost more than 1,000,000 (one per stratum plus the bits of the divisor counts)"
BINOMIAL = "the binomial C(n, k) with n of 14,286 bits and k of 14,285 bits is too large to compute"


class Refusal(NamedTuple):
    line: str
    code: int
    stderr: str
    budget: str | None = None
    seconds: float | None = None
    address_space: int | None = None
    peak: int | None = None


def line_id(line):
    # "9" * 4300 reads as 9*4300
    return re.sub(r"(\d)\1{19,}", lambda m: f"{m[1]}*{len(m[0])}", line) or "no arguments"


def row_id(row):
    return line_id(row.line)


REFUSALS = [
    # the parser's refusals: its usage lines, then one error line
    Refusal("", 2, f"{USAGE}fanolg: error: the following arguments are required: command\n"),
    Refusal("frobnicate", 2, (
        f"{USAGE}fanolg: error: argument command: invalid choice: 'frobnicate' (choose from"
        " 'hodge', 'klg', 'verify', 'periods', 'fg', 'resolve-trace', 'sweep')\n"
    )),
    Refusal("hodge --dim 3", 2, (
        f"{HODGE_USAGE}fanolg hodge: error: the following arguments are required: --degrees\n"
    )),
    Refusal("hodge --dim 3 --degrees 3 extra", 2,
            f"{USAGE}fanolg: error: unrecognized arguments: extra\n"),
    Refusal("hodge --dim 3 --degrees 3 --format xml", 2, (
        f"{HODGE_USAGE}fanolg hodge: error: argument --format: invalid choice: 'xml'"
        " (choose from 'text', 'json')\n"
    )),
    Refusal("hodge --dim x --degrees 3", 2,
            f"{HODGE_USAGE}fanolg hodge: error: argument --dim: invalid int value: 'x'\n"),
    # past the int-to-str digit limit, input text is not a number
    Refusal(f"hodge --dim {'9' * 5000} --degrees 3", 2, (
        f"{HODGE_USAGE}fanolg hodge: error: argument --dim: invalid int value:"
        f" '{'9' * 5000}'\n"
    )),
    Refusal("klg --dim 12 --degrees -2,3 --strata", 2, (
        "usage: fanolg klg [-h] --dim DIM --degrees DEGREES [--strata]\n"
        "                  [--format {text,json}]\n"
        "fanolg klg: error: argument --degrees: expected one argument\n"
    )),
    Refusal("fg --d x --s 1", 2, (
        "usage: fanolg fg [-h] --d D --s S [--format {text,json}]\n"
        "fanolg fg: error: argument --d: invalid int value: 'x'\n"
    )),
    Refusal("resolve-trace --dbar 3 --s 1 --format text", 2, (
        f"{TRACE_USAGE}fanolg resolve-trace: error: argument --format: invalid choice:"
        " 'text' (choose from 'json', 'dot')\n"
    )),
    # invalid input
    Refusal("hodge --dim 3 --degrees 3,x", 2,
            "error: degrees must be a comma-separated list of integers, got '3,x'\n"),
    Refusal(f"hodge --dim 3 --degrees {'9' * 5000}", 2, (
        "error: degrees must be a comma-separated list of integers,"
        f" got '{'9' * 5000}'\n"
    )),
    Refusal("hodge --dim 3 --degrees 5", 2, "error: not Fano: total degree 5 exceeds dim + k = 4\n"),
    Refusal("klg --dim 3 --degrees 5", 2, "error: not Fano: total degree 5 exceeds dim + k = 4\n"),
    Refusal("periods --dim 3 --degrees 5", 2,
            "error: not Fano: total degree 5 exceeds dim + k = 4\n"),
    Refusal("verify --dim 3 --degrees 5", 2,
            "error: not Fano: total degree 5 exceeds dim + k = 4\n"),
    # each degree has 4,300 digits and their sum 4,301, printed whole
    Refusal(f"hodge --dim 3 --degrees {NINES},{NINES}", 2,
            f"error: not Fano: total degree 1{NINES[:-1]}8 exceeds dim + k = 5\n"),
    Refusal("hodge --dim 3 --degrees 1,2", 2, (
        "error: every degree must be an integer >= 2, got 1"
        " (a degree-1 equation reduces to a smaller ambient space)\n"
    )),
    Refusal("hodge --dim 1 --degrees 2", 2, "error: dimension must be an integer >= 2, got 1\n"),
    Refusal("periods --dim 3 --degrees 3 --order -1", 2,
            "error: order must be nonnegative, got -1\n"),
    Refusal("fg --d 0 --s 2", 2, "error: d must be >= 1, got 0\n"),
    Refusal("fg --d 3 --s -1", 2, "error: s must be >= 0, got -1\n"),
    Refusal("resolve-trace --dbar 0,2 --s 1", 2,
            "error: chart exponents must be positive, got (0, 2)\n"),
    Refusal("resolve-trace --dbar 3,x --s 1", 2,
            "error: dbar must be a comma-separated list of integers, got '3,x'\n"),
    Refusal("resolve-trace --dbar 3 --s -1", 2, "error: chart requires s >= 0, got s=-1\n"),
    Refusal("resolve-trace --dbar 2 --s 1 --node-limit 0", 2,
            "error: node_limit must be positive, got 0\n"),
    # dim >= 2, k >= 1 and degree >= 2: else the CSV would be a bare header
    Refusal("sweep --max-dim 1", 2, "error: --max-dim 1 admits no variety (dim >= 2)\n"),
    Refusal("sweep --max-k 0", 2, "error: --max-k 0 admits no variety (k >= 1)\n"),
    Refusal("sweep --max-degree 1", 2,
            "error: --max-degree 1 admits no variety (every degree >= 2)\n"),
    # work budgets; the messages name k and bit lengths, not the variety
    *[
        Refusal(f"{command} --dim 42 --degrees {','.join(['3'] * 21)}", 3, (
            "error: the inclusion-exclusion for 21 equations would add 2,097,152 summands,"
            " more than 1,048,576\n"
        ), "jacobian_ring.MAX_INCLUSION_EXCLUSION_SUMMANDS")
        for command in ("hodge", "verify")
    ],
    # index 2, so delta_j needs C(n, k) with k of about 14,000 bits, past what
    # binomial forms
    *[
        Refusal(f"{command} --dim {NINES} --degrees {NINES}", 3, f"error: {BINOMIAL}\n",
                "exactmath.binomial")
        for command in ("hodge", "verify")
    ],
    # 12,498,200 strata; a hypersurface whose divisors reach 200,000 bits
    Refusal(f"verify --dim 153 --degrees {','.join(['20'] * 8)}", 3,
            f"error: the strata of 8 equation(s) with degrees of up to 5 bits {STRATA}\n",
            "lg_count.MAX_STRATA_COST", seconds=1),
    Refusal("klg --dim 200000 --degrees 200001", 3,
            f"error: the strata of 1 equation(s) with degrees of up to 18 bits {STRATA}\n",
            "lg_count.MAX_STRATA_COST", seconds=1),
    Refusal(f"klg --dim {NINES} --degrees {NINES}", 3,
            f"error: the strata of 1 equation(s) with degrees of up to 14,285 bits {STRATA}\n",
            "lg_count.MAX_STRATA_COST"),
    # f would have C(41, 20) = 269,128,937,220 terms; the cap stops the
    # interpreter early should the count ever come after the terms
    Refusal("periods --dim 20 --degrees 21", 3, (
        "error: the mirror polynomial of 1 equation(s) with degrees of up to 5 bits"
        " would have more than 20,000,000 terms\n"
    ), "givental.MAX_TERM_PRODUCTS", seconds=1, address_space=2**29, peak=2**20),
    Refusal("periods --dim 6 --degrees 7 --order 7", 3, (
        "error: constant-term expansion to order 7 would form more than 20,000,000 term"
        " products by power 3\n"
    ), "givental.MAX_TERM_PRODUCTS"),
    Refusal("fg --d 400 --s 400", 3,
            "error: the recursion for F(400,400) would add more than 1,000,000 summands\n",
            "resolution.MAX_RECURSION_SUMMANDS"),
    # 2d - 1 summands at least, one state per level: refused before any level
    *[
        Refusal(f"fg --d {d} --s 1", 3,
                f"error: the recursion for F({d},1) would add more than 1,000,000 summands\n",
                "resolution.MAX_RECURSION_SUMMANDS", peak=2**20)
        for d in (500001, 1000000000)
    ],
    Refusal("resolve-trace --dbar 6,6 --s 4 --node-limit 10", 3,
            "error: resolution trace from L((6, 6); s=4) exceeded 10 nodes\n",
            "resolution.DEFAULT_NODE_LIMIT"),
    # 679 distinct charts, but 7,231 tree nodes: a limit of 900 must not suffice
    *[
        Refusal(f"resolve-trace --dbar 6,6,6 --s 6 --node-limit {limit}", 3,
                f"error: resolution trace from L((6, 6, 6); s=6) exceeded {limit} nodes\n",
                "resolution.DEFAULT_NODE_LIMIT")
        for limit in (900, 7230)  # 7230 is one below the tree size, an answer row
    ],
    # chains of 10^8 blow-ups, whose trees of at least 2 * 10^8 + 1 nodes are
    # refused before the walk; the last runs its a-chart chain past d_1
    *[
        Refusal(f"resolve-trace --dbar {dbar} --s {s}", 3, (
            f"error: resolution trace from L(({dbar.replace(',', ', ')}); s={s})"
            " exceeded 1000000 nodes\n"
        ), "resolution.DEFAULT_NODE_LIMIT", seconds=1)
        for dbar, s in (("1", 100000000), ("100000000", 1), ("1,100000000", 1))
    ],
    # its x-chart L((400000, 399998); s=1) runs an a-chart chain of 799,998
    # levels, which the walk met only after 3 s and 300 MB
    Refusal("resolve-trace --dbar 400000 --s 2", 3,
            "error: resolution trace from L((400000); s=2) exceeded 1000000 nodes\n",
            "resolution.DEFAULT_NODE_LIMIT", seconds=1, address_space=2**28),
    # the tree passes 1,000,000 nodes long before the root's subtree closes,
    # and a build that waits for it outgrows the cap
    Refusal("resolve-trace --dbar 40,1,1 --s 7", 3,
            "error: resolution trace from L((40, 1, 1); s=7) exceeded 1000000 nodes\n",
            "resolution.DEFAULT_NODE_LIMIT", address_space=2**28),
    # the tree passes 1,000,000 nodes long before the distinct charts are all expanded
    Refusal("resolve-trace --dbar 12,12,12 --s 12", 3,
            "error: resolution trace from L((12, 12, 12); s=12) exceeded 1000000 nodes\n",
            "resolution.DEFAULT_NODE_LIMIT", peak=40 * 2**20),
    Refusal("resolve-trace --dbar 99999 --s 99999", 3,
            "error: resolution trace from L((99999); s=99999) would store more than"
            " 10,000,000 cells\n",
            "resolution.MAX_TRACE_CELLS"),
]
