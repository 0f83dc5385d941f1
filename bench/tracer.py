"""Spans and counters for the traced run, recorded from outside the package.

The tracer binds a wrapper over each named module attribute (the functions
the package's own callers look up at call time), records one span per call
and restores the original attributes afterwards.  ``exactmath`` and
``varieties`` get no span: ``binomial`` runs about 10^6 times per sweep pass,
so their time stays inside their callers' self time.
"""

from __future__ import annotations

import functools
import gc
from collections import Counter
from time import perf_counter

COUNT_SPAN = "bench.count"  # time spent computing counters; excluded from every self time


def span_sites(fl, bench) -> dict[str, list[tuple[object, str]]]:
    """Span name -> the (namespace, attribute) pairs its wrapper is bound over.

    A function is bound where its callers look it up: in its own module for
    calls from inside that module, and in each importing module.  F and G are
    bound only in ``cli``, so the recursion inside ``resolution`` keeps its
    stack depth.
    """
    jr, lg, gv, res, cli = fl.jacobian_ring, fl.lg_count, fl.givental, fl.resolution, fl.cli
    trace_class = getattr(res, "ResolutionTrace", None)
    return {
        "jacobian_ring.hodge_h1": [(jr, "hodge_h1"), (lg, "hodge_h1"), (cli, "hodge_h1")],
        "jacobian_ring.dim_R_prime_1": [(jr, "dim_R_prime_1")],
        "jacobian_ring.count_monomials_oracle": [(jr, "count_monomials_oracle")],
        "jacobian_ring.alt_dim_formula": [(jr, "alt_dim_formula")],
        "lg_count.k_lg": [(lg, "k_lg"), (cli, "k_lg")],
        "lg_count.enumerate_strata": [(lg, "enumerate_strata")],
        "lg_count.k_lg_closed": [(lg, "k_lg_closed")],
        "givental.build_fx": [(gv, "build_fx")],
        "givental.phi_series": [(gv, "phi_series")],
        "givental.i_series": [(gv, "i_series")],
        "resolution.resolution_trace": [(res, "resolution_trace"), (cli, "resolution_trace")],
        "resolution.walk": [(bench, "walk_trace")],
        "resolution.to_json_dict": [(trace_class, "to_json_dict")],
        "resolution.to_dot": [(trace_class, "to_dot")],
        "resolution.fg": [(cli, name) for name in ("f_rec", "g_rec", "f_closed", "g_closed")],
        "cli.main": [(cli, "main")],
    }


def _count_strata(counts: Counter, strata) -> None:
    counts["lg_count.strata_enumerated"] += len(strata)
    counts["lg_count.strata_contributing"] += sum(1 for c in strata if c.divisors)


def _count_trace(counts: Counter, trace) -> None:
    counts["resolution.tree_nodes"] += trace.node_count
    counts["resolution.distinct_charts"] += len({node.chart for node in trace.iter_nodes()})


COUNTERS = {
    "lg_count.enumerate_strata": _count_strata,
    "givental.build_fx": lambda counts, f: counts.update({"givental.fx_terms": f.term_count()}),
    "givental.phi_series": lambda counts, phi: counts.update(
        {"givental.coeff_bits": sum(abs(c).bit_length() for c in phi.coefficients)}
    ),
    "resolution.resolution_trace": _count_trace,
}

# Spans a workload must record; zero calls on one of them is reported as missing.
EXPECTED = {
    "sweep": {
        "jacobian_ring.hodge_h1", "jacobian_ring.dim_R_prime_1",
        "jacobian_ring.count_monomials_oracle", "jacobian_ring.alt_dim_formula",
        "lg_count.k_lg", "lg_count.enumerate_strata", "lg_count.k_lg_closed",
    },
    "periods": {"givental.build_fx", "givental.phi_series", "givental.i_series"},
    "traces": {"resolution.resolution_trace", "resolution.walk"},
    "cli": {
        "cli.main", "resolution.resolution_trace", "resolution.to_json_dict", "resolution.to_dot",
        "resolution.fg", "givental.build_fx", "givental.phi_series", "givental.i_series",
        "jacobian_ring.hodge_h1", "jacobian_ring.dim_R_prime_1", "lg_count.k_lg",
        "lg_count.enumerate_strata",
    },
}

# Metrics that only mean something when their span recorded calls.
DERIVED = {
    "lg_count.enumerate_strata": ("lg_count.strata_enumerated", "lg_count.strata_contributing",
                                  "lg_count.strata_useful_frac"),
    "givental.build_fx": ("givental.fx_terms",),
    "givental.phi_series": ("givental.coeff_bits",),
    "resolution.resolution_trace": ("resolution.tree_nodes", "resolution.distinct_charts",
                                    "resolution.dedup_frac"),
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.gc_collections = 0
        self.gc_seconds = 0.0
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def _open(self, name: str) -> list:
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record = self._open(COUNT_SPAN)
                try:
                    count(self.counts, result)
                finally:
                    self._close(record)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_seconds += perf_counter() - self._gc_start

    def install(self, sites: dict[str, list[tuple[object, str]]]) -> None:
        for name, pairs in sites.items():
            for namespace, attr in pairs:
                original = getattr(namespace, attr, None)
                if callable(original):
                    self._bound.append((namespace, attr, original))
                    setattr(namespace, attr, self.wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for namespace, attr, original in reversed(self._bound):
            setattr(namespace, attr, original)
        self._bound.clear()

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "gc": [self.gc_collections, self.gc_seconds],
        }

    def absorb(self, exported: dict, op_offset: int) -> None:
        """Merge the spans and counters a child interpreter recorded."""
        base = len(self.spans)
        for name, start, end, parent, op in exported["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op + op_offset])
        self.counts.update(exported["counts"])
        self.gc_collections += exported["gc"][0]
        self.gc_seconds += exported["gc"][1]


def layer_metrics(tracer: Tracer, passes: int, workload: str, names: list[str]) -> tuple[dict, list[str]]:
    """The per-layer metrics in ``names``, per traced pass, and the expected
    spans that recorded no calls.  Their metrics are left out rather than
    reported as 0; a metric of a layer the workload does not reach is 0
    (per-layer metrics carry no bound, so a 0 is never a ratio's base)."""
    calls: Counter = Counter()
    covered: Counter = Counter()
    for name, start, end, parent, _ in tracer.spans:
        calls[name] += 1
        if parent >= 0:
            covered[parent] += end - start
    values: Counter = Counter(tracer.counts)
    for index, (name, start, end, _, _) in enumerate(tracer.spans):
        values[f"{name}.self_s"] += end - start - covered[index]
    for name, count in calls.items():
        values[f"{name}.calls"] = count
    values["runtime.gc.collections"] = tracer.gc_collections
    values["runtime.gc.s"] = tracer.gc_seconds
    metrics = {name: values[name] / passes for name in names}
    enumerated, nodes = values["lg_count.strata_enumerated"], values["resolution.tree_nodes"]
    metrics["lg_count.strata_useful_frac"] = (
        values["lg_count.strata_contributing"] / enumerated if enumerated else 0.0
    )
    metrics["resolution.dedup_frac"] = values["resolution.distinct_charts"] / nodes if nodes else 0.0
    missing = sorted(name for name in EXPECTED[workload] if not calls[name])
    for name in missing:
        for metric in (f"{name}.calls", f"{name}.self_s", *DERIVED.get(name, ())):
            metrics.pop(metric, None)
    return metrics, missing
