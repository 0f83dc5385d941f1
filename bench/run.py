"""Run one workload of the fanolg benchmark and print its metrics.

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Ops run in a closed loop in one process: each starts when the previous one
ends, with no extra threads.  The ``cli`` workload runs each pass in a fresh
interpreter, one pass at a time.  Passes repeat until ``--seconds`` are
spent, and at least until 100 ops have run, so that ten samples lie beyond
p90.  Op times are scaled to a reference interpreter speed by a calibration
kernel timed between ops (``clock.py``), because the interpreter's speed
drifts by up to half on a shared host.  Every op's output is checked, and on the
default seed the outputs are also compared with the digests stored in
``digests.json``.

The output is the environment, a table of every metric with its unit and
sample count, and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` reports its per-layer
metrics: untraced and traced passes take turns, and the spans are written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import clock  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 21
MIN_OPS = 100  # at least ten samples beyond p90
MIN_PASSES = 2
# Every cli pass is a distinct draw of the pool, and cli:op_ms_p50 follows the
# draw.  Resampling 48 measured draws, 12 draws per run bring its IQR over
# median across ten runs to about 0.06 (0.11 with 4 draws); 12 passes take
# about 31 s on a 2-vCPU Xeon VM, which keeps the 92 runs of an acceptance
# check within their time limit.
CLI_MIN_PASSES = 12
CHILD_TIMEOUT_S = 60


@dataclass
class Pass:
    seconds: list[float]  # per op, in input order, scaled to the reference speed (clock.py)
    outcomes: list[Outcome]  # emptied after the first passes; see run_passes
    peak_rss_mb: float
    raw_seconds: list[float]  # per op, wall time as measured
    wall_s: float = 0.0  # the pass including its checks
    variant: int = 0  # which draw of the inputs it ran; see workloads.CLI_DRAWS

    def __post_init__(self) -> None:
        self.values_hash = value_hash([o.values for o in self.outcomes])
        self.failed = sum(1 for o in self.outcomes if o.problem)
        self.unexpected = sum(1 for o in self.outcomes if o.problem and not o.known)
        self.problems = {o.problem for o in self.outcomes if o.problem}

    @property
    def pass_s(self) -> float:
        return sum(self.seconds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def inprocess_pass(fl, wl, items, tracer=None, op_base=0) -> Pass:
    timer, outcomes = clock.Clock(), []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op = op_base + i
        start = timer.start()
        try:
            raw = wl.op(fl, item)
        except Exception as exc:  # counted as a failed op
            timer.stop(start)
            outcomes.append(Outcome(None, f"{type(exc).__name__}: {exc}"))
            continue
        timer.stop(start)
        outcomes.append(workloads.checked(wl.check, fl, item, raw))
    return Pass(timer.scaled(), outcomes, peak_rss_mb(), timer.raw)


def cli_pass(seed: int, tiny: bool, tracer=None, op_base=0, variant=0) -> Pass:
    spec = json.dumps({"seed": seed, "tiny": tiny, "variant": variant, "trace": tracer is not None})
    proc = subprocess.run(
        [sys.executable, str(BENCH / "cli_pass.py")],
        input=spec, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cli pass exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    if tracer is not None:
        tracer.absorb(result["trace"], op_base)
    ops = result["ops"]
    return Pass(
        [op["seconds"] for op in ops],
        [Outcome(op["values"], op["problem"], op["known"]) for op in ops],
        result["peak_rss_mb"],
        [op["raw_seconds"] for op in ops],
        variant=variant,
    )


def run_passes(one_pass, seconds: float, min_passes: int, min_ops: int, keep: int = 1) -> list[Pass]:
    """Call ``one_pass(index, op_base)`` until ``seconds`` are spent (ending as
    close to it as whole passes allow) and the minimum counts are met.  The
    first ``keep`` passes
    keep their outcomes; later ones keep only their hashes and counts, so that
    the peak RSS does not depend on the number of passes."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        done = one_pass(len(passes), sum(len(p.seconds) for p in passes))
        done.wall_s = perf_counter() - began
        if len(passes) >= keep:
            done.outcomes = []
        passes.append(done)
        elapsed = perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if (
            len(passes) >= min_passes
            and sum(len(p.seconds) for p in passes) >= min_ops
            and elapsed + typical / 2 >= seconds
        ):
            return passes


def probe_setup(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """Set-up times, scaled and wall, each from a fresh interpreter (the import
    is cached after the first one in a process)."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}: {proc.stderr[-2000:]}")
        scaled, wall = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(scaled), float(wall)))
    return times


def value_hash(values) -> str:
    return hashlib.sha256(json.dumps(values, separators=(",", ":")).encode()).hexdigest()[:12]


def stored_hashes(workload: str) -> list | None:
    """Per-op hashes of the default seed's outputs; null for an op that failed
    when they were stored, so that fixing it does not count as a change."""
    return json.loads((BENCH / "digests.json").read_text()).get(workload)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        spans_path: Path | None = None) -> dict:
    """Run one workload and return its report (metrics, counts, values, checks)."""
    setup_times = [] if trace else probe_setup(workload, seed, 1 if tiny else SETUP_PROBES)
    fl = workloads.load_package()
    if SRC.resolve() not in Path(fl.__file__).resolve().parents:
        raise RuntimeError(f"imported fanolg from {fl.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[workload]
    min_passes, min_ops = (1, 1) if tiny else (CLI_MIN_PASSES if workload == "cli" else MIN_PASSES, MIN_OPS)

    if workload == "cli":
        def one_pass(index, op_base, tracer=None):
            return cli_pass(seed, tiny, tracer, op_base, index % workloads.CLI_DRAWS)
    else:
        items = wl.inputs(fl, seed, tiny)

        def one_pass(index, op_base, tracer=None):
            return inprocess_pass(fl, wl, items, tracer, op_base)

    report: dict = {"workload": workload, "seed": seed}
    if not trace:
        passes = run_passes(one_pass, seconds, min_passes, min_ops)
        samples = [s for p in passes for s in p.seconds]
        report["metrics"] = {
            "setup_s": statistics.median(t for t, _ in setup_times),
            "pass_s": statistics.median(p.pass_s for p in passes),
            "op_ms_p50": statistics.median(samples) * 1000,
            "op_ms_p90": statistics.quantiles(samples, n=10)[8] * 1000,
            "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        }
        raw = [s for p in passes for s in p.raw_seconds]
        report["wall"] = {
            "setup_s": statistics.median(w for _, w in setup_times),
            "pass_s": statistics.median(sum(p.raw_seconds) for p in passes),
            "op_ms_p50": statistics.median(raw) * 1000,
            "op_ms_p90": statistics.quantiles(raw, n=10)[8] * 1000,
        }
        report["samples"] = {
            "setup_s": len(setup_times), "pass_s": len(passes), "op_ms_p50": len(samples),
            "op_ms_p90": len(samples), "peak_rss_mb": len(passes),
        }
        report["missing"] = []
        first = passes[0].outcomes
    else:
        tracer = tracing.Tracer()

        def alternate(index, op_base):
            """Untraced and traced passes take turns on the same inputs, so host
            drift hits both alike."""
            if index % 2 == 0:
                return one_pass(index // 2, op_base)
            if workload == "cli":  # the child interpreter binds its own spans
                return one_pass(index // 2, op_base, tracer)
            tracer.install(tracing.span_sites(fl, workloads))
            try:
                return one_pass(index // 2, op_base, tracer)
            finally:
                tracer.uninstall()

        passes = run_passes(alternate, seconds, 2, 1, keep=2)
        if len(passes) % 2:  # an odd tail would leave one kind a pass ahead
            passes.append(alternate(len(passes), sum(len(p.seconds) for p in passes)))
        untraced, traced = passes[0::2], passes[1::2]
        names = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace_overhead_frac"]
        metrics, missing = tracing.layer_metrics(tracer, len(traced), workload, names)
        # each traced pass against the untraced pass just before it
        metrics["trace_overhead_frac"] = statistics.median(
            t.pass_s / u.pass_s for u, t in zip(untraced, traced)
        ) - 1
        report.update(metrics=metrics, missing=missing, samples={"passes": len(traced)})
        report["untraced_pass_s"] = statistics.median(p.pass_s for p in untraced)
        report["traced_pass_s"] = statistics.median(p.pass_s for p in traced)
        first = traced[0].outcomes
        if spans_path is not None:
            write_spans(spans_path, tracer, workload, seed, len(traced))

    report["first_pass"] = first
    report["deterministic"] = len({(p.variant, p.values_hash) for p in passes}) == len({p.variant for p in passes})
    stored = stored_hashes(workload) if seed == DEFAULT_SEED and not tiny else None
    if stored is None:
        report["digest_ok"] = None
    else:
        report["digest_ok"] = len(stored) == len(first) and all(
            want is None or value_hash(o.values) == want
            for want, o in zip(stored, first)
        )
    report["problems"] = sorted(set().union(*(p.problems for p in passes)))
    report["attempted"] = sum(len(p.seconds) for p in passes)
    report["failed"] = sum(p.failed for p in passes)
    report["unexpected"] = sum(p.unexpected for p in passes)
    report["correct"] = (
        report["unexpected"] == 0 and report["deterministic"] and report["digest_ok"] is not False
    )
    report["ops_per_pass"] = len(passes[0].seconds)
    return report


def write_spans(path: Path, tracer, workload: str, seed: int, passes: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write(json.dumps({"workload": workload, "seed": seed, "traced_passes": passes,
                              "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")


def commit() -> str:
    """The commit of the checkout, when it is a git work tree."""
    if not (ROOT / ".git").exists():  # do not report an enclosing repository's commit
        return "unknown (no git metadata in the checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git work tree)"


def environment() -> str:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"python {platform.python_version()} ({platform.python_implementation()}), nproc {nproc}, "
        f"machine {platform.machine()}, commit {commit()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = [w["name"] for w in SPEC["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if not (SRC / "fanolg" / "__init__.py").is_file():
        print(f"error: no fanolg source tree at {SRC}", file=sys.stderr)
        return 2

    print(f"fanolg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment: {environment()}")
    spans_path = BENCH / "results" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans_path)

    listed = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    metrics = report["metrics"]
    print(f"ops per pass {report['ops_per_pass']}, attempted {report['attempted']}, "
          f"failed {report['failed']}, fail_frac {report['failed'] / report['attempted']:.6g}")
    print(f"{'metric':42} {'value':>16} {'unit':>8} {'samples':>8}")
    for m in listed:
        value = metrics.get(m["name"])
        shown = "MISSING" if value is None else f"{value:.6g}"
        samples = report["samples"].get(m["name"], report["samples"].get("passes", ""))
        print(f"{m['name']:42} {shown:>16} {m['unit']:>8} {samples!s:>8}")
    if not args.trace:
        wall = ", ".join(f"{name} {value:.6g}" for name, value in report["wall"].items())
        print(f"the same as wall time, unscaled: {wall}")
    if args.trace:
        print(f"tracing overhead: traced pass {report['traced_pass_s']:.4g} s, "
              f"untraced {report['untraced_pass_s']:.4g} s, "
              f"overhead {metrics['trace_overhead_frac']:+.2%}")
        for name in report["missing"]:
            print(f"MISSING span {name}: no calls recorded on {args.workload}")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    check = {None: "none stored for this seed", True: "match", False: "DIFFER"}[report["digest_ok"]]
    print(f"stored output digests: {check}; outputs identical across passes: {report['deterministic']}")
    for problem in report["problems"][:10]:
        print(f"failed op: {problem}")

    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
