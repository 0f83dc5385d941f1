"""One pass of the cli workload in a fresh interpreter.

    echo '{"seed": 0, "tiny": false, "variant": 0, "trace": false}' | python3 bench/cli_pass.py

A fresh interpreter starts the ``f_rec`` cache cold, as every user command
does.  Every invocation of the pass runs through ``fanolg.cli.main`` in
process, one after the other; then the peak RSS is read, and only then are the
outputs checked, so that checking adds nothing to the timings or the RSS.  The
result is one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import clock  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _exit_key(code) -> str:
    if code in (0, 1, 2):
        return str(code)
    return "exception" if isinstance(code, str) else "other"


def run_pass(fl, calls, tracer=None) -> dict:
    runs, timer = [], clock.Clock(interval_s=0.0)  # short ops: a burst after each; see clock.py
    if tracer is not None:
        tracer.install(tracing.span_sites(fl, workloads))
    try:
        for op, call in enumerate(calls):
            if tracer is not None:
                tracer.op = op
            start = timer.start()
            runs.append(workloads.run_cli_call(fl, call))
            timer.stop(start)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = []
    for call, (code, out, err), seconds, raw in zip(calls, runs, timer.scaled(), timer.raw):
        outcome = workloads.checked(workloads.cli_check, fl, call, code, out, err)
        ops.append({"seconds": seconds, "raw_seconds": raw, "values": outcome.values,
                    "problem": outcome.problem, "known": outcome.known})
        if tracer is not None:
            tracer.counts[f"cli.exit.{_exit_key(code)}"] += 1
            tracer.counts["cli.stdout_bytes"] += len(out.encode())
    result = {"ops": ops, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result["trace"] = tracer.export()
    return result


def main() -> int:
    spec = json.load(sys.stdin)
    fl = workloads.load_package()
    calls = workloads.cli_inputs(fl, spec["seed"], spec["tiny"], spec["variant"])
    result = run_pass(fl, calls, tracing.Tracer() if spec["trace"] else None)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
