"""Self-tests of the benchmark: every workload at tiny size, untraced and traced.

    python3 -m pytest bench -q
"""

import json
import re

import pytest

import cli_pass
import clock
import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
KNOWN_CRASH = list(workloads.KNOWN_CRASH)


@pytest.fixture(scope="module")
def reports():
    return {(name, trace): run.run(name, 0, 0, trace, tiny=True) for name in NAMES for trace in (False, True)}


def test_metric_names_use_only_the_allowed_characters(reports):
    listed = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(listed) == len(set(listed))
    for name in listed + [name for report in reports.values() for name in report["metrics"]]:
        assert METRIC_NAME.fullmatch(name), name


def test_every_listed_metric_is_reported(reports):
    for (name, trace), report in reports.items():
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert report["missing"] == [], (name, report["missing"])
        assert {m["name"] for m in listed} <= set(report["metrics"]), name
        if not trace:
            assert all(value > 0 for value in report["metrics"].values()), (name, report["metrics"])


def test_traced_and_untraced_runs_return_identical_outputs(reports):
    for name in NAMES:
        untraced = [o.values for o in reports[(name, False)]["first_pass"]]
        traced = [o.values for o in reports[(name, True)]["first_pass"]]
        assert untraced == traced, name


def test_only_the_known_crash_fails(reports):
    for (name, _), report in reports.items():
        assert report["correct"], (name, report["problems"])
        failing = [o.values for o in report["first_pass"] if o.problem]
        assert all(values[0] == KNOWN_CRASH for values in failing), (name, report["problems"])


def test_a_wrong_expected_value_raises_fail_frac(monkeypatch):
    monkeypatch.setattr(workloads, "surface_shift", lambda dim: 5)
    report = run.run("sweep", 0, 0, False, tiny=True)
    assert report["failed"] == report["attempted"] > 0
    assert not report["correct"]

    fl = workloads.load_package()
    calls = workloads.cli_inputs(fl, 0, True)
    before = sum(1 for op in cli_pass.run_pass(fl, calls)["ops"] if op["problem"])
    monkeypatch.setattr(workloads, "fg_expected", lambda d, s: (0, 0))
    ops = cli_pass.run_pass(fl, calls)["ops"]
    assert all(op["problem"] for call, op in zip(calls, ops) if call.kind == "fg")
    assert sum(1 for op in ops if op["problem"]) > before


def test_unparseable_output_is_a_wrong_value():
    fl = workloads.load_package()
    call = workloads.cli_inputs(fl, 0, True)[1]  # hodge --format json
    outcome = workloads.checked(workloads.cli_check, fl, call, 0, "not json", "")
    assert outcome.problem and not outcome.known


def test_a_crashing_kernel_makes_the_run_incorrect(monkeypatch):
    fl = workloads.load_package()

    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(fl.lg_count, "verify_main_theorem", crash)
    report = run.run("sweep", 0, 0, False, tiny=True)
    assert report["failed"] == report["attempted"] > 0
    assert not report["correct"]

    monkeypatch.setattr(fl.givental, "phi_series", crash)
    calls = workloads.cli_inputs(fl, 0, True)
    ops = cli_pass.run_pass(fl, calls)["ops"]
    periods = [op for call, op in zip(calls, ops) if call.kind == "periods"]
    assert periods and all(op["problem"] and not op["known"] for op in periods)


def test_a_changed_output_on_the_default_seed_differs_from_the_digest(monkeypatch):
    for name in ("SETUP_PROBES", "MIN_PASSES", "MIN_OPS"):  # one full-size pass
        monkeypatch.setattr(run, name, 1)
    report = run.run("periods", 0, 0, False)
    assert report["digest_ok"] and report["correct"]
    monkeypatch.setattr(run, "stored_hashes", lambda workload: ["0" * 12] + [None] * 4)
    report = run.run("periods", 0, 0, False)
    assert report["digest_ok"] is False and not report["correct"]


def test_a_span_without_calls_is_reported_missing(monkeypatch):
    sites = tracer.span_sites
    monkeypatch.setattr(
        tracer, "span_sites", lambda fl, bench: {**sites(fl, bench), "givental.phi_series": []}
    )
    report = run.run("periods", 0, 0, True, tiny=True)
    assert report["missing"] == ["givental.phi_series"]
    assert "givental.phi_series.calls" not in report["metrics"]
    assert "givental.coeff_bits" not in report["metrics"]


def test_inputs_follow_the_seed():
    fl = workloads.load_package()
    for name in NAMES:
        inputs = workloads.WORKLOADS[name].inputs
        assert inputs(fl, 7, True) == inputs(fl, 7, True), name
        assert inputs(fl, 7, True) != inputs(fl, 8, True), name
        assert len(inputs(fl, 7, True)) == len(inputs(fl, workloads.DEFAULT_SEED, True)), name
    assert workloads.cli_inputs(fl, 7, True, 1) != workloads.cli_inputs(fl, 7, True, 0)


def test_default_seed_gives_the_named_inputs():
    fl = workloads.load_package()
    assert len(workloads.sweep_inputs(fl, 0, False)) == 2030
    charts = workloads.traces_inputs(fl, 0, False)
    assert len(charts) == 1807 and (charts[-1].dbar, charts[-1].s) == ((8, 8, 8), 8)
    ops = workloads.periods_inputs(fl, 0, False)
    assert [[(ci.dim, ci.degrees, order) for ci, order in op] for op in ops] == [
        [(5, (3,), 12)], [(4, (5,), 5)], [(5, (2, 2), 12)], [(6, (3, 3), 4)],
        [(2, (3,), 3), (3, (3,), 6), (3, (2,), 9), (3, (4,), 3), (4, (2, 2), 9)],
    ]
    calls = workloads.cli_inputs(fl, 0, False)
    assert len(calls) == 27 and list(calls[-1].argv) == KNOWN_CRASH


def test_each_op_is_scaled_by_the_kernel_bursts_around_it(monkeypatch):
    kernel_times = iter([0.001, 0.002, 0.004])
    monkeypatch.setattr(clock, "burst", lambda: next(kernel_times))
    timer = clock.Clock(interval_s=0.0)  # a burst after every op
    for _ in range(2):
        timer.stop(timer.start())
    first, second = timer.raw
    assert timer.scaled() == [
        first * clock.REFERENCE_S / 0.0015,
        second * clock.REFERENCE_S / 0.003,
    ]
