"""Tests of the benchmark harness itself, on tiny configurations.

They check that the command reports exactly the metrics ``BENCHMARK.json``
names, that the operation accounting counts retrievals honestly, and that
span self times are derived correctly.  None of them runs a full workload.
"""

import json
import multiprocessing
from dataclasses import replace
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

import harness
import hostspeed
import scenarios
from repro.network.flow import FlowKind
from repro.workloads.traces import FlowRequest, Operation, Workload
from spans import NullTracer, Tracer

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MB = 1024.0 * 1024.0


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.WORKLOADS)


def _upload(t, kind=FlowKind.VIDEO):
    return FlowRequest(arrival_time_s=t, size_bytes=2 * MB, flow_kind=kind)


def _retrieve(t, ref):
    return FlowRequest(
        arrival_time_s=t,
        size_bytes=2 * MB,
        operation=Operation.READ,
        flow_kind=FlowKind.VIDEO,
        content_ref=ref,
    )


def test_accounting_fails_rewritten_retrievals():
    spec = scenarios.video_spec(seed=3, sim_time_s=1.0)
    # The first upload is stored as "video-0"; "video-9" does not exist, so
    # the runner re-issues that retrieval as an upload.
    workload = Workload(
        [_upload(0.0), _upload(0.1, FlowKind.CONTROL), _retrieve(5.0, "video-0"),
         _retrieve(5.0, "video-9")]
    )
    run = scenarios.run_instance(spec, "scda", NullTracer(), workload=workload)
    assert run["error"] == ""
    assert run["accounting"] == {
        "attempted": 4,
        "failed": 1,
        "retrievals": 2,
        "reads_served": 1,
        "reads_rewritten": 1,
    }


def test_accounting_fails_every_operation_of_a_raising_run():
    spec = scenarios.video_spec(seed=3, sim_time_s=1.0)
    # "video-0" is known but not stored yet when the retrieval arrives.
    workload = Workload([_upload(0.0), _upload(0.5), _retrieve(0.001, "video-0")])
    run = scenarios.run_instance(spec, "scda", NullTracer(), workload=workload)
    assert run["error"] == "PlacementError"
    assert run["accounting"]["attempted"] == 3
    assert run["accounting"]["failed"] == 3


def test_span_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [
        ["sim.run", 0.0, 10.0, -1, 0],
        ["network.update_rates", 1.0, 5.0, 0, 0],
        ["core.control_round", 2.0, 4.0, 1, 0],
        ["setup", 11.0, 12.0, -1, 0],
        ["network.update_rates", 11.5, 12.0, 3, 0],
    ]
    every = tracer.summary()
    assert every["sim.run"]["self_s"] == pytest.approx(6.0)
    assert every["network.update_rates"]["self_s"] == pytest.approx(2.5)
    assert every["network.update_rates"]["total_s"] == pytest.approx(4.5)
    in_run = tracer.summary(under="sim.run")
    assert in_run["network.update_rates"]["count"] == 1
    assert "setup" not in in_run
    layers = harness.span_layers(tracer, 0)
    assert layers["network.update_rates_self_s"] == pytest.approx(2.0)
    assert layers["network.update_rates_frac"] == pytest.approx(0.4)
    assert layers["core.control_round_frac"] == pytest.approx(0.2)
    assert layers["sim.residual_frac"] == pytest.approx(0.6)


TINY = {
    "video-scda": replace(scenarios.WORKLOADS["video-scda"], sim_time_s=0.5, instances=1),
    "fattree-churn": replace(
        scenarios.WORKLOADS["fattree-churn"], k=4, elephants=20, arrivals=3
    ),
}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORKLOADS", TINY)
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    monkeypatch.setattr(harness, "REFERENCE_PATH", tmp_path / "reference.json")
    return tmp_path


def _main(name, trace=0):
    return harness.main(
        ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_command_prints_every_metric(name, trace, tiny, capsys):
    code = _main(name, trace)
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == expected
    assert (tiny / f"{name}-seed5-trace{trace}.json").is_file()


def test_reference_mismatch_fails_the_run(tiny, capsys):
    assert harness.main(
        ["--workload", "fattree-churn", "--seed", "5", "--seconds", "0", "--record-reference"]
    ) == 0
    reference = json.loads((tiny / "reference.json").read_text())
    assert reference["fattree-churn"]["5"]["shorts_started"] == 3
    reference["fattree-churn"]["5"]["shorts_completed"] += 1
    (tiny / "reference.json").write_text(json.dumps(reference))
    capsys.readouterr()
    assert _main("fattree-churn") == 1
    captured = capsys.readouterr()
    assert "correctness gate FAILED" in captured.err
    assert '"correct"' not in captured.out


def test_sweep_repetition_checks_resume_and_serial(tmp_path):
    sweep = replace(
        scenarios.WORKLOADS["sweep-process"], specs=1, sim_time_s=0.2, setups=1,
        out_dir=tmp_path,
    )
    state = sweep.setup(seed=5)
    try:
        rep = sweep.repetition(state, NullTracer())
    finally:
        sweep.finish(state)
        scenarios.stop_children()
    assert not multiprocessing.active_children()
    assert resource_tracker._resource_tracker._fd is None
    assert rep.attempted == 2 and rep.failed == 0
    assert rep.digest["jobs"] == rep.digest["stored"] == 2
    assert state["pool_stats"]["spawned"] == 2
    assert not list(tmp_path.iterdir())


def test_run_instance_is_checked_against_run_scheme(monkeypatch):
    spec = scenarios.pareto_spec(seed=5, sim_time_s=0.3)
    scenarios.check_matches_run_scheme(spec, "rand-tcp")
    real = scenarios.run_instance

    def drifted(*args, **kwargs):
        run = real(*args, **kwargs)
        run["flows_started"] += 1
        return run

    monkeypatch.setattr(scenarios, "run_instance", drifted)
    with pytest.raises(scenarios.HarnessError, match="flows_started"):
        scenarios.check_matches_run_scheme(spec, "rand-tcp")


def test_timings_are_scaled_by_the_reference_loops_around_each_unit():
    # Two repetitions of two units each.  The host runs at nominal speed
    # throughout the first; in the second it slows to half speed after the
    # loop timed between the units.
    nominal = hostspeed.REF_NOMINAL_S
    assert hostspeed.speed_factors([nominal, nominal, 3 * nominal]) == pytest.approx([1.0, 0.5])
    reps = [
        scenarios.Rep(setup_s=[0.05, 0.05], run_s=[1.0, 1.0], sim_s=[4.0, 4.0], jobs=[1, 1],
                      job_wall_s=[1.05, 1.05], attempted=2, failed=0, digest={},
                      inner_loops=[nominal]),
        scenarios.Rep(setup_s=[0.05, 0.1], run_s=[1.0, 2.0], sim_s=[4.0, 4.0], jobs=[1, 1],
                      job_wall_s=[1.05, 2.1], attempted=2, failed=0, digest={},
                      inner_loops=[nominal]),
    ]
    outer = [nominal, nominal, 3 * nominal]
    factors = harness.unit_factors(scenarios.WORKLOADS["video-scda"], reps, outer)
    assert factors == [pytest.approx([1.0, 1.0]), pytest.approx([1.0, 0.5])]
    values = harness.end_to_end_metrics(reps, 50.0, {}, factors, 1.0)
    assert values["sim_s_per_wall_s"] == (pytest.approx(4.0), 2)
    assert values["jobs_per_s"] == (pytest.approx(2 / 2.1), 2)
    assert values["setup_s"] == (pytest.approx(0.1), 2)
    once = harness.end_to_end_metrics(reps, 50.0, {"setup_times": [0.4, 0.6, 0.5]}, factors, 2.0)
    assert once["setup_s"] == (pytest.approx(1.0), 3)
    # The process sweep is reported in unscaled host time.
    sweep = harness.unit_factors(scenarios.WORKLOADS["sweep-process"], reps, outer)
    assert sweep == [[1.0, 1.0], [1.0, 1.0]]
