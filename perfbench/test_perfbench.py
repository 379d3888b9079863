"""Tests of the benchmark itself: the output gate, the spans and the counts.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PARAMS = workloads.draw_params(7)
GROWTH_CSV = f"map_{PARAMS['map']}_growth.csv"


def map_session():
    return workloads.WarmSession([workloads.map_run(PARAMS)])


def tamper(loop, change):
    """Make every later request of loop apply change to its output directory."""
    original = loop.workload.request

    def request(out, tracer):
        result = original(out, tracer)
        change(out)
        return result

    loop.workload.request = request


def test_gate_accepts_repeated_requests(tmp_path):
    loop = run.Loop(map_session(), tmp_path)
    assert loop.step()[1] == []
    assert loop.step()[1] == []


def test_gate_rejects_csv_with_one_digit_changed(tmp_path):
    loop = run.Loop(map_session(), tmp_path)
    assert loop.step()[1] == []

    def change_last_digit_of_first_row(out):
        path = out / "map" / GROWTH_CSV
        header, row, rest = path.read_text().split("\n", 2)
        digit = str((int(row[-1]) + 1) % 10)
        path.write_text("\n".join((header, row[:-1] + digit, rest)))

    tamper(loop, change_last_digit_of_first_row)
    assert loop.step()[1] == ["outputs differ from the first request's"]


def test_gate_rejects_missing_file(tmp_path):
    loop = run.Loop(map_session(), tmp_path)
    tamper(loop, lambda out: (out / "map" / GROWTH_CSV).unlink())
    problems = loop.step()[1]
    assert len(problems) == 1 and "missing" in problems[0] and GROWTH_CSV in problems[0]


def test_gate_rejects_nonzero_exit(tmp_path):
    zero_step = workloads.frenet_run("frenet", 1.0, 1.0, 1.0, 0.0)
    phase = run.Loop(workloads.ColdSession([zero_step], ROOT), tmp_path).run(0.0)
    assert (phase.attempted, phase.failed, phase.latencies) == (1, 1, [])


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 3.0, 0, 0],
        ["c", 5.0, 6.0, 0, 0],
        ["d", 2.0, 2.5, 1, 0],
    ]
    assert tracing.self_times(spans) == [7.0, 1.5, 1.0, 0.5]


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail([float(x) for x in range(30, 0, -1)])
    assert value == 20.0 and percentile == pytest.approx(100.0 * 19 / 29)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


def traced(workload, work):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = run.Loop(workload, work).run(0.0, tracer)
    finally:
        tracer.uninstall()
    return tracer, phase


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    short_frenet = workloads.frenet_run("frenet", 1.0, 1.0, 1.0, 0.01)
    warm = workloads.WarmSession([workloads.map_run(PARAMS), workloads.tube_run(PARAMS),
                                  workloads.filament_run(PARAMS), short_frenet])
    cold = workloads.ColdSession([short_frenet], ROOT)
    return {
        "warm": traced(warm, tmp_path_factory.mktemp("warm")),
        "cold": traced(cold, tmp_path_factory.mktemp("cold")),
    }


def test_traced_requests_pass_the_gate(traces):
    for tracer, phase in traces.values():
        assert (phase.attempted, phase.failed) == (1, 0)


def test_every_self_time_is_nonnegative(traces):
    for tracer, _phase in traces.values():
        assert tracer.spans
        assert min(tracing.self_times(tracer.spans)) >= 0.0


def test_every_child_span_lies_inside_its_parent(traces):
    for tracer, _phase in traces.values():
        for _name, start, end, parent, request in tracer.spans:
            assert start <= end
            if parent >= 0:
                _p_name, p_start, p_end, _p_parent, p_request = tracer.spans[parent]
                assert p_start <= start and end <= p_end
                assert p_request == request


def test_child_process_spans_nest_under_the_process_span(traces):
    tracer, _phase = traces["cold"]
    names = {span[0]: span for span in tracer.spans}
    assert tracer.spans[names["import.dynamokit"][3]][0] == "process.frenet"
    assert tracer.spans[names["frenet.integrate_frame"][3]][0] == "cli.main"


def test_uninstall_restores_the_layer_functions():
    from dynamokit import cli, finitediff, reports, tube

    before = (cli.main, cli.write_csv, tube.derivative_uniform)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.write_csv is not reports.write_csv
    assert tube.derivative_uniform is not finitediff.derivative_uniform
    tracer.uninstall()
    assert (cli.main, cli.write_csv, tube.derivative_uniform) == before


def test_traced_run_reports_every_per_layer_metric(traces):
    for tracer, phase in traces.values():
        metrics, record = run.layer_metrics(tracer, phase, phase)
        expected = set(run.per_layer_units()) - {"import.sympy_s", "import.numpy_s"}
        assert set(metrics) == expected
        assert record["drift"] == []
    tracer, _phase = traces["warm"]
    metrics, record = run.layer_metrics(tracer, _phase, _phase)
    assert record["counts"]["frenet.steps"] == 100
    assert record["counts"]["maps.growth_rate.calls"] == 50
    assert metrics["maps.useful_ratio"] == pytest.approx(50 / (2 * sum(range(1, 51))))


def test_count_that_differs_from_the_previous_run_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    args = argparse.Namespace(workload="cli-cold", seed=3)
    env = {"source_sha256": "abc"}
    tracer = tracing.Tracer()
    assert run.write_trace(args, env, PARAMS, tracer, {}, {"frenet.steps": 100}) == []
    assert run.write_trace(args, env, PARAMS, tracer, {}, {"frenet.steps": 100}) == []
    drift = run.write_trace(args, env, PARAMS, tracer, {}, {"frenet.steps": 101})
    assert len(drift) == 1 and "frenet.steps" in drift[0]
    other = {"source_sha256": "def"}
    assert run.write_trace(args, other, PARAMS, tracer, {}, {"frenet.steps": 102}) == []


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_printing_a_result_where_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
