"""Tests of the benchmark itself, on a tiny scale of each workload.

Run from the root of the repository::

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from harness import Spans  # noqa: E402
from repro.resilience import CheckpointStore  # noqa: E402

NAMES = sorted(workloads.SPECS)
SIMULATED = (
    "sim_fps",
    "rec",
    "count_query_recall",
    "cooccur_query_recall",
    "emit_lag_p50_ms",
    "emit_lag_tail_ms",
)


def tiny(name: str):
    """The named workload at a scale that runs in seconds."""
    return replace(workloads.SPECS[name], frames=1200, episodes=2)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_are_emitted_with_units(name):
    result = run.run_workload(tiny(name), seed=0, seconds=0.0, trace=False)
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for metric, unit in run.END_TO_END.items():
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_simulated_metrics_repeat_exactly_for_a_seed(name):
    spec = tiny(name)
    first, _, _ = run.measure(spec, 7, 0.0, False)
    again, _, _ = run.measure(spec, 7, 0.0, False)
    other, _, _ = run.measure(spec, 8, 0.0, False)
    values = [run.end_to_end(spec, runs)[0] for runs in (first, again, other)]
    for metric in SIMULATED:
        assert values[0][metric] == values[1][metric], metric
    assert [e.digest for e in first] != [e.digest for e in other]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_layer_metric(name):
    spec = tiny(name)
    spans = Spans()
    untraced, traced, problems = run.measure(spec, 0, 0.0, True, spans)
    assert not problems
    values = run.per_layer(spec, untraced, traced, spans)
    assert set(values) == set(run.PER_LAYER)
    assert values["telemetry.overhead_ratio"] > 0
    assert values["tmerge.iterations"] > 0
    assert values["reid.extractions"] > 0
    if spec.engine == "stream":
        assert values["checkpoint.saves"] > 0
        assert values["stream.replayed_events"] > 0
    if spec.workers > 1:
        assert values["parallel.shipped_mb"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_self_times_fit_in_the_workload_wall(name):
    spans = Spans()
    run.measure(tiny(name), 0, 0.0, True, spans)
    own = [end - start for _, _, start, end in spans.records]
    inside = set()
    for index, (span_name, parent, start, end) in enumerate(spans.records):
        if parent is not None:
            own[parent] -= end - start
        if span_name == "workload" or parent in inside:
            inside.add(index)
    layer_self = [own[index] for index in inside]
    assert min(layer_self) >= -1e-9
    assert sum(layer_self) <= spans.duration("workload") + 1e-9
    names = {spans.records[index][0] for index in inside}
    assert {"detect", "track", "merge_tracks", "query"} <= names


def test_lag_guard_catches_a_service_interval_that_differs_from_the_source():
    spec = tiny("stream-kitti-disorder")
    seeds = workloads.episode_seeds(0, 0)
    source, _ = workloads.stream_setup(spec, seeds, CheckpointStore())
    slower = replace(spec, rate_fps=spec.rate_fps / 2)
    result = workloads.stream_service(slower, seeds, CheckpointStore()).run(source)
    lags = workloads.stream_emit_lags_ms(
        result.emissions, source.frame_interval_ms, spec.frames
    )
    problems = workloads.stream_checks(
        spec, result, result, result.emissions, lags
    )
    assert any("negative emit lag" in problem for problem in problems)


def test_unknown_workload_is_refused(capsys):
    assert run.main(["--workload", "nope", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("traces", "__pycache__"),
    )
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        command
        + ["--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
