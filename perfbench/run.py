#!/usr/bin/env python3
"""Benchmark of the batch, sharded and streaming TMerge engines.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload inline-b1-mot17 --seed 0 \\
        --seconds 10 --trace 0

``--workload all`` runs the three workloads in turn, each in its own
process.  With ``--trace 0`` the run reports the end-to-end metrics,
with telemetry off; with ``--trace 1`` it runs every episode untraced
and then traced, reports the per-layer metrics and writes the spans to
``perfbench/traces/<workload>-seed<N>.jsonl``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name → ``{"value", "unit"}``).

The program is imported from ``src/`` next to this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from statistics import mean

from harness import Spans, finite, median, peak_rss_mb, ratio, tail

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: End-to-end metrics and their units (README.md defines each).
END_TO_END = {
    "frames_per_wall_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_fps": "1/s",
    "rec": "ratio",
    "count_query_recall": "ratio",
    "cooccur_query_recall": "ratio",
    "emit_lag_p50_ms": "ms",
    "emit_lag_tail_ms": "ms",
}

#: Per-layer metrics and their units (README.md defines each).
PER_LAYER = {
    "synth.world_s": "s",
    "detect.wall_s": "s",
    "detect.detections": "count",
    "stream.source_wall_s": "s",
    "track.wall_s": "s",
    "track.tracks": "count",
    "track.fragments_per_gt": "ratio",
    "pairs.wall_s": "s",
    "pairs.candidates": "count",
    "pairs.polyonymous": "count",
    "tmerge.wall_s": "s",
    "tmerge.iterations": "count",
    "tmerge.thompson_draws": "count",
    "tmerge.wall_us_per_distance": "us",
    "tmerge.window_wall_s_max": "s",
    "ulb.passes": "count",
    "ulb.decided_share": "ratio",
    "reid.extractions": "count",
    "reid.distances": "count",
    "reid.batch_calls": "count",
    "reid.cache_hit_ratio": "ratio",
    "reid.sim_ms": "ms",
    "parallel.inline_wall_s": "s",
    "parallel.pool_wall_s": "s",
    "parallel.speedup": "ratio",
    "parallel.outside_shard_s": "s",
    "parallel.shipped_mb": "MB",
    "parallel.shard_imbalance": "ratio",
    "merge_tracks.wall_ms": "ms",
    "query.wall_ms": "ms",
    "stream.peak_queue_depth": "count",
    "stream.peak_open_windows": "count",
    "stream.frames_shed_late": "count",
    "stream.windows_degraded": "count",
    "stream.merge_sim_ms_p50": "ms",
    "checkpoint.saves": "count",
    "checkpoint.save_ms_p50": "ms",
    "checkpoint.kb_p50": "KB",
    "stream.resume_wall_s": "s",
    "stream.replayed_events": "count",
    "telemetry.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(spec, seed: int, seconds: float, trace: bool, spans=None):
    """Run the workload's episodes; repeat whole cycles while time allows.

    Returns ``(untraced, traced, problems)``.  The first cycle supplies
    every simulated-clock metric; each later cycle must reproduce its
    digests exactly.
    """
    import workloads

    plain, traced = workloads.EPISODES[spec.engine]
    # A discarded warm-up: first calls pay for lazy imports and caches.
    plain(
        replace(spec, frames=min(spec.frames, 600), episodes=1),
        workloads.episode_seeds(seed, 0),
    )

    untraced, traced_runs, problems = [], [], []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        cycle = []
        for index in range(spec.episodes):
            seeds = workloads.episode_seeds(seed, index)
            episode = plain(spec, seeds)
            cycle.append(episode)
            if trace:
                twin = traced(spec, seeds, spans)
                if twin.digest != episode.digest:
                    problems.append(f"episode {index}: traced run differs")
                traced_runs.append(twin)
        if untraced and [e.digest for e in cycle] != [
            e.digest for e in untraced[: spec.episodes]
        ]:
            problems.append("a repeated cycle did not reproduce the first")
        untraced.extend(cycle)
        cycle_s = time.perf_counter() - cycle_start
        if time.perf_counter() - start + cycle_s > seconds:
            break
    for episode in untraced + traced_runs:
        problems.extend(episode.problems)
    return untraced, traced_runs, problems


def end_to_end(spec, episodes) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one run, and notes for the reader."""
    first = episodes[: spec.episodes]
    lags = [lag for episode in first for lag in episode.lags_ms]
    lag_tail, tail_label = tail(lags)
    values = {
        "frames_per_wall_s": ratio(
            sum(e.frames for e in episodes), sum(e.wall_s for e in episodes)
        ),
        "setup_s": median(e.setup_s for e in episodes),
        "peak_rss_mb": peak_rss_mb(),
        "sim_fps": ratio(sum(e.frames for e in first), sum(e.sim_s for e in first)),
        "rec": ratio(sum(e.found for e in first), sum(e.polyonymous for e in first)),
        "count_query_recall": mean(e.count_recall for e in first),
        "cooccur_query_recall": mean(e.cooccur_recall for e in first),
        "emit_lag_p50_ms": median(lags),
        "emit_lag_tail_ms": lag_tail,
    }
    notes = [
        f"episodes: {len(episodes)} ({spec.episodes} per cycle, "
        f"{spec.frames} frames each)",
        f"emit_lag_tail_ms is the {tail_label} emissions",
    ]
    return values, notes


def per_layer(spec, untraced, traced, spans) -> dict:
    """The per-layer metrics of one traced run, summed over episodes."""
    layers = [episode.layers for episode in traced]

    def total(key):
        return sum(layer[key] for layer in layers)

    def counter(name):
        return sum(layer["counters"].get(name, 0.0) for layer in layers)

    def cost(name):
        return sum(layer["cost"][name] for layer in layers)

    def parallel(name):
        return [layer["parallel"].get(name, 0.0) for layer in layers]

    def stream(name):
        return [layer["stream"].get(name, 0.0) for layer in layers]

    window_s = [s for layer in layers for s in layer["window_s"]]
    merge_s = (
        spans.duration("run_windows") if spec.workers > 1 else sum(window_s)
    )
    distances = cost("distances")
    hits, misses = counter("cache.hits"), counter("cache.misses")
    return {
        "synth.world_s": spans.duration("synth"),
        "detect.wall_s": spans.duration("detect"),
        "detect.detections": total("detections"),
        "stream.source_wall_s": spans.duration("stream.source"),
        "track.wall_s": spans.duration("track"),
        "track.tracks": total("tracks"),
        "track.fragments_per_gt": median(l["fragments_per_gt"] for l in layers),
        "pairs.wall_s": spans.duration("pairs"),
        "pairs.candidates": total("candidates"),
        "pairs.polyonymous": total("polyonymous"),
        "tmerge.wall_s": merge_s,
        "tmerge.iterations": counter("tmerge.iterations"),
        "tmerge.thompson_draws": counter("tmerge.thompson_draws"),
        "tmerge.wall_us_per_distance": 1e6 * ratio(sum(window_s), distances),
        "tmerge.window_wall_s_max": max(window_s, default=0.0),
        "ulb.passes": counter("ulb.passes"),
        "ulb.decided_share": ratio(
            counter("ulb.accepted") + counter("ulb.rejected"),
            total("candidates"),
        ),
        "reid.extractions": cost("extractions") + cost("batched_extractions"),
        "reid.distances": distances,
        "reid.batch_calls": cost("batch_calls"),
        "reid.cache_hit_ratio": ratio(hits, hits + misses),
        "reid.sim_ms": 1000.0 * cost("seconds"),
        "parallel.inline_wall_s": sum(parallel("inline_wall_s")),
        "parallel.pool_wall_s": sum(parallel("pool_wall_s")),
        "parallel.speedup": ratio(
            sum(parallel("inline_wall_s")), sum(parallel("pool_wall_s"))
        ),
        "parallel.outside_shard_s": sum(parallel("outside_shard_s")),
        "parallel.shipped_mb": median(parallel("shipped_mb")),
        "parallel.shard_imbalance": median(parallel("shard_imbalance")),
        "merge_tracks.wall_ms": 1000.0 * spans.duration("merge_tracks"),
        "query.wall_ms": 1000.0 * spans.duration("query"),
        "stream.peak_queue_depth": max(stream("peak_queue_depth")),
        "stream.peak_open_windows": max(stream("peak_open_windows")),
        "stream.frames_shed_late": sum(stream("frames_shed_late")),
        "stream.windows_degraded": sum(e.degraded for e in traced),
        "stream.merge_sim_ms_p50": median(
            ms for e in traced for ms in e.merge_sim_ms
        ),
        "checkpoint.saves": sum(stream("checkpoint_saves")),
        "checkpoint.save_ms_p50": 1000.0 * median(
            s for layer in layers for s in layer["stream"].get("checkpoint_save_s", [])
        ),
        "checkpoint.kb_p50": median(
            kb for layer in layers for kb in layer["stream"].get("checkpoint_kb", [])
        ),
        "stream.resume_wall_s": sum(stream("resume_wall_s")),
        "stream.replayed_events": sum(stream("replayed_events")),
        "telemetry.overhead_ratio": ratio(
            total("workload_s"),
            sum(e.wall_s for e in untraced[: len(traced)]),
        ),
    }


def layer_table(spans) -> list[str]:
    """Self time and share of the traced workload wall, per span name."""
    own = spans.self_times()
    base = spans.duration("workload") + spans.duration("synth")
    lines = [f"{'span':<20}{'calls':>8}{'self s':>10}{'share':>8}"]
    for name, seconds in sorted(own.items(), key=lambda item: -item[1]):
        calls = sum(1 for record in spans.records if record[0] == name)
        share = seconds / base if base else 0.0
        lines.append(f"{name:<20}{calls:>8}{seconds:>10.3f}{share:>8.1%}")
    return lines


def run_workload(spec, seed: int, seconds: float, trace: bool) -> dict:
    """One workload run: the result object printed as the last line."""
    spans = Spans() if trace else None
    untraced, traced, problems = measure(spec, seed, seconds, trace, spans)
    if trace:
        values = per_layer(spec, untraced, traced, spans)
        units = PER_LAYER
        notes = layer_table(spans)
        spans.write_jsonl(
            os.path.join(HERE, "traces", f"{spec.name}-seed{seed}.jsonl")
        )
    else:
        values, notes = end_to_end(spec, untraced)
        units = END_TO_END
    problems += [f"{name} is not finite" for name, v in values.items() if not finite(v)]
    episodes = untraced + traced
    attempted = sum(e.windows + e.events for e in episodes)
    failed = sum(e.degraded + e.shed for e in episodes)
    for line in notes + [f"problem: {p}" for p in problems]:
        print(f"[{spec.name}] {line}")
    for name, unit in units.items():
        print(f"[{spec.name}] {name} = {values[name]:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def run_all(args) -> dict:
    """Every workload in its own process, so each has its own peak RSS."""
    import workloads

    results = {}
    for name in workloads.SPECS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name]
            + ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            + ["--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        *lines, last = completed.stdout.splitlines()
        print("\n".join(lines))
        results[name] = json.loads(last)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's source is missing ({SRC})", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in workloads.SPECS:
        result = run_workload(
            workloads.SPECS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
        )
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
