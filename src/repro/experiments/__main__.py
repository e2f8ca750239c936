"""Command-line driver: regenerate any paper figure from the terminal.

Usage::

    python -m repro.experiments fig3              # REC-K curves
    python -m repro.experiments fig11 --videos 3  # polyonymous rates
    python -m repro.experiments faults            # chaos matrix
    python -m repro.experiments telemetry --synthetic   # per-window metrics
    python -m repro.experiments telemetry --workers 4   # sharded ingestion
    python -m repro.experiments parallel --workers 4    # speedup report
    python -m repro.experiments serve --frames 600      # streaming service
    python -m repro.experiments serve --kill-after 2    # kill + resume demo
    python -m repro.experiments serve --ledger-out ledger.jsonl \\
        --metrics-out metrics.txt                       # observed session
    python -m repro.experiments explain --ledger ledger.jsonl --pair 3 7
    python -m repro.experiments monitor --frames 600    # live dashboard
    python -m repro.experiments gate --current benchmarks/results/bench_summary.json
    python -m repro.experiments perf --smoke      # batched hot-path check
    python -m repro.experiments scenarios --smoke # regime-sweep matrix
    python -m repro.experiments scenarios --smoke --gate \\
        --matrix-out /tmp/matrix.json             # CI scenario gate
    python -m repro.experiments list              # show available figures

Each figure runs at the same laptop scale as the benchmark suite and
prints the reproduced rows.  ``telemetry`` runs one fully-instrumented
ingestion and dumps the per-window counters, spans and hotspots;
``gate`` compares a ``bench_summary.json`` against the committed
baseline and exits non-zero on a regression (the CI bench gate).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments import figures
from repro.experiments.ascii_plot import rec_fps_plot
from repro.experiments.prep import prepare_dataset
from repro.experiments.reporting import format_table

_SCALES = {
    "mot17": dict(n_frames=700),
    "kitti": dict(n_frames=600),
    "pathtrack": dict(n_frames=1400),
}


def _datasets(n_videos: int):
    return {
        name: prepare_dataset(name, n_videos, seed=0, **scale)
        for name, scale in _SCALES.items()
    }


def _mot17(n_videos: int):
    return prepare_dataset(n_videos=n_videos, preset="mot17", seed=0,
                           n_frames=700)


def run_fig3(args) -> str:
    """Render the Figure 3 (REC@K) table."""
    curves = figures.fig3_rec_k(_datasets(args.videos))
    rows = [
        [dataset, k, rec]
        for dataset, points in curves.items()
        for k, rec in points
    ]
    return format_table(["dataset", "K", "REC"], rows, "Figure 3 — REC-K")


def run_fig4(args) -> str:
    """Render the Figure 4 (runtime scaling) table."""
    rows = figures.fig4_runtime_scaling()
    return format_table(
        ["frames", "pairs", "BL seconds"],
        [list(r) for r in rows],
        "Figure 4 — BL scaling",
    )


def run_fig5(args) -> str:
    """Render the Figure 5 (REC vs FPS) table."""
    results = figures.fig5_rec_fps(_datasets(args.videos))
    rows = [
        [dataset, method, p.parameter, p.rec, p.fps]
        for dataset, methods in results.items()
        for method, points in methods.items()
        for p in points
    ]
    table = format_table(
        ["dataset", "method", "param", "REC", "FPS"], rows,
        "Figure 5 — REC-FPS",
    )
    plots = "\n\n".join(
        rec_fps_plot(methods, title=f"Figure 5 — {dataset}")
        for dataset, methods in results.items()
    )
    return f"{table}\n\n{plots}"


def run_fig6(args) -> str:
    """Render the Figure 6 (batched variants) table."""
    results = figures.fig6_batched(_mot17(args.videos))
    rows = [
        [method, p.parameter, p.rec, p.fps]
        for method, points in results.items()
        for p in points
    ]
    table = format_table(
        ["method", "param", "REC", "FPS"], rows, "Figure 6 — batched"
    )
    plot = rec_fps_plot(results, title="Figure 6 — batched (MOT-17-like)")
    return f"{table}\n\n{plot}"


def run_fig7(args) -> str:
    """Render the Figure 7 (tau_max sweep) table."""
    rows = figures.fig7_tau_sweep(_mot17(args.videos))
    return format_table(
        ["tau_max", "seconds", "REC"],
        [list(r) for r in rows],
        "Figure 7 — TMerge-B vs tau_max",
    )


def run_fig8(args) -> str:
    """Render the Figure 8 (ablation) table."""
    results = figures.fig8_ablation(_mot17(args.videos))
    rows = [
        [variant, p.parameter, p.rec, p.fps]
        for variant, points in results.items()
        for p in points
    ]
    return format_table(
        ["variant", "tau_max", "REC", "FPS"], rows, "Figure 8 — ablation"
    )


def run_fig9(args) -> str:
    """Render the Figure 9 (window length) table."""
    rows = figures.fig9_window_length(n_videos=args.videos, n_frames=1600)
    return format_table(
        ["L", "REC (BL)", "REC (TMerge)"],
        [list(r) for r in rows],
        "Figure 9 — window length",
    )


def run_fig10(args) -> str:
    """Render the Figure 10 (thr_S sweep) table."""
    results = figures.fig10_thr_s(_mot17(args.videos))
    rows = [
        [label, p.parameter, p.rec, p.fps]
        for label, points in results.items()
        for p in points
    ]
    return format_table(
        ["thr_S", "tau_max", "REC", "FPS"], rows, "Figure 10 — thr_S"
    )


def run_fig11(args) -> str:
    """Render the Figure 11 (polyonymous rate) table."""
    rows = figures.fig11_polyonymous_rate(n_videos=args.videos)
    return format_table(
        ["tracker", "rate w/o", "rate w/"],
        [list(r) for r in rows],
        "Figure 11 — polyonymous rates",
    )


def run_fig12(args) -> str:
    """Render the Figure 12 (identity metrics) table."""
    rows = figures.fig12_identity_metrics(n_videos=args.videos)
    return format_table(
        ["metric", "w/o TMerge", "w/ TMerge"],
        [list(r) for r in rows],
        "Figure 12 — identity metrics",
    )


def run_fig13(args) -> str:
    """Render the Figure 13 (query recall) table."""
    rows = figures.fig13_query_recall(n_videos=args.videos)
    return format_table(
        ["query", "w/o TMerge", "w/ TMerge"],
        [list(r) for r in rows],
        "Figure 13 — query recall",
    )


def run_telemetry(args) -> str:
    """Run one instrumented ingestion; render the observability report.

    Everything in this repo is synthetic, so ``--synthetic`` is accepted
    for explicitness (and CI scripts) but is also the only mode.
    """
    from repro.core.pipeline import IngestionPipeline
    from repro.core.tmerge import TMerge
    from repro.synth.datasets import preset_by_name
    from repro.synth.world import simulate_world
    from repro.telemetry import Telemetry
    from repro.track.tracktor import TracktorTracker

    world = simulate_world(
        preset_by_name("mot17").config, args.frames, seed=0
    )
    telemetry = Telemetry()
    pipeline = IngestionPipeline(
        tracker=TracktorTracker(),
        merger=TMerge(k=0.05, tau_max=400, batch_size=10, seed=3),
        window_length=args.window_length,
        telemetry=telemetry,
        workers=args.workers or 1,
        parallel_backend=args.parallel_backend,
    )
    result = pipeline.run(world)

    rows = []
    for c, metrics in enumerate(result.window_metrics):
        pruned = metrics.get("ulb.accepted", 0.0) + metrics.get(
            "ulb.rejected", 0.0
        )
        rows.append(
            [
                c,
                len(result.window_pairs[c]),
                int(metrics.get("reid.invocations", 0.0)),
                int(metrics.get("cache.hits", 0.0)),
                int(pruned),
                round(metrics.get("cost.simulated_ms", 0.0), 1),
            ]
        )
    table = format_table(
        [
            "window",
            "pairs",
            "reid invocations",
            "cache hits",
            "ulb pruned",
            "simulated ms",
        ],
        rows,
        "Telemetry — per-window counters",
    )
    spans = telemetry.tracer.spans
    footer = (
        f"spans recorded: {len(spans)} "
        f"(export with Tracer.export_jsonl; schema in DESIGN.md §8)"
    )
    return "\n\n".join([table, telemetry.report(), footer])


def run_parallel(args) -> str:
    """Time the window-sharded engine against its serial execution.

    Runs the same instrumented ingestion once with ``workers=1`` and
    once with the requested worker count, verifies the results are
    bit-identical (the engine's core guarantee), and reports wall-clock
    speedup.  Wall time here is honest measurement, not simulation —
    speedup depends on the machine's core count.  Next to it, each
    shard's pickled task and outcome bytes — what crosses the pool seam,
    independent of the machine — from one more inline pass over the
    same shard tasks.
    """
    import pickle
    import time

    from repro.core.pipeline import IngestionPipeline
    from repro.core.tmerge import TMerge
    from repro.parallel import execute_shard, shard_tasks
    from repro.synth.datasets import preset_by_name
    from repro.synth.world import simulate_world
    from repro.track.tracktor import TracktorTracker

    world = simulate_world(
        preset_by_name("mot17").config, args.frames, seed=0
    )
    n_workers = args.workers or 4

    def pipeline_for(workers: int) -> IngestionPipeline:
        return IngestionPipeline(
            tracker=TracktorTracker(),
            merger=TMerge(k=0.05, tau_max=400, batch_size=10, seed=3),
            window_length=args.window_length,
            workers=workers,
            parallel_backend=args.parallel_backend,
        )

    def measure(workers: int):
        pipeline = pipeline_for(workers)
        start = time.perf_counter()
        result = pipeline.run(world)
        return time.perf_counter() - start, result

    def fingerprint(result):
        return (
            [tuple(sorted(r.candidate_keys)) for r in result.window_results],
            [tuple(sorted(r.scores.items())) for r in result.window_results],
            [r.degraded for r in result.window_results],
            result.cost.state_dict(),
            dict(result.id_map),
        )

    serial_s, serial = measure(1)
    parallel_s, parallel = measure(n_workers)
    if fingerprint(serial) != fingerprint(parallel):
        raise AssertionError(
            "parallel run diverged from workers=1 — determinism bug"
        )
    rows = [
        [1, round(serial_s, 3), 1.0],
        [
            n_workers,
            round(parallel_s, 3),
            round(serial_s / parallel_s, 2) if parallel_s > 0 else float("inf"),
        ],
    ]
    table = format_table(
        ["workers", "wall seconds", "speedup"],
        rows,
        f"Parallel engine — {args.parallel_backend} backend, "
        f"{len(serial.windows)} windows, results bit-identical",
    )

    pipeline = pipeline_for(n_workers)
    # The inline run left its sampling state on these pairs; a pool run
    # ships them fresh.
    for pairs in serial.window_pairs:
        for pair in pairs:
            pair.reset_sampling()
    _, tasks = shard_tasks(
        world=world,
        window_pairs=serial.window_pairs,
        merger=pipeline.merger,
        cost_params=pipeline.cost_params,
        reid_seed=pipeline.reid_seed,
        n_workers=n_workers,
    )
    seam_rows = [
        [
            task.shard_id,
            len(task.items),
            len(pickle.dumps(task)),
            len(pickle.dumps(execute_shard(task))),
        ]
        for task in tasks
    ]
    seam = format_table(
        ["shard", "windows", "task bytes", "outcome bytes"],
        seam_rows,
        "Pool seam — pickled bytes per shard",
    )
    footer = (
        f"windows: {len(serial.windows)}, "
        f"candidates: {len(serial.selected_pairs)}, "
        f"simulated merge seconds: {serial.total_simulated_seconds:.1f}"
    )
    return f"{table}\n\n{seam}\n\n{footer}"


def run_serve(args) -> str:
    """Drive the streaming ingestion service over a synthetic feed.

    Builds a seeded event feed (bounded arrival disorder, optional fault
    profile), runs the watermark-driven service over it, and reports the
    per-window emissions plus the service counters.  With ``--kill-after
    N`` the service is stopped dead right after its N-th window emission
    (the simulated SIGKILL at a window boundary), rebuilt from its
    checkpoint and resumed; the report then covers both runs and
    verifies that the stitched emissions match an uninterrupted
    reference bit-for-bit — the durable-restart guarantee, demonstrated
    live.
    """
    from repro.core.tmerge import TMerge
    from repro.faults import fault_profile
    from repro.provenance import DecisionLedger
    from repro.resilience import CheckpointStore
    from repro.streaming import (
        BackpressurePolicy,
        StreamingIngestionService,
        SyntheticFeedSource,
    )
    from repro.synth.datasets import preset_by_name
    from repro.synth.world import simulate_world
    from repro.telemetry import Telemetry, render_openmetrics
    from repro.track.tracktor import TracktorTracker

    world = simulate_world(
        preset_by_name("mot17").config, args.frames, seed=0
    )
    profile = (
        fault_profile(args.profile, seed=args.fault_seed)
        if args.profile
        else None
    )
    source = SyntheticFeedSource(
        world,
        disorder_ms=args.disorder_ms,
        disorder_seed=3,
        fault_profile=profile,
    )
    policy = BackpressurePolicy(
        mode=args.policy,
        capacity=args.queue_capacity,
        latency_slo_ms=args.latency_slo,
    )
    ledger = DecisionLedger() if args.ledger_out else None
    telemetry = Telemetry() if args.metrics_out else None

    def service(
        store: CheckpointStore, observed: bool = True
    ) -> StreamingIngestionService:
        return StreamingIngestionService(
            TracktorTracker(),
            TMerge(k=0.05, tau_max=400, batch_size=10, seed=3),
            window_length=args.window_length,
            allowed_lateness=args.lateness,
            max_open_windows=args.max_open_windows,
            policy=policy,
            workers=args.workers or 1,
            parallel_backend=args.parallel_backend,
            fault_profile=profile,
            store=store,
            telemetry=telemetry if observed else None,
            ledger=ledger if observed else None,
        )

    notes = []
    if args.kill_after is not None:
        # The uninterrupted reference stays unobserved: the exported
        # ledger/metrics must describe the actual (killed + resumed)
        # session, not a doubled recording.
        reference = service(CheckpointStore(), observed=False).run(source)
        store = CheckpointStore()
        first = service(store).run(
            source, stop_after_windows=args.kill_after
        )
        result = service(store).run(source)
        stitched = first.fingerprints() + result.fingerprints()
        if stitched != reference.fingerprints():
            raise AssertionError(
                "resumed run diverged from uninterrupted — restart bug"
            )
        emissions = first.emissions + result.emissions
        counters = result.counters
        peak = max(first.peak_open_windows, result.peak_open_windows)
        notes.append(
            f"killed after {len(first.emissions)} windows at offset "
            f"{first.position}, resumed from checkpoint: "
            f"{len(result.emissions)} more windows, stitched emissions "
            "bit-identical to uninterrupted run"
        )
    else:
        result = service(CheckpointStore()).run(source)
        emissions = result.emissions
        counters = result.counters
        peak = result.peak_open_windows
    rows = [
        [
            e.index,
            f"[{e.window.start}:{e.window.end}]",
            e.n_tracks,
            e.result.n_pairs,
            len(e.result.candidates),
            "yes" if e.result.degraded else "",
            round(e.lag_ms, 1),
        ]
        for e in emissions
    ]
    table = format_table(
        ["window", "span", "tracks", "pairs", "candidates", "degraded",
         "lag ms"],
        rows,
        f"Streaming service — policy {policy.mode}, "
        f"lateness {args.lateness}, "
        f"profile {args.profile or 'none'}",
    )
    counter_text = ", ".join(
        f"{name.removeprefix('stream.')}={value:g}"
        for name, value in sorted(counters.items())
    )
    footer = (
        f"peak open windows: {peak} (bound {args.max_open_windows}); "
        f"{counter_text}"
    )
    if ledger is not None:
        ledger.export_jsonl(args.ledger_out)
        notes.append(
            f"decision ledger: {len(ledger)} events -> {args.ledger_out}"
        )
    if telemetry is not None:
        Path(args.metrics_out).write_text(
            render_openmetrics(telemetry.metrics)
        )
        notes.append(f"OpenMetrics snapshot -> {args.metrics_out}")
    return "\n".join([table, "", footer] + notes)


def run_explain(args) -> int:
    """Reconstruct one pair's decision chain from a ledger export.

    Reads a JSONL ledger (``serve --ledger-out`` or
    :meth:`~repro.provenance.DecisionLedger.export_jsonl`), finds the
    requested track pair and prints every recorded decision that touched
    it — Thompson draws with posterior before/after, ULB accept/reject
    verdicts with the Hoeffding radii in force, degradations, faults and
    the final selection — ending in the pair's verdict.
    """
    from repro.provenance import (
        explain_pair,
        load_events_jsonl,
        windows_containing,
    )

    events = load_events_jsonl(args.ledger)
    pair = (args.pair[0], args.pair[1])
    label = f"{pair[0]}-{pair[1]}"
    try:
        chain = explain_pair(events, pair, window=args.window)
    except KeyError:
        print(f"pair {label} not found in {args.ledger}", file=sys.stderr)
        return 1
    except ValueError:
        windows = windows_containing(events, pair)
        print(
            f"pair {label} appears in windows {windows}; "
            "disambiguate with --window",
            file=sys.stderr,
        )
        return 1
    print(chain.render())
    return 0


def run_monitor(args) -> int:
    """Live-monitor a streaming session, one frame per window emission.

    Runs the same synthetic feed as ``serve`` but drives the service
    through checkpoint/resume cycles — one per window — rendering a
    dashboard frame after each emission: watermark and queue gauges,
    merge-latency percentiles, the window's merge decisions from the
    ledger, and the lifetime counters.  What it shows is exactly the
    state a crashed-and-restarted service would rebuild.
    """
    from repro.core.tmerge import TMerge
    from repro.experiments.monitor import monitor_steps
    from repro.faults import fault_profile
    from repro.provenance import DecisionLedger
    from repro.resilience import CheckpointStore
    from repro.streaming import (
        BackpressurePolicy,
        StreamingIngestionService,
        SyntheticFeedSource,
    )
    from repro.synth.datasets import preset_by_name
    from repro.synth.world import simulate_world
    from repro.telemetry import Telemetry
    from repro.track.tracktor import TracktorTracker

    world = simulate_world(
        preset_by_name("mot17").config, args.frames, seed=0
    )
    profile = (
        fault_profile(args.profile, seed=args.fault_seed)
        if args.profile
        else None
    )
    source = SyntheticFeedSource(
        world,
        disorder_ms=args.disorder_ms,
        disorder_seed=3,
        fault_profile=profile,
    )
    policy = BackpressurePolicy(
        mode=args.policy,
        capacity=args.queue_capacity,
        latency_slo_ms=args.latency_slo,
    )
    store = CheckpointStore()
    telemetry = Telemetry()
    ledger = DecisionLedger()

    def make_service() -> StreamingIngestionService:
        return StreamingIngestionService(
            TracktorTracker(),
            TMerge(k=0.05, tau_max=400, batch_size=10, seed=3),
            window_length=args.window_length,
            allowed_lateness=args.lateness,
            max_open_windows=args.max_open_windows,
            policy=policy,
            workers=args.workers or 1,
            parallel_backend=args.parallel_backend,
            fault_profile=profile,
            store=store,
            telemetry=telemetry,
            ledger=ledger,
        )

    steps = monitor_steps(
        make_service,
        source,
        registry=telemetry.metrics,
        ledger=ledger,
        max_steps=args.steps,
    )
    last = None
    for step in steps:
        print(step.frame)
        print()
        last = step
    if last is not None and last.done:
        print(f"feed exhausted after {last.step} window(s)")
    return 0


def run_gate(args) -> int:
    """Compare a bench summary to the baseline; return the exit status."""
    from repro.experiments.bench_summary import gate_summary_files

    failures = gate_summary_files(
        args.current, args.baseline, tolerance=args.tolerance
    )
    if failures:
        print("bench gate: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"bench gate: OK ({args.current} within "
        f"{args.tolerance:.0%} of {args.baseline})"
    )
    return 0


def run_perf(args) -> int:
    """Run the batched hot-path microbench; return the exit status.

    The ``bench-perf`` CI lane: measures scalar vs batched TMerge on the
    same workload, writes ``perf_summary.json``, optionally appends to
    the committed trend file, and fails (non-zero exit) if the batched
    sampler is slower per observation than the scalar one.
    """
    from repro.experiments import perf

    summary = perf.run_perf(smoke=args.smoke, repeats=args.repeats)
    print(perf.format_summary(summary))

    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"\nperf summary written to {out_path}")

    if args.trend:
        perf.append_trend(summary, args.trend)
        print(f"trend record appended to {args.trend}")

    failures = perf.check_summary(summary)
    if failures:
        print("bench-perf: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench-perf: OK (speedup {summary['speedup']:.2f}x >= 1.0)")
    return 0


def run_scenarios(args) -> int:
    """Run the regime-sweep scenario matrix; return the exit status.

    The ``scenario-sweep`` CI lane: runs every named scenario through
    the batch pipeline and the streaming service, writes the matrix
    document, and with ``--gate`` compares it per scenario against the
    committed baseline (non-zero exit on any single-scenario
    regression).
    """
    from repro.experiments import scenarios as scenario_sweep

    document = scenario_sweep.sweep(
        seed=args.seed,
        smoke=args.smoke,
        only=args.only,
        progress=lambda name: print(f"  ran {name}", file=sys.stderr),
    )
    out_path = scenario_sweep.write_matrix(document, args.matrix_out)
    print(scenario_sweep.format_matrix(document))
    print(f"\nscenario matrix written to {out_path}")
    if args.summary_out:
        merged = scenario_sweep.merge_into_summary(
            document, args.summary_out
        )
        print(f"scenario_matrix record merged into {merged}")
    if args.gate:
        baseline = scenario_sweep.load_matrix(args.matrix_baseline)
        failures = scenario_sweep.gate_matrix(
            document, baseline, tolerance=args.tolerance
        )
        if failures:
            print("scenario gate: FAIL")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(
            f"scenario gate: OK ({len(document['scenarios'])} scenarios "
            f"within {args.tolerance:.0%} of {args.matrix_baseline})"
        )
    return 0


def run_faults(args) -> str:
    """Render the chaos matrix: TMerge under injected fault profiles."""
    from repro.experiments.chaos import fault_profile_sweep

    videos = _mot17(args.videos)
    rows = fault_profile_sweep(
        figures.default_quality_merger,
        videos,
        profiles=list(args.profiles),
        fault_seed=args.fault_seed,
    )
    return format_table(
        ["profile", "REC", "FPS", "seconds", "degraded windows"],
        [
            [name, p.rec, p.fps, p.simulated_seconds, p.degraded_windows]
            for name, p in rows
        ],
        "Chaos matrix — TMerge under fault injection",
    )


_RUNNERS = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "faults": run_faults,
    "telemetry": run_telemetry,
    "parallel": run_parallel,
    "serve": run_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a paper figure at laptop scale.",
    )
    parser.add_argument(
        "figure",
        choices=sorted(_RUNNERS) + [
            "explain", "gate", "monitor", "perf", "scenarios", "list",
        ],
        help="which figure to regenerate (or: telemetry, explain, "
        "monitor, gate, perf, scenarios, list)",
    )
    parser.add_argument(
        "--videos",
        type=int,
        default=2,
        help="videos per dataset (default 2)",
    )
    parser.add_argument(
        "--profiles",
        nargs="+",
        default=["flaky-reid", "corrupt-features", "window-crash"],
        help="fault profiles for the chaos matrix (faults only)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=7,
        help="seed of the injected fault schedule (faults only)",
    )
    parser.add_argument(
        "--synthetic",
        action="store_true",
        help="use synthetic data (telemetry only; always true here)",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=400,
        help="video length (telemetry, parallel; default 400)",
    )
    parser.add_argument(
        "--window-length",
        type=int,
        default=200,
        help="window length (telemetry, parallel; default 200)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="window-engine worker count (telemetry, parallel; "
        "default: 1, or 4 for the parallel report)",
    )
    parser.add_argument(
        "--parallel-backend",
        choices=["process", "thread"],
        default="process",
        help="pool backend for --workers (default process)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        help="single fault profile for the streaming service (serve only)",
    )
    parser.add_argument(
        "--policy",
        choices=["block", "drop-oldest", "degrade"],
        default="block",
        help="intake backpressure policy (serve only, default block)",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="intake queue bound in events (serve only, default 64)",
    )
    parser.add_argument(
        "--latency-slo",
        type=float,
        default=None,
        help="simulated latency SLO in ms for the degrade policy "
        "(serve only)",
    )
    parser.add_argument(
        "--disorder-ms",
        type=float,
        default=50.0,
        help="arrival jitter bound in simulated ms (serve only)",
    )
    parser.add_argument(
        "--lateness",
        type=int,
        default=4,
        help="allowed lateness in frames (serve only, default 4)",
    )
    parser.add_argument(
        "--max-open-windows",
        type=int,
        default=8,
        help="resident open-window bound (serve only, default 8)",
    )
    parser.add_argument(
        "--kill-after",
        type=int,
        default=None,
        help="kill the service after N window emissions, then resume "
        "from its checkpoint and verify bit-identity (serve only)",
    )
    parser.add_argument(
        "--ledger-out",
        default=None,
        help="export the session's decision ledger as JSONL to this "
        "path (serve only)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write an OpenMetrics snapshot of the session's metrics "
        "to this path (serve only)",
    )
    parser.add_argument(
        "--ledger",
        default=None,
        help="JSONL ledger export to read (explain only)",
    )
    parser.add_argument(
        "--pair",
        nargs=2,
        type=int,
        metavar=("A", "B"),
        default=None,
        help="track ids of the pair to explain (explain only)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        help="window index, when the pair appears in several "
        "(explain only)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=None,
        help="stop the monitor after N window emissions "
        "(monitor only, default: run the feed dry)",
    )
    parser.add_argument(
        "--current",
        default="benchmarks/results/bench_summary.json",
        help="summary produced by this run (gate only)",
    )
    parser.add_argument(
        "--baseline",
        default="benchmarks/results/baseline_summary.json",
        help="committed baseline summary (gate only)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative regression tolerance (gate only, default 0.05)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="use the CI smoke workload (perf and scenarios)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed runs per contender, best kept (perf only, default 3)",
    )
    parser.add_argument(
        "--output",
        default="benchmarks/results/perf_summary.json",
        help="where to write the perf summary (perf only)",
    )
    parser.add_argument(
        "--trend",
        default=None,
        help="JSONL trend file to append the perf record to (perf only)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="sweep seed of the scenario matrix (scenarios only, "
        "default 0)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="NAME",
        help="run only these named scenarios (scenarios only)",
    )
    parser.add_argument(
        "--matrix-out",
        default="benchmarks/results/scenario_matrix.json",
        help="where to write the scenario matrix document "
        "(scenarios only; the default refreshes the committed baseline)",
    )
    parser.add_argument(
        "--matrix-baseline",
        default="benchmarks/results/scenario_matrix.json",
        help="committed scenario baseline the gate compares against "
        "(scenarios only)",
    )
    parser.add_argument(
        "--summary-out",
        default=None,
        help="bench summary file to fold a scenario_matrix record into "
        "(scenarios only)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="gate the fresh matrix per scenario against "
        "--matrix-baseline; exit non-zero on regression (scenarios only)",
    )
    args = parser.parse_args(argv)
    if args.figure == "list":
        print(
            "available:",
            ", ".join(
                sorted(_RUNNERS)
                + ["explain", "gate", "monitor", "perf", "scenarios"]
            ),
        )
        return 0
    if args.figure == "gate":
        return run_gate(args)
    if args.figure == "perf":
        return run_perf(args)
    if args.figure == "scenarios":
        return run_scenarios(args)
    if args.figure == "explain":
        if args.ledger is None or args.pair is None:
            parser.error("explain requires --ledger and --pair A B")
        return run_explain(args)
    if args.figure == "monitor":
        return run_monitor(args)
    print(_RUNNERS[args.figure](args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
