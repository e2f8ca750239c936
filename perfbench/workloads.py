"""The three benchmark workloads: two batch ones and one stream.

A run of a workload is a fixed list of *episodes*.  Episode ``i`` runs
on video ``i`` of a fixed synthetic corpus, as the paper runs on fixed
datasets; the run seed drives every random stage the program applies to
it: detection noise, ReID noise, TMerge's sampling and the stream's
arrival jitter.  Every simulated-clock metric is therefore a pure
function of the seed.  Wall-clock
metrics come from timing the same calls a user makes, with telemetry
and the decision ledger off; the traced run repeats each episode with a
``Telemetry`` injected and wall-clock spans around every public call.

README.md in this directory gives the reasons behind each workload and
which per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import json
import pickle
import time
from dataclasses import dataclass, replace

import numpy as np

from repro import (
    CoOccurrenceQuery,
    CountQuery,
    IngestionPipeline,
    QueryEngine,
    SortTracker,
    TMerge,
    TracktorTracker,
    build_track_pairs,
    match_tracks_to_gt,
    merge_tracks,
    partition_windows,
    polyonymous_pairs,
    simulate_world,
)
from repro.core.results import top_k_count
from repro.core.windows import WindowedTracks
from repro.parallel import run_windows
from repro.parallel.planner import ShardPlanner
from repro.query.evaluation import count_query_recall, cooccurrence_query_recall
from repro.resilience import CheckpointStore, ResilienceConfig
from repro.streaming import (
    BackpressurePolicy,
    StreamingIngestionService,
    SyntheticFeedSource,
)
from repro.synth.datasets import preset_by_name
from repro.telemetry import Telemetry

from harness import (
    Spans,
    TimedDetector,
    TimedMerger,
    TimedSource,
    TimedTracker,
    finite,
    median,
    ratio,
    span_s,
)

#: Root of the video corpus: video ``i`` is the same in every run.
CORPUS_SEED = 20230403
#: Nothing is merged automatically: at these budgets TMerge's score
#: estimates do not separate true from false candidates, so every
#: candidate goes to the paper's inspection step (§I), see ``inspect``.
MERGE_SCORE_THRESHOLD = 0.0


@dataclass(frozen=True)
class Spec:
    """One workload's fixed configuration.

    Attributes:
        name: the workload name on the command line.
        engine: ``"batch"`` or ``"stream"``.
        preset: dataset preset name.
        tracker: tracker class.
        k: TMerge candidate share ``K``.
        tau_max: TMerge iteration budget per window.
        batch_size: TMerge batch size (``1`` is the scalar sampler).
        workers: engine worker count (``≥ 2`` crosses a process pool).
        window_length: the paper's ``L``.
        frames: frames per episode video.
        episodes: videos per run.
        count_min_frames: the Count query's duration threshold.
        cooccur_group: the Co-occurrence query's group size.
        cooccur_min_frames: the Co-occurrence query's overlap threshold.
        rate_fps: stream only — the fixed input rate on the simulated
            clock; the source's and the service's frame interval both
            derive from it.
    """

    name: str
    engine: str
    preset: str
    tracker: type
    k: float
    tau_max: int
    batch_size: int
    workers: int
    window_length: int
    frames: int
    episodes: int
    count_min_frames: int
    cooccur_group: int
    cooccur_min_frames: int
    rate_fps: float = 0.0


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="inline-b1-mot17",
            engine="batch",
            preset="mot17",
            tracker=SortTracker,
            k=0.15,
            tau_max=1000,
            batch_size=1,
            workers=1,
            window_length=2000,
            frames=2000,
            episodes=8,
            count_min_frames=200,
            cooccur_group=3,
            cooccur_min_frames=50,
        ),
        Spec(
            name="sharded-b8-pathtrack",
            engine="batch",
            preset="pathtrack",
            tracker=SortTracker,
            k=0.1,
            tau_max=200,
            batch_size=8,
            workers=2,
            window_length=2000,
            frames=4000,
            episodes=4,
            count_min_frames=200,
            cooccur_group=3,
            cooccur_min_frames=50,
        ),
        Spec(
            name="stream-kitti-disorder",
            engine="stream",
            preset="kitti",
            tracker=TracktorTracker,
            k=0.05,
            tau_max=300,
            batch_size=8,
            workers=1,
            window_length=600,
            frames=4800,
            episodes=5,
            count_min_frames=100,
            cooccur_group=2,
            cooccur_min_frames=30,
            rate_fps=180.0,
        ),
    )
}

#: Stream arrival jitter, in frame intervals; ``allowed_lateness`` heals it.
DISORDER_FRAMES = 3.0
ALLOWED_LATENESS = 4
MAX_OPEN_WINDOWS = 8
QUEUE_CAPACITY = 64


@dataclass(frozen=True)
class Seeds:
    """The seeds of one episode: its corpus video, and the run's noise."""

    video: int
    detector: int
    reid: int
    merger: int
    jitter: int


def episode_seeds(seed: int, episode: int) -> Seeds:
    """Seeds of episode ``episode`` of a run with seed ``seed``."""
    (video,) = np.random.SeedSequence([CORPUS_SEED, episode]).generate_state(1)
    noise = np.random.SeedSequence([seed, episode]).generate_state(4)
    return Seeds(int(video), *(int(value) for value in noise))


def queries(spec: Spec) -> tuple[CountQuery, CoOccurrenceQuery]:
    """The two downstream queries run on the merged tracks."""
    return (
        CountQuery(min_frames=spec.count_min_frames),
        CoOccurrenceQuery(
            group_size=spec.cooccur_group, min_frames=spec.cooccur_min_frames
        ),
    )


def run_queries(tracks, spec: Spec):
    """What a user runs after ingestion: both queries on merged tracks."""
    engine = QueryEngine.from_tracks(tracks)
    return [engine.run(query) for query in queries(spec)]


def inspect(tracks, world, window_pairs, window_results):
    """The paper's human inspection of candidates, played by ground truth.

    Returns the track → object assignment, the confirmed candidates
    (those that are truly polyonymous) and the counts behind REC: true
    pairs found among the candidates, and true pairs in ``P_c``.
    """
    assignment = match_tracks_to_gt(tracks, world)
    confirmed, found, total = [], 0, 0
    for pairs, result in zip(window_pairs, window_results):
        truth = polyonymous_pairs(pairs, assignment)
        hits = truth & result.candidate_keys
        confirmed.extend(sorted(hits))
        found += len(hits)
        total += len(truth)
    return assignment, confirmed, found, total


@dataclass
class Episode:
    """What one episode measured, and what its output checks found."""

    frames: int
    wall_s: float
    setup_s: float
    sim_s: float
    found: int
    polyonymous: int
    count_recall: float
    cooccur_recall: float
    lags_ms: list[float]
    merge_sim_ms: list[float]
    windows: int
    degraded: int
    shed: int
    events: int
    problems: list[str]
    digest: object = None
    layers: dict | None = None


def query_recalls(merged, world, spec) -> tuple[float, float]:
    """Recall of the Count and Co-occurrence answers on merged tracks."""
    assignment = match_tracks_to_gt(merged, world)
    count_query, cooccur_query = queries(spec)
    return (
        count_query_recall(merged, world, assignment, count_query),
        cooccurrence_query_recall(merged, world, assignment, cooccur_query),
    )


def fragments_per_gt(assignment) -> float:
    """Tracks matched to a ground-truth object per object matched."""
    identities = [gt for gt in assignment.identity.values() if gt is not None]
    return ratio(len(identities), len(set(identities)))


# ----------------------------------------------------------------------
# Batch engine (IngestionPipeline)
# ----------------------------------------------------------------------
def batch_setup(spec: Spec, seeds: Seeds):
    """Open the video and build the pipeline (the timed set-up)."""
    preset = preset_by_name(spec.preset)
    world = simulate_world(preset.config, n_frames=spec.frames, seed=seeds.video)
    pipeline = IngestionPipeline(
        tracker=spec.tracker(),
        merger=TMerge(
            k=spec.k,
            tau_max=spec.tau_max,
            batch_size=spec.batch_size,
            seed=seeds.merger,
        ),
        window_length=spec.window_length,
        reid_seed=seeds.reid,
        detector_seed=seeds.detector,
        merge_score_threshold=MERGE_SCORE_THRESHOLD,
        workers=spec.workers,
        parallel_backend="process",
    )
    return world, pipeline


def emit_lags_ms(window_results, workers: int) -> list[float]:
    """Simulated ms from job start to each window's in-order emission.

    Each shard of the engine's plan merges its windows one after the
    other; results are emitted in window order, so a window waits for
    every earlier one.
    """
    busy = [c for c, result in enumerate(window_results) if result.n_pairs]
    finish: dict[int, float] = {}
    for shard in ShardPlanner(workers).plan(busy).shards:
        clock = 0.0
        for c in shard.window_indices:
            clock += window_results[c].simulated_seconds * 1000.0
            finish[c] = clock
    lags, emitted = [], 0.0
    for c in busy:
        emitted = max(emitted, finish[c])
        lags.append(emitted)
    return lags


def budget_problems(window_results) -> list[str]:
    """Windows whose candidate count is not TMerge's top-K budget."""
    problems = []
    for c, merge in enumerate(window_results):
        expected = top_k_count(merge.n_pairs, merge.k)
        if len(merge.candidates) != expected:
            problems.append(
                f"window {c}: {len(merge.candidates)} candidates, "
                f"budget {expected}"
            )
        if not finite(merge.simulated_seconds):
            problems.append(f"window {c}: simulated time not finite")
    return problems


def batch_result(spec, world, window_results, merged, found, total, problems):
    """The episode record both batch paths return (quality not timed)."""
    count_recall, cooccur_recall = query_recalls(merged, world, spec)
    busy = [r for r in window_results if r.n_pairs]
    return Episode(
        frames=world.n_frames,
        wall_s=0.0,
        setup_s=0.0,
        sim_s=sum(r.simulated_seconds for r in window_results),
        found=found,
        polyonymous=total,
        count_recall=count_recall,
        cooccur_recall=cooccur_recall,
        lags_ms=emit_lags_ms(window_results, spec.workers),
        merge_sim_ms=[r.simulated_seconds * 1000.0 for r in busy],
        windows=len(busy),
        degraded=sum(1 for r in window_results if r.degraded),
        shed=0,
        events=0,
        problems=problems + budget_problems(window_results),
        digest=[sorted(r.candidate_keys) for r in window_results],
    )


def batch_episode(spec: Spec, seeds: Seeds) -> Episode:
    """One untraced episode: what a user of the batch pipeline runs."""
    start = time.perf_counter()
    world, pipeline = batch_setup(spec, seeds)
    setup_s = time.perf_counter() - start

    start = time.perf_counter()
    result = pipeline.run(world)
    ingest_s = time.perf_counter() - start
    _, confirmed, found, total = inspect(
        result.tracks, world, result.window_pairs, result.window_results
    )
    start = time.perf_counter()
    merged, _ = merge_tracks(result.tracks, confirmed)
    run_queries(merged, spec)
    wall_s = ingest_s + time.perf_counter() - start

    problems = []
    if spec.workers > 1:
        inline = replace(pipeline, workers=1).run_on_tracks(
            world, result.detections, result.tracks
        )
        if candidate_sets(inline.window_results) != candidate_sets(
            result.window_results
        ):
            problems.append("selected pairs differ from the workers=1 run")
    episode = batch_result(
        spec, world, result.window_results, merged, found, total, problems
    )
    episode.wall_s, episode.setup_s = wall_s, setup_s
    return episode


def candidate_sets(window_results) -> list[set]:
    """The selected pair keys of each window."""
    return [result.candidate_keys for result in window_results]


def window_pairs_of(tracks, windows) -> list:
    """``P_c`` of every window, freshly built (pairs carry sampling state)."""
    windowed = WindowedTracks.assign(tracks, windows)
    return [
        build_track_pairs(windowed.tracks_of(c), windowed.previous_tracks_of(c))
        for c in range(len(windows))
    ]


def batch_traced(spec: Spec, seeds: Seeds, spans: Spans) -> Episode:
    """One traced episode: the pipeline's stages called one by one."""
    telemetry = Telemetry()
    with spans.span("episode"):
        with spans.span("synth"):
            world, pipeline = batch_setup(spec, seeds)
        engine_args = dict(
            world=world,
            cost_params=pipeline.cost_params,
            reid_seed=pipeline.reid_seed,
            backend=pipeline.parallel_backend,
        )
        with spans.span("workload") as workload:
            detector = TimedDetector(pipeline.detector, spans)
            detections = detector.detect_video(world, seed=pipeline.detector_seed)
            tracks = TimedTracker(pipeline.tracker, spans).run(detections)
            with spans.span("pairs"):
                windows = partition_windows(world.n_frames, spec.window_length)
                window_pairs = window_pairs_of(tracks, windows)
            with spans.span("run_windows") as engine:
                run = run_windows(
                    window_pairs=window_pairs,
                    merger=(
                        TimedMerger(pipeline.merger, spans)
                        if spec.workers == 1
                        else pipeline.merger
                    ),
                    n_workers=spec.workers,
                    telemetry=telemetry,
                    **engine_args,
                )
            with spans.span("bench.inspect") as inspection:
                assignment, confirmed, found, total = inspect(
                    tracks, world, window_pairs, run.window_results
                )
            with spans.span("merge_tracks"):
                merged, _ = merge_tracks(tracks, confirmed)
            with spans.span("query"):
                run_queries(merged, spec)
        problems, inline_s, shipped_mb = [], span_s(engine), 0.0
        if spec.workers > 1:
            # Pool workers report no spans: time the same windows inline.
            with spans.span("parallel.inline") as inline:
                reference = run_windows(
                    window_pairs=window_pairs_of(tracks, windows),
                    merger=TimedMerger(pipeline.merger, spans),
                    n_workers=1,
                    **engine_args,
                )
            inline_s = span_s(inline)
            if candidate_sets(reference.window_results) != candidate_sets(
                run.window_results
            ):
                problems.append("pool and inline runs selected different pairs")
            with spans.span("bench.measure"):
                world_bytes = len(pickle.dumps(world))
                shipped_mb = median(
                    (
                        world_bytes
                        + len(pickle.dumps([window_pairs[c] for c in shard.window_indices]))
                    )
                    / 1e6
                    for shard in run.plan.shards
                )
    busy = sorted(run.plan.covered_indices())
    window_s = spans.durations("tmerge")[-len(busy):]
    by_window = dict(zip(busy, window_s))
    shard_s = [
        sum(by_window[c] for c in shard.window_indices)
        for shard in run.plan.shards
    ]
    episode = batch_result(
        spec, world, run.window_results, merged, found, total, problems
    )
    episode.wall_s = span_s(workload) - span_s(inspection)
    episode.layers = {
        "frames": world.n_frames,
        "workload_s": episode.wall_s,
        "detections": detector.detections,
        "tracks": len(tracks),
        "fragments_per_gt": fragments_per_gt(assignment),
        "candidates": sum(len(pairs) for pairs in window_pairs),
        "polyonymous": total,
        "window_s": window_s,
        "parallel": {
            "inline_wall_s": inline_s,
            "pool_wall_s": span_s(engine),
            "outside_shard_s": span_s(engine) - max(shard_s, default=0.0),
            "shipped_mb": shipped_mb,
            "shard_imbalance": ratio(
                max(shard_s, default=0.0), sum(shard_s) / max(len(shard_s), 1)
            ),
        },
        "counters": telemetry.metrics.counters_snapshot(),
        "cost": run.cost.snapshot(),
        "stream": {},
    }
    return episode


# ----------------------------------------------------------------------
# Streaming engine (StreamingIngestionService)
# ----------------------------------------------------------------------
class TimedStore(CheckpointStore):
    """A ``CheckpointStore`` whose saves and loads are spans.

    It also keeps each save's wall seconds and JSON payload size.
    """

    def __init__(self, spans: Spans) -> None:
        super().__init__()
        self.spans = spans
        self.save_s: list[float] = []
        self.save_kb: list[float] = []

    def save(self, key, state: dict) -> None:
        with self.spans.span("checkpoint.save") as record:
            super().save(key, state)
        self.save_s.append(span_s(record))
        with self.spans.span("bench.measure"):
            self.save_kb.append(len(json.dumps(state, sort_keys=True)) / 1024.0)

    def load(self, key):
        with self.spans.span("checkpoint.load"):
            return super().load(key)


def stream_setup(spec: Spec, seeds: Seeds, store: CheckpointStore):
    """Open the feed and build the service (the timed set-up).

    The source's and the service's frame interval come from the one
    ``rate_fps`` value: the service computes lag from its own interval,
    so two different intervals would make every lag silently wrong.
    """
    interval_ms = 1000.0 / spec.rate_fps
    preset = preset_by_name(spec.preset)
    world = simulate_world(preset.config, n_frames=spec.frames, seed=seeds.video)
    source = SyntheticFeedSource(
        world,
        detector_seed=seeds.detector,
        frame_interval_ms=interval_ms,
        disorder_ms=DISORDER_FRAMES * interval_ms,
        disorder_seed=seeds.jitter,
    )
    return source, stream_service(spec, seeds, store)


def stream_service(
    spec: Spec, seeds: Seeds, store: CheckpointStore, telemetry=None, spans=None
) -> StreamingIngestionService:
    """One service instance bound to ``store`` (rebuilt after the kill)."""
    tracker = spec.tracker()
    merger = TMerge(
        k=spec.k,
        tau_max=spec.tau_max,
        batch_size=spec.batch_size,
        seed=seeds.merger,
    )
    if spans is not None:
        tracker = TimedTracker(tracker, spans)
        merger = TimedMerger(merger, spans)
    return StreamingIngestionService(
        tracker,
        merger,
        window_length=spec.window_length,
        allowed_lateness=ALLOWED_LATENESS,
        max_open_windows=MAX_OPEN_WINDOWS,
        policy=BackpressurePolicy(mode="block", capacity=QUEUE_CAPACITY),
        reid_seed=seeds.reid,
        frame_interval_ms=1000.0 / spec.rate_fps,
        resilience=ResilienceConfig(),
        telemetry=telemetry,
        workers=spec.workers,
        store=store,
    )


def kill_point(spec: Spec) -> int:
    """Windows emitted before the service is killed: about half."""
    return max(1, spec.frames // spec.window_length)


def consumed_tracks(emissions):
    """Every track a consumer of the emissions was shown, by id."""
    tracks = {}
    for emission in emissions:
        for pair in emission.pairs:
            tracks[pair.track_a.track_id] = pair.track_a
            tracks[pair.track_b.track_id] = pair.track_b
    return [tracks[tid] for tid in sorted(tracks)]


def stream_emit_lags_ms(emissions, interval_ms: float, frames: int) -> list[float]:
    """Simulated ms from the nominal arrival of each window's last frame
    to the window's emission.

    ``WindowEmission.lag_ms`` is stamped when the window becomes ready,
    against the nominal arrival of frame ``window.end`` (one past the
    window, and past the feed for the last windows).  The service then
    advances its clock by each merge in emission order, so emission
    ``k`` happens at ``max(ready_k, emitted_{k-1}) + merge_k``.
    """
    lags, emitted = [], float("-inf")
    for emission in emissions:
        ready = emission.lag_ms + emission.window.end * interval_ms
        emitted = max(ready, emitted) + emission.result.simulated_seconds * 1000.0
        last_frame = min(emission.window.end, frames) - 1
        lags.append(emitted - last_frame * interval_ms)
    return lags


def stream_checks(spec: Spec, first, resumed, emissions, lags) -> list[str]:
    """The stream's output checks (the digest check is made by callers)."""
    problems = []
    counters = resumed.counters
    if not first.stopped or resumed.stopped:
        problems.append("the kill/resume sequence did not run as planned")
    if counters.get("stream.frames_in", 0.0) != spec.frames:
        problems.append(
            f"frames_in {counters.get('stream.frames_in')} != {spec.frames}"
        )
    shed = counters.get("stream.frames_shed_late", 0.0) + counters.get(
        "stream.events_shed_queue", 0.0
    )
    if shed:
        problems.append(f"{shed:.0f} frames shed under the block policy")
    if resumed.peak_open_windows > MAX_OPEN_WINDOWS:
        problems.append(
            f"peak_open_windows {resumed.peak_open_windows} > {MAX_OPEN_WINDOWS}"
        )
    if len(consumed_tracks(emissions)) != sum(e.n_tracks for e in emissions):
        problems.append("a track reached the consumer in no candidate pair")
    if any(lag < 0 for lag in lags):
        problems.append("negative emit lag: source and service intervals differ")
    problems += budget_problems([e.result for e in emissions])
    return problems


def stream_episode(spec: Spec, seeds: Seeds) -> Episode:
    """One untraced episode: feed, kill once mid-feed, resume, query."""
    start = time.perf_counter()
    store = CheckpointStore()
    source, service = stream_setup(spec, seeds, store)
    setup_s = time.perf_counter() - start

    start = time.perf_counter()
    first = service.run(source, stop_after_windows=kill_point(spec))
    resumed = stream_service(spec, seeds, store).run(source)
    ingest_s = time.perf_counter() - start
    emissions = first.emissions + resumed.emissions
    tracks = consumed_tracks(emissions)
    _, confirmed, found, total = inspect(
        tracks,
        source.world,
        [e.pairs for e in emissions],
        [e.result for e in emissions],
    )
    start = time.perf_counter()
    merged, _ = merge_tracks(tracks, confirmed)
    run_queries(merged, spec)
    wall_s = ingest_s + time.perf_counter() - start

    episode = stream_result(spec, source, first, resumed, merged, found, total)
    reference = stream_service(spec, seeds, CheckpointStore()).run(source)
    if episode.digest != reference.fingerprints():
        episode.problems.append(
            "kill/resume emissions differ from an uninterrupted run"
        )
    episode.wall_s, episode.setup_s = wall_s, setup_s
    return episode


def stream_result(spec, source, first, resumed, merged, found, total) -> Episode:
    """Checks and quality of one stream episode (not timed).

    The traced twin of an episode is compared with the untraced one,
    whose kill/resume digest ``stream_episode`` checks against an
    uninterrupted run.
    """
    emissions = first.emissions + resumed.emissions
    lags = stream_emit_lags_ms(emissions, source.frame_interval_ms, spec.frames)
    problems = stream_checks(spec, first, resumed, emissions, lags)
    count_recall, cooccur_recall = query_recalls(merged, source.world, spec)
    counters = resumed.counters
    return Episode(
        frames=spec.frames,
        wall_s=0.0,
        setup_s=0.0,
        sim_s=resumed.cost.seconds,
        found=found,
        polyonymous=total,
        count_recall=count_recall,
        cooccur_recall=cooccur_recall,
        lags_ms=lags,
        merge_sim_ms=[
            e.result.simulated_seconds * 1000.0
            for e in emissions
            if e.result.n_pairs
        ],
        windows=len(emissions),
        degraded=int(counters.get("stream.windows_degraded", 0.0)),
        shed=int(
            counters.get("stream.frames_shed_late", 0.0)
            + counters.get("stream.events_shed_queue", 0.0)
        ),
        events=int(counters.get("stream.frames_in", 0.0)),
        problems=problems,
        digest=first.fingerprints() + resumed.fingerprints(),
    )


def stream_traced(spec: Spec, seeds: Seeds, spans: Spans) -> Episode:
    """One traced episode of the stream, with every seam timed."""
    telemetry = Telemetry()
    with spans.span("episode"):
        store = TimedStore(spans)
        with spans.span("synth"):
            plain_source, _ = stream_setup(spec, seeds, store)
        detector = TimedDetector(plain_source.detector, spans)
        plain_source.detector = detector
        source = TimedSource(plain_source, spans)
        with spans.span("workload") as workload:
            with spans.span("stream.run"):
                first = stream_service(spec, seeds, store, telemetry, spans).run(
                    source, stop_after_windows=kill_point(spec)
                )
            with spans.span("stream.run") as resume:
                resumed = stream_service(
                    spec, seeds, store, telemetry, spans
                ).run(source)
            emissions = first.emissions + resumed.emissions
            with spans.span("bench.inspect") as inspection:
                tracks = consumed_tracks(emissions)
                assignment, confirmed, found, total = inspect(
                    tracks,
                    plain_source.world,
                    [e.pairs for e in emissions],
                    [e.result for e in emissions],
                )
            with spans.span("merge_tracks"):
                merged, _ = merge_tracks(tracks, confirmed)
            with spans.span("query"):
                run_queries(merged, spec)
    plain_source.detector = detector.inner
    episode = stream_result(
        spec, plain_source, first, resumed, merged, found, total
    )
    episode.wall_s = span_s(workload) - span_s(inspection)
    merged_windows = [e for e in emissions if e.result.n_pairs]
    episode.layers = {
        "frames": spec.frames,
        "workload_s": episode.wall_s,
        "detections": detector.detections,
        "tracks": len(tracks),
        "fragments_per_gt": fragments_per_gt(assignment),
        "candidates": sum(e.result.n_pairs for e in emissions),
        "polyonymous": total,
        "window_s": spans.durations("tmerge")[-len(merged_windows):],
        "parallel": {},
        "counters": telemetry.metrics.counters_snapshot(),
        "cost": resumed.cost.snapshot(),
        "stream": {
            "peak_queue_depth": max(
                first.peak_queue_depth, resumed.peak_queue_depth
            ),
            "peak_open_windows": resumed.peak_open_windows,
            "frames_shed_late": resumed.counters.get(
                "stream.frames_shed_late", 0.0
            ),
            "checkpoint_saves": store.n_saves,
            "checkpoint_save_s": store.save_s,
            "checkpoint_kb": store.save_kb,
            "resume_wall_s": source.first_event_at[1] - resume[2],
            "replayed_events": first.position,
        },
    }
    return episode


#: The untraced and the traced episode of each engine.
EPISODES = {
    "batch": (batch_episode, batch_traced),
    "stream": (stream_episode, stream_traced),
}
