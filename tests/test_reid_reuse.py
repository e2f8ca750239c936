"""One determinism regime: the window engine equals a shared-cache loop.

ReID noise is keyed by detection, so a feature is a pure function of its
key and a window-local cache holds the same values a shared one would.
The engine's in-order fold (:class:`~repro.parallel.executor.WindowFold`)
charges each feature once per video, to the lowest-index window that
extracts it.  These tests pin that rule against the plainest reference:
one serial loop over one shared :class:`~repro.reid.FeatureCache` and one
clock — for both sampler paths, worker counts and pool backends — and
check that window clocks add up to the run clock in the batch pipeline
and in the streaming service.
"""

import copy
import math

import pytest

from repro.core.pairs import build_track_pairs
from repro.core.tmerge import TMerge
from repro.core.windows import WindowedTracks, partition_windows
from repro.parallel import run_windows
from repro.reid import CostModel, FeatureCache, ReidScorer, SimReIDModel
from repro.resilience import CheckpointStore
from repro.streaming import StreamingIngestionService, SyntheticFeedSource
from repro.track import TracktorTracker

WINDOW_LENGTH = 100
REID_SEED = 5
INTEGER_FIELDS = (
    "n_extractions",
    "n_batched_extractions",
    "n_batch_calls",
    "n_distances",
    "n_overheads",
    "n_waits",
)


@pytest.fixture(scope="module")
def tracked(chaos_world):
    from repro.detect import NoisyDetector

    detections = NoisyDetector().detect_video(chaos_world, seed=2)
    return detections, TracktorTracker().run(detections)


def _window_pairs(world, tracks):
    """Fresh ``P_c`` per window (pairs carry sampling state)."""
    windows = partition_windows(world.n_frames, WINDOW_LENGTH)
    windowed = WindowedTracks.assign(tracks, windows)
    return [
        build_track_pairs(windowed.tracks_of(c), windowed.previous_tracks_of(c))
        for c in range(len(windows))
    ]


def _merger(batch_size):
    return TMerge(k=0.1, tau_max=150, batch_size=batch_size, seed=3)


def _reference(world, window_pairs, merger, shared=True):
    """The serial loop: one scorer, one clock, one shared feature cache."""
    cost = CostModel()
    scorer = ReidScorer(SimReIDModel(world, seed=REID_SEED), cost=cost)
    candidates, window_ms = [], []
    for pairs in window_pairs:
        if not shared:
            scorer.cache = FeatureCache()
        if not pairs:
            candidates.append(set())
            window_ms.append(0.0)
            continue
        start = cost.milliseconds
        result = copy.deepcopy(merger).run(pairs, scorer)
        candidates.append(result.candidate_keys)
        window_ms.append(cost.milliseconds - start)
    return candidates, window_ms, cost


@pytest.mark.parametrize("batch_size", (1, 8))
@pytest.mark.parametrize(
    "workers, backend", ((1, "process"), (2, "process"), (2, "thread"))
)
def test_engine_matches_shared_cache_loop(
    chaos_world, tracked, batch_size, workers, backend
):
    _, tracks = tracked
    merger = _merger(batch_size)
    candidates, window_ms, cost = _reference(
        chaos_world, _window_pairs(chaos_world, tracks), merger
    )
    run = run_windows(
        world=chaos_world,
        window_pairs=_window_pairs(chaos_world, tracks),
        merger=merger,
        reid_seed=REID_SEED,
        n_workers=workers,
        backend=backend,
    )

    assert [r.candidate_keys for r in run.window_results] == candidates
    engine, reference = run.cost.state_dict(), cost.state_dict()
    for name in INTEGER_FIELDS:
        assert engine[name] == reference[name], name
    assert math.isclose(engine["ms"], reference["ms"], rel_tol=1e-9)
    for result, ms in zip(run.window_results, window_ms):
        assert math.isclose(
            result.simulated_seconds * 1000.0, ms,
            rel_tol=1e-9, abs_tol=1e-9,
        )


def test_reference_exercises_cross_window_reuse(chaos_world, tracked):
    """Non-vacuity: without the shared cache the same loop pays more."""
    _, tracks = tracked
    for batch_size in (1, 8):
        merger = _merger(batch_size)
        *_, shared = _reference(
            chaos_world, _window_pairs(chaos_world, tracks), merger
        )
        *_, local = _reference(
            chaos_world, _window_pairs(chaos_world, tracks), merger,
            shared=False,
        )
        assert local.milliseconds > shared.milliseconds
        assert (
            local.n_extractions + local.n_batched_extractions
            > shared.n_extractions + shared.n_batched_extractions
        )


def test_pipeline_window_clocks_sum_to_run_clock(make_pipeline, chaos_world):
    result = make_pipeline(window_length=WINDOW_LENGTH).run(chaos_world)
    total = sum(r.simulated_seconds for r in result.window_results)
    assert math.isclose(total, result.cost.seconds, rel_tol=1e-9)
    assert result.total_simulated_seconds == total


def test_stream_window_clocks_sum_to_run_clock(chaos_world):
    service = StreamingIngestionService(
        TracktorTracker(),
        _merger(8),
        window_length=WINDOW_LENGTH,
        allowed_lateness=4,
        reid_seed=REID_SEED,
        store=CheckpointStore(),
    )
    run = service.run(SyntheticFeedSource(chaos_world, disorder_ms=50.0))
    assert len(run.emissions) >= 4
    total = sum(e.result.simulated_seconds for e in run.emissions)
    assert math.isclose(total, run.cost.seconds, rel_tol=1e-9)
