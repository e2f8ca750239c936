"""Shared test utilities: compact builders for tracks, detections, worlds."""

from __future__ import annotations

import numpy as np

from repro.detect import Detection
from repro.geometry import BBox
from repro.synth import SceneConfig, simulate_world
from repro.synth.world import VideoGroundTruth
from repro.track.base import Track


def make_detection(
    x: float = 0.0,
    y: float = 0.0,
    w: float = 50.0,
    h: float = 100.0,
    confidence: float = 0.9,
    source_id: int | None = 0,
    visibility: float = 1.0,
) -> Detection:
    """A detection with a box at top-left (x, y)."""
    return Detection(
        BBox.from_tlwh(x, y, w, h), confidence, source_id, visibility
    )


def make_track(
    track_id: int,
    frames: list[int],
    positions: list[tuple[float, float]] | None = None,
    source_id: int | None = 0,
    size: tuple[float, float] = (50.0, 100.0),
) -> Track:
    """A track with one observation per frame.

    Args:
        track_id: the TID.
        frames: observation frames (strictly increasing).
        positions: top-left corner per frame (default: drifting right).
        source_id: GT source recorded on every detection.
        size: box size.
    """
    if positions is None:
        positions = [(10.0 * f, 20.0) for f in frames]
    track = Track(track_id)
    for frame, (x, y) in zip(frames, positions):
        track.append(
            frame,
            make_detection(
                x, y, size[0], size[1], source_id=source_id
            ),
        )
    return track


def tiny_scene_config(**overrides) -> SceneConfig:
    """A small, fast scene for unit tests."""
    defaults = dict(
        width=640.0,
        height=480.0,
        spawn_rate=0.02,
        initial_objects=4,
        max_objects=8,
        min_track_length=30,
        max_track_length=120,
        person_size=(40.0, 80.0),
        n_static_occluders=1,
        occluder_size=(60.0, 200.0),
        glare_rate=1.0,
        appearance_dim=16,
        appearance_clusters=3,
    )
    defaults.update(overrides)
    return SceneConfig(**defaults)


def tiny_world(n_frames: int = 120, seed: int = 0, **overrides) -> VideoGroundTruth:
    """Simulate a small world for unit tests."""
    return simulate_world(tiny_scene_config(**overrides), n_frames, seed=seed)


class StubReidModel:
    """A controllable stand-in for SimReIDModel in algorithm tests.

    Features are deterministic functions of the detection's source id:
    same-source BBoxes map to identical (or mildly noisy) vectors, so
    same-source pairs have distance ~0 and different-source pairs ~sqrt(2).
    The optional noise comes from one seeded stream (``frame`` is ignored).
    """

    def __init__(self, dim: int = 8, noise: float = 0.0, seed: int = 0):
        self.dim = dim
        self.noise = noise
        self._rng = np.random.default_rng(seed)
        self._latents: dict[object, np.ndarray] = {}

    def _latent(self, source_id) -> np.ndarray:
        if source_id not in self._latents:
            # Seed derived arithmetically (not via hash(), which is
            # randomized per process) so tests are fully deterministic.
            numeric = -1 if source_id is None else int(source_id)
            local = np.random.default_rng(90_001 + numeric * 7919)
            vec = local.normal(size=self.dim)
            self._latents[source_id] = vec / np.linalg.norm(vec)
        return self._latents[source_id]

    def extract(self, detection, frame: int) -> np.ndarray:
        latent = self._latent(detection.source_id)
        if self.noise == 0.0:
            return latent.copy()
        noisy = latent + self._rng.normal(0, self.noise, size=self.dim)
        return noisy / np.linalg.norm(noisy)


def stub_scorer(noise: float = 0.0, seed: int = 0):
    """A ReidScorer over a StubReidModel with a fresh cost clock."""
    from repro.reid import CostModel, ReidScorer

    return ReidScorer(StubReidModel(noise=noise, seed=seed), cost=CostModel())


def planted_pairs(n_distinct: int = 8, track_len: int = 6):
    """A pair set with exactly one polyonymous pair planted.

    Tracks 0..n-1 view distinct sources; track n re-views source 0 after a
    temporal gap.  Returns (pairs, planted_key).
    """
    from repro.core.pairs import build_track_pairs

    tracks = [
        make_track(
            i,
            list(range(track_len)),
            positions=[(100.0 * i + 5 * f, 50.0) for f in range(track_len)],
            source_id=i,
        )
        for i in range(n_distinct)
    ]
    fragment = make_track(
        n_distinct,
        list(range(track_len + 3, 2 * track_len + 3)),
        positions=[(30.0 + 5 * f, 52.0) for f in range(track_len)],
        source_id=0,
    )
    tracks.append(fragment)
    pairs = build_track_pairs(tracks)
    return pairs, (0, n_distinct)
