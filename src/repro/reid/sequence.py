"""Sequence-input ReID (the paper's footnote 2).

Some ReID models accept *fixed-length image sequences* instead of single
crops; the paper notes its techniques "equally apply to this case".  This
module makes that concrete: :class:`SequenceReidScorer` is a drop-in
:class:`~repro.reid.scorer.ReidScorer` whose ``distance(track_a, ia,
track_b, ib)`` compares *snippets* — mean-pooled features of
``snippet_length`` consecutive crops starting at the given indices —
rather than single crops.

Because every merging algorithm talks to the scorer through the same
``distance`` interface, TMerge/PS/LCB run unmodified on sequence features:
each draw is more informative (pooling suppresses per-crop noise) but
costs up to ``snippet_length`` extractions.
"""

from __future__ import annotations

import numpy as np

from repro.reid.cost import CostModel
from repro.reid.model import SimReIDModel
from repro.reid.scorer import FeatureCache, ReidScorer
from repro.track.base import Track


class SequenceReidScorer(ReidScorer):
    """BBox-*snippet* distance oracle.

    Args:
        model: the per-crop feature extractor.
        cost: simulated clock.
        cache: per-crop feature cache (snippets share crop features).
        snippet_length: crops pooled per snippet; 1 degrades to the plain
            scorer.
    """

    def __init__(
        self,
        model: SimReIDModel,
        cost: CostModel | None = None,
        cache: FeatureCache | None = None,
        snippet_length: int = 4,
    ) -> None:
        if snippet_length < 1:
            raise ValueError("snippet_length must be >= 1")
        super().__init__(model, cost=cost, cache=cache)
        self.snippet_length = snippet_length

    def _snippet_indices(self, track: Track, start: int) -> range:
        """Crop indices of the snippet anchored at ``start`` (clamped so a
        full-length snippet fits whenever the track allows one)."""
        length = min(self.snippet_length, len(track))
        start = min(max(start, 0), len(track) - length)
        return range(start, start + length)

    def snippet_feature(self, track: Track, start: int) -> np.ndarray:
        """Mean-pooled, re-normalized feature of a snippet."""
        features = [
            self.feature(track, index)
            for index in self._snippet_indices(track, start)
        ]
        pooled = np.mean(features, axis=0)
        norm = np.linalg.norm(pooled)
        return pooled / norm if norm > 0 else pooled

    def distance(
        self, track_a: Track, index_a: int, track_b: Track, index_b: int
    ) -> float:
        """Distance between the snippets anchored at the given indices."""
        fa = self.snippet_feature(track_a, index_a)
        fb = self.snippet_feature(track_b, index_b)
        self.cost.charge_distance(1)
        return float(np.linalg.norm(fa - fb))

    def distances_batched(
        self,
        requests: list[tuple[Track, int, Track, int]],
        batch_size: int,
    ) -> list[float]:
        """Batched snippet distances (one GPU call covers the batch's
        uncached crops, as in the single-crop scorer)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not requests:
            return []
        needed: dict[tuple[int, int], tuple[Track, int]] = {}
        for track_a, ia, track_b, ib in requests:
            for track, anchor in ((track_a, ia), (track_b, ib)):
                for index in self._snippet_indices(track, anchor):
                    key = (track.track_id, index)
                    if key not in self.cache and key not in needed:
                        needed[key] = (track, index)
        if needed:
            self.cost.charge_features(
                list(needed), 2 * batch_size * self.snippet_length
            )
            for key, (track, index) in needed.items():
                self.cache.put(key, self._extract(track, index))

        self.cost.charge_distance(len(requests))
        distances = []
        for track_a, ia, track_b, ib in requests:
            fa = self._pooled_from_cache(track_a, ia)
            fb = self._pooled_from_cache(track_b, ib)
            distances.append(float(np.linalg.norm(fa - fb)))
        return distances

    def _pooled_from_cache(self, track: Track, anchor: int) -> np.ndarray:
        features = [
            self.cache.get((track.track_id, index))
            for index in self._snippet_indices(track, anchor)
        ]
        pooled = np.mean(features, axis=0)
        norm = np.linalg.norm(pooled)
        return pooled / norm if norm > 0 else pooled
