"""Unit tests for repro.track.base data structures."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from helpers import make_detection, make_track

from repro.core.pairs import TrackPair
from repro.detect import Detection
from repro.geometry import BBox
from repro.reid import SimReIDModel
from repro.track.base import Track, TrackObservation


class TestTrack:
    def test_append_increasing_frames(self):
        track = Track(0)
        track.append(3, make_detection())
        track.append(5, make_detection())
        assert track.frames == [3, 5]

    def test_append_non_increasing_rejected(self):
        track = Track(0)
        track.append(3, make_detection())
        with pytest.raises(ValueError):
            track.append(3, make_detection())
        with pytest.raises(ValueError):
            track.append(2, make_detection())

    def test_empty_track_properties_raise(self):
        track = Track(0)
        with pytest.raises(ValueError):
            _ = track.first_frame
        with pytest.raises(ValueError):
            _ = track.last_frame

    def test_len_and_bboxes(self):
        track = make_track(0, [0, 1, 2])
        assert len(track) == 3
        assert len(track.bboxes) == 3

    def test_dominant_source_majority(self):
        track = Track(0)
        track.append(0, make_detection(source_id=1))
        track.append(1, make_detection(source_id=2))
        track.append(2, make_detection(source_id=2))
        assert track.dominant_source() == 2

    def test_dominant_source_majority_clutter_is_none(self):
        """Clutter participates in the vote: a mostly-false-positive track
        has no credible GT identity."""
        track = Track(0)
        track.append(0, make_detection(source_id=None))
        track.append(1, make_detection(source_id=None))
        track.append(2, make_detection(source_id=4))
        assert track.dominant_source() is None

    def test_dominant_source_real_plurality_wins(self):
        track = Track(0)
        track.append(0, make_detection(source_id=None))
        track.append(1, make_detection(source_id=4))
        track.append(2, make_detection(source_id=4))
        assert track.dominant_source() == 4

    def test_dominant_source_all_clutter(self):
        track = Track(0)
        track.append(0, make_detection(source_id=None))
        assert track.dominant_source() is None

    def test_dominant_source_empty(self):
        assert Track(0).dominant_source() is None

    def test_overlaps_frames(self):
        a = make_track(0, [0, 1, 2, 3])
        b = make_track(1, [3, 4])
        c = make_track(2, [10, 11])
        assert a.overlaps_frames(b)
        assert b.overlaps_frames(a)
        assert not a.overlaps_frames(c)


class TestTrackObservation:
    def test_bbox_shortcut(self):
        detection = make_detection(10, 20, 30, 40)
        obs = TrackObservation(5, detection)
        assert obs.bbox is detection.bbox
        assert obs.frame == 5


_coordinate = st.floats(0.0, 2000.0, allow_nan=False, allow_infinity=False)
_unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def _scalar(draw, values):
    """A unit-interval value as a float or a numpy scalar."""
    value = draw(values)
    kind = draw(st.sampled_from([float, np.float64, np.float32]))
    return kind(value)


@st.composite
def _detection(draw):
    x1, y1 = draw(_coordinate), draw(_coordinate)
    w, h = draw(_coordinate), draw(_coordinate)
    return Detection(
        BBox(x1, y1, x1 + w, y1 + h),
        draw(_scalar(_unit)),
        draw(st.none() | st.integers(0, 2**31)),
        draw(_scalar(_unit)),
    )


@st.composite
def _track(draw, track_id=None):
    frames = sorted(draw(st.sets(st.integers(0, 10**6), max_size=12)))
    track = Track(
        draw(st.integers(0, 10**6)) if track_id is None else track_id
    )
    for frame in frames:
        track.append(frame, draw(_detection()))
    return track


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value))


class TestTrackColumnarPickle:
    """A track pickles as numpy columns and rebuilds equal observations."""

    @given(_track())
    def test_roundtrip_equal(self, track):
        clone = _roundtrip(track)
        assert clone == track
        for ours, theirs in zip(clone.observations, track.observations):
            assert ours.detection.source_id == theirs.detection.source_id
            assert type(ours.frame) is int

    @given(_track())
    def test_deepcopy_equal(self, track):
        assert copy.deepcopy(track) == track

    def test_empty_track(self):
        clone = _roundtrip(Track(7))
        assert clone == Track(7)
        assert clone.observations == []

    def test_clutter_source_survives(self):
        track = make_track(3, [0, 1, 2], source_id=None)
        clone = _roundtrip(track)
        assert [o.detection.source_id for o in clone.observations] == [
            None, None, None
        ]
        assert clone.dominant_source() is None

    def test_negative_source_id_rejected(self):
        """``-1`` marks clutter in the columns, so it cannot be an id."""
        with pytest.raises(ValueError):
            pickle.dumps(make_track(4, [0, 1], source_id=-1))

    @given(_track(track_id=1), _track(track_id=2), _track(track_id=3))
    def test_shared_track_stays_one_object(self, first, second, third):
        assume(first and second and third)
        pairs = [TrackPair(first, second), TrackPair(first, third)]
        one, two = _roundtrip(pairs)
        assert one.track_a is two.track_a
        assert one.track_a == first

    def test_pickled_model_matches_bit_for_bit(self, world, tracks):
        """Keyed noise: a shipped model on shipped detections extracts
        exactly the features the originals give."""
        clutter = make_track(10_000, [3, 4, 5], source_id=None)
        tracks = [*tracks, clutter]
        model = SimReIDModel(world, seed=9)
        shipped_model = _roundtrip(model)
        shipped_tracks = _roundtrip(tracks)
        embed = model.tracker_embedder()
        shipped_embed = shipped_model.tracker_embedder()
        for track, shipped in zip(tracks, shipped_tracks):
            for ours, theirs in zip(track.observations, shipped.observations):
                assert np.array_equal(
                    model.extract(ours.detection, ours.frame),
                    shipped_model.extract(theirs.detection, theirs.frame),
                )
                assert np.array_equal(
                    embed(ours.detection), shipped_embed(theirs.detection)
                )

    def test_pickled_model_carries_no_world(self, world):
        data = pickle.dumps(SimReIDModel(world, seed=9))
        assert b"GroundTruthState" not in data
        assert b"VideoGroundTruth" not in data
