"""Unit tests for repro.reid.model (the simulated ReID network).

Extraction noise is keyed by ``(seed, frame, box)``, so independent
draws for the same object come from distinct frames (or, for the
frame-less tracker embedder, distinct boxes).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_detection, tiny_world

from repro.reid import CostModel, FeatureCache, ReidParams, ReidScorer
from repro.reid import SimReIDModel
from repro.track.base import Track, TrackObservation


@pytest.fixture(scope="module")
def reid_world():
    return tiny_world(n_frames=60, seed=1)


def detection_for(world, object_id, visibility=1.0, shift=0.0):
    obj = world.objects[object_id]
    box = obj.bbox_at(obj.spawn_frame)
    return make_detection(
        box.x1 + shift, box.y1, box.width, box.height,
        source_id=object_id, visibility=visibility,
    )


class TestReidParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReidParams(base_noise=-0.1)
        with pytest.raises(ValueError):
            ReidParams(outlier_prob=1.5)
        with pytest.raises(ValueError):
            ReidParams(dim=1)

    def test_dim_mismatch_rejected(self, reid_world):
        with pytest.raises(ValueError):
            SimReIDModel(reid_world, params=ReidParams(dim=999))

    @pytest.mark.parametrize("seed", (-1, 2**64))
    def test_seed_outside_a_philox_key_word_rejected(self, reid_world, seed):
        with pytest.raises(ValueError, match="seed"):
            SimReIDModel(reid_world, seed=seed)


class TestFeatureGeometry:
    def test_unit_norm(self, reid_world):
        model = SimReIDModel(reid_world, seed=0)
        oid = next(iter(reid_world.objects))
        feature = model.extract(detection_for(reid_world, oid), 0)
        assert np.linalg.norm(feature) == pytest.approx(1.0)

    def test_same_object_closer_than_different(self, reid_world):
        model = SimReIDModel(reid_world, seed=0)
        ids = list(reid_world.objects)[:2]
        same, diff = [], []
        for frame in range(0, 80, 2):
            fa = model.extract(detection_for(reid_world, ids[0]), frame)
            fb = model.extract(detection_for(reid_world, ids[0]), frame + 1)
            fc = model.extract(detection_for(reid_world, ids[1]), frame)
            same.append(np.linalg.norm(fa - fb))
            diff.append(np.linalg.norm(fa - fc))
        assert np.mean(same) < np.mean(diff)

    def test_occlusion_increases_noise(self, reid_world):
        params = ReidParams(
            dim=reid_world.config.appearance_dim,
            quality_sigma=0.0,
            outlier_prob=0.0,
            occlusion_outlier=0.0,
            pose_scale=0.0,
        )
        model = SimReIDModel(reid_world, params=params, seed=0)
        oid = next(iter(reid_world.objects))
        latent = reid_world.objects[oid].appearance

        def mean_error(visibility):
            errors = []
            for frame in range(50):
                f = model.extract(
                    detection_for(reid_world, oid, visibility=visibility),
                    frame,
                )
                errors.append(np.linalg.norm(f - latent))
            return np.mean(errors)

        assert mean_error(0.2) > mean_error(1.0)

    def test_clutter_latent_is_stable(self, reid_world):
        params = ReidParams(
            dim=reid_world.config.appearance_dim,
            base_noise=0.0, occlusion_noise=0.0, quality_sigma=0.0,
            outlier_prob=0.0, occlusion_outlier=0.0, pose_scale=0.0,
        )
        model = SimReIDModel(reid_world, params=params, seed=0)
        clutter = make_detection(33.0, 44.0, 20.0, 40.0, source_id=None)
        f1 = model.extract(clutter, 0)
        f2 = model.extract(clutter, 1)
        assert np.allclose(f1, f2)

    def test_distinct_clutter_gets_distinct_latents(self, reid_world):
        params = ReidParams(
            dim=reid_world.config.appearance_dim,
            base_noise=0.0, occlusion_noise=0.0, quality_sigma=0.0,
            outlier_prob=0.0, occlusion_outlier=0.0, pose_scale=0.0,
        )
        model = SimReIDModel(reid_world, params=params, seed=0)
        f1 = model.extract(make_detection(10, 10, 20, 40, source_id=None), 0)
        f2 = model.extract(make_detection(300, 50, 20, 40, source_id=None), 0)
        assert np.linalg.norm(f1 - f2) > 0.5

    def test_zero_noise_returns_latent(self, reid_world):
        params = ReidParams(
            dim=reid_world.config.appearance_dim,
            base_noise=0.0, occlusion_noise=0.0, quality_sigma=0.0,
            outlier_prob=0.0, occlusion_outlier=0.0, pose_scale=0.0,
        )
        model = SimReIDModel(reid_world, params=params, seed=0)
        oid = next(iter(reid_world.objects))
        f = model.extract(detection_for(reid_world, oid), 0)
        assert np.allclose(f, reid_world.objects[oid].appearance, atol=1e-9)

    def test_pose_creates_per_draw_scatter(self, reid_world):
        """With pose active, repeated same-object distances vary much more
        than with isotropic noise alone (the low-dimensional displacement
        does not concentrate)."""
        oid = next(iter(reid_world.objects))

        def draw_std(pose_scale):
            params = ReidParams(
                dim=reid_world.config.appearance_dim,
                base_noise=0.1, occlusion_noise=0.0, quality_sigma=0.0,
                outlier_prob=0.0, occlusion_outlier=0.0,
                pose_scale=pose_scale,
            )
            model = SimReIDModel(reid_world, params=params, seed=0)
            distances = []
            for frame in range(0, 160, 2):
                fa = model.extract(detection_for(reid_world, oid), frame)
                fb = model.extract(detection_for(reid_world, oid), frame + 1)
                distances.append(np.linalg.norm(fa - fb))
            return np.std(distances)

        assert draw_std(0.8) > 2.0 * draw_std(0.0)

    def test_outliers_produce_bimodal_distances(self, reid_world):
        params = ReidParams(
            dim=reid_world.config.appearance_dim,
            base_noise=0.05, occlusion_noise=0.0, quality_sigma=0.0,
            outlier_prob=0.3, occlusion_outlier=0.0, outlier_noise=2.0,
            pose_scale=0.0,
        )
        model = SimReIDModel(reid_world, params=params, seed=0)
        oid = next(iter(reid_world.objects))
        distances = [
            np.linalg.norm(
                model.extract(detection_for(reid_world, oid), frame)
                - model.extract(detection_for(reid_world, oid), frame + 1)
            )
            for frame in range(0, 240, 2)
        ]
        distances = np.array(distances)
        clean = (distances < 0.3).sum()
        garbage = (distances > 0.8).sum()
        assert clean > 20
        assert garbage > 20


class TestTrackerEmbedder:
    def test_noisier_than_main_model(self, reid_world):
        model = SimReIDModel(reid_world, seed=0)
        embed = model.tracker_embedder(noise_multiplier=3.0)
        oid = next(iter(reid_world.objects))
        latent = reid_world.objects[oid].appearance
        main_err = np.mean([
            np.linalg.norm(
                model.extract(detection_for(reid_world, oid), frame) - latent
            )
            for frame in range(40)
        ])
        embed_err = np.mean([
            np.linalg.norm(
                embed(detection_for(reid_world, oid, shift=0.01 * i)) - latent
            )
            for i in range(40)
        ])
        assert embed_err > main_err

    def test_embedder_unit_norm(self, reid_world):
        model = SimReIDModel(reid_world, seed=0)
        embed = model.tracker_embedder()
        oid = next(iter(reid_world.objects))
        f = embed(detection_for(reid_world, oid))
        assert np.linalg.norm(f) == pytest.approx(1.0)

    def test_embedder_keyed_in_its_own_domain(self, reid_world):
        model = SimReIDModel(reid_world, seed=0)
        embed = model.tracker_embedder(noise_multiplier=1.0)
        detection = detection_for(reid_world, next(iter(reid_world.objects)))
        assert np.array_equal(embed(detection), embed(detection))
        assert not np.allclose(embed(detection), model.extract(detection, 0))


def _keyed_detections(world, count):
    """``count`` distinct (detection, frame) keys: objects, clutter,
    occluded crops and repeated boxes at different frames."""
    ids = list(world.objects)
    keys = []
    for i in range(count):
        if i % 5 == 4:
            detection = make_detection(
                10.0 + i, 20.0, 30.0, 60.0, source_id=None
            )
        else:
            detection = detection_for(
                world, ids[i % len(ids)], visibility=0.3 + 0.1 * (i % 7)
            )
        keys.append((detection, i))
    return keys


class TestKeyedNoise:
    """A feature is a pure function of ``(seed, frame, box)``."""

    @settings(max_examples=25, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=12),
        order_seed=st.integers(min_value=0, max_value=2**32 - 1),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_extract_is_pure(self, reid_world, count, order_seed, seed):
        keys = _keyed_detections(reid_world, count)
        model = SimReIDModel(reid_world, seed=seed)
        reference = [model.extract(d, frame) for d, frame in keys]

        # Permuted extraction order on the same instance.
        order = np.random.default_rng(order_seed).permutation(count)
        for i in order:
            detection, frame = keys[i]
            assert np.array_equal(
                model.extract(detection, frame), reference[i]
            )
        # A fresh instance and a pickle round trip.
        fresh = SimReIDModel(reid_world, seed=seed)
        clone = pickle.loads(pickle.dumps(model))
        for (detection, frame), expected in zip(keys, reference):
            assert np.array_equal(fresh.extract(detection, frame), expected)
            assert np.array_equal(clone.extract(detection, frame), expected)

        # Through the scorer, with a warm shared cache or a cold one.
        track = Track(0, [TrackObservation(f, d) for d, f in keys])
        cache = FeatureCache()
        warm = ReidScorer(model, cost=CostModel(), cache=cache)
        for i in order:
            warm.feature(track, int(i))
        for i, expected in enumerate(reference):
            cold = ReidScorer(fresh, cost=CostModel(), cache=FeatureCache())
            assert np.array_equal(cold.feature(track, i), expected)
            assert np.array_equal(
                ReidScorer(clone, cache=cache).feature(track, i), expected
            )

    def test_seed_and_frame_change_the_noise(self, reid_world):
        detection = detection_for(reid_world, next(iter(reid_world.objects)))
        model = SimReIDModel(reid_world, seed=0)
        base = model.extract(detection, 3)
        assert not np.allclose(base, model.extract(detection, 4))
        assert not np.allclose(
            base, SimReIDModel(reid_world, seed=1).extract(detection, 3)
        )
