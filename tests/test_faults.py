"""Unit tests for repro.faults (injectors, profiles, determinism)."""

import numpy as np
import pytest

from helpers import make_detection, StubReidModel

from repro.faults import (
    ArmedCrash,
    FaultProfile,
    FaultyReidModel,
    FeatureCorruptionInjector,
    FrameDropInjector,
    PROFILES,
    ReidCallFaultInjector,
    ReidFaultError,
    ReidTimeoutError,
    WindowCrashError,
    fault_profile,
)


def fault_pattern(injector: ReidCallFaultInjector, n: int = 50) -> list[str]:
    """The outcome of n consecutive calls, as a compact trace."""
    trace = []
    for _ in range(n):
        try:
            injector.check()
            trace.append("ok")
        except ReidTimeoutError:
            trace.append("timeout")
        except ReidFaultError:
            trace.append("fail")
    return trace


class TestReidCallFaultInjector:
    def test_zero_rates_never_fail(self):
        injector = ReidCallFaultInjector(np.random.default_rng(0))
        assert fault_pattern(injector) == ["ok"] * 50

    def test_full_rate_always_fails(self):
        injector = ReidCallFaultInjector(
            np.random.default_rng(0), failure_rate=1.0
        )
        assert fault_pattern(injector) == ["fail"] * 50
        assert injector.n_failures == 50

    def test_same_seed_same_schedule(self):
        def trace(seed):
            return fault_pattern(
                ReidCallFaultInjector(
                    np.random.default_rng(seed),
                    failure_rate=0.3,
                    timeout_rate=0.2,
                )
            )

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)

    def test_timeout_carries_penalty(self):
        injector = ReidCallFaultInjector(
            np.random.default_rng(0),
            timeout_rate=1.0,
            timeout_penalty_ms=75.0,
        )
        with pytest.raises(ReidTimeoutError) as excinfo:
            injector.check()
        assert excinfo.value.penalty_ms == 75.0

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            ReidCallFaultInjector(np.random.default_rng(0), failure_rate=1.5)
        with pytest.raises(ValueError):
            ReidCallFaultInjector(np.random.default_rng(0), timeout_rate=-0.1)


class TestFeatureCorruptionInjector:
    def test_nan_mode_produces_all_nan(self):
        injector = FeatureCorruptionInjector(
            np.random.default_rng(0), rate=1.0, mode="nan"
        )
        out = injector.corrupt(np.ones(8))
        assert np.all(np.isnan(out))
        assert injector.n_corrupted == 1

    def test_swap_mode_returns_previous_feature(self):
        injector = FeatureCorruptionInjector(
            np.random.default_rng(0), rate=1.0, mode="swap"
        )
        first = np.full(8, 1.0)
        second = np.full(8, 2.0)
        # First call has nothing to swap with; the feature passes through.
        assert np.allclose(injector.corrupt(first), 1.0)
        assert np.allclose(injector.corrupt(second), 1.0)

    def test_zero_rate_is_identity(self):
        injector = FeatureCorruptionInjector(np.random.default_rng(0))
        feature = np.arange(4.0)
        assert injector.corrupt(feature) is feature

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FeatureCorruptionInjector(
                np.random.default_rng(0), rate=0.5, mode="flip"
            )


class TestFrameDropInjector:
    def test_drops_are_blank_and_aligned(self):
        frames = [[make_detection(10.0 * i)] for i in range(100)]
        injector = FrameDropInjector(np.random.default_rng(3), rate=0.3)
        out = injector.apply(frames)
        assert len(out) == len(frames)
        assert injector.n_dropped == sum(1 for f in out if f == [])
        assert 0 < injector.n_dropped < 100

    def test_zero_rate_copies_frames(self):
        frames = [[make_detection()], []]
        out = FrameDropInjector(np.random.default_rng(0)).apply(frames)
        assert out == frames
        assert out is not frames

    def test_same_seed_drops_same_frames(self):
        frames = [[make_detection()] for _ in range(50)]

        def dropped(seed):
            injector = FrameDropInjector(
                np.random.default_rng(seed), rate=0.4
            )
            return [i for i, f in enumerate(injector.apply(frames)) if not f]

        assert dropped(5) == dropped(5)


class TestWindowCrash:
    def test_armed_crash_fires_exactly_once(self):
        armed = ArmedCrash(calls_left=2, window_index=0)
        armed.tick()
        armed.tick()
        with pytest.raises(WindowCrashError):
            armed.tick()
        assert armed.fired
        armed.tick()  # the replacement worker survives

    def test_full_rate_arms_every_window(self):
        profile = fault_profile("window-crash", seed=11)
        crasher = profile.window_crasher()
        armed = [crasher.arm(c) for c in range(10)]
        assert all(a is not None for a in armed)
        assert all(
            profile.crash_min_calls
            <= a.calls_left
            <= profile.crash_max_calls
            for a in armed
        )

    def test_same_seed_same_countdowns(self):
        def countdowns(seed):
            crasher = fault_profile("window-crash", seed=seed).window_crasher()
            return [crasher.arm(c).calls_left for c in range(10)]

        assert countdowns(4) == countdowns(4)


class TestFaultyReidModel:
    def test_failed_call_does_not_advance_model_rng(self):
        detection = make_detection()
        plain = StubReidModel(noise=0.1, seed=0)
        faulty_inner = StubReidModel(noise=0.1, seed=0)
        injector = ReidCallFaultInjector(
            np.random.default_rng(0), failure_rate=1.0
        )
        faulty = FaultyReidModel(faulty_inner, call_injector=injector)
        for _ in range(3):
            with pytest.raises(ReidFaultError):
                faulty.extract(detection, 0)
        injector.failure_rate = 0.0
        # After three failed calls the wrapped model's noise stream is
        # untouched: the next extraction matches a fault-free model's first.
        assert np.allclose(
            faulty.extract(detection, 0), plain.extract(detection, 0)
        )

    def test_rng_state_roundtrip_replays_schedule(self):
        detection = make_detection()
        profile = FaultProfile(
            reid_failure_rate=0.3, corrupt_rate=0.3, corrupt_mode="nan", seed=9
        )
        # Noise-free stub: the trace depends only on the injector RNGs,
        # which is exactly what rng_state() captures.
        model = profile.wrap_model(StubReidModel(noise=0.0, seed=1))
        for _ in range(5):
            try:
                model.extract(detection, 0)
            except ReidFaultError:
                pass
        saved = model.rng_state()

        def trace(m):
            out = []
            for _ in range(20):
                try:
                    out.append(float(np.nansum(m.extract(detection, 0))))
                except ReidFaultError:
                    out.append(None)
            return out

        first = trace(model)
        model.set_rng_state(saved)
        assert trace(model) == first


class TestProfiles:
    def test_registry_names(self):
        assert {
            "flaky-reid",
            "corrupt-features",
            "swapped-features",
            "window-crash",
            "drop-frames",
            "reid-offline",
            "chaos",
        } <= set(PROFILES)

    def test_lookup_unknown_lists_known(self):
        with pytest.raises(KeyError, match="flaky-reid"):
            fault_profile("no-such-profile")

    def test_with_seed_is_a_distinct_profile(self):
        base = fault_profile("flaky-reid")
        reseeded = fault_profile("flaky-reid", seed=99)
        assert reseeded.seed == 99
        assert base.seed != 99  # registry entry untouched

    def test_injects_reid_faults_property(self):
        assert fault_profile("flaky-reid").injects_reid_faults
        assert fault_profile("corrupt-features").injects_reid_faults
        assert not fault_profile("window-crash").injects_reid_faults
        assert not fault_profile("drop-frames").injects_reid_faults

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultProfile(reid_failure_rate=2.0)
        with pytest.raises(ValueError):
            FaultProfile(corrupt_mode="garbage")

    def test_seams_draw_independent_streams(self):
        """Enabling one seam never perturbs another seam's schedule."""
        profile = FaultProfile(
            reid_failure_rate=0.5, window_crash_rate=1.0, seed=3
        )
        lone = FaultProfile(window_crash_rate=1.0, seed=3)
        a = [profile.window_crasher().arm(c).calls_left for c in range(5)]
        b = [lone.window_crasher().arm(c).calls_left for c in range(5)]
        assert a == b
