"""Simulated cost accounting for ReID invocations.

The paper reports runtime and FPS dominated by ReID model inference on a
TITAN Xp GPU.  We reproduce the *cost structure* rather than the hardware:
every feature extraction and distance evaluation charges simulated
milliseconds to a :class:`CostModel`, and batched execution amortizes a
fixed launch overhead over the batch (``t(B) = t_launch + B · t_item``).

Default parameters are calibrated to the paper's §I anchor: a MOT-17 video
with ~11.9k BBoxes and ~8.7M BBox pairs takes the brute-force baseline
"more than 3 minutes" — with 5 ms per extraction and 14 µs per distance,
11.9k × 5 ms + 8.7M × 14 µs ≈ 181 s.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostParams:
    """Simulated timing constants, all in milliseconds.

    Attributes:
        extract_ms: one unbatched ReID forward pass (one BBox crop).
        batch_launch_ms: fixed overhead of one batched ReID call.
        batch_item_ms: marginal per-crop cost inside a batched call.
        distance_ms: one feature-pair Euclidean distance on the CPU.
        overhead_ms: bookkeeping charged per algorithm iteration (sampling,
            posterior updates); keeps non-ReID work from being free.
    """

    extract_ms: float = 5.0
    batch_launch_ms: float = 4.0
    batch_item_ms: float = 0.45
    distance_ms: float = 0.014
    overhead_ms: float = 0.02

    def __post_init__(self) -> None:
        for name in (
            "extract_ms",
            "batch_launch_ms",
            "batch_item_ms",
            "distance_ms",
            "overhead_ms",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class CostModel:
    """Accumulates simulated time and invocation counts.

    All figures that report FPS or runtime read :attr:`seconds` from this
    clock; pytest-benchmark separately measures real wall time of the
    algorithm bodies.

    When a :class:`~repro.telemetry.Telemetry` is injected, every charge
    is mirrored into its counters (``reid.invocations``,
    ``reid.distances``, ``cost.simulated_ms``, …).  Telemetry counters
    are observability, not simulation state: checkpoint restores rewind
    the clock but never the counters, so a replayed window's ReID calls
    are counted again — exactly what a cost dashboard should show.

    Cache-backed extractions are charged through :meth:`charge_features`,
    which also records which features each charge paid for
    (:attr:`extract_log`).  The window fold
    (:class:`~repro.parallel.executor.WindowFold`) reads that record to
    charge every feature once per video.
    """

    def __init__(
        self, params: CostParams | None = None, telemetry=None
    ) -> None:
        self.params = params or CostParams()
        #: Injected :class:`~repro.telemetry.Telemetry`, or ``None``.
        self.telemetry = telemetry
        self.reset()

    def reset(self) -> None:
        """Zero the clock and all counters."""
        self._ms = 0.0
        self.n_extractions = 0
        self.n_batched_extractions = 0
        self.n_batch_calls = 0
        self.n_distances = 0
        self.n_overheads = 0
        self.n_waits = 0
        self.wait_ms = 0.0
        #: One ``(batch, keys)`` entry per :meth:`charge_features` call,
        #: in charge order: ``batch`` is the batch law's call size (0 =
        #: unbatched) and ``keys`` the feature keys the charge paid for.
        self.extract_log: list[tuple[int, list[tuple[int, int]]]] = []

    @property
    def seconds(self) -> float:
        """Simulated elapsed seconds."""
        return self._ms / 1000.0

    @property
    def milliseconds(self) -> float:
        """Simulated elapsed milliseconds."""
        return self._ms

    def _record(self, ms: float, counter: str, amount: float) -> None:
        """Mirror one charge into the injected telemetry, if any."""
        if self.telemetry is None:
            return
        self.telemetry.count("cost.simulated_ms", ms)
        self.telemetry.count(counter, amount)

    def charge_extract(self, count: int = 1) -> None:
        """Charge ``count`` unbatched feature extractions."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.n_extractions += count
        self._ms += count * self.params.extract_ms
        self._record(
            count * self.params.extract_ms, "reid.invocations", count
        )

    def charge_extract_batched(self, count: int, batch_size: int) -> None:
        """Charge ``count`` extractions executed in batches of ``batch_size``.

        Each full or partial batch pays the launch overhead once plus the
        per-item cost; this is the amortization that makes the -B variants
        fast (§IV-F).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if count == 0:
            return
        n_calls = -(-count // batch_size)  # ceil division
        self.n_batched_extractions += count
        self.n_batch_calls += n_calls
        charged = (
            n_calls * self.params.batch_launch_ms
            + count * self.params.batch_item_ms
        )
        self._ms += charged
        self._record(charged, "reid.invocations", count)
        if self.telemetry is not None:
            self.telemetry.count("reid.batch_calls", n_calls)

    def charge_features(
        self, keys: list[tuple[int, int]], batch_size: int | None = None
    ) -> None:
        """Charge one extraction call for the cache-missing ``keys``.

        Unbatched (``batch_size=None``) or with the batch law, and
        recorded in :attr:`extract_log`.  Extractions that bypass the
        feature cache (the no-reuse PS/LCB paths) are charged with
        :meth:`charge_extract` instead and never logged.
        """
        if batch_size is None:
            self.charge_extract(len(keys))
        else:
            self.charge_extract_batched(len(keys), batch_size)
        self.extract_log.append((batch_size or 0, list(keys)))

    def charge_distance(self, count: int = 1) -> None:
        """Charge ``count`` feature-pair distance evaluations."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.n_distances += count
        self._ms += count * self.params.distance_ms
        self._record(
            count * self.params.distance_ms, "reid.distances", count
        )

    def charge_overhead(self, count: int = 1) -> None:
        """Charge ``count`` iterations of algorithm bookkeeping."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.n_overheads += count
        self._ms += count * self.params.overhead_ms
        self._record(
            count * self.params.overhead_ms, "cost.overheads", count
        )

    def charge_wait(self, ms: float) -> None:
        """Charge ``ms`` of simulated waiting (retry backoff, timeouts).

        The resilience layer accrues every backoff sleep and timeout
        penalty here, so resilience overhead shows up in the same
        simulated seconds every figure reports — never in wall time.
        """
        if ms < 0:
            raise ValueError("ms must be non-negative")
        self.n_waits += 1
        self.wait_ms += ms
        self._ms += ms
        self._record(ms, "resilience.wait_ms", ms)

    def state_dict(self) -> dict[str, float]:
        """Complete, restorable clock state (for window checkpoints)."""
        return {
            "ms": self._ms,
            "n_extractions": self.n_extractions,
            "n_batched_extractions": self.n_batched_extractions,
            "n_batch_calls": self.n_batch_calls,
            "n_distances": self.n_distances,
            "n_overheads": self.n_overheads,
            "n_waits": self.n_waits,
            "wait_ms": self.wait_ms,
        }

    def merge_state(self, state: dict[str, float]) -> None:
        """Add another clock's :meth:`state_dict` into this one.

        Used by the parallel engine (:mod:`repro.parallel`) to fold
        window-local clocks into the run-level clock in window-index
        order, so the aggregate is worker-count independent.  Pure
        accumulation — nothing is mirrored into telemetry (the worker
        counters already carried every per-charge record).
        """
        self._ms += float(state["ms"])
        self.n_extractions += int(state["n_extractions"])
        self.n_batched_extractions += int(state["n_batched_extractions"])
        self.n_batch_calls += int(state["n_batch_calls"])
        self.n_distances += int(state["n_distances"])
        self.n_overheads += int(state["n_overheads"])
        self.n_waits += int(state["n_waits"])
        self.wait_ms += float(state["wait_ms"])

    def load_state_dict(self, state: dict[str, float]) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        self._ms = float(state["ms"])
        self.n_extractions = int(state["n_extractions"])
        self.n_batched_extractions = int(state["n_batched_extractions"])
        self.n_batch_calls = int(state["n_batch_calls"])
        self.n_distances = int(state["n_distances"])
        self.n_overheads = int(state["n_overheads"])
        self.n_waits = int(state["n_waits"])
        self.wait_ms = float(state["wait_ms"])

    def snapshot(self) -> dict[str, float]:
        """Current counters, for reporting."""
        return {
            "seconds": self.seconds,
            "extractions": float(self.n_extractions),
            "batched_extractions": float(self.n_batched_extractions),
            "batch_calls": float(self.n_batch_calls),
            "distances": float(self.n_distances),
            "waits": float(self.n_waits),
            "wait_ms": self.wait_ms,
        }
