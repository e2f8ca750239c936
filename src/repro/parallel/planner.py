"""Deterministic shard planning for window-parallel execution.

The paper's windowing (§II) makes per-window merge work embarrassingly
parallel: each window owns a disjoint track set and its pair set ``P_c``
is evaluated independently.  The :class:`ShardPlanner` turns that shape
into an execution plan — which worker runs which windows — while keeping
every random draw a pure function of ``(seed, window index)``:

* **Shard assignment** is round-robin over the busy (non-empty) window
  indices, so the plan depends only on the window list and the worker
  count, never on scheduling order.
* **Fault seed substreams** are derived per window with
  :meth:`numpy.random.SeedSequence.spawn`: window ``c`` always receives
  the ``c``-th child of each fault seam's root sequence, so its fault
  schedules are identical whether it runs first, last, in-process or in
  a pool of eight workers.  ReID noise needs no substream: it is keyed
  by detection (:mod:`repro.reid.model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.faults.profiles import FaultProfile


@dataclass(frozen=True)
class WindowSeeds:
    """Per-window seed substreams, one per fault seam (all ``None`` when
    the run has no fault profile).

    Attributes:
        call: substream of the ReID call-fault schedule.
        corrupt: substream of the feature-corruption schedule.
        crash: substream of the window-crash schedule.
    """

    call: np.random.SeedSequence | None = None
    corrupt: np.random.SeedSequence | None = None
    crash: np.random.SeedSequence | None = None


@dataclass(frozen=True)
class Shard:
    """One worker's slice of the run.

    Attributes:
        shard_id: 0-based shard index.
        window_indices: the window indices this shard executes, in
            ascending order.
    """

    shard_id: int
    window_indices: tuple[int, ...]


@dataclass(frozen=True)
class ShardPlan:
    """A complete, deterministic window → shard assignment.

    Attributes:
        n_workers: the worker count the plan was built for.
        shards: the non-empty shards (at most ``n_workers``).
    """

    n_workers: int
    shards: tuple[Shard, ...]

    def covered_indices(self) -> list[int]:
        """Every window index the plan executes, across all shards."""
        covered: list[int] = []
        for shard in self.shards:
            covered.extend(shard.window_indices)
        return covered


class ShardPlanner:
    """Assigns windows to shards deterministically.

    Args:
        n_workers: target worker count (≥ 1).  The plan never produces
            more shards than there are busy windows.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers

    def plan(self, window_indices: Sequence[int]) -> ShardPlan:
        """Round-robin ``window_indices`` over the workers.

        Shard ``i`` receives indices ``sorted(window_indices)[i::n]`` —
        a pure function of the input and the worker count, independent
        of any runtime scheduling.  Empty shards are dropped.
        """
        ordered = sorted(window_indices)
        if len(set(ordered)) != len(ordered):
            raise ValueError("window_indices must be unique")
        shards = []
        for shard_id in range(self.n_workers):
            assigned = tuple(ordered[shard_id :: self.n_workers])
            if assigned:
                shards.append(Shard(shard_id, assigned))
        return ShardPlan(n_workers=self.n_workers, shards=tuple(shards))


def window_seeds(
    n_windows: int,
    fault_profile: FaultProfile | None = None,
) -> list[WindowSeeds]:
    """Derive every window's fault seed substreams.

    Window ``c``'s streams are the ``c``-th children of the profile's
    per-seam root sequences (see
    :meth:`~repro.faults.profiles.FaultProfile.window_seam_seeds`), so a
    window's fault schedule is fixed by ``(seed, c)`` alone.
    """
    if n_windows < 0:
        raise ValueError("n_windows must be non-negative")
    if fault_profile is None:
        return [WindowSeeds() for _ in range(n_windows)]
    return [
        WindowSeeds(call=call, corrupt=corrupt, crash=crash)
        for call, corrupt, crash in fault_profile.window_seam_seeds(n_windows)
    ]


def single_window_seeds(
    index: int,
    fault_profile: FaultProfile | None = None,
) -> WindowSeeds:
    """One window's seed substreams, without knowing the window count.

    Bit-identical to ``window_seeds(n, fault_profile)[index]`` for every
    ``n > index`` — ``SeedSequence`` children are addressable directly
    by spawn key, so the streaming service (which never knows how many
    windows an unbounded feed will produce) derives exactly the seeds
    the batch planner would have handed out.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    if fault_profile is None:
        return WindowSeeds()
    call, corrupt, crash = fault_profile.window_seam_seed(index)
    return WindowSeeds(call=call, corrupt=corrupt, crash=crash)
