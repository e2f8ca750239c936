"""Window-sharded parallel execution of the per-window merge work.

Public surface:

* :class:`~repro.parallel.planner.ShardPlanner` /
  :class:`~repro.parallel.planner.ShardPlan` — deterministic window →
  shard assignment and per-window seed substream derivation.
* :class:`~repro.parallel.executor.ParallelExecutor` — process/thread
  pool fan-out with ordered result collection and an inline serial
  fallback for one worker.
* :func:`~repro.parallel.executor.run_windows` — the mid-level API the
  ingestion pipeline and experiment sweeps call;
  :func:`~repro.parallel.executor.shard_tasks` builds the shard tasks
  it ships.

See DESIGN.md §9 for the determinism argument.
"""

from repro.parallel.executor import (
    BACKENDS,
    ParallelExecutor,
    ParallelRun,
    ShardTask,
    WindowOutcome,
    WindowTask,
    execute_shard,
    run_windows,
    shard_tasks,
)
from repro.parallel.planner import (
    Shard,
    ShardPlan,
    ShardPlanner,
    WindowSeeds,
    window_seeds,
)

__all__ = [
    "BACKENDS",
    "ParallelExecutor",
    "ParallelRun",
    "Shard",
    "ShardPlan",
    "ShardPlanner",
    "ShardTask",
    "WindowOutcome",
    "WindowSeeds",
    "WindowTask",
    "execute_shard",
    "run_windows",
    "shard_tasks",
    "window_seeds",
]
