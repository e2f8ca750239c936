"""The window-sharded parallel execution engine.

Fans the per-window merge work (:func:`repro.core.pipeline.run_resilient_window`
plus merge ranking) out over a :mod:`concurrent.futures` process or
thread pool and reassembles the outcomes in window-index order.

Determinism model — one regime for every engine
-----------------------------------------------
Every window runs against its own execution state:

* its own copy of the shard's :class:`~repro.reid.model.SimReIDModel`
  prototype, whose noise is keyed by ``(reid_seed, detection)`` — a
  feature is a pure function of its key, and the copy starts with empty
  memos,
* a fresh :class:`~repro.reid.scorer.FeatureCache` and window-local
  :class:`~repro.reid.cost.CostModel` clock (starting at 0),
* fresh fault injectors on the window's seam substreams, and a fresh
  :class:`~repro.resilience.ResilientReidScorer` / circuit breaker,
* a private deep copy of the merger (its own checkpoint store).

A window's merge is therefore a pure function of ``(seed, window
index)`` — independent of worker count, backend and scheduling order.
With ``n_workers=1`` the same per-window tasks run inline in-process (no
pool); higher worker counts must reproduce that run exactly
(``tests/test_parallel_equivalence.py``).

What crosses the pool seam
--------------------------
Inline and pool runs exchange the same payloads, and each carries only
what a window reads.  A :class:`ShardTask` holds one ReID model
prototype — the latent table (object id → appearance) and the noise
parameters, never the world's per-frame ground truth — one detached
merger prototype and the shard's window tasks.  Pairs pickle by
reference to their tracks, so pickle's memo sends each track once per
shard, and a :class:`~repro.track.base.Track` pickles as three numpy
columns instead of one object per observation, detection and box.  A
:class:`WindowOutcome` returns its candidates as pair keys, and
:meth:`ParallelExecutor.run` maps them back onto the caller's own
pairs.  On the ``sharded-b8-pathtrack`` perfbench workload (seed 0,
episode 0, two shards) this cut a pickled task from 6.4–7.0 MB to
1.6–1.9 MB, a pickled outcome list from 2.3–2.6 MB to 0.14–0.17 MB,
and a fresh worker's unpickling from 0.63–0.77 s to 0.15–0.23 s,
against 0.5–0.7 s of shard compute.  What remains outside compute is
mostly the worker rebuilding observation objects from the columns.

The paper caches extracted features and reuses them across windows
(§IV-B), and window ``c`` pairs ``T_c`` with ``T_{c-1}`` (§II), so the
features of ``T_{c-1}`` can be extracted by windows ``c-1`` and ``c``
alone.  :class:`WindowFold` folds window outcomes in index order and
charges each feature once per video, to the lowest-index window that
extracts it: a window is refunded the extraction charges of features the
previous window already extracted, exactly as if it had found them in a
shared cache.  The fold reads only window outcomes in index order, so
the reuse discount is worker-count invariant too, and the run clock,
window ``simulated_seconds`` and cost counters equal those of one serial
loop over one shared cache (``tests/test_reid_reuse.py``).

Aggregation happens in window-index order regardless of completion
order: window clocks fold into the run clock via
:meth:`~repro.reid.cost.CostModel.merge_state`, worker counters via
:meth:`~repro.telemetry.metrics.MetricsRegistry.merge_delta`, worker
spans via :meth:`~repro.telemetry.tracing.Tracer.absorb`, so even the
floating-point accumulation order is worker-count independent.
"""

from __future__ import annotations

import copy
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro import contracts
from repro.core.pairs import PairKey, TrackPair
from repro.core.pipeline import Merger, run_resilient_window
from repro.core.results import MergeResult
from repro.faults.profiles import FaultProfile
from repro.parallel.planner import ShardPlan, ShardPlanner, window_seeds
from repro.provenance import DecisionLedger
from repro.reid import CostModel, CostParams, ReidScorer, SimReIDModel
from repro.resilience import ResilienceConfig, ResilientReidScorer
from repro.synth.world import VideoGroundTruth
from repro.telemetry import Telemetry
from repro.telemetry.profiling import Profiler
from repro.telemetry.tracing import Span

#: Supported pool backends.
BACKENDS = ("process", "thread")


@dataclass
class WindowTask:
    """One window's work order, picklable for process pools.

    Attributes:
        index: the window index ``c``.
        pairs: the window's candidate pair set ``P_c`` (non-empty).
        seeds: the window's seed substreams (see
            :class:`~repro.parallel.planner.WindowSeeds`).
    """

    index: int
    pairs: list[TrackPair]
    seeds: object


@dataclass
class ShardTask:
    """Everything one shard needs, shipped to its worker once.

    Attributes:
        shard_id: the shard's id in the plan.
        model: the keyed ReID model prototype (latent table, noise
            parameters and seed — no per-frame ground truth); each
            window extracts through its own copy.
        merger: a telemetry-detached merger prototype; each window runs
            a private deep copy.
        cost_params: simulated cost constants.
        items: the shard's window tasks, ascending by index.
        fault_profile: optional chaos configuration.
        resilience: optional resilience tuning.
        with_telemetry: whether windows record worker-local telemetry.
        with_ledger: whether windows record worker-local decision
            ledgers (absorbed home in window-index order).
    """

    shard_id: int
    model: SimReIDModel
    merger: Merger
    cost_params: CostParams | None
    items: list[WindowTask]
    fault_profile: FaultProfile | None = None
    resilience: ResilienceConfig | None = None
    with_telemetry: bool = False
    with_ledger: bool = False


@dataclass
class WindowOutcome:
    """One window's results plus its observability payloads.

    A worker returns its result without candidate objects — only their
    keys travel back — and :meth:`ParallelExecutor.run` maps the keys
    onto the caller's own :class:`~repro.core.pairs.TrackPair` objects,
    so an outcome never drags tracks across the pool seam.

    Attributes:
        index: the window index.
        result: the merge result (its ``candidates`` are the caller's
            pairs once :meth:`ParallelExecutor.run` returns).
        candidate_keys: the candidates' pair keys, best first.
        cost_state: the window clock's
            :meth:`~repro.reid.cost.CostModel.state_dict`.
        charges: the window clock's
            :attr:`~repro.reid.cost.CostModel.extract_log` (which
            features each extraction charge paid for).
        counters: the window's telemetry counter values (empty when the
            run is unobserved) — a delta by construction, since the
            worker registry starts empty.
        spans: the window's finished spans as
            :meth:`~repro.telemetry.tracing.Span.to_dict` payloads.
        resilience_stats: the window scorer's resilience counters.
        histograms: the window's telemetry histogram states
            (:meth:`~repro.telemetry.metrics.MetricsRegistry.histograms_snapshot`),
            folded home in window-index order so parallel reassembly is
            exact for distributions too.
        ledger_events: the window's decision events as
            :meth:`~repro.provenance.DecisionEvent.to_dict` payloads
            (empty when the run records no provenance).
        profiler: the window's wall-clock
            :class:`~repro.telemetry.profiling.Profiler` (``None`` when
            the run is unobserved).
    """

    index: int
    result: MergeResult
    candidate_keys: list[PairKey]
    cost_state: dict[str, float]
    charges: list[tuple[int, list[tuple[int, int]]]]
    counters: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    resilience_stats: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)
    ledger_events: list[dict] = field(default_factory=list)
    profiler: Profiler | None = None


def _run_window_task(shard: ShardTask, item: WindowTask) -> WindowOutcome:
    """Build the window-local execution state and run one window."""
    telemetry = Telemetry() if shard.with_telemetry else None
    cost = CostModel(shard.cost_params, telemetry=telemetry)
    if telemetry is not None:
        telemetry.bind_clock(cost)
    seeds = item.seeds
    model = copy.copy(shard.model)
    profile = shard.fault_profile
    if profile is not None and profile.injects_reid_faults:
        model = profile.wrap_model(
            model,
            call_rng=np.random.default_rng(seeds.call),
            corruption_rng=np.random.default_rng(seeds.corrupt),
        )
        for injector in (model.call_injector, model.corruption_injector):
            if injector is not None:
                injector.telemetry = telemetry
    scorer: ReidScorer | ResilientReidScorer = ReidScorer(
        model, cost=cost, telemetry=telemetry
    )
    resilience = shard.resilience
    if resilience is not None:
        scorer = ResilientReidScorer(
            scorer,
            retry=resilience.retry,
            breaker_policy=resilience.breaker,
        )
    crasher = None
    if profile is not None and profile.window_crash_rate > 0:
        crasher = profile.window_crasher(
            rng=np.random.default_rng(seeds.crash)
        )
        crasher.telemetry = telemetry
    merger = copy.deepcopy(shard.merger)
    if hasattr(merger, "telemetry"):
        merger.telemetry = telemetry
    ledger = None
    if shard.with_ledger and hasattr(merger, "ledger"):
        # A fresh per-window ledger: events are stamped with the window
        # index here and absorbed home in window-index order, so the
        # merged log is worker-count independent (like Tracer.absorb).
        ledger = DecisionLedger()
        ledger.begin_window(item.index)
        merger.ledger = ledger
    window_span = (
        telemetry.span("window", window_id=item.index, n_pairs=len(item.pairs))
        if telemetry is not None
        else nullcontext()
    )
    with window_span:
        result = run_resilient_window(
            merger, item.index, item.pairs, scorer, cost, resilience, crasher
        )
        if contracts.ENABLED:
            contracts.check_top_k_budget(
                len(result.candidates),
                len(item.pairs),
                where="ParallelExecutor",
            )
    return WindowOutcome(
        index=item.index,
        result=replace(result, candidates=[]),
        candidate_keys=[pair.key for pair in result.candidates],
        cost_state=cost.state_dict(),
        charges=cost.extract_log,
        counters=(
            telemetry.metrics.counters_snapshot()
            if telemetry is not None
            else {}
        ),
        spans=(
            [
                span.to_dict()
                for span in sorted(
                    telemetry.tracer.spans, key=lambda s: s.span_id
                )
            ]
            if telemetry is not None
            else []
        ),
        resilience_stats=(
            scorer.stats() if isinstance(scorer, ResilientReidScorer) else {}
        ),
        histograms=(
            telemetry.metrics.histograms_snapshot()
            if telemetry is not None
            else {}
        ),
        ledger_events=ledger.to_dicts() if ledger is not None else [],
        profiler=telemetry.profiler if telemetry is not None else None,
    )


def execute_shard(task: ShardTask) -> list[WindowOutcome]:
    """Run every window of one shard serially (module-level: picklable)."""
    return [_run_window_task(task, item) for item in task.items]


class ParallelExecutor:
    """Runs shard tasks over a process/thread pool, or inline for one.

    Args:
        n_workers: worker count; ``1`` executes every shard inline in
            the calling process (no pool — the serial fallback path).
        backend: ``"process"`` (real CPU parallelism; tasks are pickled)
            or ``"thread"`` (shared memory, GIL-bound — useful for
            debugging and picklability-free runs).
    """

    def __init__(self, n_workers: int = 1, backend: str = "process") -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        self.n_workers = n_workers
        self.backend = backend

    def _pool(self, n_tasks: int) -> Executor:
        workers = min(self.n_workers, n_tasks)
        if self.backend == "process":
            return ProcessPoolExecutor(max_workers=workers)
        return ThreadPoolExecutor(max_workers=workers)

    def run(self, tasks: list[ShardTask]) -> list[WindowOutcome]:
        """Execute all shard tasks; outcomes return in window-index order.

        Each outcome's candidate keys are mapped back onto the task's
        own pairs, so pool and inline runs return the caller's
        :class:`~repro.core.pairs.TrackPair` objects, not copies.  The
        ordered-collection stage sorts by window index, so callers see
        the same sequence whatever the completion order was.
        """
        if self.n_workers == 1 or len(tasks) <= 1:
            shard_outcomes = [execute_shard(task) for task in tasks]
        else:
            with self._pool(len(tasks)) as pool:
                shard_outcomes = list(pool.map(execute_shard, tasks))
        outcomes = []
        for task, shard in zip(tasks, shard_outcomes):
            for item, outcome in zip(task.items, shard):
                by_key = {pair.key: pair for pair in item.pairs}
                outcome.result = replace(
                    outcome.result,
                    candidates=[by_key[key] for key in outcome.candidate_keys],
                )
                outcomes.append(outcome)
        return sorted(outcomes, key=lambda outcome: outcome.index)


def _launches(count: int, batch: int) -> int:
    """Batched calls needed for ``count`` crops: ``ceil(count / batch)``."""
    return -(-count // batch)


@dataclass
class WindowFold:
    """Folds window outcomes into run-level state, in window-index order.

    Shared by :func:`run_windows` and the streaming service.  Each
    :meth:`add` takes the next window's outcome and applies the
    charge-once rule (module docstring) to its clock, its
    ``simulated_seconds`` and its ``reid.invocations`` /
    ``reid.batch_calls`` / ``cost.simulated_ms`` counters before folding
    clock, resilience counters, telemetry and ledger.

    Attributes:
        cost: the run-level clock.
        telemetry: optional run-level telemetry.
        ledger: optional run-level decision ledger.
        resilience_stats: per-window resilience counters, summed.
        previous_keys: the features the previous window extracted.
    """

    cost: CostModel
    telemetry: Telemetry | None = None
    ledger: DecisionLedger | None = None
    resilience_stats: dict[str, float] = field(default_factory=dict)
    previous_keys: set[tuple[int, int]] = field(default_factory=set)

    def add(
        self, outcome: WindowOutcome | None
    ) -> tuple[MergeResult | None, dict[str, float]]:
        """Fold the next window; ``None`` marks one that extracted nothing.

        Returns the window's re-charged result (``None`` for ``None``)
        and its telemetry counter delta (``{}`` when unobserved).
        """
        if outcome is None:
            self.previous_keys = set()
            return None, {}
        params = self.cost.params
        state = dict(outcome.cost_state)
        reused_total = calls_total = 0
        refund_ms = 0.0
        for batch, keys in outcome.charges:
            reused = sum(1 for key in keys if key in self.previous_keys)
            if not reused:
                continue
            reused_total += reused
            if batch == 0:
                state["n_extractions"] -= reused
                refund_ms += reused * params.extract_ms
                continue
            # The batched call is re-priced as ceil((n - d) / batch)
            # launches plus n - d items.
            calls = _launches(len(keys), batch) - _launches(
                len(keys) - reused, batch
            )
            state["n_batched_extractions"] -= reused
            state["n_batch_calls"] -= calls
            calls_total += calls
            refund_ms += calls * params.batch_launch_ms
            refund_ms += reused * params.batch_item_ms
        state["ms"] -= refund_ms
        counters = dict(outcome.counters)
        if counters and reused_total:
            counters["reid.invocations"] -= reused_total
            counters["cost.simulated_ms"] -= refund_ms
            if calls_total:
                counters["reid.batch_calls"] -= calls_total
        self.previous_keys = {
            key for _, keys in outcome.charges for key in keys
        }

        result = replace(
            outcome.result, simulated_seconds=state["ms"] / 1000.0
        )
        self.cost.merge_state(state)
        for name, value in outcome.resilience_stats.items():
            self.resilience_stats[name] = (
                self.resilience_stats.get(name, 0.0) + value
            )
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.metrics.merge_delta(counters)
            telemetry.metrics.merge_histograms(outcome.histograms)
            telemetry.observe(
                "window.merge_ms", result.simulated_seconds * 1000.0
            )
            telemetry.tracer.absorb(
                [Span.from_dict(payload) for payload in outcome.spans]
            )
            if outcome.profiler is not None:
                telemetry.profiler.absorb(outcome.profiler)
        if self.ledger is not None:
            self.ledger.absorb(outcome.ledger_events)
        return result, counters


@dataclass
class ParallelRun:
    """The engine's aggregated output for one video.

    Attributes:
        window_results: one merge result per window, in index order
            (empty windows carry synthesized empty results).
        cost: the run-level clock — every window clock folded in, in
            index order.
        window_metrics: per-window counter deltas (empty list when the
            run is unobserved, ``{}`` entries for empty windows).
        resilience_stats: per-window resilience counters summed in
            index order (empty when resilience is off).
        plan: the shard plan that produced the run.
    """

    window_results: list[MergeResult]
    cost: CostModel
    window_metrics: list[dict[str, float]]
    resilience_stats: dict[str, float]
    plan: ShardPlan


def detached_merger(merger: Merger) -> Merger:
    """A deep copy of ``merger`` with injected observers removed.

    Shared by :func:`run_windows` and the streaming service: merger
    prototypes shipped to workers (or cloned per window) must not drag
    a live telemetry object — or a live decision ledger — across the
    pool seam.  Workers attach their own window-local instances instead.
    """
    parked: dict[str, object] = {}
    for attribute in ("telemetry", "ledger"):
        if hasattr(merger, attribute):
            parked[attribute] = getattr(merger, attribute)
            setattr(merger, attribute, None)
    try:
        clone = copy.deepcopy(merger)
    finally:
        for attribute, value in parked.items():
            setattr(merger, attribute, value)
    return clone


def empty_merge_result(merger: Merger) -> MergeResult:
    """The synthesized result of a window with no candidate pairs."""
    return MergeResult(
        method=merger.name,
        candidates=[],
        scores={},
        n_pairs=0,
        k=getattr(merger, "k", 0.0),
        simulated_seconds=0.0,
    )


def shard_tasks(
    *,
    world: VideoGroundTruth,
    window_pairs: list[list[TrackPair]],
    merger: Merger,
    cost_params: CostParams | None = None,
    reid_seed: int = 1,
    fault_profile: FaultProfile | None = None,
    resilience: ResilienceConfig | None = None,
    n_workers: int = 1,
    with_telemetry: bool = False,
    with_ledger: bool = False,
) -> tuple[ShardPlan, list[ShardTask]]:
    """Plan the busy windows over ``n_workers`` shards; build their tasks.

    Every task shares one ReID model prototype and one detached merger
    prototype, so a pickled task carries the latent table, the merger
    and its windows' pairs (each track once, as columns) — never the
    world's per-frame ground truth.  Arguments are those of
    :func:`run_windows`.
    """
    busy = [index for index, pairs in enumerate(window_pairs) if pairs]
    plan = ShardPlanner(n_workers).plan(busy)
    seeds = window_seeds(len(window_pairs), fault_profile)
    model = SimReIDModel(world, seed=reid_seed)
    prototype = detached_merger(merger)
    tasks = [
        ShardTask(
            shard_id=shard.shard_id,
            model=model,
            merger=prototype,
            cost_params=cost_params,
            items=[
                WindowTask(index=c, pairs=window_pairs[c], seeds=seeds[c])
                for c in shard.window_indices
            ],
            fault_profile=fault_profile,
            resilience=resilience,
            with_telemetry=with_telemetry,
            with_ledger=with_ledger,
        )
        for shard in plan.shards
    ]
    return plan, tasks


def run_windows(
    *,
    world: VideoGroundTruth,
    window_pairs: list[list[TrackPair]],
    merger: Merger,
    cost_params: CostParams | None = None,
    reid_seed: int = 1,
    fault_profile: FaultProfile | None = None,
    resilience: ResilienceConfig | None = None,
    n_workers: int = 1,
    backend: str = "process",
    telemetry: Telemetry | None = None,
    ledger: DecisionLedger | None = None,
) -> ParallelRun:
    """Run every window of one video through the sharded engine.

    This is the one window engine behind
    :class:`~repro.core.pipeline.IngestionPipeline`,
    :func:`~repro.experiments.sweeps.evaluate_merger` and the figure
    functions.  Results are bit-identical for every ``n_workers`` and
    backend; see the module docstring for the determinism argument and
    the charge-once rule.

    Args:
        world: the simulated ground truth.
        window_pairs: ``P_c`` per window, index-aligned.
        merger: the algorithm under test (cloned per window; never
            mutated here).
        cost_params: simulated cost constants.
        reid_seed: root seed of the keyed ReID noise.
        fault_profile: optional chaos configuration.
        resilience: optional resilience tuning (callers decide the
            auto-on default).
        n_workers: worker count (``1`` = inline serial execution).
        backend: ``"process"`` or ``"thread"``.
        telemetry: optional run-level telemetry; worker-local counters,
            histograms and spans are merged into it in window-index
            order, plus one ``parallel.shard`` span per shard.
        ledger: optional run-level decision ledger; per-window worker
            ledgers are absorbed into it in window-index order (sequence
            numbers re-assigned, window stamps kept — exactly like
            ``Tracer.absorb``), so the merged log is worker-count
            independent.
    """
    n_windows = len(window_pairs)
    busy = [index for index, pairs in enumerate(window_pairs) if pairs]
    plan, tasks = shard_tasks(
        world=world,
        window_pairs=window_pairs,
        merger=merger,
        cost_params=cost_params,
        reid_seed=reid_seed,
        fault_profile=fault_profile,
        resilience=resilience,
        n_workers=n_workers,
        with_telemetry=telemetry is not None,
        with_ledger=ledger is not None,
    )
    outcomes = ParallelExecutor(n_workers, backend).run(tasks)
    if contracts.ENABLED:
        contracts.check_shard_cover(
            (outcome.index for outcome in outcomes),
            busy,
            where="run_windows",
        )

    by_index = {outcome.index: outcome for outcome in outcomes}
    fold = WindowFold(CostModel(cost_params), telemetry, ledger)
    window_results: list[MergeResult] = []
    window_metrics: list[dict[str, float]] = []
    for c in range(n_windows):
        result, counters = fold.add(by_index.get(c))
        window_results.append(
            result if result is not None else empty_merge_result(merger)
        )
        if telemetry is not None:
            window_metrics.append(counters)
    if telemetry is not None:
        for shard in plan.shards:
            with telemetry.span(
                "parallel.shard",
                shard_id=shard.shard_id,
                n_windows=len(shard.window_indices),
                window_ids=list(shard.window_indices),
                backend=backend,
                n_workers=n_workers,
            ):
                pass
    return ParallelRun(
        window_results=window_results,
        cost=fold.cost,
        window_metrics=window_metrics,
        resilience_stats=fold.resilience_stats,
        plan=plan,
    )
