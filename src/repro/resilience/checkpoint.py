"""Per-window checkpointing for crash recovery.

A checkpoint is a pure-JSON snapshot of *everything* a mid-window merge
depends on: posterior arrays, sampling bookkeeping, the merger's RNG,
the scorer's cache, cost counters and extraction-charge record, and the
fault injectors' RNGs.  The ReID model itself holds no state: its noise
is keyed by detection, so a replayed extraction returns the same
feature.  Because the capture is complete, a window killed
by a :class:`~repro.faults.errors.WindowCrashError` and resumed from its
last checkpoint reproduces the uninterrupted run *bit-exactly* — the
acceptance test for this subsystem.

:class:`CheckpointStore` keeps snapshots in memory (optionally mirrored
to JSON files) and always round-trips them through ``json`` so resuming
in-process behaves exactly like resuming after a process restart.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro import contracts


def _encode_key(key) -> str:
    """Deterministic string form of a (possibly nested-tuple) window key."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def encode_generator_state(rng: np.random.Generator) -> dict:
    """JSON-able state of a numpy Generator (``bit_generator.state``)."""
    return dict(rng.bit_generator.state)


def restore_generator_state(rng: np.random.Generator, state: dict) -> None:
    """Restore a Generator from :func:`encode_generator_state` output."""
    rng.bit_generator.state = state


def capture_scorer_state(scorer) -> dict:
    """Snapshot a scorer's cache, cost clock, fault RNGs and breaker.

    Works for both :class:`~repro.reid.scorer.ReidScorer` and
    :class:`~repro.resilience.scorer.ResilientReidScorer` (duck-typed on
    the optional ``breaker`` attribute and the optional ``rng_state``
    method of a :class:`~repro.faults.injectors.FaultyReidModel`).
    """
    state: dict = {
        "cost": scorer.cost.state_dict(),
        "charges": [
            [batch, [list(key) for key in keys]]
            for batch, keys in scorer.cost.extract_log
        ],
        "cache": [
            [list(key), [float(x) for x in feature]]
            for key, feature in scorer.cache.items()
        ],
    }
    fault_state = getattr(scorer.model, "rng_state", None)
    state["faults"] = fault_state() if callable(fault_state) else None
    breaker = getattr(scorer, "breaker", None)
    if breaker is not None:
        state["breaker"] = breaker.state_dict()
    return state


def restore_scorer_state(scorer, state: dict) -> None:
    """Restore a snapshot captured by :func:`capture_scorer_state`."""
    scorer.cost.load_state_dict(state["cost"])
    scorer.cost.extract_log = [
        (int(batch), [(int(key[0]), int(key[1])) for key in keys])
        for batch, keys in state["charges"]
    ]
    scorer.cache.clear()
    for key, feature in state["cache"]:
        scorer.cache.put(
            (int(key[0]), int(key[1])), np.asarray(feature, dtype=float)
        )
    if state["faults"] is not None:
        scorer.model.set_rng_state(state["faults"])
    breaker = getattr(scorer, "breaker", None)
    if breaker is not None and state.get("breaker") is not None:
        breaker.load_state_dict(state["breaker"])


class CheckpointStore:
    """Keyed store of window checkpoints, in memory and optionally on disk.

    Every ``save`` serializes the payload to JSON and every ``load``
    parses it back, so resumed state is exactly what a restarted process
    would see (tuples become lists, int keys become strings — callers
    must encode accordingly).  When runtime contracts are enabled, each
    save additionally verifies the payload deep-equals its own JSON
    round-trip.

    Args:
        path: optional directory for JSON file mirrors; created lazily.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._store: dict[str, str] = {}
        self.n_saves = 0
        self.n_loads = 0

    def __len__(self) -> int:
        return len(self._store)

    def _file_for(self, encoded: str) -> str:
        digest = hashlib.sha1(encoded.encode("utf-8")).hexdigest()[:16]
        return os.path.join(self.path, f"ckpt_{digest}.json")

    def save(self, key, state: dict) -> None:
        """Persist ``state`` under ``key``, replacing any prior snapshot."""
        payload = json.dumps(state, sort_keys=True)
        if contracts.ENABLED:
            contracts.check_checkpoint_roundtrip(
                state, json.loads(payload), where="CheckpointStore.save"
            )
        encoded = _encode_key(key)
        self._store[encoded] = payload
        self.n_saves += 1
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)
            with open(self._file_for(encoded), "w", encoding="utf-8") as fh:
                fh.write(payload)

    def load(self, key) -> dict | None:
        """Return the snapshot for ``key``, or ``None`` when absent."""
        encoded = _encode_key(key)
        payload = self._store.get(encoded)
        if payload is None and self.path is not None:
            file_path = self._file_for(encoded)
            if os.path.exists(file_path):
                with open(file_path, encoding="utf-8") as fh:
                    payload = fh.read()
        if payload is None:
            return None
        self.n_loads += 1
        return json.loads(payload)

    def discard(self, key) -> None:
        """Drop the snapshot for ``key`` (memory and disk), if present."""
        encoded = _encode_key(key)
        self._store.pop(encoded, None)
        if self.path is not None:
            file_path = self._file_for(encoded)
            if os.path.exists(file_path):
                os.remove(file_path)
