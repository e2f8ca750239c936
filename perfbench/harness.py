"""Measurement plumbing shared by the workloads.

Nothing here imports the program: wall-clock spans kept in memory, the
wrappers that put spans around calls into it through its public seams
(the ``Merger`` and ``Tracker`` protocols, the detector and the feed
source), and the small statistics the report needs.
"""

from __future__ import annotations

import copy
import json
import math
import os
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Iterator


class Spans:
    """Wall-clock spans, kept in memory and written out once.

    Each span records its name, its start and end on ``perf_counter``
    and the index of the span that was open when it started (its
    parent).  A span's *self time* is its duration minus the durations
    of its direct children.
    """

    def __init__(self) -> None:
        #: ``[name, parent_index, start_s, end_s]`` per span, in start order.
        self.records: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """Time the enclosed block as a child of the innermost open span."""
        record = [
            name,
            self._open[-1] if self._open else None,
            time.perf_counter(),
            None,
        ]
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def duration(self, name: str) -> float:
        """Summed wall seconds of every span called ``name``."""
        return sum(end - start for n, _, start, end in self.records if n == name)

    def durations(self, name: str) -> list[float]:
        """Wall seconds of each span called ``name``, in start order."""
        return [end - start for n, _, start, end in self.records if n == name]

    def self_times(self) -> dict[str, float]:
        """Self wall seconds per span name."""
        own = [end - start for _, _, start, end in self.records]
        for name, parent, start, end in self.records:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), seconds in zip(self.records, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def write_jsonl(self, path: str) -> None:
        """Write one JSON object per span (times relative to the first)."""
        origin = self.records[0][2] if self.records else 0.0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, parent, start, end) in enumerate(self.records):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": parent,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": end - origin,
                        }
                    )
                    + "\n"
                )


class TimedMerger:
    """A ``Merger`` that puts a ``tmerge`` span around each window merge.

    Engines deep-copy their merger per window; the copy keeps recording
    into the same :class:`Spans`.  Reads of other attributes, and the
    ``telemetry``/``ledger`` injections the engines make, pass through to
    the wrapped merger, so results are those of the wrapped merger.
    """

    def __init__(self, inner, spans: Spans) -> None:
        self.__dict__["inner"] = inner
        self.__dict__["spans"] = spans

    def __getattr__(self, name: str):
        inner = self.__dict__.get("inner")
        if inner is None or name.startswith("__"):
            raise AttributeError(name)
        return getattr(inner, name)

    def __setattr__(self, name: str, value) -> None:
        setattr(self.inner, name, value)

    def __deepcopy__(self, memo) -> "TimedMerger":
        return TimedMerger(copy.deepcopy(self.inner, memo), self.spans)

    def run(self, pairs, scorer):
        with self.spans.span("tmerge"):
            return self.inner.run(pairs, scorer)


class TimedDetector:
    """A detector whose ``detect_video``/``detect_frame`` calls are spans.

    It also counts the detections it returns.
    """

    def __init__(self, inner, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans
        self.detections = 0

    def detect_video(self, world, seed=0):
        with self.spans.span("detect"):
            frames = self.inner.detect_video(world, seed=seed)
        self.detections += sum(len(frame) for frame in frames)
        return frames

    def detect_frame(self, world, frame, rng):
        with self.spans.span("detect"):
            detections = self.inner.detect_frame(world, frame, rng)
        self.detections += len(detections)
        return detections


class _TimedTrackerStream:
    """A tracker session whose ``advance``/``flush`` calls are spans."""

    def __init__(self, inner, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans

    def advance(self, frame, detections):
        with self.spans.span("track"):
            return self.inner.advance(frame, detections)

    def flush(self):
        with self.spans.span("track"):
            return self.inner.flush()

    @property
    def close_lag(self) -> int:
        return self.inner.close_lag

    def earliest_open_frame(self):
        return self.inner.earliest_open_frame()

    def state_dict(self) -> dict:
        return self.inner.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self.inner.load_state_dict(state)


class TimedTracker:
    """A ``Tracker`` whose batch runs and streaming sessions are timed."""

    def __init__(self, inner, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans

    def run(self, detections_per_frame):
        with self.spans.span("track"):
            return self.inner.run(detections_per_frame)

    def stream(self) -> _TimedTrackerStream:
        return _TimedTrackerStream(self.inner.stream(), self.spans)


class TimedSource:
    """A feed source whose event iteration is timed, span per event.

    Also records when the first event of each ``events`` call arrives,
    which for a resumed service is the end of its source replay.
    """

    def __init__(self, inner, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans
        self.first_event_at: list[float] = []

    @property
    def world(self):
        return self.inner.world

    def events(self, start: int = 0):
        events = self.inner.events(start=start)
        first = True
        while True:
            with self.spans.span("stream.source"):
                event = next(events, None)
            if first:
                self.first_event_at.append(time.perf_counter())
                first = False
            if event is None:
                return
            yield event


def span_s(record: list) -> float:
    """Wall seconds of one finished span record."""
    return record[3] - record[2]


def median(values) -> float:
    """Median of a non-empty sequence (``0.0`` for an empty one)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Returns the value and its label, e.g. ``(v, "p80 of 50")``.  With
    fewer than 20 samples no percentile at or above the median has ten
    beyond it, so the maximum is reported and labelled as such.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return (ordered[-1] if ordered else 0.0), f"max of {n}"
    percentile = 100.0 * (n - 10) / n
    return ordered[n - 11], f"p{percentile:.1f} of {n}"


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest finished child.

    ``ru_maxrss`` is in KiB on Linux.  Children are counted once they
    have been waited for, which a process pool does on shutdown.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when the base is zero."""
    return numerator / denominator if denominator else 0.0


def finite(value: float) -> bool:
    """Whether ``value`` is a finite number."""
    return isinstance(value, (int, float)) and math.isfinite(value)
