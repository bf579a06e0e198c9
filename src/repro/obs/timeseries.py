"""Deterministic time series over :class:`MetricsRegistry` deltas.

The metrics layer (PR 3) answers "how many writes were remapped" — one
number at the end of the run.  This module adds the *time axis*: a
:class:`TimeSeriesRecorder` periodically samples a registry and folds the
deltas since the previous sample into fixed-width **op-clock buckets**,
so capacity retention, error ratios and burn rates become curves instead
of post-mortem totals.

Determinism contract (the same one the tracer and registry obey):

* The bucket axis is the deterministic op clock (``MemoryArray.op_clock``
  or the cluster's request clock) — **never wall time**.  Two runs that
  service the same operations sample at the same clocks and land deltas
  in the same buckets, whatever the worker count or drain engine.
* Storage is bounded: per-series numpy ring buffers hold the newest
  ``capacity`` buckets; evicted buckets are counted in
  :attr:`TimeSeriesRecorder.dropped`, never silently lost.
* :meth:`TimeSeriesRecorder.merge` is commutative per bucket (counter and
  histogram deltas add; gauges add, matching the registry's per-shard
  gauge semantics), so sharded runs merge to byte-identical series for
  any worker count and shard order.

Sampling records three kinds of per-bucket data:

* **counters** — the delta of each counter series inside the bucket;
* **gauges** — the last value sampled inside the bucket;
* **histograms** — per-bucket bucket-count/total/sum deltas, enough to
  estimate per-bucket quantiles (the SLO layer's latency objectives).

The exporter writes one JSONL record per series (plus a meta header) and
a flat CSV; :func:`read_series_jsonl` is the inverse the ``slo-report``
renderer consumes.
"""

from __future__ import annotations

import json

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import LabelItems, MetricsRegistry, render_series

__all__ = [
    "DEFAULT_CAPACITY",
    "TimeSeriesRecorder",
    "read_series_jsonl",
]

#: default retained buckets per series (bounded memory whatever the run length)
DEFAULT_CAPACITY = 512

#: internal registry-style key: ``(name, sorted label items)``
_SeriesKey = tuple[str, LabelItems]


def _match(key: _SeriesKey, name: str, labels: dict[str, object]) -> bool:
    """True when the series has ``name`` and its labels include ``labels``."""
    if key[0] != name:
        return False
    items = dict(key[1])
    return all(items.get(k) == str(v) for k, v in labels.items())


class TimeSeriesRecorder:
    """Sample a :class:`MetricsRegistry` into op-clock buckets.

    Parameters
    ----------
    registry:
        The registry to diff on :meth:`sample`; ``None`` builds a
        merge-only recorder (the parent-side aggregation target).
    bucket_width:
        Op-clock ticks per bucket (must be positive).
    capacity:
        Newest buckets retained per series; older buckets are evicted
        and counted in :attr:`dropped`.
    auto:
        Marks the recorder as driven by the service pipeline itself
        (the controller samples after every drain); explicit callers
        (the cluster control plane) leave it ``False`` and call
        :meth:`sample` at their own deterministic points.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None,
        *,
        bucket_width: int,
        capacity: int = DEFAULT_CAPACITY,
        auto: bool = False,
    ) -> None:
        if bucket_width < 1:
            raise ConfigurationError("time-series bucket width must be positive")
        if capacity < 1:
            raise ConfigurationError("time-series capacity must be positive")
        self.registry = registry
        self.bucket_width = int(bucket_width)
        self.capacity = int(capacity)
        self.auto = auto
        #: absolute index of the first retained bucket (slot 0)
        self._base = 0
        #: absolute index one past the last written bucket
        self._hi = 0
        self.samples = 0
        self.dropped = 0
        self.last_clock = -1
        self._counters: dict[_SeriesKey, np.ndarray] = {}
        self._gauges: dict[_SeriesKey, np.ndarray] = {}
        #: series key -> {"edges", "counts" (capacity, n+1), "totals", "sums"}
        self._histograms: dict[_SeriesKey, dict] = {}
        self._sample_counts = np.zeros(self.capacity, dtype=np.int64)
        # last-seen absolute values, diffed on each sample
        self._last_counters: dict[_SeriesKey, int] = {}
        self._last_histograms: dict[_SeriesKey, tuple[list[int], int, float]] = {}
        #: bumped whenever a series is added or :meth:`merge` replaces the
        #: ring tables — the cue for holders of :meth:`slot_tables`
        #: references (the SLO engine) to re-resolve their selectors
        self.layout_version = 0

    # -- geometry ------------------------------------------------------------

    @property
    def bucket_count(self) -> int:
        """Retained buckets (0 before the first sample)."""
        return self._hi - self._base

    @property
    def start_bucket(self) -> int:
        """Absolute index of the first retained bucket."""
        return self._base

    def bucket_clocks(self) -> list[int]:
        """The op-clock *end* of each retained bucket, oldest first."""
        return [
            (bucket + 1) * self.bucket_width
            for bucket in range(self._base, self._hi)
        ]

    def _counter_array(self, key: _SeriesKey) -> np.ndarray:
        array = self._counters.get(key)
        if array is None:
            array = self._counters[key] = np.zeros(self.capacity, dtype=np.int64)
            self.layout_version += 1
        return array

    def _gauge_array(self, key: _SeriesKey) -> np.ndarray:
        array = self._gauges.get(key)
        if array is None:
            array = self._gauges[key] = np.zeros(self.capacity, dtype=np.float64)
            self.layout_version += 1
        return array

    def _histogram_entry(self, key: _SeriesKey, edges: tuple[float, ...]) -> dict:
        entry = self._histograms.get(key)
        if entry is None:
            entry = self._histograms[key] = {
                "edges": tuple(edges),
                "counts": np.zeros((self.capacity, len(edges) + 1), dtype=np.int64),
                "totals": np.zeros(self.capacity, dtype=np.int64),
                "sums": np.zeros(self.capacity, dtype=np.float64),
            }
            self.layout_version += 1
        return entry

    def _shift(self, amount: int) -> None:
        """Evict the oldest ``amount`` slots (ring advance by copy).

        The base always advances the full ``amount`` — a clock jump far
        past the window must not leave stale slots addressable — but the
        array copy is clamped to the capacity (everything is zeroed when
        the jump clears the whole window).
        """
        self.dropped += max(0, min(amount, self.bucket_count))
        move = min(amount, self.capacity)
        tables: list[np.ndarray] = [self._sample_counts]
        tables.extend(self._counters.values())
        tables.extend(self._gauges.values())
        for entry in self._histograms.values():
            tables.extend((entry["counts"], entry["totals"], entry["sums"]))
        for array in tables:
            if move >= self.capacity:
                array[...] = 0
            else:
                array[:-move] = array[move:]
                array[-move:] = 0
        self._base += amount

    def _slot_for(self, bucket: int) -> int:
        """Slot index of an absolute bucket, advancing the ring if needed."""
        if self.samples == 0:
            self._base = bucket
            self._hi = bucket + 1
        else:
            if bucket >= self._base + self.capacity:
                self._shift(bucket - (self._base + self.capacity) + 1)
            self._hi = max(self._hi, bucket + 1)
        return bucket - self._base

    # -- sampling ------------------------------------------------------------

    def sample(self, clock: int) -> int:
        """Fold the registry deltas since the last sample into the bucket
        containing ``clock``; returns the absolute bucket index.

        The clock must be monotonic — it is the deterministic time axis,
        and a sample that runs backwards would mean a caller leaked wall
        time or mixed clocks.
        """
        if self.registry is None:
            raise ConfigurationError("recorder has no registry to sample")
        if clock < self.last_clock:
            raise ConfigurationError(
                f"time-series clock ran backwards ({clock} < {self.last_clock})"
            )
        bucket = int(clock) // self.bucket_width
        slot = self._slot_for(bucket)
        last = self._last_counters
        for key, value in self.registry.counters.items():
            delta = value - last.get(key, 0)
            if delta:
                self._counter_array(key)[slot] += delta
                last[key] = value
        for key, value in self.registry.gauges.items():
            self._gauge_array(key)[slot] = value
        hist_last = self._last_histograms
        for key, histogram in self.registry.histograms.items():
            seen = hist_last.get(key)
            if seen is not None and seen[1] == histogram.total:
                continue
            entry = self._histogram_entry(key, histogram.edges)
            if entry["edges"] != histogram.edges:
                raise ConfigurationError(
                    f"histogram edges changed for series {render_series(*key)!r}"
                )
            prev_counts = seen[0] if seen is not None else [0] * len(histogram.counts)
            prev_total = seen[1] if seen is not None else 0
            prev_sum = seen[2] if seen is not None else 0.0
            entry["counts"][slot] += np.asarray(histogram.counts) - prev_counts
            entry["totals"][slot] += histogram.total - prev_total
            entry["sums"][slot] += histogram.sum - prev_sum
            hist_last[key] = (list(histogram.counts), histogram.total, histogram.sum)
        self._sample_counts[slot] += 1
        self.samples += 1
        self.last_clock = int(clock)
        return bucket

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "TimeSeriesRecorder") -> None:
        """Fold another recorder in (commutative per bucket).

        Counter/histogram deltas and sample counts add; gauges add too,
        matching the registry rule that per-shard gauges hold additive
        quantities.  The merged window is the union of both ranges,
        clipped to the newest ``capacity`` buckets.
        """
        if other.bucket_width != self.bucket_width:
            raise ConfigurationError(
                "cannot merge recorders with different bucket widths "
                f"({self.bucket_width} vs {other.bucket_width})"
            )
        if other.capacity != self.capacity:
            raise ConfigurationError(
                "cannot merge recorders with different capacities"
            )
        self.dropped += other.dropped
        self.samples += other.samples
        self.layout_version += 1
        self.last_clock = max(self.last_clock, other.last_clock)
        if other.bucket_count == 0:
            return
        if self.bucket_count == 0:
            self._base, self._hi = other._base, other._hi
            self._sample_counts = other._sample_counts.copy()
            self._counters = {k: v.copy() for k, v in other._counters.items()}
            self._gauges = {k: v.copy() for k, v in other._gauges.items()}
            self._histograms = {
                key: {
                    "edges": entry["edges"],
                    "counts": entry["counts"].copy(),
                    "totals": entry["totals"].copy(),
                    "sums": entry["sums"].copy(),
                }
                for key, entry in other._histograms.items()
            }
            return
        new_base = min(self._base, other._base)
        new_hi = max(self._hi, other._hi)
        if new_hi - new_base > self.capacity:
            clipped_base = new_hi - self.capacity
            self.dropped += max(0, min(clipped_base, self._hi) - self._base)
            self.dropped += max(0, min(clipped_base, other._hi) - other._base)
            new_base = clipped_base

        def rebase(array: np.ndarray, base: int, hi: int) -> np.ndarray:
            out = np.zeros_like(array)
            lo = max(base, new_base)
            if lo < hi:
                out[lo - new_base : hi - new_base] = array[lo - base : hi - base]
            return out

        def fold(mine: np.ndarray | None, theirs: np.ndarray | None) -> np.ndarray:
            left = (
                rebase(mine, self._base, self._hi)
                if mine is not None
                else None
            )
            right = (
                rebase(theirs, other._base, other._hi)
                if theirs is not None
                else None
            )
            if left is None:
                assert right is not None
                return right
            if right is None:
                return left
            return left + right

        self._sample_counts = fold(self._sample_counts, other._sample_counts)
        for key in sorted(set(self._counters) | set(other._counters)):
            self._counters[key] = fold(
                self._counters.get(key), other._counters.get(key)
            )
        for key in sorted(set(self._gauges) | set(other._gauges)):
            self._gauges[key] = fold(self._gauges.get(key), other._gauges.get(key))
        for key in sorted(set(self._histograms) | set(other._histograms)):
            mine = self._histograms.get(key)
            theirs = other._histograms.get(key)
            if mine is not None and theirs is not None:
                if mine["edges"] != theirs["edges"]:
                    raise ConfigurationError(
                        "cannot merge histogram series with different edges"
                    )
            edges = (mine or theirs)["edges"]  # type: ignore[index]
            self._histograms[key] = {
                "edges": edges,
                "counts": fold(
                    mine["counts"] if mine else None,
                    theirs["counts"] if theirs else None,
                ),
                "totals": fold(
                    mine["totals"] if mine else None,
                    theirs["totals"] if theirs else None,
                ),
                "sums": fold(
                    mine["sums"] if mine else None,
                    theirs["sums"] if theirs else None,
                ),
            }
        self._base, self._hi = new_base, new_hi

    # -- derived views -------------------------------------------------------

    def _window(self, array: np.ndarray) -> np.ndarray:
        return array[: self.bucket_count]

    def slot_tables(self, kind: str, name: str, labels: dict[str, object]) -> list:
        """The live ring tables of every ``kind`` series matching the
        selector (name plus a label subset), in insertion order.

        ``kind`` is ``"counter"`` or ``"gauge"`` (1-D arrays) or
        ``"histogram"`` (``{"edges", "counts", "totals", "sums"}``
        entries).  Slot ``bucket - start_bucket`` holds an absolute
        bucket.  The tables are updated in place by :meth:`sample`, so a
        reader may hold them until :attr:`layout_version` changes.
        """
        tables = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }[kind]
        return [table for key, table in tables.items() if _match(key, name, labels)]

    def sample_count_table(self) -> np.ndarray:
        """The live per-slot sample-count ring (see :meth:`slot_tables`)."""
        return self._sample_counts

    def counter_view(self, name: str, **labels: object) -> np.ndarray:
        """Per-bucket deltas of every counter series matching the
        selector (name plus a label subset), summed — oldest first."""
        out = np.zeros(self.bucket_count, dtype=np.int64)
        for array in self.slot_tables("counter", name, labels):
            out += self._window(array)
        return out

    def rate_view(self, name: str, **labels: object) -> np.ndarray:
        """Counter deltas per op-clock tick (the burn-rate numerator)."""
        return self.counter_view(name, **labels) / float(self.bucket_width)

    def gauge_view(self, name: str, **labels: object) -> np.ndarray:
        """Per-bucket gauge values (summed over matching series)."""
        out = np.zeros(self.bucket_count, dtype=np.float64)
        for array in self.slot_tables("gauge", name, labels):
            out += self._window(array)
        return out

    def histogram_view(
        self, name: str, **labels: object
    ) -> tuple[tuple[float, ...], np.ndarray, np.ndarray, np.ndarray] | None:
        """Summed per-bucket histogram deltas for a selector, as
        ``(edges, counts, totals, sums)`` — ``None`` when nothing matches."""
        entries = self.slot_tables("histogram", name, labels)
        if not entries:
            return None
        edges = entries[0]["edges"]
        if any(entry["edges"] != edges for entry in entries):
            raise ConfigurationError(
                f"selector {name!r} matches histograms with differing edges"
            )
        return (
            edges,
            sum(self._window(entry["counts"]) for entry in entries),
            sum(self._window(entry["totals"]) for entry in entries),
            sum(self._window(entry["sums"]) for entry in entries),
        )

    def sampled_mask(self) -> np.ndarray:
        """Boolean per-bucket mask of buckets that saw >= 1 sample."""
        return self._window(self._sample_counts) > 0

    def last_bucket_snapshot(self) -> dict:
        """The newest bucket's deltas (the ``watch`` streaming payload)."""
        if self.bucket_count == 0:
            return {"bucket": None, "clock": None, "counters": {}, "gauges": {}}
        slot = self.bucket_count - 1
        bucket = self._hi - 1
        return {
            "bucket": bucket,
            "clock": (bucket + 1) * self.bucket_width,
            "counters": {
                render_series(*key): int(array[slot])
                for key, array in sorted(self._counters.items())
                if array[slot]
            },
            "gauges": {
                render_series(*key): round(float(array[slot]), 6)
                for key, array in sorted(self._gauges.items())
                if array[slot]
            },
        }

    # -- snapshots / export --------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic series→values mapping over the retained window,
        sorted by series id — the digest-bearing surface."""
        count = self.bucket_count
        return {
            "bucket_width": self.bucket_width,
            "capacity": self.capacity,
            "start_bucket": self._base,
            "buckets": count,
            "samples": self.samples,
            "buckets_dropped": self.dropped,
            "samples_per_bucket": self._window(self._sample_counts).tolist(),
            "counters": {
                render_series(*key): self._window(self._counters[key]).tolist()
                for key in sorted(self._counters)
            },
            "gauges": {
                render_series(*key): [
                    round(float(v), 6) for v in self._window(self._gauges[key])
                ]
                for key in sorted(self._gauges)
            },
            "histograms": {
                render_series(*key): {
                    "edges": list(self._histograms[key]["edges"]),
                    "counts": self._window(self._histograms[key]["counts"]).tolist(),
                    "totals": self._window(self._histograms[key]["totals"]).tolist(),
                    "sums": [
                        round(float(v), 6)
                        for v in self._window(self._histograms[key]["sums"])
                    ],
                }
                for key in sorted(self._histograms)
            },
        }

    def export_records(self) -> list[dict]:
        """The JSONL record stream: one meta header + one record per
        series (the shape :func:`read_series_jsonl` reads back)."""
        snapshot = self.snapshot()
        records: list[dict] = [
            {
                "record": "meta",
                "bucket_width": snapshot["bucket_width"],
                "capacity": snapshot["capacity"],
                "start_bucket": snapshot["start_bucket"],
                "buckets": snapshot["buckets"],
                "samples": snapshot["samples"],
                "buckets_dropped": snapshot["buckets_dropped"],
                "samples_per_bucket": snapshot["samples_per_bucket"],
            }
        ]
        for series, values in snapshot["counters"].items():
            records.append({"record": "series", "kind": "counter",
                            "series": series, "values": values})
        for series, values in snapshot["gauges"].items():
            records.append({"record": "series", "kind": "gauge",
                            "series": series, "values": values})
        for series, entry in snapshot["histograms"].items():
            records.append({"record": "series", "kind": "histogram",
                            "series": series, **entry})
        return records

    def write_jsonl(self, path: str) -> int:
        """Write the series export as JSONL; returns the line count."""
        records = self.export_records()
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def write_csv(self, path: str) -> int:
        """Flat CSV export (counters and gauges; histogram totals/sums as
        derived ``_count``/``_sum`` series); returns the row count."""
        clocks = self.bucket_clocks()
        rows: list[tuple[str, str, int, int, float]] = []
        for key in sorted(self._counters):
            series = render_series(*key)
            for index, value in enumerate(self._window(self._counters[key])):
                rows.append(("counter", series, self._base + index,
                             clocks[index], float(value)))
        for key in sorted(self._gauges):
            series = render_series(*key)
            for index, value in enumerate(self._window(self._gauges[key])):
                rows.append(("gauge", series, self._base + index,
                             clocks[index], float(value)))
        for key in sorted(self._histograms):
            entry = self._histograms[key]
            for suffix, values in (
                ("_count", self._window(entry["totals"])),
                ("_sum", self._window(entry["sums"])),
            ):
                series = render_series(key[0] + suffix, key[1])
                for index, value in enumerate(values):
                    rows.append(("histogram", series, self._base + index,
                                 clocks[index], float(value)))
        with open(path, "w") as handle:
            handle.write("kind,series,bucket,clock,value\n")
            for kind, series, bucket, clock, value in rows:
                handle.write(f'{kind},"{series}",{bucket},{clock},{value:g}\n')
        return len(rows)


def read_series_jsonl(path: str) -> dict:
    """Read a series JSONL export back into a structured dict.

    Returns ``{"meta": {...}, "series": [records...], "slos": [...],
    "alerts": [...]}`` — the ``slo``/``alert`` records are appended by
    :func:`repro.obs.slo.write_slo_jsonl` and absent from a plain
    recorder export.
    """
    meta: dict = {}
    series: list[dict] = []
    slos: list[dict] = []
    alerts: list[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("record")
            if kind == "meta":
                meta = record
            elif kind == "series":
                series.append(record)
            elif kind == "slo":
                slos.append(record)
            elif kind == "alert":
                alerts.append(record)
    return {"meta": meta, "series": series, "slos": slos, "alerts": alerts}
