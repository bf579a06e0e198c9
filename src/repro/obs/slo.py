"""Declarative SLOs, error budgets and burn-rate alerting.

An :class:`SLOSpec` states an objective against the time series a
:class:`~repro.obs.timeseries.TimeSeriesRecorder` collects:

* **ratio** — a bad/total counter ratio stays under the objective
  (``writes_total{outcome=lost} / writes_total < 0.001``);
* **quantile** — a histogram quantile stays under a bound
  (``p99(stage_cost{stage=differential_write}) < 640``); per bucket the
  "bad" events are the observations *above* the bound, so the objective
  is the tolerated tail mass ``1 - q``;
* **retention** — a gauge stays at or above a minimum
  (``capacity_retention{scope=cluster} >= 0.9``); sampled buckets where
  it dips below are the bad events.

Every kind reduces to per-bucket ``(bad, total)`` arrays, which makes
budgets and burn rates uniform: the **error budget** over a window is
``objective * total`` bad events, and the **burn rate** of a bucket
window is ``(bad / total) / objective`` — 1.0 means "consuming budget
exactly as fast as the objective allows", higher means the budget dies
early.  Alerts follow the SRE multi-window rule: a spec fires only when
*both* its fast window (responsive) and slow window (de-noised) burn
above the threshold, and an :class:`AlertEvent` is emitted on each
rising edge.  Events carry the op-clock bucket, never wall time, so
alert sequences are bit-identical across worker counts and engines —
and :meth:`SLOEngine.poll` gives the cluster control plane the same
rising edges incrementally, which is what lets ``maintenance()`` *act*
on an alert deterministically.

:func:`parse_slo` accepts the spec grammar used by ``repro slo-report
--slo`` (see docs/observability.md for the syntax).
"""

from __future__ import annotations

import json
import re
from collections import deque
from collections.abc import Callable
from dataclasses import asdict, dataclass

from repro.errors import ConfigurationError
from repro.obs.timeseries import TimeSeriesRecorder

__all__ = [
    "AlertEvent",
    "SLOEngine",
    "SLOSpec",
    "default_cluster_slos",
    "default_service_slos",
    "parse_slo",
    "read_slo_jsonl",
    "write_slo_jsonl",
]

#: spec kinds understood by the engine
_KINDS = ("ratio", "quantile", "retention")


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective (frozen: usable as a dict key).

    ``fast_window``/``slow_window`` are bucket counts; ``burn_threshold``
    is the burn rate both windows must reach for the alert to fire;
    ``action`` names the control-plane reaction (``"migrate"`` asks
    :meth:`repro.cluster.service.ClusterService.maintenance` to sweep
    degraded keys off their arrays; ``""`` is observe-only).
    """

    name: str
    kind: str
    objective: float
    series: str
    bad_series: str = ""
    q: float = 0.99
    bound: float = 0.0
    fast_window: int = 1
    slow_window: int = 8
    burn_threshold: float = 2.0
    action: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown SLO kind: {self.kind!r}")
        if not 0.0 < self.objective <= 1.0:
            raise ConfigurationError("SLO objective must be in (0, 1]")
        if self.fast_window < 1 or self.slow_window < self.fast_window:
            raise ConfigurationError(
                "SLO windows must satisfy 1 <= fast_window <= slow_window"
            )
        if self.burn_threshold <= 0:
            raise ConfigurationError("SLO burn threshold must be positive")
        if self.kind == "retention" and self.bound <= 0:
            raise ConfigurationError(
                "retention minimum must be positive (a non-positive bound "
                "can never be violated)"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def ratio(
        cls, name: str, bad: str, total: str, *, objective: float, **kwargs: object
    ) -> "SLOSpec":
        """Bad/total counter ratio must stay under ``objective``."""
        return cls(name=name, kind="ratio", objective=objective,
                   series=total, bad_series=bad, **kwargs)  # type: ignore[arg-type]

    @classmethod
    def quantile(
        cls, name: str, series: str, *, q: float, bound: float, **kwargs: object
    ) -> "SLOSpec":
        """The ``q``-quantile of a histogram must stay under ``bound``."""
        return cls(name=name, kind="quantile", objective=round(1.0 - q, 9),
                   series=series, q=q, bound=bound, **kwargs)  # type: ignore[arg-type]

    @classmethod
    def retention(
        cls,
        name: str,
        series: str,
        *,
        minimum: float,
        objective: float = 0.05,
        **kwargs: object,
    ) -> "SLOSpec":
        """A gauge must stay >= ``minimum`` in all but an ``objective``
        fraction of sampled buckets."""
        return cls(name=name, kind="retention", objective=objective,
                   series=series, bound=minimum, **kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        """One-line human-readable form of the objective."""
        if self.kind == "ratio":
            return f"{self.bad_series} / {self.series} < {self.objective:g}"
        if self.kind == "quantile":
            return f"p{self.q * 100:g}({self.series}) < {self.bound:g}"
        return f"{self.series} >= {self.bound:g}"


@dataclass(frozen=True)
class AlertEvent:
    """A burn-rate alert rising edge, on the op-clock time axis."""

    slo: str
    bucket: int
    clock: int
    burn_fast: float
    burn_slow: float
    action: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


#: ``p99(series{...})`` call in the spec grammar
_QUANTILE_RE = re.compile(r"^p(\d+(?:\.\d+)?)\((.+)\)$")


def _parse_selector(text: str) -> tuple[str, dict[str, str]]:
    """A spec-side series selector: bare name or ``name{k=v,...}`` with
    optionally-quoted label values."""
    text = text.strip()
    if "{" not in text:
        if not re.fullmatch(r"[\w:]+", text):
            raise ConfigurationError(f"unparseable series selector: {text!r}")
        return text, {}
    if not text.endswith("}"):
        raise ConfigurationError(f"unparseable series selector: {text!r}")
    name, body = text[:-1].split("{", 1)
    labels: dict[str, str] = {}
    if body.strip():
        for part in body.split(","):
            if "=" not in part:
                raise ConfigurationError(f"unparseable series selector: {text!r}")
            key, value = part.split("=", 1)
            labels[key.strip()] = value.strip().strip('"')
    return name.strip(), labels


def _render_selector(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def parse_slo(text: str, **kwargs: object) -> SLOSpec:
    """Parse an SLO spec string into an :class:`SLOSpec`.

    Grammar (optional leading ``name:`` gives the SLO its name):

    * ``bad_selector / total_selector < objective`` — ratio
    * ``pQQ(selector) < bound`` — histogram quantile
    * ``selector >= minimum`` — gauge retention

    Keyword arguments pass through to the spec (windows, threshold,
    action).
    """
    body = text.strip()
    name = ""
    head, sep, rest = body.partition(":")
    if sep and "{" not in head and "/" not in head and "<" not in head:
        name, body = head.strip(), rest.strip()
    if ">=" in body:
        series, _, minimum = body.partition(">=")
        selector = _parse_selector(series)
        return SLOSpec.retention(
            name or f"{selector[0]}_retention",
            _render_selector(*selector),
            minimum=float(minimum),
            **kwargs,  # type: ignore[arg-type]
        )
    if "<" not in body:
        raise ConfigurationError(f"unparseable SLO spec: {text!r}")
    left, _, threshold = body.rpartition("<")
    left = left.strip()
    quantile = _QUANTILE_RE.match(left)
    if quantile:
        q = float(quantile.group(1)) / 100.0
        selector = _parse_selector(quantile.group(2))
        return SLOSpec.quantile(
            name or f"{selector[0]}_p{quantile.group(1)}",
            _render_selector(*selector),
            q=q,
            bound=float(threshold),
            **kwargs,  # type: ignore[arg-type]
        )
    if "/" in left:
        bad_text, _, total_text = left.partition("/")
        bad = _parse_selector(bad_text)
        total = _parse_selector(total_text)
        return SLOSpec.ratio(
            name or f"{bad[0]}_ratio",
            _render_selector(*bad),
            _render_selector(*total),
            objective=float(threshold),
            **kwargs,  # type: ignore[arg-type]
        )
    raise ConfigurationError(f"unparseable SLO spec: {text!r}")


def default_service_slos() -> tuple[SLOSpec, ...]:
    """SLOs every single-array service run can evaluate."""
    return (
        SLOSpec.ratio(
            "write_loss",
            "writes_total{outcome=lost}",
            "writes_total",
            objective=0.001,
            burn_threshold=2.0,
        ),
        SLOSpec.quantile(
            "drain_cost_p99",
            "stage_cost{stage=differential_write}",
            q=0.99,
            bound=640.0,
            burn_threshold=2.0,
        ),
    )


def default_cluster_slos() -> tuple[SLOSpec, ...]:
    """The cluster control plane's SLO roster.

    ``degrade_burst`` is the feedback hook: its alert carries
    ``action="migrate"``, which :meth:`ClusterService.maintenance` turns
    into an immediate sweep of degraded keys (see docs/observability.md).
    """
    return default_service_slos() + (
        SLOSpec.ratio(
            "degrade_burst",
            "health_transitions_total{to=degraded}",
            "writes_total",
            objective=0.02,
            fast_window=1,
            slow_window=4,
            burn_threshold=2.0,
            action="migrate",
        ),
        SLOSpec.retention(
            "capacity_retention",
            "capacity_retention{scope=cluster}",
            minimum=0.9,
            objective=0.05,
            fast_window=1,
            slow_window=4,
            burn_threshold=2.0,
        ),
    )


#: ``(bad, total)`` event counts of one bucket
_Counts = tuple[float, float]

#: reads one slot's :data:`_Counts` from the recorder's ring tables
_Reader = Callable[[int], _Counts]


def _spec_selectors(spec: SLOSpec) -> tuple[tuple[str, dict[str, str]], ...]:
    """The parsed series selectors a spec reads (``(bad, total)`` for a
    ratio, the single series otherwise)."""
    if spec.kind == "ratio":
        return _parse_selector(spec.bad_series), _parse_selector(spec.series)
    return (_parse_selector(spec.series),)


class _BurnState:
    """Trailing fast/slow window sums of one spec's ``(bad, total)``
    series, plus what :meth:`SLOEngine.poll` remembers between calls.

    The sums cover the *closed* buckets: :meth:`burn` rates the bucket
    after them without closing it (the newest bucket may still fill),
    :meth:`close` appends a bucket for good.  This is the only burn-rate
    implementation — :meth:`SLOEngine.evaluate` scans the retained window
    with a fresh state, :meth:`SLOEngine.poll` scans only the buckets
    added since its previous scan plus the still-open newest one.
    """

    __slots__ = ("spec", "history", "sums", "fired",
                 "next_bucket", "open_counts", "open_fired", "alerted")

    def __init__(self, spec: SLOSpec) -> None:
        self.spec = spec
        #: counts of the newest ``slow_window`` closed buckets
        self.history: deque[_Counts] = deque(maxlen=spec.slow_window)
        #: ``(fast bad, fast total, slow bad, slow total)`` ending at the
        #: newest closed bucket
        self.sums = (0.0, 0.0, 0.0, 0.0)
        #: whether the newest closed bucket fired
        self.fired = False
        #: first bucket not yet closed (``None`` before the first scan)
        self.next_bucket: int | None = None
        #: the open bucket's counts and fired state at the last scan
        self.open_counts: _Counts = (0.0, 0.0)
        self.open_fired = False
        #: the newest bucket that raised an alert (each alerts at most once)
        self.alerted = -1

    def burn(self, bad: float, total: float) -> tuple[bool, float, float, tuple]:
        """``(fired, burn_fast, burn_slow, sums)`` of the bucket after the
        closed ones (burn is 0 where a window saw no events)."""
        spec = self.spec
        history = self.history
        fast_bad, fast_total, slow_bad, slow_total = self.sums
        fast_bad += bad
        fast_total += total
        slow_bad += bad
        slow_total += total
        if len(history) >= spec.fast_window:
            old_bad, old_total = history[-spec.fast_window]
            fast_bad -= old_bad
            fast_total -= old_total
        if len(history) == spec.slow_window:
            old_bad, old_total = history[0]
            slow_bad -= old_bad
            slow_total -= old_total
        fast = fast_bad / fast_total / spec.objective if fast_total > 0 else 0.0
        slow = slow_bad / slow_total / spec.objective if slow_total > 0 else 0.0
        fired = fast >= spec.burn_threshold and slow >= spec.burn_threshold
        return fired, fast, slow, (fast_bad, fast_total, slow_bad, slow_total)

    def close(self, counts: _Counts, sums: tuple, fired: bool) -> None:
        self.history.append(counts)
        self.sums = sums
        self.fired = fired

    def close_evicted(self, count: int) -> None:
        """Close ``count`` buckets the ring evicted before a scan closed
        them: the open bucket on its last-read counts, the rest empty
        (after ``slow_window`` empty buckets nothing is left to forget)."""
        counts = self.open_counts
        for _ in range(min(count, self.spec.slow_window + 1)):
            fired, _fast, _slow, sums = self.burn(*counts)
            self.close(counts, sums, fired)
            counts = (0.0, 0.0)

    def scan(
        self,
        read: _Reader,
        start: int,
        first: int,
        end: int,
        *,
        keep_open: bool,
        series: list | None = None,
    ) -> list[tuple[int, float, float]]:
        """Rate absolute buckets ``first .. end - 1`` (slot ``bucket -
        start``) and return their new rising edges as ``(bucket,
        burn_fast, burn_slow)``.

        Every bucket is closed except, with ``keep_open``, the newest;
        ``series`` (when given) collects ``(bad, total, fired, fast,
        slow)`` per bucket.
        """
        edges: list[tuple[int, float, float]] = []
        newest = end - 1
        for bucket in range(first, end):
            counts = read(bucket - start)
            fired, fast, slow, sums = self.burn(*counts)
            if fired and not self.fired and bucket != self.alerted:
                self.alerted = bucket
                edges.append((bucket, fast, slow))
            if series is not None:
                series.append((*counts, fired, fast, slow))
            if keep_open and bucket == newest:
                self.open_counts, self.open_fired = counts, fired
            else:
                self.close(counts, sums, fired)
        return edges


class SLOEngine:
    """Evaluate :class:`SLOSpec`s against a recorder's buckets.

    Each spec's selectors are parsed once, and the matching ring tables
    are resolved again only when the recorder's series layout changes.
    A spec's ``slow_window`` must fit in the recorder's capacity, so the
    trailing windows of the newest bucket are always fully retained.
    """

    def __init__(
        self, recorder: TimeSeriesRecorder, specs: tuple[SLOSpec, ...] | list[SLOSpec]
    ) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError("SLO spec names must be unique")
        for spec in specs:
            if spec.slow_window > recorder.capacity:
                raise ConfigurationError(
                    f"SLO {spec.name!r}: slow_window {spec.slow_window} exceeds "
                    f"the recorder capacity of {recorder.capacity} buckets"
                )
        self.recorder = recorder
        self.specs = tuple(specs)
        self._selectors = {spec.name: _spec_selectors(spec) for spec in self.specs}
        self._readers: dict[str, _Reader] = {}
        self._layout = -1
        # poll() memory: per-spec window state, the recorder sample count
        # it last saw, and the rising edges not yet handed to poll()
        self._states = {spec.name: _BurnState(spec) for spec in self.specs}
        self._seen_samples = 0
        self._fresh: list[AlertEvent] = []

    # -- per-spec series -----------------------------------------------------

    def _resolved(self) -> dict[str, _Reader]:
        """Per-spec slot readers, re-resolved on a series layout change."""
        if self.recorder.layout_version != self._layout:
            self._layout = self.recorder.layout_version
            self._readers = {spec.name: self._reader(spec) for spec in self.specs}
        return self._readers

    def _reader(self, spec: SLOSpec) -> _Reader:
        """A function from ring slot to the spec's ``(bad, total)`` counts."""
        recorder = self.recorder
        selectors = self._selectors[spec.name]
        if spec.kind == "ratio":
            (bad_name, bad_labels), (total_name, total_labels) = selectors
            bad = recorder.slot_tables("counter", bad_name, bad_labels)
            total = recorder.slot_tables("counter", total_name, total_labels)
            return lambda slot: (
                float(sum(array.item(slot) for array in bad)),
                float(sum(array.item(slot) for array in total)),
            )
        ((name, labels),) = selectors
        if spec.kind == "quantile":
            entries = recorder.slot_tables("histogram", name, labels)
            if not entries:
                return lambda slot: (0.0, 0.0)
            edges = entries[0]["edges"]
            if any(entry["edges"] != edges for entry in entries):
                raise ConfigurationError(
                    f"selector {name!r} matches histograms with differing edges"
                )
            # observations in buckets whose inclusive upper edge is <= bound
            # are within the objective; everything else (incl. overflow) is bad
            good_buckets = sum(1 for edge in edges if edge <= spec.bound)

            def read_quantile(slot: int) -> _Counts:
                total = sum(entry["totals"].item(slot) for entry in entries)
                good = sum(
                    int(entry["counts"][slot, :good_buckets].sum())
                    for entry in entries
                )
                return float(total - good), float(total)

            return read_quantile
        # retention: bad = sampled buckets where the gauge dips below minimum
        gauges = recorder.slot_tables("gauge", name, labels)
        samples = recorder.sample_count_table()

        def read_retention(slot: int) -> _Counts:
            if not samples.item(slot):
                return 0.0, 0.0
            value = 0.0
            for array in gauges:
                value += array.item(slot)
            return (1.0 if value < spec.bound else 0.0), 1.0

        return read_retention

    def _event(self, spec: SLOSpec, bucket: int, fast: float, slow: float) -> AlertEvent:
        return AlertEvent(
            slo=spec.name,
            bucket=bucket,
            clock=(bucket + 1) * self.recorder.bucket_width,
            burn_fast=round(fast, 6),
            burn_slow=round(slow, 6),
            action=spec.action,
        )

    def _update(self) -> None:
        """The one evaluation step :meth:`poll` and :meth:`active_actions`
        share: rate the buckets added since the previous step plus the
        still-open newest bucket, queueing new rising edges for
        :meth:`poll`.  A no-op until the recorder samples again."""
        recorder = self.recorder
        if recorder.samples == self._seen_samples:
            return
        self._seen_samples = recorder.samples
        readers = self._resolved()
        start = recorder.start_bucket
        end = start + recorder.bucket_count
        for spec in self.specs:
            state = self._states[spec.name]
            first = start if state.next_bucket is None else state.next_bucket
            if first < start:
                state.close_evicted(start - first)
                first = start
            for bucket, fast, slow in state.scan(
                readers[spec.name], start, first, end, keep_open=True
            ):
                self._fresh.append(self._event(spec, bucket, fast, slow))
            state.next_bucket = end - 1

    # -- reporting -----------------------------------------------------------

    def evaluate(self) -> dict:
        """Full evaluation: per-spec budget accounting, burn-rate series
        and alert events over the retained window (deterministic; safe
        to fold into digested snapshots).  Windows of the oldest retained
        buckets are truncated at the window start."""
        recorder = self.recorder
        start = recorder.start_bucket
        end = start + recorder.bucket_count
        readers = self._resolved()
        report: dict = {
            "buckets": recorder.bucket_count,
            "bucket_width": recorder.bucket_width,
            "start_bucket": start,
            "slos": {},
        }
        for spec in self.specs:
            series: list = []
            edges = _BurnState(spec).scan(
                readers[spec.name], start, start, end, keep_open=False, series=series
            )
            bad_events = float(sum(row[0] for row in series))
            total_events = float(sum(row[1] for row in series))
            budget = spec.objective * total_events
            consumed = bad_events / budget if budget > 0 else 0.0
            report["slos"][spec.name] = {
                "kind": spec.kind,
                "objective": spec.objective,
                "description": spec.describe(),
                "action": spec.action,
                "events": int(total_events),
                "bad": int(bad_events),
                "budget": round(budget, 6),
                "budget_consumed": round(consumed, 6),
                "budget_left_fraction": round(max(0.0, 1.0 - consumed), 6),
                "violating_buckets": sum(1 for row in series if row[2]),
                "burn_fast": [round(row[3], 6) for row in series],
                "burn_slow": [round(row[4], 6) for row in series],
                "alerts": [
                    self._event(spec, *edge).to_dict() for edge in edges
                ],
            }
        return report

    def poll(self) -> list[AlertEvent]:
        """New rising-edge alerts since the previous poll.

        Incremental: each call rates only the buckets added since the
        previous evaluation plus the newest bucket, which is re-rated on
        every call because several samples can land in it (refused
        writes do not advance the op clock).  Its predecessors' state is
        frozen once a newer bucket exists.  A burn rate is a ratio, so a
        filling bucket can fire and later stop firing; what keeps the
        control plane from seeing an edge twice is that each bucket
        alerts at most once.  Eviction does not reset the window state,
        so a burn that outlasts the ring does not re-alert.  The engine
        follows a recorder fed by ``sample()``: a ``merge()`` into closed
        buckets is seen by :meth:`evaluate`, not by later polls.
        """
        self._update()
        fresh, self._fresh = self._fresh, []
        return fresh

    def active_actions(self) -> frozenset[str]:
        """Actions of specs whose *newest* bucket is currently firing.

        Alert *events* are edge-triggered (:meth:`poll` emits each rising
        edge once); the *response* should be level-triggered — a control
        plane keeps acting for as long as the burn condition holds, not
        only at the instant it first crossed the threshold.  Empty-string
        actions (observe-only specs) are never included.
        """
        self._update()
        return frozenset(
            spec.action
            for spec in self.specs
            if spec.action and self._states[spec.name].open_fired
        )


def write_slo_jsonl(
    path: str, recorder: TimeSeriesRecorder, specs: tuple[SLOSpec, ...]
) -> int:
    """Write the series export plus SLO verdicts and alerts as one JSONL
    artifact (the file ``repro slo-report`` consumes); returns the line
    count."""
    engine = SLOEngine(recorder, specs)
    report = engine.evaluate()
    records = recorder.export_records()
    for name, entry in report["slos"].items():
        records.append({"record": "slo", "name": name, **entry})
        for alert in entry["alerts"]:
            records.append({"record": "alert", **alert})
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_slo_jsonl(path: str) -> dict:
    """Read a :func:`write_slo_jsonl` artifact (alias of the series
    reader — slo/alert records are recognized there)."""
    from repro.obs.timeseries import read_series_jsonl

    return read_series_jsonl(path)
