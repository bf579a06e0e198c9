"""Tests for the SLO / error-budget engine (:mod:`repro.obs.slo`).

Covers the spec grammar, the burn-rate math, the exactly-once alert
poll (checked against a full-rescan reference over random streams), and
the end-to-end contract: a cluster-bench degrade drill fires a
burn-rate alert, the control plane answers it with ``kind="alert"``
migrations, and every series/verdict/alert surface is bit-identical
across worker counts and drain engines.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, TimeSeriesRecorder
from repro.obs.report import render_slo_report
from repro.obs.slo import (
    AlertEvent,
    SLOEngine,
    SLOSpec,
    default_cluster_slos,
    default_service_slos,
    parse_slo,
    read_slo_jsonl,
    write_slo_jsonl,
    _parse_selector,
)
from repro.cluster.bench import run_cluster_bench
from repro.pcm.lifetime import NormalLifetime
from repro.sim.roster import aegis_spec


class TestSpecGrammar:
    def test_ratio_spec(self):
        spec = parse_slo(
            "write_loss: writes_total{outcome=lost} / writes_total < 0.001"
        )
        assert spec.name == "write_loss"
        assert spec.kind == "ratio"
        assert spec.bad_series == "writes_total{outcome=lost}"
        assert spec.series == "writes_total"
        assert spec.objective == 0.001

    def test_quantile_spec(self):
        spec = parse_slo("p99(stage_cost{stage=drain}) < 640")
        assert spec.kind == "quantile"
        assert spec.q == 0.99
        assert spec.bound == 640
        assert spec.objective == pytest.approx(0.01)

    def test_retention_spec(self):
        spec = parse_slo("capacity_retention{scope=cluster} >= 0.9")
        assert spec.kind == "retention"
        assert spec.bound == 0.9

    def test_name_defaults_to_series(self):
        spec = parse_slo("writes_total{outcome=lost} / writes_total < 0.01")
        assert spec.name

    def test_bad_specs_rejected(self):
        for text in ("nonsense", "a / b < 0", "p200(x) < 5", "x >= -1"):
            with pytest.raises(ConfigurationError):
                parse_slo(text)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SLOSpec.ratio("x", bad="a", total="b", objective=2.0)
        with pytest.raises(ConfigurationError):
            SLOSpec.quantile("x", series="s", q=1.5, bound=10)

    def test_default_rosters(self):
        service = default_service_slos()
        cluster = default_cluster_slos()
        assert {spec.name for spec in service} <= {spec.name for spec in cluster}
        assert any(spec.action == "migrate" for spec in cluster)
        for spec in cluster:
            assert spec.describe()


def _engine(specs, fill):
    """Build a recorder + engine; ``fill(registry, sample)`` drives it."""
    registry = MetricsRegistry()
    recorder = TimeSeriesRecorder(registry, bucket_width=10, capacity=64)
    engine = SLOEngine(recorder, specs)
    fill(registry, recorder.sample)
    return engine


class TestBurnMath:
    def test_ratio_burn_and_budget(self):
        spec = SLOSpec.ratio(
            "loss", bad="bad_total", total="ops_total", objective=0.1,
            fast_window=1, slow_window=2, burn_threshold=2.0,
        )

        def fill(registry, sample):
            registry.inc("ops_total", 10)
            sample(5)                       # bucket 0: clean
            registry.inc("ops_total", 10)
            registry.inc("bad_total", 4)    # 40% bad = 4x the objective
            sample(15)                      # bucket 1: burning
            registry.inc("ops_total", 10)
            sample(25)                      # bucket 2: clean again

        engine = _engine((spec,), fill)
        report = engine.evaluate()["slos"]["loss"]
        assert report["events"] == 30
        assert report["bad"] == 4
        assert report["budget"] == pytest.approx(3.0)
        assert report["budget_consumed"] == pytest.approx(4 / 3)
        assert report["burn_fast"] == [0.0, 4.0, 0.0]
        # slow window 2: bucket 1 sees 4/20 = 2x, bucket 2 sees 4/20 = 2x
        assert report["burn_slow"] == [0.0, 2.0, 2.0]
        # alert requires fast AND slow >= threshold -> only bucket 1
        assert report["violating_buckets"] == 1
        assert [alert["bucket"] for alert in report["alerts"]] == [1]

    def test_quantile_bad_counts_tail(self):
        spec = SLOSpec.quantile(
            "p99_cost", series="stage_cost", q=0.99, bound=64
        )

        def fill(registry, sample):
            for value in (5, 10, 100):
                registry.observe("stage_cost", value, edges=(8, 64))
            sample(5)

        engine = _engine((spec,), fill)
        report = engine.evaluate()["slos"]["p99_cost"]
        assert report["events"] == 3
        assert report["bad"] == 1   # the 100 observation is beyond the bound

    def test_retention_bad_counts_dips(self):
        spec = SLOSpec.retention(
            "cap", series="capacity_retention{scope=cluster}", minimum=0.9
        )

        def fill(registry, sample):
            registry.set_gauge("capacity_retention", 1.0, scope="cluster")
            sample(5)
            registry.set_gauge("capacity_retention", 0.8, scope="cluster")
            sample(15)

        engine = _engine((spec,), fill)
        report = engine.evaluate()["slos"]["cap"]
        assert report["events"] == 2    # sampled buckets
        assert report["bad"] == 1

    def test_duplicate_names_rejected(self):
        recorder = TimeSeriesRecorder(MetricsRegistry(), bucket_width=10)
        specs = (parse_slo("a: x / y < 0.1"), parse_slo("a: z / y < 0.1"))
        with pytest.raises(ConfigurationError):
            SLOEngine(recorder, specs)

    def test_slow_window_beyond_capacity_rejected(self):
        recorder = TimeSeriesRecorder(MetricsRegistry(), bucket_width=10, capacity=4)
        fits = SLOSpec.ratio(
            "fits", bad="x", total="y", objective=0.1, slow_window=4
        )
        SLOEngine(recorder, (fits,))
        spec = SLOSpec.ratio(
            "wide", bad="x", total="y", objective=0.1, slow_window=5
        )
        with pytest.raises(ConfigurationError, match="capacity"):
            SLOEngine(recorder, (fits, spec))


class TestPoll:
    def _burst_engine(self):
        spec = SLOSpec.ratio(
            "loss", bad="bad_total", total="ops_total", objective=0.1,
            fast_window=1, slow_window=1, burn_threshold=2.0,
        )
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, bucket_width=10, capacity=64)
        return registry, recorder, SLOEngine(recorder, (spec,))

    def test_rising_edge_fires_exactly_once(self):
        registry, recorder, engine = self._burst_engine()
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(5)
        alerts = engine.poll()
        assert [alert.slo for alert in alerts] == ["loss"]
        assert engine.poll() == []          # same state: no re-fire
        registry.inc("ops_total", 10)
        recorder.sample(15)                 # clean bucket: burn drops
        assert engine.poll() == []
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(25)                 # second burst: new rising edge
        assert [alert.bucket for alert in engine.poll()] == [2]

    def test_active_actions_is_level_triggered(self):
        spec = SLOSpec.ratio(
            "loss", bad="bad_total", total="ops_total", objective=0.1,
            fast_window=1, slow_window=2, burn_threshold=2.0, action="migrate",
        )
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, bucket_width=10, capacity=64)
        engine = SLOEngine(recorder, (spec,))
        assert engine.active_actions() == frozenset()
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(5)
        assert engine.active_actions() == {"migrate"}
        assert engine.poll() and engine.poll() == []
        # the action stays active while the burn condition holds, even
        # though the rising edge has already been consumed by poll()
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(15)
        assert engine.poll() == []          # still the same firing episode
        assert engine.active_actions() == {"migrate"}
        # a clean bucket ends the episode: the action deactivates
        registry.inc("ops_total", 10)
        recorder.sample(25)
        assert engine.active_actions() == frozenset()

    def test_alert_event_shape(self):
        registry, recorder, engine = self._burst_engine()
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(5)
        (alert,) = engine.poll()
        record = alert.to_dict()
        assert record["slo"] == "loss"
        assert record["bucket"] == 0
        assert record["clock"] == 10
        assert record["burn_fast"] == pytest.approx(5.0)

    def test_burn_outlasting_the_ring_alerts_once(self):
        spec = SLOSpec.ratio(
            "loss", bad="bad_total", total="ops_total", objective=0.1,
            fast_window=1, slow_window=2, burn_threshold=2.0,
        )
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, bucket_width=1, capacity=3)
        engine = SLOEngine(recorder, (spec,))
        reference = _RescanReference(recorder, (spec,))
        polled, rescanned = [], []
        for tick in range(8):
            registry.inc("ops_total", 5)
            registry.inc("bad_total", 5)
            recorder.sample(tick)
            polled += [alert.bucket for alert in engine.poll()]
            rescanned += [alert.bucket for alert in reference.poll()]
        assert polled == [0]
        # the full rescan saw each new oldest bucket as a fresh rising edge
        assert rescanned == [0, 1, 2, 3, 4, 5]
        assert engine.active_actions() == frozenset()


class _RescanReference:
    """The full-rescan ``poll``/``active_actions`` the incremental engine
    replaced: every call rebuilds each spec's per-bucket series over the
    whole retained window and convolves the burn windows."""

    def __init__(self, recorder, specs):
        self.recorder = recorder
        self.specs = tuple(specs)
        self._alerted = {spec.name: set() for spec in self.specs}

    def _bad_total(self, spec):
        recorder = self.recorder
        if spec.kind == "ratio":
            bad_name, bad_labels = _parse_selector(spec.bad_series)
            total_name, total_labels = _parse_selector(spec.series)
            bad = recorder.counter_view(bad_name, **bad_labels).astype(np.float64)
            total = recorder.counter_view(total_name, **total_labels).astype(np.float64)
            return bad, total
        if spec.kind == "quantile":
            name, labels = _parse_selector(spec.series)
            view = recorder.histogram_view(name, **labels)
            if view is None:
                empty = np.zeros(recorder.bucket_count, dtype=np.float64)
                return empty, empty.copy()
            edges, counts, totals, _sums = view
            good_buckets = sum(1 for edge in edges if edge <= spec.bound)
            good = counts[:, :good_buckets].sum(axis=1) if good_buckets else 0
            total = totals.astype(np.float64)
            return total - good, total
        name, labels = _parse_selector(spec.series)
        values = recorder.gauge_view(name, **labels)
        sampled = recorder.sampled_mask()
        total = sampled.astype(np.float64)
        bad = (sampled & (values < spec.bound)).astype(np.float64)
        return bad, total

    @staticmethod
    def _burn(bad, total, window, objective):
        if bad.size == 0:
            return np.zeros(0, dtype=np.float64)
        kernel = np.ones(window, dtype=np.float64)
        bad_sum = np.convolve(bad, kernel)[: bad.size]
        total_sum = np.convolve(total, kernel)[: bad.size]
        out = np.zeros(bad.size, dtype=np.float64)
        mask = total_sum > 0
        out[mask] = (bad_sum[mask] / total_sum[mask]) / objective
        return out

    def _fired(self, spec):
        bad, total = self._bad_total(spec)
        fast = self._burn(bad, total, spec.fast_window, spec.objective)
        slow = self._burn(bad, total, spec.slow_window, spec.objective)
        fired = (fast >= spec.burn_threshold) & (slow >= spec.burn_threshold)
        return fired, fast, slow

    def poll(self):
        fresh = []
        for spec in self.specs:
            fired, fast, slow = self._fired(spec)
            start = self.recorder.start_bucket
            alerted = self._alerted[spec.name]
            alerted.difference_update({b for b in alerted if b < start})
            previous = False
            for index, firing in enumerate(fired.tolist()):
                bucket = start + index
                if firing and not previous and bucket not in alerted:
                    alerted.add(bucket)
                    fresh.append(
                        AlertEvent(
                            slo=spec.name,
                            bucket=bucket,
                            clock=(bucket + 1) * self.recorder.bucket_width,
                            burn_fast=round(float(fast[index]), 6),
                            burn_slow=round(float(slow[index]), 6),
                            action=spec.action,
                        )
                    )
                previous = firing
        return fresh

    def active_actions(self):
        active = set()
        for spec in self.specs:
            if spec.action:
                fired, _fast, _slow = self._fired(spec)
                if fired.size and bool(fired[-1]):
                    active.add(spec.action)
        return frozenset(active)


@st.composite
def _spec_roster(draw, max_window):
    """One ratio, one quantile and one retention spec with random windows."""

    def windows():
        fast = draw(st.integers(1, max_window))
        return {
            "fast_window": fast,
            "slow_window": draw(st.integers(fast, max_window)),
            "burn_threshold": draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
        }

    return (
        SLOSpec.ratio(
            "loss", bad="bad_total{kind=lost}", total="ops_total",
            objective=draw(st.sampled_from([0.05, 0.1, 0.25])),
            action="migrate", **windows(),
        ),
        SLOSpec.quantile(
            "tail", series="cost{stage=w}", q=0.9,
            bound=draw(st.sampled_from([8.0, 32.0, 100.0])),
            action="shed", **windows(),
        ),
        SLOSpec.retention(
            "cap", series="retention{scope=cluster}", minimum=0.9,
            objective=draw(st.sampled_from([0.1, 0.3])), **windows(),
        ),
    )


#: one registry update: (ops, bad, bad kind, cost observations, retention
#: gauge or None)
_update = st.tuples(
    st.integers(0, 12),
    st.integers(0, 6),
    st.sampled_from(["lost", "late"]),
    st.lists(st.integers(0, 120), max_size=3),
    st.none() | st.sampled_from([0.5, 0.85, 0.95, 1.0]),
)


def _apply(registry, update):
    ops, bad, kind, costs, retention = update
    if ops:
        registry.inc("ops_total", ops, tenant="t0")
    if bad:
        registry.inc("bad_total", bad, kind=kind)
    for cost in costs:
        registry.observe("cost", cost, edges=(8, 32, 64), stage="w")
    if retention is not None:
        registry.set_gauge("retention", retention, scope="cluster")
        registry.set_gauge("retention", 1.0, scope="node0")


class TestIncrementalPoll:
    """The incremental engine against the full-rescan reference."""

    @settings(max_examples=80, deadline=None)
    @given(
        specs=_spec_roster(max_window=6),
        steps=st.lists(
            # (update, clock advance, poll now, actions before poll)
            st.tuples(_update, st.integers(0, 9), st.booleans(), st.booleans()),
            min_size=1,
            max_size=40,
        ),
    )
    def test_matches_full_rescan_without_eviction(self, specs, steps):
        registry = MetricsRegistry()
        # width 4, advance 0-9: several samples per bucket and empty gaps
        recorder = TimeSeriesRecorder(registry, bucket_width=4, capacity=512)
        engine = SLOEngine(recorder, specs)
        reference = _RescanReference(recorder, specs)
        clock = 0
        for update, advance, poll, actions_first in steps:
            _apply(registry, update)
            recorder.sample(clock)
            clock += advance
            if not poll:
                continue
            if actions_first:
                assert engine.active_actions() == reference.active_actions()
            assert engine.poll() == reference.poll()
            assert engine.active_actions() == reference.active_actions()
        assert recorder.dropped == 0
        assert engine.poll() == reference.poll()

    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        data=st.data(),
    )
    def test_poll_union_matches_unbounded_evaluate(self, capacity, data):
        specs = data.draw(_spec_roster(max_window=capacity))
        steps = data.draw(
            st.lists(
                # (update, buckets to advance): one sample per bucket
                st.tuples(_update, st.integers(1, capacity)),
                min_size=1,
                max_size=40,
            )
        )
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, bucket_width=3, capacity=capacity)
        twin = TimeSeriesRecorder(registry, bucket_width=3, capacity=512)
        engine = SLOEngine(recorder, specs)
        polled: dict[str, list[dict]] = {spec.name: [] for spec in specs}
        bucket = 0
        for update, advance in steps:
            _apply(registry, update)
            recorder.sample(bucket * 3)
            twin.sample(bucket * 3)
            for alert in engine.poll():
                polled[alert.slo].append(alert.to_dict())
            bucket += advance
        report = SLOEngine(twin, specs).evaluate()
        assert twin.dropped == 0
        for spec in specs:
            assert polled[spec.name] == report["slos"][spec.name]["alerts"]


# ---------------------------------------------------------------------------
# the end-to-end contract: degrade drill -> alert -> maintenance migration


DRILL = dict(
    ops=1500,
    n_arrays=3,
    tenants=4,
    seed=2013,
    n_addresses=96,
    lifetime_model=NormalLifetime(mean_lifetime=30.0),
    degrade_at=750,
    degrade_array=1,
    degrade_threshold=2,
)


@pytest.fixture(scope="module")
def drill_reports():
    spec = aegis_spec(9, 61, 512)
    return {
        (workers, engine): run_cluster_bench(
            spec, workers=workers, engine=engine, **DRILL
        )
        for workers, engine in [(1, "vector"), (2, "scalar"), (4, "vector")]
    }


class TestDegradeDrill:
    def test_digests_identical_across_workers_and_engines(self, drill_reports):
        digests = {
            (report.audit_digest, report.snapshot_digest)
            for report in drill_reports.values()
        }
        assert len(digests) == 1
        assert all(r.audit_failures == 0 for r in drill_reports.values())

    def test_alert_fires_and_triggers_maintenance_migration(self, drill_reports):
        report = drill_reports[(1, "vector")]
        metrics = report.telemetry.metrics
        assert metrics.counter_total("slo_alerts_total", slo="degrade_burst") >= 1
        assert metrics.counter_total("migrations_total", kind="alert") >= 1
        slo = report.snapshot["slo"]["slos"]["degrade_burst"]
        assert slo["action"] == "migrate"
        assert len(slo["alerts"]) >= 1
        events = [
            event for event in report.telemetry.events
            if event.get("event") == "slo_alert"
        ]
        assert any(event["slo"] == "degrade_burst" for event in events)

    def test_slo_sections_inside_digested_snapshot(self, drill_reports):
        report = drill_reports[(1, "vector")]
        snapshot = report.snapshot
        assert "timeseries" in snapshot
        assert snapshot["timeseries"]["samples"] > 0
        assert snapshot["config"]["series_bucket"] > 0
        assert "clock" in snapshot

    def test_series_export_and_report_surface_the_alert(
        self, drill_reports, tmp_path
    ):
        report = drill_reports[(1, "vector")]
        path = tmp_path / "series.jsonl"
        report.write_series_jsonl(str(path))
        data = read_slo_jsonl(str(path))
        assert any(slo["name"] == "degrade_burst" for slo in data["slos"])
        assert any(alert["slo"] == "degrade_burst" for alert in data["alerts"])
        rendered = render_slo_report(str(path), title="Drill")
        assert "degrade_burst" in rendered
        assert "## Alert timeline" in rendered
        assert "migrate" in rendered

    def test_series_off_disables_slo_surfaces(self):
        report = run_cluster_bench(
            aegis_spec(9, 61, 512),
            ops=200,
            n_arrays=2,
            tenants=2,
            seed=7,
            series_bucket=0,
            workers=1,
        )
        assert "slo" not in report.snapshot
        assert "timeseries" not in report.snapshot
        with pytest.raises(ConfigurationError):
            report.write_series_jsonl("/tmp/unused.jsonl")


class TestSLOExport:
    def test_write_slo_jsonl_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, bucket_width=10, capacity=16)
        registry.inc("ops_total", 10)
        registry.inc("bad_total", 5)
        recorder.sample(5)
        spec = SLOSpec.ratio(
            "loss", bad="bad_total", total="ops_total", objective=0.1,
            fast_window=1, slow_window=1,
        )
        path = tmp_path / "slo.jsonl"
        lines = write_slo_jsonl(str(path), recorder, (spec,))
        data = read_slo_jsonl(str(path))
        assert lines == len(data["series"]) + len(data["slos"]) + len(
            data["alerts"]
        ) + 1
        (slo,) = data["slos"]
        assert slo["name"] == "loss"
        assert slo["budget_consumed"] == pytest.approx(5.0)
        (alert,) = data["alerts"]
        assert alert["slo"] == "loss"
