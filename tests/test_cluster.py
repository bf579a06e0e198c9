"""The multi-tenant cluster service: placement, QoS admission, live
migration, and the deterministic bench harness over it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    ClusterService,
    TenantSpec,
    default_tenants,
    run_cluster_bench,
)
from repro.cluster.qos import QoSClass
from repro.errors import (
    BackpressureError,
    ClusterCapacityError,
    ConfigurationError,
)
from repro.pcm.lifetime import FixedLifetime, NormalLifetime
from repro.sim.roster import aegis_spec

BITS = 64


class LongLife(FixedLifetime):
    """Cells that never wear out: behaviour comes only from the layer
    under test, not fault arrival."""

    def __init__(self):
        super().__init__(10**9)


def small_cluster(n_arrays=3, *, n_addresses=16, spares=2, buffer_capacity=4, **kwargs):
    kwargs.setdefault("lifetime_model", LongLife())
    return ClusterService(
        n_arrays,
        aegis_spec(5, 13, BITS),
        n_addresses=n_addresses,
        spares=spares,
        buffer_capacity=buffer_capacity,
        seed=7,
        **kwargs,
    )


def payload(fill: int) -> np.ndarray:
    bits = np.zeros(BITS, dtype=np.uint8)
    bits[: fill % (BITS + 1)] = 1
    return bits


class TestTenants:
    def test_registration_validates(self):
        cluster = small_cluster()
        spec = TenantSpec("acme", QoSClass.INTERACTIVE, 1)
        cluster.register_tenant(spec)
        with pytest.raises(ConfigurationError):
            cluster.register_tenant(spec)
        with pytest.raises(ConfigurationError):
            cluster.write("ghost", 0, payload(1))
        with pytest.raises(ConfigurationError):
            cluster.read("ghost", 0)

    def test_negative_addresses_are_rejected(self):
        cluster = small_cluster()
        cluster.register_tenant(TenantSpec("acme", QoSClass.INTERACTIVE, 1))
        with pytest.raises(ConfigurationError):
            cluster.write("acme", -1, payload(1))
        with pytest.raises(ConfigurationError):
            cluster.read("acme", -1)

    def test_namespaces_are_isolated(self):
        cluster = small_cluster()
        cluster.register_tenant(TenantSpec("acme", QoSClass.INTERACTIVE, 1))
        cluster.register_tenant(TenantSpec("bbb", QoSClass.INTERACTIVE, 1))
        cluster.write("acme", 5, payload(10))
        cluster.write("bbb", 5, payload(30))
        cluster.flush_all()
        assert np.array_equal(cluster.read("acme", 5), payload(10))
        assert np.array_equal(cluster.read("bbb", 5), payload(30))

    def test_unwritten_keys_read_as_zeros_without_placement(self):
        cluster = small_cluster()
        cluster.register_tenant(TenantSpec("acme", QoSClass.INTERACTIVE, 1))
        assert not cluster.read("acme", 3).any()
        assert cluster.key_count == 0  # reads never create placements


class TestQoS:
    def fill_node(self, cluster, tenant, node):
        """Write through ``tenant`` until ``node``'s buffer hits the
        bulk watermark, returning the addresses used."""
        used = []
        for address in range(200):
            if node.occupancy >= cluster.bulk_watermark:
                return used
            if cluster.node_of(tenant, address) is None:
                target = cluster._place_node((tenant, address))
                if target is not node:
                    continue
            cluster.write(tenant, address, payload(address))
            used.append(address)
        pytest.fail("never reached the bulk watermark")

    def test_bulk_writer_backpressured_at_the_watermark(self):
        cluster = small_cluster(n_addresses=64, buffer_capacity=4)
        cluster.register_tenant(TenantSpec("bulk", QoSClass.BULK, 1))
        used = self.fill_node(cluster, "bulk", cluster.nodes[0])
        with pytest.raises(BackpressureError) as excinfo:
            cluster.write("bulk", used[0], payload(1))
        error = excinfo.value
        assert error.array == cluster.nodes[0].name
        assert error.tenant == "bulk"
        assert error.retry_after >= 1
        backpressure = cluster.telemetry.metrics.counter_total(
            "tenant_backpressure_total", qos="bulk"
        )
        assert backpressure == 1

    def test_interactive_writer_never_backpressured(self):
        cluster = small_cluster(n_addresses=64, buffer_capacity=4)
        cluster.register_tenant(TenantSpec("vip", QoSClass.INTERACTIVE, 1))
        for address in range(40):  # far past any watermark
            cluster.write("vip", address, payload(address))
        assert (
            cluster.telemetry.metrics.counter_total("tenant_backpressure_total") == 0
        )

    def test_maintenance_reopens_bulk_admission(self):
        cluster = small_cluster(n_addresses=64, buffer_capacity=4)
        cluster.register_tenant(TenantSpec("bulk", QoSClass.BULK, 1))
        node = cluster.nodes[0]
        used = self.fill_node(cluster, "bulk", node)
        with pytest.raises(BackpressureError):
            cluster.write("bulk", used[0], payload(1))
        flushed = cluster.maintenance()["flushed"]
        assert flushed >= 1
        cluster.write("bulk", used[0], payload(1))  # admitted again


class TestMigration:
    def test_drain_array_preserves_read_your_writes(self):
        cluster = small_cluster(n_arrays=3, n_addresses=32, spares=4)
        for spec in default_tenants(2):
            cluster.register_tenant(spec)
        tenants = [spec.tenant_id for spec in cluster.tenants]
        written = {}
        for tenant in tenants:
            for address in range(12):
                bits = payload(address * 3 + 1)
                cluster.write(tenant, address, bits, admit=False)
                written[(tenant, address)] = bits
        drained = cluster.nodes[1]
        resident_before = sum(
            1 for placed in cluster._placement.values() if placed[0] == 1
        )
        assert resident_before > 0, "the drill needs residents to move"
        moved = cluster.drain_array(1)
        assert moved == resident_before
        assert drained.name not in cluster.ring
        assert all(placed[0] != 1 for placed in cluster._placement.values())
        for (tenant, address), bits in written.items():
            assert np.array_equal(cluster.read(tenant, address), bits)
        migrations = cluster.telemetry.metrics.counter_total(
            "migrations_total", kind="cross_array"
        )
        assert migrations == moved

    def test_new_writes_skip_a_draining_array(self):
        cluster = small_cluster(n_arrays=2, n_addresses=32)
        cluster.register_tenant(TenantSpec("acme", QoSClass.INTERACTIVE, 1))
        cluster.drain_array(0)
        for address in range(8):
            cluster.write("acme", address, payload(address))
        assert all(placed[0] == 1 for placed in cluster._placement.values())

    def test_capacity_exhaustion_is_typed(self):
        cluster = small_cluster(n_arrays=1, n_addresses=4)
        cluster.register_tenant(TenantSpec("acme", QoSClass.INTERACTIVE, 1))
        for address in range(4):
            cluster.write("acme", address, payload(address))
        with pytest.raises(ClusterCapacityError):
            cluster.write("acme", 99, payload(1))

    def test_placement_digest_tracks_the_table(self):
        cluster = small_cluster()
        cluster.register_tenant(TenantSpec("acme", QoSClass.INTERACTIVE, 1))
        empty = cluster.placement_digest()
        cluster.write("acme", 0, payload(1))
        assert cluster.placement_digest() != empty
        # pure function of the placement table
        assert cluster.placement_digest() == cluster.placement_digest()


class TestClusterBench:
    BENCH_KWARGS = dict(
        ops=240,
        n_arrays=3,
        tenants=4,
        seed=2013,
        tenant_addresses=12,
        n_addresses=24,
        spares=4,
        lifetime_model=NormalLifetime(mean_lifetime=40.0),
        degrade_at=120,
        degrade_array=1,
    )

    def run(self, **overrides):
        kwargs = dict(self.BENCH_KWARGS, **overrides)
        return run_cluster_bench(aegis_spec(5, 13, BITS), **kwargs)

    def test_audit_is_clean_through_the_degrade_drill(self):
        report = self.run()
        assert report.audit_failures == 0
        assert report.audit_checked > 0
        migrations = report.telemetry.metrics.counter_total(
            "migrations_total", kind="cross_array"
        )
        assert migrations > 0, "the drained array's keys must migrate"
        interactive = report.telemetry.metrics.counter_total(
            "tenant_backpressure_total", qos="interactive"
        )
        assert interactive == 0

    def test_digests_invariant_across_workers_and_engines(self):
        baseline = self.run()
        for overrides in ({"workers": 2}, {"engine": "scalar"}):
            other = self.run(**overrides)
            assert other.audit_digest == baseline.audit_digest, overrides
            assert other.snapshot_digest == baseline.snapshot_digest, overrides

    def test_per_tenant_summary_is_complete(self):
        report = self.run()
        assert set(report.per_tenant) == {f"tenant{i}" for i in range(4)}
        for entry in report.per_tenant.values():
            assert entry["qos"] in ("interactive", "bulk")
            assert entry["writes"] > 0
            if entry["qos"] == "interactive":
                assert entry["backpressure"] == 0
