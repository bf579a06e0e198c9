"""Tests for the vectorized service drain (`repro/service/kernels.py`).

The headline property, mirroring ``tests/test_kernels.py`` one layer up:
``engine="vector"`` is a pure performance knob for the serving path.  For
every covered scheme the batched drain leaves the array, the telemetry
snapshot, and the sampled trace span trees byte-identical to the scalar
per-row pipeline — across seeds, worker counts, and drains where some
rows escalate to repartition/remap mid-batch.  Schemes without a service
kernel fall back to the scalar path transparently.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, RetiredBlockError
from repro.pcm.failcache import DirectMappedFailCache, SequentialBlockKeys
from repro.pcm.lifetime import FixedLifetime, NormalLifetime
from repro.obs.tracer import Tracer
from repro.service import (
    MemoryArray,
    ServiceController,
    ServiceTelemetry,
    kernel_for,
    resolve_engine,
    run_load,
)
from repro.sim.kernels import pack_rows_u64, popcount_rows_u64, xor_popcount_rows
from repro.sim.rng import rng_for
from repro.sim.roster import (
    aegis_rw_spec,
    aegis_spec,
    ecp_spec,
    hamming_spec,
    no_protection_spec,
    rdis_spec,
    safer_cache_spec,
    safer_spec,
)

#: every service-kernel family: XOR-mask (Aegis, SAFER, raw), pointer
#: replacement (ECP), and check-cell (Hamming)
KERNEL_SPECS = [
    aegis_spec(9, 61, 512),
    aegis_spec(17, 31, 512),
    ecp_spec(6, 512),
    safer_spec(64, 512),
    hamming_spec(512),
    no_protection_spec(512),
]

#: schemes the vector drain does not cover: replayed-history rewrites,
#: stateful caching policies, sampled checkers
FALLBACK_SPECS = [
    aegis_rw_spec(9, 61, 512),
    safer_cache_spec(64, 512),
    rdis_spec(512),
]

#: the sweep roster for the full load-generator equivalence runs
SWEEP_SPECS = [
    aegis_spec(9, 61, 512),
    ecp_spec(6, 512),
    safer_spec(64, 512),
    hamming_spec(512),
]

_IDS = lambda s: s.key  # noqa: E731


def _make_array(spec, *, engine, n_addresses=24, spares=6, lifetime=None):
    rng = rng_for(2013, 0, 77)
    return MemoryArray(
        n_addresses,
        spec.n_bits,
        spec.make_controller,
        spares=spares,
        lifetime_model=lifetime if lifetime is not None else FixedLifetime(10**9),
        fail_cache=DirectMappedFailCache(256, key_of=SequentialBlockKeys()),
        rng=rng,
        engine=engine,
    )


def _store_state(array):
    store = array.store
    return (
        store.stored.copy(),
        store.stuck.copy(),
        store.stuck_value.copy(),
        store.write_counts.copy(),
        array._map.copy(),
        sorted(array._dead),
        array.op_clock,
    )


def _assert_same_state(scalar_array, vector_array):
    for got, want in zip(_store_state(vector_array), _store_state(scalar_array)):
        if isinstance(got, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want
    assert (
        vector_array.telemetry.metrics.snapshot()
        == scalar_array.telemetry.metrics.snapshot()
    )


class TestRowBitsetHelpers:
    def test_pack_rows_round_trip_popcount(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 2, (13, 300), dtype=np.uint8)
        counts = popcount_rows_u64(pack_rows_u64(rows))
        assert counts.tolist() == [int(row.sum()) for row in rows]

    def test_pack_rows_pads_to_word_boundary(self):
        rows = np.ones((3, 9), dtype=np.uint8)
        packed = pack_rows_u64(rows)
        assert packed.dtype == np.uint64
        assert popcount_rows_u64(packed).tolist() == [9, 9, 9]

    def test_pack_rows_rejects_vectors(self):
        with pytest.raises(ConfigurationError):
            pack_rows_u64(np.ones(8, dtype=np.uint8))

    def test_xor_popcount_counts_disagreements(self):
        a = np.array([[0, 1, 1, 0], [1, 1, 1, 1]], dtype=np.uint8)
        b = np.array([[0, 1, 0, 1], [1, 1, 1, 1]], dtype=np.uint8)
        assert xor_popcount_rows(a, b).tolist() == [2, 0]


class TestEngineResolution:
    def test_invalid_engine_rejected(self):
        spec = aegis_spec(9, 61, 512)
        with pytest.raises(ConfigurationError):
            _make_array(spec, engine="gpu")
        array = _make_array(spec, engine="auto")
        with pytest.raises(ConfigurationError):
            resolve_engine("gpu", array)

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_IDS)
    def test_auto_takes_the_kernel_when_covered(self, spec):
        array = _make_array(spec, engine="auto")
        assert kernel_for(array) is not None
        assert resolve_engine("auto", array) == "vector"
        assert resolve_engine("scalar", array) == "scalar"
        assert ServiceController(array).engine == "vector"

    @pytest.mark.parametrize("spec", FALLBACK_SPECS, ids=_IDS)
    def test_uncovered_schemes_fall_back_to_scalar(self, spec):
        array = _make_array(spec, engine="auto")
        assert kernel_for(array) is None
        assert resolve_engine("vector", array) == "scalar"
        assert ServiceController(array).engine == "scalar"

    def test_kernel_is_memoised_per_array(self):
        array = _make_array(aegis_spec(9, 61, 512), engine="auto")
        assert kernel_for(array) is kernel_for(array)

    def test_controller_inherits_the_array_engine(self):
        array = _make_array(aegis_spec(9, 61, 512), engine="scalar")
        assert ServiceController(array).engine == "scalar"
        assert ServiceController(array, engine="vector").engine == "vector"


def _drive(spec, engine, *, lifetime, ops=900, buffer_capacity=16, **kwargs):
    """Drive one controller with a deterministic write/read mix; returns
    the array after close() so callers can compare full state."""
    array = _make_array(spec, engine=engine, lifetime=lifetime)
    controller = ServiceController(
        array, buffer_capacity=buffer_capacity, **kwargs
    )
    rng = rng_for(2013, 1, 78)
    for _ in range(ops):
        address = int(rng.integers(0, 24))
        if array.is_dead(address):
            continue
        if rng.random() < 0.2:
            controller.read(address)
        else:
            controller.write(
                address, rng.integers(0, 2, spec.n_bits, dtype=np.uint8)
            )
    controller.close()
    return array


class TestDrainEquivalence:
    """Direct-controller sweeps: batch and scalar drains leave identical
    array matrices, map, dead set, op clock, and metrics."""

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_IDS)
    def test_healthy_traffic_is_bit_identical(self, spec):
        lifetime = FixedLifetime(10**9)
        scalar = _drive(spec, "scalar", lifetime=lifetime)
        vector = _drive(spec, "vector", lifetime=lifetime)
        assert ServiceController(vector).engine == "vector"
        _assert_same_state(scalar, vector)

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_IDS)
    @pytest.mark.parametrize("proactive", [False, True])
    def test_mid_batch_escalations_are_bit_identical(self, spec, proactive):
        # endurance low enough that drains mix fast rows with wear-out,
        # repartition walks, migrations, and spare remaps mid-batch
        lifetime = NormalLifetime(mean_lifetime=22.0)
        scalar = _drive(
            spec, "scalar", lifetime=lifetime, proactive_migration=proactive
        )
        vector = _drive(
            spec, "vector", lifetime=lifetime, proactive_migration=proactive
        )
        counters = scalar.telemetry.metrics.snapshot()["counters"]
        escalations = (
            counters.get("remaps", 0)
            + counters.get("migrations", 0)
            + counters.get("repartitions_total", 0)
        )
        assert escalations > 0  # escalations actually happened mid-drain
        _assert_same_state(scalar, vector)

    @pytest.mark.parametrize("spec", SWEEP_SPECS[:2], ids=_IDS)
    def test_strict_flush_raises_identically(self, spec):
        def run(engine):
            array = _make_array(
                spec,
                engine=engine,
                spares=0,
                lifetime=FixedLifetime(6),
            )
            controller = ServiceController(
                array, buffer_capacity=4, strict=True
            )
            rng = rng_for(2013, 2, 79)
            with pytest.raises(RetiredBlockError):
                for index in range(4000):
                    controller.write(
                        index % 16,
                        rng.integers(0, 2, spec.n_bits, dtype=np.uint8),
                    )
                controller.close()
            return array

        _assert_same_state(run("scalar"), run("vector"))


class TestLoadGeneratorSweep:
    """Full ``run_load`` equivalence: snapshots and trace JSONL across
    engines, seeds, and the 1/2/4 worker ladder."""

    _reference: dict = {}

    @classmethod
    def _run(cls, spec, seed, engine, workers, tmp_path, name):
        report = run_load(
            spec,
            ops=1200,
            seed=seed,
            shards=2,
            workers=workers,
            n_addresses=24,
            spares=8,
            workload="zipf",
            lifetime_model=NormalLifetime(mean_lifetime=40.0),
            buffer_capacity=8,
            engine=engine,
            trace_sample=7,
        )
        trace_path = tmp_path / f"{name}.jsonl"
        report.write_trace_jsonl(str(trace_path))
        return report.snapshot, trace_path.read_bytes()

    @classmethod
    def _reference_for(cls, spec, seed, tmp_path):
        key = (spec.key, seed)
        if key not in cls._reference:
            cls._reference[key] = cls._run(
                spec, seed, "scalar", 1, tmp_path, "reference"
            )
        return cls._reference[key]

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_IDS)
    @pytest.mark.parametrize("seed", [2013, 7])
    def test_vector_serial_matches_scalar(self, spec, seed, tmp_path):
        snapshot, trace = self._reference_for(spec, seed, tmp_path)
        got_snapshot, got_trace = self._run(
            spec, seed, "vector", 1, tmp_path, "vector"
        )
        assert got_snapshot == snapshot
        assert got_trace == trace

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_IDS)
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_fanout_matches_serial_scalar(
        self, spec, engine, workers, tmp_path
    ):
        snapshot, trace = self._reference_for(spec, 2013, tmp_path)
        got_snapshot, got_trace = self._run(
            spec, 2013, engine, workers, tmp_path, f"{engine}-{workers}"
        )
        assert got_snapshot == snapshot
        assert got_trace == trace

    def test_fallback_scheme_runs_under_every_engine_label(self, tmp_path):
        spec = aegis_rw_spec(9, 61, 512)
        snapshot, trace = self._reference_for(spec, 2013, tmp_path)
        got_snapshot, got_trace = self._run(
            spec, 2013, "vector", 1, tmp_path, "fallback"
        )
        assert got_snapshot == snapshot
        assert got_trace == trace


# ---------------------------------------------------------------------------
# Aegis two-pass rows: planted stuck cells, vector drain vs scalar pipeline
# ---------------------------------------------------------------------------

AEGIS = aegis_spec(9, 61, 512)

#: planted fault patterns, relative to the first-pass form of the payload:
#: ``one_per_group`` qualifies for the batched inversion write; the other
#: two force the scalar walk (a collision, or a flip that exposes a
#: stuck-at-right cell)
QUALIFYING = ("one_per_group",)
DISQUALIFYING = ("two_in_group", "right_shares_group")

TWIN_ADDRESSES = 8


def _aegis_twin(engine):
    """A traced Aegis 9x61 array with every address already placed (so
    the drains under test need no first-touch allocation) and no wear."""
    telemetry = ServiceTelemetry(tracer=Tracer())
    array = MemoryArray(
        TWIN_ADDRESSES,
        AEGIS.n_bits,
        AEGIS.make_controller,
        spares=4,
        lifetime_model=FixedLifetime(10**9),
        fail_cache=DirectMappedFailCache(256, key_of=SequentialBlockKeys()),
        telemetry=telemetry,
        rng=rng_for(2013, 0, 80),
        engine=engine,
    )
    controller = ServiceController(array, buffer_capacity=64)
    for address in range(TWIN_ADDRESSES):
        controller.write(address, np.zeros(AEGIS.n_bits, dtype=np.uint8))
    controller.flush()
    return array, controller


def _plant(array, address, *, pattern, slope, inversion, payload, groups, seed):
    """Set the block's slope and inversion vector, then inject stuck cells
    whose stuck values are wrong (or right) for ``payload``'s first-pass
    form: one wrong cell in each of ``groups`` distinct groups, plus the
    pattern's extra cell in the first of them."""
    block = array.blocks[array.physical_of(address)]
    scheme = block.scheme
    scheme.slope = slope
    scheme.inversion[:] = inversion  # in place: the kernel adopted the row
    partition = scheme.partition
    form = payload ^ inversion[partition.group_ids(slope)]
    rng = np.random.default_rng(seed)
    # 512 of the rectangle's 549 cells are used, so some groups are short
    sizes = np.bincount(partition.group_ids(slope), minlength=partition.group_count)
    chosen = rng.choice(np.flatnonzero(sizes >= 2), size=groups, replace=False)
    for index, group in enumerate(chosen.tolist()):
        members = rng.permutation(partition.members_array(group, slope))
        planted = [(int(members[0]), True)]
        if index == 0 and pattern == "two_in_group":
            planted.append((int(members[1]), True))
        elif index == 0 and pattern == "right_shares_group":
            planted.append((int(members[1]), False))
        for offset, wrong in planted:
            value = int(form[offset]) ^ int(wrong)
            block.cells.inject_fault(offset, value)


def _twin_state(array):
    blocks = array.blocks
    return (
        [block.scheme.slope for block in blocks],
        [block.scheme.inversion.tolist() for block in blocks],
        [sorted(block.scheme.known_fault_offsets) for block in blocks],
        [block.stats for block in blocks],
        array.telemetry.snapshot(),
        [json.dumps(root.to_dict(), sort_keys=True) for root in array.telemetry.tracer.roots],
        json.dumps(array.telemetry.tracer.snapshot(), sort_keys=True),
    )


def _assert_twins_identical(scalar, vector):
    _assert_same_state(scalar, vector)
    assert _twin_state(vector) == _twin_state(scalar)


_plans = st.lists(
    st.tuples(
        st.sampled_from(("clean",) + QUALIFYING + DISQUALIFYING),
        st.integers(0, 60),  # slope
        st.booleans(),  # non-zero inversion vector
        st.integers(1, 4),  # groups holding a stuck-at-wrong cell
        st.integers(0, 2**16),  # payload / placement seed
    ),
    min_size=1,
    max_size=TWIN_ADDRESSES,
)


class TestTwoPassRows:
    """Rows whose only recovery is §2.2's inversion write commit in the
    vector drain; the scalar pipeline is the oracle."""

    @staticmethod
    def _run(engine, plans, rounds=2):
        array, controller = _aegis_twin(engine)
        rng = np.random.default_rng(99)
        for address, (pattern, slope, inverted, groups, seed) in enumerate(plans):
            payload = np.random.default_rng(seed).integers(
                0, 2, AEGIS.n_bits, dtype=np.uint8
            )
            inversion = (
                np.random.default_rng(seed + 1).integers(0, 2, 61, dtype=np.uint8)
                if inverted
                else np.zeros(61, dtype=np.uint8)
            )
            if pattern != "clean":
                _plant(
                    array,
                    address,
                    pattern=pattern,
                    slope=slope,
                    inversion=inversion,
                    payload=payload,
                    groups=groups,
                    seed=seed,
                )
            controller.write(address, payload)
        controller.flush()
        # later rounds meet the flipped inversion vectors, re-partitioned
        # slopes and learned faults the first drain left behind
        for _ in range(rounds - 1):
            for address in range(len(plans)):
                controller.write(
                    address, rng.integers(0, 2, AEGIS.n_bits, dtype=np.uint8)
                )
            controller.flush()
        return array

    @settings(max_examples=40, deadline=None)
    @given(plans=_plans)
    def test_vector_matches_scalar_on_planted_faults(self, plans):
        scalar = self._run("scalar", plans)
        vector = self._run("vector", plans)
        _assert_twins_identical(scalar, vector)
        for address in range(len(plans)):
            assert np.array_equal(
                vector.read(address), scalar.read(address)
            )

    @staticmethod
    def _spied_drain(monkeypatch, pattern, *, slope, inverted):
        """Plant ``pattern`` (three hit groups) on address 3 and drain it
        beside a clean neighbour under the vector engine, spying on
        :meth:`MemoryArray.write`.  Returns the addresses that reached it,
        the block's (verification reads, inversion writes) before and
        after, and the block."""
        array, controller = _aegis_twin("vector")
        payload = np.random.default_rng(5).integers(0, 2, AEGIS.n_bits, dtype=np.uint8)
        inversion = (
            np.random.default_rng(6).integers(0, 2, 61, dtype=np.uint8)
            if inverted
            else np.zeros(61, dtype=np.uint8)
        )
        _plant(
            array,
            3,
            pattern=pattern,
            slope=slope,
            inversion=inversion,
            payload=payload,
            groups=3,
            seed=7,
        )
        block = array.blocks[array.physical_of(3)]
        before = (block.stats.verification_reads, block.stats.inversion_writes)
        calls = []
        original = MemoryArray.write

        def spy(self, address, data):
            calls.append(address)
            return original(self, address, data)

        monkeypatch.setattr(MemoryArray, "write", spy)
        controller.write(3, payload)
        controller.write(5, payload)  # a clean neighbour in the same drain
        controller.flush()
        assert np.array_equal(array.read(3), payload)
        after = (block.stats.verification_reads, block.stats.inversion_writes)
        return calls, before, after, block

    @pytest.mark.parametrize("slope, inverted", [(0, False), (17, True)])
    def test_qualifying_row_never_reaches_the_scalar_write(
        self, monkeypatch, slope, inverted
    ):
        calls, before, after, block = self._spied_drain(
            monkeypatch, "one_per_group", slope=slope, inverted=inverted
        )
        assert calls == []
        # pass 1 + verify, flip the three hit groups, pass 2 + clean verify
        assert after == (before[0] + 2, before[1] + 3)
        assert block.scheme.slope == slope
        assert len(block.scheme.known_fault_offsets) == 3

    @pytest.mark.parametrize("pattern", DISQUALIFYING)
    def test_disqualifying_pattern_takes_the_scalar_write(self, monkeypatch, pattern):
        calls, _, _, _ = self._spied_drain(
            monkeypatch, pattern, slope=17, inverted=True
        )
        assert calls == [3]
