"""Throughput + determinism benchmark for the memory-array service layer.

Three ladders per representative spec, recorded to ``BENCH_service.json``
so the serving path's performance trajectory is tracked from PR to PR:

* a **drain ladder** — the vectorized write-drain pipeline
  (:func:`repro.service.kernels.drain_vector`) vs the scalar per-row
  pipeline, timing only :meth:`ServiceController.flush` over warm,
  healthy blocks; this is the service layer's kernel contract, gated the
  same way ``bench_sim.py`` gates its 3x kernel floor.  An *aged* leg
  repeats it over blocks with ``AGED_STUCK_CELLS`` pre-planted stuck
  cells each, so most Aegis rows need an inversion write, and records
  the share of rows the vector drain still hands to the scalar path;
* an **engine ladder** — the full ``run_load`` generator at ``workers=1``
  with ``engine="scalar"`` vs ``engine="vector"``, asserting the two
  engines produce byte-identical telemetry snapshots *and* sampled trace
  span trees;
* a **worker ladder** — ``engine="auto"`` fanned over a process pool,
  asserting every worker count merges to the same snapshot and trace.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_service            # measure + write
    PYTHONPATH=src python -m benchmarks.bench_service --check    # also gate
    PYTHONPATH=src python -m benchmarks.bench_service --ops 4000 --workers 1 2

Every drain leg, healthy or aged, must leave the scalar and vector
engines with identical metrics and cell state, or the run exits 1.

``--check`` enforces four gates:

* serial (auto-engine) ops/second per spec must not have fallen by more
  than ``--regression-factor`` (default 2.0) vs the recorded file;
* the drain-ladder speedup on ``aegis-9x61`` must reach
  ``--vector-floor`` (default 5.0) — the vectorized data plane's perf
  contract;
* per-flush time-series sampling on ``aegis-9x61`` must cost at most
  ``--sampling-overhead-max`` (default 0.05) of the recorder-on drain
  time — observability must stay cheap on the hot path;
* when the host has more than one CPU, the best parallel speedup per
  spec must reach ``--parallel-floor``; on single-CPU hosts this
  assertion is skipped (a process pool cannot beat serial there).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.hostmeta import host_cpus, parallel_ladder_guard
from repro.obs import TimeSeriesRecorder
from repro.pcm.failcache import DirectMappedFailCache, SequentialBlockKeys
from repro.pcm.lifetime import FixedLifetime, NormalLifetime
from repro.service import MemoryArray, ServiceController, run_load
from repro.sim.rng import rng_for
from repro.sim.roster import SchemeSpec, aegis_spec, ecp_spec, safer_spec

#: default result file, at the repository root
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: representative roster: the Figure 5 headliner, a replayed-vector
#: scheme, and the cheapest pointer scheme
BENCH_SPECS = (
    ("aegis-9x61", lambda: aegis_spec(9, 61, 512)),
    ("safer64", lambda: safer_spec(64, 512)),
    ("ecp6", lambda: ecp_spec(6, 512)),
)

#: the spec whose drain-ladder speedup --check gates on
GATED_SPEC = "aegis-9x61"

#: trace sampling used for the determinism legs — sparse enough to stay
#: cheap, dense enough to keep span trees to compare
TRACE_SAMPLE = 50

#: write-buffer capacity for the load ladders — shallow on purpose: at the
#: recorded baseline's depth the zipf stream still wears blocks out
#: in-run, so the ladder keeps exercising remaps and retirements
BUFFER_CAPACITY = 8

#: drain-ladder shape: distinct addresses per drain over warm blocks,
#: deep enough that a batch amortizes its per-drain fixed costs
DRAIN_CAPACITY = 128
DRAIN_ADDRESSES = 256

#: stuck cells planted per block for the aged drain leg; with random
#: payloads each is stuck-at-wrong half the time, so ~94% of rows meet at
#: least one stuck-at-wrong cell
AGED_STUCK_CELLS = 4


def _load(
    spec: SchemeSpec, ops: int, shards: int, workers: int, engine: str
) -> tuple[dict, dict, float]:
    start = time.perf_counter()
    report = run_load(
        spec,
        ops=ops,
        seed=2013,
        shards=shards,
        workers=workers,
        n_addresses=32,
        spares=8,
        workload="zipf",
        # endurance low enough that remaps/retirements happen in-run, so the
        # benchmark exercises the full degradation path, not just happy writes
        lifetime_model=NormalLifetime(mean_lifetime=45.0),
        buffer_capacity=BUFFER_CAPACITY,
        engine=engine,
        trace_sample=TRACE_SAMPLE,
    )
    elapsed = time.perf_counter() - start
    tracer = report.telemetry.tracer
    # full span trees, not just the tally snapshot — the strongest
    # invariance statement the tracer can make across engines and workers
    trace = {
        "snapshot": tracer.snapshot(),
        "roots": [root.to_dict() for root in tracer.roots],
    }
    return report.snapshot, trace, elapsed


def _drain_rate(
    spec: SchemeSpec,
    engine: str,
    rounds: int,
    series_bucket: int = 0,
    stuck_cells: int = 0,
) -> tuple[float, dict, float, float]:
    """Writes/second through :meth:`ServiceController.flush` alone.

    Warm blocks (huge fixed endurance, every address touched once up
    front) so the measurement isolates the drain pipeline — the part the
    vector engine batches — from first-touch allocation and wear-out
    escalations, which both engines service through the same scalar
    rows.  With ``stuck_cells > 0`` each block then gets that many
    stuck cells at random offsets, frozen at their stored values — an
    aged array whose rows mostly need recovery work.  With
    ``series_bucket > 0`` a
    :class:`~repro.obs.TimeSeriesRecorder` samples the metrics registry
    after every flush, inside the timed region, and the time spent inside
    ``sample()`` is accounted separately — the returned overhead fraction
    is ``sample_seconds / drain_seconds``, a direct measurement immune to
    run-to-run wall-clock noise.  Returns the rate, the final state (the
    metrics snapshot plus a digest of the cell matrices, so the caller
    can assert engine/recorder equivalence), the sampling-overhead
    fraction (0.0 when no recorder is attached), and the share of timed
    rows serviced by the scalar per-row pipeline (1.0 for the scalar
    engine).
    """
    rng = rng_for(2013, 0, 41)
    array = MemoryArray(
        DRAIN_ADDRESSES,
        spec.n_bits,
        spec.make_controller,
        spares=8,
        lifetime_model=FixedLifetime(10**9),
        fail_cache=DirectMappedFailCache(1024, key_of=SequentialBlockKeys()),
        rng=rng,
        engine=engine,
    )
    controller = ServiceController(array, buffer_capacity=DRAIN_CAPACITY)
    recorder = None
    if series_bucket:
        recorder = TimeSeriesRecorder(
            array.telemetry.metrics,
            bucket_width=series_bucket,
            capacity=4096,
        )
    warm = rng.integers(0, 2, (DRAIN_ADDRESSES, spec.n_bits), dtype=np.uint8)
    for address in range(DRAIN_ADDRESSES):
        controller.write(address, warm[address])
        controller.flush()
    if stuck_cells:
        for address in range(DRAIN_ADDRESSES):
            cells = array.blocks[array.physical_of(address)].cells
            for offset in rng.choice(spec.n_bits, stuck_cells, replace=False):
                cells.inject_fault(int(offset))
    escalated = 0
    service_row = controller._service_row

    def counted_service_row(*args):
        nonlocal escalated
        escalated += 1
        return service_row(*args)

    # instance attribute: the drain reaches the scalar path through it
    controller._service_row = counted_service_row
    payloads = rng.integers(
        0, 2, (rounds, DRAIN_CAPACITY, spec.n_bits), dtype=np.uint8
    )
    addresses = rng_for(2013, 1, 41).permutation(DRAIN_ADDRESSES)[:DRAIN_CAPACITY]
    buffer = controller.buffer
    drained = 0
    drain_seconds = 0.0
    sample_seconds = 0.0
    for round_index in range(rounds):
        for slot in range(DRAIN_CAPACITY):
            buffer.put(int(addresses[slot]), payloads[round_index, slot])
        start = time.perf_counter()
        drained += controller.flush()
        if recorder is not None:
            sampled = time.perf_counter()
            recorder.sample(array.op_clock)
            sample_seconds += time.perf_counter() - sampled
        drain_seconds += time.perf_counter() - start
    overhead = sample_seconds / drain_seconds if drain_seconds else 0.0
    store = array.store
    cells = hashlib.sha256()
    for matrix in (store.stored, store.stuck, store.stuck_value, store.write_counts):
        cells.update(matrix.tobytes())
    state = {
        "metrics": array.telemetry.metrics.snapshot(),
        "cells": cells.hexdigest(),
    }
    return drained / drain_seconds, state, overhead, escalated / drained


def _drain_ladder(spec: SchemeSpec, rounds: int) -> dict:
    scalar_rate, scalar_state, _, _ = _drain_rate(spec, "scalar", rounds)
    vector_rate, vector_state, _, _ = _drain_rate(spec, "vector", rounds)
    # recorder-on leg: same vector pipeline with per-flush time-series
    # sampling; the recorder must not perturb the metrics it observes
    sampled_rate, sampled_state, overhead, _ = _drain_rate(
        spec, "vector", rounds, series_bucket=DRAIN_CAPACITY
    )
    # aged leg: the same drains over blocks that already hold stuck cells
    aged_scalar_rate, aged_scalar_state, _, _ = _drain_rate(
        spec, "scalar", rounds, stuck_cells=AGED_STUCK_CELLS
    )
    aged_vector_rate, aged_vector_state, _, escalated_fraction = _drain_rate(
        spec, "vector", rounds, stuck_cells=AGED_STUCK_CELLS
    )
    return {
        "rounds": rounds,
        "capacity": DRAIN_CAPACITY,
        "scalar_writes_per_second": round(scalar_rate, 1),
        "vector_writes_per_second": round(vector_rate, 1),
        "sampled_writes_per_second": round(sampled_rate, 1),
        "sampling_overhead_fraction": round(overhead, 4),
        "speedup": round(vector_rate / scalar_rate, 3),
        "identical": scalar_state == vector_state
        and sampled_state == vector_state,
        "aged": {
            "stuck_cells_per_block": AGED_STUCK_CELLS,
            "scalar_writes_per_second": round(aged_scalar_rate, 1),
            "vector_writes_per_second": round(aged_vector_rate, 1),
            "speedup": round(aged_vector_rate / aged_scalar_rate, 3),
            "escalated_fraction": round(escalated_fraction, 4),
            "identical": aged_scalar_state == aged_vector_state,
        },
    }


def run_benchmark(
    *,
    ops: int = 6000,
    shards: int = 4,
    worker_ladder: tuple[int, ...] = (1, 2, 4),
    drain_rounds: int = 200,
) -> dict:
    """Measure all three ladders and verify determinism; return the record."""
    records = []
    for key, make_spec in BENCH_SPECS:
        spec = make_spec()
        # engine ladder at workers=1: scalar vs vector over the full
        # generator, the end-to-end statement of engine equivalence
        scalar_snapshot, scalar_trace, scalar_seconds = _load(
            spec, ops, shards, 1, "scalar"
        )
        vector_snapshot, vector_trace, vector_seconds = _load(
            spec, ops, shards, 1, "vector"
        )
        engines_identical = (
            vector_snapshot == scalar_snapshot and vector_trace == scalar_trace
        )
        engine_runs = [
            {
                "engine": "scalar",
                "workers": 1,
                "seconds": round(scalar_seconds, 4),
                "ops_per_second": round(ops / scalar_seconds, 3),
            },
            {
                "engine": "vector",
                "workers": 1,
                "seconds": round(vector_seconds, 4),
                "ops_per_second": round(ops / vector_seconds, 3),
            },
        ]

        # worker ladder with the default engine selection
        runs = []
        deterministic = True
        trace_deterministic = True
        integrity_ok = True
        for workers in worker_ladder:
            snapshot, trace, elapsed = _load(spec, ops, shards, workers, "auto")
            if snapshot != scalar_snapshot:
                deterministic = False
            if trace != scalar_trace:
                trace_deterministic = False
            if snapshot["counters"].get("integrity_failures", 0):
                integrity_ok = False
            runs.append(
                {
                    "workers": workers,
                    "engine": "auto",
                    "seconds": round(elapsed, 4),
                    "ops_per_second": round(ops / elapsed, 3),
                }
            )
        serial = runs[0]["ops_per_second"]
        best = max(runs, key=lambda r: r["ops_per_second"])
        records.append(
            {
                "spec": key,
                "ops": ops,
                "shards": shards,
                "engine_runs": engine_runs,
                "engine_speedup": round(scalar_seconds / vector_seconds, 3),
                "engines_identical": engines_identical,
                "drain": _drain_ladder(spec, drain_rounds),
                "runs": runs,
                "serial_ops_per_second": serial,
                "best_speedup": round(best["ops_per_second"] / serial, 3),
                "best_speedup_workers": best["workers"],
                "deterministic": deterministic,
                "trace_deterministic": trace_deterministic,
                "integrity_ok": integrity_ok,
                "remaps": scalar_snapshot["counters"].get("remaps", 0),
                "capacity_fraction": scalar_snapshot["capacity"][
                    "capacity_fraction"
                ],
            }
        )
    return {
        "benchmark": "memory-array service load generator + drain kernels",
        "host_cpus": host_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "worker_ladder": list(worker_ladder),
        "buffer_capacity": BUFFER_CAPACITY,
        "specs": records,
    }


def check_regression(previous: dict, current: dict, factor: float) -> list[str]:
    """Per-spec throughput/speedup regression messages (empty = healthy).

    Serial throughput is always compared.  Parallel-ladder speedups are
    compared only when both records were measured on hosts with the same
    core count (:func:`benchmarks.hostmeta.parallel_ladder_guard`);
    otherwise the comparison is refused, not silently made."""
    failures = []
    cpus = current.get("host_cpus") or host_cpus()
    ladders_comparable = parallel_ladder_guard(previous, current) is None
    old_by_spec = {r["spec"]: r for r in previous.get("specs", ())}
    for record in current["specs"]:
        old = old_by_spec.get(record["spec"])
        if old is None:
            continue
        old_rate = old.get("serial_ops_per_second", 0.0)
        new_rate = record["serial_ops_per_second"]
        if old_rate > 0 and new_rate * factor < old_rate:
            failures.append(
                f"{record['spec']}: serial throughput fell from "
                f"{old_rate:.2f} to {new_rate:.2f} ops/s "
                f"(> {factor:.1f}x regression, host_cpus={cpus})"
            )
        old_speedup = old.get("best_speedup", 0.0)
        new_speedup = record["best_speedup"]
        if (
            ladders_comparable
            and cpus > 1
            and old_speedup > 1.0
            and new_speedup * factor < old_speedup
        ):
            failures.append(
                f"{record['spec']}: best parallel speedup fell from "
                f"{old_speedup:.2f}x to {new_speedup:.2f}x "
                f"(> {factor:.1f}x regression, host_cpus={cpus})"
            )
    return failures


def check_gates(
    current: dict,
    *,
    vector_floor: float,
    parallel_floor: float,
    sampling_overhead_max: float = 0.05,
) -> list[str]:
    """Drain-speedup and parallel-speedup gate messages (empty = healthy).

    The parallel gate is skipped entirely on single-CPU hosts — a process
    pool cannot beat the serial path without a second core.  The drain
    floor always applies: it compares two serial runs on the same host.
    The sampling-overhead gate bounds the time-series recorder's cost on
    the drain hot path: time spent inside ``sample()`` must stay under
    ``sampling_overhead_max`` of the recorder-on drain time."""
    failures = []
    cpus = current.get("host_cpus") or 1
    multi_cpu = cpus > 1
    has_ladder = len(current.get("worker_ladder", ())) > 1
    for record in current["specs"]:
        drain = record.get("drain", {})
        if record["spec"] == GATED_SPEC and drain.get("speedup", 0.0) < vector_floor:
            failures.append(
                f"{record['spec']}: drain speedup "
                f"{drain.get('speedup', 0.0):.2f}x below the "
                f"{vector_floor:.1f}x floor (host_cpus={cpus})"
            )
        overhead = drain.get("sampling_overhead_fraction", 0.0)
        if record["spec"] == GATED_SPEC and overhead > sampling_overhead_max:
            failures.append(
                f"{record['spec']}: time-series sampling overhead "
                f"{overhead:.1%} of drain time exceeds the "
                f"{sampling_overhead_max:.0%} budget"
            )
        if multi_cpu and has_ladder and record["best_speedup"] < parallel_floor:
            failures.append(
                f"{record['spec']}: best parallel speedup "
                f"{record['best_speedup']:.2f}x below the "
                f"{parallel_floor:.1f}x floor (host_cpus={cpus})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=6000)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument(
        "--drain-rounds",
        type=int,
        default=200,
        metavar="N",
        help="drained batches per engine in the drain ladder",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on a throughput regression vs the recorded file, a "
        "drain speedup below --vector-floor, or (multi-CPU hosts only) "
        "a parallel speedup below --parallel-floor",
    )
    parser.add_argument("--regression-factor", type=float, default=2.0)
    parser.add_argument("--vector-floor", type=float, default=5.0)
    parser.add_argument("--parallel-floor", type=float, default=1.1)
    parser.add_argument(
        "--sampling-overhead-max",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="largest tolerated share of drain time spent in time-series "
        "sampling on the gated spec",
    )
    args = parser.parse_args(argv)

    previous = None
    if args.output.exists():
        previous = json.loads(args.output.read_text())

    current = run_benchmark(
        ops=args.ops,
        shards=args.shards,
        worker_ladder=tuple(args.workers),
        drain_rounds=args.drain_rounds,
    )

    status = 0
    for record in current["specs"]:
        flags = []
        if not record["deterministic"]:
            flags.append("NON-DETERMINISTIC")
        if not record["trace_deterministic"]:
            flags.append("NON-DETERMINISTIC TRACE")
        if not record["engines_identical"]:
            flags.append("ENGINE MISMATCH")
        if not record["drain"]["identical"]:
            flags.append("DRAIN MISMATCH")
        if not record["drain"]["aged"]["identical"]:
            flags.append("AGED DRAIN MISMATCH")
        if not record["integrity_ok"]:
            flags.append("INTEGRITY FAILURES")
        if flags:
            status = 1
        flag = " ".join(flags) if flags else "ok"
        print(
            f"{record['spec']:12s} serial {record['serial_ops_per_second']:9.1f} ops/s  "
            f"drain {record['drain']['speedup']:5.2f}x  "
            f"aged {record['drain']['aged']['speedup']:5.2f}x "
            f"(escalated {record['drain']['aged']['escalated_fraction']:.1%})  "
            f"sampling {record['drain']['sampling_overhead_fraction']:.1%}  "
            f"best {record['best_speedup']:.2f}x @ {record['best_speedup_workers']} workers  "
            f"remaps {record['remaps']:3d}  capacity {record['capacity_fraction']:.3f}  "
            f"[{flag}]"
        )
    if args.check:
        if (current.get("host_cpus") or 1) <= 1:
            print("single-CPU host: parallel-speedup gate skipped")
        failures = check_gates(
            current,
            vector_floor=args.vector_floor,
            parallel_floor=args.parallel_floor,
            sampling_overhead_max=args.sampling_overhead_max,
        )
        if previous is not None:
            guard = parallel_ladder_guard(previous, current)
            if guard is not None:
                print(f"note: {guard}")
            failures.extend(
                check_regression(previous, current, args.regression_factor)
            )
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1
    args.output.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
