"""Throughput + determinism benchmark for the multi-tenant cluster layer.

Drives ``run_cluster_bench`` — the deterministic multi-tenant load
harness behind ``repro cluster-bench`` — per representative spec, with a
mid-run degrade drill so every record exercises the live-migration path.
Three contracts are asserted and recorded to ``BENCH_cluster.json``:

* **worker invariance** — the audit digest and snapshot digest must be
  bit-identical across the worker ladder (stream pre-generation is the
  only parallel stage; the drive loop is clocked by the schedule);
* **engine invariance** — scalar and vector drains must produce the
  identical digests;
* **audit integrity** — zero read-after-write audit failures even though
  one array is drained mid-run and its keys live-migrate.

It also records, for aegis-9x61, ``control_plane_overhead_fraction``:
the share of a default run (time series plus SLO evaluation on) that
goes away when the same run is repeated with ``series_bucket=0``, the
median over :data:`CONTROL_PLANE_PAIRS` adjacent on/off pairs.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_cluster            # measure + write
    PYTHONPATH=src python -m benchmarks.bench_cluster --check    # also gate
    PYTHONPATH=src python -m benchmarks.bench_cluster --ops 800 --workers 1 2

``--check`` enforces the serial-throughput regression factor vs the
recorded file, (multi-CPU hosts only, same core count as the record —
see :mod:`benchmarks.hostmeta`) the parallel-speedup comparison, and the
:data:`CONTROL_PLANE_OVERHEAD_MAX` ceiling on the control-plane cost.
Determinism and audit failures always flag, gate or not.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.hostmeta import host_cpus, parallel_ladder_guard
from repro.cluster import run_cluster_bench
from repro.pcm.lifetime import NormalLifetime
from repro.sim.roster import aegis_spec, ecp_spec, safer_spec

#: default result file, at the repository root
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"

#: representative roster: the Figure 5 headliner, a replayed-vector
#: scheme, and the cheapest pointer scheme
BENCH_SPECS = (
    ("aegis-9x61", lambda: aegis_spec(9, 61, 512)),
    ("safer64", lambda: safer_spec(64, 512)),
    ("ecp6", lambda: ecp_spec(6, 512)),
)

#: endurance that makes wear (remaps, key loss) visible within the run
ENDURANCE = 30.0

#: the spec whose control-plane cost is measured and gated
GATED_SPEC = "aegis-9x61"

#: measured series-on/series-off run pairs of the control-plane leg
CONTROL_PLANE_PAIRS = 9

#: ceiling on ``control_plane_overhead_fraction``.  With incremental SLO
#: evaluation it measured 0.15-0.21 at the default 1200 ops (2-vCPU VM,
#: Python 3.11, numpy 2.4); the full-rescan engine it replaced measured
#: 0.35-0.36 on the same host
CONTROL_PLANE_OVERHEAD_MAX = 0.28


def _run(
    spec,
    *,
    ops: int,
    workers: int,
    engine: str,
    degrade_at: int,
    series_bucket: int | None = None,
):
    start = time.perf_counter()
    report = run_cluster_bench(
        spec,
        ops=ops,
        n_arrays=3,
        tenants=4,
        seed=2013,
        tenant_addresses=24,
        n_addresses=48,
        spares=12,
        lifetime_model=NormalLifetime(mean_lifetime=ENDURANCE),
        degrade_at=degrade_at,
        degrade_array=1,
        engine=engine,
        workers=workers,
        series_bucket=series_bucket,
    )
    return report, time.perf_counter() - start


def _control_plane_leg(spec, *, ops: int, degrade_at: int) -> dict:
    """Same-run cost of time series plus SLO evaluation: the default run
    against ``series_bucket=0``, in adjacent pairs after one warm-up
    pair; the fraction is the median over pairs, so host drift that
    slows one stretch of the benchmark cancels within each pair."""
    seconds: dict[str, list[float]] = {"on": [], "off": []}
    for _ in range(CONTROL_PLANE_PAIRS + 1):
        for side, series_bucket in (("on", None), ("off", 0)):
            _report, elapsed = _run(
                spec,
                ops=ops,
                workers=1,
                engine="auto",
                degrade_at=degrade_at,
                series_bucket=series_bucket,
            )
            seconds[side].append(elapsed)
    on, off = seconds["on"][1:], seconds["off"][1:]
    return {
        "pairs": CONTROL_PLANE_PAIRS,
        "series_on_seconds": round(statistics.median(on), 4),
        "series_off_seconds": round(statistics.median(off), 4),
        "control_plane_overhead_fraction": round(
            max(0.0, statistics.median(1.0 - b / a for a, b in zip(on, off))), 4
        ),
    }


def run_benchmark(
    *,
    ops: int = 1200,
    worker_ladder: tuple[int, ...] = (1, 2),
) -> dict:
    """Measure the cluster harness per spec and verify the digests."""
    degrade_at = ops // 2
    records = []
    for key, make_spec in BENCH_SPECS:
        spec = make_spec()

        serial, serial_seconds = _run(
            spec, ops=ops, workers=1, engine="auto", degrade_at=degrade_at
        )
        scalar, scalar_seconds = _run(
            spec, ops=ops, workers=1, engine="scalar", degrade_at=degrade_at
        )
        engines_identical = (
            scalar.audit_digest == serial.audit_digest
            and scalar.snapshot_digest == serial.snapshot_digest
        )

        runs = [
            {
                "workers": 1,
                "seconds": round(serial_seconds, 4),
                "ops_per_second": round(ops / serial_seconds, 3),
            }
        ]
        deterministic = True
        for workers in worker_ladder:
            if workers == 1:
                continue
            report, elapsed = _run(
                spec, ops=ops, workers=workers, engine="auto", degrade_at=degrade_at
            )
            if (
                report.audit_digest != serial.audit_digest
                or report.snapshot_digest != serial.snapshot_digest
            ):
                deterministic = False
            runs.append(
                {
                    "workers": workers,
                    "seconds": round(elapsed, 4),
                    "ops_per_second": round(ops / elapsed, 3),
                }
            )
        serial_rate = runs[0]["ops_per_second"]
        best = max(runs, key=lambda r: r["ops_per_second"])
        control_plane = (
            _control_plane_leg(spec, ops=ops, degrade_at=degrade_at)
            if key == GATED_SPEC
            else None
        )

        metrics = serial.telemetry.metrics
        interactive_bp = metrics.counter_total(
            "tenant_backpressure_total", qos="interactive"
        )
        records.append(
            {
                "spec": key,
                "ops": ops,
                "engine_speedup": round(scalar_seconds / serial_seconds, 3),
                "engines_identical": engines_identical,
                "runs": runs,
                "serial_ops_per_second": serial_rate,
                "best_speedup": round(best["ops_per_second"] / serial_rate, 3),
                "best_speedup_workers": best["workers"],
                "deterministic": deterministic,
                "audit_checked": serial.audit_checked,
                "audit_failures": serial.audit_failures,
                "dead_keys": serial.dead_keys,
                "retries": serial.retries,
                "forced_writes": serial.forced_writes,
                "interactive_backpressure": int(interactive_bp),
                "migrations": int(
                    metrics.counter_total("migrations_total", kind="cross_array")
                ),
                "audit_digest": serial.audit_digest,
                "snapshot_digest": serial.snapshot_digest,
                **({"control_plane": control_plane} if control_plane else {}),
            }
        )
    return {
        "benchmark": "multi-tenant cluster harness + live migration drill",
        "host_cpus": host_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "worker_ladder": list(worker_ladder),
        "endurance": ENDURANCE,
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


def check_gates(current: dict) -> list[str]:
    """Correctness and cost gate messages (empty = healthy).

    These are host-independent: digests must agree across workers and
    engines, the audit must be clean, interactive tenants must never
    have been backpressured, and the control plane's same-run overhead
    must stay under :data:`CONTROL_PLANE_OVERHEAD_MAX`."""
    failures = []
    cpus = current.get("host_cpus") or 1
    for record in current["specs"]:
        if not record["deterministic"]:
            failures.append(
                f"{record['spec']}: digests differ across the worker ladder "
                f"(host_cpus={cpus})"
            )
        if not record["engines_identical"]:
            failures.append(
                f"{record['spec']}: digests differ across engines "
                f"(host_cpus={cpus})"
            )
        if record["audit_failures"]:
            failures.append(
                f"{record['spec']}: {record['audit_failures']} read-after-write "
                f"audit failures (host_cpus={cpus})"
            )
        if record["interactive_backpressure"]:
            failures.append(
                f"{record['spec']}: interactive tenants saw "
                f"{record['interactive_backpressure']} backpressure refusals "
                f"(host_cpus={cpus})"
            )
        overhead = record.get("control_plane", {}).get(
            "control_plane_overhead_fraction", 0.0
        )
        if record["spec"] == GATED_SPEC and overhead > CONTROL_PLANE_OVERHEAD_MAX:
            failures.append(
                f"{record['spec']}: series plus SLO evaluation cost "
                f"{overhead:.1%} of the run, over the "
                f"{CONTROL_PLANE_OVERHEAD_MAX:.0%} budget (host_cpus={cpus})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=1200)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on a throughput regression vs the recorded file or any "
        "correctness-gate violation (digest mismatch, audit failure, "
        "interactive backpressure)",
    )
    parser.add_argument("--regression-factor", type=float, default=2.0)
    args = parser.parse_args(argv)

    previous = None
    if args.output.exists():
        previous = json.loads(args.output.read_text())

    current = run_benchmark(ops=args.ops, worker_ladder=tuple(args.workers))

    status = 0
    for record in current["specs"]:
        flags = []
        if not record["deterministic"]:
            flags.append("NON-DETERMINISTIC")
        if not record["engines_identical"]:
            flags.append("ENGINE MISMATCH")
        if record["audit_failures"]:
            flags.append("AUDIT FAILURES")
        if flags:
            status = 1
        flag = " ".join(flags) if flags else "ok"
        control_plane = record.get("control_plane")
        print(
            f"{record['spec']:12s} serial {record['serial_ops_per_second']:8.1f} ops/s  "
            f"engine {record['engine_speedup']:5.2f}x  "
            f"best {record['best_speedup']:.2f}x @ {record['best_speedup_workers']} workers  "
            f"migrations {record['migrations']:3d}  lost {record['dead_keys']:2d}  "
            + (
                f"control plane {control_plane['control_plane_overhead_fraction']:.1%}  "
                if control_plane
                else ""
            )
            + f"[{flag}]"
        )
    if args.check:
        if (current.get("host_cpus") or 1) <= 1:
            print("single-CPU host: parallel-speedup comparison skipped")
        failures = check_gates(current)
        if previous is not None:
            guard = parallel_ladder_guard(previous, current)
            if guard is not None:
                print(f"note: {guard}")
            failures.extend(check_regression(previous, current, args.regression_factor))
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1
    args.output.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
