"""Run one benchmark workload and print every metric with its unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 2013 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each for ``--seconds``,
and ends with one JSON object whose metric names carry the workload name.

Each repetition is a fresh interpreter (:mod:`perfbench.rep`), so every
timed call starts cold: the process-wide page-study memo and the
``lru_cache``'d tables never carry over, and each repetition yields its
own set-up time and peak RSS.  Repetitions continue until about
``--seconds`` have passed (at least :data:`MIN_REPS`).

``--trace 0`` reports the end-to-end metrics, each a median over the
repetitions; a latency percentile is taken over each repetition's own
requests first.  The median over repetitions keeps a burst of load from
another tenant of the host, which lands in one repetition, out of the
tail.
``--trace 1`` alternates untraced and traced repetitions at the same seed
and reports the per-layer metrics: each layer function's calls and
self-time share, the derived service and cluster ratios, the tracing
overhead and the share of wall time spent under the layer functions
below the workload's entry point.

End-to-end metrics are never 0.  Per-layer metrics are counts and
fractions, and every workload reports all of them: on a workload that
never calls a function, its calls and share are 0, and a ratio whose
denominator is 0 (no drains, no cluster writes) is reported as 0.
Per-layer times (each function's self seconds, the maintenance p99) are
printed in the layer table but are not metrics, because on a workload
that never calls the function they would be a time that reads 0 on
every run.

Every repetition's output digest must equal every other's in the run,
and at the default seed the stored golden; the traced run must give the
same digest as the untraced one.  The last line of output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
0 only when every check passed.  ``--out PATH`` also appends the result,
with its provenance, to a JSONL history that :mod:`perfbench.compare`
reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.spans import LAYER_FUNCTIONS  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: fewest repetitions per run (set-up time is a median of several)
MIN_REPS = 3

#: no repetition starts after this many seconds of a run, so a run ends
#: well inside the three minutes it is allowed
HARD_LIMIT_S = 120.0

#: end-to-end metrics (untraced run): name -> unit
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_us": "us",
    "op_p999_us": "us",
    "peak_rss_mb": "MiB",
}

#: derived per-layer metrics (traced run): name -> unit
DERIVED = {
    "service.escalate_frac": "frac",
    "service.rows_per_flush": "rows",
    "cluster.backpressure": "count",
    "cluster.admit_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}

#: per-layer metrics (traced run): name -> unit
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in LAYER_FUNCTIONS
       for kind, unit in (("calls", "count"), ("share", "frac"))},
    **DERIVED,
}

GOLDENS = os.path.join(ROOT, "perfbench", "goldens.json")
SCRATCH = os.path.join(ROOT, "perfbench", "out")


class RepFailed(RuntimeError):
    """A repetition exited with an error or printed no record."""


def spawn_rep(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [sys.executable, "-m", "perfbench.rep", "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace)), "--scratch", SCRATCH,
               "--spawn-ns", str(time.monotonic_ns())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as error:
        raise RepFailed(f"repetition timed out after {timeout:.0f}s") from error
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if lines else {"error": "no output"}
    if done.returncode != 0 or "error" in record:
        raise RepFailed(record.get("error", f"exit code {done.returncode}"))
    return record


def nearest_rank(ordered: list, q: float) -> float:
    """The ``q`` quantile of sorted samples, by the nearest-rank rule."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    """Metric values and their sample notes from untraced repetitions."""
    latencies = [sorted(rep["latencies_ns"]) for rep in reps]
    requests = min(len(samples) for samples in latencies)
    beyond = requests - math.ceil(0.999 * requests)
    values = {
        "setup_s": statistics.median(rep["setup_ns"] for rep in reps) / 1e9,
        "work_per_s": statistics.median(rep["work"] / (rep["wall_ns"] / 1e9) for rep in reps),
        "op_p50_us": statistics.median(nearest_rank(s, 0.5) for s in latencies) / 1e3,
        "op_p999_us": statistics.median(nearest_rank(s, 0.999) for s in latencies) / 1e3,
        "peak_rss_mb": statistics.median(rep["rss_kib"] for rep in reps) / 1024,
    }
    latency_note = (f"median of {len(reps)}, each over n>={requests} requests "
                    f"with {beyond} beyond p99.9")
    notes = {
        "setup_s": f"median of {len(reps)} cold starts",
        "work_per_s": f"{WORKLOADS[reps[0]['workload']].unit}s per host second, "
                      f"median of {len(reps)}",
        "op_p50_us": latency_note,
        "op_p999_us": latency_note,
        "peak_rss_mb": f"median of {len(reps)}",
    }
    return values, notes


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metric values from traced repetitions (and the untraced
    ones at the same seed, for the tracing overhead)."""
    summaries = [rep["summary"] for rep in traced]
    first = summaries[0]
    values: dict[str, float] = {}
    for name in LAYER_FUNCTIONS:
        values[f"{name}.calls"] = first["calls"][name]
        values[f"{name}.share"] = statistics.median(
            s["self_ns"][name] / s["wall_ns"] for s in summaries
        )
    calls, sizes = first["calls"], first["sizes"]
    drained = sizes.get("service.drain_vector", 0)
    backpressure = first["errors"].get("cluster.write:BackpressureError", 0)
    values["service.escalate_frac"] = first["escalated_rows"] / drained if drained else 0.0
    values["service.rows_per_flush"] = (
        sizes.get("service.flush", 0) / calls["service.flush"] if calls["service.flush"] else 0.0
    )
    values["cluster.backpressure"] = backpressure
    values["cluster.admit_frac"] = (
        (calls["cluster.write"] - backpressure) / calls["cluster.write"]
        if calls["cluster.write"] else 0.0
    )
    # each traced repetition runs right after its untraced twin, so the
    # pair shares the host's state and the ratio cancels most of its drift
    values["trace.overhead_frac"] = statistics.median(
        t["wall_ns"] / u["wall_ns"] for u, t in zip(untraced, traced)
    ) - 1.0
    values["trace.coverage_frac"] = statistics.median(
        s["layer_ns"] / s["wall_ns"] for s in summaries
    )
    return values


def print_layer_table(traced: list[dict]) -> None:
    """Self and total time per layer function, largest self share first."""
    summary = traced[0]["summary"]
    wall = summary["wall_ns"]
    print(f"  {'function':<28} {'self_s':>9} {'share':>7} {'total':>7} {'calls':>8}")
    for name in sorted(LAYER_FUNCTIONS, key=lambda n: -summary["self_ns"][n]):
        if summary["calls"][name]:
            print(f"  {name:<28} {summary['self_ns'][name] / 1e9:9.4f} "
                  f"{summary['self_ns'][name] / wall:7.3f} "
                  f"{summary['total_ns'][name] / wall:7.3f} {summary['calls'][name]:8d}")
    maintenance = summary["maintenance_ns"]
    if maintenance:
        print(f"  cluster.maintenance.p99_us {nearest_rank(maintenance, 0.99) / 1e3:.1f} us "
              f"(n={len(maintenance)})")


def check_digests(workload: str, seed: int, reps: list[dict]) -> list[str]:
    """Problems with the run's output digests (empty when all is well)."""
    problems = []
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append(f"digests differ across the {len(reps)} repetitions: {sorted(digests)}")
    if seed == DEFAULT_SEED:
        with open(GOLDENS, encoding="utf-8") as handle:
            golden = json.load(handle)["digests"].get(workload)
        if golden not in digests or len(digests) != 1:
            problems.append(f"digest does not match the stored golden {golden}")
    return problems


def git_rev() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, rep: dict) -> dict:
    from benchmarks.hostmeta import host_cpus

    return {"rev": git_rev(), "host_cpus": host_cpus(), "python": rep["python"],
            "numpy": rep["numpy"], "workload": workload, "seed": seed, "size": rep["size"]}


def repetitions(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[list[dict], list[dict], list[str]]:
    """Untraced and traced repetition records, and any failure to run one.

    Rounds (one repetition, or an untraced/traced pair) continue while
    the next one, at the median round time, would still end within
    ``seconds``."""
    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    needed = 1 if trace else MIN_REPS
    while True:
        elapsed = time.monotonic() - start
        if len(untraced) >= needed and (
            elapsed + statistics.median(rounds) > seconds or elapsed > HARD_LIMIT_S
        ):
            return untraced, traced, []
        timeout = HARD_LIMIT_S + 40 - elapsed
        try:
            untraced.append(spawn_rep(workload, seed, False, timeout))
            if trace:
                traced.append(spawn_rep(workload, seed, True, timeout))
        except RepFailed as error:
            return untraced, traced, [str(error)]
        rounds.append(time.monotonic() - start - elapsed)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run and check the repetitions and print the metrics; returns the
    result object and the run's provenance."""
    untraced, traced, problems = repetitions(workload, seed, seconds, trace)
    reps = untraced + traced
    attempted = sum(rep["work"] for rep in reps) or 1
    if not problems:
        problems = check_digests(workload, seed, reps)
    failed = attempted if problems else sum(rep["failures"] for rep in reps)
    if failed and not problems:
        problems.append(f"{failed} failure(s) found in the outputs")

    print(f"perfbench: workload={workload} seed={seed} trace={int(trace)} "
          f"repetitions={len(reps)} (each a fresh interpreter)")
    metrics: dict = {}
    origin: dict = {}
    if untraced and (traced or not trace):
        origin = provenance(workload, seed, reps[0])
        print("provenance: " + json.dumps(origin, sort_keys=True))
        if trace:
            values, notes, units = per_layer(untraced, traced), {}, PER_LAYER
            print_layer_table(traced)
        else:
            (values, notes), units = end_to_end(untraced), END_TO_END
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
            if not trace or name in DERIVED:
                note = f"  ({notes[name]})" if name in notes else ""
                print(f"  {name:<24} {values[name]:>14.6g} {unit}{note}")
        print(f"  {'failed_frac':<24} {failed / attempted:>14.6g} ({failed} of {attempted} "
              f"{WORKLOADS[workload].unit}s)")
        if not problems:
            print(f"  digest {reps[0]['digest'][:24]}… equal across the repetitions"
                  + (", traced and untraced" if trace else "")
                  + (", and equal to the stored golden" if seed == DEFAULT_SEED else ""))
    for problem in problems:
        print(f"FAILED: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, origin


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the result to this JSONL history")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, origin = run(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({**result, "trace": args.trace, "provenance": origin})
                             + "\n")
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
