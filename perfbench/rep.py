"""One cold-start repetition of a workload (run in a fresh interpreter).

``python3 -m perfbench.rep --workload NAME --seed N --trace 0|1
--spawn-ns T --scratch DIR`` imports the program, warms it up, times one
call of the workload and prints one JSON record on its last line:
set-up time (from ``T``, the parent's monotonic clock just before it
started this process, to the first timed call), the timed call's wall
time, the request latencies, the output digest, the failures found and
the peak resident set size.  With ``--trace 1`` the timed call runs under
:class:`perfbench.spans.SpanRecorder`; the record then carries the span
summary and the spans are written to ``DIR/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_rep(
    workload_name: str,
    seed: int,
    *,
    trace: bool = False,
    spawn_ns: int | None = None,
    size: dict | None = None,
    scratch: str | None = None,
) -> dict:
    """Warm up, time one call of the workload and check its output."""
    import numpy

    from perfbench.spans import RequestTimer, SpanRecorder, summarize
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    size = dict(workload.size, **(size or {}))
    scratch = scratch or os.path.join(ROOT, "perfbench", "out")
    os.makedirs(scratch, exist_ok=True)
    workload.warmup(size, seed)
    call = workload.prepare(size, seed, scratch)
    recorder = SpanRecorder() if trace else None
    timer = RequestTimer(workload.api) if workload.api and not trace else None
    if recorder is not None:
        observing = recorder.installed()
    else:
        observing = timer.installed() if timer is not None else nullcontext()
    with observing:
        start = time.perf_counter_ns()
        setup_ns = time.monotonic_ns() - spawn_ns if spawn_ns is not None else 0
        result = call()
        wall_ns = time.perf_counter_ns() - start
    checked = workload.check(size, result)
    record = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "size": size,
        "setup_ns": setup_ns,
        "wall_ns": wall_ns,
        "latencies_ns": timer.samples_ns if timer else [wall_ns],
        "work": checked.work,
        "digest": checked.digest,
        "failures": checked.failures,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if recorder is not None:
        record["summary"] = summarize(recorder.spans, wall_ns)
        recorder.write_jsonl(os.path.join(scratch, f"spans-{workload_name}.jsonl"))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, default=None)
    parser.add_argument("--scratch", default=None)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        record = run_rep(
            args.workload,
            args.seed,
            trace=bool(args.trace),
            spawn_ns=args.spawn_ns,
            scratch=args.scratch,
        )
    except Exception:  # the rep's boundary: report, never hide, the failure
        traceback.print_exc()
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "error": traceback.format_exc(limit=3)}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
