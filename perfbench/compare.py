"""Compare two result histories written by ``perfbench/run.py --out``.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

The host's speed drifts over minutes, by more than the bounds on a
shared machine, so two histories taken one after the other differ even
when the code does not.  The comparison therefore works on pairs: take
the two histories in pairs, one base run and one new run at the same
seed, back to back and alternating which side runs first, so that the two
runs of a pair share the host's state::

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        order="base new"; [ $((seed % 2)) = 0 ] && order="new base"
        for side in $order; do
            (cd $side && python3 perfbench/run.py --workload serve --seed $seed \\
                --seconds 30 --trace 0 --out ../$side.jsonl)
        done
    done

The i-th untraced, correct run of a workload in one history is paired
with the i-th in the other; their seeds must match.  For every workload
both histories measured, each end-to-end metric of ``BENCHMARK.json`` is
reported as the median of the per-pair changes (new against base, as a
share of base, positive when worse) with the quartiles of those changes,
and judged against the metric's bound: ``worse`` when the median change
is worse than the bound, ``unresolved`` when the changes spread wider
than the bound, and ``ok`` otherwise.  Exits 1 when any metric is worse.

Runs taken on hosts with different CPU counts are not compared: the
refusal rule is :func:`benchmarks.hostmeta.parallel_ladder_guard`, and
the command exits 2 with its message, as it does when the seeds of the
two histories do not pair up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from benchmarks.hostmeta import parallel_ladder_guard  # noqa: E402


def load(path: str) -> dict[str, list[dict]]:
    """Untraced, correct records of a history, by workload, in order."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"] == 0 and record["correct"]:
                runs.setdefault(record["provenance"]["workload"], []).append(record)
    return runs


def host_guard(base: dict[str, list[dict]], new: dict[str, list[dict]]) -> str | None:
    """The refusal message when the two histories mix CPU counts."""
    cpus = {
        side: {record["provenance"]["host_cpus"] for runs in history.values() for record in runs}
        for side, history in (("base", base), ("new", new))
    }
    for side, counts in cpus.items():
        if len(counts) > 1:
            return f"the {side} history mixes hosts with {sorted(counts)} CPUs"
    if not cpus["base"] or not cpus["new"]:
        return None
    return parallel_ladder_guard(
        {"host_cpus": cpus["base"].pop()}, {"host_cpus": cpus["new"].pop()}
    )


def pair_guard(base: list[dict], new: list[dict]) -> str | None:
    """The refusal message when two runs lists do not pair up by seed."""
    base_seeds = [run["provenance"]["seed"] for run in base]
    new_seeds = [run["provenance"]["seed"] for run in new]
    if base_seeds != new_seeds:
        return f"base seeds {base_seeds} do not pair with new seeds {new_seeds}"
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    base, new = load(args.base), load(args.new)
    refusal = host_guard(base, new) or next(
        filter(None, (pair_guard(base[w], new[w]) for w in sorted(set(base) & set(new)))), None
    )
    if refusal:
        print(f"refusing to compare: {refusal}")
        return 2
    worse = 0
    for workload in sorted(set(base) & set(new)):
        pairs = list(zip(base[workload], new[workload]))
        print(f"## {workload} ({len(pairs)} pairs)")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            changes = [
                sign * (now["metrics"][name]["value"] / old["metrics"][name]["value"] - 1)
                for old, now in pairs
            ]
            low, median, high = quartiles(changes)
            if median > bound:
                verdict = "worse"
                worse += 1
            elif high - low > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:<14} {-median * 100:+6.1f}% better  "
                  f"[{-high * 100:+.1f}%, {-low * 100:+.1f}%]  bound {bound:.0%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
