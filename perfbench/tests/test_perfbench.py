"""Self-checks of the benchmark at a tiny size.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import compare, run  # noqa: E402
from perfbench.rep import run_rep  # noqa: E402
from perfbench.spans import (  # noqa: E402
    END,
    ENTRY_POINTS,
    LAYER_FUNCTIONS,
    PARENT,
    REQUEST_METHODS,
    ROOT as ROOT_FIELD,
    START,
    RequestTimer,
    SpanRecorder,
    resolve,
    summarize,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

TINY = {
    "paper-rw": {"fig10_trials": 1, "pointer_counts": [2], "fig11_pages": 1},
    "fleet": {"pages_per_scheme": 8, "chunk_pages": 4},
    "serve": {"ops": 400, "shards": 2},
    "cluster": {"ops": 400},
}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _originals() -> dict:
    return {
        (id(owner), method): vars(owner)[method]
        for targets in LAYER_FUNCTIONS.values()
        for module_name, attribute in targets
        for owner, method in resolve(module_name, attribute)
    }


def _fresh_process_state() -> None:
    # an in-process repeat would otherwise hit the page-study memo
    from repro.experiments import clear_study_cache

    clear_study_cache()


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_every_wrapper_is_restored():
    before = _originals()
    recorder = SpanRecorder()
    with recorder.installed():
        patched = _originals()
        assert all(patched[key] is not before[key] for key in before)
    assert _originals() == before
    for api in REQUEST_METHODS:
        with RequestTimer(api).installed():
            pass
        assert _originals() == before


def test_wrappers_are_restored_when_the_call_raises():
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with SpanRecorder().installed():
            1 / 0
    assert _originals() == before


def test_summarize_subtracts_children_and_counts_roots():
    spans = [
        ["cluster.maintenance", -1, 0, 0, 100, None, None],
        ["obs.slo.poll", 0, 0, 10, 40, None, None],
        ["service.flush", 0, 0, 50, 90, None, 8],
        ["service.drain_vector", 2, 0, 55, 85, None, 8],
        ["service.escalate", 3, 0, 60, 70, None, None],
        ["cluster.write", -1, 5, 120, 130, "BackpressureError", None],
    ]
    summary = summarize(spans, wall_ns=200)
    assert summary["self_ns"]["cluster.maintenance"] == 100 - 30 - 40
    assert summary["self_ns"]["service.flush"] == 40 - 30
    assert summary["total_ns"]["cluster.maintenance"] == 100
    assert summary["layer_ns"] == 110
    assert summary["escalated_rows"] == 1
    assert summary["sizes"]["service.drain_vector"] == 8
    assert summary["errors"] == {"cluster.write:BackpressureError": 1}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_matches_untraced_run(workload, tmp_path):
    _fresh_process_state()
    plain = run_rep(workload, 7, size=TINY[workload], scratch=str(tmp_path))
    _fresh_process_state()
    traced = run_rep(workload, 7, trace=True, size=TINY[workload], scratch=str(tmp_path))
    assert plain["failures"] == traced["failures"] == 0
    assert plain["digest"] == traced["digest"]
    summary = traced["summary"]
    values = run.per_layer([plain], [traced])
    assert set(values) == set(run.PER_LAYER)
    assert all(math.isfinite(value) for value in values.values())
    assert values["trace.coverage_frac"] == summary["layer_ns"] / summary["wall_ns"]
    assert 0 < values["trace.coverage_frac"] <= 1
    e2e, _ = run.end_to_end([plain])
    assert set(e2e) == set(run.END_TO_END)
    assert all(value > 0 for name, value in e2e.items() if name != "setup_s")
    with open(tmp_path / f"spans-{workload}.jsonl", encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == sum(summary["calls"].values())


def test_coverage_leaves_out_the_entry_point_self_time():
    # the entry point spans the whole call, but the layers below it only
    # half of it: coverage is that half, not the entry point's 100%
    spans = [
        ["experiments.run", -1, 0, 0, 100, None, None],
        ["sim.block_lifetime_study", 0, 0, 10, 40, None, None],
        ["sim.checker.add_fault", 1, 0, 20, 30, None, None],
        ["sim.simulate_pages", 0, 0, 60, 80, None, None],
    ]
    summary = summarize(spans, wall_ns=100)
    assert summary["layer_ns"] == 30 + 20
    assert "experiments.run" in ENTRY_POINTS
    assert not {"fleet.run_campaign", "service.run_load", "cluster.run_bench"} & set(
        LAYER_FUNCTIONS
    )


def test_design_record_covers_every_layer_metric_once():
    with open(os.path.join(ROOT, "perfbench", "design.json"), encoding="utf-8") as handle:
        rows = json.load(handle)["layer_metrics"]
    named = [metric for row in rows for metric in row["metrics"]]
    expected = [*LAYER_FUNCTIONS, *(m for m in run.DERIVED if not m.startswith("trace."))]
    assert sorted(named) == sorted(expected)
    for row in rows:
        assert set(row["should_move"]) <= set(run.END_TO_END)
        assert row["on"] and set(row["on"]) <= set(WORKLOADS)
        assert row["no_change_on"] and set(row["no_change_on"]) <= set(WORKLOADS)
        assert not set(row["on"]) & set(row["no_change_on"])


def test_spans_nest_and_share_their_request_id():
    _fresh_process_state()
    recorder = SpanRecorder()
    call = WORKLOADS["cluster"].prepare(dict(WORKLOADS["cluster"].size, **TINY["cluster"]), 3, "")
    with recorder.installed():
        call()
    spans = recorder.spans
    assert spans
    for index, span in enumerate(spans):
        if span[PARENT] < 0:
            assert span[ROOT_FIELD] == index
            continue
        parent = spans[span[PARENT]]
        assert parent[START] <= span[START] <= span[END] <= parent[END]
        assert span[ROOT_FIELD] == parent[ROOT_FIELD]


def test_request_timer_counts_every_top_level_request():
    size = dict(WORKLOADS["cluster"].size, **TINY["cluster"])
    timer = RequestTimer("cluster")
    with timer.installed():
        WORKLOADS["cluster"].prepare(size, 5, "")()
    recorder = SpanRecorder()
    with recorder.installed():
        WORKLOADS["cluster"].prepare(size, 5, "")()
    calls = summarize(recorder.spans, 1)["calls"]
    assert len(timer.samples_ns) == calls["cluster.write"] + calls["cluster.read"]
    assert all(sample > 0 for sample in timer.samples_ns)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_refuses_runs_from_different_cpu_counts(tmp_path):
    def history(path, cpus):
        record = {"trace": 0, "correct": True, "metrics": {},
                  "provenance": {"workload": "serve", "host_cpus": cpus}}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        return str(path)

    base = history(tmp_path / "base.jsonl", 1)
    new = history(tmp_path / "new.jsonl", 2)
    assert compare.main([base, new]) == 2


def _history(path, values_by_seed, cpus=2):
    with open(path, "w", encoding="utf-8") as handle:
        for seed, value in values_by_seed:
            metrics = {m: {"value": value, "unit": "x"} for m in run.END_TO_END}
            record = {"trace": 0, "correct": True, "metrics": metrics,
                      "provenance": {"workload": "serve", "host_cpus": cpus, "seed": seed}}
            handle.write(json.dumps(record) + "\n")
    return str(path)


def test_compare_judges_pairs_so_host_drift_cancels(tmp_path):
    # the host slows down 1.5x across the runs; each pair shares its state
    drift = [1.0, 1.1, 1.25, 1.4, 1.5]
    base = _history(tmp_path / "base.jsonl", [(s, d) for s, d in enumerate(drift)])
    same = _history(tmp_path / "same.jsonl", [(s, d * 1.02) for s, d in enumerate(drift)])
    worse = _history(tmp_path / "worse.jsonl", [(s, d * 1.4) for s, d in enumerate(drift)])
    # every metric moves together here, so "worse" is a higher-is-better drop
    # for work_per_s or a lower-is-better rise for the others: both are caught
    assert compare.main([base, same]) == 0
    assert compare.main([base, worse]) == 1


def test_compare_refuses_histories_whose_seeds_do_not_pair(tmp_path):
    base = _history(tmp_path / "base.jsonl", [(1, 1.0), (2, 1.0)])
    new = _history(tmp_path / "new.jsonl", [(2, 1.0), (1, 1.0)])
    assert compare.main([base, new]) == 2
