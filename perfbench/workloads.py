"""The workload table: what each workload calls, at what size, and how its
deterministic output is digested.

Every workload runs in one process with ``workers=1`` and drives the
program closed loop: one client issues the next request only after the
previous one returns.  A workload has three steps:

* ``warmup(size, seed)`` — untimed: fills the ``lru_cache``'d formation,
  partition and collision tables and the kernel ROMs with a minimal call;
* ``prepare(size, seed, scratch)`` — untimed: builds the inputs and
  returns the zero-argument timed call, which looks the entry point up on
  its package at call time (so the traced run sees the wrapper);
* ``check(size, result)`` — untimed: the output digest, the failures
  found in the output, and the work done (blocks or requests).

``api`` names the request API whose ``write``/``read`` calls are the
requests of the workload (see :mod:`perfbench.spans`); without one, the
timed call itself is the single request.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable
from dataclasses import dataclass

#: the repository's default seed; goldens are stored for it
DEFAULT_SEED = 2013

#: endurance of the service workloads (the serve-bench/cluster-bench
#: default: small, so blocks wear out within the run)
SERVICE_ENDURANCE = 150.0


@dataclass(frozen=True)
class Checked:
    digest: str
    failures: int
    work: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: what one unit of ``work`` is ("block" or "request")
    unit: str
    size: dict
    api: str | None
    warmup: Callable[[dict, int], None]
    prepare: Callable[[dict, int, str], Callable[[], object]]
    check: Callable[[dict, object], Checked]


def _sha256(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- paper-rw: Figures 10 and 11 through run_experiment ----------------------


def _paper_warmup(size: dict, seed: int) -> None:
    from repro.experiments.fig10 import FORMATIONS
    from repro.sim.block_sim import block_lifetime_study
    from repro.sim.page_sim import run_page_study
    from repro.sim.roster import aegis_rw_p_spec, variants_roster

    for a_size, b_size in FORMATIONS:
        for p in size["pointer_counts"]:
            block_lifetime_study(aegis_rw_p_spec(a_size, b_size, p, 512), trials=1, seed=seed)
    for spec in variants_roster(512):
        run_page_study(spec, n_pages=1, blocks_per_page=1, seed=seed)


def _paper_prepare(size: dict, seed: int, scratch: str) -> Callable[[], object]:
    import repro.experiments as experiments
    from repro.sim.context import ExecContext

    ctx = ExecContext(seed=seed, workers=1)
    pointer_counts = tuple(size["pointer_counts"])

    def call() -> object:
        return [
            experiments.run_experiment(
                "fig10", ctx, trials=size["fig10_trials"], pointer_counts=pointer_counts
            ),
            experiments.run_experiment("fig11", ctx, n_pages=size["fig11_pages"]),
        ]

    return call


def _paper_blocks(size: dict) -> int:
    from repro.experiments.fig10 import FORMATIONS
    from repro.sim.roster import variants_roster

    fig10 = len(FORMATIONS) * len(size["pointer_counts"]) * size["fig10_trials"]
    fig11 = len(variants_roster(512)) * size["fig11_pages"] * (4096 * 8 // 512)
    return fig10 + fig11


def _paper_check(size: dict, result: object) -> Checked:
    fig10, fig11 = result
    failures = int(len(fig10.rows) != len(size["pointer_counts"])) + int(not fig11.rows)
    return Checked(
        _sha256([fig10.to_dict(), fig11.to_dict()]), failures, _paper_blocks(size)
    )


# -- fleet: a streaming campaign through run_campaign ------------------------


def _fleet_spec(size: dict):
    from repro.fleet import CampaignSpec

    return CampaignSpec(
        schemes=tuple(size["schemes"]),
        pages_per_scheme=size["pages_per_scheme"],
        blocks_per_page=size["blocks_per_page"],
        chunk_pages=size["chunk_pages"],
    )


def _fleet_warmup(size: dict, seed: int) -> None:
    import repro.fleet as fleet
    from repro.sim.context import ExecContext

    tiny = dict(size, pages_per_scheme=1, chunk_pages=1)
    fleet.run_campaign(_fleet_spec(tiny), ExecContext(seed=seed, workers=1))


def _fleet_prepare(size: dict, seed: int, scratch: str) -> Callable[[], object]:
    import repro.fleet as fleet
    from repro.sim.context import ExecContext

    spec = _fleet_spec(size)
    ctx = ExecContext(seed=seed, workers=1)
    checkpoint = os.path.join(scratch, f"fleet-{os.getpid()}.ckpt.jsonl")

    def call() -> object:
        try:
            return fleet.run_campaign(spec, ctx, checkpoint_path=checkpoint)
        finally:
            if os.path.exists(checkpoint):
                os.remove(checkpoint)

    return call


def _fleet_check(size: dict, report: object) -> Checked:
    pages = len(size["schemes"]) * size["pages_per_scheme"]
    failures = int(not report.completed) + int(report.pages != pages)
    return Checked(report.digest, failures, pages * size["blocks_per_page"])


# -- serve: run_load with the serve-bench defaults ---------------------------


def _serve_load(size: dict, seed: int, ops: int, shards: int):
    import repro.service as service
    from repro.pcm.lifetime import NormalLifetime
    from repro.sim.roster import aegis_spec

    spec = aegis_spec(9, 61, 512)
    model = NormalLifetime(mean_lifetime=SERVICE_ENDURANCE)
    return lambda: service.run_load(
        spec,
        ops=ops,
        seed=seed,
        shards=shards,
        workers=1,
        n_addresses=size["addresses"],
        spares=size["spares"],
        workload="zipf",
        workload_params={"alpha": 1.0},
        lifetime_model=model,
        read_fraction=size["read_fraction"],
        buffer_capacity=size["buffer"],
        snapshot_interval=size["snapshot_interval"],
    )


def _serve_check(size: dict, report: object) -> Checked:
    failures = int(report.snapshot["counters"].get("integrity_failures", 0))
    return Checked(_sha256(report.snapshot), failures, report.ops)


# -- cluster: run_cluster_bench with a mid-run degrade drill -----------------


def _cluster_bench(size: dict, seed: int, ops: int):
    import repro.cluster as cluster
    from repro.pcm.lifetime import NormalLifetime
    from repro.sim.roster import aegis_spec

    spec = aegis_spec(9, 61, 512)
    model = NormalLifetime(mean_lifetime=SERVICE_ENDURANCE)
    return lambda: cluster.run_cluster_bench(
        spec,
        ops=ops,
        n_arrays=size["arrays"],
        tenants=size["tenants"],
        seed=seed,
        lifetime_model=model,
        maintenance_interval=size["maintenance_interval"],
        degrade_at=ops // 2,
        degrade_array=0,
        workers=1,
    )


def _cluster_check(size: dict, report: object) -> Checked:
    in_run = int(report.snapshot["counters"].get("integrity_failures", 0))
    failures = report.audit_failures + in_run + report.forced_writes
    return Checked(f"{report.audit_digest}:{report.snapshot_digest}", failures, report.ops)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-rw",
            why=(
                "Figs 10-11 via run_experiment: Aegis-rw/-rw-p have no vector kernel, "
                "so the scalar sim checkers do the work; bypasses sim.kernels"
            ),
            unit="block",
            size={"fig10_trials": 15, "pointer_counts": [2, 6, 12], "fig11_pages": 1},
            api=None,
            warmup=_paper_warmup,
            prepare=_paper_prepare,
            check=_paper_check,
        ),
        Workload(
            name="fleet",
            why=(
                "run_campaign over aegis-9x61,ecp6,safer64 with checkpoints: the vector "
                "kernel block_dynamics and the fleet merge do the work; no checkers"
            ),
            unit="block",
            size={
                "schemes": ["aegis-9x61", "ecp6", "safer64"],
                "pages_per_scheme": 1024,
                "blocks_per_page": 8,
                "chunk_pages": 64,
            },
            api=None,
            warmup=_fleet_warmup,
            prepare=_fleet_prepare,
            check=_fleet_check,
        ),
        Workload(
            name="serve",
            why=(
                "run_load with serve-bench defaults: ageing blocks, vector drains plus "
                "scalar escalation into the core Aegis encoder; no control plane"
            ),
            unit="request",
            size={
                "ops": 24000,
                "shards": 4,
                "addresses": 64,
                "spares": 16,
                "read_fraction": 0.25,
                "buffer": 8,
                "snapshot_interval": 2000,
            },
            api="service",
            warmup=lambda size, seed: _serve_load(size, seed, ops=64, shards=1)(),
            prepare=lambda size, seed, scratch: _serve_load(
                size, seed, ops=size["ops"], shards=size["shards"]
            ),
            check=_serve_check,
        ),
        Workload(
            name="cluster",
            why=(
                "run_cluster_bench, 4 mixed-QoS tenants, SLOs and a degrade drill: the "
                "maintenance control plane (flush, SLO poll, observe) does the work"
            ),
            unit="request",
            size={"ops": 12000, "arrays": 3, "tenants": 4, "maintenance_interval": 16},
            api="cluster",
            warmup=lambda size, seed: _cluster_bench(size, seed, ops=64)(),
            prepare=lambda size, seed, scratch: _cluster_bench(size, seed, ops=size["ops"]),
            check=_cluster_check,
        ),
    )
}
