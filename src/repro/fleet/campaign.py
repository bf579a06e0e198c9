"""Streaming campaign runner: warm pools, checkpoints, SLO feed.

A campaign runs every page of every scheme through
:meth:`repro.sim.parallel.SimExecutor.imap_chunks`, folding each worker
shard into a :class:`~repro.fleet.aggregate.CampaignAggregate` the moment
it is emitted.  Peak memory is O(window × chunk) regardless of fleet
size, and the only per-chunk IPC payload is the compact shard state.

Determinism contract (what makes kill/resume bit-identical):

* every page draws from ``rng_for(seed, page)``, so any slice of the
  fleet is independently computable;
* workers fold pages in page order, the parent merges shards in
  chunk-index order (``imap_chunks`` emits in chunk order for every
  worker count and window size);
* checkpoints serialize the aggregate with full float precision (JSON
  ``repr`` round-trip), so resuming from chunk *k* performs exactly the
  float operations the uninterrupted run performs from chunk *k*.

Checkpoint format: JSONL, one ``meta`` record (config digest + cursor)
followed by one ``scheme`` record per partially- or fully-finished
scheme.  Files are written atomically (tmp + ``os.replace``), so a kill
mid-checkpoint leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.fleet.aggregate import (
    CampaignAggregate,
    SchemeAggregate,
    default_retention_edges,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOSpec, write_slo_jsonl
from repro.obs.timeseries import TimeSeriesRecorder
from repro.pcm.faults import FAULT_MODEL_CHOICES
from repro.pcm.lifetime import NormalLifetime, WearSkewLifetime
from repro.sim import roster
from repro.sim.context import ExecContext
from repro.sim.page_sim import DEFAULT_INVERSION_WEAR, DEFAULT_WRITE_PROBABILITY
from repro.sim.parallel import (
    PageTask,
    SimExecutor,
    _chunked,
    simulate_task_page,
    simulate_task_pages,
)

#: checkpoint file format version (bumped on incompatible layout changes)
CHECKPOINT_VERSION = 1

#: the campaign scheme roster: short stable keys -> spec factories taking
#: the block size in bits.  Keys are what CampaignSpec.schemes, the CLI
#: ``--schemes`` flag and checkpoint records carry.
FLEET_SCHEMES = {
    "aegis-9x61": lambda n_bits: roster.aegis_spec(9, 61, n_bits),
    "aegis-17x31": lambda n_bits: roster.aegis_spec(17, 31, n_bits),
    "aegis-rw-9x61": lambda n_bits: roster.aegis_rw_spec(9, 61, n_bits),
    "ecp6": lambda n_bits: roster.ecp_spec(6, n_bits),
    "safer64": lambda n_bits: roster.safer_spec(64, n_bits),
    "hamming": lambda n_bits: roster.hamming_spec(n_bits),
    "none": lambda n_bits: roster.no_protection_spec(n_bits),
}

#: default roster: the paper's headline scheme against the two strongest
#: prior-art baselines (all vector-capable, so campaigns stay fast)
DEFAULT_CAMPAIGN_SCHEMES = ("aegis-9x61", "ecp6", "safer64")

#: wear-leveling policies as campaign grid dimensions: name ->
#: (hot_fraction, hot_rate) for :class:`~repro.pcm.lifetime.WearSkewLifetime`.
#: "perfect" is the identity (the paper's assumption: traffic spread
#: evenly); weaker policies concentrate hot_rate× traffic on a quarter of
#: the cells — "none" models no leveling at all, "start-gap" and
#: "security-refresh" the residual skew of the published levelers.
WEAR_POLICIES = {
    "perfect": (0.0, 1.0),
    "none": (0.25, 2.5),
    "start-gap": (0.25, 1.2),
    "security-refresh": (0.25, 1.05),
}

#: the policy with no effect on results (kept out of digests and keys)
DEFAULT_WEAR_POLICY = "perfect"


def wear_lifetime(model: NormalLifetime, policy: str):
    """Wrap a lifetime model in the skew a wear policy induces
    (identity — the same object — for ``"perfect"``)."""
    try:
        hot_fraction, hot_rate = WEAR_POLICIES[policy]
    except KeyError:
        raise ConfigurationError(
            f"unknown wear policy {policy!r}; known: "
            f"{', '.join(sorted(WEAR_POLICIES))}"
        ) from None
    if hot_fraction <= 0.0 or hot_rate == 1.0:
        return model
    return WearSkewLifetime(base=model, hot_fraction=hot_fraction, hot_rate=hot_rate)


def fleet_spec(name: str, block_bits: int = 512):
    """Resolve a campaign scheme key to its :class:`SchemeSpec`."""
    try:
        factory = FLEET_SCHEMES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fleet scheme {name!r}; known: {', '.join(sorted(FLEET_SCHEMES))}"
        ) from None
    return factory(block_bits)


def warm_fleet_caches(
    scheme_names: tuple[str, ...], block_bits: int, engine: str = "auto"
) -> None:
    """Pool initializer: prime every per-process cache a campaign touches.

    Runs one single-block page per scheme in the worker before it takes
    its first chunk, which builds the ``lru_cache``'d formation /
    partition / collision tables and the kernel ROMs exactly as real
    chunks will.  Module-level so :class:`ProcessPoolExecutor` can pickle
    it as an ``initializer``.
    """
    for name in scheme_names:
        task = PageTask(
            spec=fleet_spec(name, block_bits),
            blocks_per_page=1,
            seed=0,
            lifetime_model=None,
            write_probability=DEFAULT_WRITE_PROBABILITY,
            inversion_wear_rate=DEFAULT_INVERSION_WEAR,
            engine=engine,
        )
        simulate_task_page(task, 0)


@dataclass(frozen=True)
class FleetTask:
    """Per-scheme worker task: the page task plus the reduction params."""

    page_task: PageTask
    edges: tuple[float, ...]
    retention_age: float
    measure_bytes: bool = True


def reduce_fleet_chunk(task: FleetTask, indices: tuple[int, ...]) -> dict:
    """Worker entry point: simulate a chunk, return only its shard state.

    This is the shard-side reduction: the full ``PageResult`` list dies in
    the worker and a constant-size moment/histogram state crosses IPC.
    ``result_bytes`` records what the full-result path *would* have
    shipped (measured with the same pickle protocol the pool uses), so
    the parent can account the reduction ratio without ever paying it.
    """
    results = simulate_task_pages(task.page_task, indices)
    shard = SchemeAggregate(task.edges, task.retention_age)
    for result in results:
        shard.push(result)
    shard.chunks = 1
    if task.measure_bytes:
        shard.result_bytes = len(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
    return shard.state()


@dataclass(frozen=True)
class CampaignSpec:
    """What a campaign simulates (never how — that is :class:`ExecContext`).

    ``retention_age`` and ``edges`` default to a ladder around the
    campaign's characteristic page lifetime (mean endurance over the
    write probability), so the histograms track the interesting region of
    the survival curve for any endurance parameters.
    """

    schemes: tuple[str, ...] = DEFAULT_CAMPAIGN_SCHEMES
    pages_per_scheme: int = 64
    blocks_per_page: int = 8
    block_bits: int = 512
    chunk_pages: int = 8
    mean_endurance: float | None = None
    endurance_cov: float | None = None
    write_probability: float = DEFAULT_WRITE_PROBABILITY
    inversion_wear_rate: float = DEFAULT_INVERSION_WEAR
    retention_age: float | None = None
    edges: tuple[float, ...] | None = None
    measure_bytes: bool = True
    #: wear-leveling grid dimension: each scheme is aged once per policy
    #: (see :data:`WEAR_POLICIES`); the default single-"perfect" grid is
    #: digest-identical to campaigns predating the dimension
    wear_policies: tuple[str, ...] = (DEFAULT_WEAR_POLICY,)
    #: fault model the campaign ages under (repro.pcm.faults)
    fault_model: str = "hard"

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ConfigurationError("a campaign needs at least one scheme")
        for name in self.schemes:
            if name not in FLEET_SCHEMES:
                raise ConfigurationError(
                    f"unknown fleet scheme {name!r}; known: "
                    f"{', '.join(sorted(FLEET_SCHEMES))}"
                )
        if not self.wear_policies:
            raise ConfigurationError("a campaign needs at least one wear policy")
        for policy in self.wear_policies:
            if policy not in WEAR_POLICIES:
                raise ConfigurationError(
                    f"unknown wear policy {policy!r}; known: "
                    f"{', '.join(sorted(WEAR_POLICIES))}"
                )
        if self.fault_model not in FAULT_MODEL_CHOICES:
            raise ConfigurationError(
                f"unknown fault model {self.fault_model!r}; known: "
                f"{', '.join(FAULT_MODEL_CHOICES)}"
            )
        if self.pages_per_scheme < 1:
            raise ConfigurationError("pages_per_scheme must be positive")
        if self.chunk_pages < 1:
            raise ConfigurationError("chunk_pages must be positive")

    def grid(self) -> tuple[tuple[str, str, str], ...]:
        """The (scheme, wear policy, aggregate key) jobs, in run order.

        The aggregate key is the bare scheme name under the default
        policy — so single-policy campaigns keep their historical keys —
        and ``scheme+policy`` otherwise.
        """
        return tuple(
            (
                name,
                policy,
                name if policy == DEFAULT_WEAR_POLICY else f"{name}+{policy}",
            )
            for name in self.schemes
            for policy in self.wear_policies
        )

    def lifetime_model(self) -> NormalLifetime:
        model = NormalLifetime()
        if self.mean_endurance is not None:
            model = NormalLifetime(mean_lifetime=self.mean_endurance, cov=model.cov)
        if self.endurance_cov is not None:
            model = NormalLifetime(mean_lifetime=model.mean_lifetime, cov=self.endurance_cov)
        return model

    def lifetime_scale(self) -> float:
        """Characteristic page lifetime in page writes."""
        return self.lifetime_model().mean / self.write_probability

    def resolved_retention_age(self) -> float:
        if self.retention_age is not None:
            return float(self.retention_age)
        return 0.25 * self.lifetime_scale()

    def resolved_edges(self) -> tuple[float, ...]:
        if self.edges is not None:
            return tuple(float(edge) for edge in self.edges)
        return default_retention_edges(self.lifetime_scale())

    def total_pages(self) -> int:
        return self.pages_per_scheme * len(self.grid())

    def config_digest(self, seed: int) -> str:
        """sha256 over every result-bearing parameter plus the seed.

        Checkpoints carry this digest; resume refuses a checkpoint whose
        digest differs, because folding its aggregate into a differently-
        parameterized campaign would silently corrupt the statistics.
        ``workers``/``engine`` are deliberately absent — they never change
        results, and resuming with a different fan-out is supported.
        """
        model = self.lifetime_model()
        payload = {
            "schemes": list(self.schemes),
            "pages_per_scheme": self.pages_per_scheme,
            "blocks_per_page": self.blocks_per_page,
            "block_bits": self.block_bits,
            "chunk_pages": self.chunk_pages,
            "mean_endurance": model.mean_lifetime,
            "endurance_cov": model.cov,
            "write_probability": self.write_probability,
            "inversion_wear_rate": self.inversion_wear_rate,
            "retention_age": self.resolved_retention_age(),
            "edges": list(self.resolved_edges()),
            "seed": seed,
        }
        # non-default dimensions only, so checkpoints and goldens written
        # before these knobs existed keep their digests byte-identical
        if tuple(self.wear_policies) != (DEFAULT_WEAR_POLICY,):
            payload["wear_policies"] = list(self.wear_policies)
        if self.fault_model != "hard":
            payload["fault_model"] = self.fault_model
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_fleet_slos(scheme_names: tuple[str, ...]) -> tuple[SLOSpec, ...]:
    """The campaign SLO roster for the PR-8 observability tier.

    One retention objective per scheme — the capacity-retention gauge
    must stay above a health floor in nearly every sampled bucket — plus
    the IPC-efficiency ratio: shard bytes must stay under 20% of what the
    full-result path would ship (the >=5x reduction, expressed as an SLO
    the error-budget machinery can burn against).
    """
    specs = tuple(
        SLOSpec.retention(
            f"fleet_retention_{name}",
            "fleet_retention{scheme=%s}" % name,
            minimum=0.05,
            objective=0.25,
        )
        for name in scheme_names
    )
    return specs + (
        SLOSpec.ratio(
            "fleet_ipc_overhead",
            "fleet_shard_bytes_total",
            "fleet_result_bytes_total",
            objective=0.2,
        ),
    )


def write_checkpoint(
    path: str, meta: dict, aggregate: CampaignAggregate
) -> None:
    """Atomically write a campaign checkpoint (tmp + ``os.replace``)."""
    records = [{"record": "meta", **meta}]
    for name, payload in aggregate.state().items():
        records.append({"record": "scheme", "name": name, **payload})
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    os.replace(tmp_path, path)


def read_checkpoint(path: str) -> tuple[dict, CampaignAggregate]:
    """Read a checkpoint back into ``(meta, aggregate)``."""
    meta: dict | None = None
    state: dict = {}
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"checkpoint {path} line {number} is not valid JSON "
                    f"(truncated write?): {error}"
                ) from error
            kind = record.pop("record", None)
            if kind == "meta":
                meta = record
            elif kind == "scheme":
                name = record.pop("name")
                state[name] = record
            else:
                raise ConfigurationError(
                    f"unknown checkpoint record kind {kind!r} in {path}"
                )
    if meta is None:
        raise ConfigurationError(f"checkpoint {path} has no meta record")
    if int(meta.get("version", 0)) != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"checkpoint {path} has version {meta.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    return meta, CampaignAggregate.from_state(state)


@dataclass
class CampaignReport:
    """Everything a finished (or stopped) campaign run produced."""

    spec: CampaignSpec
    ctx: ExecContext
    aggregate: CampaignAggregate
    digest: str
    completed: bool
    cursor: tuple[int, int]
    pages: int
    elapsed: float
    checkpoints_written: int
    resumed_from: tuple[int, int] | None
    registry: MetricsRegistry
    recorder: TimeSeriesRecorder = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def pages_per_second(self) -> float:
        return self.pages / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def reduction_ratio(self) -> float:
        """Full-result bytes over shard bytes (the headline perf win)."""
        shard = self.aggregate.shard_bytes
        return self.aggregate.result_bytes / shard if shard else 0.0

    def slo_specs(self) -> tuple[SLOSpec, ...]:
        return default_fleet_slos(tuple(key for _, _, key in self.spec.grid()))

    def write_series(self, path: str) -> int:
        """Export the retention time series + SLO verdicts as JSONL (the
        artifact ``repro slo-report`` renders)."""
        return write_slo_jsonl(path, self.recorder, self.slo_specs())

    def rows(self) -> list[dict]:
        """Per-scheme summary rows for tables and JSON output."""
        rows = []
        for _, _, key in self.spec.grid():
            agg = self.aggregate.schemes.get(key)
            if agg is None or agg.pages == 0:
                continue
            lifetime = agg.lifetime_estimate()
            rows.append(
                {
                    "scheme": key,
                    "pages": agg.pages,
                    "lifetime_mean": lifetime.mean,
                    "lifetime_half_width": lifetime.half_width,
                    "improvement_mean": agg.improvement_ratio,
                    "retention": agg.retention,
                    "retention_age": agg.retention_age,
                    "retention_curve": agg.retention_curve(),
                    "faults_recovered_mean": agg.faults.mean if agg.pages else 0.0,
                    "result_bytes": agg.result_bytes,
                    "shard_bytes": agg.shard_bytes,
                }
            )
        return rows

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "completed": self.completed,
            "pages": self.pages,
            "elapsed_seconds": self.elapsed,
            "pages_per_second": self.pages_per_second,
            "result_bytes": self.aggregate.result_bytes,
            "shard_bytes": self.aggregate.shard_bytes,
            "reduction_ratio": self.reduction_ratio,
            "checkpoints_written": self.checkpoints_written,
            "resumed_from": list(self.resumed_from) if self.resumed_from else None,
            "context": self.ctx.describe(),
            "schemes": self.rows(),
        }


class CampaignRunner:
    """Drive one campaign: stream, fold, checkpoint, feed the SLO tier.

    A runner may *borrow* a persistent :class:`SimExecutor` (the campaign
    engine's warm pool) via ``executor=``; otherwise it creates one whose
    pool initializer pre-warms every scheme's lookup tables once per
    worker, and closes it when the run finishes.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        ctx: ExecContext | None = None,
        *,
        executor: SimExecutor | None = None,
        checkpoint_path: str | None = None,
        checkpoint_interval: int = 8,
        series_bucket: int | None = None,
    ) -> None:
        if checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be positive")
        self.spec = spec
        self.ctx = ctx if ctx is not None else ExecContext()
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = checkpoint_interval
        #: time-series bucket width on the pages-merged clock
        self.series_bucket = series_bucket or max(spec.chunk_pages, 1)
        self._executor = executor
        self._owns_executor = executor is None

    def _make_executor(self) -> SimExecutor:
        return SimExecutor(
            self.ctx.workers,
            chunk_pages=self.spec.chunk_pages,
            initializer=warm_fleet_caches,
            initargs=(self.spec.schemes, self.spec.block_bits, self.ctx.engine),
        )

    def _meta(self, cursor: tuple[int, int], checkpoints: int) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "config_digest": self.spec.config_digest(self.ctx.seed),
            "cursor": {"scheme": cursor[0], "chunk": cursor[1]},
            "checkpoints": checkpoints,
            "context": {
                "seed": self.ctx.seed,
                "workers": self.ctx.workers,
                "engine": self.ctx.engine,
            },
        }

    def _load_cursor(self) -> tuple[tuple[int, int], CampaignAggregate, int]:
        if not self.checkpoint_path or not os.path.exists(self.checkpoint_path):
            raise ConfigurationError(
                f"cannot resume: no checkpoint at {self.checkpoint_path!r}"
            )
        meta, aggregate = read_checkpoint(self.checkpoint_path)
        expected = self.spec.config_digest(self.ctx.seed)
        if meta.get("config_digest") != expected:
            raise ConfigurationError(
                "checkpoint config digest mismatch: the checkpoint was "
                "written by a campaign with different result-bearing "
                "parameters (or a different seed) and cannot be resumed"
            )
        cursor = (int(meta["cursor"]["scheme"]), int(meta["cursor"]["chunk"]))
        return cursor, aggregate, int(meta.get("checkpoints", 0))

    def _rebuild_registry(
        self, registry: MetricsRegistry, aggregate: CampaignAggregate
    ) -> None:
        """Derive the counter state of a resumed campaign from its
        aggregate (deterministic, so resumed counters match the
        uninterrupted run's)."""
        for name, agg in aggregate.schemes.items():
            if agg.pages:
                registry.inc("fleet_pages_total", agg.pages, scheme=name)
            if agg.chunks:
                registry.inc("fleet_chunks_total", agg.chunks, scheme=name)
            if agg.result_bytes:
                registry.inc("fleet_result_bytes_total", agg.result_bytes)
            if agg.shard_bytes:
                registry.inc("fleet_shard_bytes_total", agg.shard_bytes)

    def run(
        self,
        *,
        resume: bool = False,
        stop_after_chunks: int | None = None,
        kill_after_checkpoints: int | None = None,
    ) -> CampaignReport:
        """Run (or resume) the campaign and return its report.

        ``stop_after_chunks`` stops cleanly after that many chunks *this
        run*, writing a checkpoint — the in-process kill drill the tests
        use.  ``kill_after_checkpoints`` SIGKILLs the process right after
        the Nth checkpoint lands — the out-of-process drill the CI
        fleet-smoke job uses.  Both exercise the same resume path.
        """
        spec, ctx = self.spec, self.ctx
        edges = spec.resolved_edges()
        retention_age = spec.resolved_retention_age()
        resumed_from: tuple[int, int] | None = None
        checkpoints_written = 0
        if resume:
            cursor, aggregate, checkpoints_written = self._load_cursor()
            resumed_from = cursor
        else:
            cursor, aggregate = (0, 0), CampaignAggregate()
        registry = MetricsRegistry()
        self._rebuild_registry(registry, aggregate)
        recorder = TimeSeriesRecorder(registry, bucket_width=self.series_bucket)
        pages_done = aggregate.pages
        if pages_done:
            # a resumed campaign's first sample is a catch-up bucket: the
            # restored totals land in the bucket at the restored clock
            recorder.sample(pages_done)
        chunks_this_run = 0
        since_checkpoint = 0
        executor = self._executor if self._executor is not None else self._make_executor()
        start = time.perf_counter()
        completed = False
        jobs = spec.grid()
        try:
            for job_index in range(cursor[0], len(jobs)):
                name, wear_policy, key = jobs[job_index]
                agg = aggregate.scheme(key, edges, retention_age)
                chunks = _chunked(range(spec.pages_per_scheme), spec.chunk_pages)
                start_chunk = cursor[1] if job_index == cursor[0] else 0
                if start_chunk >= len(chunks):
                    continue
                task = FleetTask(
                    page_task=PageTask(
                        spec=fleet_spec(name, spec.block_bits),
                        blocks_per_page=spec.blocks_per_page,
                        seed=ctx.seed,
                        lifetime_model=wear_lifetime(
                            spec.lifetime_model(), wear_policy
                        ),
                        write_probability=spec.write_probability,
                        inversion_wear_rate=spec.inversion_wear_rate,
                        engine=ctx.engine,
                        fault_model=spec.fault_model,
                    ),
                    edges=edges,
                    retention_age=retention_age,
                    measure_bytes=spec.measure_bytes,
                )
                stream = executor.imap_chunks(
                    reduce_fleet_chunk, task, chunks[start_chunk:]
                )
                for offset, shard in enumerate(stream):
                    chunk_index = start_chunk + offset
                    shard["shard_bytes"] = len(
                        pickle.dumps(shard, pickle.HIGHEST_PROTOCOL)
                    )
                    agg.merge_state(shard)
                    pages_done += len(chunks[chunk_index])
                    chunks_this_run += 1
                    since_checkpoint += 1
                    registry.inc(
                        "fleet_pages_total", len(chunks[chunk_index]), scheme=key
                    )
                    registry.inc("fleet_chunks_total", 1, scheme=key)
                    if shard.get("result_bytes"):
                        registry.inc(
                            "fleet_result_bytes_total", int(shard["result_bytes"])
                        )
                    registry.inc(
                        "fleet_shard_bytes_total", int(shard["shard_bytes"])
                    )
                    registry.set_gauge("fleet_retention", agg.retention, scheme=key)
                    registry.set_gauge(
                        "fleet_lifetime_mean", agg.lifetime.mean, scheme=key
                    )
                    recorder.sample(pages_done)
                    if chunk_index + 1 >= len(chunks):
                        next_cursor = (job_index + 1, 0)
                    else:
                        next_cursor = (job_index, chunk_index + 1)
                    if (
                        self.checkpoint_path
                        and since_checkpoint >= self.checkpoint_interval
                    ):
                        checkpoints_written += 1
                        since_checkpoint = 0
                        write_checkpoint(
                            self.checkpoint_path,
                            self._meta(next_cursor, checkpoints_written),
                            aggregate,
                        )
                        if (
                            kill_after_checkpoints is not None
                            and checkpoints_written >= kill_after_checkpoints
                        ):
                            # the out-of-process crash drill: the checkpoint
                            # just landed atomically, so resume must work
                            os.kill(os.getpid(), signal.SIGKILL)
                    if (
                        stop_after_chunks is not None
                        and chunks_this_run >= stop_after_chunks
                    ):
                        if self.checkpoint_path:
                            checkpoints_written += 1
                            write_checkpoint(
                                self.checkpoint_path,
                                self._meta(next_cursor, checkpoints_written),
                                aggregate,
                            )
                        return self._report(
                            aggregate,
                            registry,
                            recorder,
                            completed=False,
                            cursor=next_cursor,
                            pages=pages_done,
                            elapsed=time.perf_counter() - start,
                            checkpoints=checkpoints_written,
                            resumed_from=resumed_from,
                        )
                cursor = (job_index + 1, 0)
            completed = True
            if self.checkpoint_path:
                checkpoints_written += 1
                write_checkpoint(
                    self.checkpoint_path,
                    self._meta((len(jobs), 0), checkpoints_written),
                    aggregate,
                )
            return self._report(
                aggregate,
                registry,
                recorder,
                completed=True,
                cursor=(len(jobs), 0),
                pages=pages_done,
                elapsed=time.perf_counter() - start,
                checkpoints=checkpoints_written,
                resumed_from=resumed_from,
            )
        finally:
            if self._owns_executor:
                executor.close()

    def _report(
        self,
        aggregate: CampaignAggregate,
        registry: MetricsRegistry,
        recorder: TimeSeriesRecorder,
        *,
        completed: bool,
        cursor: tuple[int, int],
        pages: int,
        elapsed: float,
        checkpoints: int,
        resumed_from: tuple[int, int] | None,
    ) -> CampaignReport:
        return CampaignReport(
            spec=self.spec,
            ctx=self.ctx,
            aggregate=aggregate,
            digest=aggregate.digest(),
            completed=completed,
            cursor=cursor,
            pages=pages,
            elapsed=elapsed,
            checkpoints_written=checkpoints,
            resumed_from=resumed_from,
            registry=registry,
            recorder=recorder,
        )


def run_campaign(
    spec: CampaignSpec,
    ctx: ExecContext | None = None,
    *,
    executor: SimExecutor | None = None,
    checkpoint_path: str | None = None,
    checkpoint_interval: int = 8,
    resume: bool = False,
    stop_after_chunks: int | None = None,
    kill_after_checkpoints: int | None = None,
) -> CampaignReport:
    """One-call campaign entry point (what the CLI and tests use)."""
    runner = CampaignRunner(
        spec,
        ctx,
        executor=executor,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=checkpoint_interval,
    )
    return runner.run(
        resume=resume,
        stop_after_chunks=stop_after_chunks,
        kill_after_checkpoints=kill_after_checkpoints,
    )
