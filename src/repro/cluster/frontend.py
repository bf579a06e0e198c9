"""The asyncio front-end: ``repro serve`` and its loopback client.

:class:`ClusterFrontend` multiplexes per-tenant sessions over one
:class:`~repro.cluster.service.ClusterService` behind a JSON-lines TCP
protocol (one request object per line, one response object per line):

``{"cmd": "hello", "tenant": "tenant0"}``
    Bind the session to a registered tenant (its QoS class is echoed).
``{"cmd": "write", "address": 3, "payload": "<hex>"}``
    Payload is the block's bits packed MSB-first (``np.packbits``) and
    hex-encoded.  Interactive writes are serviced inline.  Bulk writes
    that hit the admission watermark are *queued* on a bounded per-array
    ``asyncio.Queue`` (``{"status": "queued"}``) and applied by that
    array's drainer task; when the queue itself is full the client gets
    ``{"ok": false, "error": "backpressure", "retry_after": N}`` and must
    back off — the two-level backpressure the cluster design calls for.
``{"cmd": "read", "address": 3}``
    Read-your-writes: queued-but-unapplied bulk writes are forwarded from
    the pending table, then the cluster (whose write buffers forward
    their own pending entries).
``{"cmd": "stats"}``
    Per-tenant and per-array snapshot sections, the cluster op clock,
    and — when the cluster records time series — the series geometry
    plus a compact per-SLO budget summary.
``{"cmd": "watch", "count": N}``
    Stream ``N`` time-series bucket frames, one JSON line each (the only
    multi-line response in the protocol).  The first frame is the newest
    bucket as of the request; each further frame waits for the
    maintenance loop's next sample (an idle cluster re-samples the same
    bucket, so consecutive frames may repeat it).  Frames carry the bucket
    index, its end clock, and the bucket's non-zero counter deltas and
    gauges.  Requires the cluster to have been built with
    ``series_bucket >= 1`` (``{"error": "no_series"}`` otherwise).
``{"cmd": "quit"}``
    End the session.

A line that is not valid JSON gets ``{"ok": false, "error": "bad_json"}``;
one that is valid JSON but not an object, or longer than the stream
reader's limit (64 KiB by default), gets ``{"ok": false, "error":
"bad_request"}``.  Either way the session stays open.

The service core is synchronous and not thread-safe, so every touch of it
happens on the event loop under one :class:`asyncio.Lock`; concurrency
lives in the sessions, the per-array drainers, and the maintenance loop
(which periodically runs the control plane: watermark flushes, spare
rebalancing, migration off draining arrays).
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import numpy as np

from repro.cluster.service import ClusterService
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ReproError,
    RetiredBlockError,
)

#: queued bulk writes per array before clients see hard backpressure
DEFAULT_BULK_QUEUE_DEPTH = 64

#: seconds between control-plane maintenance passes
DEFAULT_MAINTENANCE_INTERVAL = 0.05


def encode_payload(bits: np.ndarray) -> str:
    """Hex wire form of a block payload (bits packed MSB-first)."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def decode_payload(text: str, block_bits: int) -> np.ndarray:
    """Inverse of :func:`encode_payload`; validates the bit length."""
    try:
        raw = bytes.fromhex(text)
    except ValueError as error:
        raise ConfigurationError(f"payload is not valid hex: {error}") from error
    if len(raw) * 8 < block_bits or len(raw) != (block_bits + 7) // 8:
        raise ConfigurationError(
            f"payload encodes {len(raw) * 8} bits; expected {block_bits}"
        )
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:block_bits]


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next protocol line: ``b""`` at end of stream, ``None`` for a
    line over the reader's buffer limit.  An oversized line is discarded
    through its newline so the session can go on."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        return error.partial  # a last line without newline, or b"" at EOF
    except asyncio.LimitOverrunError as error:
        overrun = error.consumed
    while True:
        await reader.readexactly(overrun)  # buffered bytes before any newline
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as error:
            overrun = error.consumed


def _parse_request(line: bytes | None) -> tuple[dict | None, dict | None]:
    """Decode one protocol line into ``(request, None)``, or ``(None,
    error response)`` when the line is not a JSON object."""
    if line is None:
        return None, {"ok": False, "error": "bad_request", "detail": "line too long"}
    try:
        request = json.loads(line)
    except json.JSONDecodeError as error:
        return None, {"ok": False, "error": "bad_json", "detail": str(error)}
    if not isinstance(request, dict):
        detail = f"request must be a JSON object, got {type(request).__name__}"
        return None, {"ok": False, "error": "bad_request", "detail": detail}
    return request, None


class ClusterFrontend:
    """Serve one cluster over TCP (see module docstring for the protocol).

    Parameters
    ----------
    cluster:
        The service core; tenants must already be registered.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    bulk_queue_depth:
        Bound of each array's queued-bulk-write queue.
    maintenance_interval:
        Seconds between control-plane passes.
    """

    def __init__(
        self,
        cluster: ClusterService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        bulk_queue_depth: int = DEFAULT_BULK_QUEUE_DEPTH,
        maintenance_interval: float = DEFAULT_MAINTENANCE_INTERVAL,
    ) -> None:
        if bulk_queue_depth < 1:
            raise ConfigurationError("bulk queue depth must be positive")
        if maintenance_interval <= 0:
            raise ConfigurationError("maintenance interval must be positive")
        self.cluster = cluster
        self.host = host
        self._requested_port = port
        self.bulk_queue_depth = bulk_queue_depth
        self.maintenance_interval = maintenance_interval
        self._lock = asyncio.Lock()
        #: watch sessions block on this until maintenance samples a bucket
        self._watch_cond = asyncio.Condition()
        self._sample_count = 0
        self._queues: dict[str, asyncio.Queue] = {}
        #: queued-but-unapplied bulk payloads, for read-your-writes
        self._pending: dict[tuple[str, int], np.ndarray] = {}
        self._tasks: list[asyncio.Task] = []
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the server and launch the drainer/maintenance tasks."""
        for node in self.cluster.nodes:
            queue: asyncio.Queue = asyncio.Queue(maxsize=self.bulk_queue_depth)
            self._queues[node.name] = queue
            self._tasks.append(
                asyncio.create_task(
                    self._drain_queue(node.name, queue),
                    name=f"drain-{node.name}",
                )
            )
        self._tasks.append(
            asyncio.create_task(self._maintenance_loop(), name="maintenance")
        )
        self._server = await asyncio.start_server(
            self._handle_session, self.host, self._requested_port
        )

    async def stop(self) -> None:
        """Cancel background tasks and close the server."""
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def join_queues(self) -> None:
        """Wait until every queued bulk write has been applied."""
        for queue in self._queues.values():
            await queue.join()

    # -- background tasks ---------------------------------------------------

    async def _drain_queue(self, name: str, queue: asyncio.Queue) -> None:
        """Apply queued bulk writes for one array.  Admission was paid at
        enqueue time (the bounded queue), so the drainer flushes the
        watermarked buffer itself and writes with admission disabled."""
        node = self.cluster.node_named(name)
        while True:
            tenant_id, address, payload = await queue.get()
            try:
                async with self._lock:
                    if node.occupancy >= self.cluster.bulk_watermark:
                        node.controller.flush()
                    try:
                        self.cluster.write(tenant_id, address, payload, admit=False)
                    finally:
                        key = (tenant_id, address)
                        if self._pending.get(key) is payload:
                            del self._pending[key]
            except ReproError:
                # a lost write surfaces through telemetry (writes_lost);
                # the drainer must keep draining for every other key
                pass
            finally:
                queue.task_done()

    async def _maintenance_loop(self) -> None:
        while True:
            await asyncio.sleep(self.maintenance_interval)
            async with self._lock:
                self.cluster.maintenance()
                recorder = self.cluster.telemetry.timeseries
                samples = recorder.samples if recorder is not None else 0
            if samples != self._sample_count:
                async with self._watch_cond:
                    self._sample_count = samples
                    self._watch_cond.notify_all()

    # -- protocol -----------------------------------------------------------

    async def _handle_session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tenant_id: str | None = None
        try:
            while True:
                line = await _read_line(reader)
                if line == b"":
                    break
                request, response = _parse_request(line)
                if request is not None:
                    if request.get("cmd") == "watch":
                        # the one streaming command: multiple lines out
                        await self._handle_watch(request, writer)
                        continue
                    response, tenant_id = await self._dispatch(request, tenant_id)
                writer.write((json.dumps(response, sort_keys=True) + "\n").encode())
                await writer.drain()
                if response.get("bye"):
                    break
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(
        self, request: dict, tenant_id: str | None
    ) -> tuple[dict, str | None]:
        cmd = request.get("cmd")
        if cmd == "hello":
            requested = request.get("tenant", "")
            try:
                spec = self.cluster.tenant(requested)
            except ConfigurationError as error:
                return {"ok": False, "error": "unknown_tenant", "detail": str(error)}, tenant_id
            return (
                {
                    "ok": True,
                    "tenant": spec.tenant_id,
                    "qos": spec.qos.value,
                    "block_bits": self.cluster.block_bits,
                },
                spec.tenant_id,
            )
        if cmd == "quit":
            return {"ok": True, "bye": True}, tenant_id
        if cmd == "stats":
            async with self._lock:
                response = {
                    "ok": True,
                    "tenants": self.cluster.tenant_summary(),
                    "arrays": self.cluster.array_summary(),
                    "keys": self.cluster.key_count,
                    "clock": self.cluster.clock,
                }
                recorder = self.cluster.telemetry.timeseries
                if recorder is not None:
                    response["series"] = {
                        "bucket_width": recorder.bucket_width,
                        "buckets": recorder.bucket_count,
                        "start_bucket": recorder.start_bucket,
                        "samples": recorder.samples,
                        "buckets_dropped": recorder.dropped,
                    }
                summary = self.cluster.slo_summary()
                if summary is not None:
                    response["slo"] = {
                        name: {
                            "budget_left_fraction": entry["budget_left_fraction"],
                            "violating_buckets": entry["violating_buckets"],
                            "alerts": len(entry["alerts"]),
                            "action": entry["action"],
                        }
                        for name, entry in summary["slos"].items()
                    }
                return response, tenant_id
        session_tenant = request.get("tenant", tenant_id)
        if session_tenant is None:
            return {"ok": False, "error": "no_tenant", "detail": "send hello first"}, tenant_id
        if cmd == "write":
            return await self._handle_write(request, session_tenant), tenant_id
        if cmd == "read":
            return await self._handle_read(request, session_tenant), tenant_id
        return {"ok": False, "error": "unknown_cmd", "detail": repr(cmd)}, tenant_id

    async def _handle_watch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        """Stream ``count`` bucket frames (see module docstring).

        The first frame reflects the newest bucket immediately; every
        further frame waits on the maintenance loop's sample signal, so
        a watcher observes samples in order without polling.
        """

        async def send(payload: dict) -> None:
            writer.write((json.dumps(payload, sort_keys=True) + "\n").encode())
            await writer.drain()

        recorder = self.cluster.telemetry.timeseries
        if recorder is None:
            await send(
                {
                    "ok": False,
                    "error": "no_series",
                    "detail": "cluster records no time series (series_bucket=0)",
                }
            )
            return
        try:
            count = int(request.get("count", 1))
        except (TypeError, ValueError):
            count = 0
        if count < 1:
            await send(
                {"ok": False, "error": "bad_request", "detail": "count must be >= 1"}
            )
            return
        seen: int | None = None
        for index in range(count):
            async with self._watch_cond:
                await self._watch_cond.wait_for(
                    lambda: self._sample_count != seen
                )
                seen = self._sample_count
            async with self._lock:
                frame = recorder.last_bucket_snapshot()
            frame.update(ok=True, remaining=count - index - 1)
            await send(frame)

    async def _handle_write(self, request: dict, tenant_id: str) -> dict:
        try:
            address = int(request["address"])
            payload = decode_payload(
                str(request.get("payload", "")), self.cluster.block_bits
            )
        except (KeyError, TypeError, ValueError, ConfigurationError) as error:
            return {"ok": False, "error": "bad_request", "detail": str(error)}
        async with self._lock:
            try:
                self.cluster.write(tenant_id, address, payload)
                return {"ok": True, "status": "serviced"}
            except BackpressureError as error:
                saturated = error.array
                retry_after = error.retry_after
            except ReproError as error:
                return {"ok": False, "error": "rejected", "detail": str(error)}
        queue = self._queues[saturated]
        if queue.full():
            return {
                "ok": False,
                "error": "backpressure",
                "array": saturated,
                "retry_after": retry_after,
            }
        self._pending[(tenant_id, address)] = payload
        queue.put_nowait((tenant_id, address, payload))
        return {"ok": True, "status": "queued", "array": saturated}

    async def _handle_read(self, request: dict, tenant_id: str) -> dict:
        try:
            address = int(request["address"])
        except (KeyError, TypeError, ValueError) as error:
            return {"ok": False, "error": "bad_request", "detail": str(error)}
        forwarded = self._pending.get((tenant_id, address))
        if forwarded is not None:
            return {"ok": True, "payload": encode_payload(forwarded), "source": "queued"}
        async with self._lock:
            try:
                bits = self.cluster.read(tenant_id, address)
            except RetiredBlockError as error:
                return {
                    "ok": False,
                    "error": "retired",
                    "address": error.address,
                    "array": error.array,
                    "scheme": error.scheme,
                }
            except ReproError as error:
                return {"ok": False, "error": "rejected", "detail": str(error)}
        return {"ok": True, "payload": encode_payload(bits), "source": "cluster"}


class LoopbackClient:
    """A minimal asyncio client for the JSON-lines protocol (tests, the
    ``--selftest`` path, and a template for external clients)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            with contextlib.suppress(Exception):
                await self._writer.wait_closed()
            self._reader = self._writer = None

    async def request(self, **fields: object) -> dict:
        assert self._reader is not None and self._writer is not None
        self._writer.write((json.dumps(fields) + "\n").encode())
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the session")
        return json.loads(line)

    async def hello(self, tenant: str) -> dict:
        return await self.request(cmd="hello", tenant=tenant)

    async def write(self, address: int, bits: np.ndarray) -> dict:
        return await self.request(
            cmd="write", address=address, payload=encode_payload(bits)
        )

    async def read(self, address: int) -> dict:
        return await self.request(cmd="read", address=address)

    async def stats(self) -> dict:
        return await self.request(cmd="stats")

    async def watch(self, count: int = 1) -> list[dict]:
        """Collect ``count`` streamed bucket frames (or the error frame)."""
        assert self._reader is not None and self._writer is not None
        self._writer.write(
            (json.dumps({"cmd": "watch", "count": count}) + "\n").encode()
        )
        await self._writer.drain()
        frames: list[dict] = []
        for _ in range(count):
            line = await self._reader.readline()
            if not line:
                raise ConnectionError("server closed the session")
            frame = json.loads(line)
            frames.append(frame)
            if not frame.get("ok"):
                break
        return frames

    async def quit(self) -> dict:
        return await self.request(cmd="quit")


async def loopback_selftest(
    cluster: ClusterService, *, ops_per_tenant: int = 8, seed: int = 2013
) -> dict:
    """Start a frontend on a free port, drive every registered tenant over
    a loopback session, verify read-your-writes, and return a summary.

    This is what ``repro serve --selftest`` runs: an end-to-end exercise
    of the wire protocol, the admission path, and the drainers without
    needing an external client.
    """
    from repro.sim.rng import rng_for

    frontend = ClusterFrontend(cluster, maintenance_interval=0.01)
    await frontend.start()
    summary = {"writes": 0, "queued": 0, "backpressured": 0, "reads": 0, "mismatches": 0}
    try:
        for index, spec in enumerate(cluster.tenants):
            rng = rng_for(seed, index, 53)
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            hello = await client.hello(spec.tenant_id)
            assert hello["ok"], hello
            written: dict[int, np.ndarray] = {}
            for _ in range(ops_per_tenant):
                address = int(rng.integers(0, 16))
                bits = rng.integers(0, 2, cluster.block_bits, dtype=np.uint8)
                response = await client.write(address, bits)
                if response.get("ok"):
                    summary["writes"] += 1
                    if response.get("status") == "queued":
                        summary["queued"] += 1
                    written[address] = bits
                else:
                    summary["backpressured"] += 1
            for address, bits in sorted(written.items()):
                response = await client.read(address)
                summary["reads"] += 1
                if not response.get("ok") or response.get("payload") != encode_payload(bits):
                    summary["mismatches"] += 1
            await client.quit()
            await client.close()
        await frontend.join_queues()
    finally:
        await frontend.stop()
    return summary
