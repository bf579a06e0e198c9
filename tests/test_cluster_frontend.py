"""The asyncio front-end: wire protocol, QoS queueing, and read-your-writes
through the bulk queue (see ``repro/cluster/frontend.py``).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.cluster import (
    ClusterFrontend,
    ClusterService,
    LoopbackClient,
    TenantSpec,
    decode_payload,
    encode_payload,
    loopback_selftest,
)
from repro.cluster.qos import QoSClass
from repro.errors import ConfigurationError
from repro.pcm.lifetime import FixedLifetime
from repro.sim.roster import aegis_spec

BITS = 64


def make_cluster(**kwargs) -> ClusterService:
    kwargs.setdefault("lifetime_model", FixedLifetime(10**9))
    cluster = ClusterService(
        2,
        aegis_spec(5, 13, BITS),
        n_addresses=32,
        spares=2,
        buffer_capacity=4,
        seed=7,
        **kwargs,
    )
    cluster.register_tenant(TenantSpec("vip", QoSClass.INTERACTIVE, 1))
    cluster.register_tenant(TenantSpec("batch", QoSClass.BULK, 1))
    return cluster


def bits_of(fill: int) -> np.ndarray:
    bits = np.zeros(BITS, dtype=np.uint8)
    bits[: fill % (BITS + 1)] = 1
    return bits


async def with_frontend(test):
    """Run ``test(frontend, cluster)`` with a started frontend, always
    stopping it."""
    cluster = make_cluster()
    frontend = ClusterFrontend(cluster, maintenance_interval=0.01)
    await frontend.start()
    try:
        await test(frontend, cluster)
    finally:
        await frontend.stop()


class TestPayloadCodec:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, BITS, dtype=np.uint8)
        assert np.array_equal(decode_payload(encode_payload(bits), BITS), bits)

    def test_length_validated(self):
        with pytest.raises(ConfigurationError):
            decode_payload("ff", BITS)


class TestProtocol:
    def test_hello_write_read_stats_quit(self):
        async def scenario(frontend, cluster):
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            hello = await client.hello("vip")
            assert hello["ok"] and hello["qos"] == "interactive"
            assert hello["block_bits"] == BITS

            payload = bits_of(17)
            response = await client.write(3, payload)
            assert response["ok"] and response["status"] == "serviced"
            read = await client.read(3)
            assert read["ok"] and read["payload"] == encode_payload(payload)

            stats = await client.stats()
            assert stats["ok"]
            assert stats["tenants"]["vip"]["writes"] == 1
            assert len(stats["arrays"]) == 2

            bye = await client.quit()
            assert bye.get("bye")
            await client.close()

        asyncio.run(with_frontend(scenario))

    def test_commands_require_hello(self):
        async def scenario(frontend, cluster):
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            response = await client.write(0, bits_of(1))
            assert not response["ok"] and response["error"] == "no_tenant"
            await client.close()

        asyncio.run(with_frontend(scenario))

    def test_unknown_tenant_and_command_are_typed(self):
        async def scenario(frontend, cluster):
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            hello = await client.hello("ghost")
            assert not hello["ok"] and hello["error"] == "unknown_tenant"
            await client.hello("vip")
            response = await client.request(cmd="frobnicate")
            assert not response["ok"] and response["error"] == "unknown_cmd"
            await client.close()

        asyncio.run(with_frontend(scenario))

    def test_negative_read_address_is_rejected(self):
        async def scenario(frontend, cluster):
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            await client.hello("vip")
            response = await client.read(-1)
            assert response["ok"] is False and response["error"] == "rejected"
            assert (await client.read(0))["ok"]  # the session lives on
            await client.close()

        asyncio.run(with_frontend(scenario))


class TestMalformedLines:
    """Lines the protocol cannot use get a typed reply; the session lives on."""

    @staticmethod
    async def exchange(writer, reader, raw: bytes) -> dict:
        writer.write(raw)
        await writer.drain()
        return json.loads(await reader.readline())

    @pytest.mark.parametrize("raw", [b"[1, 2]\n", b"3\n", b'"hello"\n', b"null\n"])
    def test_non_object_json_is_a_bad_request(self, raw):
        async def scenario(frontend, cluster):
            reader, writer = await asyncio.open_connection(frontend.host, frontend.port)
            response = await self.exchange(writer, reader, raw)
            assert not response["ok"] and response["error"] == "bad_request"
            hello = await self.exchange(writer, reader, b'{"cmd": "hello", "tenant": "vip"}\n')
            assert hello["ok"]
            writer.close()
            await writer.wait_closed()

        asyncio.run(with_frontend(scenario))

    @pytest.mark.parametrize("size", [70_000, 300_000])
    def test_oversized_line_is_a_bad_request(self, size):
        """A line over the 64 KiB reader limit is discarded through its
        newline, whether it arrives whole or in pieces."""

        async def scenario(frontend, cluster):
            reader, writer = await asyncio.open_connection(frontend.host, frontend.port)
            oversized = b'{"cmd": "' + b"x" * size + b'"}\n'
            response = await self.exchange(writer, reader, oversized)
            assert not response["ok"] and response["error"] == "bad_request"
            stats = await self.exchange(writer, reader, b'{"cmd": "stats"}\n')
            assert stats["ok"]
            writer.close()
            await writer.wait_closed()

        asyncio.run(with_frontend(scenario))


class TestBulkQueueing:
    def test_queued_write_is_readable_before_it_drains(self):
        """A bulk write that lands in the queue must still satisfy
        read-your-writes (pending forwarding) and eventually be applied."""

        async def scenario(frontend, cluster):
            client = LoopbackClient(frontend.host, frontend.port)
            await client.connect()
            await client.hello("batch")
            queued = []
            written = {}
            for address in range(24):
                payload = bits_of(address + 1)
                response = await client.write(address, payload)
                assert response["ok"], response
                written[address] = payload
                if response["status"] == "queued":
                    queued.append(address)
                    # read-your-writes holds whether the drainer has
                    # already applied the queued write or not
                    read = await client.read(address)
                    assert read["ok"], read
                    assert read["payload"] == encode_payload(payload)
            assert queued, "the bulk watermark never queued anything"
            await frontend.join_queues()
            for address, payload in written.items():
                read = await client.read(address)
                assert read["ok"], read
                assert read["payload"] == encode_payload(payload)
            await client.close()

        asyncio.run(with_frontend(scenario))

    def test_loopback_selftest_is_clean(self):
        cluster = make_cluster()
        summary = asyncio.run(loopback_selftest(cluster, ops_per_tenant=12))
        assert summary["mismatches"] == 0
        assert summary["writes"] > 0
        assert summary["reads"] > 0
