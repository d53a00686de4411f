"""The shard cluster: protocol, dedup, routing, supervision, answers.

Process-spawning coverage lives in ``test_cluster_faults.py``; this
module keeps to the deterministic fast paths -- frame codec units, the
worker's command-index dedup cursor, inline-transport clusters (real
protocol, no processes), and the degraded-answer contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterProcessor,
    ShardCommandError,
    ShardFailedError,
)
from repro.cluster.errors import FrameCorruptionError
from repro.cluster.protocol import decode_frame, encode_frame
from repro.cluster.transport import InlineTransport, get_transport
from repro.cluster.worker import ShardServer, WorkerSpec
from repro.stream.processor import StreamProcessor

SEED = 20060627


def inline_config(**overrides) -> ClusterConfig:
    base = dict(
        command_timeout=0.02,
        retries=6,
        backoff_base=0.0005,
        heartbeat_interval=0.0,
        heartbeat_deadline=0.01,
        max_inflight=4,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def make_cluster(tmp_path, shards=3, transport=None, **overrides):
    return ClusterProcessor(
        str(tmp_path / "cluster"),
        shards=shards,
        medians=3,
        averages=16,
        seed=7,
        transport=transport or InlineTransport(),
        config=inline_config(**overrides),
    )


def reference(ops, domain_bits=10) -> StreamProcessor:
    processor = StreamProcessor(medians=3, averages=16, seed=7)
    processor.register_relation("r", domain_bits)
    for kind, payload in ops:
        if kind == "points":
            processor.process_points("r", payload)
        else:
            processor.process_intervals("r", payload)
    return processor


class TestFrameCodec:
    def test_round_trip(self):
        seq, message = decode_frame(
            encode_frame(42, {"kind": "health", "x": [1, 2]})
        )
        assert seq == 42
        assert message == {"kind": "health", "x": [1, 2]}

    def test_crc_detects_flips(self):
        frame = bytearray(encode_frame(7, {"kind": "health"}))
        frame[-1] ^= 0x40
        with pytest.raises(FrameCorruptionError):
            decode_frame(bytes(frame))

    def test_short_frame_rejected(self):
        with pytest.raises(FrameCorruptionError):
            decode_frame(b"\x01\x02\x03")

    def test_non_command_payload_rejected(self):
        import json
        import struct
        import zlib

        payload = json.dumps([1, 2, 3]).encode()
        crc = zlib.crc32((9).to_bytes(8, "little") + payload) & 0xFFFFFFFF
        frame = struct.pack("<IQ", crc, 9) + payload
        with pytest.raises(FrameCorruptionError):
            decode_frame(frame)


def _frame(seq: int, payload: bytes) -> bytes:
    """A frame with a valid CRC around an arbitrary payload."""
    import struct
    import zlib

    crc = zlib.crc32((seq).to_bytes(8, "little") + payload)
    return struct.pack("<IQ", crc, seq) + payload


def _envelope(header: dict, buffers: bytes = b"") -> bytes:
    """A hand-built envelope: magic byte, header length, JSON header, buffers."""
    import json
    import struct

    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return struct.pack("<BI", 0x82, len(text)) + text + buffers


class TestEnvelopeFrames:
    """The typed envelope inside a frame: arrays as bytes, every check kept."""

    def test_arrays_round_trip_read_only(self):
        message = {
            "kind": "points",
            "items": np.array([0, 7, 2**32 - 1], dtype="<u4"),
            "wide": np.array([[2**63 + 5, 1]], dtype=np.uint64),
            "signed": np.array([-3, 4], dtype=np.int64),
            "weights": np.array([0.1, -2.5, np.inf]),
            "nested": [{"grid": np.arange(6.0).reshape(2, 3)}],
            "empty": np.zeros((0, 2), dtype=np.uint64),
            "none": None,
        }
        seq, decoded = decode_frame(encode_frame(3, message))
        assert seq == 3
        assert set(decoded) == set(message)
        for key in ("items", "wide", "signed", "weights", "empty"):
            assert decoded[key].dtype == message[key].dtype, key
            assert decoded[key].shape == message[key].shape, key
            assert np.array_equal(decoded[key], message[key]), key
            assert not decoded[key].flags.writeable, key
        assert np.array_equal(decoded["nested"][0]["grid"], message["nested"][0]["grid"])
        assert decoded["none"] is None

    def test_big_endian_arrays_ship_little_endian(self):
        values = np.array([1.5, -2.0], dtype=">f8")
        _, decoded = decode_frame(encode_frame(1, {"kind": "x", "v": values}))
        assert decoded["v"].dtype.str == "<f8"
        assert decoded["v"].tolist() == [1.5, -2.0]

    def test_dtype_outside_the_whitelist_is_refused(self):
        for array in (np.arange(3, dtype=np.int32), np.ones(2, dtype=bool),
                      np.ones(2, dtype=np.float32)):
            with pytest.raises(TypeError, match="envelope arrays"):
                encode_frame(1, {"kind": "x", "a": array})
        header = {"kind": "x", "a": {"$array": 0, "dtype": "<i4", "shape": [2]}}
        with pytest.raises(FrameCorruptionError, match="dtype"):
            decode_frame(_frame(1, _envelope(header, b"\x00" * 8)))

    def test_torn_frame(self):
        frame = encode_frame(5, {"kind": "x", "a": np.arange(64, dtype=np.uint64)})
        for cut in (1, 8, len(frame) // 2):
            with pytest.raises(FrameCorruptionError):
                decode_frame(frame[:-cut])

    def test_flipped_byte_in_the_buffers(self):
        frame = bytearray(
            encode_frame(5, {"kind": "x", "a": np.arange(64, dtype=np.uint64)})
        )
        frame[-100] ^= 0x01
        with pytest.raises(FrameCorruptionError, match="crc"):
            decode_frame(bytes(frame))

    @pytest.mark.parametrize(
        "shape, buffer, match",
        [
            ([5], 4 * 8, "overruns"),
            ([2, 3], 5 * 8, "overruns"),
            ([3], 4 * 8, "trail"),
            ([-1], 8, "not a shape"),
            ([2.0], 16, "not a shape"),
        ],
        ids=["overrun", "overrun-2d", "trailing", "negative", "float-extent"],
    )
    def test_header_disagreeing_with_its_buffers(self, shape, buffer, match):
        header = {"kind": "x", "a": {"$array": 0, "dtype": "<u8", "shape": shape}}
        with pytest.raises(FrameCorruptionError, match=match):
            decode_frame(_frame(1, _envelope(header, b"\x00" * buffer)))

    def test_header_overrunning_the_payload(self):
        payload = bytearray(_envelope({"kind": "x"}))
        payload[1:5] = (len(payload) + 10).to_bytes(4, "little")
        with pytest.raises(FrameCorruptionError, match="overruns"):
            decode_frame(_frame(1, bytes(payload)))

    def test_array_references_out_of_order(self):
        header = {
            "kind": "x",
            "a": {"$array": 1, "dtype": "<u8", "shape": [1]},
            "b": {"$array": 0, "dtype": "<u8", "shape": [1]},
        }
        with pytest.raises(FrameCorruptionError, match="out of order"):
            decode_frame(_frame(1, _envelope(header, b"\x00" * 16)))

    def test_a_reference_with_other_keys_is_a_plain_dict(self):
        # A relation named "$array" in a health reply stays a name; the
        # buffer no reference claims is then trailing bytes.
        message = {"kind": "ok", "fingerprints": {"$array": "f00d", "r": "beef"}}
        _, decoded = decode_frame(encode_frame(1, message))
        assert decoded == message
        header = {"kind": "x", "a": {"$array": 0, "dtype": "<u8", "shape": [1], "x": 1}}
        with pytest.raises(FrameCorruptionError, match="trail"):
            decode_frame(_frame(1, _envelope(header, b"\x00" * 8)))

    def test_json_payload_is_not_an_envelope(self):
        import json

        payload = json.dumps({"kind": "health"}).encode()
        with pytest.raises(FrameCorruptionError, match="magic"):
            decode_frame(_frame(1, payload))


class TestFrameSize:
    """Counters and point batches ship as bytes, not JSON lists."""

    @staticmethod
    def _capture(tmp_path, averages, run):
        requests: list[bytes] = []
        replies: list[bytes] = []

        def keep(into):
            def intercept(frame):
                into.append(frame)
                return [frame]

            return intercept

        cluster = ClusterProcessor(
            str(tmp_path / "cluster"), shards=2, medians=7, averages=averages,
            seed=7,
            transport=InlineTransport(keep(requests), keep(replies)),
            config=inline_config(),
        )
        with cluster:
            run(cluster)
        return [decode_frame(f)[1] | {"_bytes": len(f)} for f in requests], [
            decode_frame(f)[1] | {"_bytes": len(f)} for f in replies
        ]

    def test_shipped_7x100_grid(self, tmp_path):
        rng = np.random.default_rng(1)

        def run(cluster):
            cluster.register_relation("r", 20)
            cluster.ingest_points("r", rng.integers(0, 1 << 20, 500), rng.random(500))
            cluster.merged_sketch("r")

        _, replies = self._capture(tmp_path, 100, run)
        shipped = [reply for reply in replies if "sketch" in reply]
        assert len(shipped) == 2
        for reply in shipped:
            assert reply["sketch"]["values"].shape == (7, 100)
            assert reply["_bytes"] <= 8 * 700 + 512

    def test_1024_point_20_bit_ingest_command(self, tmp_path):
        items = np.arange(1024) * 512  # all on shard 0 of 2

        def run(cluster):
            cluster.register_relation("r", 20)
            cluster.ingest_points("r", items)
            cluster.flush()

        requests, _ = self._capture(tmp_path, 4, run)
        [command] = [r for r in requests if r["kind"] == "points"]
        assert command["items"].dtype.str == "<u4"
        assert command["items"].size == 1024
        assert command["_bytes"] <= 4 * 1024 + 512


def _split_by_loop(bounds, weights, width):
    """The per-interval loop the vectorized split replaced, kept as reference."""
    per_shard = {}
    for position, (low, high) in enumerate(bounds.tolist()):
        scale = 1.0 if weights is None else float(weights[position])
        for sid in range(low // width, high // width + 1):
            pieces, scales = per_shard.setdefault(sid, ([], []))
            pieces.append([max(low, sid * width), min(high, (sid + 1) * width - 1)])
            scales.append(scale)
    return [(sid, *per_shard[sid]) for sid in sorted(per_shard)]


class _TappingTransport(InlineTransport):
    """Inline shards that record every command frame with its shard id."""

    def __init__(self):
        super().__init__()
        self.commands = []

    def spawn(self, spec):
        link = super().spawn(spec)

        def tap(frame, sid=spec.shard_id):
            self.commands.append((sid, decode_frame(frame)[1]))
            return [frame]

        link.request_interceptor = tap
        return link


class TestIntervalSplit:
    """The vectorized clip posts the loop's pieces, in the loop's order."""

    @staticmethod
    def _posted(tmp_path, bits, shards, batches):
        transport = _TappingTransport()
        with ClusterProcessor(
            str(tmp_path / "cluster"), shards=shards, medians=1, averages=2,
            seed=7, transport=transport, config=inline_config(max_inflight=64),
        ) as cluster:
            cluster.register_relation("r", bits)
            posted = []
            for bounds, weights in batches:
                del transport.commands[:]
                cluster.ingest_intervals("r", bounds, weights)
                posted.append([
                    (
                        sid,
                        message["intervals"].tolist(),
                        [1.0] * len(message["intervals"])
                        if message["weights"] is None
                        else message["weights"].tolist(),
                    )
                    for sid, message in transport.commands
                    if message["kind"] == "intervals"
                ])
        return posted

    @pytest.mark.parametrize("bits, shards", [(10, 3), (20, 4), (33, 5), (62, 7), (63, 2)])
    def test_matches_the_loop_on_random_batches(self, tmp_path, bits, shards):
        rng = np.random.default_rng(bits * 100 + shards)
        domain = 1 << bits
        width = -(-domain // shards)
        batches = []
        for trial in range(12):
            count = int(rng.integers(3, 40))
            ends = rng.integers(0, domain, size=(count, 2), dtype=np.uint64)
            bounds = np.sort(ends, axis=1)
            # Intervals spanning every shard, across one edge, and points.
            bounds[0] = [0, domain - 1]
            bounds[1] = [width - 1, width]
            bounds[2] = [5, 5]
            weights = None if trial % 2 else rng.normal(size=count)
            batches.append((bounds, weights))
        assert self._posted(tmp_path, bits, shards, batches) == [
            _split_by_loop(b, w, width) for b, w in batches
        ]

    def test_one_shard_over_a_64_bit_domain(self, tmp_path):
        bounds = np.array([[0, 2**64 - 1], [5, 9]], dtype=np.uint64)
        assert self._posted(tmp_path, 64, 1, [(bounds, None)]) == [
            _split_by_loop(bounds, None, 1 << 64)
        ]

    def test_empty_batch(self):
        from repro.cluster.coordinator import split_intervals

        shards, pieces, owners = split_intervals(np.zeros((0, 2), dtype=np.uint64), 8)
        assert shards.size == pieces.shape[0] == owners.size == 0


class TestShardServerDedup:
    """The worker's WAL-backed exactly-once command cursor."""

    @pytest.fixture
    def server(self, tmp_path):
        return ShardServer(
            WorkerSpec(
                shard_id=0,
                directory=str(tmp_path / "shard"),
                medians=3,
                averages=16,
                seed=7,
            )
        )

    def test_mutations_advance_the_cursor(self, server):
        reply = server.handle(
            {"kind": "register", "index": 1, "name": "r", "domain_bits": 10}
        )
        assert reply["kind"] == "ok" and reply["applied_index"] == 1
        reply = server.handle(
            {
                "kind": "points",
                "index": 2,
                "relation": "r",
                "items": [1, 2, 3],
                "weights": None,
            }
        )
        assert reply["kind"] == "ok"
        assert server.applied_index == 2

    def test_duplicate_acked_without_reapplying(self, server):
        server.handle(
            {"kind": "register", "index": 1, "name": "r", "domain_bits": 10}
        )
        command = {
            "kind": "points",
            "index": 2,
            "relation": "r",
            "items": [5],
            "weights": None,
        }
        server.handle(command)
        before = server.processor.sketch_of("r").values().copy()
        reply = server.handle(command)  # the retry of an applied command
        assert reply["kind"] == "dup"
        assert np.array_equal(server.processor.sketch_of("r").values(), before)

    def test_gap_rejected_with_expected_index(self, server):
        server.handle(
            {"kind": "register", "index": 1, "name": "r", "domain_bits": 10}
        )
        reply = server.handle(
            {
                "kind": "points",
                "index": 5,
                "relation": "r",
                "items": [1],
                "weights": None,
            }
        )
        assert reply["kind"] == "gap" and reply["expected_index"] == 2
        assert server.applied_index == 1

    def test_restart_recovers_the_cursor(self, server, tmp_path):
        server.handle(
            {"kind": "register", "index": 1, "name": "r", "domain_bits": 10}
        )
        server.handle(
            {
                "kind": "points",
                "index": 2,
                "relation": "r",
                "items": [3, 4],
                "weights": None,
            }
        )
        server.close()
        reborn = ShardServer(server.spec)  # same directory -> recovery
        assert reborn.applied_index == 2
        reply = reborn.handle(
            {
                "kind": "points",
                "index": 2,
                "relation": "r",
                "items": [3, 4],
                "weights": None,
            }
        )
        assert reply["kind"] == "dup"

    def test_error_reply_for_bad_command(self, server):
        reply = server.handle(
            {
                "kind": "points",
                "index": 1,
                "relation": "missing",
                "items": [1],
                "weights": None,
            }
        )
        assert reply["kind"] == "error"
        assert "missing" in reply["message"]


class TestClusterIngestAndMerge:
    def test_merged_sketch_matches_single_process(self, tmp_path, rng):
        ops = [
            ("points", [int(i) for i in rng.integers(0, 1 << 10, size=200)]),
            ("intervals", [[10, 900], [0, 1023], [512, 513]]),
            ("points", [int(i) for i in rng.integers(0, 1 << 10, size=100)]),
        ]
        with make_cluster(tmp_path) as cluster:
            cluster.register_relation("r", 10)
            handle = cluster.register_self_join("r")
            for kind, payload in ops:
                if kind == "points":
                    cluster.ingest_points("r", payload)
                else:
                    cluster.ingest_intervals("r", payload)
            cluster.flush()
            merged = cluster.merged_sketch("r").values()
            answer = cluster.answer(handle)
        ref = reference(ops)
        assert np.array_equal(merged, ref.sketch_of("r").values())
        want = ref.answer(ref.register_self_join("r"))
        assert answer.value == want
        assert answer.coverage == 1.0 and not answer.degraded
        assert answer.error_width_factor == 1.0

    def test_weighted_points_route_with_their_weights(self, tmp_path):
        with make_cluster(tmp_path, shards=2) as cluster:
            cluster.register_relation("r", 10)
            cluster.ingest_points("r", [1, 1000, 2, 999], [2.0, 3.0, 4.0, 5.0])
            cluster.flush()
            merged = cluster.merged_sketch("r").values()
        ref = StreamProcessor(medians=3, averages=16, seed=7)
        ref.register_relation("r", 10)
        ref.process_points("r", [1, 1000, 2, 999], [2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(merged, ref.sketch_of("r").values())

    def test_interval_split_at_shard_boundaries_is_exact(self, tmp_path):
        with make_cluster(tmp_path, shards=4) as cluster:
            cluster.register_relation("r", 10)
            ranges = cluster.shard_ranges("r")
            assert [low for low, _ in ranges] == [0, 256, 512, 768]
            cluster.ingest_intervals("r", [[0, 1023], [250, 260]], [1.0, 3.0])
            cluster.flush()
            merged = cluster.merged_sketch("r").values()
        ref = StreamProcessor(medians=3, averages=16, seed=7)
        ref.register_relation("r", 10)
        ref.process_intervals("r", [[0, 1023], [250, 260]], [1.0, 3.0])
        assert np.array_equal(merged, ref.sketch_of("r").values())

    def test_shard_of_partitions_the_domain(self, tmp_path):
        with make_cluster(tmp_path, shards=4) as cluster:
            cluster.register_relation("r", 10)
            assert cluster.shard_of("r", 0) == 0
            assert cluster.shard_of("r", 255) == 0
            assert cluster.shard_of("r", 256) == 1
            assert cluster.shard_of("r", 1023) == 3

    def test_coordinator_screens_before_sharding(self, tmp_path):
        with make_cluster(tmp_path, policy="quarantine") as cluster:
            cluster.register_relation("r", 10)
            cluster.ingest_points("r", [5, -3, 1 << 30, 9])
            cluster.flush()
            stats = cluster.stats()
            assert stats["quarantined_total"] == 2
            assert stats["quarantine_counts"]["negative-item"] == 1
            merged = cluster.merged_sketch("r").values()
        ref = StreamProcessor(medians=3, averages=16, seed=7)
        ref.register_relation("r", 10)
        ref.process_points("r", [5, 9])
        assert np.array_equal(merged, ref.sketch_of("r").values())

    def test_unknown_relation_raises(self, tmp_path):
        from repro.stream.errors import UnknownRelationError

        with make_cluster(tmp_path) as cluster:
            with pytest.raises(UnknownRelationError):
                cluster.ingest_points("ghost", [1])


class TestSupervisionInline:
    def test_dead_shard_restarts_and_replays(self, tmp_path, rng):
        items = [int(i) for i in rng.integers(0, 1 << 10, size=150)]
        with make_cluster(tmp_path) as cluster:
            cluster.register_relation("r", 10)
            cluster.ingest_points("r", items[:100])
            cluster.flush()
            cluster._shards[1].link.kill()
            cluster.supervise()  # restart + WAL recovery + fingerprints
            cluster.ingest_points("r", items[100:])
            cluster.flush()
            assert cluster.stats()["shards"]["shard-1"]["restarts"] == 1
            assert any(
                incident.operation == "shard-restart"
                for incident in cluster.incidents
            )
            merged = cluster.merged_sketch("r").values()
        ref = StreamProcessor(medians=3, averages=16, seed=7)
        ref.register_relation("r", 10)
        ref.process_points("r", items)
        assert np.array_equal(merged, ref.sketch_of("r").values())

    def test_failed_shard_rejects_ingest_loudly(self, tmp_path):
        class DeadRespawns:
            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name
                self.dead = False

            def spawn(self, spec):
                link = self.inner.spawn(spec)
                if self.dead and spec.shard_id == 0:
                    link.kill()
                return link

        transport = DeadRespawns(InlineTransport())
        with make_cluster(
            tmp_path, transport=transport, restart_limit=2
        ) as cluster:
            cluster.register_relation("r", 10)
            cluster.ingest_points("r", list(range(64)))
            cluster.flush()
            transport.dead = True
            cluster._shards[0].link.kill()
            cluster.supervise()
            stats = cluster.stats()["shards"]["shard-0"]
            assert stats["failed"]
            # Keys 0..255 belong to the failed shard 0 of 4... here 3
            # shards, width 342: key 1 is shard 0's.
            with pytest.raises(ShardFailedError):
                cluster.ingest_points("r", [1])
            assert any(
                incident.operation == "shard-failed"
                for incident in cluster.incidents
            )

    def test_degraded_answer_reports_coverage_and_staleness(self, tmp_path):
        class DeadRespawns:
            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name
                self.dead = False

            def spawn(self, spec):
                link = self.inner.spawn(spec)
                if self.dead and spec.shard_id == 0:
                    link.kill()
                return link

        transport = DeadRespawns(InlineTransport())
        with make_cluster(
            tmp_path, transport=transport, restart_limit=2
        ) as cluster:
            cluster.register_relation("r", 10)
            handle = cluster.register_self_join("r")
            cluster.ingest_points("r", list(range(0, 1024, 3)))
            cluster.flush()
            healthy = cluster.answer(handle)
            transport.dead = True
            cluster._shards[0].link.kill()
            cluster.supervise()
            degraded = cluster.answer(handle)
            assert degraded.degraded
            assert degraded.stale_shards == 1
            assert degraded.live_shards == 2
            assert 0 < degraded.coverage < 1
            assert degraded.error_width_factor == pytest.approx(
                1.0 / degraded.coverage
            )
            # The failed shard's cache was complete, so the value is
            # stale-but-whole.
            assert degraded.value == healthy.value
            assert degraded.max_staleness_ops == 0
            assert float(degraded) == degraded.value
            assert any(
                incident.operation == "degraded-answer"
                for incident in cluster.incidents
            )
            metrics = cluster.stats()["metrics"]
            assert metrics["cluster.answer.degraded_total"]["value"] >= 1
            assert metrics["cluster.answer.coverage"]["value"] < 1

    def test_checkpoint_snapshots_every_shard(self, tmp_path):
        import os

        with make_cluster(tmp_path, shards=2) as cluster:
            cluster.register_relation("r", 10)
            cluster.ingest_points("r", list(range(100)))
            cluster.checkpoint()
            for shard in cluster._shards:
                snaps = [
                    name
                    for name in os.listdir(shard.spec.directory)
                    if name.startswith("snap-")
                ]
                assert snaps


class TestConfigAndWiring:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ClusterConfig(policy="shrug")

    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            get_transport("carrier-pigeon")

    def test_zero_shards_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            ClusterProcessor(str(tmp_path / "c"), shards=0)

    def test_join_needs_matching_domains(self, tmp_path):
        with make_cluster(tmp_path) as cluster:
            cluster.register_relation("a", 10)
            cluster.register_relation("b", 8)
            with pytest.raises(ValueError, match="domain"):
                cluster.register_join("a", "b")

    def test_command_error_is_not_retried_blindly(self, tmp_path):
        with make_cluster(tmp_path) as cluster:
            shard = cluster._shards[0]
            with pytest.raises(ShardCommandError):
                cluster._request(shard, {"kind": "no-such-kind"})

    def test_seeded_rng_makes_backoff_deterministic(self, tmp_path):
        # Sample the jitter stream directly: same injected seed, same
        # backoff schedule on replay.
        a = ClusterProcessor(
            str(tmp_path / "a"),
            shards=1,
            medians=3,
            averages=16,
            seed=7,
            transport=InlineTransport(),
            config=inline_config(),
            rng=np.random.default_rng(123),
        )
        b = ClusterProcessor(
            str(tmp_path / "b"),
            shards=1,
            medians=3,
            averages=16,
            seed=7,
            transport=InlineTransport(),
            config=inline_config(),
            rng=np.random.default_rng(123),
        )
        try:
            assert [a._rng.random() for _ in range(5)] == [
                b._rng.random() for _ in range(5)
            ]
        finally:
            a.close()
            b.close()


class TestDeadLetterEvictions:
    """Satellite: quarantine overflow is counted, never silent."""

    def test_evictions_counted_on_buffer_and_metric(self):
        from repro import obs
        from repro.stream.validation import DeadLetterBuffer, QuarantinedRecord

        before = (
            obs.snapshot()
            .get("stream.quarantine.dropped_total", {})
            .get("value", 0.0)
        )
        buffer = DeadLetterBuffer(capacity=3)
        for position in range(5):
            buffer.add(
                QuarantinedRecord("r", "point", (position, 1.0), "code", "why")
            )
        assert buffer.total == 5
        assert buffer.dropped == 2
        assert len(buffer) == 3
        after = (
            obs.snapshot()["stream.quarantine.dropped_total"]["value"]
        )
        assert after - before == 2

    def test_drop_count_surfaces_in_processor_stats(self):
        processor = StreamProcessor(
            medians=3,
            averages=8,
            seed=1,
            policy="quarantine",
            quarantine_capacity=2,
        )
        processor.register_relation("r", 8)
        for _ in range(4):
            processor.process_point("r", -1)
        stats = processor.stats()
        assert stats["quarantined_total"] == 4
        assert stats["quarantine_counts"]["dropped"] == 2
        assert stats["quarantine_counts"]["negative-item"] == 4
