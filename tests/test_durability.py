"""Unit tests for the WAL, snapshots, and processor checkpoint/recover."""

from __future__ import annotations

import json
import os
import zlib

import numpy as np
import pytest

from repro.stream import (
    DurabilityConfig,
    DurabilityError,
    RecoveryError,
    SnapshotCorruptionError,
    StreamProcessor,
    WALCorruptionError,
    WriteAheadLog,
)
from repro.stream.durability import (
    decode_wal_payload,
    encode_envelope,
    encode_record,
    list_snapshots,
    load_latest_snapshot,
    write_snapshot,
)
from repro.generators.seeds import SeedSource

from .faults import corrupt_byte, truncate_tail, wal_segments


def _config(tmp_path, **kwargs):
    return DurabilityConfig(directory=str(tmp_path / "wal"), **kwargs)


def _log(tmp_path, **kwargs):
    config = _config(tmp_path, **kwargs)
    return WriteAheadLog(config.directory, config)


class TestConfig:
    def test_bad_sync_mode(self, tmp_path):
        with pytest.raises(ValueError, match="sync mode"):
            _config(tmp_path, sync="sometimes")

    def test_tiny_segments_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="segment_max_bytes"):
            _config(tmp_path, segment_max_bytes=8)

    def test_zero_snapshots_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="snapshots_keep"):
            _config(tmp_path, snapshots_keep=0)

    def test_negative_checkpoint_every_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            _config(tmp_path, checkpoint_every=-1)


class TestFraming:
    def test_record_layout(self):
        record = encode_record(7, b"hello")
        assert len(record) == 16 + 5
        length = int.from_bytes(record[0:4], "little")
        crc = int.from_bytes(record[4:8], "little")
        seq = int.from_bytes(record[8:16], "little")
        assert length == 5
        assert seq == 7
        assert crc == zlib.crc32((7).to_bytes(8, "little") + b"hello")
        assert record[16:] == b"hello"

    def test_crc_covers_seq(self):
        # Same payload, different seq => different CRC.
        a = encode_record(1, b"x")[4:8]
        b = encode_record(2, b"x")[4:8]
        assert a != b


class TestWriteAheadLog:
    def test_append_assigns_contiguous_seqs(self, tmp_path):
        log = _log(tmp_path)
        seqs = [log.append(f"r{i}".encode()) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        log.close()

    def test_replay_round_trip(self, tmp_path):
        log = _log(tmp_path)
        payloads = [f"record-{i}".encode() for i in range(10)]
        log.append_many(payloads)
        replayed = list(log.replay())
        assert replayed == list(enumerate(payloads, start=1))
        log.close()

    def test_replay_after_seq(self, tmp_path):
        log = _log(tmp_path)
        log.append_many([b"a", b"b", b"c", b"d"])
        assert [seq for seq, _ in log.replay(after_seq=2)] == [3, 4]
        log.close()

    def test_append_many_empty_is_noop(self, tmp_path):
        log = _log(tmp_path)
        log.append(b"only")
        assert log.append_many([]) == 1
        assert log.next_seq == 2
        log.close()

    def test_closed_log_rejects_appends(self, tmp_path):
        log = _log(tmp_path)
        log.close()
        with pytest.raises(DurabilityError, match="closed"):
            log.append(b"late")

    def test_rotation_by_size(self, tmp_path):
        log = _log(tmp_path, segment_max_bytes=64)
        for i in range(10):
            log.append(b"x" * 60)
        log.close()
        segments = wal_segments(log.directory)
        assert len(segments) == 10 + 1  # each append rotates; one empty tail
        # Names encode the first seq each segment holds.
        bases = [int(os.path.basename(p)[4:-4], 16) for p in segments]
        assert bases == sorted(bases)

    def test_reopen_continues_sequence(self, tmp_path):
        log = _log(tmp_path)
        log.append_many([b"a", b"b", b"c"])
        log.close()
        reopened = _log(tmp_path)
        assert reopened.next_seq == 4
        reopened.append(b"d")
        assert [seq for seq, _ in reopened.replay()] == [1, 2, 3, 4]
        reopened.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        log = _log(tmp_path)
        log.append_many([b"aaaa", b"bbbb", b"cccc"])
        log.close()
        tail = wal_segments(log.directory)[-1]
        truncate_tail(tail, 3)  # rip into the last record's payload
        reopened = _log(tmp_path)
        assert reopened.next_seq == 3  # record 3 is gone
        assert [seq for seq, _ in reopened.replay()] == [1, 2]
        # The torn bytes were physically truncated.
        assert os.path.getsize(tail) == 2 * (16 + 4)
        reopened.close()

    def test_corrupt_sealed_segment_raises(self, tmp_path):
        log = _log(tmp_path, segment_max_bytes=64)
        for i in range(4):
            log.append(b"y" * 60)
        log.close()
        first = wal_segments(log.directory)[0]
        corrupt_byte(first, os.path.getsize(first) // 2)
        reopened = _log(tmp_path)
        with pytest.raises(WALCorruptionError, match="corrupted"):
            list(reopened.replay())
        reopened.close()

    def test_sequence_gap_raises(self, tmp_path):
        log = _log(tmp_path, segment_max_bytes=64)
        for i in range(4):
            log.append(b"z" * 60)
        log.close()
        # Delete a middle segment: records vanish, replay must notice.
        os.remove(wal_segments(log.directory)[1])
        reopened = _log(tmp_path)
        with pytest.raises(WALCorruptionError, match="gap"):
            list(reopened.replay())
        reopened.close()

    def test_prune_keeps_active_segment(self, tmp_path):
        log = _log(tmp_path, segment_max_bytes=64)
        for i in range(5):
            log.append(b"w" * 60)
        deleted = log.prune(upto_seq=log.next_seq)
        remaining = wal_segments(log.directory)
        assert len(remaining) >= 1
        assert all(path not in remaining for path in deleted)
        log.close()

    def test_sync_none_survives_clean_close(self, tmp_path):
        log = _log(tmp_path, sync="none")
        log.append_many([b"a", b"b"])
        log.close()  # close() force-flushes even under sync="none"
        assert [seq for seq, _ in _log(tmp_path, sync="none").replay()] == [1, 2]


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        directory = str(tmp_path)
        write_snapshot(directory, 42, {"hello": [1, 2.5, "three"]})
        loaded = load_latest_snapshot(directory)
        assert loaded is not None
        seq, state, failures = loaded
        assert seq == 42
        assert state == {"hello": [1, 2.5, "three"]}
        assert failures == []

    def test_keep_prunes_oldest(self, tmp_path):
        directory = str(tmp_path)
        for seq in (1, 2, 3, 4):
            write_snapshot(directory, seq, {"seq": seq}, keep=2)
        names = [os.path.basename(p) for p in list_snapshots(directory)]
        assert names == [f"snap-{3:016x}.json", f"snap-{4:016x}.json"]

    def test_corrupt_newest_falls_back(self, tmp_path):
        directory = str(tmp_path)
        write_snapshot(directory, 1, {"good": True})
        bad = write_snapshot(directory, 2, {"bad": True})
        with open(bad, "r+") as handle:
            document = json.load(handle)
            document["crc"] ^= 1
            handle.seek(0)
            json.dump(document, handle)
            handle.truncate()
        seq, state, failures = load_latest_snapshot(directory)
        assert seq == 1 and state == {"good": True}
        assert failures == [bad]

    def test_all_corrupt_raises(self, tmp_path):
        directory = str(tmp_path)
        path = write_snapshot(directory, 1, {"x": 1})
        truncate_tail(path, 10)
        with pytest.raises(SnapshotCorruptionError, match="all 1 snapshots"):
            load_latest_snapshot(directory)

    def test_empty_directory_returns_none(self, tmp_path):
        assert load_latest_snapshot(str(tmp_path)) is None
        assert load_latest_snapshot(str(tmp_path / "missing")) is None


class TestProcessorDurability:
    def _fill(self, processor):
        processor.register_relation("r", 10)
        processor.register_relation("s", 10)
        join = processor.register_join("r", "s")
        self_join = processor.register_self_join("r")
        for item in range(200):
            processor.process_point("r", item % 1024, 1.0 + (item % 3))
        processor.process_intervals("r", [[0, 100], [256, 900]])
        processor.process_points("s", list(range(64)))
        processor.process_interval("s", 10, 500, 2.0)
        return join, self_join

    def test_checkpoint_recover_round_trip(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(
            medians=3, averages=8, seed=11, durability=directory
        ) as processor:
            join, self_join = self._fill(processor)
            processor.checkpoint()
            before = {
                "r": processor.sketch_of("r").values().copy(),
                "s": processor.sketch_of("s").values().copy(),
                "join": processor.answer(join),
                "self": processor.answer(self_join),
            }
        recovered = StreamProcessor.recover(directory)
        assert np.array_equal(recovered.sketch_of("r").values(), before["r"])
        assert np.array_equal(recovered.sketch_of("s").values(), before["s"])
        handles = {h.kind: h for h in recovered.query_handles()}
        assert recovered.answer(handles["join"]) == before["join"]
        assert recovered.answer(handles["self_join"]) == before["self"]

    def test_hierarchy_levels_recover_bit_identical(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(
            medians=3, averages=8, seed=11, durability=directory
        ) as processor:
            processor.register_relation("r", 10)
            processor.register_hierarchy("r")
            processor.process_points("r", list(range(0, 1024, 7)))
            processor.process_intervals("r", [[0, 100], [256, 900]], [1.0, 3.0])
            processor.checkpoint()
            # Past the checkpoint: replayed from the WAL on recovery.
            processor.process_points("r", [3, 3, 700], [2.0, -1.0, 5.0])
            processor.process_point("r", 5, -1.0)
            processor.process_interval("r", 10, 500, 2.0)
            processor.process_interval("r", 20, 30, -1.0)
            live = processor.hierarchy_of("r")
            levels = [live.sketch_at(l).values() for l in range(live.levels)]
        recovered = StreamProcessor.recover(directory).hierarchy_of("r")
        assert recovered.levels == len(levels)
        for level, values in enumerate(levels):
            assert np.array_equal(recovered.sketch_at(level).values(), values)
        assert any(values.any() for values in levels)

    def test_corrupted_hierarchy_snapshot_is_refused(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(
            medians=2, averages=4, seed=7, durability=directory
        ) as processor:
            processor.register_relation("r", 8)
            processor.register_hierarchy("r")
            processor.process_points("r", [1, 2, 3])
            processor.checkpoint()
        seq, state, _ = load_latest_snapshot(directory)
        levels = len(state["hierarchies"]["r"])
        state["hierarchies"]["r"] = [[[5.0]]] * levels
        for path in list_snapshots(directory):
            os.remove(path)
        write_snapshot(directory, seq, state)
        with pytest.raises(RecoveryError, match="hierarchy counters"):
            StreamProcessor.recover(directory)

    def test_recover_without_any_checkpoint(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(
            medians=2, averages=8, seed=5, durability=directory
        ) as processor:
            self._fill(processor)
            reference = processor.sketch_of("r").values().copy()
        recovered = StreamProcessor.recover(directory)
        assert np.array_equal(recovered.sketch_of("r").values(), reference)

    def test_auto_checkpoint_writes_snapshots(self, tmp_path):
        directory = str(tmp_path / "state")
        config = DurabilityConfig(directory=directory, checkpoint_every=50)
        with StreamProcessor(
            medians=2, averages=8, seed=5, durability=config
        ) as processor:
            self._fill(processor)
        assert len(list_snapshots(directory)) >= 1

    def test_merge_survives_recovery(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(
            medians=2, averages=8, seed=5, durability=directory
        ) as processor:
            processor.register_relation("r", 10)
            processor.process_points("r", list(range(32)))
            remote = processor.scheme_of("r").sketch()
            remote.update_interval((0, 511), 3.0)
            processor.merge_sketch("r", remote)
            reference = processor.sketch_of("r").values().copy()
        recovered = StreamProcessor.recover(directory)
        assert np.array_equal(recovered.sketch_of("r").values(), reference)

    def test_fresh_processor_refuses_used_directory(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(medians=2, averages=4, seed=1,
                             durability=directory):
            pass
        with pytest.raises(DurabilityError, match="already holds"):
            StreamProcessor(medians=2, averages=4, seed=1,
                            durability=directory)

    def test_recover_missing_manifest(self, tmp_path):
        with pytest.raises(RecoveryError, match="manifest"):
            StreamProcessor.recover(str(tmp_path / "nowhere"))

    def test_seedsource_processor_cannot_be_durable_recovered(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(
            medians=2, averages=4, seed=SeedSource(99), durability=directory
        ) as processor:
            processor.register_relation("r", 8)
            processor.process_point("r", 1)
        with pytest.raises(RecoveryError, match="SeedSource"):
            StreamProcessor.recover(directory)

    def test_tampered_seed_fails_fingerprint_check(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(
            medians=2, averages=4, seed=7, durability=directory
        ) as processor:
            processor.register_relation("r", 8)
            processor.process_point("r", 1)
            processor.checkpoint()
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["seed"] = 8  # wrong seed => different derived schemes
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(RecoveryError, match="fingerprint"):
            StreamProcessor.recover(directory)

    def test_checkpoint_requires_durability(self):
        processor = StreamProcessor(medians=2, averages=4, seed=1)
        with pytest.raises(DurabilityError, match="not enabled"):
            processor.checkpoint()

    def test_quarantine_counts_survive_checkpoint(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(
            medians=2, averages=4, seed=1, policy="quarantine",
            durability=directory,
        ) as processor:
            processor.register_relation("r", 8)
            processor.process_point("r", -5)
            processor.process_point("r", 1)
            processor.checkpoint()
            assert processor.stats()["quarantined_total"] == 1


class TestMergeReplay:
    """Merge ops in the WAL: fingerprints recorded, re-verified on replay."""

    @staticmethod
    def _read_raw(path):
        import struct

        header = struct.Struct("<IIQ")
        with open(path, "rb") as handle:
            data = handle.read()
        offset = 0
        records = []
        while offset < len(data):
            length, _crc, seq = header.unpack_from(data, offset)
            offset += header.size
            records.append((seq, data[offset:offset + length]))
            offset += length
        return records

    @classmethod
    def _read_records(cls, path):
        return [
            (seq, decode_wal_payload(payload))
            for seq, payload in cls._read_raw(path)
        ]

    @staticmethod
    def _write_records(path, records, wire="envelope"):
        """Rewrite a segment as typed envelopes, or as v1 JSON records."""
        from repro.stream.durability import canonical_json

        def encode(op):
            if wire == "envelope":
                return encode_envelope(op)
            return canonical_json(op).encode("utf-8")

        blob = b"".join(encode_record(seq, encode(op)) for seq, op in records)
        with open(path, "wb") as handle:
            handle.write(blob)

    def _build_interleaved(self, directory):
        """A WAL interleaving ingest batches and two merge ops."""
        processor = StreamProcessor(
            medians=2, averages=8, seed=5, durability=directory
        )
        processor.register_relation("r", 10)
        processor.process_points("r", list(range(32)))
        remote = processor.scheme_of("r").sketch()
        remote.update_interval((0, 255), 2.0)
        processor.merge_sketch("r", remote)
        processor.process_points("r", list(range(100, 164)))
        processor.process_intervals("r", [[5, 800], [0, 1023]])
        second = processor.scheme_of("r").sketch()
        second.update_point(7, 3.0)
        processor.merge_sketch("r", second)
        processor.process_points("r", [1, 2, 3])
        return processor

    def test_interleaved_merges_and_batches_replay_exactly(self, tmp_path):
        directory = str(tmp_path / "state")
        with self._build_interleaved(directory) as processor:
            reference = processor.sketch_of("r").values().copy()
        recovered = StreamProcessor.recover(directory)
        assert np.array_equal(recovered.sketch_of("r").values(), reference)

    def test_interleaved_replay_across_a_checkpoint(self, tmp_path):
        directory = str(tmp_path / "state")
        with self._build_interleaved(directory) as processor:
            processor.checkpoint()
            third = processor.scheme_of("r").sketch()
            third.update_interval((100, 900), 1.0)
            processor.merge_sketch("r", third)
            processor.process_points("r", [9, 9, 9])
            reference = processor.sketch_of("r").values().copy()
        recovered = StreamProcessor.recover(directory)
        assert np.array_equal(recovered.sketch_of("r").values(), reference)

    def test_segment_rewritten_as_v1_json_replays_identically(self, tmp_path):
        directory = str(tmp_path / "state")
        with self._build_interleaved(directory) as processor:
            reference = processor.sketch_of("r").values().copy()
        [segment] = wal_segments(directory)
        self._write_records(segment, self._read_records(segment), "v1-json")
        assert all(p[:1] == b"{" for _seq, p in self._read_raw(segment))
        recovered = StreamProcessor.recover(directory)
        assert np.array_equal(recovered.sketch_of("r").values(), reference)

    def test_merge_record_carries_the_scheme_fingerprint(self, tmp_path):
        from repro.sketch.serialize import scheme_fingerprint

        directory = str(tmp_path / "state")
        with self._build_interleaved(directory) as processor:
            expected = scheme_fingerprint(processor.scheme_of("r"))
        merges = [
            op
            for segment in wal_segments(directory)
            for _seq, op in self._read_records(segment)
            if op["op"] == "merge"
        ]
        assert len(merges) == 2
        for op in merges:
            assert op["fingerprint"] == expected

    def test_nonfinite_merge_rejected_at_commit_time(self, tmp_path):
        from repro.stream.errors import InvalidUpdateError

        directory = str(tmp_path / "state")
        with StreamProcessor(
            medians=2, averages=8, seed=5, durability=directory
        ) as processor:
            processor.register_relation("r", 10)
            processor.process_points("r", list(range(16)))
            reference = processor.sketch_of("r").values().copy()
            poisoned = processor.scheme_of("r").sketch()
            poisoned.cells[0][0].value = float("nan")
            with pytest.raises(InvalidUpdateError, match="non-finite"):
                processor.merge_sketch("r", poisoned)
        # The rejected merge never reached the WAL...
        ops = [
            op
            for segment in wal_segments(directory)
            for _seq, op in self._read_records(segment)
        ]
        assert not any(op["op"] == "merge" for op in ops)
        # ...so recovery replays the clean stream only.
        recovered = StreamProcessor.recover(directory)
        assert np.array_equal(recovered.sketch_of("r").values(), reference)

    def test_tampered_merge_fingerprint_rejected_on_replay(self, tmp_path):
        from repro.stream.errors import SchemeMismatchError

        directory = str(tmp_path / "state")
        self._build_interleaved(directory).close()
        segment = wal_segments(directory)[-1]
        records = self._read_records(segment)
        tampered = 0
        for _seq, op in records:
            if op["op"] == "merge":
                op["fingerprint"] = "0" * 64
                tampered += 1
        assert tampered
        self._write_records(segment, records)
        with pytest.raises(SchemeMismatchError, match="fingerprint"):
            StreamProcessor.recover(directory)

    def test_nonfinite_merge_values_rejected_on_replay(self, tmp_path):
        from repro.stream.errors import InvalidUpdateError

        directory = str(tmp_path / "state")
        self._build_interleaved(directory).close()
        segment = wal_segments(directory)[-1]
        records = self._read_records(segment)
        poisoned = 0
        for _seq, op in records:
            if op["op"] == "merge" and not poisoned:
                op["values"] = np.array(op["values"])  # decoded read-only
                op["values"][0][0] = float("inf")
                poisoned += 1
        assert poisoned
        self._write_records(segment, records)
        with pytest.raises(InvalidUpdateError, match="non-finite"):
            StreamProcessor.recover(directory)


_V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "v1_durable")


class TestV1Upgrade:
    """A directory written before typed envelopes recovers bit for bit."""

    @pytest.fixture
    def v1_state(self, tmp_path):
        import shutil

        directory = str(tmp_path / "state")
        shutil.copytree(os.path.join(_V1_FIXTURE, "state"), directory)
        with open(os.path.join(_V1_FIXTURE, "expected.json")) as handle:
            return directory, json.load(handle)

    @staticmethod
    def _assert_counters(processor, expected):
        for name, values in expected["sketches"].items():
            assert np.array_equal(
                processor.sketch_of(name).values(), np.array(values)
            ), name
        assert np.array_equal(
            processor.hierarchy_of("r").table, np.array(expected["hierarchy_r"])
        )
        assert processor._applied_seq == expected["applied_seq"]

    def test_fixture_is_v1(self, v1_state):
        directory, _ = v1_state
        [segment] = wal_segments(directory)
        payloads = [payload for _seq, payload in TestMergeReplay._read_raw(segment)]
        assert len(payloads) == 15
        assert all(payload[:1] == b"{" for payload in payloads)
        _seq, state, _ = load_latest_snapshot(directory)
        assert {data["version"] for data in state["sketches"].values()} == {1}

    def test_v1_snapshot_and_json_wal_recover_bit_identically(self, v1_state):
        directory, expected = v1_state
        recovered = StreamProcessor.recover(directory)
        self._assert_counters(recovered, expected)
        # New writes append envelopes after the v1 records; both replay.
        recovered.process_points("r", [3, 3, 70000])
        recovered.process_intervals("s", [[0, 1 << 39]], [2.0])
        reference = {name: recovered.sketch_of(name).values() for name in ("r", "s")}
        recovered.close()
        again = StreamProcessor.recover(directory)
        for name, values in reference.items():
            assert np.array_equal(again.sketch_of(name).values(), values)

    def test_v1_json_wal_alone_replays_bit_identically(self, v1_state):
        directory, expected = v1_state
        for path in list_snapshots(directory):
            os.remove(path)
        self._assert_counters(StreamProcessor.recover(directory), expected)

    def test_checkpoint_rewrites_sketches_as_v2(self, v1_state):
        from repro.sketch.serialize import SERIALIZE_VERSION

        directory, expected = v1_state
        with StreamProcessor.recover(directory) as processor:
            processor.checkpoint()
        _seq, state, _ = load_latest_snapshot(directory)
        versions = {data["version"] for data in state["sketches"].values()}
        assert versions == {SERIALIZE_VERSION} == {2}
        self._assert_counters(StreamProcessor.recover(directory), expected)


class TestBatchRecords:
    """Batch WAL records carry typed arrays; single records keep scalars."""

    @staticmethod
    def _ops(directory):
        return [
            decode_wal_payload(payload)
            for segment in wal_segments(directory)
            for _seq, payload in TestMergeReplay._read_raw(segment)
        ]

    @pytest.mark.parametrize("bits, dtype", [(20, "<u4"), (32, "<u4"), (33, "<u8"), (62, "<u8")])
    def test_item_dtype_follows_the_domain(self, tmp_path, bits, dtype):
        directory = str(tmp_path / "state")
        with StreamProcessor(medians=2, averages=4, seed=3, durability=directory) as p:
            p.register_relation("r", bits)
            p.process_points("r", [0, (1 << bits) - 1, 5])
            p.process_intervals("r", [[0, (1 << bits) - 1], [4, 9]], [0.5, 2.0])
            p.process_point("r", 7, 3.0)
            p.process_interval("r", 1, 2, -1.0)
        _register, points, intervals, point, interval = self._ops(directory)
        assert points["items"].dtype.str == dtype
        assert points["items"].tolist() == [0, (1 << bits) - 1, 5]
        assert points["weights"] is None
        assert intervals["intervals"].dtype.str == dtype
        assert intervals["intervals"].shape == (2, 2)
        assert intervals["weights"].dtype.str == "<f8"
        assert intervals["weights"].tolist() == [0.5, 2.0]
        assert point == {"op": "point", "relation": "r", "item": 7, "weight": 3.0}
        assert interval == {
            "op": "interval", "relation": "r", "low": 1, "high": 2, "weight": -1.0
        }

    def test_a_4096_point_record_is_raw_bytes(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(medians=2, averages=4, seed=3, durability=directory) as p:
            p.register_relation("r", 20)
            before = os.path.getsize(wal_segments(directory)[-1])
            p.process_points("r", np.arange(4096), np.ones(4096))
            grown = os.path.getsize(wal_segments(directory)[-1]) - before
        assert grown <= 12 * 4096 + 256  # 4-byte items, 8-byte weights


class TestUndecodableRecords:
    """A record that passes its CRC but does not decode is a RecoveryError."""

    @staticmethod
    def _append_raw(directory, payload):
        segment = wal_segments(directory)[-1]
        seq = len(TestMergeReplay._read_raw(segment)) + 1
        with open(segment, "ab") as handle:
            handle.write(encode_record(seq, payload))
        return seq

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b'{"op": "points", "relation"', "passed its CRC but does not decode"),
            (b'{"relation": "r", "item": 3}', "holds no operation"),
            (b"[1, 2]", "passed its CRC but does not decode"),
            (b"\x82\x05\x00\x00\x00{\"op\"", "passed its CRC but does not decode"),
            (b"\x82\x02\x00\x00\x00[]", "holds no operation"),
        ],
        ids=["v1-torn-json", "v1-no-op", "neither", "v2-bad-header", "v2-no-op"],
    )
    def test_recovery_names_the_record(self, tmp_path, payload, message):
        directory = str(tmp_path / "state")
        with StreamProcessor(medians=2, averages=4, seed=3, durability=directory) as p:
            p.register_relation("r", 10)
            p.process_points("r", [1, 2, 3])
        seq = self._append_raw(directory, payload)
        with pytest.raises(RecoveryError, match=f"record {seq} {message}"):
            StreamProcessor.recover(directory)

    def test_envelope_without_op_key(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(medians=2, averages=4, seed=3, durability=directory) as p:
            p.register_relation("r", 10)
        seq = self._append_raw(
            directory, encode_envelope({"relation": "r", "items": np.arange(3)})
        )
        with pytest.raises(RecoveryError, match=f"record {seq} holds no operation"):
            StreamProcessor.recover(directory)

    def test_envelope_arrays_overrunning_the_record(self, tmp_path):
        directory = str(tmp_path / "state")
        with StreamProcessor(medians=2, averages=4, seed=3, durability=directory) as p:
            p.register_relation("r", 10)
        good = encode_envelope(
            {"op": "points", "relation": "r", "items": np.arange(4, dtype="<u4"),
             "weights": None}
        )
        seq = self._append_raw(directory, good[:-4])  # one item short
        with pytest.raises(RecoveryError, match=f"record {seq} passed its CRC"):
            StreamProcessor.recover(directory)
