"""The shard worker: a durable :class:`StreamProcessor` behind the protocol.

A worker owns one key-space shard: its own durability directory (WAL +
snapshots + manifest), its own sketches, and a command loop speaking the
framed protocol of :mod:`repro.cluster.protocol`.  The protocol logic
lives in :class:`ShardServer`, which is transport-agnostic -- the
process entry point :func:`worker_main` wraps it around a
``multiprocessing`` connection, and the inline transport drives it
directly in-process (same frames, same dedup, no OS processes), which is
what makes the protocol unit-testable and the chaos scenarios
deterministic.

Crash recovery is delegated entirely to the stream layer: on start the
server recovers from its directory if a manifest exists and starts fresh
otherwise, so "restart the worker" and "recover the worker" are the same
operation.  The worker applies every mutating command through the
processor's WAL -- exactly one record per command -- so its durable
``applied_seq`` doubles as the command-dedup cursor (see the protocol
module docstring).

Fault hooks (the ``fault`` command) are how the chaos harness schedules
deterministic failures *inside* the worker: die with ``os._exit`` before
or after applying mutation ``at_index``, or hang (stop reading the pipe)
from ``at_index`` on.  The hooks only ever fire when explicitly armed by
a test or the fault suite; production coordinators never send ``fault``.

**Distributed tracing.**  A command carrying a ``trace`` context (see
:meth:`repro.obs.TraceCollector.current_context`) is handled under a
worker-local :class:`repro.obs.RemoteSpanBuffer`: the dispatch runs
inside a ``cluster.worker.command`` span, every span the stream layer
opens underneath lands in the buffer, and the closed-span records ship
back in the reply under ``"spans"`` for the coordinator to stitch.
Records spool to ``trace-spool.jsonl`` in the shard's durability
directory the moment each span closes, so a worker killed mid-command
re-ships its already-finished spans with the first reply after restart
(the stitcher deduplicates by span id).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.cluster.errors import FrameCorruptionError
from repro.cluster.protocol import (
    MUTATING_KINDS,
    decode_frame,
    encode_frame,
    error_reply,
    ok_reply,
)
from repro.sketch.serialize import scheme_fingerprint, sketch_to_dict
from repro.stream.durability import DurabilityConfig
from repro.stream.processor import StreamProcessor

__all__ = ["WorkerSpec", "ShardServer", "worker_main"]

#: The stream processor's manifest file name; its presence is what makes
#: a restart a recovery (mirrors ``repro.stream.processor._MANIFEST``).
_MANIFEST = "manifest.json"

#: Where a traced worker spools closed spans; lives beside the WAL so a
#: restarted incarnation re-ships what the crashed one never delivered.
_TRACE_SPOOL = "trace-spool.jsonl"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to build (or rebuild) one shard worker.

    Picklable on purpose: the same spec object spawns the worker the
    first time and every restart after a crash -- whether the start is
    fresh or a recovery is decided by the manifest on disk, never by the
    caller.
    """

    shard_id: int
    directory: str
    medians: int
    averages: int
    seed: int
    scheme: str | None = None
    sync: str = "flush"
    checkpoint_every: int = 0

    def build_processor(self) -> StreamProcessor:
        """Fresh processor on first start, recovery on every restart."""
        if os.path.exists(os.path.join(self.directory, _MANIFEST)):
            return StreamProcessor.recover(self.directory)
        config = DurabilityConfig(
            directory=self.directory,
            sync=self.sync,
            checkpoint_every=self.checkpoint_every,
        )
        return StreamProcessor(
            medians=self.medians,
            averages=self.averages,
            seed=self.seed,
            scheme=self.scheme,
            policy="raise",  # the coordinator pre-screens every batch
            durability=config,
        )


class ShardServer:
    """Protocol dispatch around one shard's durable stream processor."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.processor = spec.build_processor()
        self._tracer: obs.RemoteSpanBuffer | None = None

    @property
    def applied_index(self) -> int:
        """Index of the last applied mutating command (== WAL seq)."""
        return int(self.processor._applied_seq)

    def _trace_buffer(self, context: dict[str, Any]) -> obs.RemoteSpanBuffer:
        """The worker's span buffer, joined to the command's trace."""
        if self._tracer is None:
            self._tracer = obs.RemoteSpanBuffer(
                spool=os.path.join(self.spec.directory, _TRACE_SPOOL)
            )
        self._tracer.adopt(context)
        return self._tracer

    def handle(self, message: dict[str, Any]) -> dict[str, Any]:
        """Apply one decoded command; returns the reply payload.

        A command carrying a ``trace`` context is dispatched under the
        worker's span buffer (swapped in for the process collector, so
        inline-transport workers never record into the coordinator's
        stack); the reply ships every span closed since the last one
        delivered, leftover spooled records from a crashed incarnation
        included.
        """
        context = message.get("trace")
        if not isinstance(context, dict):
            return self._dispatch(message)
        tracer = self._trace_buffer(context)
        previous = obs.set_trace_collector(tracer)
        try:
            with obs.span(
                "cluster.worker.command",
                shard=self.spec.shard_id,
                op=str(message.get("kind")),
            ):
                reply = self._dispatch(message)
        finally:
            obs.set_trace_collector(previous)
        records = tracer.drain()
        if records:
            obs.counter("obs.trace.remote.spans_shipped_total").inc(
                len(records)
            )
            reply = {**reply, "spans": records}
        return reply

    def _dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        kind = message.get("kind")
        try:
            if kind in MUTATING_KINDS:
                return self._handle_mutation(kind, message)
            if kind == "health":
                return self._health()
            if kind == "ship":
                return self._ship(message["relation"])
            if kind == "snapshot":
                path = self.processor.checkpoint()
                return ok_reply(snapshot=os.path.basename(path))
            if kind == "shutdown":
                self.processor.close()
                return ok_reply(shutdown=True)
            if kind == "fault":
                # Armed by worker_main (process mode); acknowledged here
                # so the inline transport answers it gracefully too.
                return ok_reply(armed=False)
            return error_reply(
                "unknown-command", f"unknown command kind {kind!r}"
            )
        except Exception as exc:  # noqa: BLE001 -- protocol boundary: the reply channel must answer every command; the error class travels in the reply
            return error_reply(type(exc).__name__, str(exc))

    def _handle_mutation(
        self, kind: str, message: dict[str, Any]
    ) -> dict[str, Any]:
        index = int(message["index"])
        applied = self.applied_index
        if index <= applied:
            return {"kind": "dup", "index": index, "applied_index": applied}
        if index > applied + 1:
            return {
                "kind": "gap",
                "index": index,
                "expected_index": applied + 1,
            }
        if kind == "register":
            self.processor.register_relation(
                message["name"], int(message["domain_bits"])
            )
        elif kind == "points":
            self.processor.process_points(
                message["relation"], message["items"], message["weights"]
            )
        elif kind == "intervals":
            self.processor.process_intervals(
                message["relation"], message["intervals"], message["weights"]
            )
        if self.applied_index != index:
            # The batch validated clean at the coordinator but committed
            # no WAL record here -- the dedup cursor would desynchronize.
            raise RuntimeError(
                f"mutating command {index} advanced applied_seq to "
                f"{self.applied_index}, expected {index}"
            )
        return ok_reply(index=index, applied_index=index)

    def _health(self) -> dict[str, Any]:
        processor = self.processor
        return ok_reply(
            shard_id=self.spec.shard_id,
            applied_index=self.applied_index,
            quarantine_depth=len(processor.dead_letters),
            quarantined_total=processor.dead_letters.total,
            relations=processor.relations(),
            fingerprints={
                name: scheme_fingerprint(processor.scheme_of(name))
                for name in processor.relations()
            },
        )

    def _ship(self, relation: str) -> dict[str, Any]:
        sketch = self.processor.sketch_of(relation)
        return ok_reply(
            sketch=sketch_to_dict(sketch, include_scheme=False),
            applied_index=self.applied_index,
        )

    def close(self) -> None:
        self.processor.close()


def worker_main(conn: Any, spec: WorkerSpec) -> None:
    """Process entry point: serve framed commands until shutdown.

    ``conn`` is the worker end of a ``multiprocessing.Pipe``.  A corrupt
    frame is dropped (the coordinator's retry resends it); a closed pipe
    ends the loop.  Fault hooks armed via the ``fault`` command fire
    relative to the *next* mutating index, simulating crashes and hangs
    at deterministic points chosen by the chaos harness.
    """
    server = ShardServer(spec)
    hang_at: int | None = None
    exit_before_apply_at: int | None = None
    exit_before_ack_at: int | None = None
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except EOFError:
                break
            try:
                seq, message = decode_frame(frame)
            except FrameCorruptionError:
                continue
            kind = message.get("kind")
            if kind == "fault":
                mode = message.get("mode")
                at_index = int(message.get("at_index", 0))
                if mode == "hang":
                    hang_at = at_index
                elif mode == "exit_before_apply":
                    exit_before_apply_at = at_index
                elif mode == "exit_before_ack":
                    exit_before_ack_at = at_index
                conn.send_bytes(encode_frame(seq, ok_reply(armed=True)))
                continue
            if kind in MUTATING_KINDS:
                index = int(message.get("index", 0))
                if hang_at is not None and index >= hang_at:
                    # A hung worker: alive, holding the pipe, saying
                    # nothing.  Only SIGKILL ends it.
                    while True:
                        time.sleep(3600)
                if (
                    exit_before_apply_at is not None
                    and index >= exit_before_apply_at
                    and index > server.applied_index
                ):
                    os._exit(17)
                reply = server.handle(message)
                if (
                    exit_before_ack_at is not None
                    and index >= exit_before_ack_at
                    and reply.get("kind") == "ok"
                ):
                    # Crash in the ack window: the WAL holds the batch,
                    # the coordinator never hears about it.
                    os._exit(17)
                conn.send_bytes(encode_frame(seq, reply))
                continue
            reply = server.handle(message)
            conn.send_bytes(encode_frame(seq, reply))
            if kind == "shutdown":
                break
    except (BrokenPipeError, OSError):
        pass
    finally:
        try:
            server.close()
        except Exception:  # noqa: BLE001 -- worker teardown: the process is exiting; a close failure must not mask the loop's outcome
            pass
