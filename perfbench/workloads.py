"""The benchmark's workloads: inputs, timed operations, checks, layers.

Every workload uses the paper configuration (C_C=7, N=1024,
C_MDATA=63, engine ``auto``) and at most two worker threads, processes
or connections, the CPU count of the machine the baseline was taken on.

* ``corpus_batch`` — the paper's seven-circuit corpus through
  ``compress_batch`` (4-kbit shards, two spawned workers) and
  ``decode_container``: the paper's own traffic, dominated by the fast
  matcher and the shard pool.
* ``long_scan`` — one ~1.32 Mbit stream through ``compress`` +
  ``dump_bytes`` and ``decode_container``: one large file, where the
  decode-back (assign) and decode passes dominate.
* ``service_mix`` — two closed-loop clients of a ``repro serve``
  child: the only path through the protocol, the admission queue and
  the streaming (v5) codec.

An untraced run times the calls a user makes.  A traced run makes the
same calls broken down into the public functions they consist of, with
a span around each, and replays in-process what it cannot break down
(the pool's shards, the service's requests).
"""

from __future__ import annotations

import io
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bitstream import TernaryVector
from repro.container import (
    decode_container,
    dump_bytes,
    dump_segments,
    load_segments,
)
from repro.core import LZWConfig, LZWEncoder, StreamEncoder, compress, decode
from repro.fleet.procs import spawn_backend, stop_backend
from repro.parallel import compress_batch, plan_shards
from repro.service.protocol import ServiceClient
from repro.streamio import StreamContainerWriter, decode_stream_bytes
from repro.testfile import format_test_text, parse_test_text
from repro.workloads import DEFAULT_CORPUS, build_testset

from tracing import NULL_TRACER, percentile

CONFIG = LZWConfig(char_bits=7, dict_size=1024, entry_bits=63, engine="auto")
#: The same configuration as a service request's ``config`` field.
REQUEST_CONFIG = {"char_bits": 7, "dict_size": 1024, "entry_bits": 63, "engine": "auto"}
WORKERS = 2
SHARD_BITS = 4096
#: s13207f cube sets concatenated into the long_scan stream.
LONG_SCAN_PARTS = 8
SERVICE_CIRCUITS = ("s5378f", "s9234f", "s35932f", "s15850f")
STREAM_PAYLOAD_BYTES = 16384
#: In-process replays of each service input in a traced run.
SERVICE_REPLAYS = 3


@dataclass
class Op:
    """One timed operation and the verdict of its output check."""

    kind: str  # compress | decompress | compress_stream | replay
    seconds: float
    bits: int  # original bits compressed, or bits restored
    ok: bool = True
    #: (input key, original bits, container bits) per output produced.
    outputs: Tuple[Tuple[object, int, int], ...] = ()
    error: str = ""  # why the op failed


@dataclass
class Phase:
    """The operations of one measured phase."""

    ops: List[Op] = field(default_factory=list)
    wall: float = 0.0
    #: Per request: its seconds.  A library request is one round trip,
    #: compress then decompress, of the workload's input.
    requests: List[float] = field(default_factory=list)

    def extend(self, other: "Phase") -> None:
        self.ops.extend(other.ops)
        self.wall += other.wall
        self.requests.extend(other.requests)

    def ok_outputs(self) -> Dict[object, Tuple[int, int]]:
        """Checked outputs by input key (each input counted once)."""
        out: Dict[object, Tuple[int, int]] = {}
        for op in self.ops:
            if op.ok:
                for key, bits, container_bits in op.outputs:
                    out[key] = (bits, container_bits)
        return out

    def ratio_percent(self) -> float:
        outputs = self.ok_outputs().values()
        original = sum(bits for bits, _ in outputs)
        packed = sum(container_bits for _, container_bits in outputs)
        return 100.0 * (1.0 - packed / original) if original else 0.0

    def seconds_of(self, kind: str) -> float:
        return sum(op.seconds for op in self.ops if op.kind == kind)

    def bits_of(self, *kinds: str) -> int:
        return sum(op.bits for op in self.ops if op.kind in kinds)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _derived_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


def _decode_traced(data: bytes, tracer, request) -> TernaryVector:
    """``decode_container`` of a v2/v3 container, one span per call."""
    with tracer.span("container.load", request):
        segments = load_segments(data)
    with tracer.span("core.decode", request):
        parts = [decode(segment) for segment in segments]
    with tracer.span("bitstream.concat", request):
        return TernaryVector.concat_all(parts)


def _decompress(data: bytes, tracer, request) -> TernaryVector:
    if tracer.enabled:
        return _decode_traced(data, tracer, request)
    return decode_container(data)


def _restores(decoded: TernaryVector, original: TernaryVector) -> bool:
    return len(decoded) == len(original) and decoded.covers(original)


def _timed_decompress(data: bytes, original: TernaryVector, tracer, request) -> Op:
    """One timed decompress op; its check runs after the clock stops."""
    start = time.perf_counter()
    try:
        with tracer.span("op.decompress", request):
            decoded = _decompress(data, tracer, request)
    except Exception as exc:  # noqa: BLE001 - a failed op, counted
        return Op("decompress", time.perf_counter() - start, 0, ok=False, error=repr(exc))
    op = Op("decompress", time.perf_counter() - start, len(original))
    if not _restores(decoded, original):
        op.ok, op.error = False, "decoded stream does not cover the input"
    return op


class LibraryWorkload:
    """A workload of in-process library calls, in round-trip cycles."""

    name = ""

    def set_up(self, seed: int, scale: float) -> None:
        raise NotImplementedError

    def cycle(self, tracer) -> List[Op]:
        raise NotImplementedError

    def run(self, seconds: float, tracer=NULL_TRACER) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        while True:
            ops = self.cycle(tracer)
            phase.ops.extend(ops)
            phase.requests.append(sum(op.seconds for op in ops))
            if time.perf_counter() - start >= seconds:
                break
        phase.wall = time.perf_counter() - start
        return phase

    def end_to_end(self, phase: Phase) -> Dict[str, float]:
        return {
            "compress_mbit_s": _ratio(phase.bits_of("compress"), phase.seconds_of("compress"))
            / 1e6,
            "decompress_mbit_s": _ratio(
                phase.bits_of("decompress"), phase.seconds_of("decompress")
            )
            / 1e6,
            "req_per_s": len(phase.requests) / sum(phase.requests),
            "latency_p50_ms": 1e3 * percentile(phase.requests, 50),
            "latency_p90_ms": 1e3 * percentile(phase.requests, 90),
        }

    def replay(self, tracer) -> List[Op]:
        """Extra in-process work for the traced breakdown, as checked ops."""
        return []

    def close(self) -> None:
        pass


class CorpusBatch(LibraryWorkload):
    """The paper corpus through the sharded batch pool and back."""

    name = "corpus_batch"

    def set_up(self, seed: int, scale: float) -> None:
        seeds = _derived_seeds(seed, len(DEFAULT_CORPUS))
        sets = [
            build_testset(name, scale=scale, seed=s)
            for name, s in zip(DEFAULT_CORPUS, seeds)
        ]
        self.streams = [test_set.to_stream() for test_set in sets]
        self.widths = [test_set.width for test_set in sets]
        self.names = list(DEFAULT_CORPUS)
        # Warm-up: a small slice of every circuit through the same
        # calls, so the first timed batch does not pay first-use costs.
        small = [
            stream[: min(len(stream), 4 * SHARD_BITS // width * width or width)]
            for stream, width in zip(self.streams, self.widths)
        ]
        for item, stream in zip(self._batch(small), small):
            if not _restores(decode_container(item.container), stream):
                raise RuntimeError("warm-up batch does not round-trip")

    def _batch(self, streams):
        return compress_batch(
            CONFIG,
            streams,
            workers=WORKERS,
            shard_bits=SHARD_BITS,
            pattern_bits=self.widths,
        )

    def cycle(self, tracer) -> List[Op]:
        request = tracer.new_request()
        start = time.perf_counter()
        try:
            with tracer.span("op.compress", request):
                with tracer.span("parallel.batch", request):
                    items = self._batch(self.streams)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            return [Op("compress", time.perf_counter() - start, 0, ok=False, error=repr(exc))]
        compress_op = Op(
            "compress",
            time.perf_counter() - start,
            sum(len(stream) for stream in self.streams),
            outputs=tuple(
                (name, len(stream), 8 * len(item.container or b""))
                for name, stream, item in zip(self.names, self.streams, items)
            ),
        )
        ops = [compress_op]
        for item, stream in zip(items, self.streams):
            ops.append(_timed_decompress(item.container, stream, tracer, request))
            if not ops[-1].ok:
                compress_op.ok, compress_op.error = False, "container does not round-trip"
        self.last_containers = [item.container for item in items]
        return ops

    def replay(self, tracer) -> List[Op]:
        """The batch's shards compressed in-process, one at a time.

        One op, failed unless the reassembled containers equal the pool's.
        """
        self.replay_shards = self.replay_codes = 0
        containers = []
        with tracer.span("replay"):
            for stream, width in zip(self.streams, self.widths):
                with tracer.span("parallel.plan"):
                    plan = plan_shards(len(stream), SHARD_BITS, width)
                compressed, assigned = [], []
                for shard in plan.split(stream):
                    with tracer.span("shard"):
                        with tracer.span("core.encode"):
                            codes = LZWEncoder(CONFIG).encode(shard)
                        with tracer.span("core.assign"):
                            assigned.append(decode(codes))
                    compressed.append(codes)
                self.replay_shards += len(compressed)
                self.replay_codes += sum(c.num_codes for c in compressed)
                with tracer.span("container.dump"):
                    containers.append(dump_segments(compressed, assigned))
        return [_replay_op(containers == self.last_containers, "batch")]

    def layers(self, tracer, phase: Phase) -> Dict[str, float]:
        cycles = len(phase.requests)
        batch_s = tracer.total("parallel.batch") / cycles
        shard_cpu_s = tracer.total("shard")
        encode_s = tracer.total("core.encode")
        return {
            "core.encode_s": encode_s,
            "core.encode_mbit_s": sum(map(len, self.streams)) / encode_s / 1e6,
            "core.codes": self.replay_codes,
            "core.assign_s": tracer.total("core.assign"),
            "core.decode_s": tracer.total("core.decode") / cycles,
            "container.dump_s": tracer.total("container.dump"),
            "container.load_s": tracer.total("container.load") / cycles,
            "container.bytes": sum(len(c) for c in self.last_containers),
            "bitstream.concat_s": tracer.total("bitstream.concat") / cycles,
            "parallel.plan_s": tracer.total("parallel.plan"),
            "parallel.batch_s": batch_s,
            "parallel.shard_cpu_s": shard_cpu_s,
            "parallel.shards": self.replay_shards,
            "parallel.speedup": shard_cpu_s / batch_s,
        }


class LongScan(LibraryWorkload):
    """One large, non-repeating stream through compress and decode."""

    name = "long_scan"

    def set_up(self, seed: int, scale: float) -> None:
        parts = [
            build_testset("s13207f", scale=scale, seed=s).to_stream()
            for s in _derived_seeds(seed, LONG_SCAN_PARTS)
        ]
        self.stream = TernaryVector.concat_all(parts)
        warm = build_testset("s5378f", scale=0.1, seed=seed).to_stream()
        result = compress(warm, CONFIG)
        data = dump_bytes(result.compressed, result.assigned_stream)
        if not _restores(decode_container(data), warm):
            raise RuntimeError("warm-up stream does not round-trip")

    def _compress(self, tracer, request) -> bytes:
        if not tracer.enabled:
            result = compress(self.stream, CONFIG)
            return dump_bytes(result.compressed, result.assigned_stream)
        with tracer.span("core.encode", request):
            compressed = LZWEncoder(CONFIG).encode(self.stream)
        with tracer.span("core.assign", request):
            assigned = decode(compressed)
        with tracer.span("container.dump", request):
            data = dump_bytes(compressed, assigned)
        self.codes = compressed.num_codes
        return data

    def cycle(self, tracer) -> List[Op]:
        request = tracer.new_request()
        bits = len(self.stream)
        start = time.perf_counter()
        try:
            with tracer.span("op.compress", request):
                data = self._compress(tracer, request)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            return [Op("compress", time.perf_counter() - start, 0, ok=False, error=repr(exc))]
        compress_op = Op(
            "compress",
            time.perf_counter() - start,
            bits,
            outputs=(("stream", bits, 8 * len(data)),),
        )
        decompress_op = _timed_decompress(data, self.stream, tracer, request)
        if not decompress_op.ok:
            compress_op.ok, compress_op.error = False, "container does not round-trip"
        self.container_bytes = len(data)
        return [compress_op, decompress_op]

    def layers(self, tracer, phase: Phase) -> Dict[str, float]:
        cycles = len(phase.requests)
        encode_s = tracer.total("core.encode") / cycles
        return {
            "core.encode_s": encode_s,
            "core.encode_mbit_s": len(self.stream) / encode_s / 1e6,
            "core.codes": self.codes,
            "core.assign_s": tracer.total("core.assign") / cycles,
            "core.decode_s": tracer.total("core.decode") / cycles,
            "container.dump_s": tracer.total("container.dump") / cycles,
            "container.load_s": tracer.total("container.load") / cycles,
            "container.bytes": self.container_bytes,
            "bitstream.concat_s": tracer.total("bitstream.concat") / cycles,
        }


def _replay_op(ok: bool, what: str) -> Op:
    """The verdict on one in-process replay, counted like a timed op."""
    return Op("replay", 0.0, 0, ok=ok, error="" if ok else f"{what} replay output differs")


def _raw_payload(seed: int, size: int) -> bytes:
    """Fully specified scan data as raw bytes: a filled s13207f set."""
    stream = build_testset("s13207f", seed=seed).to_stream().fill(0)
    return stream[: 8 * size].to_int().to_bytes(size, "little")


SERVICE_OPS = ("compress", "decompress", "compress_stream")


class ServiceMix:
    """Two closed-loop clients of a ``repro serve --workers 2`` child.

    Each client repeats: ``compress`` of a cube text, ``decompress`` of
    the reply, ``compress_stream`` of a raw-byte payload.  Replies are
    kept and checked after the measured phase, so checking costs no
    client time.
    """

    name = "service_mix"
    backend = None

    def set_up(self, seed: int, scale: float) -> None:
        seeds = _derived_seeds(seed, 2 * len(SERVICE_CIRCUITS))
        self.texts = [
            format_test_text(build_testset(name, scale=scale, seed=s))
            for name, s in zip(SERVICE_CIRCUITS, seeds)
        ]
        self.streams = [parse_test_text(text).to_stream() for text in self.texts]
        self.expected = []
        for stream in self.streams:
            result = compress(stream, CONFIG)
            self.expected.append(dump_bytes(result.compressed, result.assigned_stream))
        size = max(256, int(STREAM_PAYLOAD_BYTES * scale))
        self.payloads = [_raw_payload(s, size) for s in seeds[len(SERVICE_CIRCUITS):]]
        self.backend = spawn_backend(["--workers", str(WORKERS)])
        try:
            self._warm_up(seed)
        except BaseException:
            self.close()
            raise

    def _warm_up(self, seed: int) -> None:
        with ServiceClient(self.backend.address, timeout=60.0) as client:
            warm = build_testset("s5378f", scale=0.1, seed=seed)
            header, container = client.compress(
                format_test_text(warm), config=REQUEST_CONFIG
            )
            replies = [
                header,
                client.decompress(container)[0],
                client.compress_stream(self.payloads[0][:256], config=REQUEST_CONFIG)[0],
            ]
        if not all(reply.get("ok") for reply in replies):
            raise RuntimeError(f"warm-up request failed: {replies}")

    def close(self) -> None:
        if self.backend is not None:
            stop_backend(self.backend)
            self.backend = None

    # -- the measured phase --------------------------------------------

    def _client(self, index: int, deadline: float, tracer, records: list) -> None:
        client = ServiceClient(self.backend.address, timeout=60.0)
        try:
            cycle = 0
            # Two cycles at least, so the two clients cover all inputs.
            while cycle < 2 or time.perf_counter() < deadline:
                i = (2 * index + cycle) % len(self.texts)
                reply = self._call(client, "compress", i, self.texts[i].encode(), tracer, records)
                self._call(client, "decompress", i, reply or self.expected[i], tracer, records)
                self._call(client, "compress_stream", i, self.payloads[i], tracer, records)
                cycle += 1
        finally:
            client.close()

    @staticmethod
    def _call(client, op: str, i: int, data: bytes, tracer, records: list):
        request = tracer.new_request()
        config = None if op == "decompress" else REQUEST_CONFIG
        start = time.perf_counter()
        try:
            with tracer.span("service." + op, request):
                header, payload = client.request(op, data, config=config)
        except Exception as exc:  # noqa: BLE001 - a failed request, counted
            records.append((op, i, time.perf_counter() - start, {"error": repr(exc)}, None))
            client.reconnect()  # raises, ending this client, if the server is gone
            return None
        seconds = time.perf_counter() - start
        if not header.get("ok"):
            payload = None
        records.append((op, i, seconds, header, payload))
        return payload

    def run(self, seconds: float, tracer=NULL_TRACER) -> Phase:
        records: List[list] = [[] for _ in range(WORKERS)]
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client, args=(k, start + seconds, tracer, records[k])
            )
            for k in range(WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase = Phase(wall=time.perf_counter() - start)
        verdicts: Dict[tuple, bool] = {}
        for op, i, op_seconds, header, payload in (r for rs in records for r in rs):
            phase.requests.append(op_seconds)
            if payload is None:
                phase.ops.append(Op(op, op_seconds, 0, ok=False, error=str(header["error"])))
                continue
            key = (op, i, payload)
            if key not in verdicts:
                verdicts[key] = self._check(op, i, payload)
            phase.ops.append(self._op(op, i, op_seconds, header, payload, verdicts[key]))
        return phase

    def _check(self, op: str, i: int, payload: bytes) -> bool:
        try:
            if op == "compress":
                return payload == self.expected[i]
            if op == "decompress":
                return _restores(TernaryVector(payload.decode("ascii")), self.streams[i])
            data = self.payloads[i]
            restored = decode_stream_bytes(payload)
            return (
                len(restored) == 8 * len(data)
                and restored.is_fully_specified
                and restored.to_int().to_bytes(len(data), "little") == data
            )
        except Exception:  # noqa: BLE001 - an unreadable reply fails its op
            return False

    def _op(self, op, i, seconds, header, payload, ok) -> Op:
        error = "" if ok else f"{op} reply failed its check"
        if op == "decompress":
            return Op(op, seconds, header.get("bits", 0), ok=ok, error=error)
        bits = len(self.streams[i]) if op == "compress" else 8 * len(self.payloads[i])
        outputs = (((op, i), bits, 8 * len(payload)),)
        return Op(op, seconds, bits, ok=ok, outputs=outputs, error=error)

    def end_to_end(self, phase: Phase) -> Dict[str, float]:
        return {
            "compress_mbit_s": phase.bits_of("compress", "compress_stream")
            / phase.wall
            / 1e6,
            "decompress_mbit_s": phase.bits_of("decompress") / phase.wall / 1e6,
            "req_per_s": sum(op.ok for op in phase.ops) / phase.wall,
            "latency_p50_ms": 1e3 * percentile(phase.requests, 50),
            "latency_p90_ms": 1e3 * percentile(phase.requests, 90),
        }

    # -- the traced breakdown ------------------------------------------

    def replay(self, tracer) -> List[Op]:
        """Every request of one client cycle per input, in-process."""
        ops = []
        self.frames = self.codes = 0
        for _ in range(SERVICE_REPLAYS):
            for i, text in enumerate(self.texts):
                with tracer.span("inproc.compress"):
                    with tracer.span("bitstream.parse"):
                        stream = parse_test_text(text, name="request").to_stream()
                    with tracer.span("core.encode"):
                        compressed = LZWEncoder(CONFIG).encode(stream)
                    with tracer.span("core.assign"):
                        assigned = decode(compressed)
                    with tracer.span("container.dump"):
                        container = dump_bytes(compressed, assigned)
                with tracer.span("inproc.decompress"):
                    decoded = _decode_traced(container, tracer, None)
                    with tracer.span("bitstream.format"):
                        str(decoded)
                data = self.payloads[i]
                with tracer.span("inproc.compress_stream"):
                    with tracer.span("stream.feed"):
                        encoder = StreamEncoder(CONFIG)
                        codes = encoder.feed(
                            TernaryVector.from_int(int.from_bytes(data, "little"), 8 * len(data))
                        )
                        final = encoder.finalize()
                    with tracer.span("streamio.write"):
                        sink = io.BytesIO()
                        writer = StreamContainerWriter(CONFIG, sink)
                        writer.write_codes(codes)
                        writer.finalize(final, encoder.original_bits)
                with tracer.span("streamio.decode"):
                    restored = decode_stream_bytes(sink.getvalue())
                self.frames += writer.frames_written
                self.codes += compressed.num_codes
                ops += [
                    _replay_op(container == self.expected[i], "compress"),
                    _replay_op(_restores(decoded, self.streams[i]), "decompress"),
                    _replay_op(
                        restored.to_int().to_bytes(len(data), "little") == data,
                        "compress_stream",
                    ),
                ]
        self.frames //= SERVICE_REPLAYS
        self.codes //= SERVICE_REPLAYS
        return ops

    def layers(self, tracer, phase: Phase) -> Dict[str, float]:
        requests = SERVICE_REPLAYS * len(self.texts)

        def per_request(name: str) -> float:
            return tracer.total(name) / requests

        out = {
            "core.encode_s": per_request("core.encode"),
            "core.encode_mbit_s": SERVICE_REPLAYS
            * sum(map(len, self.streams))
            / tracer.total("core.encode")
            / 1e6,
            "core.codes": self.codes,
            "core.assign_s": per_request("core.assign"),
            "core.decode_s": per_request("core.decode"),
            "container.dump_s": per_request("container.dump"),
            "container.load_s": per_request("container.load"),
            "container.bytes": sum(map(len, self.expected)),
            "bitstream.format_s": per_request("bitstream.format"),
            "bitstream.parse_s": per_request("bitstream.parse"),
            "bitstream.concat_s": per_request("bitstream.concat"),
            "stream.feed_s": per_request("stream.feed"),
            "streamio.write_s": per_request("streamio.write"),
            "streamio.decode_s": per_request("streamio.decode"),
            "streamio.frames": self.frames,
        }
        for op in SERVICE_OPS:
            p50 = 1e3 * percentile([s.seconds for s in tracer.named("service." + op)], 50)
            inproc = 1e3 * percentile([s.seconds for s in tracer.named("inproc." + op)], 50)
            out[f"service.{op}.p50_ms"] = p50
            out[f"service.{op}.inproc_ms"] = inproc
            out[f"service.{op}.overhead_ms"] = p50 - inproc
        return out


WORKLOADS = {cls.name: cls for cls in (CorpusBatch, LongScan, ServiceMix)}
