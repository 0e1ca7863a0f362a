"""Staged container integrity verification (the ``repro verify`` engine).

Runs the checks a ``.lzwt`` container must pass, in dependency order,
and reports each one individually instead of stopping at the first
typed exception — an operator debugging a bad ATE archive wants to know
*all* of what is wrong, not just the first failure:

1. **header** — magic, version, parsable and valid configuration;
2. **header-crc** — the v2 header checksum (skipped for v1);
3. **payload-crc** — the payload checksum and declared bit counts;
4. **decode** — the code stream decodes under its configuration;
5. **stream-digest** — the decoded stream matches the stored digest
   (skipped for v1);
6. **coverage** — optional: the decoded stream covers a reference cube
   stream (full round-trip verification).

Multi-segment (v3) containers run the same stages per segment: after
the header and the table-covering header CRC, every segment gets its
own ``segment[i] payload-crc`` / ``segment[i] decode`` /
``segment[i] stream-digest`` checks, so a corrupted shard is reported
by index; the optional coverage stage then checks the concatenated
decode against the reference stream.

Streaming (v5) frame journals run ``frame[i] payload-crc`` /
``frame[i] decode`` stages per frame plus a ``terminal`` stage that
fails for an unsealed journal (see :func:`_verify_stream`).

The report distinguishes *not a container* (bad magic / truncated
header / unknown version → CLI exit 3) from *recognised but failing
integrity* (→ CLI exit 4).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

from ..bitstream import TernaryVector
from ..container import (
    BLOB_ENTRY_SIZE,
    HEADER_CRC_OFFSET,
    SEED_BLOB,
    SEED_CHAIN,
    SEED_COLD,
    SEED_MODE_NAMES,
    SEGMENT_ENTRY_SIZE,
    SEGMENT_ENTRY_V4_SIZE,
    V3_HEADER_CRC_OFFSET,
    V3_SEGMENT_TABLE_OFFSET,
    V4_HEADER_CRC_OFFSET,
    V4_SEGMENT_TABLE_OFFSET,
    _BLOB_ENTRY,
    _HEADER_V3,
    _HEADER_V4,
    _MAGIC,
    _SEGMENT_ENTRY,
    _SEGMENT_ENTRY_V4,
    BlobInfo,
    SeededSegmentInfo,
    SegmentInfo,
    _parse_header,
    _read_codes,
    load_bytes,
    stream_digest,
)
from ..core import (
    CompressedStream,
    DictionarySnapshot,
    LZWConfig,
    decode,
    derive_final_snapshot,
)
from .errors import (
    ConfigError,
    ContainerError,
    DecodeError,
    ReproError,
    SnapshotError,
)
from ..observability import NULL_RECORDER, Recorder, metrics_snapshot

__all__ = ["Check", "VerifyReport", "verify_container"]


@dataclass(frozen=True)
class Check:
    """One verification stage: name, pass/fail and a detail line."""

    name: str
    ok: bool
    detail: str

    def describe(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}: {self.detail}"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of all verification stages for one container."""

    checks: Tuple[Check, ...]
    recognised: bool
    version: Optional[int] = None
    config_summary: Optional[str] = None
    num_codes: Optional[int] = None
    original_bits: Optional[int] = None
    segments: Optional[int] = None
    #: Recorder snapshot (versioned metrics envelope) when
    #: :func:`verify_container` ran with a recorder attached — the
    #: decode counters and per-stage spans that accompany a failure
    #: diagnosis.  ``None`` when no recorder was supplied.
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """True when every stage passed."""
        return all(check.ok for check in self.checks)

    @property
    def exit_code(self) -> int:
        """Documented process exit status: 0 ok, 3 not a container, 4 integrity."""
        if self.ok:
            return 0
        return 4 if self.recognised else 3

    def describe(self) -> str:
        lines = []
        if self.recognised:
            codes = "?" if self.num_codes is None else self.num_codes
            seg = "" if self.segments is None else f"{self.segments} segments, "
            lines.append(
                f"container v{self.version}: {self.config_summary}, "
                f"{seg}{codes} codes, {self.original_bits} original bits"
            )
        lines.extend(check.describe() for check in self.checks)
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def verify_container(
    data: bytes,
    original: Optional[TernaryVector] = None,
    recorder: Optional[Recorder] = None,
) -> VerifyReport:
    """Verify container bytes stage by stage; never raises for bad data.

    ``original`` enables the final coverage stage: the decoded stream
    must reproduce every specified bit of the given cube stream.
    Multi-segment containers get per-segment stages named
    ``segment[i] ...`` so the failing shard is identified by index.
    ``recorder`` collects per-stage ``verify.*`` spans plus the decode
    and container counters; its snapshot lands on
    :attr:`VerifyReport.metrics` so failure diagnostics carry the
    counter state at the point things went wrong.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    if len(data) >= 5 and data[:4] == _MAGIC and data[4] == 3:
        return _verify_multi(data, original, rec)
    if len(data) >= 5 and data[:4] == _MAGIC and data[4] == 4:
        return _verify_seeded(data, original, rec)
    if len(data) >= 5 and data[:4] == _MAGIC and data[4] == 5:
        return _verify_stream(data, original, rec)
    checks = []
    try:
        with rec.span("verify.header"):
            header = _parse_header(data)
    except ContainerError as exc:
        return VerifyReport(
            checks=(Check("header", False, str(exc)),),
            recognised=False,
            metrics=metrics_snapshot(rec) if rec.enabled else None,
        )
    checks.append(
        Check("header", True, f"v{header.version}, {header.config.describe()}")
    )

    if header.header_crc is None:
        checks.append(Check("header-crc", True, "not present (v1 container)"))
    else:
        actual = zlib.crc32(data[:HEADER_CRC_OFFSET])
        checks.append(
            Check(
                "header-crc",
                actual == header.header_crc,
                f"stored {header.header_crc:#010x}, computed {actual:#010x}",
            )
        )

    compressed = None
    try:
        with rec.span("verify.payload-crc"):
            compressed = load_bytes(data, verify=False, recorder=rec)
        checks.append(
            Check(
                "payload-crc",
                True,
                f"{len(header.payload)} bytes, {header.payload_bits} bits",
            )
        )
    except ReproError as exc:
        checks.append(Check("payload-crc", False, str(exc)))

    stream = None
    if compressed is not None:
        try:
            with rec.span("verify.decode"):
                stream = decode(compressed, recorder=rec)
            checks.append(
                Check(
                    "decode",
                    True,
                    f"{compressed.num_codes} codes -> {len(stream)} bits",
                )
            )
        except ReproError as exc:
            checks.append(Check("decode", False, str(exc)))

    if stream is not None:
        if header.stream_crc is None:
            checks.append(Check("stream-digest", True, "not present (v1 container)"))
        else:
            actual = stream_digest(stream)
            checks.append(
                Check(
                    "stream-digest",
                    actual == header.stream_crc,
                    f"stored {header.stream_crc:#010x}, computed {actual:#010x}",
                )
            )
        if original is not None:
            with rec.span("verify.coverage"):
                covers = stream.covers(original)
            if covers:
                detail = f"covers all {original.care_count} specified bits"
                checks.append(Check("coverage", True, detail))
            else:
                checks.append(
                    Check("coverage", False, "decoded stream does not cover original")
                )

    return VerifyReport(
        checks=tuple(checks),
        recognised=True,
        version=header.version,
        config_summary=header.config.describe(),
        num_codes=compressed.num_codes if compressed is not None else None,
        original_bits=header.original_bits,
        metrics=metrics_snapshot(rec) if rec.enabled else None,
    )


def _verify_segment(
    config: LZWConfig,
    entry: SegmentInfo,
    index: int,
    payload_area: bytes,
    rec: Recorder = NULL_RECORDER,
    seed: Optional[DictionarySnapshot] = None,
    link: Optional[int] = None,
) -> Tuple[list, Optional[TernaryVector], Optional[Tuple[int, ...]]]:
    """Run the payload-crc / decode / stream-digest stages of one segment.

    ``seed``/``link`` carry a v4 segment's resolved seeding state; the
    decode stage then runs under it.  Returns the stage checks, the
    decoded stream (``None`` past the first failure) and the parsed
    codes (``None`` until the payload parses — v4 chain successors need
    them to derive their own seed).
    """
    name = f"segment[{index}]"
    checks = []
    end = entry.offset + (entry.payload_bits + 7) // 8
    if end > len(payload_area):
        checks.append(
            Check(
                f"{name} payload-crc",
                False,
                f"payload extends past the container "
                f"(needs {end} bytes, {len(payload_area)} present)",
            )
        )
        return checks, None, None
    if entry.payload_bits % config.code_bits:
        checks.append(
            Check(
                f"{name} payload-crc",
                False,
                f"{entry.payload_bits} payload bits is not a whole number "
                f"of {config.code_bits}-bit codes",
            )
        )
        return checks, None, None
    if entry.num_codes != entry.payload_bits // config.code_bits:
        checks.append(
            Check(
                f"{name} payload-crc",
                False,
                f"code count {entry.num_codes} disagrees with "
                f"{entry.payload_bits} payload bits",
            )
        )
        return checks, None, None
    payload = payload_area[entry.offset : end]
    actual_crc = zlib.crc32(payload)
    if actual_crc != entry.payload_crc:
        checks.append(
            Check(
                f"{name} payload-crc",
                False,
                f"stored {entry.payload_crc:#010x}, computed {actual_crc:#010x}",
            )
        )
        return checks, None, None
    checks.append(
        Check(
            f"{name} payload-crc",
            True,
            f"{len(payload)} bytes, {entry.num_codes} codes",
        )
    )

    codes = _read_codes(payload, entry.payload_bits, config)
    try:
        with rec.span(f"verify.{name} decode"):
            stream = decode(
                CompressedStream(codes, config, entry.original_bits),
                recorder=rec,
                seed=seed,
                link=link,
            )
        checks.append(
            Check(f"{name} decode", True, f"{len(codes)} codes -> {len(stream)} bits")
        )
    except (ReproError, ValueError) as exc:
        checks.append(Check(f"{name} decode", False, str(exc)))
        return checks, None, codes

    actual_digest = stream_digest(stream)
    checks.append(
        Check(
            f"{name} stream-digest",
            actual_digest == entry.stream_crc,
            f"stored {entry.stream_crc:#010x}, computed {actual_digest:#010x}",
        )
    )
    if actual_digest != entry.stream_crc:
        return checks, None, codes
    return checks, stream, codes


def _verify_multi(
    data: bytes,
    original: Optional[TernaryVector] = None,
    rec: Recorder = NULL_RECORDER,
) -> VerifyReport:
    """Staged verification of a multi-segment (v3) container."""
    metrics = (lambda: metrics_snapshot(rec) if rec.enabled else None)
    if len(data) < _HEADER_V3.size:
        return VerifyReport(
            checks=(Check("header", False, "truncated container header"),),
            recognised=False,
            version=3,
            metrics=metrics(),
        )
    _, _, char_bits, dict_size, entry_bits, count, header_crc = _HEADER_V3.unpack_from(
        data
    )
    try:
        config = LZWConfig(
            char_bits=char_bits, dict_size=dict_size, entry_bits=entry_bits
        )
    except ConfigError as exc:
        return VerifyReport(
            checks=(
                Check("header", False, f"invalid configuration: {exc.message}"),
            ),
            recognised=False,
            version=3,
            metrics=metrics(),
        )

    checks = []
    table_end = V3_SEGMENT_TABLE_OFFSET + count * SEGMENT_ENTRY_SIZE
    if count < 1 or len(data) < table_end:
        detail = (
            "segment count must be >= 1"
            if count < 1
            else f"truncated segment table ({count} segments declared, "
            f"{len(data)} bytes total)"
        )
        checks.append(Check("header", False, detail))
        return VerifyReport(
            checks=tuple(checks),
            recognised=True,
            version=3,
            config_summary=config.describe(),
            segments=count,
            metrics=metrics(),
        )
    checks.append(
        Check("header", True, f"v3, {config.describe()}, {count} segments")
    )

    table = data[V3_SEGMENT_TABLE_OFFSET:table_end]
    actual_crc = zlib.crc32(data[:V3_HEADER_CRC_OFFSET] + table)
    checks.append(
        Check(
            "header-crc",
            actual_crc == header_crc,
            f"stored {header_crc:#010x}, computed {actual_crc:#010x} "
            "(covers header + segment table)",
        )
    )

    payload_area = data[table_end:]
    streams = []
    total_codes = 0
    total_bits = 0
    for index in range(count):
        entry = SegmentInfo(
            *_SEGMENT_ENTRY.unpack_from(table, index * SEGMENT_ENTRY_SIZE)
        )
        total_codes += entry.num_codes
        total_bits += entry.original_bits
        segment_checks, stream, _ = _verify_segment(
            config, entry, index, payload_area, rec
        )
        checks.extend(segment_checks)
        streams.append(stream)

    if original is not None and all(s is not None for s in streams):
        with rec.span("verify.coverage"):
            decoded = TernaryVector.concat_all(streams)
            covers = decoded.covers(original)
        if covers:
            detail = f"covers all {original.care_count} specified bits"
            checks.append(Check("coverage", True, detail))
        else:
            checks.append(
                Check("coverage", False, "decoded stream does not cover original")
            )

    return VerifyReport(
        checks=tuple(checks),
        recognised=True,
        version=3,
        config_summary=config.describe(),
        num_codes=total_codes,
        original_bits=total_bits,
        segments=count,
        metrics=metrics(),
    )


def _verify_stream(
    data: bytes,
    original: Optional[TernaryVector] = None,
    rec: Recorder = NULL_RECORDER,
) -> VerifyReport:
    """Staged verification of a streaming (v5) frame journal.

    After the header stages, every data frame gets a
    ``frame[i] payload-crc`` stage (header CRC, payload CRC, chain CRC,
    index sequencing) and a ``frame[i] decode`` stage (the codes decode
    and the dictionary digest + cumulative original-bits match).  The
    walk stops at the first *framing* fault — the chain structure means
    nothing after a torn or corrupt frame can be trusted — and a
    journal without a terminal frame fails the ``terminal`` stage
    (unsealed: the crash-before-finalize signature).
    """
    import io

    from ..bitstream import chars_to_vector
    from ..core.stream import StreamDecoder
    from ..streamio import (
        _HEADER_V5,
        V5_HEADER_CRC_OFFSET,
        V5_HEADER_SIZE,
        StreamContainerReader,
        frame_seal,
        pack_chars,
    )

    metrics = (lambda: metrics_snapshot(rec) if rec.enabled else None)
    if len(data) < V5_HEADER_SIZE:
        return VerifyReport(
            checks=(Check("header", False, "truncated container header"),),
            recognised=False,
            version=5,
            metrics=metrics(),
        )
    _, _, char_bits, dict_size, entry_bits, flags, header_crc = _HEADER_V5.unpack_from(
        data
    )
    if flags & ~0x01:
        return VerifyReport(
            checks=(Check("header", False, f"unknown flags 0x{flags:02x}"),),
            recognised=True,
            version=5,
            metrics=metrics(),
        )
    try:
        config = LZWConfig(
            char_bits=char_bits,
            dict_size=dict_size,
            entry_bits=entry_bits,
            reset_on_full=bool(flags & 0x01),
        )
    except ConfigError as exc:
        return VerifyReport(
            checks=(
                Check("header", False, f"invalid configuration: {exc.message}"),
            ),
            recognised=False,
            version=5,
            metrics=metrics(),
        )
    checks = [Check("header", True, f"v5 streaming, {config.describe()}")]
    actual_crc = zlib.crc32(data[:V5_HEADER_CRC_OFFSET])
    header_crc_ok = actual_crc == header_crc
    checks.append(
        Check(
            "header-crc",
            header_crc_ok,
            f"stored {header_crc:#010x}, computed {actual_crc:#010x}",
        )
    )
    if not header_crc_ok:
        return VerifyReport(
            checks=tuple(checks),
            recognised=True,
            version=5,
            config_summary=config.describe(),
            metrics=metrics(),
        )

    reader = StreamContainerReader(io.BytesIO(data), recorder=rec)
    decoder = StreamDecoder(config, recorder=rec)
    chars: list = []
    chars_crc = 0
    decode_ok = True
    framing_ok = True
    last_cum_bits = 0
    total_codes = 0
    frame_count = 0
    with rec.span("verify.frames"):
        while True:
            try:
                frame = reader.read_frame()
            except ContainerError as exc:
                checks.append(Check(f"frame[{frame_count}] payload-crc", False, str(exc)))
                framing_ok = False
                break
            if frame is None:
                break
            frame_count += 1
            total_codes += frame.num_codes
            checks.append(
                Check(
                    f"frame[{frame.index}] payload-crc",
                    True,
                    f"{frame.num_codes} codes, chain {frame.chain_crc:#010x}",
                )
            )
            if not decode_ok:
                checks.append(
                    Check(
                        f"frame[{frame.index}] decode",
                        False,
                        "not attempted (decoder state diverged earlier)",
                    )
                )
                continue
            frame_chars: list = []
            try:
                for code in frame.codes:
                    frame_chars.extend(decoder.push(code))
            except DecodeError as exc:
                checks.append(Check(f"frame[{frame.index}] decode", False, str(exc)))
                decode_ok = False
                continue
            next_crc = zlib.crc32(pack_chars(frame_chars), chars_crc)
            actual_seal = frame_seal(decoder.snapshot(), next_crc)
            cum_bits = decoder.chars_decoded * config.char_bits
            diff = cum_bits - frame.original_bits_cum
            if actual_seal != frame.dict_digest:
                checks.append(
                    Check(
                        f"frame[{frame.index}] decode",
                        False,
                        f"seal mismatch (stored "
                        f"{frame.dict_digest.hex()}, computed "
                        f"{actual_seal.hex()})",
                    )
                )
                decode_ok = False
            elif diff < 0 or diff >= config.char_bits or (
                frame.original_bits_cum < last_cum_bits
            ):
                checks.append(
                    Check(
                        f"frame[{frame.index}] decode",
                        False,
                        f"cumulative original_bits {frame.original_bits_cum} "
                        f"inconsistent with decode ({cum_bits} bits)",
                    )
                )
                decode_ok = False
            else:
                checks.append(
                    Check(
                        f"frame[{frame.index}] decode",
                        True,
                        f"{frame.num_codes} codes -> {len(frame_chars)} chars, "
                        f"seal {actual_seal.hex()[:12]}",
                    )
                )
                chars.extend(frame_chars)
                chars_crc = next_crc
                last_cum_bits = frame.original_bits_cum

    terminal = reader.terminal
    if framing_ok:
        if terminal is None:  # pragma: no cover — read_frame raises first
            checks.append(
                Check("terminal", False, "no terminal frame (unsealed journal)")
            )
        elif decode_ok:
            actual_seal = frame_seal(decoder.snapshot(), chars_crc)
            decoded_bits = decoder.chars_decoded * config.char_bits
            diff = decoded_bits - terminal.total_original_bits
            if actual_seal != terminal.dict_digest:
                checks.append(
                    Check(
                        "terminal",
                        False,
                        f"final seal mismatch (stored "
                        f"{terminal.dict_digest.hex()}, computed "
                        f"{actual_seal.hex()})",
                    )
                )
            elif diff < 0 or (diff >= config.char_bits and decoded_bits):
                checks.append(
                    Check(
                        "terminal",
                        False,
                        f"declares {terminal.total_original_bits} original "
                        f"bits, decode produced {decoded_bits}",
                    )
                )
            else:
                checks.append(
                    Check(
                        "terminal",
                        True,
                        f"{terminal.frame_count} frames, "
                        f"{terminal.total_codes} codes, "
                        f"{terminal.total_original_bits} original bits",
                    )
                )
        else:
            checks.append(
                Check("terminal", False, "not attempted (a frame failed to decode)")
            )

    if (
        original is not None
        and framing_ok
        and decode_ok
        and terminal is not None
        and all(check.ok for check in checks)
    ):
        with rec.span("verify.coverage"):
            decoded = chars_to_vector(chars, config.char_bits)[
                : terminal.total_original_bits
            ]
            covers = decoded.covers(original)
        if covers:
            checks.append(
                Check(
                    "coverage", True, f"covers all {original.care_count} specified bits"
                )
            )
        else:
            checks.append(
                Check("coverage", False, "decoded stream does not cover original")
            )

    return VerifyReport(
        checks=tuple(checks),
        recognised=True,
        version=5,
        config_summary=config.describe(),
        num_codes=total_codes,
        original_bits=terminal.total_original_bits if terminal is not None else None,
        segments=frame_count,
        metrics=metrics(),
    )


def _verify_seeded(
    data: bytes,
    original: Optional[TernaryVector] = None,
    rec: Recorder = NULL_RECORDER,
) -> VerifyReport:
    """Staged verification of a seeded multi-segment (v4) container.

    Adds ``blob[i] crc`` / ``blob[i] parse`` stages for each stored
    dictionary snapshot and a ``segment[i] seed`` resolution stage per
    warm segment; segment decodes then run under the resolved seed.  A
    chain segment whose predecessor failed any stage reports its seed
    as unresolvable instead of producing a misleading decode failure.
    """
    metrics = (lambda: metrics_snapshot(rec) if rec.enabled else None)
    if len(data) < _HEADER_V4.size:
        return VerifyReport(
            checks=(Check("header", False, "truncated container header"),),
            recognised=False,
            version=4,
            metrics=metrics(),
        )
    (
        _,
        _,
        char_bits,
        dict_size,
        entry_bits,
        count,
        flags,
        blob_count,
        header_crc,
    ) = _HEADER_V4.unpack_from(data)
    if flags & ~0x01:
        return VerifyReport(
            checks=(Check("header", False, f"unknown flags 0x{flags:02x}"),),
            recognised=True,
            version=4,
            metrics=metrics(),
        )
    try:
        config = LZWConfig(
            char_bits=char_bits,
            dict_size=dict_size,
            entry_bits=entry_bits,
            reset_on_full=bool(flags & 0x01),
        )
    except ConfigError as exc:
        return VerifyReport(
            checks=(
                Check("header", False, f"invalid configuration: {exc.message}"),
            ),
            recognised=False,
            version=4,
            metrics=metrics(),
        )

    checks = []
    table_end = V4_SEGMENT_TABLE_OFFSET + count * SEGMENT_ENTRY_V4_SIZE
    blob_table_end = table_end + blob_count * BLOB_ENTRY_SIZE
    if count < 1 or len(data) < blob_table_end:
        detail = (
            "segment count must be >= 1"
            if count < 1
            else f"truncated segment/blob table ({count} segments, "
            f"{blob_count} blobs declared, {len(data)} bytes total)"
        )
        checks.append(Check("header", False, detail))
        return VerifyReport(
            checks=tuple(checks),
            recognised=True,
            version=4,
            config_summary=config.describe(),
            segments=count,
            metrics=metrics(),
        )
    checks.append(
        Check(
            "header",
            True,
            f"v4, {config.describe()}, {count} segments, {blob_count} seed blobs",
        )
    )

    tables = data[V4_SEGMENT_TABLE_OFFSET:blob_table_end]
    actual_crc = zlib.crc32(data[:V4_HEADER_CRC_OFFSET] + tables)
    checks.append(
        Check(
            "header-crc",
            actual_crc == header_crc,
            f"stored {header_crc:#010x}, computed {actual_crc:#010x} "
            "(covers header + segment table + blob table)",
        )
    )

    # Blob stages: CRC, then snapshot parse + config agreement.
    blob_table = data[table_end:blob_table_end]
    blobs = [
        BlobInfo(*_BLOB_ENTRY.unpack_from(blob_table, index * BLOB_ENTRY_SIZE))
        for index in range(blob_count)
    ]
    blob_area_len = max((b.offset + b.length for b in blobs), default=0)
    blob_area = data[blob_table_end : blob_table_end + blob_area_len]
    payload_area = data[blob_table_end + blob_area_len :]
    snapshots: list = []
    for index, blob in enumerate(blobs):
        raw = blob_area[blob.offset : blob.offset + blob.length]
        if len(raw) != blob.length:
            checks.append(
                Check(
                    f"blob[{index}] crc",
                    False,
                    f"blob extends past the container "
                    f"(needs {blob.offset + blob.length} bytes, "
                    f"{len(blob_area)} present)",
                )
            )
            snapshots.append(None)
            continue
        actual = zlib.crc32(raw)
        ok = actual == blob.crc
        checks.append(
            Check(
                f"blob[{index}] crc",
                ok,
                f"stored {blob.crc:#010x}, computed {actual:#010x}",
            )
        )
        if not ok:
            snapshots.append(None)
            continue
        try:
            snapshot = DictionarySnapshot.from_bytes(raw)
            snapshot.require_config(config)
            checks.append(
                Check(
                    f"blob[{index}] parse",
                    True,
                    f"{len(snapshot)} entries, digest {snapshot.digest[:12]}",
                )
            )
            snapshots.append(snapshot)
        except (SnapshotError, ContainerError) as exc:
            checks.append(Check(f"blob[{index}] parse", False, str(exc)))
            snapshots.append(None)

    # Segment stages: seed resolution, then payload/decode/digest under it.
    streams = []
    seg_codes: list = []
    seg_seeds: list = []
    seg_links: list = []
    total_codes = 0
    total_bits = 0
    for index in range(count):
        fields = _SEGMENT_ENTRY_V4.unpack_from(
            data, V4_SEGMENT_TABLE_OFFSET + index * SEGMENT_ENTRY_V4_SIZE
        )
        entry = SeededSegmentInfo(*fields[:8])
        total_codes += entry.num_codes
        total_bits += entry.original_bits
        name = f"segment[{index}]"
        seed = link = None
        seed_ok = True
        if entry.seed_mode == SEED_COLD:
            pass
        elif entry.seed_mode == SEED_BLOB:
            if entry.blob_index >= len(snapshots):
                checks.append(
                    Check(
                        f"{name} seed",
                        False,
                        f"references blob {entry.blob_index} of {len(snapshots)}",
                    )
                )
                seed_ok = False
            elif snapshots[entry.blob_index] is None:
                checks.append(
                    Check(
                        f"{name} seed",
                        False,
                        f"blob {entry.blob_index} failed its own checks",
                    )
                )
                seed_ok = False
            else:
                seed = snapshots[entry.blob_index]
                checks.append(
                    Check(
                        f"{name} seed",
                        True,
                        f"blob {entry.blob_index}, {len(seed)} entries",
                    )
                )
        elif entry.seed_mode == SEED_CHAIN:
            if index == 0:
                checks.append(
                    Check(f"{name} seed", False, "segment 0 cannot chain")
                )
                seed_ok = False
            elif seg_codes[index - 1] is None:
                checks.append(
                    Check(
                        f"{name} seed",
                        False,
                        f"predecessor segment {index - 1} failed its own checks",
                    )
                )
                seed_ok = False
            else:
                prev_codes = seg_codes[index - 1]
                try:
                    seed = derive_final_snapshot(
                        prev_codes,
                        config,
                        seed=seg_seeds[index - 1],
                        link=seg_links[index - 1],
                    )
                    link = prev_codes[-1] if prev_codes else seg_links[index - 1]
                    checks.append(
                        Check(
                            f"{name} seed",
                            True,
                            f"chained from segment {index - 1}, "
                            f"{len(seed)} entries, link {link}",
                        )
                    )
                except (DecodeError, SnapshotError) as exc:
                    checks.append(Check(f"{name} seed", False, str(exc)))
                    seed_ok = False
        else:
            checks.append(
                Check(
                    f"{name} seed",
                    False,
                    f"unknown seed mode {entry.seed_mode}",
                )
            )
            seed_ok = False

        if not seed_ok:
            streams.append(None)
            seg_codes.append(None)
            seg_seeds.append(None)
            seg_links.append(None)
            continue
        segment_checks, stream, codes = _verify_segment(
            config, entry, index, payload_area, rec, seed=seed, link=link
        )
        checks.extend(segment_checks)
        streams.append(stream)
        # A chain successor needs a fully verified predecessor: only
        # propagate codes past a clean decode + digest.
        seg_codes.append(codes if stream is not None else None)
        seg_seeds.append(seed)
        seg_links.append(link)

    if original is not None and all(s is not None for s in streams):
        with rec.span("verify.coverage"):
            decoded = TernaryVector.concat_all(streams)
            covers = decoded.covers(original)
        if covers:
            detail = f"covers all {original.care_count} specified bits"
            checks.append(Check("coverage", True, detail))
        else:
            checks.append(
                Check("coverage", False, "decoded stream does not cover original")
            )

    return VerifyReport(
        checks=tuple(checks),
        recognised=True,
        version=4,
        config_summary=config.describe(),
        num_codes=total_codes,
        original_bits=total_bits,
        segments=count,
        metrics=metrics(),
    )
