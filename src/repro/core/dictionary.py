"""Bounded-entry LZW dictionary (trie form).

The dictionary is the data structure shared — conceptually — by the
software compressor and the hardware decompressor.  Codes
``0 .. 2**C_C - 1`` are the implicit *base codes* (each representing its
own character); allocated codes start at ``2**C_C`` ("one greater than
the largest uncompressed representation", Section 3 of the paper).

Two hardware constraints shape the structure:

* **capacity** — at most ``N`` codes exist; once full, no further
  entries are created and the dictionary becomes static;
* **entry width** — the uncompressed string of a code must fit the
  embedded-memory word, i.e. at most ``C_MDATA // C_C`` characters.

For don't-care-aware matching the trie answers *compatible-child*
queries: given a node and a ternary character, which children agree with
every specified bit of that character?
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..observability import NULL_RECORDER, Recorder
from ..observability import schema as ev
from ..reliability.errors import SnapshotError
from .config import LZWConfig

__all__ = ["DictionarySnapshot", "LZWDictionary", "SNAPSHOT_MAGIC", "SNAPSHOT_VERSION"]

#: Serialized snapshot framing (see :meth:`DictionarySnapshot.to_bytes`).
SNAPSHOT_MAGIC = b"LZWS"
SNAPSHOT_VERSION = 1

#: ``>4sB B I I I`` — magic, version, char_bits, dict_size, entry_bits,
#: entry count.  Entries follow as ``>IH`` (parent code, character), then
#: a trailing CRC-32 over everything before it.
_SNAP_HEADER = struct.Struct(">4sBBIII")
_SNAP_ENTRY = struct.Struct(">IH")
_SNAP_CRC = struct.Struct(">I")


@dataclass(frozen=True)
class DictionarySnapshot:
    """Canonical, versioned serialization of LZW dictionary state.

    A trie state is fully determined by the ordered ``(parent, char)``
    allocation history: replaying those pairs through
    :meth:`LZWDictionary.add` reproduces *every* derived structure —
    strings, subtree weights, children insertion order and the
    ``_active_bases`` insertion history — so a restored dictionary
    continues **byte-identically** under both encoder engines (children
    iteration order and active-base scan order are part of the output
    contract).

    The snapshot also names the configuration identity it was taken
    under (``char_bits``/``dict_size``/``entry_bits``); seeding a
    dictionary with a different shape is a typed
    :class:`~repro.reliability.errors.SnapshotError`, never silent
    corruption.
    """

    char_bits: int
    dict_size: int
    entry_bits: int
    #: ``(parent, char)`` per allocated code, in allocation order.
    entries: Tuple[Tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def base_codes(self) -> int:
        return 1 << self.char_bits

    def require_config(self, config: LZWConfig) -> None:
        """Raise :class:`SnapshotError` unless ``config`` matches."""
        for field in ("char_bits", "dict_size", "entry_bits"):
            want = getattr(config, field)
            have = getattr(self, field)
            if want != have:
                raise SnapshotError(
                    f"snapshot was taken under {field}={have}, "
                    f"stream decodes under {field}={want}",
                    field=field,
                    expected=want,
                    actual=have,
                )

    def to_bytes(self) -> bytes:
        """Serialize to the canonical ``LZWS`` framing (CRC-terminated)."""
        out = bytearray(
            _SNAP_HEADER.pack(
                SNAPSHOT_MAGIC,
                SNAPSHOT_VERSION,
                self.char_bits,
                self.dict_size,
                self.entry_bits,
                len(self.entries),
            )
        )
        pack = _SNAP_ENTRY.pack
        for parent, char in self.entries:
            out += pack(parent, char)
        out += _SNAP_CRC.pack(zlib.crc32(bytes(out)) & 0xFFFFFFFF)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DictionarySnapshot":
        """Parse and structurally validate a serialized snapshot.

        Every failure is a typed :class:`SnapshotError`; a snapshot
        that parses is still *replayed* by :meth:`LZWDictionary.
        restore`, which catches the semantic corruptions (duplicate
        children, width/capacity violations) a re-signed tamper can
        produce.
        """
        size = _SNAP_HEADER.size + _SNAP_CRC.size
        if len(data) < size:
            raise SnapshotError(
                f"snapshot truncated: {len(data)} bytes < minimum {size}",
                field="length",
                actual=len(data),
            )
        magic, version, char_bits, dict_size, entry_bits, count = _SNAP_HEADER.unpack(
            data[: _SNAP_HEADER.size]
        )
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotError(
                "bad snapshot magic", field="magic", actual=magic
            )
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {version}",
                field="version",
                actual=version,
            )
        expected_len = _SNAP_HEADER.size + count * _SNAP_ENTRY.size + _SNAP_CRC.size
        if len(data) != expected_len:
            raise SnapshotError(
                f"snapshot length {len(data)} != {expected_len} "
                f"implied by entry count {count}",
                field="length",
                expected=expected_len,
                actual=len(data),
            )
        (crc,) = _SNAP_CRC.unpack(data[-_SNAP_CRC.size:])
        actual_crc = zlib.crc32(data[: -_SNAP_CRC.size]) & 0xFFFFFFFF
        if crc != actual_crc:
            raise SnapshotError(
                "snapshot CRC mismatch",
                field="crc",
                expected=crc,
                actual=actual_crc,
            )
        n_base = 1 << char_bits
        if not 0 <= count <= max(0, dict_size - n_base):
            raise SnapshotError(
                f"snapshot entry count {count} exceeds capacity "
                f"(N={dict_size}, base codes {n_base})",
                field="count",
                actual=count,
            )
        entries = []
        offset = _SNAP_HEADER.size
        unpack = _SNAP_ENTRY.unpack_from
        for i in range(count):
            parent, char = unpack(data, offset)
            offset += _SNAP_ENTRY.size
            if parent >= n_base + i:
                raise SnapshotError(
                    f"snapshot entry {i} parent {parent} is not an "
                    f"earlier code (< {n_base + i})",
                    field=f"entries[{i}].parent",
                    actual=parent,
                )
            if char >= n_base:
                raise SnapshotError(
                    f"snapshot entry {i} character {char} out of range "
                    f"(< {n_base})",
                    field=f"entries[{i}].char",
                    actual=char,
                )
            entries.append((parent, char))
        return cls(char_bits, dict_size, entry_bits, tuple(entries))

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical bytes — the snapshot's *seed id*."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def strings(self) -> List[Tuple[int, ...]]:
        """Allocated-entry strings, in code order, validated by replay.

        Entry ``i`` is the full character string of code
        ``base_codes + i``.  Each entry is checked exactly as
        :meth:`LZWDictionary.add` would accept it — an earlier parent,
        an in-range character, a free code, a string that fits the
        memory word and no duplicate child — so a seed the encoder
        could never have held raises :class:`SnapshotError` instead of
        decoding.
        """
        n_base = self.base_codes
        max_chars = self.entry_bits // self.char_bits
        out: List[Tuple[int, ...]] = []
        seen = set()
        for i, (parent, char) in enumerate(self.entries):
            if not (0 <= parent < n_base + i and 0 <= char < n_base):
                raise SnapshotError(
                    f"snapshot entry {i} ({parent}, {char}) is out of range",
                    field=f"entries[{i}]",
                )
            prefix = (parent,) if parent < n_base else out[parent - n_base]
            if (
                n_base + i >= self.dict_size
                or len(prefix) >= max_chars
                or (parent, char) in seen
            ):
                raise SnapshotError(
                    f"snapshot entry {i} ({parent}, {char}) is not "
                    "replayable (duplicate child, entry width or "
                    "capacity violation)",
                    field=f"entries[{i}]",
                )
            seen.add((parent, char))
            out.append(prefix + (char,))
        return out


class LZWDictionary:
    """Trie over characters with code-indexed node arrays."""

    def __init__(self, config: LZWConfig) -> None:
        self.config = config
        n_base = config.base_codes
        self._max_chars = config.max_entry_chars
        # Node arrays, indexed by code.
        self._parent: List[int] = [-1] * n_base
        self._char: List[int] = list(range(n_base))
        self._nchars: List[int] = [1] * n_base
        self._weight: List[int] = [1] * n_base
        self._children: List[Dict[int, int]] = [dict() for _ in range(n_base)]
        self._strings: List[Tuple[int, ...]] = [(c,) for c in range(n_base)]
        # Base codes that have at least one descendant; keeps root-level
        # candidate scans proportional to distinct phrase heads, not 2**C_C.
        self._active_bases: set = set()

    # ------------------------------------------------------------------
    # Size / capacity
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._parent)

    @property
    def next_code(self) -> int:
        """Code the next allocation would receive."""
        return len(self._parent)

    @property
    def is_full(self) -> bool:
        """True once all ``N`` codes are allocated."""
        return len(self._parent) >= self.config.dict_size

    @property
    def allocated(self) -> int:
        """Number of non-base entries created so far."""
        return len(self._parent) - self.config.base_codes

    def can_extend(self, code: int) -> bool:
        """True when ``string(code) + one char`` still fits the memory word."""
        return self._nchars[code] + 1 <= self._max_chars

    def reset(self) -> None:
        """Flush every allocated entry, back to the base-code state.

        Used by the adaptive (``reset_on_full``) variant; counters and
        statistics reset with the entries.
        """
        n_base = self.config.base_codes
        del self._parent[n_base:]
        del self._char[n_base:]
        del self._nchars[n_base:]
        del self._strings[n_base:]
        self._weight = [1] * n_base
        self._children = [dict() for _ in range(n_base)]
        self._active_bases.clear()

    # ------------------------------------------------------------------
    # Node accessors
    # ------------------------------------------------------------------
    def string(self, code: int) -> Tuple[int, ...]:
        """Uncompressed character string of ``code`` (tuple of char values)."""
        return self._strings[code]

    def nchars(self, code: int) -> int:
        """Length of ``string(code)`` in characters."""
        return self._nchars[code]

    def string_bits(self, code: int) -> int:
        """Length of ``string(code)`` in bits."""
        return self._nchars[code] * self.config.char_bits

    def weight(self, code: int) -> int:
        """Number of codes in the subtree rooted at ``code`` (incl. itself)."""
        return self._weight[code]

    def children(self, code: int) -> Dict[int, int]:
        """Mapping from concrete character to child code (live view)."""
        return self._children[code]

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def lookup_child(self, code: int, char: int) -> Optional[int]:
        """Exact child lookup for a fully specified character."""
        return self._children[code].get(char)

    def compatible_children(
        self, code: int, value: int, care: int
    ) -> List[Tuple[int, int]]:
        """Children of ``code`` compatible with the ternary character masks.

        ``value``/``care`` are one character's masks (``value`` zero
        wherever ``care`` is).  Returns ``(concrete_char, child_code)``
        pairs, unordered.  A child keyed by concrete character ``k`` is
        compatible iff ``k`` agrees with every specified bit.
        """
        kids = self._children[code]
        if care == (1 << self.config.char_bits) - 1:
            child = kids.get(value)
            return [(value, child)] if child is not None else []
        return [(k, c) for k, c in kids.items() if (k & care) == value]

    def compatible_bases(self, value: int, care: int) -> List[int]:
        """Base codes compatible with a ternary character worth considering.

        All ``2**x_count`` concrete fills of the character are
        compatible base codes, but fills with no descendants are
        interchangeable for matching purposes, so the scan returns every
        compatible *active* base (one with children) plus the canonical
        zero-fill as a fallback candidate.
        """
        out = [b for b in self._active_bases if (b & care) == value]
        zero_fill = value  # X bits resolved to 0
        if zero_fill not in out:
            out.append(zero_fill)
        return out

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def add(self, code: int, char: int) -> Optional[int]:
        """Allocate ``string(code) + char`` if capacity and width allow.

        Returns the new code, or ``None`` when the dictionary is full,
        the entry would exceed the memory word, or the child already
        exists (no duplicate is created).
        """
        if self.is_full or not self.can_extend(code):
            return None
        if char in self._children[code]:
            return None
        new_code = len(self._parent)
        self._parent.append(code)
        self._char.append(char)
        self._nchars.append(self._nchars[code] + 1)
        self._weight.append(1)
        self._children.append(dict())
        self._strings.append(self._strings[code] + (char,))
        self._children[code][char] = new_code
        # Propagate subtree weights up to (and including) the base code.
        node = code
        while node != -1:
            self._weight[node] += 1
            node = self._parent[node]
        base = self._strings[new_code][0]
        self._active_bases.add(base)
        return new_code

    def phrase_boundary(
        self, code: int, head: int, recorder: Recorder = NULL_RECORDER
    ) -> bool:
        """The encoder's step between phrase ``code`` and head ``head``.

        Allocates ``string(code) + head`` when capacity and width allow.
        Under ``reset_on_full`` the allocation that would fill the
        dictionary flushes it instead; the decoder derives the same
        trigger from its allocation counter, so no clear code is needed
        in the stream.  Emits the step's ``dict.*`` counter and returns
        True when the dictionary was reset.
        """
        cfg = self.config
        if (
            cfg.reset_on_full
            and self.next_code == cfg.dict_size - 1
            and self.can_extend(code)
        ):
            self.reset()
            if recorder.enabled:
                recorder.incr(ev.DICT_RESETS)
            return True
        added = self.add(code, head)
        if recorder.enabled:
            if added is not None:
                recorder.incr(ev.DICT_ALLOCS)
            elif self.is_full:
                recorder.incr(ev.DICT_FULL_SKIPS)
            elif not self.can_extend(code):
                recorder.incr(ev.DICT_CMDATA_TRUNCATIONS)
        return False

    # ------------------------------------------------------------------
    # Snapshot / restore (warm-dictionary seeding)
    # ------------------------------------------------------------------
    def snapshot(self) -> DictionarySnapshot:
        """Capture the allocation history as a :class:`DictionarySnapshot`.

        O(allocated); the returned value is immutable and independent
        of this dictionary's further evolution.
        """
        n_base = self.config.base_codes
        entries = tuple(zip(self._parent[n_base:], self._char[n_base:]))
        return DictionarySnapshot(
            self.config.char_bits,
            self.config.dict_size,
            self.config.entry_bits,
            entries,
        )

    def restore(self, snapshot: DictionarySnapshot) -> None:
        """Replay ``snapshot`` into this freshly constructed dictionary.

        Replaying the ``(parent, char)`` history through :meth:`add`
        rebuilds every derived structure — including the children
        insertion order and the ``_active_bases`` insertion history the
        encoders' candidate scans iterate — so a restored dictionary is
        indistinguishable from one that lived through the original
        encode.  Raises :class:`SnapshotError` on a config mismatch or
        when an entry is not replayable (the checks of
        :meth:`DictionarySnapshot.strings`).
        """
        if self.allocated:
            raise SnapshotError(
                "restore() requires a freshly constructed dictionary",
                actual=self.allocated,
            )
        snapshot.require_config(self.config)
        snapshot.strings()
        for parent, char in snapshot.entries:
            self.add(parent, char)

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(code, string)`` for every allocated (non-base) entry."""
        for code in range(self.config.base_codes, len(self._parent)):
            yield code, self._strings[code]

    def longest_entry_chars(self) -> int:
        """Longest allocated entry, in characters (0 when none allocated)."""
        n_base = self.config.base_codes
        if len(self._parent) == n_base:
            return 0
        return max(self._nchars[n_base:])

    def longest_entry_bits(self) -> int:
        """Longest allocated entry, in bits (Table 6's "longest string")."""
        return self.longest_entry_chars() * self.config.char_bits
