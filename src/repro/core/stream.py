"""Bounded-memory incremental LZW codec (the streaming state machines).

One-shot :func:`repro.core.compress` materialises the whole input and
the whole code stream.  This module provides the same algorithm as a
pair of incremental state machines that consume and emit bounded
chunks:

* :class:`StreamEncoder` — feed ternary chunks, collect codes as they
  are committed, ``finalize()`` to flush the tail.  Output is
  **byte-identical** to the one-shot encoder for the same input and
  configuration (and therefore to both engines, whose equivalence the
  differential conformance suite locks).
* :class:`StreamDecoder` — push codes one at a time, collect character
  expansions.  It is the library's only LZW decode loop: the one-shot
  decoders of :mod:`repro.core.decoder` and the salvage decoder are
  thin wrappers over it.  It also answers
  :meth:`StreamDecoder.snapshot` — the
  :class:`~repro.core.dictionary.DictionarySnapshot` a resumed session
  seeds from.

One-shot encoding under either engine is ``feed(all) + finalize()`` on
a :class:`StreamEncoder`, so the encode loop exists exactly once.  The
engine only picks the *matcher* the loop consults, through three calls:
``choose_base(i)``, ``choose_child(code, i)`` and ``boundary(code,
head)`` — the reference :class:`~repro.core.dontcare.ChildSelector` or
the bit-parallel :func:`~repro.core.fastpath.fast_matcher`.  The
fully-specified exact-child shortcut is common to both and stays
inline in the loop.

Byte-identity under chunking
----------------------------
The only part of the encoder whose decision at character ``i`` depends
on characters *after* ``i`` is the ``"lookahead"`` policy: a decision
at index ``i`` inspects at most characters ``i .. i+W-1`` (window
``W``, per-decision node budget), **and** returns shallower
continuation depths when the buffer ends early.  The streaming encoder
therefore only commits the decision at index ``i`` once at least ``W``
characters from ``i`` are buffered — or the input is finalized, at
which point the buffer end *is* the true end of the stream.  With that
single rule every decision sees exactly the window the one-shot encoder
saw, so the emitted codes are equal, whichever matcher decides.  The
fast matcher's rolling ``RV``/``RC`` windows are built under the same
rule, only for committed indices.

Memory bounds
-------------
The encoder retains only the characters of the current (uncommitted)
phrase plus the ``W``-character slack and at most one block of newly
fed characters (a chunk enters the window ``_FEED_BLOCK`` characters at
a time, a one-shot ``feed(all)`` too); a phrase never exceeds
``max_entry_chars`` (trie depth is capped by ``C_MDATA``), so peak
retention is ``O(max_entry_chars + W + block)`` characters regardless
of input length.  The dictionary is capped at
``N`` codes as always, and the fast matcher's memo tables and caches at
:data:`~repro.core.fastpath.CACHE_LIMIT` entries each.  The decoder
retains only the dictionary and the previous expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..bitstream import TernaryVector, pack_fields, unpack_fields
from ..observability import NULL_RECORDER, Recorder
from ..observability import schema as ev
from ..reliability.errors import DecodeError, SnapshotError
from .config import LZWConfig
from .dictionary import DictionarySnapshot, LZWDictionary
from .dontcare import ChildSelector
from .fastpath import _popcount, fast_matcher, resolve_engine

__all__ = ["EncodeStats", "StreamDecoder", "StreamEncoder"]

#: Characters :meth:`StreamEncoder.feed` adds to the window at a time (a
#: multiple of 8, so every block starts on a byte boundary).
_FEED_BLOCK = 8192


@dataclass(frozen=True)
class EncodeStats:
    """Dictionary and phrase statistics gathered during one encoding run."""

    entries_allocated: int
    dictionary_full: bool
    longest_entry_chars: int
    longest_phrase_chars: int
    total_chars: int


def _record_phrase(
    rec: Recorder, char_bits: int, cares: List[int], start: int, end: int
) -> None:
    """Record one completed phrase ``start:end`` (recording only).

    Every character is ``char_bits`` wide (the final one is X-padded,
    and padding bits have zero care), so a character's X count is
    ``char_bits - popcount(care)``.
    """
    xbits = 0
    for j in range(start, end):
        xbits += char_bits - _popcount(cares[j])
    rec.observe(ev.HIST_PHRASE_LEN, end - start)
    rec.observe(ev.HIST_XBITS_PER_PHRASE, xbits)
    rec.incr(ev.ENCODE_XBITS, xbits)


class StreamEncoder:
    """Incremental don't-care-aware LZW encoder.

    Usage::

        enc = StreamEncoder(config)
        for chunk in chunks:          # TernaryVector pieces, any sizes
            codes.extend(enc.feed(chunk))
        codes.extend(enc.finalize())

    ``codes`` then equals ``compress(concat(chunks), config)``'s code
    sequence exactly.  ``seed``/``link`` start from a warm dictionary
    (the resume path: a crashed streaming session continues from the
    salvaged journal's derived snapshot and last code, byte-identical
    to the uninterrupted encode — the same contract the pipelined-wave
    shards rely on).

    ``config.engine`` picks the matcher once, at construction: the fast
    matcher (``"fast"``/``"auto"``) or the reference
    :class:`~repro.core.dontcare.ChildSelector`.

    ``recorder`` and ``cancel`` behave as in :class:`~repro.core.
    encoder.LZWEncoder`: the same ``encode.*``/``dict.*`` counters are
    emitted (identical totals to the one-shot run) and the cancellation
    token is checked once when encoding starts and then every 1024
    consumed characters.
    """

    def __init__(
        self,
        config: Optional[LZWConfig] = None,
        recorder: Optional[Recorder] = None,
        cancel: Optional[object] = None,
        seed: Optional[DictionarySnapshot] = None,
        link: Optional[int] = None,
    ) -> None:
        self.config = config or LZWConfig()
        self.dictionary = LZWDictionary(self.config)
        if seed is not None:
            self.dictionary.restore(seed)
        if link is not None and not 0 <= link < self.dictionary.next_code:
            raise SnapshotError(
                f"seed link {link} is not a live code in the seeded "
                f"dictionary (next free {self.dictionary.next_code})",
                actual=link,
                expected=self.dictionary.next_code,
            )
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.cancel = cancel
        self._link = link
        # How many characters from the decision index must be visible
        # before a decision is safe to commit pre-finalize (see module
        # docstring).  Non-lookahead policies read only character i.
        self._slack = (
            self.config.lookahead if self.config.policy == "lookahead" else 1
        )
        # The character window: per-character masks from stream index
        # ``_trimmed`` on, and — for the fast matcher under the
        # lookahead policy — the rolling windows RV/RC, filled only for
        # committed decision indices (see ``_roll``).
        self._values: List[int] = []
        self._cares: List[int] = []
        self._rv: Optional[List[int]] = None
        self._rc: Optional[List[int]] = None
        if resolve_engine(self.config.engine) == "fast":
            if self.config.policy == "lookahead":
                self._rv = []
                self._rc = []
            self._matcher = fast_matcher(
                self.dictionary,
                self.config,
                self.recorder,
                self._values,
                self._cares,
                self._rv,
                self._rc,
            )
        else:
            self._matcher = ChildSelector(
                self.dictionary, self.config, self._values, self._cares, self.recorder
            )
        self._trimmed = 0  # stream index of _values[0]
        self._pending: TernaryVector = TernaryVector.xs(0)
        self._pos = 0
        self._phrase_start = 0
        self._buffer: Optional[int] = None
        self._started = False
        self._finished = False
        self._original_bits = 0
        self._total_chars = 0
        self._codes_emitted = 0
        self._longest_phrase = 0
        self._expansions: List[int] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def original_bits(self) -> int:
        """Total bits fed so far (the stream's ``original_bits``)."""
        return self._original_bits

    @property
    def finished(self) -> bool:
        """True once :meth:`finalize` has run."""
        return self._finished

    @property
    def buffered_chars(self) -> int:
        """Characters currently retained (memory-bound diagnostics)."""
        return len(self._values)

    @property
    def expansions(self) -> List[int]:
        """Character count of each code the last feed()/finalize() returned."""
        return self._expansions

    def stats(self) -> EncodeStats:
        """Statistics of the completed run (call after :meth:`finalize`)."""
        if not self._finished:
            raise RuntimeError("finalize() has not been called yet")
        return EncodeStats(
            entries_allocated=self.dictionary.allocated,
            dictionary_full=self.dictionary.is_full,
            longest_entry_chars=self.dictionary.longest_entry_chars(),
            longest_phrase_chars=self._longest_phrase,
            total_chars=self._total_chars,
        )

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(self, chunk: TernaryVector) -> List[int]:
        """Consume one input chunk; return the codes committed by it."""
        if self._finished:
            raise RuntimeError("feed() after finalize()")
        self._expansions = []
        if not len(chunk):
            return []
        self._original_bits += len(chunk)
        combined = self._pending + chunk if len(self._pending) else chunk
        char_bits = self.config.char_bits
        count = len(combined) // char_bits
        self._pending = combined[count * char_bits :]
        if not count:
            return []
        self._total_chars += count
        if self.recorder.enabled:
            self.recorder.incr(ev.ENCODE_CHARS, count)
        # Characters enter the window one block at a time, so even a
        # one-shot feed(all) keeps only a block-sized window.  The masks
        # are split into bytes once, which keeps the blocking linear.
        size = (len(combined) + 7) >> 3
        value_bytes = combined.value_mask.to_bytes(size, "little")
        care_bytes = combined.care_mask.to_bytes(size, "little")
        step = _FEED_BLOCK * char_bits >> 3
        codes: List[int] = []
        for first in range(0, count, _FEED_BLOCK):
            n = min(_FEED_BLOCK, count - first)
            offset = first * char_bits >> 3
            self._trim()
            for window, masks in (
                (self._values, value_bytes),
                (self._cares, care_bytes),
            ):
                block = int.from_bytes(masks[offset : offset + step], "little")
                window.extend(unpack_fields(block, n, char_bits))
            codes += self._drain(final=False)
        return codes

    def finalize(self) -> List[int]:
        """Flush the tail (padding the final partial character with X).

        Returns the remaining codes; after this the concatenation of
        every ``feed()`` return value plus this one is the one-shot
        code sequence.
        """
        if self._finished:
            raise RuntimeError("finalize() called twice")
        self._finished = True
        self._expansions = []
        rec = self.recorder
        recording = rec.enabled
        values = self._values
        cares = self._cares
        if len(self._pending):
            # The X padding bits are simply absent from both masks.
            values.append(self._pending.value_mask)
            cares.append(self._pending.care_mask)
            self._total_chars += 1
            if recording:
                rec.incr(ev.ENCODE_CHARS, 1)
            self._pending = TernaryVector.xs(0)
        codes = self._drain(final=True)
        if self._started:
            tail = len(values) - self._phrase_start
            codes.append(self._buffer)
            self._expansions.append(tail)
            self._codes_emitted += 1
            if tail > self._longest_phrase:
                self._longest_phrase = tail
            if recording:
                _record_phrase(
                    rec, self.config.char_bits, cares, self._phrase_start, len(values)
                )
        if self._total_chars and recording:
            rec.incr(ev.ENCODE_CODES, self._codes_emitted)
            rec.observe(
                ev.HIST_CODES_PER_WIDTH, self.config.code_bits, self._codes_emitted
            )
        # Release the window and the matcher's tables; the dictionary
        # stays for stats() and inspection.
        values.clear()
        cares.clear()
        self._rv = self._rc = None
        self._matcher = None
        return codes

    # ------------------------------------------------------------------
    # The committed-decision loop
    # ------------------------------------------------------------------
    def _trim(self) -> None:
        """Drop the committed prefix before the window grows again.

        Decisions only ever read forward from the current index, and
        phrase recording reads back only to the phrase start, so
        everything before it is dead.  Phrase length is capped by
        ``max_entry_chars``, which bounds retention.
        """
        dead = self._phrase_start
        if not dead:
            return
        del self._values[:dead]
        del self._cares[:dead]
        if self._rv is not None:
            del self._rv[:dead]
            del self._rc[:dead]
        self._trimmed += dead
        self._pos -= dead
        self._phrase_start = 0

    def _roll(self, stop: int) -> None:
        """Extend RV/RC through decision index ``stop - 1``.

        ``RV[i]``/``RC[i]`` pack characters ``i .. i+K`` (``K = W - 1``),
        first character in the low bits.  A decision only commits once
        ``W`` characters from it are buffered or the input is finalized,
        so characters missing from the window are past the true end of
        the stream: they are absent from both masks, and ``RC`` carries
        their count above the ``K + 1`` characters, so an entry also
        says how deep the lookahead can go.  Each entry rolls from the
        previous one in O(1).
        """
        values = self._values
        cares = self._cares
        rv_list = self._rv
        rc_list = self._rc
        char_bits = self.config.char_bits
        K = self._slack - 1
        top = K * char_bits
        navail = len(values)
        j = len(rv_list)
        if j:
            rv = rv_list[-1]
            rc = rc_list[-1]
        else:
            # The window "before" index 0: characters 0 .. K-1 one
            # place up, so the first roll shifts them into place.
            rv = pack_fields(values[:K], char_bits) << char_bits
            rc = pack_fields(cares[:K], char_bits) << char_bits
        end = stop + K  # one past the last character the windows cover
        for nxt in range(j + K, min(end, navail)):
            rv = (rv >> char_bits) | (values[nxt] << top)
            rc = (rc >> char_bits) | (cares[nxt] << top)
            rv_list.append(rv)
            rc_list.append(rc)
        short = top + char_bits
        for nxt in range(max(j + K, navail), end):
            rv >>= char_bits
            rc >>= char_bits
            rv_list.append(rv)
            rc_list.append(rc | (nxt - navail + 1) << short)

    def _drain(self, final: bool) -> List[int]:
        values = self._values
        cares = self._cares
        navail = len(values)
        # A decision commits once ``slack`` characters from it are
        # buffered, or at the true end of the stream.
        stop = navail if final else navail - self._slack + 1
        codes: List[int] = []
        if stop <= self._pos:
            return codes
        if self._rv is not None:
            self._roll(stop)
        matcher = self._matcher
        choose_base = matcher.choose_base
        choose_child = matcher.choose_child
        boundary = matcher.boundary
        dictionary = self.dictionary
        char_bits = self.config.char_bits
        fullchar = (1 << char_bits) - 1
        # Hoisted once: with the default NullRecorder the whole run pays
        # this single attribute read, and every event site below is one
        # local-bool branch (bench_overhead.py holds it to <= 5%).
        rec = self.recorder
        recording = rec.enabled
        cancel = self.cancel
        cancelling = cancel is not None
        expansions = self._expansions

        if not self._started:
            if cancelling:
                cancel.check()
            self._buffer = choose_base(0)
            if self._link is not None:
                # Warm continuation: replay the cross-boundary step the
                # serial encoder ran between the previous session's last
                # phrase and this one — after the head is chosen, before
                # any character is consumed.
                boundary(self._link, self._buffer)
                self._link = None
            self._started = True
            self._pos = 1

        offset = self._trimmed
        buffer = self._buffer
        phrase_start = self._phrase_start
        longest = self._longest_phrase
        pos = self._pos
        # reset() rebinds the dictionary's child maps, so they are
        # re-fetched after every boundary step.
        children = dictionary._children
        while pos < stop:
            if cancelling and not ((offset + pos) & 1023):
                cancel.check()
            if cares[pos] == fullchar:
                # Fully specified: the only candidate is the exact child.
                child = children[buffer].get(values[pos])
            else:
                child = choose_child(buffer, pos)
            if child is not None:
                buffer = child
                pos += 1
                continue
            # Phrase boundary: emit the buffer code, run the
            # reset-or-allocate step and restart the phrase at a
            # concrete fill of character pos.
            codes.append(buffer)
            expansions.append(pos - phrase_start)
            if pos - phrase_start > longest:
                longest = pos - phrase_start
            if recording:
                _record_phrase(rec, char_bits, cares, phrase_start, pos)
            head = choose_base(pos)
            boundary(buffer, head)
            children = dictionary._children
            buffer = head
            phrase_start = pos
            pos += 1
        self._buffer = buffer
        self._longest_phrase = longest
        self._codes_emitted += len(codes)
        self._pos = pos
        self._phrase_start = phrase_start
        return codes


class StreamDecoder:
    """The LZW decoder: the paper's Figure 5 FSM, one code per :meth:`push`.

    :meth:`push` consumes one code and returns its character expansion,
    rebuilding the dictionary exactly as the encoder built it —
    honouring the same capacity (``N``) and entry-width (``C_MDATA``)
    bounds, the adaptive reset, and the "code names the entry being
    created" case (Figure 4f, classic LZW's KwKwK).  A failing code
    raises :class:`~repro.reliability.errors.DecodeError` *before* it
    contributes output, carrying the code index, its bit offset in the
    packed payload and the dictionary state, so a caller that stops at
    the first error holds exactly the longest decodable prefix.

    The state is light: each allocated entry's string, the
    allocation-ordered ``(parent, char)`` entries and the set of
    existing child edges.  :meth:`snapshot` is built from the entries,
    so at any code boundary it is the
    :class:`DictionarySnapshot` the encoder held at that point — the
    per-frame digests of the v5 streaming container, the crash-resume
    seed and the pipelined-wave chain seed all come from it.

    ``seed`` pre-fills the dictionary (validated by replay, as
    :meth:`LZWDictionary.restore` does; the first code may then be any
    live code).  ``link`` replays the cross-segment phrase boundary of a
    pipelined wave: the encoder's previous phrase ended at code
    ``link`` in the *previous* segment, so the first pushed code
    performs the boundary allocation ``string(link) + first_char``
    exactly as an uninterrupted serial decode would have.
    """

    def __init__(
        self,
        config: LZWConfig,
        recorder: Optional[Recorder] = None,
        seed: Optional[DictionarySnapshot] = None,
        link: Optional[int] = None,
    ) -> None:
        self.config = config
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._n_base = config.base_codes
        self._capacity = config.dict_size
        self._max_chars = config.max_entry_chars
        self._reset_on_full = config.reset_on_full
        # Allocated entries only; base code ``c`` decodes to ``(c,)``.
        # ``_children`` mirrors the encoder trie's child edges:
        # ``LZWDictionary.add`` is a no-op on an existing child, and at a
        # link boundary the pair ``(link, head)`` can already exist (the
        # segment cut forced a phrase break mid-match), so the decoder
        # must skip exactly the allocations the encoder skipped.
        self._strings: List[Tuple[int, ...]] = []
        self._entries: List[Tuple[int, int]] = []
        self._children = set()
        self._seeded = seed is not None
        if seed is not None:
            seed.require_config(config)
            self._strings = seed.strings()
            self._entries = list(seed.entries)
            self._children = set(seed.entries)
        self._prev: Optional[Tuple[int, ...]] = None
        self._prev_code: Optional[int] = None
        self._index = 0
        self._chars_decoded = 0
        if link is not None:
            if not 0 <= link < self._next_code:
                raise self._error(
                    link,
                    f"seed link {link} is not a live code in the seeded "
                    f"dictionary (next free {self._next_code})",
                )
            self._prev = (
                (link,) if link < self._n_base else self._strings[link - self._n_base]
            )
            self._prev_code = link

    @property
    def codes_decoded(self) -> int:
        """Number of codes pushed so far."""
        return self._index

    @property
    def chars_decoded(self) -> int:
        """Number of characters produced so far."""
        return self._chars_decoded

    @property
    def _next_code(self) -> int:
        return self._n_base + len(self._strings)

    def _error(self, code: int, message: str) -> DecodeError:
        return DecodeError(
            message,
            code_index=self._index,
            code=code,
            bit_offset=self._index * self.config.code_bits,
            dict_next_code=self._next_code,
            chars_decoded=self._chars_decoded,
        )

    def snapshot(self) -> DictionarySnapshot:
        """Dictionary state at the current code boundary (seed/digest)."""
        cfg = self.config
        return DictionarySnapshot(
            cfg.char_bits, cfg.dict_size, cfg.entry_bits, tuple(self._entries)
        )

    def push(self, code: int) -> Tuple[int, ...]:
        """Decode one code; returns its expansion, raises DecodeError."""
        rec = self.recorder
        recording = rec.enabled
        strings = self._strings
        n_base = self._n_base
        next_code = n_base + len(strings)
        prev = self._prev
        if prev is None:
            # First code of a cold or blob-seeded stream: no boundary
            # allocation precedes it.
            if not 0 <= code < next_code:
                raise self._error(
                    code,
                    f"first code {code} not in seeded dictionary "
                    f"(next free {next_code})"
                    if self._seeded
                    else f"first code {code} must be a base code (< {n_base})",
                )
            current = (code,) if code < n_base else strings[code - n_base]
        else:
            prev_code = self._prev_code
            children = self._children
            # Will the encoder have allocated string(prev)+head after
            # emitting prev?  (Arithmetic on the string length: prev_code
            # may predate an adaptive reset.)
            capacity = self._capacity
            will_add = next_code < capacity and len(prev) < self._max_chars
            if will_add and self._reset_on_full and next_code == capacity - 1:
                # Adaptive variant: the filling allocation flushes
                # instead (same deterministic trigger as the encoder).
                strings.clear()
                self._entries.clear()
                children.clear()
                next_code = n_base
                will_add = False
                if recording:
                    rec.incr(ev.DECODE_RESETS)
            if 0 <= code < next_code:
                current = (code,) if code < n_base else strings[code - n_base]
            elif (
                code == next_code
                and will_add
                and (prev_code, prev[0]) not in children
            ):
                # KwKwK (Figure 4f): the code names the entry being
                # created — its string is prev + first character of prev.
                current = prev + (prev[0],)
            else:
                raise self._error(
                    code, f"code {code} not yet in dictionary (next free {next_code})"
                )
            if will_add:
                edge = (prev_code, current[0])
                if edge not in children:
                    children.add(edge)
                    self._entries.append(edge)
                    strings.append(prev + (current[0],))
                    if recording:
                        rec.incr(ev.DECODE_DICT_ENTRIES)
        if recording:
            rec.incr(ev.DECODE_CODES)
            rec.incr(ev.DECODE_CHARS, len(current))
        self._prev = current
        self._prev_code = code
        self._index += 1
        self._chars_decoded += len(current)
        return current
