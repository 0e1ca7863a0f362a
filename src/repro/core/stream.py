"""Bounded-memory incremental LZW codec (the streaming state machines).

One-shot :func:`repro.core.compress` materialises the whole input, the
whole character list and the whole code stream.  This module provides
the same algorithm as a pair of incremental state machines that consume
and emit bounded chunks:

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

One-shot ``engine="reference"`` encoding is ``feed(all) + finalize()``
on a :class:`StreamEncoder`, so the reference encode loop also exists
exactly once.

Byte-identity under chunking
----------------------------
The only part of the encoder whose decision at character ``i`` depends
on characters *after* ``i`` is the ``"lookahead"`` policy: a decision
at index ``i`` inspects at most ``chars[i .. i+W-1]`` (window ``W``,
per-decision node budget reset in ``ChildSelector._lookahead_best``),
**and** returns shallower continuation depths when the buffer ends
early.  The streaming encoder therefore only commits the decision at
index ``i`` once at least ``W`` characters from ``i`` are buffered —
or the input is finalized, at which point the buffer end *is* the true
end of the stream.  With that single rule every decision sees exactly
the window the one-shot encoder saw, so the emitted codes are equal.

Memory bounds
-------------
The encoder retains only the characters of the current (uncommitted)
phrase plus the ``W``-character slack; a phrase never exceeds
``max_entry_chars`` (trie depth is capped by ``C_MDATA``), so peak
retention is ``O(max_entry_chars + W + chunk)`` characters regardless
of input length.  The dictionary is capped at ``N`` codes as always.
The decoder retains only the dictionary and the previous expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..bitstream import TernaryVector, pad_length
from ..observability import NULL_RECORDER, Recorder
from ..observability import schema as ev
from ..reliability.errors import DecodeError, SnapshotError
from .config import LZWConfig
from .dictionary import DictionarySnapshot, LZWDictionary
from .dontcare import ChildSelector

__all__ = ["EncodeStats", "StreamDecoder", "StreamEncoder"]


@dataclass(frozen=True)
class EncodeStats:
    """Dictionary and phrase statistics gathered during one encoding run."""

    entries_allocated: int
    dictionary_full: bool
    longest_entry_chars: int
    longest_phrase_chars: int
    total_chars: int


def _record_phrase(
    rec: Recorder, chars: List[TernaryVector], start: int, end: int
) -> None:
    """Record one completed phrase ``chars[start:end]`` (recording only)."""
    xbits = sum(chars[j].x_count for j in range(start, end))
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
        self._selector = ChildSelector(self.dictionary, self.config)
        # How many characters from the decision index must be visible
        # before a decision is safe to commit pre-finalize (see module
        # docstring).  Non-lookahead policies read only chars[i].
        self._slack = (
            self.config.lookahead if self.config.policy == "lookahead" else 1
        )
        self._chars: List[TernaryVector] = []
        self._trimmed = 0  # stream index of _chars[0]
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
        return len(self._chars)

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
        full = (len(combined) // char_bits) * char_bits
        if full:
            new_chars = combined[:full].chunks(char_bits)
            self._chars.extend(new_chars)
            self._total_chars += len(new_chars)
            if self.recorder.enabled:
                self.recorder.incr(ev.ENCODE_CHARS, len(new_chars))
            self._pending = combined[full:]
            return self._drain(final=False)
        self._pending = combined
        return []

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
        if len(self._pending):
            pad = pad_length(len(self._pending), self.config.char_bits)
            self._chars.append(self._pending + TernaryVector.xs(pad))
            self._total_chars += 1
            if recording:
                rec.incr(ev.ENCODE_CHARS, 1)
            self._pending = TernaryVector.xs(0)
        codes = self._drain(final=True)
        if self._started:
            tail = len(self._chars) - self._phrase_start
            codes.append(self._buffer)
            self._expansions.append(tail)
            self._codes_emitted += 1
            if tail > self._longest_phrase:
                self._longest_phrase = tail
            if recording:
                _record_phrase(rec, self._chars, self._phrase_start, len(self._chars))
        if self._total_chars and recording:
            rec.incr(ev.ENCODE_CODES, self._codes_emitted)
            rec.observe(
                ev.HIST_CODES_PER_WIDTH, self.config.code_bits, self._codes_emitted
            )
        self._chars.clear()
        return codes

    # ------------------------------------------------------------------
    # The committed-decision loop
    # ------------------------------------------------------------------
    def _drain(self, final: bool) -> List[int]:
        chars = self._chars
        navail = len(chars)
        selector = self._selector
        dictionary = self.dictionary
        # Hoisted once: with the default NullRecorder the whole run pays
        # this single attribute read, and every event site below is one
        # local-bool branch (bench_overhead.py holds it to <= 5%).
        rec = self.recorder
        recording = rec.enabled
        cancel = self.cancel
        cancelling = cancel is not None
        codes: List[int] = []
        expansions = self._expansions

        if not self._started:
            if not navail or (navail < self._slack and not final):
                return codes
            if cancelling:
                cancel.check()
            self._buffer = selector.choose_base(chars, 0)
            if self._link is not None:
                # Warm continuation: replay the cross-boundary step the
                # serial encoder ran between the previous session's last
                # phrase and this one — after the head is chosen, before
                # any character is consumed.
                dictionary.phrase_boundary(self._link, self._buffer, rec)
                self._link = None
            self._started = True
            self._pos = 1

        offset = self._trimmed
        buffer = self._buffer
        phrase_start = self._phrase_start
        longest = self._longest_phrase
        pos = self._pos
        # A decision commits once ``slack`` characters from it are
        # buffered, or at the true end of the stream.
        stop = navail if final else navail - self._slack + 1
        while pos < stop:
            if cancelling and not ((offset + pos) & 1023):
                cancel.check()
            choice = selector.choose_child(buffer, chars, pos)
            if choice is not None:
                buffer = choice[1]
                pos += 1
                continue
            # Phrase boundary: emit the buffer code, run the
            # reset-or-allocate step and restart the phrase at a
            # concrete fill of chars[pos].
            codes.append(buffer)
            expansions.append(pos - phrase_start)
            if pos - phrase_start > longest:
                longest = pos - phrase_start
            if recording:
                _record_phrase(rec, chars, phrase_start, pos)
            head = selector.choose_base(chars, pos)
            dictionary.phrase_boundary(buffer, head, rec)
            buffer = head
            phrase_start = pos
            pos += 1
        self._buffer = buffer
        self._longest_phrase = longest
        self._codes_emitted += len(codes)

        # Trim the committed prefix: decisions only ever read forward
        # from the current index, and phrase recording reads back only
        # to phrase_start, so everything before it is dead.  Phrase
        # length is capped by max_entry_chars, which bounds retention.
        if phrase_start:
            del chars[:phrase_start]
            self._trimmed += phrase_start
            pos -= phrase_start
            phrase_start = 0
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
