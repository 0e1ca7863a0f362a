"""Don't-care assignment strategies.

The paper reports (Section 5) that every *pre-processing* assignment of
the X bits it tried — filling before running LZW — topped out at 40–60%
compression, and that the published results required assigning the X
bits *while* the LZW encoder runs ("dynamic sliding window").  This
module provides both families:

* **static fills** (:func:`static_fill`) — resolve every X up front with
  a simple rule; used as the ablation strawmen;
* **dynamic selection heuristics** — called by the encoder at each step
  to pick, among dictionary children compatible with the next ternary
  character, the concrete assignment to commit to.  The ``"lookahead"``
  heuristic is the paper's sliding window: a bounded search over the
  next ``W`` characters choosing the child with the longest compatible
  continuation.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..bitstream import TernaryVector
from ..observability import NULL_RECORDER, Recorder
from .config import LZWConfig
from .dictionary import LZWDictionary

__all__ = ["STATIC_FILLS", "static_fill", "ChildSelector"]

#: Static pre-assignment rules accepted by :func:`static_fill`.
STATIC_FILLS = ("zero", "one", "repeat", "random")


def static_fill(
    stream: TernaryVector,
    rule: str = "zero",
    seed: Optional[int] = None,
) -> TernaryVector:
    """Resolve every X bit of ``stream`` up front with a fixed rule.

    ``"zero"``/``"one"`` fill with a constant, ``"repeat"`` extends the
    most recent specified bit (minimising transitions, the natural
    pre-fill for run-length coders) and ``"random"`` flips a seeded coin
    per X bit.
    """
    if rule == "zero":
        return stream.fill(0)
    if rule == "one":
        return stream.fill(1)
    if rule == "repeat":
        return stream.fill_repeat_last(0)
    if rule == "random":
        return stream.fill_random(random.Random(seed))
    raise ValueError(f"unknown static fill rule {rule!r}; pick from {STATIC_FILLS}")


class ChildSelector:
    """The reference matcher: dynamic (in-loop) don't-care assignment.

    One instance is created per encoding run over the encoder's
    character window — ``values``/``cares``, the per-character masks,
    which the encoder owns and trims in place — and it owns the
    lookahead node budget bookkeeping.  Its three calls are the seam of
    the encode loop (:class:`repro.core.stream.StreamEncoder`), which
    the fast matcher (:func:`repro.core.fastpath.fast_matcher`) offers
    too:

    * :meth:`choose_child` — the current phrase ``code`` may extend by
      the next ternary character; pick which compatible child to follow
      (committing that child's concrete character as the X assignment),
      or return ``None`` to signal a dictionary miss.
    * :meth:`choose_base` — a new phrase starts at a ternary character;
      pick the concrete single-character base code to restart from.
    * :meth:`boundary` — the phrase-boundary reset-or-allocate step.
    """

    def __init__(
        self,
        dictionary: LZWDictionary,
        config: LZWConfig,
        values: List[int],
        cares: List[int],
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self._dict = dictionary
        self._config = config
        self._values = values
        self._cares = cares
        self._recorder = recorder
        self._policy = config.policy
        self._window = config.lookahead
        self._budget_limit = config.lookahead_budget
        self._budget = 0

    # ------------------------------------------------------------------
    # Decision sites
    # ------------------------------------------------------------------
    def choose_child(self, code: int, index: int) -> Optional[int]:
        """Pick a compatible child of ``code`` for character ``index``.

        Returns the child code, or ``None`` when no child is compatible
        (an LZW phrase boundary).
        """
        candidates = self._dict.compatible_children(
            code, self._values[index], self._cares[index]
        )
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0][1]
        if self._policy == "first":
            return min(child for _char, child in candidates)
        if self._policy == "popular":
            return max(candidates, key=self._popularity_key)[1]
        return self._lookahead_best(candidates, index)[1]

    def choose_base(self, index: int) -> int:
        """Pick the concrete base code to restart a phrase at character ``index``.

        Any concrete fill of the ternary character is a legal base code;
        the heuristics prefer one whose subtree promises the longest
        continuation through the following characters.
        """
        bases = self._dict.compatible_bases(self._values[index], self._cares[index])
        if len(bases) == 1:
            return bases[0]
        if self._policy == "first":
            return min(bases)
        if self._policy == "popular":
            return max(bases, key=lambda b: (self._dict.weight(b), -b))
        candidates = [(b, b) for b in bases]
        return self._lookahead_best(candidates, index)[1]

    def boundary(self, code: int, head: int) -> None:
        """The phrase-boundary step between ``code`` and ``head``."""
        self._dict.phrase_boundary(code, head, self._recorder)

    # ------------------------------------------------------------------
    # Heuristics
    # ------------------------------------------------------------------
    def _popularity_key(self, cand: Tuple[int, int]):
        char, child = cand
        return (self._dict.weight(child), -child)

    def _lookahead_best(
        self,
        candidates: List[Tuple[int, int]],
        index: int,
    ) -> Tuple[int, int]:
        """Sliding-window choice: deepest compatible continuation wins.

        Each candidate child consumes character ``index``; its score is
        how many of the following ``W - 1`` characters a descent through
        the trie can still absorb.  The search shares a per-decision node
        budget so worst-case cost stays bounded; ties fall back to
        subtree weight, then the lowest code (deterministic output).
        """
        self._budget = self._budget_limit
        best = None
        best_key = None
        limit = self._window - 1
        for char, child in candidates:
            depth = self._continuation(child, index + 1, limit)
            key = (depth, self._dict.weight(child), -child)
            if best_key is None or key > best_key:
                best_key = key
                best = (char, child)
            if depth >= limit and self._budget <= 0:
                break
        assert best is not None
        return best

    def _continuation(self, code: int, index: int, limit: int) -> int:
        """Longest match depth from ``code`` through characters ``index..``.

        Depth-first search over compatible children, heaviest subtree
        first, clipped at ``limit`` characters and by the node budget.
        """
        if limit <= 0 or index >= len(self._values) or self._budget <= 0:
            return 0
        self._budget -= 1
        kids = self._dict.compatible_children(
            code, self._values[index], self._cares[index]
        )
        if not kids:
            return 0
        kids.sort(key=self._popularity_key, reverse=True)
        best = 0
        for _char, child in kids:
            depth = 1 + self._continuation(child, index + 1, limit - 1)
            if depth > best:
                best = depth
                if best >= limit:
                    break
            if self._budget <= 0:
                break
        return best
