"""Bit-parallel fast matcher: word-packed two-mask ternary matching.

The reference matcher (:class:`repro.core.dontcare.ChildSelector`) walks
the dictionary trie one candidate child at a time; profiling shows >90%
of its encode time inside that walk (the ``compatible_children`` scans
and the lookahead DFS around them).  :func:`fast_matcher` keeps the
*decision procedure* — the paper's dynamic don't-care assignment with
its exact tie-break and budget semantics — and replaces the
per-candidate Python work with word-wide integer operations over packed
match arrays, the same idiom :mod:`repro.atpg.ppsfp` uses for
bit-parallel fault simulation:

* every dictionary node keeps its children packed into one big integer,
  one ``C_C + 1``-bit lane per child (the extra guard bit makes
  zero-lane detection exact); the X-aware compatibility test
  ``(key ^ value) & care == 0`` runs for *all* candidates of a node in
  a handful of int ops: replicate the character's two masks across the
  lanes with a multiply, XOR/AND, and read the compatible lanes out of
  ``(HIGH - t) & HIGH``;
* a first-symbol index does the same over the active base codes for
  phrase restarts;
* for the lookahead policy, every node additionally keeps *suffix
  packs*: for each depth ``k`` up to the window, one packed integer
  whose lanes are the concatenated ``k``-character strings of all its
  depth-``k`` descendants.  A candidate's unbudgeted window depth is
  the largest ``k`` whose pack has a lane compatible with the first
  ``k`` window characters (one masked compare per depth), and the lane
  popcounts give the candidate's exact unbudgeted DFS node consumption
  — which is how the reference's shared node budget is replicated
  without walking the trie (see ``lookahead_best``).

Both matchers plug into the one encode loop,
:meth:`repro.core.stream.StreamEncoder._drain`, through the same three
calls: ``choose_base(i)``, ``choose_child(code, i)`` and
``boundary(code, head)``.  Around the matching core, this matcher
amortises everything it can:

* the encoder hands it the rolling ``RV``/``RC`` window lists (entry
  ``i`` packs the ``K + 1`` characters from ``i``, first character in
  the low bits; a window cut short by the end of the stream carries its
  count of absent characters above them, in ``RC``), so every scan
  pattern is one mask of ``RV[i]`` and the pair doubles as a
  ready-made memoisation key;
* decisions memoise on ``(node, RV, RC, stamp)`` where
  the *stamp* is the cheapest value that changes whenever the answer
  could — the allocation counter for base restarts, the node's own
  weight for child decisions (adds elsewhere in the trie cannot change
  a node's candidate set or their weights);
* once the dictionary is full under ``reset_on_full=False`` nothing
  mutates again: the matcher enters its *frozen* state, in which child
  decisions memoise without the stamp and ``boundary`` is only the
  reference's ``dict.full_skips`` counter — on long streams most
  characters encode there;
* every memo table and mask cache is cleared when it reaches
  :data:`CACHE_LIMIT` entries, so memory stays bounded on any input.

Equivalence contract
--------------------
``engine="fast"`` is **byte-identical** to the reference matcher: same
code sequence, same dictionary evolution, same recorder counters and
histograms.  That holds because the fast matcher is a faithful
interpreter of the same algorithm, not a different matcher:

* candidate sets are produced in the reference's order — dictionary
  children in insertion order (ascending code, because codes allocate
  monotonically) and base codes in the live ``_active_bases`` set
  order, snapshotted only between mutations (set iteration is stable
  while the set is unmodified);
* the fully-specified shortcut (``care`` covers the whole character →
  exact ``dict.get``) is reproduced, in the loop for child decisions
  and here for base decisions, where a concrete character is its own
  only candidate;
* the lookahead policy's shared node budget is replicated exactly: a
  failing candidate's DFS visits its whole compatible cone, so its
  consumption equals the pack popcount; a full-depth candidate's
  consumption is order-dependent, so those are re-run through a
  literal budget-metered DFS replica whenever the budget could bind
  (``continuation``), with the same heaviest-subtree-first ordering
  and the same decrement/break points.

``tests/core/test_engine_differential.py`` locks the contract with
Hypothesis differential properties and exhaustive small-alphabet
enumeration; ``tests/golden`` re-verifies every golden digest through
this path and ``tests/core/test_stream_codec.py`` under every chunking.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..observability import Recorder
from ..observability import schema as ev
from .config import ENGINES, LZWConfig
from .dictionary import LZWDictionary

__all__ = [
    "CACHE_LIMIT",
    "ENGINES",
    "Matcher",
    "PackedCandidateIndex",
    "fast_matcher",
    "resolve_engine",
]

#: Entries any one memo table or mask cache may hold before it is
#: cleared.  Every cached value is a pure function of its key, so a
#: clear changes no output; the bound keeps a stream of ever-new
#: windows from growing the caches without limit.  The benchmark
#: inputs stay far below it.
CACHE_LIMIT = 1 << 16

#: Population count for the wide match bitmaps.  ``int.bit_count`` is a
#: single C call on Python >= 3.10; the ``bin`` fallback keeps the
#: declared 3.9 floor working (it allocates a string proportional to the
#: bitmap width, so the native path matters on wide candidate packs).
if hasattr(int, "bit_count"):  # pragma: no branch
    _popcount = int.bit_count
else:  # pragma: no cover - exercised only on Python 3.9

    def _popcount(x: int) -> int:
        return bin(x).count("1")


def resolve_engine(engine: str) -> str:
    """Map the config knob to a concrete engine (``auto`` → ``fast``).

    The fast matcher is byte-identical and strictly faster, so ``auto``
    always selects it; ``reference`` survives as the conformance oracle
    and as a hedge while a platform issue is being diagnosed.
    """
    return "fast" if engine == "auto" else engine


class Matcher(NamedTuple):
    """The three calls a matcher offers the encode loop.

    ``choose_base(i)`` picks the base code a phrase restarts at for
    window character ``i``; ``choose_child(code, i)`` picks the child of
    ``code`` that absorbs character ``i`` (``None`` on a dictionary
    miss); ``boundary(code, head)`` runs the phrase-boundary step after
    ``code`` is emitted and ``head`` chosen.
    """

    choose_base: Callable[[int], int]
    choose_child: Callable[[int, int], Optional[int]]
    boundary: Callable[[int, int], None]


class PackedCandidateIndex:
    """Word-packed two-mask ternary match tables over one dictionary.

    Lanes are ``C_C + 1`` bits wide: the low ``C_C`` bits hold a
    concrete child character (or base code), the top *guard* bit stays
    zero so per-lane zero detection ``(HIGH - t) & HIGH`` cannot borrow
    across lanes.  Tables build lazily per node and are invalidated by
    the matcher at the only two mutation sites (``add`` / ``reset``).
    The per-mask result caches hold at most :data:`CACHE_LIMIT` entries
    between them.
    """

    __slots__ = (
        "_dict",
        "_lane",
        "_ones",
        "_nodes",
        "_bases_list",
        "_bases_packed",
        "_bases_n",
        "_bases_cache",
        "_bases_stale",
        "_cached",
    )

    def __init__(self, dictionary: LZWDictionary, char_bits: int) -> None:
        self._dict = dictionary
        self._lane = char_bits + 1
        # _ones[n] replicates a 1 in the LSB of each of n lanes.
        self._ones: List[int] = [0]
        # code -> [packed_keys, keys, codes, {(value, care): candidates}]
        self._nodes: Dict[int, list] = {}
        self._bases_list: List[int] = []
        self._bases_packed = 0
        self._bases_n = 0
        self._bases_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._bases_stale = True
        self._cached = 0  # entries across every mask cache

    # ------------------------------------------------------------------
    # Invalidation (called by the matcher at its mutation sites)
    # ------------------------------------------------------------------
    def invalidate_node(self, code: int) -> None:
        """Drop the tables of ``code`` after it gained a child."""
        entry = self._nodes.pop(code, None)
        if entry is not None:
            self._cached -= len(entry[3])

    def invalidate_bases(self) -> None:
        """Drop the first-symbol index after the active-base set grew."""
        self._bases_stale = True

    def clear(self) -> None:
        """Drop everything (after ``dictionary.reset()``)."""
        self._nodes.clear()
        self._bases_cache.clear()
        self._cached = 0
        self._bases_stale = True

    def _remember(self, cache: dict, key: Tuple[int, int], result: tuple) -> None:
        if self._cached >= CACHE_LIMIT:
            for entry in self._nodes.values():
                entry[3].clear()
            self._bases_cache.clear()
            self._cached = 0
        cache[key] = result
        self._cached += 1

    # ------------------------------------------------------------------
    # Packed scans
    # ------------------------------------------------------------------
    def _ones_for(self, lanes: int) -> int:
        ones = self._ones
        if lanes >= len(ones):
            width = self._lane
            value = ones[-1]
            for _ in range(len(ones), lanes + 1):
                value = (value << width) | 1
                ones.append(value)
        return ones[lanes]

    def candidates(self, code: int, value: int, care: int) -> Tuple[int, ...]:
        """Children of ``code`` compatible with the ternary char masks.

        Returns ``(char, child, char, child, ...)`` pairs flattened into
        one tuple, in the reference's candidate order (dictionary
        insertion order = ascending child code).  The fully-specified
        shortcut lives in the caller — this is the generic X-aware scan.
        """
        entry = self._nodes.get(code)
        if entry is None:
            kids = self._dict.children(code)
            keys = list(kids)
            packed = 0
            width = self._lane
            shift = 0
            for key in keys:
                packed |= key << shift
                shift += width
            entry = self._nodes[code] = [packed, keys, list(kids.values()), {}]
        cache = entry[3]
        mask_key = (value, care)
        hit = cache.get(mask_key)
        if hit is not None:
            return hit
        keys = entry[1]
        lanes = len(keys)
        width = self._lane
        ones = self._ones_for(lanes)
        high = ones << (width - 1)
        t = (entry[0] ^ (value * ones)) & (care * ones)
        z = (high - t) & high
        codes = entry[2]
        out: List[int] = []
        while z:
            low = z & -z
            lane = low.bit_length() // width - 1
            out.append(keys[lane])
            out.append(codes[lane])
            z &= z - 1
        result = tuple(out)
        self._remember(cache, mask_key, result)
        return result

    def base_candidates(self, value: int, care: int) -> Tuple[int, ...]:
        """Base codes compatible with the char masks, reference order.

        Mirrors :meth:`LZWDictionary.compatible_bases`: every compatible
        *active* base in live-set iteration order, then the canonical
        zero-fill appended when not already present.  The snapshot is
        refreshed after every mutation of the active set, and set
        iteration order is stable between mutations, so the order is
        exactly what the reference would iterate.
        """
        if self._bases_stale:
            actives = list(self._dict._active_bases)
            packed = 0
            width = self._lane
            shift = 0
            for base in actives:
                packed |= base << shift
                shift += width
            self._bases_list = actives
            self._bases_packed = packed
            self._bases_n = len(actives)
            self._cached -= len(self._bases_cache)
            self._bases_cache.clear()
            self._bases_stale = False
        mask_key = (value, care)
        hit = self._bases_cache.get(mask_key)
        if hit is not None:
            return hit
        out: List[int] = []
        lanes = self._bases_n
        if lanes:
            width = self._lane
            ones = self._ones_for(lanes)
            high = ones << (width - 1)
            t = (self._bases_packed ^ (value * ones)) & (care * ones)
            z = (high - t) & high
            bases = self._bases_list
            while z:
                low = z & -z
                out.append(bases[low.bit_length() // width - 1])
                z &= z - 1
        if value not in out:  # zero-fill fallback, as in the reference
            out.append(value)
        result = tuple(out)
        self._remember(self._bases_cache, mask_key, result)
        return result


def fast_matcher(
    dictionary: LZWDictionary,
    config: LZWConfig,
    recorder: Recorder,
    values: List[int],
    cares: List[int],
    RV: Optional[List[int]],
    RC: Optional[List[int]],
) -> Matcher:
    """Build the fast matcher over an encoder's dictionary and window.

    ``values``/``cares`` are the encoder's per-character masks and
    ``RV``/``RC`` its rolling lookahead windows (``None`` unless the
    policy is lookahead).  The encoder owns all four lists and trims them
    in place; the matcher only ever reads them at committed indices.
    A seeded dictionary is taken as it stands: its suffix packs are
    rebuilt here before the first decision.
    """
    rec = recorder
    recording = rec.enabled
    char_bits = config.char_bits
    fullchar = (1 << char_bits) - 1
    index = PackedCandidateIndex(dictionary, char_bits)
    # Hot read-only views of the dictionary arrays.  reset() rebinds
    # _weight and _children on the instance, so both are re-fetched
    # after every reset; add() and reset() mutate the rest in place.
    weight = dictionary._weight
    children = dictionary._children
    active_bases = dictionary._active_bases
    parent = dictionary._parent
    charr = dictionary._char

    policy = config.policy
    lookahead_policy = policy == "lookahead"
    reset_on_full = config.reset_on_full
    budget_limit = config.lookahead_budget
    budget = 0
    allocs = dictionary.allocated  # base-decision memo stamp
    frozen = dictionary.is_full and not reset_on_full
    index_candidates = index.candidates
    index_base_candidates = index.base_candidates
    # Inlined cache hit paths for the two hottest lookups: memo misses
    # hit these caches far more often than the packed scans behind them.
    index_nodes = index._nodes
    bases_get = index._bases_cache.get
    popcount = _popcount
    miss = object()

    # ------------------------------------------------------------------
    # Lookahead: packed suffix tables + an exact budget replica
    # ------------------------------------------------------------------
    # K = window depth beyond the candidate itself.  packs[k][node] is
    # [pack, nlanes, lane_cands]: one lane per depth-k descendant of
    # node, each lane the concatenation of the k characters on the path
    # (first consumed character in the low bits), k*C_C + 1 bits wide
    # (guard bit on top), and lane_cands[l] the path's first-step child.
    # Node -1 is the virtual trie root (parent of the base codes): its
    # depth-k descendants are every allocated entry of length k, which
    # lets one pack test cover all candidates of a *base* decision too.
    # Levels run to K + 1 because a decision consumes one character
    # before the window: candidate depth d corresponds to level d + 1 of
    # the candidates' common parent.  Maintained append-only at the add
    # site, cleared on reset — no other invalidation exists because
    # lanes are never rewritten.
    K = config.lookahead - 1 if lookahead_policy else 0
    KP = K + 1
    packs: List[Dict[int, list]] = [dict() for _ in range(KP + 1)]
    lane_w = [k * char_bits + 1 for k in range(KP + 1)]
    # ones_tabs[k][m] replicates 1 across m lanes of width lane_w[k].
    ones_tabs: List[List[int]] = [[0] for _ in range(KP + 1)]
    # ``rv & pmask[k]`` is exactly the level-k scan pattern (decision
    # char + k-1 window chars), and ``rv >> char_bits`` recovers the
    # pure window for the per-candidate cone tests.  ``rc >> short``
    # counts the window characters past the end of the stream.
    pmask = [(1 << (k * char_bits)) - 1 for k in range(K + 2)]
    short = KP * char_bits

    def ones_for(k: int, lanes: int) -> int:
        tab = ones_tabs[k]
        if lanes >= len(tab):
            width = lane_w[k]
            value = tab[-1]
            for _ in range(len(tab), lanes + 1):
                value = (value << width) | 1
                tab.append(value)
        return tab[lanes]

    def continuation(code: int, i: int, limit: int, again) -> int:
        """Literal replica of ``ChildSelector._continuation``.

        Shares the decision's node budget via ``budget``; only runs
        when the budget could bind (see ``lookahead_best``), so its
        per-node cost is off the common path.  ``again`` is this
        function: recursing through an argument rather than the closure
        keeps the matcher free of reference cycles, so its tables are
        freed as soon as the encoder drops it.
        """
        nonlocal budget
        if limit <= 0 or i >= len(values) or budget <= 0:
            return 0
        budget -= 1
        if cares[i] == fullchar:
            child = children[code].get(values[i])
            if child is None:
                return 0
            return 1 + again(child, i + 1, limit - 1, again)
        cands = index_candidates(code, values[i], cares[i])
        if not cands:
            return 0
        if len(cands) > 2:
            order = sorted(
                range(1, len(cands), 2),
                key=lambda p: (weight[cands[p]], -cands[p]),
                reverse=True,
            )
        else:
            order = (1,)
        best = 0
        for p in order:
            depth = 1 + again(cands[p], i + 1, limit - 1, again)
            if depth > best:
                best = depth
                if best >= limit:
                    break
            if budget <= 0:
                break
        return best

    # Decision memo: the winner of a lookahead decision is a pure
    # function of (candidate tuple, window masks and length, the sum
    # of the candidates' subtree weights).  The weight sum is a valid
    # monotone stamp: weights only ever increase within a run, and any
    # allocation in or under a candidate's subtree — the only dictionary
    # change that can alter depths, cone counts, sim orderings or argmax
    # keys — walks the weight increment through that candidate, so an
    # equal sum at two different times implies identical per-candidate
    # weights *and* untouched subtrees.  Sibling allocations leave the
    # sum (and the decision) unchanged, which is exactly when a hit is
    # wanted.  Cleared on reset (weights restart, codes reallocate).
    decision_memo: Dict[tuple, Optional[int]] = {}
    memo_get = decision_memo.get
    # Per-candidate cache under the decision memo: a candidate's
    # unbudgeted window depth and compatible cone node count are pure
    # functions of (candidate, window, structure <= K below it).
    # ``sver[c]`` is that structure's version: the pack-maintenance
    # walk bumps it for every ancestor within K+1 of a new entry, so
    # it moves exactly when the cone can — allocations elsewhere (or
    # deeper) leave cached cones valid, unlike a weight stamp.
    sver: Dict[int, int] = {}
    sver_get = sver.get
    cone_cache: Dict[tuple, tuple] = {}
    # Successful full-depth replays: the DFS visits nodes in a fixed
    # (weight-sorted) order and stops at the first full-depth path, so
    # its node consumption nf is deterministic and independent of the
    # remaining budget whenever nf fits (the budget can't reorder a
    # search it never interrupts).  weight[child] stamps the key: every
    # allocation under the candidate bumps it, and both the cone's
    # shape and the DFS's sort keys only change through such adds.
    fullsim_cache: Dict[tuple, int] = {}

    def extend_packs(new_code: int) -> None:
        """Append entry ``new_code``'s path suffix to its ancestors' packs.

        The ancestor at distance k gains a depth-k descendant whose
        lane is the last k characters of the new string (first consumed
        lowest).  The walk ends at the virtual root (-1), whose lane is
        the entry's whole string.
        """
        sfx = charr[new_code]
        prev = new_code  # the path's first-step child from anc
        anc = parent[new_code]
        k = 1
        while k <= KP:
            pk = packs[k]
            entry = pk.get(anc)
            if entry is None:
                pk[anc] = [sfx, 1, [prev]]
            else:
                entry[0] |= sfx << (entry[1] * lane_w[k])
                entry[1] += 1
                entry[2].append(prev)
            sver[anc] = sver_get(anc, 0) + 1
            if anc == -1:
                break
            sfx = charr[anc] | (sfx << char_bits)
            prev = anc
            anc = parent[anc]
            k += 1

    # Seeded dictionary: replay the pack maintenance for every
    # pre-allocated entry in code (allocation) order, which reproduces
    # the exact pack lanes, lane order and ``sver`` counters an
    # uninterrupted run would hold — empty packs would silently degrade
    # the lookahead to the weight argmax and diverge from the reference.
    if K:
        for added in range(config.base_codes, dictionary.next_code):
            extend_packs(added)

    def ztest(child: int, k: int, wv: int, wc: int) -> int:
        """Compatible-lane bitmap of ``child``'s depth-``k`` pack (0 = none)."""
        e = packs[k].get(child)
        if e is None:
            return 0
        lanes = e[1]
        tab = ones_tabs[k]
        ones = tab[lanes] if lanes < len(tab) else ones_for(k, lanes)
        t = (e[0] ^ wv * ones) & (wc * ones)
        high = ones << (k * char_bits)
        return (high - t) & high

    def cone_counts(child: int, te: int, wv_te: int, wc_te: int) -> tuple:
        """``(full, depth, cnt)`` of ``child``'s compatible window cone.

        ``full`` — reaches the whole ``K``-deep window (DFS consumption
        then depends on visit order); ``depth`` — deepest compatible
        window level; ``cnt`` — nodes the unbudgeted DFS consumes (an
        upper bound for any budgeted one).  Bottom-up over the packs;
        prefix closure means a compatible level implies all shallower
        ones, so the loop stops at the first empty level.
        """
        ckey = (child, te, wv_te, wc_te, sver_get(child, 0))
        hit = cone_cache.get(ckey)
        if hit is None:
            zfull = ztest(child, te, wv_te, wc_te)
            depth = 0
            cnt = 1
            for k in range(1, te):
                pm = pmask[k]
                z = ztest(child, k, wv_te & pm, wc_te & pm)
                if not z:
                    break
                depth = k
                cnt += popcount(z)
            else:
                if zfull:
                    depth = te
            hit = (bool(zfull) and te == K, depth, cnt)
            if len(cone_cache) >= CACHE_LIMIT:
                cone_cache.clear()
            cone_cache[ckey] = hit
        return hit

    def weight_argmax(cands: Tuple[int, ...], start: int, step: int) -> int:
        """Argmax of ``(weight, -code)`` over ``cands[start::step]``."""
        best = cands[start]
        best_w = weight[best]
        for p in range(start + step, len(cands), step):
            child = cands[p]
            child_w = weight[child]
            if child_w > best_w or (child_w == best_w and child < best):
                best_w = child_w
                best = child
        return best

    def lookahead_best(
        cands: Tuple[int, ...],
        i: int,
        start: int,
        step: int,
        node: int,
    ) -> int:
        """Replica of ``ChildSelector._lookahead_best``; returns the child.

        ``cands[start::step]`` are the candidate codes — ``(0, 1)`` for
        a base tuple, ``(1, 2)`` for a flattened ``(char, child, ...)``
        children tuple.  Memoisation is the *callers'* job (both have
        O(1) stamped keys); this evaluates the decision in up to three
        stages over the suffix packs:

        * a level scan over the common parent's packs finds the
          unbudgeted winner and the total unbudgeted consumption with
          one masked compare per *level*, not per candidate;
        * if the total proves the reference's shared node budget cannot
          run out — or a conservative per-candidate consumption sum
          proves it survives at least through the winner's cone — that
          winner is returned as-is (later candidates only ever lose
          depth to budget death, so they cannot overtake);
        * otherwise an exact scan replays the budget: failing
          candidates deduct their cone's exact node count (the DFS
          visits the whole compatible cone, so the pack popcounts *are*
          its consumption); full-depth candidates (order-dependent
          consumption) and the cone the budget dies inside re-run the
          literal DFS replica with the exact remaining budget; spent
          budget returns depth 0 without consuming, as the guards do.
        """
        nonlocal budget
        rv = RV[i]
        rc = RC[i]
        te = K - (rc >> short)  # deepest window level the DFS can enter
        if te == 0:
            # No window left (stream end) or W == 1: the reference's
            # guards return depth 0 for everyone without consuming
            # budget — argmax of (weight, -code).
            return weight_argmax(cands, start, step)
        limit = K
        idx = i + 1
        m = len(cands)
        # Level scan over the candidates' common parent: level k of
        # node's packs covers every candidate's depth-(k-1) subtree at
        # once (the lane's first character names the candidate), so
        # the exact total unbudgeted consumption — ncand nodes for the
        # candidates themselves plus one per compatible lane at the
        # consuming levels — costs one masked compare and popcount per
        # *level*, not per candidate.  Levels are prefix-closed (a
        # compatible length-k path has a compatible length-(k-1)
        # prefix entry), so the scan stops at the first empty level.
        ncand = (m - start + step - 1) // step
        total = ncand
        ktop = 1  # deepest level with a compatible lane
        ztop = 0
        k = 2
        while k <= te + 1:
            e = packs[k].get(node)
            if e is None:
                break
            # ztest inlined: the scan is the hottest SWAR site.  The
            # level-k pattern — decision char + k-1 window chars — is
            # one mask of the rolling window.
            pm = pmask[k]
            lanes = e[1]
            tab = ones_tabs[k]
            ones = tab[lanes] if lanes < len(tab) else ones_for(k, lanes)
            t = (e[0] ^ (rv & pm) * ones) & (rc & pm) * ones
            high = ones << (k * char_bits)
            zk = (high - t) & high
            if not zk:
                break
            ktop = k
            ztop = zk
            if k <= te:  # consuming levels are 2..te
                total += popcount(zk)
            k += 1
        if ktop == 1:
            # Nobody matches even one window character: every depth is
            # 0 whether or not the budget dies mid-list (spent-budget
            # guards also score 0), so the argmax of (weight, -code)
            # stands unconditionally.
            return weight_argmax(cands, start, step)
        # Unbudgeted winner: every candidate reaching the deepest
        # compatible level shares depth ktop-1 and beats all shallower
        # ones, so only that level's lanes need the (weight, -code)
        # tie-break.  Each lane's candidate (the path's first-step
        # child — the base itself for root lanes) was recorded at
        # append time, so winners come from an index lookup instead of
        # digging characters out of the fat pack.
        lane_cands = packs[ktop][node][2]
        lw = lane_w[ktop]
        kc = ktop * char_bits  # guard-bit offset within a lane
        best = -1
        best_w = -1
        # 64-bit word walk: set bits are sparse in a fat bitmap, so
        # chunking keeps every per-bit operation on machine ints
        # instead of O(bitmap) bignum ops per extracted lane.  A single
        # surviving lane (the common case at the deepest level) skips
        # the walk entirely.
        z = ztop
        if not z & (z - 1):
            best = lane_cands[(z.bit_length() - 1 - kc) // lw]
            best_w = weight[best]
            z = 0
        pos = -kc
        while z:
            w64 = z & 0xFFFFFFFFFFFFFFFF
            while w64:
                low = w64 & -w64
                cand = lane_cands[(pos + low.bit_length() - 1) // lw]
                w = weight[cand]
                if w > best_w or (w == best_w and cand < best):
                    best_w = w
                    best = cand
                w64 &= w64 - 1
            z >>= 64
            pos += 64
        if total < budget_limit:
            # The shared budget provably cannot run out.
            return best
        # The budget *may* bind — but death only truncates depths, so
        # later candidates can never overtake the unbudgeted winner.
        # If a conservative consumption sum (full cone counts, an upper
        # bound on any DFS's spend) over the winner and everyone before
        # it stays within the budget, the winner's own cone completes
        # and the unbudgeted answer stands.  The pure window masks are
        # only needed from here on, so the common win path never pays
        # for them.
        wv_te = (rv >> char_bits) & pmask[te]
        wc_te = (rc >> char_bits) & pmask[te]
        s = 0
        for p in range(start, m, step):
            child = cands[p]
            s += cone_counts(child, te, wv_te, wc_te)[2]
            if child == best or s > budget_limit:
                break
        if s <= budget_limit:
            return best
        # The budget binds (or cannot be proven not to): exact scan
        # with the shared budget, replicating the reference's
        # candidate-order consumption.
        best = -1
        best_key = None
        r = budget_limit
        for p in range(start, m, step):
            child = cands[p]
            if r <= 0:
                # Spent budget: every remaining candidate scores depth
                # 0 without consuming (the reference's guards), so the
                # rest of the scan degenerates to a (weight, -code)
                # argmax — which cannot win at all once any candidate
                # scored a positive depth.
                if best_key[0] == 0:
                    rest = weight_argmax(cands, p, step)
                    if (weight[rest], -rest) > best_key[1:]:
                        best = rest
                break
            full, depth, cnt = cone_counts(child, te, wv_te, wc_te)
            if full:
                fkey = (child, wv_te, wc_te, weight[child])
                nf = fullsim_cache.get(fkey)
                if nf is not None and nf <= r:
                    r -= nf
                    depth = limit
                else:
                    # Replay the literal DFS with the exact remaining
                    # budget; on success the consumption is budget-
                    # independent, so remember it.
                    budget = r
                    depth = continuation(child, idx, limit, continuation)
                    if depth >= limit:
                        if len(fullsim_cache) >= CACHE_LIMIT:
                            fullsim_cache.clear()
                        fullsim_cache[fkey] = r - budget
                    r = budget
            elif cnt > r:
                # The cone the budget dies inside: replay with the
                # exact remaining budget.
                budget = r
                depth = continuation(child, idx, limit, continuation)
                r = budget
            else:
                r -= cnt  # failing cone fits: exact deduction
            key = (depth, weight[child], -child)
            if best_key is None or key > best_key:
                best_key = key
                best = child
            if depth >= limit and r <= 0:
                break
        return best

    def remember(key: tuple, choice: Optional[int]) -> None:
        if len(decision_memo) >= CACHE_LIMIT:
            decision_memo.clear()
        decision_memo[key] = choice

    def choose_base(i: int) -> int:
        value = values[i]
        care = cares[i]
        if care == fullchar:
            # A concrete character is its own only candidate.
            return value
        bases = None if index._bases_stale else bases_get((value, care))
        if bases is None:
            bases = index_base_candidates(value, care)
        if len(bases) == 1:
            return bases[0]
        if lookahead_policy:
            # An O(1) memo key: the rolling window packs the decision
            # char and lookahead, and the allocation counter determines
            # the base candidate tuple (the active-base set only changes
            # on add/reset) *and* every base subtree (each allocation's
            # weight walk ends in exactly one base), so together they
            # pin the whole decision.
            key = (-1, RV[i], RC[i], allocs)
            best = memo_get(key)
            if best is None:
                best = lookahead_best(bases, i, 0, 1, -1)
                remember(key, best)
            return best
        if policy == "first":
            return min(bases)
        return weight_argmax(bases, 0, 1)

    def choose_child(code: int, i: int) -> Optional[int]:
        cands = index_candidates(code, values[i], cares[i])
        if not cands:
            return None
        if len(cands) == 2 or policy == "first":
            # single candidate, or lowest child code — candidates are
            # stored in ascending-code order, so lane 0 wins
            return cands[1]
        return weight_argmax(cands, 1, 2)

    def choose_child_lookahead(code: int, i: int) -> Optional[int]:
        # O(1) memo for the whole child decision, same trick as
        # choose_base: (node, window) plus ``weight[node]`` pin it.  The
        # candidate set and every candidate subtree live under ``node``,
        # and any allocation below ``node`` walks its weight, so a stale
        # hit is impossible.  Frozen, nothing can change any more, so
        # the stamp goes.  A hit skips candidate materialisation
        # entirely; a stored None records "no compatible child" (phrase
        # boundary).
        if frozen:
            key = (code, RV[i], RC[i])
        else:
            key = (code, RV[i], RC[i], weight[code])
        hit = memo_get(key, miss)
        if hit is not miss:
            return hit
        mask_key = (values[i], cares[i])
        e = index_nodes.get(code)
        cands = None if e is None else e[3].get(mask_key)
        if cands is None:
            cands = index_candidates(code, *mask_key)
        if not cands:
            best = None
        elif len(cands) == 2:
            best = cands[1]
        else:
            best = lookahead_best(cands, i, 1, 2, code)
        remember(key, best)
        return best

    def boundary(code: int, head: int) -> None:
        """Reset-or-allocate at a phrase boundary (string(code) + head).

        The step itself is :meth:`LZWDictionary.phrase_boundary`, shared
        with the reference matcher; this wrapper adds the fast matcher's
        own maintenance.
        """
        nonlocal allocs, weight, children, frozen
        if frozen:
            # A full dictionary that cannot reset never changes again:
            # the step is the reference's counted no-op.
            if recording:
                rec.incr(ev.DICT_FULL_SKIPS)
            return
        new_code = dictionary.next_code
        bases_before = len(active_bases)
        if dictionary.phrase_boundary(code, head, rec):
            index.clear()
            for pk in packs:
                pk.clear()
            decision_memo.clear()
            sver.clear()
            cone_cache.clear()
            fullsim_cache.clear()
            allocs = dictionary.allocated
            weight = dictionary._weight
            children = dictionary._children
            return
        if dictionary.next_code == new_code:
            return
        allocs += 1
        index.invalidate_node(code)
        if len(active_bases) != bases_before:
            index.invalidate_bases()
        if K:
            extend_packs(new_code)
        frozen = dictionary.is_full and not reset_on_full

    return Matcher(
        choose_base,
        choose_child_lookahead if lookahead_policy else choose_child,
        boundary,
    )
