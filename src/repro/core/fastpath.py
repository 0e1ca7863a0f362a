"""Bit-parallel fast-path encoder: word-packed two-mask ternary matching.

The reference encoder (:meth:`repro.core.encoder.LZWEncoder` with
``engine="reference"``) walks the dictionary trie one candidate child at
a time; profiling shows >90% of serial encode time inside that walk
(the ``compatible_children`` scans and the lookahead DFS around them).
This module keeps the *decision procedure* — the paper's dynamic
don't-care assignment with its exact tie-break and budget semantics —
and replaces the per-candidate Python work with word-wide integer
operations over packed match arrays, the same idiom
:mod:`repro.atpg.ppsfp` uses for bit-parallel fault simulation:

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

Around that matching core, the encode loop amortises everything it can:

* the decision character and its lookahead window are pre-packed into
  rolling ``RV``/``RC`` arrays (one backward O(n) pass; entry ``i``
  holds the ``K + 1`` characters from ``i`` in ascending bit order), so
  every scan pattern is one mask of ``RV[i]`` and the pair doubles as a
  ready-made memoisation key;
* decisions memoise on ``(node, trailing chars, RV, RC, stamp)`` where
  the *stamp* is the cheapest value that changes whenever the answer
  could — the allocation counter for base restarts, the node's own
  weight for child decisions (adds elsewhere in the trie cannot change
  a node's candidate set or their weights);
* once the dictionary is full under ``reset_on_full=False`` nothing
  mutates again, so the loop drops into a *frozen phase* replica that
  sheds the stamps and the dead ``dictionary.add`` call — on long
  streams most characters encode there.

Equivalence contract
--------------------
``engine="fast"`` is **byte-identical** to the reference loop: same
code sequence, same dictionary evolution, same recorder counters and
histograms, same cancellation checkpoints.  That holds because the fast
path is a faithful interpreter of the same algorithm, not a different
matcher:

* candidate sets are produced in the reference's order — dictionary
  children in insertion order (ascending code, because codes allocate
  monotonically) and base codes in the live ``_active_bases`` set
  order, snapshotted only between mutations (set iteration is stable
  while the set is unmodified);
* the fully-specified shortcut (``care == (1 << len(char)) - 1`` →
  exact ``dict.get``) is reproduced, including its exact-key semantics
  for the short final character of a stream;
* the lookahead policy's shared node budget is replicated exactly: a
  failing candidate's DFS visits its whole compatible cone, so its
  consumption equals the pack popcount; a full-depth candidate's
  consumption is order-dependent, so those are re-run through a
  literal budget-metered DFS replica whenever the budget could bind
  (``continuation``), with the same heaviest-subtree-first ordering
  and the same decrement/break points;
* the deadline checkpoint fires at the same every-1024-symbols loop
  positions as the reference.

``tests/core/test_engine_differential.py`` locks the contract with
Hypothesis differential properties and exhaustive small-alphabet
enumeration; ``tests/golden`` re-verifies every golden digest through
this path.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..bitstream import unpack_fields
from ..observability import schema as ev
from .config import ENGINES
from .dictionary import LZWDictionary

__all__ = ["ENGINES", "resolve_engine", "PackedCandidateIndex", "encode_fast"]

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

    The fast path is byte-identical and strictly faster, so ``auto``
    always selects it; ``reference`` survives as the conformance oracle
    and as a hedge while a platform issue is being diagnosed.
    """
    return "fast" if engine == "auto" else engine


class PackedCandidateIndex:
    """Word-packed two-mask ternary match tables over one dictionary.

    Lanes are ``C_C + 1`` bits wide: the low ``C_C`` bits hold a
    concrete child character (or base code), the top *guard* bit stays
    zero so per-lane zero detection ``(HIGH - t) & HIGH`` cannot borrow
    across lanes.  Tables build lazily per node and are invalidated by
    the encoder at the only two mutation sites (``add`` / ``reset``).
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

    # ------------------------------------------------------------------
    # Invalidation (called by the encoder at its mutation sites)
    # ------------------------------------------------------------------
    def invalidate_node(self, code: int) -> None:
        """Drop the tables of ``code`` after it gained a child."""
        self._nodes.pop(code, None)

    def invalidate_bases(self) -> None:
        """Drop the first-symbol index after the active-base set grew."""
        self._bases_stale = True

    def clear(self) -> None:
        """Drop everything (after ``dictionary.reset()``)."""
        self._nodes.clear()
        self._bases_stale = True

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
        cache[mask_key] = result
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
            self._bases_cache = {}
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
        self._bases_cache[mask_key] = result
        return result


def encode_fast(encoder, stream) -> Tuple[List[int], List[int]]:
    """Run one fast-path encode; returns ``(codes, expansion_chars)``.

    ``encoder`` is the owning :class:`~repro.core.encoder.LZWEncoder`
    (config, dictionary, recorder and cancellation token are read from
    it; ``_longest_phrase``/``_total_chars`` are written back so
    ``stats()`` is engine-agnostic).  Control flow is a line-for-line
    replica of the reference loop — see the module docstring for why
    each divergence-prone site is exact.
    """
    cfg = encoder.config
    dictionary = encoder.dictionary
    rec = encoder.recorder
    recording = rec.enabled
    char_bits = cfg.char_bits
    nbits = len(stream)
    pad = -nbits % char_bits
    n = (nbits + pad) // char_bits
    encoder._longest_phrase = 0
    encoder._total_chars = n
    codes: List[int] = []
    expansions: List[int] = []
    if not n:
        return codes, expansions
    if recording:
        rec.incr(ev.ENCODE_CHARS, n)

    cancel = encoder.cancel
    cancelling = cancel is not None
    if cancelling:
        cancel.check()

    # Chunk the stream's two masks directly into per-character arrays —
    # same layout :func:`repro.bitstream.to_characters` produces (LSB =
    # first bit, final character X-padded to full width, so pad mask
    # bits are simply absent) without materialising a TernaryVector per
    # character.
    values = unpack_fields(stream.value_mask, n, char_bits)
    cares = unpack_fields(stream.care_mask, n, char_bits)
    fullchar = (1 << char_bits) - 1

    index = PackedCandidateIndex(dictionary, char_bits)
    # Hot read-only views of the dictionary arrays.  reset() rebinds
    # _weight and _children on the instance, so both are re-fetched
    # after every reset; add() and reset() mutate the rest in place.
    weight = dictionary._weight
    children = dictionary._children
    nchars = dictionary._nchars
    active_bases = dictionary._active_bases
    parent = dictionary._parent
    charr = dictionary._char

    policy = cfg.policy
    lookahead_policy = policy == "lookahead"
    window = cfg.lookahead
    budget_limit = cfg.lookahead_budget
    budget = 0
    allocs = dictionary.allocated  # base-decision memo stamp
    # Once a non-resetting dictionary fills, the fill loop below hands
    # over to a leaner frozen-phase loop (see there).
    frozen_break = lookahead_policy and not cfg.reset_on_full
    index_candidates = index.candidates
    # Inlined cache hit paths for the two hottest lookups: the memo
    # misses of the main loop hit these caches far more often than the
    # packed scans behind them.
    index_nodes = index._nodes
    index_base_candidates = index.base_candidates
    popcount = _popcount

    # ------------------------------------------------------------------
    # Lookahead: packed suffix tables + an exact budget replica
    # ------------------------------------------------------------------
    # K = window depth beyond the candidate itself.  packs[k][node] is
    # [pack, nlanes]: one lane per depth-k descendant of node, each lane
    # the concatenation of the k characters on the path (first consumed
    # character in the low bits), k*C_C + 1 bits wide (guard bit on
    # top).  Node -1 is the virtual trie root (parent of the base
    # codes): its depth-k descendants are every allocated entry of
    # length k, which lets one pack test cover all candidates of a
    # *base* decision too.  Levels run to K + 1 because a decision
    # consumes one character before the window: candidate depth d
    # corresponds to level d + 1 of the candidates' common parent.
    # Maintained append-only at the add site, cleared on reset — no
    # other invalidation exists because lanes are never rewritten.
    K = window - 1 if policy == "lookahead" else 0
    KP = K + 1
    packs: List[Dict[int, list]] = [dict() for _ in range(KP + 1)]
    lane_w = [k * char_bits + 1 for k in range(KP + 1)]
    # ones_tabs[k][m] replicates 1 across m lanes of width lane_w[k].
    ones_tabs: List[List[int]] = [[0] for _ in range(KP + 1)]
    # Rolling lookahead windows: RV[i]/RC[i] pack the decision character
    # at position i plus the (up to) K window characters after it, first
    # character in the low bits — chars past the stream end contribute
    # nothing, so a short window near the end is the same integer as its
    # explicit build.  One backward O(n) pass replaces a per-decision
    # packing loop; ``rv & pmask[k]`` is then exactly the level-k scan
    # pattern (decision char + k-1 window chars), and ``rv >> char_bits``
    # recovers the pure window for the per-candidate cone tests.
    pmask = [(1 << (k * char_bits)) - 1 for k in range(K + 2)]
    RV = [0] * n
    RC = [0] * n
    if lookahead_policy:
        kmask = pmask[K]
        rv = rc = 0
        j = n - 1
        while j >= 0:
            rv = values[j] | ((rv & kmask) << char_bits)
            rc = cares[j] | ((rc & kmask) << char_bits)
            RV[j] = rv
            RC[j] = rc
            j -= 1

    def ones_for(k: int, lanes: int) -> int:
        tab = ones_tabs[k]
        if lanes >= len(tab):
            width = lane_w[k]
            value = tab[-1]
            for _ in range(len(tab), lanes + 1):
                value = (value << width) | 1
                tab.append(value)
        return tab[lanes]

    def continuation(code: int, i: int, limit: int) -> int:
        """Literal replica of ``ChildSelector._continuation``.

        Shares the decision's node budget via ``budget``; only runs
        when the budget could bind (see ``lookahead_best``), so its
        per-node cost is off the common path.
        """
        nonlocal budget
        if limit <= 0 or i >= n or budget <= 0:
            return 0
        budget -= 1
        if cares[i] == fullchar:
            child = children[code].get(values[i])
            if child is None:
                return 0
            return 1 + continuation(child, i + 1, limit - 1)
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
            depth = 1 + continuation(cands[p], i + 1, limit - 1)
            if depth > best:
                best = depth
                if best >= limit:
                    break
            if budget <= 0:
                break
        return best

    # Decision memo: the winner of a lookahead decision is a pure
    # function of (candidate tuple, window depth, window masks, the sum
    # of the candidates' subtree weights).  The weight sum is a valid
    # monotone stamp: weights only ever increase within a run, and any
    # allocation in or under a candidate's subtree — the only dictionary
    # change that can alter depths, cone counts, sim orderings or argmax
    # keys — walks the weight increment through that candidate, so an
    # equal sum at two different times implies identical per-candidate
    # weights *and* untouched subtrees.  Sibling allocations leave the
    # sum (and the decision) unchanged, which is exactly when a hit is
    # wanted.  Cleared on reset (weights restart, codes reallocate).
    decision_memo: Dict[tuple, int] = {}
    # Per-candidate cache under the decision memo: a candidate's
    # unbudgeted window depth and compatible cone node count are pure
    # functions of (candidate, window, structure <= K below it).
    # ``sver[c]`` is that structure's version: the pack-maintenance
    # walk bumps it for every ancestor within K+1 of a new entry, so
    # it moves exactly when the cone can — allocations elsewhere (or
    # deeper) leave cached cones valid, unlike a weight stamp.
    sver: Dict[int, int] = {}
    cone_cache: Dict[tuple, tuple] = {}
    # Successful full-depth replays: the DFS visits nodes in a fixed
    # (weight-sorted) order and stops at the first full-depth path, so
    # its node consumption nf is deterministic and independent of the
    # remaining budget whenever nf fits (the budget can't reorder a
    # search it never interrupts).  weight[child] stamps the key: every
    # allocation under the candidate bumps it, and both the cone's
    # shape and the DFS's sort keys only change through such adds.
    fullsim_cache: Dict[tuple, int] = {}

    # Seeded dictionary: the suffix packs are maintained append-only at
    # the add site, so a dictionary restored from a snapshot arrives
    # with *empty* packs — the lookahead would silently degrade to the
    # weight argmax and diverge from the seeded reference.  Replay the
    # pack-maintenance walk for every pre-allocated entry in code order
    # (allocation order), which reproduces the exact pack lanes, lane
    # order and ``sver`` counters an uninterrupted run would hold.
    if K and dictionary.allocated:
        sver_bump = sver.get
        for added in range(cfg.base_codes, dictionary.next_code):
            sfx = charr[added]
            prev = added
            anc = parent[added]
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
                sver[anc] = sver_bump(anc, 0) + 1
                if anc == -1:
                    break
                sfx = charr[anc] | (sfx << char_bits)
                prev = anc
                anc = parent[anc]
                k += 1

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

    sver_get = sver.get

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
            cone_cache[ckey] = hit
        return hit

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
        limit = K
        idx = i + 1
        rem = n - idx
        te = limit if rem > limit else rem  # deepest *entered* level
        m = len(cands)
        if te == 0:
            # No window left (stream end) or W == 1: the reference's
            # guards return depth 0 for everyone without consuming
            # budget — argmax of (weight, -code).
            best = cands[start]
            best_w = weight[best]
            for p in range(start + step, m, step):
                child = cands[p]
                child_w = weight[child]
                if child_w > best_w or (child_w == best_w and child < best):
                    best_w = child_w
                    best = child
            return best
        rv = RV[i]
        rc = RC[i]
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
            best = cands[start]
            best_w = weight[best]
            for p in range(start + step, m, step):
                child = cands[p]
                child_w = weight[child]
                if child_w > best_w or (child_w == best_w and child < best):
                    best_w = child_w
                    best = child
            return best
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
                if best_key[0] > 0:
                    break
                bw = best_key[1]
                for q in range(p, m, step):
                    ch = cands[q]
                    w = weight[ch]
                    if w > bw or (w == bw and ch < best):
                        bw = w
                        best = ch
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
                    depth = continuation(child, idx, limit)
                    if depth >= limit:
                        fullsim_cache[fkey] = r - budget
                    r = budget
            elif cnt > r:
                # The cone the budget dies inside: replay with the
                # exact remaining budget.
                budget = r
                depth = continuation(child, idx, limit)
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

    def choose_base(i: int) -> int:
        value = values[i]
        care = cares[i]
        if lookahead_policy:
            # Base decisions have up to 2**C_C candidates, so the
            # generic candidate-tuple memo key is expensive even on a
            # hit.  An O(1) key works here: the rolling window packs
            # the decision char and lookahead, and the allocation
            # counter determines the base candidate tuple (the
            # active-base set only changes on add/reset) *and* every
            # base subtree (each allocation's weight walk ends in
            # exactly one base), so together they pin the whole
            # decision.  Once the dictionary freezes, every repeated
            # (char, window) restart is a pure dict hit.
            rem = n - i - 1
            te = K if rem > K else rem
            key = (-1, te, RV[i], RC[i], allocs)
            hit = decision_memo.get(key)
            if hit is not None:
                return hit
            if index._bases_stale:
                bases = index_base_candidates(value, care)
            else:
                bases = index._bases_cache.get((value, care))
                if bases is None:
                    bases = index_base_candidates(value, care)
            if len(bases) == 1:
                best = bases[0]
            else:
                best = lookahead_best(bases, i, 0, 1, -1)
            decision_memo[key] = best
            return best
        bases = index.base_candidates(value, care)
        if len(bases) == 1:
            return bases[0]
        if policy == "first":
            return min(bases)
        best = bases[0]
        best_w = weight[best]
        for base in bases[1:]:
            base_w = weight[base]
            if base_w > best_w or (base_w == best_w and base < best):
                best_w = base_w
                best = base
        return best

    def boundary(bcode: int, head: int) -> None:
        """Reset-or-allocate at a phrase boundary (string(bcode) + head).

        The step itself is :meth:`LZWDictionary.phrase_boundary`, shared
        with the reference loop; this wrapper adds the fast path's own
        maintenance.  It serves the in-stream boundaries of the main
        loop *and* the cross-shard link boundary of a seeded
        continuation, so both keep identical pack maintenance.
        """
        nonlocal allocs, weight, children
        new_code = dictionary.next_code
        bases_before = len(active_bases)
        if dictionary.phrase_boundary(bcode, head, rec):
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
        index.invalidate_node(bcode)
        if len(active_bases) != bases_before:
            index.invalidate_bases()
        # Append the new entry's path suffix to the packs of its K+1
        # nearest ancestors: the ancestor at distance k gains a depth-k
        # descendant whose lane is the last k characters of the new
        # string (first consumed lowest).  The walk ends at the virtual
        # root (-1), whose lane is the entry's whole string.
        if K:
            sfx = head
            prev = new_code  # the path's first-step child from anc
            anc = bcode
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

    # ------------------------------------------------------------------
    # Main loop — control flow mirrors the reference loop, StreamEncoder._drain
    # ------------------------------------------------------------------
    codes_append = codes.append
    expansions_append = expansions.append
    longest_phrase = 0
    buffer = choose_base(0)
    if encoder.link is not None:
        # Pipelined-wave continuation: replay the cross-shard boundary
        # after the head is chosen (the serial ordering), before any
        # character is consumed — mirrors the reference's seeded path.
        boundary(encoder.link, buffer)
    phrase_start = 0
    i = 1
    while i < n:
        if cancelling and not (i & 1023):  # every CHECK_INTERVAL chars
            cancel.check()
        value = values[i]
        care = cares[i]
        if care == fullchar:
            child = children[buffer].get(value)
            if child is not None:
                buffer = child
                i += 1
                continue
            cands = ()
        elif lookahead_policy:
            # O(1) memo for the whole child decision, same trick as
            # choose_base: (node, char, window) plus ``weight[node]``
            # pin it.  The candidate set and every candidate subtree
            # live under ``node``, and any allocation below ``node``
            # walks its weight, so a stale hit is impossible.  A hit
            # skips candidate materialisation entirely; the sentinel
            # -1 records "no compatible child" (phrase boundary).
            rem = n - i - 1
            te = K if rem > K else rem
            mkey = (buffer, te, RV[i], RC[i], weight[buffer])
            hit = decision_memo.get(mkey)
            if hit is not None:
                if hit >= 0:
                    buffer = hit
                    i += 1
                    continue
                cands = ()
            else:
                e = index_nodes.get(buffer)
                if e is None:
                    cands = index_candidates(buffer, value, care)
                else:
                    cands = e[3].get((value, care))
                    if cands is None:
                        cands = index_candidates(buffer, value, care)
                if cands:
                    if len(cands) == 2:
                        best = cands[1]
                    else:
                        best = lookahead_best(cands, i, 1, 2, buffer)
                    decision_memo[mkey] = best
                    buffer = best
                    i += 1
                    continue
                decision_memo[mkey] = -1
        else:
            cands = index_candidates(buffer, value, care)
        if cands:
            if len(cands) == 2 or policy == "first":
                # single candidate, or lowest child code — candidates
                # are stored in ascending-code order, so lane 0 wins
                buffer = cands[1]
            else:  # popular
                best = cands[1]
                best_w = weight[best]
                for p in range(3, len(cands), 2):
                    child = cands[p]
                    child_w = weight[child]
                    if child_w > best_w or (child_w == best_w and child < best):
                        best_w = child_w
                        best = child
                buffer = best
            i += 1
            continue
        # Phrase boundary: emit, maybe allocate/reset, restart.
        codes_append(buffer)
        expansions_append(nchars[buffer])
        phrase_len = i - phrase_start
        if phrase_len > longest_phrase:
            longest_phrase = phrase_len
        if recording:
            _record_phrase(rec, char_bits, cares, phrase_start, i)
        head = choose_base(i)
        boundary(buffer, head)
        buffer = head
        phrase_start = i
        i += 1
        if frozen_break and dictionary.is_full:
            break
    # ------------------------------------------------------------------
    # Frozen phase — the dictionary is full and cannot reset, so no
    # decision input ever mutates again: ``allocs``, every weight and
    # every pack are constants for the rest of the stream.  This tight
    # replica of the loop above drops the weight stamp from the memo
    # key (nothing can invalidate a hit any more) and skips the dead
    # ``dictionary.add`` attempt at each boundary, keeping only its
    # recorder counter.  Most of a long stream encodes here — the
    # dictionary fills within the first few thousand characters.
    # ------------------------------------------------------------------
    while i < n:
        if cancelling and not (i & 1023):  # every CHECK_INTERVAL chars
            cancel.check()
        value = values[i]
        care = cares[i]
        if care == fullchar:
            child = children[buffer].get(value)
            if child is not None:
                buffer = child
                i += 1
                continue
        else:
            rem = n - i - 1
            te = K if rem > K else rem
            mkey = (buffer, te, RV[i], RC[i])
            hit = decision_memo.get(mkey)
            if hit is not None:
                if hit >= 0:
                    buffer = hit
                    i += 1
                    continue
            else:
                e = index_nodes.get(buffer)
                if e is None:
                    cands = index_candidates(buffer, value, care)
                else:
                    cands = e[3].get((value, care))
                    if cands is None:
                        cands = index_candidates(buffer, value, care)
                if cands:
                    if len(cands) == 2:
                        best = cands[1]
                    else:
                        best = lookahead_best(cands, i, 1, 2, buffer)
                    decision_memo[mkey] = best
                    buffer = best
                    i += 1
                    continue
                decision_memo[mkey] = -1
        # Phrase boundary: emit and restart — the full dictionary turns
        # the reference's add attempt into a counted no-op.
        codes_append(buffer)
        expansions_append(nchars[buffer])
        phrase_len = i - phrase_start
        if phrase_len > longest_phrase:
            longest_phrase = phrase_len
        if recording:
            _record_phrase(rec, char_bits, cares, phrase_start, i)
            rec.incr(ev.DICT_FULL_SKIPS)
        buffer = choose_base(i)
        phrase_start = i
        i += 1
    codes_append(buffer)
    expansions_append(nchars[buffer])
    phrase_len = n - phrase_start
    if phrase_len > longest_phrase:
        longest_phrase = phrase_len
    if recording:
        _record_phrase(rec, char_bits, cares, phrase_start, n)
        rec.incr(ev.ENCODE_CODES, len(codes))
        rec.observe(ev.HIST_CODES_PER_WIDTH, cfg.code_bits, len(codes))
    encoder._longest_phrase = longest_phrase
    # ``continuation`` is recursive, so its closure cell refers back to
    # it; clearing the cell breaks that cycle, freeing the packs and
    # memo tables by reference counting instead of a later cyclic GC.
    continuation = None  # noqa: F841
    return codes, expansions


def _record_phrase(rec, char_bits: int, cares, start: int, end: int) -> None:
    """Recording-path replica of :func:`repro.core.stream._record_phrase`.

    Every character is ``char_bits`` wide (the final one is X-padded,
    and padding bits have zero care), so the X count per character is
    ``char_bits - popcount(care)`` — identical to the reference's
    ``TernaryVector.x_count`` over the padded characters.
    """
    xbits = 0
    for j in range(start, end):
        xbits += char_bits - _popcount(cares[j])
    rec.observe(ev.HIST_PHRASE_LEN, end - start)
    rec.observe(ev.HIST_XBITS_PER_PHRASE, xbits)
    rec.incr(ev.ENCODE_XBITS, xbits)
