"""NullRecorder overhead smoke — the observability tax must stay <= 5%.

The instrumented seams of the reference encode loop
(:class:`repro.core.stream.StreamEncoder`, which one-shot
``engine="reference"`` encoding runs) promise that with the default
:data:`~repro.observability.NULL_RECORDER` the whole encode pays one
attribute read plus one local-bool branch per event site.  This
benchmark holds that promise to a number: it keeps a faithful copy of
the encode loop with every hook deleted (the commit-local no-hooks
baseline), cross-checks that both loops emit the exact same codes, then
times both best-of-N and fails (exit 1) if the instrumented loop is
more than ``--max-overhead-percent`` slower.  ``CONFIG`` pins
``engine="reference"``: the default ``auto`` engine is the fast matcher,
a different algorithm the no-hooks copy cannot stand in for.

Run it as CI does::

    PYTHONPATH=src python benchmarks/bench_overhead.py

If the hooked loop drifts, either the instrumentation grew a per-event
cost outside its ``if recording:`` guards, or this reference copy is
stale — ``_reference_encode`` must be updated in the same commit as any
encoder-loop change (the identical-codes assertion catches semantic
drift, this comment is the reminder for the mechanical part).
"""

import argparse
import sys
import time
from typing import List

from repro.bitstream import TernaryVector, to_characters
from repro.core import LZWConfig, LZWEncoder
from repro.core.dictionary import LZWDictionary
from repro.core.dontcare import ChildSelector
from repro.workloads import build_testset

CONFIG = LZWConfig(char_bits=7, dict_size=1024, entry_bits=63, engine="reference")

#: Timing repetitions; best-of keeps scheduler noise out of the ratio.
DEFAULT_ROUNDS = 5


def _reference_encode(stream: TernaryVector, cfg: LZWConfig) -> List[int]:
    """The encoder's hot loop with every observability hook removed.

    Control flow of the one-shot ``StreamEncoder`` loop (a single feed
    then finalize) minus recorder lines, cancellation checkpoints, the
    commit slack, stats bookkeeping and the CompressedStream wrapper —
    the fastest this loop can possibly run without hooks, which is what
    the instrumented loop is measured against.  The reset-or-allocate
    step is :meth:`LZWDictionary.phrase_boundary` without its counters.
    """
    dictionary = LZWDictionary(cfg)
    chars = to_characters(stream, cfg.char_bits)
    codes: List[int] = []
    if not chars:
        return codes

    selector = ChildSelector(dictionary, cfg)
    buffer = selector.choose_base(chars, 0)
    i = 1
    while i < len(chars):
        choice = selector.choose_child(buffer, chars, i)
        if choice is not None:
            _char, child = choice
            buffer = child
            i += 1
            continue
        codes.append(buffer)
        head = selector.choose_base(chars, i)
        if (
            cfg.reset_on_full
            and not dictionary.is_full
            and dictionary.can_extend(buffer)
            and dictionary.next_code == cfg.dict_size - 1
        ):
            dictionary.reset()
        else:
            dictionary.add(buffer, head)
        buffer = head
        i += 1
    codes.append(buffer)
    return codes


def _best_of_interleaved(rounds: int, fn_a, fn_b):
    """Best-of timings with A/B runs alternated.

    Interleaving keeps one-time warm-up (allocator arenas, page faults)
    from being billed entirely to whichever loop happens to run first —
    back-to-back blocks skew the ratio by double digits on cold starts.
    """
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Assert the NullRecorder observability overhead budget."
    )
    parser.add_argument(
        "--max-overhead-percent",
        type=float,
        default=5.0,
        help="fail if the hooked encode is more than this much slower "
        "than the no-hooks reference (default: 5)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=DEFAULT_ROUNDS,
        help=f"timing repetitions, best-of (default: {DEFAULT_ROUNDS})",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.5,
        help="workload vector-count multiplier (default: 0.5)",
    )
    args = parser.parse_args(argv)

    stream = build_testset("s13207f", scale=args.scale).to_stream()

    # Semantic guard first: if the reference loop and the instrumented
    # encoder disagree on a single code, the baseline is stale and the
    # timing comparison below would be meaningless.
    hooked = LZWEncoder(CONFIG).encode(stream)
    reference = _reference_encode(stream, CONFIG)
    if list(hooked.codes) != reference:
        print(
            "bench_overhead: reference loop is out of sync with "
            "LZWEncoder.encode — update _reference_encode",
            file=sys.stderr,
        )
        return 2

    ref_seconds, hook_seconds = _best_of_interleaved(
        args.rounds,
        lambda: _reference_encode(stream, CONFIG),
        lambda: LZWEncoder(CONFIG).encode(stream),
    )
    overhead = 100.0 * (hook_seconds / ref_seconds - 1.0)

    print(f"workload: s13207f scale={args.scale} ({len(stream)} bits)")
    print(f"no-hooks reference: {ref_seconds * 1e3:.2f} ms (best of {args.rounds})")
    print(f"NullRecorder encode: {hook_seconds * 1e3:.2f} ms")
    print(f"overhead: {overhead:+.2f}% (budget {args.max_overhead_percent}%)")
    if overhead > args.max_overhead_percent:
        print("bench_overhead: FAIL — overhead budget exceeded", file=sys.stderr)
        return 1
    print("bench_overhead: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
