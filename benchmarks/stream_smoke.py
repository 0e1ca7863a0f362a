"""Streaming-codec smoke: bounded memory, capped-RSS pipe round-trip.

The streaming codec's promise is that peak memory is a function of the
chunk size and the dictionary, never of the input length.  This smoke
proves it two ways, fast enough for CI:

1. **Allocation flatness** — stream a corpus and a 10x larger corpus
   through ``StreamEncoder`` + ``StreamContainerWriter`` (sink:
   ``os.devnull``) under :mod:`tracemalloc` and assert the traced peak
   for the 10x input stays within 2x of the base peak.  Two corpora:
   repetitive text (long phrases) and incompressible random bytes
   (every window new, the worst case for the matcher's caches).
   ``tracemalloc`` sees only Python allocations, so the baseline is
   tiny and a buffer-the-world regression (a window that keeps every
   character costs ~28 bytes/char) shows up as an order-of-magnitude
   blowup, not noise.

2. **Capped pipe round-trip** — run the real CLI as two subprocesses,
   ``repro compress --stream | repro decompress --stream``, each under
   a hard ``RLIMIT_DATA`` ceiling (``--rss-cap-mb``, default 256).  The
   kernel kills any stage that tries to buffer past the cap; the smoke
   then byte-compares the restored output against the corpus.

Exits non-zero on any violation.  Usage::

    PYTHONPATH=src python benchmarks/stream_smoke.py [--base-kb 48]
        [--rss-cap-mb 256] [--chunk-bytes 65536]
"""

import argparse
import io
import os
import random
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bitstream import TernaryVector  # noqa: E402
from repro.core import LZWConfig, StreamEncoder  # noqa: E402
from repro.streamio import StreamContainerWriter  # noqa: E402


def make_corpus(size: int) -> bytes:
    line = (
        b"streaming smoke corpus: repeated structure, repeated structure, "
        b"line %06d\n"
    )
    out = bytearray()
    i = 0
    while len(out) < size:
        out += line % i
        i += 1
    return bytes(out[:size])


def make_random_corpus(size: int) -> bytes:
    return random.Random(size).getrandbits(8 * size).to_bytes(size, "little")


CORPORA = (("repetitive", make_corpus), ("random", make_random_corpus))


def traced_stream_peak(data: bytes, chunk_bytes: int) -> int:
    """Peak traced allocation while streaming ``data`` to /dev/null."""
    config = LZWConfig()
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            enc = StreamEncoder(config)
            writer = StreamContainerWriter(config, sink)
            for off in range(0, len(data), chunk_bytes):
                buf = data[off : off + chunk_bytes]
                writer.write_codes(enc.feed(TernaryVector.from_int(
                    int.from_bytes(buf, "little"), len(buf) * 8
                )))
            writer.finalize(enc.finalize(), enc.original_bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def check_allocation_flatness(base_kb: int, chunk_bytes: int) -> bool:
    ok = True
    for name, make in CORPORA:
        base = make(base_kb * 1024)
        big = make(base_kb * 1024 * 10)
        peak_base = traced_stream_peak(base, chunk_bytes)
        peak_big = traced_stream_peak(big, chunk_bytes)
        ratio = peak_big / max(peak_base, 1)
        flat = ratio <= 2.0
        print(
            f"allocation flatness ({name}): base {len(base)} B -> peak "
            f"{peak_base} B; 10x {len(big)} B -> peak {peak_big} B; ratio "
            f"{ratio:.2f}x ({'OK' if flat else 'FAIL: peak tracks input size'})"
        )
        ok = ok and flat
    return ok


def rlimit_preexec(cap_bytes: int):
    def apply() -> None:
        resource.setrlimit(resource.RLIMIT_DATA, (cap_bytes, cap_bytes))

    return apply


def check_capped_pipe(base_kb: int, cap_mb: int, chunk_bytes: int) -> bool:
    corpus = make_corpus(base_kb * 1024 * 4)
    cap = cap_mb * 1024 * 1024
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "corpus.bin"
        corpus_path.write_bytes(corpus)
        compress = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "compress", str(corpus_path),
             "--stream", "--chunk-bytes", str(chunk_bytes), "-o", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, preexec_fn=rlimit_preexec(cap),
        )
        restored_path = Path(tmp) / "restored.bin"
        decompress = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "decompress", "-",
             "-o", str(restored_path)],
            stdin=compress.stdout, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env,
            preexec_fn=rlimit_preexec(cap),
        )
        compress.stdout.close()  # let decompress see EOF
        _, comp_err = compress.communicate()
        _, dec_err = decompress.communicate()
        if compress.returncode != 0:
            print(f"capped pipe: compress stage failed rc={compress.returncode} "
                  f"under {cap_mb} MiB RLIMIT_DATA:\n{comp_err.decode()}")
            return False
        if decompress.returncode != 0:
            print(f"capped pipe: decompress stage failed "
                  f"rc={decompress.returncode} under {cap_mb} MiB "
                  f"RLIMIT_DATA:\n{dec_err.decode()}")
            return False
        restored = restored_path.read_bytes()
    ok = restored == corpus
    print(
        f"capped pipe round-trip: {len(corpus)} B through compress|decompress "
        f"under {cap_mb} MiB RLIMIT_DATA -> "
        f"{'byte-identical OK' if ok else 'FAIL: output differs'}"
    )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-kb", type=int, default=24,
                        help="base corpus size in KiB (10x for flatness)")
    parser.add_argument("--rss-cap-mb", type=int, default=256,
                        help="RLIMIT_DATA cap for each pipe stage")
    # The base corpus must span several chunks, otherwise the base
    # run's effective chunk (and so its per-chunk allocation peak) is
    # smaller than the 10x run's and the comparison is meaningless.
    parser.add_argument("--chunk-bytes", type=int, default=8192)
    args = parser.parse_args(argv)
    if args.base_kb * 1024 < 3 * args.chunk_bytes:
        parser.error("--base-kb must cover at least 3 chunks")

    ok = check_allocation_flatness(args.base_kb, args.chunk_bytes)
    ok = check_capped_pipe(args.base_kb, args.rss_cap_mb,
                           args.chunk_bytes) and ok
    print("stream smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
