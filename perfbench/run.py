"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus_batch --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` of the same checkout.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer breakdown.  The last line of standard output is the result
object; the line before it records the run's machine facts and sample
counts.  See README.md in this directory for what each metric means.
"""

import time

START = time.perf_counter()  # before the program under test is imported

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up passes per run; set-up time is their median.
SETUP_PASSES = 5

END_TO_END_UNITS = {
    "compress_mbit_s": "Mbit/s",
    "decompress_mbit_s": "Mbit/s",
    "ratio_percent": "%",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_OPS = ("compress", "decompress", "compress_stream")
PER_LAYER_UNITS = {
    "core.encode_s": "s",
    "core.encode_mbit_s": "Mbit/s",
    "core.codes": "count",
    "core.assign_s": "s",
    "core.decode_s": "s",
    "container.dump_s": "s",
    "container.load_s": "s",
    "container.bytes": "bytes",
    "bitstream.format_s": "s",
    "bitstream.parse_s": "s",
    "bitstream.concat_s": "s",
    "parallel.plan_s": "s",
    "parallel.batch_s": "s",
    "parallel.shard_cpu_s": "s",
    "parallel.shards": "count",
    "parallel.speedup": "x",
    "stream.feed_s": "s",
    "streamio.write_s": "s",
    "streamio.decode_s": "s",
    "streamio.frames": "count",
    **{
        f"service.{op}.{metric}": "ms"
        for op in _OPS
        for metric in ("p50_ms", "inproc_ms", "overhead_ms")
    },
    **{f"trace.{op}.unattributed_ms": "ms" for op in _OPS},
    "trace.overhead_pct": "%",
}


def machine_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The spawn pool of ``compress_batch`` starts this helper process on
    first use.  Left alone, it exits only after this process has, and
    nothing waits for it then.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def set_up(workload_cls, seed: int, scale: float):
    """Build the workload ``SETUP_PASSES`` times; keep the last build.

    Returns the workload and the median pass in seconds.
    """
    passes = []
    workload = None
    for _ in range(SETUP_PASSES):
        if workload is not None:
            workload.close()
        start = time.perf_counter()
        workload = workload_cls()
        workload.set_up(seed, scale)
        passes.append(time.perf_counter() - start)
    return workload, statistics.median(passes)


def measure(workload, seconds: float, trace: bool):
    """The measured phase(s).

    Returns the metrics, every checked op (timed or replayed) and the
    number of requests measured.
    """
    from tracing import Tracer, mean
    from workloads import Phase

    if not trace:
        phase = workload.run(seconds)
        metrics = workload.end_to_end(phase)
        metrics["ratio_percent"] = phase.ratio_percent()
        return metrics, phase.ops, len(phase.requests)
    # Untraced and traced passes alternate, so that the machine's speed
    # drift affects both alike and their difference is the tracing cost.
    untraced, traced = Phase(), Phase()
    tracer = Tracer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        untraced.extend(workload.run(0.0))
        traced.extend(workload.run(0.0, tracer))
    replayed = workload.replay(tracer)
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics.update(workload.layers(tracer, traced))
    metrics["trace.overhead_pct"] = 100.0 * (
        mean(traced.requests) / mean(untraced.requests) - 1.0
    )
    for op in _OPS:
        remainders = tracer.self_seconds("op." + op) + tracer.self_seconds("inproc." + op)
        metrics[f"trace.{op}.unattributed_ms"] = 1e3 * mean(remainders)
    return metrics, untraced.ops + traced.ops + replayed, len(traced.requests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("corpus_batch", "long_scan", "service_mix")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="input size multiplier in (0, 1]; below 1 only for the harness's own tests",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_before = os.getloadavg()[0]

    from workloads import WORKLOADS

    import_s = time.perf_counter() - START
    try:
        workload, setup_pass_s = set_up(WORKLOADS[args.workload], args.seed, args.scale)
        try:
            metrics, ops, samples = measure(workload, args.seconds, bool(args.trace))
        finally:
            workload.close()
    finally:
        stop_resource_tracker()
    failed = [op for op in ops if not op.ok]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if not args.trace:
        metrics["setup_s"] = import_s + setup_pass_s
        metrics["peak_rss_mb"] = peak_rss_mb()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "requests_measured": samples,
        "errors": sorted({op.error for op in failed})[:5],
        "machine": machine_facts(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
    }
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps({"run": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
