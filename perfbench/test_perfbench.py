"""Tests of the benchmark harness itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from repro.service.protocol import ServiceClient  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that must be non-zero on each workload: the
#: layers that workload's calls pass through.
LAYERS_ON_PATH = {
    "corpus_batch": {
        "core.encode_s", "core.encode_mbit_s", "core.codes", "core.assign_s",
        "core.decode_s", "container.dump_s", "container.load_s", "container.bytes",
        "bitstream.concat_s", "parallel.plan_s", "parallel.batch_s",
        "parallel.shard_cpu_s", "parallel.shards", "parallel.speedup",
    },
    "long_scan": {
        "core.encode_s", "core.encode_mbit_s", "core.codes", "core.assign_s",
        "core.decode_s", "container.dump_s", "container.load_s", "container.bytes",
        "bitstream.concat_s",
    },
    "service_mix": {
        "core.encode_s", "core.encode_mbit_s", "core.codes", "core.assign_s",
        "core.decode_s", "container.dump_s", "container.load_s", "container.bytes",
        "bitstream.format_s", "bitstream.parse_s", "stream.feed_s",
        "streamio.write_s", "streamio.decode_s", "streamio.frames",
    }
    | {
        f"service.{op}.{metric}"
        for op in workloads.SERVICE_OPS
        for metric in ("p50_ms", "inproc_ms")
    },
}


def run_bench(workload, trace, seed=1, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [
            sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "0.5", "--trace", str(trace), "--scale", "0.05",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    run, result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if trace:
        for name in LAYERS_ON_PATH[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        for name, emitted in result["metrics"].items():
            assert emitted["value"] > 0, name
    assert run["seed"] == 1
    for fact in ("nproc", "cpu_model", "python", "platform"):
        assert run["machine"][fact]
    assert "loadavg_1m_before" in run and "loadavg_1m_after" in run


def test_ratio_is_fixed_by_the_seed():
    ratios = [
        result_of(run_bench("long_scan", 0, seed=seed))[1]["metrics"]["ratio_percent"]["value"]
        for seed in (7, 7, 8)
    ]
    assert ratios[0] == ratios[1] != ratios[2]


def _flip_middle_byte(data: bytes) -> bytes:
    index = len(data) // 2
    return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1 :]


def test_corrupted_container_is_a_failed_op(monkeypatch):
    workload = workloads.LongScan()
    workload.set_up(1, 0.05)
    real_dump = workloads.dump_bytes
    monkeypatch.setattr(
        workloads,
        "dump_bytes",
        lambda *a, **kw: _flip_middle_byte(real_dump(*a, **kw)),
    )
    phase = workload.run(0.0)
    assert len(phase.ops) == 2
    assert all(not op.ok for op in phase.ops)
    assert phase.ratio_percent() == 0.0


def test_corrupted_service_reply_is_a_failed_op(monkeypatch):
    real_request = ServiceClient.request

    def corrupting_request(self, op, payload=b"", **kw):
        header, reply = real_request(self, op, payload, **kw)
        if op == "compress":
            reply = _flip_middle_byte(reply)
        return header, reply

    workload = workloads.ServiceMix()
    workload.set_up(1, 0.05)
    try:
        monkeypatch.setattr(ServiceClient, "request", corrupting_request)
        phase = workload.run(0.0)
    finally:
        workload.close()
    compress_ops = [op for op in phase.ops if op.kind == "compress"]
    assert compress_ops and not any(op.ok for op in compress_ops)
    assert all(op.ok for op in phase.ops if op.kind == "compress_stream")


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    proc = run_bench("long_scan", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_no_child_process_outlives_the_run(workload):
    """When ``main`` returns, every process the run started has ended."""
    script = f"""
import os, sys
sys.argv[0] = {str(HERE / "run.py")!r}
sys.path.insert(0, {str(HERE)!r})
import run
assert run.main(["--workload", {workload!r}, "--seed", "1", "--seconds", "0.5",
                 "--scale", "0.05"]) == 0
children = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{{pid}}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        continue
    if int(fields[1]) == os.getpid():
        children.append(pid)
print("children", children)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "children []"
