"""Checks of the benchmark itself, on small inputs:

    python3 -m pytest bench -q

The tracer reconciliation proves the wrappers see every call; the other
tests pin the metric names to BENCHMARK.json and show that the output
checks catch a wrong result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "stream_tagged": {"size": 64 * 1024},  # still twice the dcache
    "sort_sensitive": {"records": 32},
    "tenant_server": {"requests": 8},
    "demos": {},
}


def small_job(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tmp_path, **SMALL[name])


def traced_run(job):
    with measure.Capture() as cap:
        tr = layers.Tracer()
        wall, outs = measure.run_once(job, cap, tr)
    return tr, wall, outs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracer_reconciles(name, tmp_path):
    job = small_job(name, tmp_path)
    tr, wall, outs = traced_run(job)
    assert workloads.failures(job, outs, {}) == []
    assert layers.reconcile(tr, outs) == []
    m = layers.layer_metrics(tr, outs, wall)
    instret = sum(c["instret"] for o in outs for c in o.counters.values())
    charged = sum(c["cipher_blocks"] for o in outs for c in o.counters.values())
    assert m["core.steps"] == instret
    assert m["mem.fetch_calls"] == m["core.steps"]
    assert m["mem.systems"] == 3 * len(job.argvs)
    assert m["crypt.blocks"] >= charged
    assert tr._frames == [] and tr._open_spans == []
    # the wrappers are gone again
    assert layers.core.step.__name__ == "step"
    assert layers.mem.MemorySystem.load.__name__ == "load"


def test_metric_names_match_benchmark_json(tmp_path):
    job = small_job("sort_sensitive", tmp_path)
    tr, wall, outs = traced_run(job)
    micro, fails = layers.micro(job.seed, workloads.PROGRAMS / "sort_sensitive.s")
    assert fails == []
    emitted = set(layers.layer_metrics(tr, outs, wall)) | set(micro) | {"trace.overhead_pct"}
    assert emitted == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "sim_kips", "peak_rss_mib", "setup_s"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert all(v > 0 for v in micro.values())


def test_checks_catch_wrong_outputs(tmp_path):
    job = small_job("stream_tagged", tmp_path)
    with measure.Capture() as cap:
        _, outs = measure.run_once(job, cap)
    assert workloads.failures(job, outs, {}) == []
    digest = workloads.report_digest(outs[0].report)
    assert workloads.failures(job, outs, {job.name: {"seed": job.seed, "sha256": [digest]}}) == []
    assert workloads.failures(job, outs, {job.name: {"seed": job.seed, "sha256": ["0" * 64]}})
    outs[0].guest_stdout = outs[0].guest_stdout[::-1]
    assert workloads.failures(job, outs, {})
    outs[0].report["exit_code"] = 1
    assert workloads.failures(job, outs, {})


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "demos", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
