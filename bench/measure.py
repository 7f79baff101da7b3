"""Measurement loops behind bench/run.py: timed runs of one workload
through conch's command line, their checks, and the metric table."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import layers
import workloads
from conch import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_PROBES = 5  # at least; one untimed probe fills the bytecode cache first
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import conch.cli
for path in sys.argv[2:]:
    conch.cli.load_program(path)
print(time.perf_counter() - t0)
"""


class Capture:
    """Keeps the results and report of the CLI's latest run, installed
    over the names the CLI looks them up by."""

    def __enter__(self):
        self.results = self.report = None
        run_models, build_report = self._saved = cli.run_models, cli.build_report

        def capture_run_models(*args, **kw):
            self.results = run_models(*args, **kw)
            return self.results

        def capture_build_report(*args, **kw):
            self.report = build_report(*args, **kw)
            return self.report

        cli.run_models, cli.build_report = capture_run_models, capture_build_report
        return self

    def __exit__(self, *exc):
        cli.run_models, cli.build_report = self._saved
        return False

    def take(self, rc, cli_stdout):
        """The outcome of the invocation that just returned `rc`; drops
        the simulated memories."""
        results, report = self.results, self.report
        self.results = self.report = None
        if results is None:
            return workloads.Outcome(rc, None, b"", {}, cli_stdout)
        counters = {
            model: {
                "instret": r.st.instret,
                "cipher_blocks": r.mem.cipher_blocks,
                "dcache_hits": r.mem.dcache.hits,
                "dcache_misses": r.mem.dcache.misses,
                "icache_misses": r.mem.icache.misses,
                "tagcache_hits": r.mem.tagcache_hits,
                "tagcache_misses": r.mem.tagcache_misses,
            }
            for model, r in results.items()
        }
        stdout = bytes(next(iter(results.values())).shim.stdout)
        return workloads.Outcome(rc, report, stdout, counters, cli_stdout)


def run_once(job, cap, tracer=None):
    """One full run of the workload: every invocation, timed around the
    CLI call only. Returns (seconds, outcomes)."""
    wall, outs = 0.0, []
    for argv in job.argvs:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall += time.perf_counter() - t0
        outs.append(cap.take(rc, sink.getvalue()))
        gc.collect()
    return wall, outs


def priced_instret(outs):
    return sum(c["instret"] for o in outs for c in o.counters.values())


def setup_seconds(job):
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, job.programs)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


class Tally:
    """Runs attempted and failed, with each failure on stderr."""

    def __init__(self, job, goldens):
        self.job, self.goldens = job, goldens
        self.attempted = self.failed = 0

    def record(self, fails):
        self.attempted += 1
        self.failed += bool(fails)
        for f in fails:
            print(f"bench: {self.job.name} seed {self.job.seed}: {f}", file=sys.stderr)

    def check(self, outs, extra=()):
        self.record(workloads.failures(self.job, outs, self.goldens) + list(extra))


def end_to_end(job, seconds, tally):
    # Set-up probes alternate with the timed runs, so that both sample
    # the same stretch of the machine's (noisy) speed.
    setup_seconds(job)
    setup, walls = [], []
    with Capture() as cap:
        tally.check(run_once(job, cap)[1])  # warm-up
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            setup.append(setup_seconds(job))
            wall, outs = run_once(job, cap)
            tally.check(outs)
            walls.append(wall)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(job))
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "sim_kips": priced_instret(outs) / wall / 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(job, seconds, tally):
    plain, traced, spans = [], [], []
    with Capture() as cap:
        tally.check(run_once(job, cap)[1])  # warm-up
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            wall, outs = run_once(job, cap)
            tally.check(outs)
            plain.append(wall)
            tr = layers.Tracer()
            wall, outs = run_once(job, cap, tr)
            tally.check(outs, layers.reconcile(tr, outs))
            traced.append((wall, layers.layer_metrics(tr, outs, wall)))
            start = tr.spans[0][3]
            spans.append([[i, p, n, 1e6 * (t0 - start), 1e6 * (t1 - start)] for i, p, n, t0, t1 in tr.spans])
    micro, fails = layers.micro(job.seed, workloads.PROGRAMS / "sort_sensitive.s")
    tally.record(fails)
    (WORK / f"spans-{job.name}-{job.seed}.json").write_text(
        json.dumps({"fields": ["id", "parent", "name", "start_us", "end_us"], "runs": spans})
    )
    metrics = {name: statistics.median_low(m[name] for _, m in traced) for name in traced[0][1]}
    metrics.update(micro)
    overhead = statistics.median(w for w, _ in traced) / statistics.median(plain) - 1
    metrics["trace.overhead_pct"] = 100 * overhead
    return metrics


def environment(job):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "conch").rglob("*")):
        if path.suffix in (".py", ".s"):
            digest.update(path.read_bytes())
    return {
        "workload": job.name,
        "seed": job.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def spec_units(trace):
    """Metric name -> unit, in BENCHMARK.json's order, for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name, seed, seconds, trace, record_golden=False):
    if name not in workloads.WORKLOADS:
        print(f"bench: unknown workload {name!r}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if seed is None else seed
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job = workloads.WORKLOADS[name](seed, workdir)
        if record_golden:
            return store_golden(job)
        print("env", json.dumps(environment(job)))
        tally = Tally(job, workloads.load_goldens())
        measured = (per_layer if trace else end_to_end)(job, seconds, tally)
    finally:
        shutil.rmtree(workdir)
    metrics = {m: {"value": measured[m], "unit": unit} for m, unit in spec_units(trace).items()}
    for m, v in metrics.items():
        print(f"{name:<15} {m:<26} {v['value']:>14.6g} {v['unit']}")
    print(f"{name:<15} {'failed':<26} {tally.failed:>14}/{tally.attempted} runs")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def store_golden(job):
    with Capture() as cap:
        _, outs = run_once(job, cap)
    fails = workloads.failures(job, outs, {})
    if fails:
        print(f"bench: not recording a failing run: {fails}", file=sys.stderr)
        return 1
    goldens = workloads.load_goldens()
    goldens[job.name] = {"seed": job.seed, "sha256": [workloads.report_digest(o.report) for o in outs]}
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"recorded {job.name} at seed {job.seed}")
    return 0


def run_all(run_py, seed, seconds, trace):
    """Every workload in a process of its own, so peak memory is per
    workload; the metrics come back prefixed with the workload name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(run_py), "--workload", name, "--seconds", str(seconds), "--trace", str(trace)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0
