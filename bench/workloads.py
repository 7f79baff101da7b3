"""The benchmark's workloads: seeded inputs, the `conch` command lines
that consume them, and the checks every run's outputs must pass.

Each workload loads one part of the simulator heavily and leaves the
others mostly idle, so a change to one module moves one workload:

  stream_tagged   read-side cipher sweep with distinct tweaks (crypt)
  sort_sensitive  interpreter, byte oracle and cache-hit path (core, mem)
  tenant_server   syscalls, thread-key switches and write-side cipher
                  work at tweaks that repeat every request (os_shim)
  demos           the three bundled demos, dominated by per-run fixed
                  cost: MemorySystem construction and the report

The guest sees only the generated files (through --map) and --seed.

stream_tagged and sort_sensitive are not among the workloads in
BENCHMARK.json: between invocations their median run time spread by
15-31% and 17-39% of the median, beyond the 0.25 bound a workload there
must meet (bench/METRICS.md). Both still run with --workload NAME and
in --workload all.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from conch.crypt import derive_thread_key, generate_master_key, qarma_encrypt
from conch.mem import LINE, MODELS

HERE = Path(__file__).resolve().parent
PROGRAMS = HERE / "programs"
DEMO_SOURCES = HERE.parent / "src" / "conch" / "demos"
GOLDENS = HERE / "goldens.json"

DEFAULT_SEED = 0

# Sizes. The stream region is 9x the 32 KiB dcache and larger than the
# 256 KiB that model B's tag cache covers (64 lines x 4 KiB), so every
# tag-cache set thrashes and every line crosses DRAM both ways.
STREAM_BYTES = 288 * 1024
SORT_RECORDS = 256  # 2 KiB: the working set stays inside the dcache
TENANT_REQUESTS = 400
TENANTS = 4

STREAM_REGION = 0x8020_0000  # the `region` label of stream_tagged.s
REQUEST_BYTES = 16
RECORD_BYTES = 16
NONCE_BYTES = 8
REPLY_BYTES = REQUEST_BYTES + RECORD_BYTES + NONCE_BYTES


@dataclass
class Outcome:
    """What one `conch` invocation left behind, reduced to what the
    checks need, so the three simulated memories can be freed."""

    rc: int
    report: dict | None
    guest_stdout: bytes
    counters: dict  # model -> SimResult counters
    cli_stdout: str


@dataclass
class Job:
    """One seeded instance of a workload: the argv of each `conch`
    invocation in a run, the programs they assemble, and the check that
    returns the failures of one run's outcomes."""

    name: str
    seed: int
    argvs: list
    programs: list
    check: Callable


def _write(path, data):
    path.write_bytes(data)
    return f"{path.name}={path}"


def _run_argv(program, seed, maps):
    argv = ["run", str(PROGRAMS / program), "--seed", str(seed)]
    for spec in maps:
        argv += ["--map", spec]
    return argv


def _ordered(report):
    c = report["cycles"]
    if not c["model_a"] > c["model_b"] > c["baseline"]:
        return [f"cycles not ordered model_a > model_b > baseline: {c}"]
    return []


def stream_tagged(seed, workdir, size=STREAM_BYTES):
    rng = random.Random(seed)
    offset = rng.randrange(64) * 4096
    cfg = _write(workdir / "cfg", struct.pack("<QQ", offset, size))
    last_line = STREAM_REGION + offset + size - LINE
    key = derive_thread_key(generate_master_key(seed), 0)
    at_rest_zeros = b"".join(
        qarma_encrypt(key, last_line + 8 * j, 0).to_bytes(8, "little") for j in range(LINE // 8)
    )

    def check(outs):
        (out,) = outs
        fails = _ordered(out.report)
        blocks = out.report["mem_stats"]["cipher_blocks"]
        if blocks != 2 * size // 8:
            fails.append(f"cipher_blocks {blocks}, expected {2 * size // 8}")
        if out.guest_stdout != at_rest_zeros:
            fails.append("last line did not leave as the at-rest ciphertext of zeros")
        return fails

    return Job("stream_tagged", seed, [_run_argv("stream_tagged.s", seed, [cfg])],
               [PROGRAMS / "stream_tagged.s"], check)


def sort_sensitive(seed, workdir, records=SORT_RECORDS):
    # The guest checks order and sum itself and exits 1 if either fails.
    rng = random.Random(seed)
    recs = _write(workdir / "records", rng.randbytes(8 * records))
    return Job("sort_sensitive", seed, [_run_argv("sort_sensitive.s", seed, [recs])],
               [PROGRAMS / "sort_sensitive.s"], lambda outs: [])


def tenant_server(seed, workdir, requests=TENANT_REQUESTS):
    rng = random.Random(seed)
    reqs = [f"GET /t{i % TENANTS} {rng.randrange(10**8):08d}".encode() for i in range(requests)]
    recs = [rng.randbytes(RECORD_BYTES) for _ in range(requests)]
    maps = [_write(workdir / "requests", b"".join(reqs)), _write(workdir / "records", b"".join(recs))]

    def check(outs):
        (out,) = outs
        fails = _ordered(out.report)
        stdout = out.guest_stdout
        if len(stdout) != REPLY_BYTES * requests:
            return fails + [f"{len(stdout)} reply bytes, expected {REPLY_BYTES * requests}"]
        if any(stdout[REPLY_BYTES * i : REPLY_BYTES * i + REQUEST_BYTES] != r for i, r in enumerate(reqs)):
            fails.append("a request was not echoed in plaintext")
        if any(half in stdout for r in recs for half in (r[:8], r[8:])):
            fails.append("a sensitive record left in plaintext")
        tagged = (RECORD_BYTES + NONCE_BYTES) * requests
        if out.report["leak_averted_bytes"] != tagged:
            fails.append(f"leak_averted_bytes {out.report['leak_averted_bytes']}, expected {tagged}")
        return fails

    return Job("tenant_server", seed, [_run_argv("tenant_server.s", seed, maps)],
               [PROGRAMS / "tenant_server.s"], check)


DEMOS = ("granularity", "heartbleed", "threads")


def demos(seed, workdir):
    # Each demo checks its own properties and exits 5 when one fails.
    return Job("demos", seed, [["demo", d, "--seed", str(seed)] for d in DEMOS],
               [DEMO_SOURCES / f"{d}.s" for d in DEMOS], lambda outs: [])


WORKLOADS = {
    "stream_tagged": stream_tagged,
    "sort_sensitive": sort_sensitive,
    "tenant_server": tenant_server,
    "demos": demos,
}


def report_digest(report):
    """SHA-256 of the report as `conch run` emits it (conch.report.emit_report)."""
    return hashlib.sha256((json.dumps(report, indent=2) + "\n").encode()).hexdigest()


def load_goldens():
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def failures(job, outs, goldens):
    """Every check of one run: clean exits, the workload's own checks,
    and at the default seed the report digests, so a drift in any
    simulated statistic fails the run."""
    fails = []
    for argv, out in zip(job.argvs, outs):
        if out.rc != 0 or out.report is None:
            fails.append(f"{' '.join(argv[:2])}: exit {out.rc}")
        elif out.report["exit_code"] != 0 or out.report["stop_reason"] != "exit":
            fails.append(f"{' '.join(argv[:2])}: guest {out.report['stop_reason']} {out.report['exit_code']}")
        elif set(out.counters) != set(MODELS):
            fails.append(f"{' '.join(argv[:2])}: ran models {sorted(out.counters)}")
        elif argv[0] == "run" and json.loads(out.cli_stdout) != out.report:
            fails.append(f"{' '.join(argv[:2])}: printed report differs from the one built")
    if fails:
        return fails
    fails = job.check(outs)
    golden = goldens.get(job.name)
    if golden and job.seed == golden["seed"]:
        digests = [report_digest(o.report) for o in outs]
        if digests != golden["sha256"]:
            fails.append(f"report digests {digests} differ from the goldens")
    return fails
