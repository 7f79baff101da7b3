"""Per-layer measurement: a tracer that wraps conch's public functions
from outside, the per-layer metrics derived from it, the check that
the wrappers saw every call, and microbenchmarks for what an
end-to-end run cannot isolate.

Layers are the conch modules asm, core, mem, crypt, os_shim and report.
Each name is wrapped where its caller looks it up, because some callers
import by name and patching the defining module alone would miss them.
Per-instruction boundaries (step, fetch/load/store, cipher blocks,
oracle_step) are aggregated into call counts and self time; spans are
kept only at the coarse boundaries, so memory stays bounded.
"""

from __future__ import annotations

import random
import statistics
import time

from conch import asm, cli, core, crypt, mem, os_shim, report

LAYERS = ("asm", "core", "mem", "crypt", "os_shim", "report")

_Mem = mem.MemorySystem
_Shim = os_shim.OsShim
_Oracle = report.ByteOracle

# traced name -> the (owner, attribute) sites its callers look it up at
SITES = {
    "asm.assemble": [(asm, "assemble")],
    "asm.load_image": [(asm, "load_image")],
    "core.step": [(core, "step")],
    "core.run": [(core, "run"), (report, "run")],
    "mem.MemorySystem": [(_Mem, "__init__")],
    "mem.write_raw_init": [(_Mem, "write_raw_init")],
    "mem.fetch": [(_Mem, "fetch")],
    "mem.load": [(_Mem, "load")],
    "mem.store": [(_Mem, "store")],
    "mem.oracle_bits_for": [(_Mem, "oracle_bits_for")],
    "mem.ctag_set_range": [(_Mem, "ctag_set_range")],
    "mem.ctag_clear_range": [(_Mem, "ctag_clear_range")],
    "mem.ctag_read": [(_Mem, "ctag_read")],
    "mem.flush_and_sync": [(_Mem, "flush_and_sync")],
    "crypt.qarma_encrypt": [(crypt, "qarma_encrypt"), (mem, "qarma_encrypt"), (os_shim, "qarma_encrypt")],
    "crypt.qarma_decrypt": [(crypt, "qarma_decrypt"), (mem, "qarma_decrypt")],
    "crypt.derive_thread_key": [(crypt, "derive_thread_key"), (os_shim, "derive_thread_key")],
    "crypt.generate_master_key": [(crypt, "generate_master_key"), (report, "generate_master_key")],
    "os_shim.handle_ecall": [(_Shim, "handle_ecall")],
    "os_shim.sys_openat": [(_Shim, "sys_openat")],
    "os_shim.sys_read": [(_Shim, "sys_read")],
    "os_shim.sys_write": [(_Shim, "sys_write")],
    "os_shim.sys_getrandom": [(_Shim, "sys_getrandom")],
    "os_shim.sys_thread_switch": [(_Shim, "sys_thread_switch")],
    "report.oracle_step": [(_Oracle, "oracle_step")],
    "report.store_taints": [(_Oracle, "store_taints")],
    "report.compute_overtagging": [(report, "compute_overtagging")],
    "report.simulate": [(report, "simulate"), (cli, "simulate")],
    "report.run_models": [(report, "run_models"), (cli, "run_models")],
    "report.build_report": [(report, "build_report"), (cli, "build_report")],
    "report.emit_report": [(report, "emit_report"), (cli, "emit_report")],
}

SPANS = {"report.simulate", "report.build_report", "os_shim.handle_ecall", "mem.flush_and_sync", "mem.MemorySystem"}
BLOCKS = ("crypt.qarma_encrypt", "crypt.qarma_decrypt")
COPIES = ("os_shim.sys_read", "os_shim.sys_getrandom", "os_shim.sys_write")


class Tracer:
    """Counts calls and self time per traced name while installed (as a
    context manager); records coarse spans, the distinct cipher tweaks
    and the bytes the OS shim copies."""

    def __init__(self):
        self.calls = dict.fromkeys(SITES, 0)
        self.self_s = dict.fromkeys(SITES, 0.0)
        self.incl_s = dict.fromkeys(SITES, 0.0)
        self.spans = []  # (id, parent id or None, name, start, end)
        self.tweaks = set()
        self.copy_bytes = 0
        self._frames = []  # child time of each open call
        self._open_spans = []
        self._saved = []

    def _wrap(self, name, fn):
        calls, self_s, incl_s, frames = self.calls, self.self_s, self.incl_s, self._frames
        clock = time.perf_counter
        span = name in SPANS
        tweaks = self.tweaks if name in BLOCKS else None
        copies = name in COPIES

        def traced(*args, **kw):
            if span:
                sid = len(self.spans)
                parent = self._open_spans[-1] if self._open_spans else None
                self.spans.append(None)
                self._open_spans.append(sid)
            if tweaks is not None:
                tweaks.add(args[1])
            t0 = clock()
            frames.append(0.0)
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                calls[name] += 1
                self_s[name] += elapsed - frames.pop()
                incl_s[name] += elapsed
                if frames:
                    frames[-1] += elapsed
                if span:
                    self._open_spans.pop()
                    self.spans[sid] = (sid, parent, name, t0, t1)
            if copies and result[0] > 0:
                self.copy_bytes += result[0]
            return result

        return traced

    def __enter__(self):
        for name, sites in SITES.items():
            wrapped = {}
            for owner, attr in sites:
                orig = getattr(owner, attr)
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self._wrap(name, orig)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped[id(orig)])
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    def layer_total(self, table, layer):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)


def _sum(outs, models, key):
    return sum(o.counters[m][key] for o in outs for m in models if m in o.counters)


def layer_metrics(tr, outs, wall):
    """Per-layer metrics of one traced run that took `wall` seconds and
    produced outcomes `outs`."""
    m = {}
    for layer in LAYERS:
        self_s = tr.layer_total(tr.self_s, layer)
        m[f"{layer}.calls"] = tr.layer_total(tr.calls, layer)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = self_s / wall
    c, s, i = tr.calls, tr.self_s, tr.incl_s
    blocks = c["crypt.qarma_encrypt"] + c["crypt.qarma_decrypt"]
    all_models = mem.MODELS
    fills = _sum(outs, all_models, "dcache_misses") + _sum(outs, all_models, "icache_misses")
    dcache = _sum(outs, all_models, "dcache_hits") + _sum(outs, all_models, "dcache_misses")
    tagc = _sum(outs, ("b",), "tagcache_hits") + _sum(outs, ("b",), "tagcache_misses")
    m.update({
        "core.steps": c["core.step"],
        "report.oracle_calls": c["report.oracle_step"],
        "report.oracle_s": s["report.oracle_step"],
        "mem.load_calls": c["mem.load"],
        "mem.store_calls": c["mem.store"],
        "mem.fetch_calls": c["mem.fetch"],
        "mem.oracle_bits_s": s["mem.oracle_bits_for"],
        "mem.systems": c["mem.MemorySystem"],
        "report.build_ms": 1e3 * (i["report.build_report"] + i["report.emit_report"]),
        "crypt.blocks": blocks,
        "crypt.us_per_block": 1e6 * (s["crypt.qarma_encrypt"] + s["crypt.qarma_decrypt"]) / blocks,
        "crypt.charged_ratio": _sum(outs, ("b",), "cipher_blocks") / blocks,
        "crypt.tweak_reuse_ratio": 1 - len(tr.tweaks) / blocks,
        "crypt.keys_derived": c["crypt.derive_thread_key"],
        "os_shim.ecalls": c["os_shim.handle_ecall"],
        "os_shim.copy_bytes": tr.copy_bytes,
        "os_shim.ns_per_byte": 1e9 * tr.layer_total(s, "os_shim") / tr.copy_bytes,
        "mem.flush_calls": c["mem.flush_and_sync"],
        "mem.flush_ms": 1e3 * i["mem.flush_and_sync"],
        "asm.assemble_ms": 1e3 * (i["asm.assemble"] + i["asm.load_image"]),
        "mem.dcache_hit_ratio": _sum(outs, all_models, "dcache_hits") / dcache,
        "mem.line_fills": fills,
        "mem.tagcache_hit_ratio": _sum(outs, ("b",), "tagcache_hits") / tagc,
    })
    return m


def reconcile(tr, outs):
    """Failures of the check that the wrappers saw every call."""
    runs = sum(len(o.counters) for o in outs)
    instret = _sum(outs, mem.MODELS, "instret")
    charged = _sum(outs, mem.MODELS, "cipher_blocks")
    c = tr.calls
    blocks = c["crypt.qarma_encrypt"] + c["crypt.qarma_decrypt"]
    fails = []
    if c["core.step"] != instret:
        fails.append(f"core.steps {c['core.step']} != instret over models {instret}")
    if c["mem.fetch"] != c["core.step"]:
        fails.append(f"mem.fetch_calls {c['mem.fetch']} != core.steps {c['core.step']}")
    if c["mem.MemorySystem"] != runs:
        fails.append(f"mem.systems {c['mem.MemorySystem']} != models run {runs}")
    if blocks < charged:
        fails.append(f"crypt.blocks {blocks} < charged cipher_blocks {charged}")
    return fails


# ---- microbenchmarks ---------------------------------------------------------

MICRO_BLOCKS = 2000
MICRO_SYSTEMS = 5
MICRO_OVERTAG = 3
MICRO_RECORDS = 128
MICRO_CTAG_BYTES = 48 * 1024  # beyond the 32 KiB dcache: tagged lines are evicted and refilled


def micro(seed, sort_program):
    """Isolated per-layer timings, run untraced. Returns (metrics, failures)."""
    clock = time.perf_counter
    fails = []

    key = crypt.generate_master_key(seed)
    rng = random.Random(seed)
    plain = [rng.getrandbits(64) for _ in range(MICRO_BLOCKS)]
    t0 = clock()
    back = [crypt.qarma_decrypt(key, 8 * j, crypt.qarma_encrypt(key, 8 * j, x)) for j, x in enumerate(plain)]
    us_per_block = 1e6 * (clock() - t0) / (2 * MICRO_BLOCKS)
    if back != plain:
        fails.append("qarma_decrypt(qarma_encrypt(x)) != x")

    program = cli.load_program(sort_program)
    fs = {"records": rng.randbytes(8 * MICRO_RECORDS)}
    kips = {}
    for with_oracle in (True, False):
        t0 = clock()
        res = report.simulate(program=program, model="baseline", seed=seed, fs=fs, with_oracle=with_oracle)
        kips[with_oracle] = res.st.instret / (clock() - t0) / 1e3
        if res.stop != "exit" or res.st.exit_code != 0:
            fails.append(f"sort micro (oracle={with_oracle}) stopped {res.stop} {res.st.exit_code}")
        del res

    construct = []
    for _ in range(MICRO_SYSTEMS):
        t0 = clock()
        m = mem.MemorySystem()
        construct.append(clock() - t0)
        del m
    overtag = []
    for _ in range(MICRO_OVERTAG):
        m = mem.MemorySystem()
        t0 = clock()
        report.compute_overtagging(m)
        overtag.append(clock() - t0)
        del m

    m = mem.MemorySystem()
    base = mem.DRAM_BASE + 0x40_0000
    t0 = clock()
    m.ctag_set_range(base, MICRO_CTAG_BYTES, key)
    m.ctag_clear_range(base, MICRO_CTAG_BYTES, key)
    ctag = clock() - t0
    del m

    return {
        "crypt.us_per_block_micro": us_per_block,
        "mem.ctag_ms": 1e3 * ctag,
        "core.kips_oracle": kips[True],
        "core.kips_no_oracle": kips[False],
        "mem.construct_ms": 1e3 * statistics.median(construct),
        "report.overtag_ms": 1e3 * statistics.median(overtag),
    }, fails
