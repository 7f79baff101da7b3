"""Measurement harness: the byte-granular taint oracle, side-by-side
runs of the cycle models over one program, over-tagging statistics, and
the run report.

The oracle is the ground truth that the one-bit word tags are judged
against. It shadows every register with an 8-bit byte-taint vector and
every DRAM byte with one bit (mem.byte_oracle), using rules that track
taint at the finest granularity the data flow allows:

  loads     positional; sign-extension fills the high bytes with the
            taint of the top loaded byte
  stores    positional from the source register's vector
  ALU       collapse: any tainted source byte taints all result bytes
  pc/imm    results carry no taint (lui, auipc, links, ctag.rdt)

Soundness means a word's tag is never 0 while one of its oracle bytes is
1; the gap in the other direction is over-tagging, which is what the
word-granularity design pays for its tiny metadata footprint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import asm
from .core import MachineState, run
from .crypt import BlockMemo, generate_master_key
from .mem import MODELS, REGION_SHIFT, CycleCosts, MemorySystem
from .os_shim import OsShim

DEFAULT_MAX_INSTRET = 100_000_000


class ByteOracle:
    """Byte-taint shadow for the register file; memory-side bits live in
    mem.byte_oracle and are maintained by the store paths."""

    def __init__(self):
        self.reg = [0] * 32

    def oracle_step(self, event, rd, info):
        """One retired register-writing instruction. event is "alu"
        (info = source register indices), "load" (info = (loaded byte
        taints, width, signed)) or "clear"."""
        if rd == 0:
            return
        if event == "alu":
            vec = 0
            for s in info:
                if self.reg[s]:
                    vec = 0xFF
                    break
        elif event == "load":
            bits, width, signed = info
            vec = bits
            if signed and width < 8 and (bits >> (width - 1)) & 1:
                vec |= 0xFF ^ ((1 << width) - 1)
        else:  # clear
            vec = 0
        self.reg[rd] = vec

    def store_taints(self, rs, width):
        """Taint bits of the low `width` bytes the store will write."""
        return self.reg[rs] & ((1 << width) - 1)


# ---- statistics --------------------------------------------------------------


# _BIT_BYTES[j] maps a byte to 0xFF if its bit j is set, else to 0x00
_BIT_BYTES = [bytes(0xFF if b >> j & 1 else 0 for b in range(256)) for j in range(8)]


def compute_overtagging(mem, overtag_cipher_blocks=None, baseline_cycles=None):
    """Final tag statistics. A tagged word with k oracle-tainted bytes
    contributes 8-k over-tagged bytes; the ratio normalizes by all bytes
    under tag. The extra-cycles figure prices the cipher work spent on
    words that carried no tainted byte at all when they crossed the DRAM
    boundary, as a fraction of the baseline run.

    Only the DRAM regions in mem.regions are scanned: outside them both
    planes are zero (see the mem module docstring), so the cost follows
    the run's footprint, not the size of DRAM."""
    words_tagged = tainted_under_tag = bytes_tainted = 0
    tag_span = 1 << (REGION_SHIFT - 6)  # one tag bit per 8-byte word
    oracle_span = 1 << (REGION_SHIFT - 3)  # one oracle byte per word
    for r in sorted(mem.regions):
        tags = mem.tag_bits[r * tag_span : (r + 1) * tag_span]
        oracle = mem.byte_oracle[r * oracle_span : (r + 1) * oracle_span]
        bytes_tainted += int.from_bytes(oracle, "little").bit_count()
        words_tagged += int.from_bytes(tags, "little").bit_count()
        # per bit j, the words 8*t+j of the region: a byte that is 0xFF
        # where tags[t] has bit j, ANDed with those words' oracle bytes
        for j, spread in enumerate(_BIT_BYTES):
            under_tag = int.from_bytes(tags.translate(spread), "little")
            taints = int.from_bytes(oracle[j::8], "little")
            tainted_under_tag += (under_tag & taints).bit_count()
    overtagged = 8 * words_tagged - tainted_under_tag
    ratio = 100.0 * overtagged / (8 * words_tagged) if words_tagged else 0.0
    stats = {
        "words_tagged_final": words_tagged,
        "bytes_tainted_oracle_final": bytes_tainted,
        "overtagged_bytes": overtagged,
        "overtag_ratio_pct": round(ratio, 4),
    }
    if overtag_cipher_blocks is not None and baseline_cycles:
        extra = mem.costs.cipher_block * overtag_cipher_blocks
        stats["overtag_extra_cycles_pct"] = round(100.0 * extra / baseline_cycles, 4)
    else:
        stats["overtag_extra_cycles_pct"] = None
    return stats


# ---- one run -------------------------------------------------------------------


@dataclass
class SimResult:
    model: str
    st: MachineState
    mem: MemorySystem
    shim: OsShim
    oracle: ByteOracle
    stop: str


def simulate(
    source=None,
    *,
    program=None,
    model="baseline",
    seed=0,
    dram_latency=60,
    max_instret=DEFAULT_MAX_INSTRET,
    strict_write=False,
    fs=None,
    no_cache=False,
    debug_soundness=False,
    debug_shadow=False,
    with_oracle=True,
    memo=None,
):
    """Assemble (if needed), load, and run one program under one cycle
    model. The final flush under the active key is part of the run, so
    DRAM ends at rest. memo is the crypt.BlockMemo the run enciphers
    through; by default a fresh one."""
    if program is None:
        program = asm.assemble(asm.SourceUnit.from_text(source))
    mem = MemorySystem(
        model=model,
        costs=CycleCosts(dram_access_latency=dram_latency),
        no_cache=no_cache,
        debug_soundness=debug_soundness,
        debug_shadow=debug_shadow,
        memo=memo,
    )
    st = MachineState()
    asm.load_image(program, mem, st)
    master = generate_master_key(seed)
    shim = OsShim(master, seed=seed, fs=dict(fs or {}), strict_write=strict_write)
    st.tid = 0
    st.key = shim.key_for(0)
    oracle = ByteOracle() if with_oracle else None
    stop = run(st, mem, shim, oracle, max_instret)
    st.cycles += mem.flush_and_sync(st.key)
    return SimResult(model=model, st=st, mem=mem, shim=shim, oracle=oracle, stop=stop)


def run_models(source=None, *, program=None, models=MODELS, **kw):
    """Run the same program once per requested model and cross-check that
    the models agree on everything architectural. Returns {model: SimResult}
    in the canonical baseline/a/b order. The models replay one functional
    run, so they share one fresh crypt.BlockMemo: each block is enciphered
    once per call, not once per model."""
    if program is None:
        program = asm.assemble(asm.SourceUnit.from_text(source))
    memo = BlockMemo()
    results = {}
    for model in MODELS:
        if model in models:
            results[model] = simulate(program=program, model=model, memo=memo, **kw)
    vals = list(results.values())
    first = vals[0]
    for other in vals[1:]:
        same = (
            other.st.regs == first.st.regs
            and other.st.reg_tags == first.st.reg_tags
            and other.st.instret == first.st.instret
            and other.st.exit_code == first.st.exit_code
            and other.stop == first.stop
            and bytes(other.shim.stdout) == bytes(first.shim.stdout)
        )
        if not same:
            raise RuntimeError(
                f"cycle models diverged architecturally: {first.model} vs {other.model}"
            )
    return results


# ---- the report -----------------------------------------------------------------


def build_report(results, seed):
    """Assemble the RunReport dict from per-model results. Functional
    fields come from any run (they are identical); cost fields are per
    model; memory statistics come from the most detailed model present.
    Never includes key material."""
    any_r = next(iter(results.values()))
    base = results.get("baseline")
    ra = results.get("a")
    rb = results.get("b")
    detailed = rb or ra or base

    def pct(r):
        if r is None or base is None or base.st.cycles == 0:
            return None
        return round(100.0 * (r.st.cycles - base.st.cycles) / base.st.cycles, 4)

    mem = detailed.mem
    report = {
        "instret": any_r.st.instret,
        "histogram": dict(sorted(any_r.st.histogram.items())),
        "cycles": {
            "baseline": base.st.cycles if base else None,
            "model_a": ra.st.cycles if ra else None,
            "model_b": rb.st.cycles if rb else None,
        },
        "overhead": {"model_a_pct": pct(ra), "model_b_pct": pct(rb)},
        "tag_stats": compute_overtagging(
            mem,
            overtag_cipher_blocks=mem.overtag_cipher_blocks if detailed.model != "baseline" else None,
            baseline_cycles=base.st.cycles if base else None,
        ),
        "mem_stats": {
            "dcache_hits": mem.dcache.hits,
            "dcache_misses": mem.dcache.misses,
            "icache_hits": mem.icache.hits,
            "icache_misses": mem.icache.misses,
            "tagcache_hits": mem.tagcache_hits,
            "tagcache_misses": mem.tagcache_misses,
            "dram_data_accesses": mem.dram_data_accesses,
            "dram_tag_accesses": mem.dram_tag_accesses,
            "cipher_blocks": mem.cipher_blocks,
        },
        "leak_averted_bytes": any_r.shim.leak_averted_bytes,
        "seed": seed,
        "exit_code": any_r.st.exit_code,
        "stop_reason": any_r.stop,
    }
    if any_r.stop == "trap":
        report["trap"] = f"{type(any_r.st.trap).__name__}: {any_r.st.trap}"
    return report


def emit_report(report, fmt="json"):
    """Render the report dict. JSON output is stable byte for byte for a
    given program and seed."""
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [
        f"instret            {report['instret']}",
        f"stop               {report['stop_reason']} (exit code {report['exit_code']})",
    ]
    cyc = report["cycles"]
    for label, key in (("baseline", "baseline"), ("model A", "model_a"), ("model B", "model_b")):
        if cyc[key] is not None:
            lines.append(f"cycles {label:<12}{cyc[key]}")
    ovh = report["overhead"]
    if ovh["model_a_pct"] is not None:
        lines.append(f"overhead A         {ovh['model_a_pct']}%")
    if ovh["model_b_pct"] is not None:
        lines.append(f"overhead B         {ovh['model_b_pct']}%")
    ts = report["tag_stats"]
    lines.append(f"tagged words       {ts['words_tagged_final']}")
    lines.append(f"oracle bytes       {ts['bytes_tainted_oracle_final']}")
    lines.append(
        f"over-tagged bytes  {ts['overtagged_bytes']} ({ts['overtag_ratio_pct']}% of tagged)"
    )
    if ts["overtag_extra_cycles_pct"] is not None:
        lines.append(f"over-tag cycles    {ts['overtag_extra_cycles_pct']}% of baseline")
    lines.append(f"leak averted       {report['leak_averted_bytes']} bytes")
    lines.append(f"seed               {report['seed']}")
    return "\n".join(lines) + "\n"
