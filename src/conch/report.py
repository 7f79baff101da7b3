"""Measurement harness: the byte-granular taint oracle, side-by-side
runs of the cycle models over one program, the pricing of their event
counts, over-tagging statistics, and the run report.

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
from typing import NamedTuple

from . import asm, isa
from .core import DEFAULT_MAX_INSTRET, MachineState, run
from .crypt import BlockMemo, generate_master_key
from .mem import MODELS, REGION_SHIFT, MemorySystem
from .os_shim import OsShim


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
            if signed and (bits >> (width - 1)) & 1:
                vec |= 0xFF ^ ((1 << width) - 1)
        else:  # clear
            vec = 0
        self.reg[rd] = vec

    def store_taints(self, rs, width):
        """Taint bits of the low `width` bytes the store will write."""
        return self.reg[rs] & ((1 << width) - 1)


# ---- pricing -------------------------------------------------------------------


class CycleCosts(NamedTuple):
    """The cycles one counted event costs: one field per key of counts."""

    alu: int = 1
    mul: int = 3
    div: int = 33
    load_hit: int = 2
    store_hit: int = 1
    branch: int = 1
    mispredict: int = 3
    jump: int = 2
    dram_access_latency: int = 60
    cipher_block: int = 4
    tag_cache_hit: int = 1


def _price_field(opcode, funct3, funct7):
    """The CycleCosts field that prices one retired instruction of an
    encoding class, or None for loads and stores: the memory system's
    counts price them per access, kernel copies included. funct7 1 on
    OP and OP-32 is the M extension, multiplies below funct3 4 and
    divides and remainders from it."""
    if opcode in (isa.OP_LOAD, isa.OP_STORE):
        return None
    if opcode == isa.OP_BRANCH:
        return "branch"
    if opcode in (isa.OP_JAL, isa.OP_JALR):
        return "jump"
    if opcode in (isa.OP_OP, isa.OP_OP32) and funct7 == 1:
        return "mul" if funct3 < 4 else "div"
    return "alu"


# mnemonic -> the CycleCosts field of one retired instruction (see counts)
PRICE_FIELD = {m: _price_field(*spec[1:]) for m, spec in isa.SPECS.items()}


def mem_stats(mem, model):
    """The memory counters of model, out of the union of events mem
    counted. Baseline pays for no tag or cipher event, model A for one
    DRAM tag access per tag-store touch, model B for its tag-cache hits
    and, as DRAM tag accesses, its tag-cache misses and dirty tag-line
    writebacks; A and B for every cipher block. An unknown model raises
    ValueError."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    tag_accesses = {"baseline": 0, "a": mem.tag_store_touches, "b": mem.tagcache_misses + mem.tag_writebacks}
    return {
        "dcache_hits": mem.dcache.hits,
        "dcache_misses": mem.dcache.misses,
        "icache_hits": mem.icache.hits,
        "icache_misses": mem.icache.misses,
        "tagcache_hits": mem.tagcache_hits if model == "b" else 0,
        "tagcache_misses": mem.tagcache_misses if model == "b" else 0,
        "dram_data_accesses": mem.dram_data_accesses,
        "dram_tag_accesses": tag_accesses[model],
        "cipher_blocks": 0 if model == "baseline" else mem.cipher_blocks,
    }


def counts(st, mem, model):
    """The events model pays for in a run, keyed by the CycleCosts field
    that prices each: retired instructions by class (PRICE_FIELD),
    mispredicted branches, loads and stores (kernel copies included), and
    mem_stats' DRAM data and tag accesses, cipher blocks and tag-cache hits."""
    n = dict.fromkeys(("alu", "mul", "div", "branch", "jump"), 0)
    for m, k in st.histogram.items():
        field = PRICE_FIELD[m]
        if field:
            n[field] += k
    ms = mem_stats(mem, model)
    n.update(
        load_hit=mem.loads,
        store_hit=mem.stores,
        mispredict=st.mispredicts,
        dram_access_latency=ms["dram_data_accesses"] + ms["dram_tag_accesses"],
        cipher_block=ms["cipher_blocks"],
        tag_cache_hit=ms["tagcache_hits"],
    )
    return n


def price(vector, costs):
    """The cycles of vector (CycleCosts field -> count) under costs. This
    is the one reader of a CycleCosts."""
    return sum(getattr(costs, field) * n for field, n in vector.items())


# ---- statistics --------------------------------------------------------------


# _WORD_MASKS[t]: the oracle mask of the eight words of tag byte t, byte j
# 0xFF if bit j of t is set, else 0x00
_WORD_MASKS = [bytes(0xFF if t >> j & 1 else 0 for j in range(8)) for t in range(256)]


def compute_overtagging(mem):
    """Final tag statistics. A tagged word with k oracle-tainted bytes
    contributes 8-k over-tagged bytes; the ratio normalizes by all bytes
    under tag.

    Only the DRAM regions in mem.regions are scanned: outside them both
    planes are zero (see the mem module docstring). A region is 32 KiB
    of DRAM: 512 B of tag plane and 4 KiB of oracle plane. The taint
    count passes once over a region's oracle bytes. The tag count covers
    only its tagged span, from the first to the last nonzero tag byte;
    each byte of the span maps through _WORD_MASKS to the mask of its
    eight words' oracle bytes, and one AND of those masks with the
    span's oracle bytes leaves the tainted bytes under tag. Zero bytes
    add nothing to any count. So the cost follows the run's footprint
    and what it tagged, not the size of DRAM."""
    words_tagged = tainted_under_tag = bytes_tainted = 0
    tag_span = 1 << (REGION_SHIFT - 6)  # one tag bit per 8-byte word
    oracle_span = 1 << (REGION_SHIFT - 3)  # one oracle byte per word
    for r in sorted(mem.regions):
        tags = mem.tag_bits[r * tag_span : (r + 1) * tag_span]
        oracle = mem.byte_oracle[r * oracle_span : (r + 1) * oracle_span]
        # zero bytes hold no bit to count, so they are deleted first
        bytes_tainted += int.from_bytes(oracle.translate(None, b"\0"), "little").bit_count()
        # tag bytes lo..hi-1 hold every tag bit; oracle bytes 8*lo..8*hi-1
        # belong to their words
        hi = len(tags.rstrip(b"\0"))
        lo = len(tags) - len(tags.lstrip(b"\0"))
        tags, oracle = tags[lo:hi], oracle[8 * lo : 8 * hi]
        words_tagged += int.from_bytes(tags, "little").bit_count()
        under_tag = int.from_bytes(b"".join(map(_WORD_MASKS.__getitem__, tags)), "little")
        tainted_under_tag += (under_tag & int.from_bytes(oracle, "little")).bit_count()
    overtagged = 8 * words_tagged - tainted_under_tag
    ratio = 100.0 * overtagged / (8 * words_tagged) if words_tagged else 0.0
    return {
        "words_tagged_final": words_tagged,
        "bytes_tainted_oracle_final": bytes_tainted,
        "overtagged_bytes": overtagged,
        "overtag_ratio_pct": round(ratio, 4),
    }


# ---- one run -------------------------------------------------------------------


class SimResult:
    def __init__(self, model, seed, st, mem, shim, stop, costs, trap_word):
        self.model = model
        self.seed = seed  # of the master key and the kernel's PRNG
        self.st = st
        self.mem = mem
        self.shim = shim
        self.stop = stop
        self.costs = costs
        self.trap_word = trap_word  # the trapping instruction as fetched, if the icache held it
        self.cycles = price(counts(st, mem, model), costs)


def simulate(
    source=None,
    *,
    program=None,
    model="baseline",
    seed=0,
    dram_latency=CycleCosts().dram_access_latency,
    max_instret=DEFAULT_MAX_INSTRET,
    strict_write=False,
    fs=None,
    with_oracle=True,
    memo=None,
):
    """Assemble (if needed), load, and run one program, then price its
    counts under one cycle model. The final flush under the active key is
    part of the run, so DRAM ends at rest. dram_latency is the price of
    one DRAM access, and max_instret the budget run reads from st. memo
    is the crypt.BlockMemo the run enciphers and derives its thread keys
    through; by default a fresh one. A seed outside [0, 2**64) raises
    ValueError: the key and the kernel's PRNG would reduce it differently."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if program is None:
        program = asm.assemble(source)
    mem = MemorySystem(memo=memo)
    st = MachineState()
    st.max_instret = max_instret
    asm.load_image(program, mem, st)
    master = generate_master_key(seed)
    shim = OsShim(master, seed=seed, fs=fs, strict_write=strict_write)
    st.key = shim.key_for(0, mem.memo)
    stop = run(st, mem, shim, ByteOracle() if with_oracle else None)
    # read before the final flush drops the icache; DRAM may hold a newer word
    trap_word = mem.icache_word(st.pc) if stop == "trap" and not st.pc & 3 else None
    mem.flush_and_sync(st.key)
    costs = CycleCosts(dram_access_latency=dram_latency)
    return SimResult(model=model, seed=seed, st=st, mem=mem, shim=shim, stop=stop, costs=costs, trap_word=trap_word)


def run_models(source=None, *, program=None, models=MODELS, **kw):
    """Run the same program once per requested model and cross-check that
    the runs agree on everything architectural. Returns {model: SimResult}
    in the canonical baseline/a/b order. The runs replay one functional
    run and differ only in pricing, so they share one fresh
    crypt.BlockMemo: each block, thread-key derivations included, reaches
    the circuit once per call, not once per model. An unknown or empty
    list of models raises ValueError before anything is assembled."""
    for m in models or ("",):  # an empty list is refused as model ''
        if m not in MODELS:
            raise ValueError(f"unknown model {m!r} (choose from {', '.join(MODELS)})")
    if program is None:
        program = asm.assemble(source)
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


def build_report(results):
    """Assemble the RunReport dict from per-model results. Functional
    fields, the seed among them, come from any run (they are identical:
    run_models gives every model the same seed); cost fields are per
    model; memory statistics are mem_stats of the most detailed model
    present. The over-tag extra-cycles figure prices that model's cipher
    work on words that carried no tainted byte at all when they crossed
    the DRAM boundary, as a fraction of the baseline's cycles. Never
    includes key material."""
    any_r = next(iter(results.values()))
    cycles = {m: r.cycles for m, r in results.items()}
    base = cycles.get("baseline")
    detailed = results.get("b") or results.get("a") or results["baseline"]

    def pct(model):
        if model not in cycles or not base:
            return None
        return round(100.0 * (cycles[model] - base) / base, 4)

    mem = detailed.mem
    tag_stats = compute_overtagging(mem)
    extra = None
    if detailed.model != "baseline" and base:
        extra = price({"cipher_block": mem.overtag_cipher_blocks}, detailed.costs)
        extra = round(100.0 * extra / base, 4)
    tag_stats["overtag_extra_cycles_pct"] = extra
    report = {
        "instret": any_r.st.instret,
        "histogram": dict(sorted(any_r.st.histogram.items())),
        "cycles": {"baseline": base, "model_a": cycles.get("a"), "model_b": cycles.get("b")},
        "overhead": {"model_a_pct": pct("a"), "model_b_pct": pct("b")},
        "tag_stats": tag_stats,
        "mem_stats": mem_stats(mem, detailed.model),
        "leak_averted_bytes": any_r.shim.leak_averted_bytes,
        "seed": any_r.seed,
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
