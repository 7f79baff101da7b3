"""Harness layer: oracle rules in isolation, over-tagging arithmetic on
synthetic memory states, report assembly and rendering, and the cached vs
uncached functional equivalence of a whole program."""

import random

import pytest

from conch.crypt import derive_thread_key, generate_master_key
from conch.mem import REGION_SHIFT, MemorySystem
from conch.report import (
    ByteOracle,
    build_report,
    compute_overtagging,
    emit_report,
    run_models,
    simulate,
)

from conftest import STREAM64K, build_corpus

KEY = derive_thread_key(generate_master_key(0), 0)


# ---- oracle rules ---------------------------------------------------------------


def test_alu_collapse():
    o = ByteOracle()
    o.reg[5] = 0x01  # one tainted byte
    o.oracle_step("alu", 6, (5, 0))
    assert o.reg[6] == 0xFF
    o.oracle_step("alu", 7, (1, 2))  # clean sources
    assert o.reg[7] == 0


def test_load_positional():
    o = ByteOracle()
    o.oracle_step("load", 3, (0b0101, 4, False))
    assert o.reg[3] == 0b0101


def test_load_sign_fill_from_top_byte():
    o = ByteOracle()
    o.oracle_step("load", 3, (0b1000, 4, True))  # top loaded byte tainted
    assert o.reg[3] == 0b11111000
    o.oracle_step("load", 4, (0b0100, 4, True))  # top byte clean
    assert o.reg[4] == 0b0100
    o.oracle_step("load", 5, (0xFF, 8, True))  # full width: nothing to fill
    assert o.reg[5] == 0xFF


def test_clear_event_and_x0():
    o = ByteOracle()
    o.reg[9] = 0xFF
    o.oracle_step("clear", 9, None)
    assert o.reg[9] == 0
    o.oracle_step("alu", 0, (9,))  # writes to x0 are dropped
    assert o.reg[0] == 0


def test_store_taints_masks_width():
    o = ByteOracle()
    o.reg[4] = 0b10110101
    assert o.store_taints(4, 1) == 0b1
    assert o.store_taints(4, 2) == 0b01
    assert o.store_taints(4, 4) == 0b0101
    assert o.store_taints(4, 8) == 0b10110101


# ---- over-tagging statistics -------------------------------------------------------


def test_overtagging_counts_partial_words():
    mem = MemorySystem(model="b")
    a = mem.base + 0x100
    mem.ctag_set_range(a, 4, KEY)  # one word, 4 of 8 bytes tainted
    mem.ctag_set_range(a + 8, 8, KEY)  # one word fully tainted
    mem.flush_and_sync(KEY)
    stats = compute_overtagging(mem)
    assert stats["words_tagged_final"] == 2
    assert stats["bytes_tainted_oracle_final"] == 12
    assert stats["overtagged_bytes"] == 4
    assert stats["overtag_ratio_pct"] == 25.0  # 4 of 16 bytes under tag


def test_overtagging_empty_state():
    mem = MemorySystem(model="b")
    stats = compute_overtagging(mem)
    assert stats["words_tagged_final"] == 0
    assert stats["overtagged_bytes"] == 0
    assert stats["overtag_ratio_pct"] == 0.0
    assert stats["overtag_extra_cycles_pct"] is None


def test_overtag_cycle_attribution():
    mem = MemorySystem(model="b")
    stats = compute_overtagging(mem, overtag_cipher_blocks=25, baseline_cycles=10_000)
    # 25 blocks at 4 cycles each against 10k baseline cycles
    assert stats["overtag_extra_cycles_pct"] == 1.0


@pytest.mark.xfail(
    strict=True,
    reason="mem._ctag_range sets the oracle bits only after its walk has evicted and written "
    "back tagged lines, so their words count as over-tagged cipher work (4,096 blocks here)",
)
def test_ctag_set_eviction_is_not_overtag_work():
    # the program tags a 64 KiB region whole, so every tagged word has all
    # eight oracle bytes set and no cipher block is over-tag work
    res = simulate(STREAM64K, model="b")
    assert res.stop == "exit"
    assert res.mem.overtag_cipher_blocks == 0


def _overtagging_numpy(mem):
    """The counts computed independently over both planes whole."""
    np = pytest.importorskip("numpy")
    tags = np.unpackbits(np.frombuffer(mem.tag_bits, dtype=np.uint8), bitorder="little").astype(bool)
    popcount = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)
    taint_counts = popcount[np.frombuffer(mem.byte_oracle, dtype=np.uint8)]  # per word
    return {
        "words_tagged_final": int(tags.sum()),
        "bytes_tainted_oracle_final": int(taint_counts.sum(dtype=np.int64)),
        "overtagged_bytes": int((8 - taint_counts[tags]).sum(dtype=np.int64)),
    }


def test_overtagging_matches_numpy_at_chunk_edges():
    # The planes are written directly, so the test records the region of
    # each word it writes, as the memory system's access paths do; the
    # edge words are the first and last words of the first two and the
    # last two regions of DRAM.
    mem = MemorySystem(model="b")
    n_words = mem.size // 8
    region_words = 1 << (REGION_SHIFT - 3)
    rng = random.Random(5)
    words = {0, region_words - 1, region_words, 2 * region_words - 1}
    words |= {n_words - 2 * region_words, n_words - region_words - 1, n_words - region_words, n_words - 1}
    words |= {rng.randrange(n_words) for _ in range(200)}
    for i, w in enumerate(sorted(words)):
        if i % 3:  # tagged, with 0 to 8 tainted bytes
            mem.tag_bits[w >> 3] |= 1 << (w & 7)
        mem.byte_oracle[w] = rng.choice([0, 0xFF, 0x0F, 0x81, rng.randrange(256)])
        mem.regions.add(8 * w >> REGION_SHIFT)
    stats = compute_overtagging(mem)
    expected = _overtagging_numpy(mem)
    assert expected["words_tagged_final"] > 100 and expected["overtagged_bytes"] > 0
    assert {k: stats[k] for k in expected} == expected


def _regions_holding_set_bits(mem):
    """The DRAM regions in which tag_bits or byte_oracle has a nonzero byte."""
    np = pytest.importorskip("numpy")
    found = set()
    for plane, shift in ((mem.tag_bits, REGION_SHIFT - 6), (mem.byte_oracle, REGION_SHIFT - 3)):
        found |= set((np.flatnonzero(np.frombuffer(plane, dtype=np.uint8)) >> shift).tolist())
    return found


@pytest.mark.parametrize("no_cache", [False, True], ids=["cached", "no_cache"])
@pytest.mark.parametrize("name,source,fs", [pytest.param(n, s, f, id=n) for n, s, f, _ in build_corpus()])
def test_set_bits_lie_in_recorded_regions(name, source, fs, no_cache):
    """Every nonzero byte of both planes lies in a region the access paths
    recorded, so the region-only statistics equal a scan of whole planes.
    The corpus holds the three demos with the inputs `conch demo` uses."""
    mem = simulate(source, model="b", seed=0, fs=fs, no_cache=no_cache).mem
    assert _regions_holding_set_bits(mem) <= mem.regions
    stats = compute_overtagging(mem)
    expected = _overtagging_numpy(mem)
    assert {k: stats[k] for k in expected} == expected


# ---- simulate / run_models -----------------------------------------------------------

PROG = """
    .org 0x80000000
start:
    li   a0, 0
    li   t0, 0x1000
    la   t1, buf
    ctag.set t1, t0
    ld   t2, 0(t1)
    add  t2, t2, t0
    sd   t2, 8(t1)
    li   a7, 93
    ecall

    .org 0x80001000
buf:
    .dword 0x1111111111111111
    .dword 0
"""


def test_simulate_runs_and_flushes():
    r = simulate(PROG, model="b", seed=0)
    assert r.stop == "exit"
    assert r.st.exit_code == 0
    assert r.mem.clean  # final flush is part of the run
    assert r.st.cycles > 0


def test_run_models_order_and_agreement():
    results = run_models(PROG, seed=0)
    assert list(results) == ["baseline", "a", "b"]
    regs = [r.st.regs for r in results.values()]
    assert regs[0] == regs[1] == regs[2]
    cycles = [r.st.cycles for r in results.values()]
    assert cycles[0] < cycles[2] < cycles[1]  # ordering for a tagged workload


def test_run_models_subset():
    results = run_models(PROG, models=("baseline",), seed=0)
    assert list(results) == ["baseline"]


def test_cached_and_uncached_agree_on_program():
    a = simulate(PROG, model="b", seed=0)
    b = simulate(PROG, model="b", seed=0, no_cache=True)
    assert a.st.regs == b.st.regs
    assert a.st.reg_tags == b.st.reg_tags
    assert a.st.exit_code == b.st.exit_code
    assert bytes(a.mem.dram) == bytes(b.mem.dram)
    assert bytes(a.mem.tag_bits) == bytes(b.mem.tag_bits)


# ---- report assembly -------------------------------------------------------------


def test_build_report_shape_and_stability():
    results = run_models(PROG, seed=9)
    rep1 = build_report(results, seed=9)
    rep2 = build_report(run_models(PROG, seed=9), seed=9)
    assert rep1 == rep2
    assert emit_report(rep1) == emit_report(rep2)
    assert rep1["seed"] == 9
    assert rep1["stop_reason"] == "exit"
    assert rep1["cycles"]["baseline"] < rep1["cycles"]["model_b"] < rep1["cycles"]["model_a"]
    assert rep1["overhead"]["model_a_pct"] > rep1["overhead"]["model_b_pct"] > 0
    assert rep1["tag_stats"]["words_tagged_final"] == 512  # 4 KiB tagged
    assert rep1["mem_stats"]["cipher_blocks"] > 0
    assert "key" not in str(rep1).lower()


def test_report_partial_models():
    results = run_models(PROG, models=("b",), seed=0)
    rep = build_report(results, seed=0)
    assert rep["cycles"]["baseline"] is None
    assert rep["cycles"]["model_a"] is None
    assert rep["overhead"]["model_b_pct"] is None  # no baseline to compare
    assert rep["tag_stats"]["overtag_extra_cycles_pct"] is None


def test_emit_text_format():
    results = run_models(PROG, seed=0)
    rep = build_report(results, seed=0)
    text = emit_report(rep, fmt="text")
    assert "cycles baseline" in text
    assert "overhead A" in text
    assert "leak averted" in text
    with pytest.raises(ValueError):
        emit_report(rep, fmt="yaml")


def test_trap_is_reported():
    bad = """
        .org 0x80000000
        li a0, 1
        ld a1, 1(a0)
    """
    r = simulate(bad, model="baseline")
    assert r.stop == "trap"
    rep = build_report({"baseline": r}, seed=0)
    assert rep["stop_reason"] == "trap"
    assert "trap" in rep
