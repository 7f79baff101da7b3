"""Memory hierarchy: value/tag correctness through the caches, the
encryption boundary (checked against each test's own record of what it
stored), tag-management ranges, eviction pressure, the records read
from the caches (clean, and an icache that is never dirty), and
differential checks: the cached path against the uncached reference,
the MRU line against a plain LRU, model B's tag cache against a frozen
copy of its hand-written LRU, and each model's share of the counted
events against frozen per-model memories."""

import mmap
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conch import isa
from conch.asm import Program, SegmentOutOfBounds, load_image
from conch.cli import EXIT_OK, main
from conch.core import MachineState
from conch.crypt import derive_thread_key, generate_master_key, qarma_decrypt, qarma_encrypt
from conch.mem import (
    DRAM_BASE,
    DRAM_END,
    DRAM_SIZE,
    LINE,
    MODELS,
    REGION_SHIFT,
    CacheModel,
    MemAccessError,
    MemorySystem,
    MisalignedAccess,
    OutOfBoundsAccess,
    SoundnessViolation,
    _Line,
)
from conch.os_shim import EFAULT
from conch.report import counts, mem_stats, simulate

from conftest import UncachedReference, plane_diff

KEY = derive_thread_key(generate_master_key(3), 0)
KEY2 = derive_thread_key(generate_master_key(3), 1)


# ---- plain value plumbing -----------------------------------------------------


@pytest.mark.parametrize("width,value", [(1, 0xA5), (2, 0xBEEF), (4, 0xDEADBEEF), (8, 0x0123456789ABCDEF)])
def test_store_load_roundtrip(width, value):
    mem = MemorySystem()
    addr = DRAM_BASE + 0x100
    mem.store(addr, width, value, 0, KEY)
    got, tag = mem.load(addr, width, False, KEY)
    assert got == value
    assert tag == 0


def test_signed_load_extends():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x40
    mem.store(addr, 1, 0x80, 0, KEY)
    got, _ = mem.load(addr, 1, True, KEY)
    assert got == 0xFFFFFFFFFFFFFF80
    got, _ = mem.load(addr, 1, False, KEY)
    assert got == 0x80


def test_little_endian_byte_order():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x200
    mem.store(addr, 8, 0x0807060504030201, 0, KEY)
    for i in range(8):
        b, _ = mem.load(addr + i, 1, False, KEY)
        assert b == i + 1


def test_misaligned_access_raises():
    mem = MemorySystem()
    with pytest.raises(MisalignedAccess):
        mem.load(DRAM_BASE + 1, 4, False, KEY)
    with pytest.raises(MisalignedAccess):
        mem.store(DRAM_BASE + 3, 8, 0, 0, KEY)


def test_bounds_checked():
    mem = MemorySystem()
    with pytest.raises(OutOfBoundsAccess):
        mem.load(DRAM_BASE - 8, 8, False, KEY)
    with pytest.raises(OutOfBoundsAccess):
        mem.load(DRAM_END - 4, 8, False, KEY)


# ---- DRAM's one bound: every caller of in_dram -----------------------------------
# Each caller is given the n bytes from addr and answers "ok" or how it
# refused them.


def _guest(insn):
    """A guest `insn` on the byte at addr: it runs, or it traps."""

    def caller(addr, n, tmp_path):
        res = simulate(f"la a1, {addr}\n{insn}\nli a7, 93\necall\n")
        return "ok" if res.stop == "exit" else res.stop

    return caller


def _syscall(addr, n, tmp_path):
    """write(1, addr, n) from the guest: n, or -EFAULT."""
    res = simulate(f"li a0, 1\nla a1, {addr}\nli a2, {n}\nli a7, 64\necall\nmv s0, a0\nli a7, 93\necall\n")
    ret = res.st.regs[8]
    if ret == -EFAULT & isa.MASK64:
        return "-EFAULT"
    return "ok" if ret == n and len(res.shim.stdout) == n else ret


def _image(addr, n, tmp_path):
    try:
        load_image(Program([(addr, bytes(n), "data")], entry=DRAM_BASE), MemorySystem(), MachineState())
    except SegmentOutOfBounds:
        return "SegmentOutOfBounds"
    return "ok"


def _dump(addr, n, tmp_path):
    src = tmp_path / "p.s"
    src.write_text("li a7, 93\necall\n")
    code = main(["dump", str(src), "--range", f"{addr:#x}:{n}"])
    return "ok" if code == EXIT_OK else f"exit {code}"


@pytest.mark.parametrize(
    "caller, n, refusal",
    [
        pytest.param(_guest("lb a0, 0(a1)"), 1, "trap", id="load"),
        pytest.param(_guest("sb a1, 0(a1)"), 1, "trap", id="store"),
        pytest.param(_syscall, 16, "-EFAULT", id="syscall"),
        pytest.param(_image, 16, "SegmentOutOfBounds", id="load_image"),
        pytest.param(_dump, 16, "exit 2", id="dump"),
    ],
)
def test_dram_ends_at_dram_end_for_every_caller(caller, n, refusal, tmp_path):
    # the n bytes that end at DRAM_END are DRAM; shifted one byte up, they
    # hold one byte past it
    assert caller(DRAM_END - n, n, tmp_path) == "ok"
    assert caller(DRAM_END - n + 1, n, tmp_path) == refusal


# ---- tags at the word level -----------------------------------------------------


def test_full_word_store_replaces_tag():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x300
    mem.store(addr, 8, 1, 1, KEY)
    assert mem.load(addr, 8, False, KEY)[1] == 1
    mem.store(addr, 8, 2, 0, KEY)  # full store with clean source untags
    assert mem.load(addr, 8, False, KEY)[1] == 0


def test_partial_store_retains_tag():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x308
    mem.store(addr, 8, 0xFFFFFFFFFFFFFFFF, 1, KEY)
    mem.store(addr, 2, 0xAAAA, 0, KEY)  # clean halfword into tagged word
    value, tag = mem.load(addr, 8, False, KEY)
    assert value == 0xFFFFFFFFFFFFAAAA
    assert tag == 1  # retain-tag policy


# Run on both memories, so the reference is pinned to the rule as well.
MEMORIES = pytest.mark.parametrize("memory", [MemorySystem, UncachedReference], ids=["cached", "no_cache"])


@MEMORIES
@pytest.mark.parametrize("width", [1, 2, 4])
def test_partial_store_retains_tag_each_width(width, memory):
    mem = memory()
    addr = DRAM_BASE + 0x308
    mem.store(addr, 8, 0xFFFFFFFFFFFFFFFF, 1, KEY)
    mem.store(addr + 8 - width, width, 0, 0, KEY)  # clean sub-word store into the tagged word's top
    value, tag = mem.load(addr, 8, False, KEY)
    assert value == (1 << (64 - 8 * width)) - 1
    assert tag == 1  # retain-tag policy


def test_partial_tagged_store_taints_word():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x310
    mem.store(addr, 1, 0x55, 1, KEY)
    assert mem.load(addr, 8, False, KEY)[1] == 1


def test_ctag_set_covers_straddled_words():
    mem = MemorySystem()
    base = DRAM_BASE + 0x400
    mem.ctag_set_range(base + 4, 8, KEY)  # touches words 0 and 1
    assert mem.load(base, 8, False, KEY)[1] == 1
    assert mem.load(base + 8, 8, False, KEY)[1] == 1
    assert mem.load(base + 16, 8, False, KEY)[1] == 0
    # oracle records exactly the covered bytes
    assert mem.oracle_bits_for(base + 4, 8) == 0xFF
    assert mem.oracle_bits_for(base, 4) == 0
    assert mem.oracle_bits_for(base + 12, 4) == 0


def test_ctag_walk_reports_its_lines_before_walking():
    mem = MemorySystem()
    calls = []

    def charge(lines):
        calls.append((lines, mem.dcache.hits + mem.dcache.misses))

    mem.ctag_set_range(DRAM_BASE + 8, 130, KEY, charge=charge)  # overlaps lines 0, 1 and 2
    assert calls == [(3, 0)]  # before the first line is accessed
    assert mem.dcache.misses == 3


def test_ctag_clear_only_full_words():
    mem = MemorySystem()
    base = DRAM_BASE + 0x480
    mem.ctag_set_range(base, 24, KEY)
    mem.ctag_clear_range(base, 12, KEY)  # word 0 fully inside, word 1 partial
    assert mem.load(base, 8, False, KEY)[1] == 0
    assert mem.load(base + 8, 8, False, KEY)[1] == 1
    assert mem.load(base + 16, 8, False, KEY)[1] == 1
    assert mem.oracle_bits_for(base, 12) == 0


@MEMORIES
def test_ctag_clear_keeps_partial_words_at_both_ends(memory):
    mem = memory()
    base = DRAM_BASE + 0x4C0
    mem.ctag_set_range(base, 24, KEY)
    mem.ctag_clear_range(base + 4, 16, KEY)  # word 0 and word 2 partial, word 1 inside
    assert [mem.load(base + 8 * i, 8, False, KEY)[1] for i in range(3)] == [1, 0, 1]
    assert mem.oracle_bits_for(base, 24) == 0xF0000F


def test_ctag_read_modes():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x500
    mem.ctag_set_range(addr, 8, KEY)
    misses = mem.tagcache_misses
    assert mem.ctag_read(addr) == 1  # line resident from the set walk
    assert mem.tagcache_misses == misses  # no tag-store lookup
    mem.flush_and_sync(KEY)
    touches = mem.tag_store_touches
    assert mem.ctag_read(addr) == 1
    assert mem.tag_store_touches == touches + 1  # had to consult the tag store


# ---- the encryption boundary ------------------------------------------------------


def test_tagged_word_rests_encrypted():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x600
    mem.store(addr, 8, 0xCAFEBABE, 1, KEY)
    mem.flush_and_sync(KEY)
    raw = int.from_bytes(mem.dram[addr - DRAM_BASE : addr - DRAM_BASE + 8], "little")
    assert raw != 0xCAFEBABE
    assert raw == qarma_encrypt(KEY, addr, 0xCAFEBABE)
    assert qarma_decrypt(KEY, addr, raw) == 0xCAFEBABE
    # and the read path undoes it transparently
    assert mem.load(addr, 8, False, KEY)[0] == 0xCAFEBABE


def test_untagged_word_rests_plain():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x608
    mem.store(addr, 8, 0xCAFEBABE, 0, KEY)
    mem.flush_and_sync(KEY)
    raw = int.from_bytes(mem.dram[addr - DRAM_BASE : addr - DRAM_BASE + 8], "little")
    assert raw == 0xCAFEBABE


def test_wrong_key_scrambles():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x700
    mem.store(addr, 8, 0x1234, 1, KEY)
    mem.flush_and_sync(KEY)
    got, tag = mem.load(addr, 8, False, KEY2)
    assert tag == 1
    assert got != 0x1234
    assert got == qarma_decrypt(KEY2, addr, qarma_encrypt(KEY, addr, 0x1234))


def test_at_rest_invariant_full_scan():
    mem = MemorySystem()
    stored = {}  # word address -> (value, tag)
    for i in range(200):
        addr = DRAM_BASE + 0x800 + 8 * i
        stored[addr] = (i * 0x9E3779B97F4A7C15 % 2**64, int(i % 3 == 0))
        mem.store(addr, 8, *stored[addr], KEY)
    mem.flush_and_sync(KEY)
    for addr, (value, tag) in stored.items():
        raw = int.from_bytes(mem.dram[addr - DRAM_BASE : addr - DRAM_BASE + 8], "little")
        assert mem.word_tag(addr) == tag
        assert raw == (qarma_encrypt(KEY, addr, value) if tag else value)
    # and no tag bit is set beyond the tagged words stored
    tagged = sum(tag for _, tag in stored.values())
    assert tagged and int.from_bytes(mem.tag_bits, "little").bit_count() == tagged


def test_eviction_pressure_preserves_data():
    # 3x the dcache capacity in distinct lines, half of them tagged
    mem = MemorySystem()
    lines = 3 * (32 * 1024 // 64)
    for i in range(lines):
        addr = DRAM_BASE + 0x10000 + 64 * i
        mem.store(addr, 8, i, i % 2, KEY)
    for i in range(lines):
        addr = DRAM_BASE + 0x10000 + 64 * i
        value, tag = mem.load(addr, 8, False, KEY)
        assert value == i
        assert tag == i % 2


def test_raw_dump_requires_clean_caches():
    mem = MemorySystem()
    mem.store(DRAM_BASE, 8, 1, 0, KEY)
    with pytest.raises(RuntimeError):
        mem.raw_dump(DRAM_BASE, 16)
    mem.flush_and_sync(KEY)
    data, tags = mem.raw_dump(DRAM_BASE, 16)
    assert data[:8] == (1).to_bytes(8, "little")
    assert tags == [0, 0]


def test_format_dump_shape():
    mem = MemorySystem()
    mem.store(DRAM_BASE, 8, 0xAB, 1, KEY)
    mem.flush_and_sync(KEY)
    text = mem.format_dump(DRAM_BASE, 16)
    lines = text.splitlines()
    assert lines[0].startswith("# line 0x80000000")
    word0 = int.from_bytes(mem.dram[0:8], "little")
    assert lines[1] == f"80000000: {word0:016x} 1"
    assert lines[2].endswith(" 0")


def test_format_dump_puts_each_byte_at_its_offset_in_its_word():
    """A range that starts inside a word shows its bytes where they lie;
    the bytes before it read 00, as the tail past its end does."""
    mem = MemorySystem()
    mem.write_raw_init(DRAM_BASE + 0x100, (0x1122334455667788).to_bytes(8, "little"))
    assert mem.format_dump(DRAM_BASE + 0x103, 8).splitlines() == [
        "# line 0x80000100",
        "80000100: 1122334455000000 0",
        "80000108: 0000000000000000 0",
    ]


def test_format_dump_heads_each_line():
    """A range that starts inside a line gets a header above its first row
    and above every row that starts a line."""
    mem = MemorySystem()
    lines = mem.format_dump(DRAM_BASE + 0x138, 80).splitlines()
    headers = {i: row for i, row in enumerate(lines) if row.startswith("#")}
    assert headers == {0: "# line 0x80000100", 2: "# line 0x80000140", 11: "# line 0x80000180"}
    assert [row[:8] for row in lines if not row.startswith("#")] == [
        f"{DRAM_BASE + a:08x}" for a in range(0x138, 0x188, 8)
    ]


def test_soundness_guard_trips_on_violation():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x900
    mem.store(addr, 8, 7, 1, KEY)
    # force an inconsistent oracle state behind the API's back
    with pytest.raises(SoundnessViolation):
        mem.store(addr, 8, 7, 0, KEY, taints=0xFF)


# ---- model accounting ------------------------------------------------------------
# Memory counts the union of the models' events; report.mem_stats gives
# each model its share.


def test_baseline_charges_no_tag_or_cipher_work():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x1000
    mem.store(addr, 8, 42, 1, KEY)
    mem.flush_and_sync(KEY)
    mem.load(addr, 8, False, KEY)
    stats = mem_stats(mem, "baseline")
    assert stats["dram_tag_accesses"] == stats["cipher_blocks"] == 0
    assert stats["tagcache_hits"] == stats["tagcache_misses"] == 0
    # though memory counted them, and the word is still encrypted at rest
    assert mem.tag_store_touches == 3 and mem.cipher_blocks == 2
    raw = int.from_bytes(mem.dram[0x1000:0x1008], "little")
    assert raw == qarma_encrypt(KEY, addr, 42)


def test_model_a_counts_tag_traffic_per_line_event():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x2000
    mem.store(addr, 8, 1, 1, KEY)  # miss: one fill
    assert mem_stats(mem, "a")["dram_tag_accesses"] == 1
    mem.flush_and_sync(KEY)  # one dirty writeback
    assert mem_stats(mem, "a")["dram_tag_accesses"] == 2
    mem.load(addr, 8, False, KEY)  # fill again
    stats = mem_stats(mem, "a")
    assert stats["dram_tag_accesses"] == 3
    assert stats["cipher_blocks"] == 2  # one encrypt, one decrypt
    assert stats["tagcache_hits"] == stats["tagcache_misses"] == 0


def test_model_b_tag_cache_filters():
    mem = MemorySystem()
    # 64 consecutive lines share one 4 KiB tag line
    for i in range(64):
        mem.load(DRAM_BASE + 64 * i, 8, False, KEY)
    stats = mem_stats(mem, "b")
    assert stats["tagcache_misses"] == 1
    assert stats["tagcache_hits"] == 63
    assert stats["dram_tag_accesses"] == 1
    assert mem_stats(mem, "a")["dram_tag_accesses"] == 64


def test_model_b_dirty_tag_eviction_costs_one_more():
    # single-entry tag cache makes the victim deterministic
    mem = MemorySystem(tag_cache=(64, 1))
    counted = []
    for line_base, write in [(DRAM_BASE, True), (DRAM_BASE + 4096, False), (DRAM_BASE + 8192, False)]:
        before = mem_stats(mem, "b")["dram_tag_accesses"]
        mem._tag_access(line_base, write)
        counted.append(mem_stats(mem, "b")["dram_tag_accesses"] - before)
    # a miss that fills dirty, a dirty victim, a clean victim
    assert counted == [1, 2, 1]


def test_cipher_latency_charged_per_tagged_word():
    mem = MemorySystem()
    addr = DRAM_BASE + 0x3000
    mem.ctag_set_range(addr, 64, KEY)  # whole line tagged
    fields = ("dram_data_accesses", "dram_tag_accesses", "cipher_blocks")
    before = [mem_stats(mem, "a")[f] for f in fields]
    mem.flush_and_sync(KEY)
    after = [mem_stats(mem, "a")[f] for f in fields]
    # one writeback: its data access, its tag access and 8 cipher blocks
    assert [b - a for a, b in zip(before, after)] == [1, 1, 8]


def test_unknown_model_raises():
    mem = MemorySystem()
    with pytest.raises(ValueError):
        mem_stats(mem, "c")
    with pytest.raises(ValueError):
        counts(MachineState(), mem, "B")



# ---- the planes ---------------------------------------------------------------


@pytest.mark.parametrize("plane", ["dram", "tag_bits", "byte_oracle"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_planes_compare_by_content(plane, where):
    # plane_diff, through which the differential tests compare memories,
    # finds one differing byte anywhere in a plane, once either memory
    # has recorded its region
    a, b = MemorySystem(), MemorySystem()
    pa, pb = getattr(a, plane), getattr(b, plane)
    i = {"first": 0, "middle": len(pa) // 2 + 3, "last": len(pa) - 1}[where]
    region = (i * DRAM_SIZE // len(pa)) >> REGION_SHIFT
    pa[i] = 0x40
    assert plane_diff(a, b) is None  # no region recorded: nothing compared
    b.regions.add(region)
    assert plane_diff(a, b) == plane_diff(b, a) == (plane, region)
    pb[i] = 0x40
    assert plane_diff(a, b) is None


def _statm_resident_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * mmap.PAGESIZE


def test_fresh_planes_cost_no_rss_until_written():
    # a private mapping maps the zero page on a read; a shared one, or a
    # bytearray, would commit all three planes (73 MiB), and peak RSS with them
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("no /proc/self/statm")
    mem = MemorySystem()
    before = _statm_resident_bytes()
    for plane in (mem.dram, mem.tag_bits, mem.byte_oracle):
        for i in range(0, len(plane), mmap.PAGESIZE):
            plane[i]
    assert _statm_resident_bytes() - before < 1 << 20


def _oracle_set_per_byte(oracle, bi, length, on):
    """The per-byte rule _oracle_set must reproduce: oracle bit of byte
    bi+k for each k < length."""
    for k in range(length):
        idx = bi + k
        if on:
            oracle[idx >> 3] |= 1 << (idx & 7)
        else:
            oracle[idx >> 3] &= ~(1 << (idx & 7)) & 0xFF


# bytes of DRAM under test: 32 oracle bytes. The tests compare these and
# the 32 oracle bytes after them, which must stay clear.
ORACLE_SPAN = 256


@given(
    initial=st.binary(min_size=ORACLE_SPAN // 8, max_size=ORACLE_SPAN // 8),
    offset=st.integers(0, ORACLE_SPAN),
    length=st.integers(0, ORACLE_SPAN),
    on=st.booleans(),
)
@example(initial=bytes(32), offset=3, length=3, on=True)  # inside one oracle byte
@example(initial=b"\xff" * 32, offset=13, length=1, on=False)  # a single byte
@example(initial=bytes(32), offset=5, length=6, on=True)  # two partial bytes, none whole
@example(initial=b"\x5a" * 32, offset=3, length=250, on=False)  # both ends unaligned
@example(initial=bytes(32), offset=8, length=16, on=True)  # both ends aligned
@example(initial=b"\xff" * 32, offset=5, length=0, on=False)  # empty, unaligned
@example(initial=bytes(32), offset=0, length=ORACLE_SPAN, on=True)  # the whole span
@example(initial=b"\xa5" * 32, offset=ORACLE_SPAN - 13, length=13, on=False)  # ends on the last oracle byte
@example(initial=b"\x5a" * 32, offset=ORACLE_SPAN - 13, length=13, on=True)  # the same, set
@settings(max_examples=300)
def test_oracle_set_matches_per_byte_rule(initial, offset, length, on):
    length = min(length, ORACLE_SPAN - offset)
    mem = MemorySystem()
    mem.byte_oracle[: len(initial)] = initial
    expected = bytearray(initial) + bytes(ORACLE_SPAN // 8)
    _oracle_set_per_byte(expected, offset, length, on)
    mem._oracle_set(DRAM_BASE + offset, length, on)
    assert mem.byte_oracle[: len(expected)] == expected


def _oracle_update_per_byte(oracle, bi, width, taints):
    """The per-byte rule _oracle_update must reproduce: bit k of taints
    becomes the oracle bit of byte bi+k."""
    for k in range(width):
        idx = bi + k
        if (taints >> k) & 1:
            oracle[idx >> 3] |= 1 << (idx & 7)
        else:
            oracle[idx >> 3] &= ~(1 << (idx & 7)) & 0xFF


def _oracle_bits_per_byte(oracle, bi, width):
    """The per-byte rule oracle_bits_for must reproduce: bit k is the
    oracle bit of byte bi+k."""
    out = 0
    for k in range(width):
        idx = bi + k
        out |= ((oracle[idx >> 3] >> (idx & 7)) & 1) << k
    return out


@pytest.mark.parametrize("width", [1, 2, 4, 8])
@given(
    initial=st.binary(min_size=ORACLE_SPAN // 8, max_size=ORACLE_SPAN // 8),
    slot=st.integers(0, ORACLE_SPAN // 8 - 1),
    taints=st.integers(0, 0xFF),
)
@settings(max_examples=50)
def test_oracle_update_matches_per_byte_rule(width, initial, slot, taints):
    mem = MemorySystem()
    for offset in range(8 * slot, 8 * slot + 8, width):  # every aligned offset in the word
        mem.byte_oracle[: len(initial)] = initial
        expected = bytearray(initial) + bytes(ORACLE_SPAN // 8)
        _oracle_update_per_byte(expected, offset, width, taints)
        mem._oracle_update(DRAM_BASE + offset, width, taints)
        assert mem.byte_oracle[: len(expected)] == expected


@given(
    initial=st.binary(min_size=ORACLE_SPAN // 8, max_size=ORACLE_SPAN // 8),
    offset=st.integers(0, ORACLE_SPAN - 1),
    width=st.integers(1, 8),
)
@example(initial=b"\x0f\xf0" * 16, offset=4, width=8)  # the two halves of a straddled pair
@example(initial=b"\xa5" * 32, offset=ORACLE_SPAN - 1, width=1)  # the last byte
@settings(max_examples=300)
def test_oracle_bits_for_matches_per_byte_rule(initial, offset, width):
    width = min(width, ORACLE_SPAN - offset)
    mem = MemorySystem()
    mem.byte_oracle[: len(initial)] = initial
    assert mem.oracle_bits_for(DRAM_BASE + offset, width) == _oracle_bits_per_byte(initial, offset, width)


# ---- differential: cached vs the uncached reference ------------------------------

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("store"),
            st.integers(0, 128 * 8 - 1),  # byte offset, aligned down to the width
            st.sampled_from([1, 2, 4, 8]),
            st.integers(0, (1 << 64) - 1),
            st.integers(0, 1),
            st.integers(0, 0xFF),  # per-byte taints
        ),
        st.tuples(st.just("load"), st.integers(0, 128 * 8 - 1), st.sampled_from([1, 2, 4, 8]), st.booleans()),
        st.tuples(st.just("fetch"), st.integers(0, 128 * 8 - 1)),
        st.tuples(st.just("ctag_set"), st.integers(0, 128 * 8 - 1), st.integers(1, 64)),
        st.tuples(st.just("ctag_clr"), st.integers(0, 128 * 8 - 1), st.integers(1, 64)),
        st.tuples(st.just("flush")),
    ),
    min_size=1,
    max_size=60,
)


SPAN = 128 * 8  # the bytes OPS reaches


def _apply(mem, op, page=0):
    """Apply one OPS step to the 4 KiB page `page` of mem's DRAM; a load
    returns (value, tag, oracle bits) and a fetch the fetched word. A
    fetch flushes first: the icache is not coherent with dirty dcache
    lines (see SELF_PATCH)."""
    base = DRAM_BASE + 4096 * page
    kind = op[0]
    if kind == "store":
        _, offset, width, value, tag, taints = op
        taints &= (1 << width) - 1
        if not tag:
            taints = 0  # a register tag over-approximates its byte taints
        mem.store(base + offset - offset % width, width, value & ((1 << (8 * width)) - 1), tag, KEY, taints)
    elif kind == "load":
        _, offset, width, signed = op
        addr = base + offset - offset % width
        value, tag = mem.load(addr, width, signed, KEY)
        return value, tag, mem.oracle_bits_for(addr, width)
    elif kind == "fetch":
        mem.flush_and_sync(KEY)
        return mem.fetch(base + (op[1] & ~3), KEY)
    elif kind in ("ctag_set", "ctag_clr"):
        _, offset, length = op
        ctag = mem.ctag_set_range if kind == "ctag_set" else mem.ctag_clear_range
        ctag(base + offset, min(length, SPAN - offset), KEY)
    else:
        mem.flush_and_sync(KEY)
    return None


@given(ops=OPS)
@example(ops=[("store", 8, 8, 2**64 - 1, 1, 0), ("store", 12, 4, 0, 0, 0), ("load", 8, 8, False)])  # a clean narrow store keeps the tag
# sign bits high in a tagged word, read by signed loads and a fetch
@example(ops=[("store", 8, 8, 0x80FF_FF80_8000_8080, 1, 0xFF), ("load", 15, 1, True), ("load", 12, 2, True), ("fetch", 12)])
@settings(max_examples=120)
def test_cached_matches_uncached(ops):
    cached = MemorySystem()
    flat = UncachedReference()
    for op in ops:
        assert _apply(cached, op) == _apply(flat, op)
    cached.flush_and_sync(KEY)
    assert cached.dram[:SPAN] == flat.dram[:SPAN]
    assert cached.tag_bits[: SPAN // 64] == flat.tag_bits[: SPAN // 64]
    assert cached.byte_oracle[: SPAN // 8] == flat.byte_oracle[: SPAN // 8]


# The 16 lines OPS reaches fill 8 sets of 2 ways, or 16 sets of one way,
# in the order the ops first touch them, which is seldom ascending.
@pytest.mark.parametrize("dcache", [(1024, 2), (1024, 1)], ids=["8x2", "16x1"])
@given(ops=OPS)
@settings(max_examples=60)
def test_live_sets_track_resident_lines(dcache, ops):
    mem = MemorySystem(dcache=dcache)
    for op in ops:
        _apply(mem, op)
        cache = mem.dcache
        assert all(cache.sets.values())  # only non-empty sets are kept
        for i, s in cache.sets.items():
            assert all((ln.base // LINE) % cache.n_sets == i for ln in s)
        assert list(cache.all_lines()) == [ln for i in sorted(cache.sets) for ln in cache.sets[i]]
        _assert_mru(cache)
    mem.flush_and_sync(KEY)
    for cache in (mem.dcache, mem.icache, mem.tagcache):
        assert cache.sets == {}
        assert cache.mru is None


# ---- records read from the caches ---------------------------------------------------

SELF_PATCH = f"""
.org 0x80000000
    la   t0, patch
    li   t1, {isa.encode("addi", 10, imm=7):#x}
    sw   t1, 0(t0)
    li   a0, 1
    li   a7, 5000
    ecall               # thread switch: the flush writes the patch back
patch:
    addi a0, zero, 1    # runs as addi a0, zero, 7 once the icache refills
    li   a7, 93
    ecall
"""


def _dirty_lines(cache):
    return [ln for s in cache.sets.values() for ln in s if ln.dirty]


def test_icache_lines_are_never_dirty(corpus, monkeypatch):
    """flush_and_sync only invalidates the icache: no corpus run, nor a
    program that stores into its own text, has a dirty icache line at any
    fetch or flush."""
    fetch, flush = MemorySystem.fetch, MemorySystem.flush_and_sync

    def checked_fetch(self, addr, key):
        assert not _dirty_lines(self.icache)
        return fetch(self, addr, key)

    def checked_flush(self, key):
        assert not _dirty_lines(self.icache)
        flush(self, key)

    monkeypatch.setattr(MemorySystem, "fetch", checked_fetch)
    monkeypatch.setattr(MemorySystem, "flush_and_sync", checked_flush)
    for name, source, fs in corpus:
        assert simulate(source, fs=dict(fs)).stop == "exit", name
    res = simulate(SELF_PATCH)
    assert (res.stop, res.st.exit_code) == ("exit", 7)


def test_fetch_sees_a_store_into_text_only_after_a_refill():
    """Without the thread switch's flush, the patch waits in a dirty dcache
    line while the icache still holds the old word, so the instruction
    runs as written: exit 1, not 7 (see the core module docstring)."""
    source = "\n".join(ln for ln in SELF_PATCH.splitlines() if "5000" not in ln and "thread switch" not in ln)
    assert source.count("ecall") == 1
    res = simulate(source)
    assert (res.stop, res.st.exit_code) == ("exit", 1)


def test_fetch_from_a_second_line_at_the_same_offset_misses_and_reads_that_line():
    mem = MemorySystem()
    words = [isa.encode("addi", rd=10, imm=1), isa.encode("addi", rd=10, imm=2)]
    for addr, word in zip((DRAM_BASE, DRAM_BASE + LINE), words):
        mem.write_raw_init(addr, word.to_bytes(4, "little"))
    assert [mem.fetch(DRAM_BASE, KEY), mem.fetch(DRAM_BASE + LINE, KEY)] == words
    assert (mem.icache.hits, mem.icache.misses) == (0, 2)


def test_clean_once_eviction_wrote_back_every_dirty_line():
    """clean reads the dcache's dirty bits: once eviction has written back
    a stored line, DRAM is at rest with no flush, and raw_dump shows what
    flush_and_sync leaves."""
    mem = MemorySystem()
    addr = DRAM_BASE + 0x3008
    mem.store(addr, 8, 0x1234, 1, KEY)
    mem.store(addr + 8, 4, 0x56, 0, KEY)
    assert not mem.clean
    for k in range(1, 9):  # 8 more lines of its 8-way set: the stored line is evicted
        mem.load(addr + 4096 * k, 8, False, KEY)
    assert mem.clean and not _dirty_lines(mem.dcache)
    dump = mem.raw_dump(addr - 8, LINE)
    mem.flush_and_sync(KEY)
    assert mem.raw_dump(addr - 8, LINE) == dump
    data, tags = dump
    assert data[8:20] == qarma_encrypt(KEY, addr, 0x1234).to_bytes(8, "little") + (0x56).to_bytes(4, "little")
    assert tags[:3] == [0, 1, 0]


# ---- the MRU line -------------------------------------------------------------------


def _assert_mru(cache):
    """CacheModel.mru is None, or a resident line first in its set."""
    if cache.mru is not None:
        s = cache.sets.get((cache.mru.base // LINE) % cache.n_sets)
        assert s and s[0] is cache.mru


class _LruReference:
    """The set logic of CacheModel without the MRU check: find walks the
    set every time. Sets hold line bases, most recently used first."""

    def __init__(self, n_sets, ways):
        self.sets = [[] for _ in range(n_sets)]
        self.ways = ways

    def _set(self, base):
        return self.sets[(base // LINE) % len(self.sets)]

    def find(self, base):
        s = self._set(base)
        if base not in s:
            return None
        s.remove(base)
        s.insert(0, base)
        return base

    def insert(self, base):
        s = self._set(base)
        victim = s.pop() if len(s) == self.ways else None
        s.insert(0, base)
        return victim

    def invalidate(self):
        for s in self.sets:
            s.clear()


@pytest.mark.parametrize("ways", [1, 2])
@given(ops=st.lists(st.tuples(st.sampled_from(["find", "insert", "invalidate"]), st.integers(0, 5)), max_size=60))
@example(ops=[("insert", 0), ("insert", 2), ("find", 0)])  # a hit behind the MRU line
@settings(max_examples=150)
def test_mru_matches_plain_lru(ways, ops):
    # 6 lines over 2 sets, so sets fill, evict and hit
    cache = CacheModel(2 * ways * LINE, ways)
    ref = _LruReference(2, ways)
    for op, i in ops:
        base = DRAM_BASE + i * LINE
        if op == "find":
            line = cache.find(base)
            assert (line and line.base) == ref.find(base)
        elif op == "insert":
            victim = cache.insert(_Line(base, [0] * 8, 0))
            assert (victim and victim.base) == ref.insert(base)
        else:
            cache.invalidate()
            ref.invalidate()
        # exactly the reference's non-empty sets, yielded in ascending set order
        resident = {i: [line.base for line in s] for i, s in cache.sets.items()}
        assert resident == {i: s for i, s in enumerate(ref.sets) if s}
        assert [line.base for line in cache.all_lines()] == [base for s in ref.sets for base in s]
        _assert_mru(cache)


# ---- differential: model B's tag cache ------------------------------------------------


class _TagCacheReference:
    """Model B's tag cache as the hand-written LRU it was before it became
    a CacheModel, kept frozen: each set lists [tag-line number, dirty],
    most recently used first."""

    def __init__(self, size, ways):
        self.sets = [[] for _ in range(size // (ways * LINE))]
        self.ways = ways
        self.hits = self.misses = self.dram_tag_accesses = 0

    def access(self, line_base, write):
        num = line_base >> 12  # one tag line spans 4 KiB of data
        s = self.sets[num % len(self.sets)]
        for tl in s:
            if tl[0] == num:
                if s[0] is not tl:
                    s.remove(tl)
                    s.insert(0, tl)
                tl[1] = tl[1] or write
                self.hits += 1
                return
        self.misses += 1
        if len(s) == self.ways:
            victim = s.pop()
            if victim[1]:
                self.dram_tag_accesses += 1
        self.dram_tag_accesses += 1
        s.insert(0, [num, write])

    def flush(self):
        for s in self.sets:
            for tl in s:
                if tl[1]:
                    self.dram_tag_accesses += 1
            s.clear()


# Runs of accesses with a flush_and_sync after each. An access (k, s, line,
# write) touches data line `line` of the 4 KiB page k * n_sets + s, so the
# pages fall into tag-cache sets 0 and 1, 17 pages each: more than the 8
# ways of the default geometry, and sets fill, hit and evict.
TAG_RUNS = st.lists(
    st.lists(
        st.tuples(st.integers(0, 16), st.integers(0, 1), st.integers(0, 4096 // LINE - 1), st.booleans()),
        max_size=80,
    ),
    max_size=4,
)


@pytest.mark.parametrize("tag_cache", [(4096, 8), (64, 1)], ids=["8x8", "1x1"])
@given(runs=TAG_RUNS)
@example(runs=[[(k, 0, 0, True) for k in range(9)]])  # a dirty victim in the default geometry
@settings(max_examples=100)
def test_tag_cache_matches_reference(tag_cache, runs):
    mem = MemorySystem(tag_cache=tag_cache)
    ref = _TagCacheReference(*tag_cache)
    n_sets = len(ref.sets)
    for run in runs:
        for k, s, line, write in run:
            line_base = DRAM_BASE + 4096 * (k * n_sets + s) + LINE * line
            before = _tag_counts(mem, ref)
            mem._tag_access(line_base, write)
            ref.access(line_base, write)
            _assert_same_deltas(before, _tag_counts(mem, ref))
        before = _tag_counts(mem, ref)
        mem.flush_and_sync(KEY)
        ref.flush()
        _assert_same_deltas(before, _tag_counts(mem, ref))


def _tag_counts(mem, ref):
    """Model B's tag-cache hits, misses and DRAM tag accesses in mem, and
    those of ref."""
    stats = mem_stats(mem, "b")
    return (
        (stats["tagcache_hits"], stats["tagcache_misses"], stats["dram_tag_accesses"]),
        (ref.hits, ref.misses, ref.dram_tag_accesses),
    )


def _assert_same_deltas(before, after):
    """One call moved mem's counts and ref's by the same amounts."""
    (mem0, ref0), (mem1, ref1) = before, after
    assert [b - a for a, b in zip(mem0, mem1)] == [b - a for a, b in zip(ref0, ref1)]


# ---- differential: the union of events against per-model memories ---------------------


class _PerModelMemory(MemorySystem):
    """A MemorySystem that counts one model's tag and cipher events only,
    as memory did before it counted their union: frozen copies of that
    _tag_access, _count_cipher and flush_and_sync. Its counters are what
    report.mem_stats must give for the model."""

    def __init__(self, model, **kw):
        super().__init__(**kw)
        self.model = model
        self.dram_tag_accesses = 0

    def _tag_access(self, line_base, write):
        if self.model == "baseline":
            return
        if self.model == "a":
            self.dram_tag_accesses += 1
            return
        tagcache = self.tagcache
        tag_base = (line_base >> 12) * LINE
        tl = tagcache.find(tag_base)
        if tl is not None:
            tagcache.hits += 1
            tl.dirty = tl.dirty or write
            return
        tagcache.misses += 1
        tl = _Line(tag_base, None, 0)
        tl.dirty = write
        victim = tagcache.insert(tl)
        self.dram_tag_accesses += 2 if victim is not None and victim.dirty else 1

    def _count_cipher(self, word_addr):
        if self.model == "baseline":
            return
        self.cipher_blocks += 1
        if self.oracle_word(word_addr) == 0:
            self.overtag_cipher_blocks += 1

    def flush_and_sync(self, key):
        for cache in (self.dcache, self.icache):
            for line in cache.all_lines():
                if line.dirty:
                    self._writeback_line(line, key)
            cache.invalidate()
        self.dram_tag_accesses += sum(tl.dirty for tl in self.tagcache.all_lines())
        self.tagcache.invalidate()


# "small": a dcache of 8 sets of 2 ways, which the 16 lines OPS reaches in
# a page overflow, and a one-line tag cache, which every other page evicts
GEOMETRIES = {"default": {}, "small": {"dcache": (1024, 2), "tag_cache": (64, 1)}}


@pytest.mark.parametrize("geometry", list(GEOMETRIES))
@given(ops=OPS, pages=st.lists(st.integers(0, 16), min_size=1, max_size=4))
@settings(max_examples=60)
def test_each_model_counts_its_share_of_the_union(geometry, ops, pages):
    mem = MemorySystem(**GEOMETRIES[geometry])
    refs = {m: _PerModelMemory(m, **GEOMETRIES[geometry]) for m in MODELS}
    for i, op in enumerate(ops):
        for target in (mem, *refs.values()):
            _apply(target, op, pages[i % len(pages)])
    for target in (mem, *refs.values()):
        target.flush_and_sync(KEY)
    state = MachineState()
    for model, ref in refs.items():
        assert mem_stats(mem, model) == {
            "dcache_hits": ref.dcache.hits,
            "dcache_misses": ref.dcache.misses,
            "icache_hits": ref.icache.hits,
            "icache_misses": ref.icache.misses,
            "tagcache_hits": ref.tagcache_hits,
            "tagcache_misses": ref.tagcache_misses,
            "dram_data_accesses": ref.dram_data_accesses,
            "dram_tag_accesses": ref.dram_tag_accesses,
            "cipher_blocks": ref.cipher_blocks,
        }, model
        n = counts(state, mem, model)
        assert (n["dram_access_latency"], n["cipher_block"], n["tag_cache_hit"]) == (
            ref.dram_data_accesses + ref.dram_tag_accesses,
            ref.cipher_blocks,
            ref.tagcache_hits,
        ), model
        # build_report prices the over-tag blocks of a model that pays for cipher work
        if model != "baseline":
            assert mem.overtag_cipher_blocks == ref.overtag_cipher_blocks, model
