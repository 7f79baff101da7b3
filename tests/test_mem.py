"""Memory hierarchy: value/tag correctness through the caches, the
encryption boundary, tag-management ranges, eviction pressure, and a
differential check of the cached path against the degenerate uncached
one."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conch.crypt import derive_thread_key, generate_master_key, qarma_decrypt, qarma_encrypt
from conch.mem import (
    DRAM_BASE,
    LINE,
    CacheModel,
    CycleCosts,
    MemAccessError,
    MemorySystem,
    MisalignedAccess,
    OutOfBoundsAccess,
    Plane,
    SoundnessViolation,
    _Line,
)

KEY = derive_thread_key(generate_master_key(3), 0)
KEY2 = derive_thread_key(generate_master_key(3), 1)


def make_mem(**kw):
    return MemorySystem(model=kw.pop("model", "b"), **kw)


# ---- plain value plumbing -----------------------------------------------------


@pytest.mark.parametrize("width,value", [(1, 0xA5), (2, 0xBEEF), (4, 0xDEADBEEF), (8, 0x0123456789ABCDEF)])
def test_store_load_roundtrip(width, value):
    mem = make_mem()
    addr = mem.base + 0x100
    mem.store(addr, width, value, 0, KEY)
    got, tag, _ = mem.load(addr, width, False, KEY)
    assert got == value
    assert tag == 0


def test_signed_load_extends():
    mem = make_mem()
    addr = mem.base + 0x40
    mem.store(addr, 1, 0x80, 0, KEY)
    got, _, _ = mem.load(addr, 1, True, KEY)
    assert got == 0xFFFFFFFFFFFFFF80
    got, _, _ = mem.load(addr, 1, False, KEY)
    assert got == 0x80


def test_little_endian_byte_order():
    mem = make_mem()
    addr = mem.base + 0x200
    mem.store(addr, 8, 0x0807060504030201, 0, KEY)
    for i in range(8):
        b, _, _ = mem.load(addr + i, 1, False, KEY)
        assert b == i + 1


def test_misaligned_access_raises():
    mem = make_mem()
    with pytest.raises(MisalignedAccess):
        mem.load(mem.base + 1, 4, False, KEY)
    with pytest.raises(MisalignedAccess):
        mem.store(mem.base + 3, 8, 0, 0, KEY)


def test_bounds_checked():
    mem = make_mem()
    with pytest.raises(OutOfBoundsAccess):
        mem.load(mem.base - 8, 8, False, KEY)
    with pytest.raises(OutOfBoundsAccess):
        mem.load(mem.base + mem.size - 4, 8, False, KEY)


# ---- tags at the word level -----------------------------------------------------


def test_full_word_store_replaces_tag():
    mem = make_mem()
    addr = mem.base + 0x300
    mem.store(addr, 8, 1, 1, KEY)
    assert mem.load(addr, 8, False, KEY)[1] == 1
    mem.store(addr, 8, 2, 0, KEY)  # full store with clean source untags
    assert mem.load(addr, 8, False, KEY)[1] == 0


def test_partial_store_retains_tag():
    mem = make_mem()
    addr = mem.base + 0x308
    mem.store(addr, 8, 0xFFFFFFFFFFFFFFFF, 1, KEY)
    mem.store(addr, 2, 0xAAAA, 0, KEY)  # clean halfword into tagged word
    value, tag, _ = mem.load(addr, 8, False, KEY)
    assert value == 0xFFFFFFFFFFFFAAAA
    assert tag == 1  # retain-tag policy


@pytest.mark.parametrize("no_cache", [False, True], ids=["cached", "no_cache"])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_partial_store_retains_tag_each_width(width, no_cache):
    mem = make_mem(no_cache=no_cache)
    addr = mem.base + 0x308
    mem.store(addr, 8, 0xFFFFFFFFFFFFFFFF, 1, KEY)
    mem.store(addr + 8 - width, width, 0, 0, KEY)  # clean sub-word store into the tagged word's top
    value, tag, _ = mem.load(addr, 8, False, KEY)
    assert value == (1 << (64 - 8 * width)) - 1
    assert tag == 1  # retain-tag policy


def test_partial_tagged_store_taints_word():
    mem = make_mem()
    addr = mem.base + 0x310
    mem.store(addr, 1, 0x55, 1, KEY)
    assert mem.load(addr, 8, False, KEY)[1] == 1


def test_ctag_set_covers_straddled_words():
    mem = make_mem()
    base = mem.base + 0x400
    mem.ctag_set_range(base + 4, 8, KEY)  # touches words 0 and 1
    assert mem.load(base, 8, False, KEY)[1] == 1
    assert mem.load(base + 8, 8, False, KEY)[1] == 1
    assert mem.load(base + 16, 8, False, KEY)[1] == 0
    # oracle records exactly the covered bytes
    assert mem.oracle_bits_for(base + 4, 8) == 0xFF
    assert mem.oracle_bits_for(base, 4) == 0
    assert mem.oracle_bits_for(base + 12, 4) == 0


def test_ctag_clear_only_full_words():
    mem = make_mem()
    base = mem.base + 0x480
    mem.ctag_set_range(base, 24, KEY)
    mem.ctag_clear_range(base, 12, KEY)  # word 0 fully inside, word 1 partial
    assert mem.load(base, 8, False, KEY)[1] == 0
    assert mem.load(base + 8, 8, False, KEY)[1] == 1
    assert mem.load(base + 16, 8, False, KEY)[1] == 1
    assert mem.oracle_bits_for(base, 12) == 0


@pytest.mark.parametrize("no_cache", [False, True], ids=["cached", "no_cache"])
def test_ctag_clear_keeps_partial_words_at_both_ends(no_cache):
    mem = make_mem(no_cache=no_cache)
    base = mem.base + 0x4C0
    mem.ctag_set_range(base, 24, KEY)
    mem.ctag_clear_range(base + 4, 16, KEY)  # word 0 and word 2 partial, word 1 inside
    assert [mem.load(base + 8 * i, 8, False, KEY)[1] for i in range(3)] == [1, 0, 1]
    assert mem.oracle_bits_for(base, 24) == 0xF0000F


def test_ctag_read_modes():
    mem = make_mem()
    addr = mem.base + 0x500
    mem.ctag_set_range(addr, 8, KEY)
    tag, cycles = mem.ctag_read(addr)
    assert (tag, cycles) == (1, 0)  # line resident from the set walk
    mem.flush_and_sync(KEY)
    tag, cycles = mem.ctag_read(addr)
    assert tag == 1
    assert cycles > 0  # had to consult the tag store


# ---- the encryption boundary ------------------------------------------------------


def test_tagged_word_rests_encrypted():
    mem = make_mem()
    addr = mem.base + 0x600
    mem.store(addr, 8, 0xCAFEBABE, 1, KEY)
    mem.flush_and_sync(KEY)
    raw = int.from_bytes(mem.dram[addr - mem.base : addr - mem.base + 8], "little")
    assert raw != 0xCAFEBABE
    assert raw == qarma_encrypt(KEY, addr, 0xCAFEBABE)
    assert qarma_decrypt(KEY, addr, raw) == 0xCAFEBABE
    # and the read path undoes it transparently
    assert mem.load(addr, 8, False, KEY)[0] == 0xCAFEBABE


def test_untagged_word_rests_plain():
    mem = make_mem()
    addr = mem.base + 0x608
    mem.store(addr, 8, 0xCAFEBABE, 0, KEY)
    mem.flush_and_sync(KEY)
    raw = int.from_bytes(mem.dram[addr - mem.base : addr - mem.base + 8], "little")
    assert raw == 0xCAFEBABE


def test_wrong_key_scrambles():
    mem = make_mem()
    addr = mem.base + 0x700
    mem.store(addr, 8, 0x1234, 1, KEY)
    mem.flush_and_sync(KEY)
    got, tag, _ = mem.load(addr, 8, False, KEY2)
    assert tag == 1
    assert got != 0x1234
    assert got == qarma_decrypt(KEY2, addr, qarma_encrypt(KEY, addr, 0x1234))


def test_at_rest_invariant_full_scan():
    mem = make_mem(debug_shadow=True)
    for i in range(200):
        addr = mem.base + 0x800 + 8 * i
        mem.store(addr, 8, i * 0x9E3779B97F4A7C15 % 2**64, i % 3 == 0, KEY)
    mem.flush_and_sync(KEY)
    assert mem.debug_shadow  # something is tagged
    for addr, (logical, key) in mem.debug_shadow.items():
        raw = int.from_bytes(mem.dram[addr - mem.base : addr - mem.base + 8], "little")
        assert mem.word_tag(addr) == 1
        assert raw == qarma_encrypt(key, addr, logical)


def test_eviction_pressure_preserves_data():
    # 3x the dcache capacity in distinct lines, half of them tagged
    mem = make_mem()
    lines = 3 * (32 * 1024 // 64)
    for i in range(lines):
        addr = mem.base + 0x10000 + 64 * i
        mem.store(addr, 8, i, i % 2, KEY)
    for i in range(lines):
        addr = mem.base + 0x10000 + 64 * i
        value, tag, _ = mem.load(addr, 8, False, KEY)
        assert value == i
        assert tag == i % 2


def test_raw_dump_requires_clean_caches():
    mem = make_mem()
    mem.store(mem.base, 8, 1, 0, KEY)
    with pytest.raises(RuntimeError):
        mem.raw_dump(mem.base, 16)
    mem.flush_and_sync(KEY)
    data, tags = mem.raw_dump(mem.base, 16)
    assert data[:8] == (1).to_bytes(8, "little")
    assert tags == [0, 0]


def test_format_dump_shape():
    mem = make_mem()
    mem.store(mem.base, 8, 0xAB, 1, KEY)
    mem.flush_and_sync(KEY)
    text = mem.format_dump(mem.base, 16)
    lines = text.splitlines()
    assert lines[0].startswith("# line 0x80000000")
    word0 = int.from_bytes(mem.dram[0:8], "little")
    assert lines[1] == f"80000000: {word0:016x} 1"
    assert lines[2].endswith(" 0")


def test_soundness_guard_trips_on_violation():
    mem = make_mem(debug_soundness=True)
    addr = mem.base + 0x900
    mem.store(addr, 8, 7, 1, KEY)
    # force an inconsistent oracle state behind the API's back
    with pytest.raises(SoundnessViolation):
        mem.store(addr, 8, 7, 0, KEY, taints=0xFF)


# ---- model accounting -----------------------------------------------------------


def test_baseline_charges_no_tag_or_cipher_work():
    mem = MemorySystem(model="baseline")
    addr = mem.base + 0x1000
    mem.store(addr, 8, 42, 1, KEY)
    mem.flush_and_sync(KEY)
    mem.load(addr, 8, False, KEY)
    assert mem.dram_tag_accesses == 0
    assert mem.cipher_blocks == 0
    assert mem.tagcache_hits == mem.tagcache_misses == 0
    # but the functional result is still encrypted at rest
    raw = int.from_bytes(mem.dram[0x1000:0x1008], "little")
    assert raw == qarma_encrypt(KEY, addr, 42)


def test_model_a_counts_tag_traffic_per_line_event():
    mem = MemorySystem(model="a")
    addr = mem.base + 0x2000
    mem.store(addr, 8, 1, 1, KEY)  # miss: one fill
    assert mem.dram_tag_accesses == 1
    mem.flush_and_sync(KEY)  # one dirty writeback
    assert mem.dram_tag_accesses == 2
    mem.load(addr, 8, False, KEY)  # fill again
    assert mem.dram_tag_accesses == 3
    assert mem.cipher_blocks == 2  # one encrypt, one decrypt


def test_model_b_tag_cache_filters():
    mem = MemorySystem(model="b")
    # 64 consecutive lines share one 4 KiB tag line
    for i in range(64):
        mem.load(mem.base + 64 * i, 8, False, KEY)
    assert mem.tagcache_misses == 1
    assert mem.tagcache_hits == 63
    assert mem.dram_tag_accesses == 1


def test_model_b_dirty_tag_eviction_costs_one_more():
    # single-entry tag cache makes the victim deterministic
    mem = MemorySystem(model="b", tag_cache=(64, 1))
    lat = mem.costs.dram_access_latency
    assert mem._tag_access(mem.base, write=True) == lat  # miss, fills dirty
    assert mem._tag_access(mem.base + 4096, write=False) == 2 * lat  # dirty victim
    assert mem._tag_access(mem.base + 8192, write=False) == lat  # clean victim
    assert mem.dram_tag_accesses == 4


def test_cipher_latency_charged_per_tagged_word():
    costs = CycleCosts()
    mem = MemorySystem(model="a", costs=costs)
    addr = mem.base + 0x3000
    mem.ctag_set_range(addr, 64, KEY)  # whole line tagged
    flush_cycles = mem.flush_and_sync(KEY)
    expected = costs.dram_access_latency * 2 + costs.cipher_block * 8
    assert flush_cycles == expected


# ---- the planes ---------------------------------------------------------------


@pytest.mark.parametrize("plane", ["dram", "tag_bits", "byte_oracle"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_planes_compare_by_content(plane, where):
    a, b = make_mem(), make_mem()
    for name in ("dram", "tag_bits", "byte_oracle"):
        assert getattr(a, name) is not getattr(b, name)
        assert getattr(a, name) == getattr(b, name)
    pa, pb = getattr(a, plane), getattr(b, plane)
    i = {"first": 0, "middle": len(pa) // 2 + 3, "last": len(pa) - 1}[where]
    pa[i] = 0x40
    assert pa != pb and not pa == pb
    pb[i] = 0x40
    assert pa == pb
    assert pa == bytes(pb) and bytes(pa) == pb
    with pytest.raises(TypeError):
        hash(pa)
    assert Plane(1 << 20) != Plane(2 << 20)  # equal prefix, different size


def _oracle_set_per_byte(oracle, bi, length, on):
    """The per-byte rule _oracle_set must reproduce: oracle bit of byte
    bi+k for each k < length."""
    for k in range(length):
        idx = bi + k
        if on:
            oracle[idx >> 3] |= 1 << (idx & 7)
        else:
            oracle[idx >> 3] &= ~(1 << (idx & 7)) & 0xFF


ORACLE_SPAN = 256  # bytes of DRAM under test: 32 oracle bytes


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
@settings(max_examples=300, deadline=None)
def test_oracle_set_matches_per_byte_rule(initial, offset, length, on):
    length = min(length, ORACLE_SPAN - offset)
    mem = make_mem(size=ORACLE_SPAN)
    mem.byte_oracle[:] = initial
    expected = bytearray(initial)
    _oracle_set_per_byte(expected, offset, length, on)
    mem._oracle_set(mem.base + offset, length, on)
    assert bytes(mem.byte_oracle) == bytes(expected)


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
@settings(max_examples=50, deadline=None)
def test_oracle_update_matches_per_byte_rule(width, initial, slot, taints):
    mem = make_mem(size=ORACLE_SPAN)
    for offset in range(8 * slot, 8 * slot + 8, width):  # every aligned offset in the word
        mem.byte_oracle[:] = initial
        expected = bytearray(initial)
        _oracle_update_per_byte(expected, offset, width, taints)
        mem._oracle_update(mem.base + offset, width, taints)
        assert bytes(mem.byte_oracle) == bytes(expected)


@given(
    initial=st.binary(min_size=ORACLE_SPAN // 8, max_size=ORACLE_SPAN // 8),
    offset=st.integers(0, ORACLE_SPAN - 1),
    width=st.integers(1, 8),
)
@example(initial=b"\x0f\xf0" * 16, offset=4, width=8)  # the two halves of a straddled pair
@example(initial=b"\xa5" * 32, offset=ORACLE_SPAN - 1, width=1)  # the last byte
@settings(max_examples=300, deadline=None)
def test_oracle_bits_for_matches_per_byte_rule(initial, offset, width):
    width = min(width, ORACLE_SPAN - offset)
    mem = make_mem(size=ORACLE_SPAN)
    mem.byte_oracle[:] = initial
    assert mem.oracle_bits_for(mem.base + offset, width) == _oracle_bits_per_byte(initial, offset, width)


# ---- differential: cached vs uncached ---------------------------------------------

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
        st.tuples(st.just("load"), st.integers(0, 128 * 8 - 1), st.sampled_from([1, 2, 4, 8])),
        st.tuples(st.just("ctag_set"), st.integers(0, 128 * 8 - 1), st.integers(1, 64)),
        st.tuples(st.just("ctag_clr"), st.integers(0, 128 * 8 - 1), st.integers(1, 64)),
        st.tuples(st.just("flush")),
    ),
    min_size=1,
    max_size=60,
)


SPAN = 128 * 8  # the bytes OPS reaches


def _apply(mem, op):
    """Apply one OPS step to mem; a load returns (value, tag, oracle bits)."""
    kind = op[0]
    if kind == "store":
        _, offset, width, value, tag, taints = op
        taints &= (1 << width) - 1
        if not tag:
            taints = 0  # a register tag over-approximates its byte taints
        mem.store(mem.base + offset - offset % width, width, value & ((1 << (8 * width)) - 1), tag, KEY, taints)
    elif kind == "load":
        _, offset, width = op
        addr = mem.base + offset - offset % width
        value, tag, _ = mem.load(addr, width, False, KEY)
        return value, tag, mem.oracle_bits_for(addr, width)
    elif kind in ("ctag_set", "ctag_clr"):
        _, offset, length = op
        ctag = mem.ctag_set_range if kind == "ctag_set" else mem.ctag_clear_range
        ctag(mem.base + offset, min(length, SPAN - offset), KEY)
    else:
        mem.flush_and_sync(KEY)
    return None


@given(ops=OPS)
@settings(max_examples=120, deadline=None)
def test_cached_matches_uncached(ops):
    cached = MemorySystem(model="b", debug_soundness=True)
    flat = MemorySystem(model="b", no_cache=True, debug_soundness=True)
    for op in ops:
        assert _apply(cached, op) == _apply(flat, op)
    cached.flush_and_sync(KEY)
    assert cached.dram[:SPAN] == flat.dram[:SPAN]
    assert cached.tag_bits[: SPAN // 64] == flat.tag_bits[: SPAN // 64]
    assert cached.byte_oracle[: SPAN // 8] == flat.byte_oracle[: SPAN // 8]


# The 16 lines OPS reaches share 8 sets of 2 ways and evict; over 16 sets of
# one way, a set of indices iterates out of ascending order.
@pytest.mark.parametrize("dcache", [(1024, 2), (1024, 1)], ids=["8x2", "16x1"])
@given(ops=OPS)
@settings(max_examples=60, deadline=None)
def test_live_sets_track_resident_lines(dcache, ops):
    mem = MemorySystem(model="b", dcache=dcache)
    for op in ops:
        _apply(mem, op)
        cache = mem.dcache
        assert list(cache.all_lines()) == [ln for s in cache.sets for ln in s]
        assert cache.live == {i for i, s in enumerate(cache.sets) if s}
        _assert_mru(cache)
    mem.flush_and_sync(KEY)
    for cache in (mem.dcache, mem.icache):
        assert not cache.live and not any(cache.sets)
        assert cache.mru is None


# ---- the MRU line -------------------------------------------------------------------


def _assert_mru(cache):
    """CacheModel.mru is None, or a resident line first in its set."""
    if cache.mru is not None:
        s = cache.set_for(cache.mru.base)
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
@settings(max_examples=150, deadline=None)
def test_mru_matches_plain_lru(ways, ops):
    # 6 lines over 2 sets, so sets fill, evict and hit
    cache = CacheModel("c", 2 * ways * LINE, ways)
    ref = _LruReference(2, ways)
    for op, i in ops:
        base = DRAM_BASE + i * LINE
        if op == "find":
            line = cache.find(base)
            assert (line and line.base) == ref.find(base)
        elif op == "insert":
            victim = cache.insert(_Line(base, bytearray(LINE), 0))
            assert (victim and victim.base) == ref.insert(base)
        else:
            cache.invalidate()
            ref.invalidate()
        assert [[line.base for line in s] for s in cache.sets] == ref.sets
        _assert_mru(cache)
