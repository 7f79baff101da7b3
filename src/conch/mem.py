"""Tagged memory hierarchy: DRAM with a shadow tag bitmap, write-back
set-associative data/instruction caches, an optional tag cache, and the
encryption boundary at the cache-DRAM edge.

Inside registers and caches data is plaintext; a word whose tag bit is set
rests in DRAM as ciphertext under (current thread key, word address as
tweak). Untagged words rest verbatim. The three cycle models share one
functional simulation and differ only in what they charge and count:

  baseline  no tag traffic, no cipher cycles, counters stay zero
  model A   one DRAM tag access per line fill and per dirty writeback
  model B   the same events go through a small tag cache (hit 1 cycle,
            miss one DRAM tag access; dirty tag-line eviction pays one
            more); one tag-cache line covers 4 KiB of data space

Encryption itself always happens (the DRAM image is identical across
models); baseline simply does not charge or count it. Cipher latency is
charged per tagged word in both directions, fill and writeback. The
blocks go through MemorySystem.memo, a crypt.BlockMemo that the models of
one run_models call share: a block one model enciphered, or a ciphertext
the engine wrote earlier, is looked up rather than recomputed. The memo
changes host time only, never a charge, a counter or a DRAM byte.

The byte_oracle bitmap is the byte-granularity golden taint reference
(one bit per DRAM byte) used to measure over-tagging; it is maintained on
the store paths and by the tag-management instructions and has no effect
on simulated behavior.

Every load and store is naturally aligned (a misaligned one raises
MisalignedAccess, which the interpreter turns into a trap), so a data
access always lies inside one 8-byte word and one cache line: it reads or
writes one tag bit and one oracle byte.

DRAM, the tag bitmap and the byte oracle are Planes: anonymous private
mappings that read as zero and that the OS commits one page at a time on
first write, so a run pays only for the memory its program touches.

Bookkeeping scales with that footprint too, not with DRAM size or cache
geometry. MemorySystem.regions holds the indices (offset >> REGION_SHIFT)
of the 512 KiB DRAM regions the run has reached; one region is 8 KiB of
the tag plane and 64 KiB of the oracle plane. A region is recorded in
_fill, which every cached access goes through to reach a line, and in
_word_at_rest, which every uncached access goes through. So every nonzero
byte of tag_bits and byte_oracle lies in a recorded region, and the
over-tagging statistics scan only those. Likewise CacheModel.live holds
the indices of its non-empty sets (a set fills only through
CacheModel.insert), so a flush walks only resident lines.

Each CacheModel also keeps mru, its most recently used line (see
CacheModel), which fetch checks first.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass

from .crypt import BlockMemo, qarma_decrypt, qarma_encrypt
from .isa import MASK64

DRAM_BASE = 0x8000_0000
DRAM_SIZE = 64 * 1024 * 1024
LINE = 64
WORDS_PER_LINE = LINE // 8
REGION_SHIFT = 19  # a 512 KiB DRAM region: 8 KiB of tag plane, 64 KiB of oracle plane

MODELS = ("baseline", "a", "b")

_WORD32 = struct.Struct("<I")


class MemAccessError(Exception):
    pass


class OutOfBoundsAccess(MemAccessError):
    pass


class MisalignedAccess(MemAccessError):
    pass


class SoundnessViolation(AssertionError):
    """Raised in debug mode when a word's hardware tag under-approximates
    the byte oracle; must never happen."""


@dataclass
class CycleCosts:
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


class Plane(mmap.mmap):
    """A zero-filled byte array of fixed size, committed lazily by the OS.
    Unlike a bare mmap, == compares contents, not identity."""

    def __new__(cls, size):
        # private: a page that is only read maps the zero page; the
        # default MAP_SHARED would commit a page on its first read too
        return super().__new__(cls, -1, size, flags=mmap.MAP_PRIVATE)

    def __eq__(self, other):
        if not isinstance(other, (bytes, bytearray, mmap.mmap)):
            return NotImplemented
        step = 1 << 20
        return len(self) == len(other) and all(
            self[i : i + step] == other[i : i + step] for i in range(0, len(self), step)
        )


def _extend(value, width, signed):
    """The 64-bit register value of a width-byte load of value."""
    if signed and value & (1 << (8 * width - 1)):
        value -= 1 << (8 * width)
    return value & MASK64


def _stored_tag(old, width, src_tag):
    """A full-word store replaces the word tag; a narrower one ORs into it."""
    return src_tag if width == 8 else old | src_tag


class _Line:
    __slots__ = ("base", "data", "tags", "dirty")

    def __init__(self, base, data, tags):
        self.base = base
        self.data = data
        self.tags = tags  # 8-bit mask, bit j = sensitivity of word j
        self.dirty = False


class CacheModel:
    """Set-associative, write-back, LRU. Each set is a list with the most
    recently used line first; live holds the indices of the non-empty
    sets. mru is the line last found or inserted, or None: it is resident
    and first in its set, so find can answer it without walking or
    reordering the set."""

    def __init__(self, name, size, ways, line_size=LINE):
        assert size % (ways * line_size) == 0
        self.name = name
        self.ways = ways
        self.line_size = line_size
        self.n_sets = size // (ways * line_size)
        self.sets = [[] for _ in range(self.n_sets)]
        self.live = set()
        self.mru = None
        self.hits = 0
        self.misses = 0

    def set_for(self, line_base):
        return self.sets[(line_base // self.line_size) % self.n_sets]

    def find(self, line_base):
        mru = self.mru
        if mru is not None and mru.base == line_base:
            return mru
        s = self.set_for(line_base)
        for ln in s:
            if ln.base == line_base:
                if s[0] is not ln:
                    s.remove(ln)
                    s.insert(0, ln)
                self.mru = ln
                return ln
        return None

    def insert(self, line):
        """Make line the most recently used of its set; returns the least
        recently used line it evicts from a full set, else None."""
        i = (line.base // self.line_size) % self.n_sets
        self.live.add(i)
        s = self.sets[i]
        victim = s.pop() if len(s) == self.ways else None
        s.insert(0, line)
        self.mru = line
        return victim

    def all_lines(self):
        # ascending set order: writeback order drives model B's tag cache
        for i in sorted(self.live):
            yield from self.sets[i]

    def invalidate(self):
        for i in self.live:
            self.sets[i].clear()
        self.live.clear()
        self.mru = None


class _TagLine:
    __slots__ = ("num", "dirty")

    def __init__(self, num):
        self.num = num
        self.dirty = False


class MemorySystem:
    def __init__(
        self,
        model="baseline",
        base=DRAM_BASE,
        size=DRAM_SIZE,
        costs=None,
        dcache=(32 * 1024, 8),
        icache=(32 * 1024, 8),
        tag_cache=(4 * 1024, 8),
        no_cache=False,
        debug_soundness=False,
        debug_shadow=False,
        memo=None,
    ):
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        assert base % LINE == 0 and size % LINE == 0
        self.model = model
        self.base = base
        self.size = size
        self.costs = costs or CycleCosts()
        self.no_cache = no_cache
        self.debug_soundness = debug_soundness
        # test aid: word address -> (logical value, key) recorded when a
        # tagged word is written to DRAM, so the at-rest invariant can be
        # checked by full scan
        self.debug_shadow = {} if debug_shadow else None
        # the blocks enciphered so far; MemorySystems replaying one run
        # may share it
        self.memo = BlockMemo() if memo is None else memo

        self.dram = Plane(size)
        self.tag_bits = Plane(size // 64)  # 1 bit per word = 1/64 of data
        self.byte_oracle = Plane(size // 8)  # 1 bit per byte
        self.regions = set()  # DRAM regions reached: off >> REGION_SHIFT

        self.dcache = CacheModel("dcache", dcache[0], dcache[1])
        self.icache = CacheModel("icache", icache[0], icache[1])
        # 4KB / 8 ways / 64B lines -> 8 sets; one line covers 4 KiB of data
        self.tagcache_sets = [[] for _ in range(tag_cache[0] // (tag_cache[1] * LINE))]
        self.tagcache_ways = tag_cache[1]
        self.tagcache_hits = 0
        self.tagcache_misses = 0

        self.dram_data_accesses = 0
        self.dram_tag_accesses = 0
        self.cipher_blocks = 0
        self.overtag_cipher_blocks = 0
        self.clean = True

    # ---- raw DRAM helpers -------------------------------------------------

    def _check_range(self, addr, length):
        if addr < self.base or addr + length > self.base + self.size:
            raise OutOfBoundsAccess(f"[{addr:#x}, {addr + length:#x}) outside DRAM")

    def write_raw_init(self, addr, data):
        """Image loading: place bytes directly, tags cleared."""
        self._check_range(addr, len(data))
        off = addr - self.base
        self.dram[off : off + len(data)] = data

    def word_tag(self, addr):
        wi = (addr - self.base) >> 3
        return (self.tag_bits[wi >> 3] >> (wi & 7)) & 1

    def oracle_word(self, addr):
        """The 8 oracle taint bits of the word containing addr."""
        wi = (addr - self.base) >> 3
        return self.byte_oracle[wi]

    def _oracle_update(self, addr, width, taints):
        # taints: int with bit k = taint of the k-th written byte; an
        # aligned access lies inside one oracle byte
        bi = addr - self.base
        mask = ((1 << width) - 1) << (bi & 7)
        old = self.byte_oracle[bi >> 3]
        self.byte_oracle[bi >> 3] = old & ~mask | (taints << (bi & 7)) & mask

    def _oracle_set(self, base, length, on):
        """Set (on) or clear the oracle bits of bytes [base, base+length):
        one slice write for the oracle bytes wholly inside, a mask for the
        partial byte at either end."""
        lo = base - self.base
        hi = lo + length
        first, last = -(-lo // 8), hi // 8  # oracle bytes [first, last) lie wholly inside
        if first < last:
            self.byte_oracle[first:last] = (b"\xff" if on else b"\x00") * (last - first)
        for a, b in ((lo, min(hi, 8 * first)), (max(8 * first, 8 * last), hi)):
            if a < b:
                mask = ((1 << (b - a)) - 1) << (a & 7)
                old = self.byte_oracle[a >> 3]
                self.byte_oracle[a >> 3] = old | mask if on else old & ~mask

    def oracle_bits_for(self, addr, width):
        """Oracle taint bits of bytes [addr, addr+width), bit k for byte
        addr+k; the span need not be aligned."""
        bi = addr - self.base
        bits = int.from_bytes(self.byte_oracle[bi >> 3 : (bi + width + 7) >> 3], "little")
        return (bits >> (bi & 7)) & ((1 << width) - 1)

    # ---- tag traffic accounting -------------------------------------------

    def _tag_access(self, line_base, write):
        """Charge the per-model cost of touching the shadow tags for one
        data line; returns cycles."""
        if self.model == "baseline":
            return 0
        lat = self.costs.dram_access_latency
        if self.model == "a":
            self.dram_tag_accesses += 1
            return lat
        # model B: through the tag cache
        num = line_base >> 12  # one tag line spans 4 KiB of data
        s = self.tagcache_sets[num % len(self.tagcache_sets)]
        for tl in s:
            if tl.num == num:
                if s[0] is not tl:
                    s.remove(tl)
                    s.insert(0, tl)
                tl.dirty = tl.dirty or write
                self.tagcache_hits += 1
                return self.costs.tag_cache_hit
        self.tagcache_misses += 1
        cycles = 0
        if len(s) == self.tagcache_ways:
            victim = s.pop()
            if victim.dirty:
                self.dram_tag_accesses += 1
                cycles += lat
        self.dram_tag_accesses += 1
        cycles += lat
        tl = _TagLine(num)
        tl.dirty = write
        s.insert(0, tl)
        return cycles

    # ---- line movement ----------------------------------------------------

    def _charge_cipher(self, word_addr):
        """Cipher latency for one tagged word crossing the DRAM boundary.
        Charged in models A and B; spurious work on fully over-tagged
        words is attributed separately."""
        if self.model == "baseline":
            return 0
        self.cipher_blocks += 1
        if self.oracle_word(word_addr) == 0:
            self.overtag_cipher_blocks += 1
        return self.costs.cipher_block

    def _writeback_line(self, line, key):
        off = line.base - self.base
        cycles = self.costs.dram_access_latency
        self.dram_data_accesses += 1
        cycles += self._tag_access(line.base, write=True)
        data = line.data
        if line.tags:
            out = bytearray(data)
            for j in range(WORDS_PER_LINE):
                if (line.tags >> j) & 1:
                    addr = line.base + 8 * j
                    word = int.from_bytes(data[8 * j : 8 * j + 8], "little")
                    enc = qarma_encrypt(key, addr, word, memo=self.memo)
                    out[8 * j : 8 * j + 8] = enc.to_bytes(8, "little")
                    cycles += self._charge_cipher(addr)
                    if self.debug_shadow is not None:
                        self.debug_shadow[addr] = (word, key)
                elif self.debug_shadow is not None:
                    self.debug_shadow.pop(line.base + 8 * j, None)
            self.dram[off : off + LINE] = out
        else:
            self.dram[off : off + LINE] = data
            if self.debug_shadow is not None:
                for j in range(WORDS_PER_LINE):
                    self.debug_shadow.pop(line.base + 8 * j, None)
        self.tag_bits[off >> 6] = line.tags
        line.dirty = False
        return cycles

    def _fill(self, cache, line_base, key):
        off = line_base - self.base
        self.regions.add(off >> REGION_SHIFT)
        cycles = self.costs.dram_access_latency
        self.dram_data_accesses += 1
        cycles += self._tag_access(line_base, write=False)
        tags = self.tag_bits[off >> 6]
        data = bytearray(self.dram[off : off + LINE])
        if tags:
            for j in range(WORDS_PER_LINE):
                if (tags >> j) & 1:
                    addr = line_base + 8 * j
                    raw = int.from_bytes(data[8 * j : 8 * j + 8], "little")
                    plain = qarma_decrypt(key, addr, raw, memo=self.memo)
                    data[8 * j : 8 * j + 8] = plain.to_bytes(8, "little")
                    cycles += self._charge_cipher(addr)
        line = _Line(line_base, data, tags)
        victim = cache.insert(line)
        if victim is not None and victim.dirty:
            cycles += self._writeback_line(victim, key)
        return line, cycles

    def _access(self, cache, line_base, key):
        line = cache.find(line_base)
        if line is not None:
            cache.hits += 1
            return line, 0
        cache.misses += 1
        return self._fill(cache, line_base, key)

    # ---- architectural accesses --------------------------------------------

    def _align_check(self, addr, width):
        if addr % width:
            raise MisalignedAccess(f"{width}-byte access at {addr:#x}")

    def load(self, addr, width, signed, key):
        """Returns (value, tag, cycles). The tag is the containing word's
        tag regardless of which bytes were read."""
        self._check_range(addr, width)
        self._align_check(addr, width)
        if self.no_cache:
            return self._load_direct(addr, width, signed, key)
        line_base = addr & ~(LINE - 1)
        line, cycles = self._access(self.dcache, line_base, key)
        off = addr - line_base
        value = int.from_bytes(line.data[off : off + width], "little")
        tag = (line.tags >> (off >> 3)) & 1
        return _extend(value, width, signed), tag, self.costs.load_hit + cycles

    def store(self, addr, width, value, src_tag, key, taints=None):
        """Write-allocate write-back store. Full-word stores replace the
        word tag; narrower stores retain it (old OR src). Returns cycles.

        taints carries per-byte oracle bits for the written bytes; by
        default the word-level src_tag is broadcast."""
        self._check_range(addr, width)
        self._align_check(addr, width)
        if taints is None:
            taints = ((1 << width) - 1) if src_tag else 0
        if self.no_cache:
            return self._store_direct(addr, width, value, src_tag, taints, key)
        line_base = addr & ~(LINE - 1)
        line, cycles = self._access(self.dcache, line_base, key)
        off = addr - line_base
        line.data[off : off + width] = (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
        j = off >> 3
        tag = _stored_tag((line.tags >> j) & 1, width, src_tag)
        line.tags = line.tags & ~(1 << j) | tag << j
        line.dirty = True
        self._oracle_update(addr, width, taints)
        self.clean = False
        if self.debug_soundness and self.oracle_word(addr) and not tag:
            raise SoundnessViolation(f"store left word {addr & ~7:#x} under-tagged")
        return self.costs.store_hit + cycles

    def fetch(self, addr, key):
        """Instruction fetch of the 4-aligned addr: free on icache hit, a
        miss pays the fill. A hit on icache.mru needs no range check,
        since a resident line lies inside DRAM."""
        line_base = addr & ~(LINE - 1)
        icache = self.icache
        line = icache.mru
        if line is not None and line.base == line_base:
            icache.hits += 1
            cycles = 0
        else:
            self._check_range(addr, 4)
            if self.no_cache:
                v, _, _ = self._load_direct(addr, 4, False, key)
                return v & 0xFFFFFFFF, 0
            line, cycles = self._access(icache, line_base, key)
        return _WORD32.unpack_from(line.data, addr - line_base)[0], cycles

    # ---- tag management ---------------------------------------------------

    def ctag_set_range(self, base, length, key):
        """Tag every word overlapping [base, base+length); the byte oracle
        records exactly the covered bytes. Returns cycles."""
        return self._ctag_range(base, length, key, True)

    def ctag_clear_range(self, base, length, key):
        """Clear tags of words fully inside [base, base+length); words
        only partially covered stay tagged. Covered oracle bytes clear.
        Lines pass through the cache, so cleared words will rest in DRAM
        as plaintext after the next writeback."""
        return self._ctag_range(base, length, key, False)

    def _ctag_range(self, base, length, key, on):
        """Set (on) the tags of the words [base, base+length) overlaps, or
        clear those of the words wholly inside it; set or clear the oracle
        bits of the covered bytes. Returns cycles."""
        if length == 0:
            return 0
        self._check_range(base, length)
        end = base + length
        # the words affected: [lo, hi)
        lo, hi = (base & ~7, (end + 7) & ~7) if on else ((base + 7) & ~7, end & ~7)
        if self.no_cache:
            for w in range(lo, hi, 8):
                # read before flipping the tag: it decides the decrypt
                self._set_word_at_rest(w, self._word_at_rest(w, key), on, key)
            cycles = self.costs.dram_access_latency
        else:
            cycles = 0
            for lb in range(base & ~(LINE - 1), end, LINE):
                line, c = self._access(self.dcache, lb, key)
                cycles += c
                # bit j: word lb + 8j lies in [lo, hi)
                mask = (0xFF << (max(lo - lb, 0) >> 3)) & (0xFF >> (max(lb + LINE - hi, 0) >> 3))
                line.tags = line.tags | mask if on else line.tags & ~mask
                line.dirty = True
            self.clean = False
        self._oracle_set(base, length, on)
        return cycles

    def ctag_read(self, addr):
        """Tag bit of the word containing addr, plus the cycles the lookup
        cost. A resident line answers from its own metadata for free; a
        miss consults the tag store without filling data."""
        self._check_range(addr, 1)
        if self.no_cache:
            return self.word_tag(addr), 0
        line_base = addr & ~(LINE - 1)
        line = self.dcache.find(line_base)
        if line is not None:
            return (line.tags >> ((addr - line_base) >> 3)) & 1, 0
        return self.word_tag(addr), self._tag_access(line_base, write=False)

    # ---- maintenance -------------------------------------------------------

    def flush_and_sync(self, key):
        """Write back every dirty line under `key` and invalidate the
        caches; afterwards all of DRAM is at rest (tagged words encrypted,
        the rest plaintext)."""
        cycles = 0
        for cache in (self.dcache, self.icache):
            for line in cache.all_lines():
                if line.dirty:
                    cycles += self._writeback_line(line, key)
            cache.invalidate()
        for s in self.tagcache_sets:
            for tl in s:
                if tl.dirty:
                    self.dram_tag_accesses += 1
                    cycles += self.costs.dram_access_latency
            s.clear()
        self.clean = True
        return cycles

    def raw_dump(self, start, length):
        """The attacker's view: exact DRAM bytes plus per-word tag bits.
        Never decrypts. Requires a prior flush_and_sync."""
        if not self.clean:
            raise RuntimeError("raw_dump requires flush_and_sync first")
        self._check_range(start, length)
        off = start - self.base
        data = bytes(self.dram[off : off + length])
        tags = []
        for w in range(start & ~7, start + length, 8):
            tags.append(self.word_tag(w))
        return data, tags

    def format_dump(self, start, length):
        data, tags = self.raw_dump(start, length)
        out = []
        w0 = start & ~7
        for i, w in enumerate(range(w0, start + length, 8)):
            if i % 8 == 0:
                out.append(f"# line {w & ~(LINE - 1):#x}")
            chunk = data[max(0, w - start) : w - start + 8]
            word = int.from_bytes(chunk.ljust(8, b"\x00"), "little")
            out.append(f"{w:08x}: {word:016x} {tags[i]}")
        return "\n".join(out) + "\n"

    # ---- degenerate uncached mode (differential testing) --------------------

    def _word_at_rest(self, word_addr, key):
        off = word_addr - self.base
        self.regions.add(off >> REGION_SHIFT)
        raw = int.from_bytes(self.dram[off : off + 8], "little")
        if self.word_tag(word_addr):
            return qarma_decrypt(key, word_addr, raw, memo=self.memo)
        return raw

    def _set_word_at_rest(self, word_addr, value, tag, key):
        off = word_addr - self.base
        wi = off >> 3
        if tag:
            raw = qarma_encrypt(key, word_addr, value, memo=self.memo)
            self.tag_bits[wi >> 3] |= 1 << (wi & 7)
            if self.debug_shadow is not None:
                self.debug_shadow[word_addr] = (value, key)
        else:
            raw = value
            self.tag_bits[wi >> 3] &= ~(1 << (wi & 7)) & 0xFF
            if self.debug_shadow is not None:
                self.debug_shadow.pop(word_addr, None)
        self.dram[off : off + 8] = raw.to_bytes(8, "little")

    def _load_direct(self, addr, width, signed, key):
        w = addr & ~7
        value = (self._word_at_rest(w, key) >> (8 * (addr - w))) & ((1 << (8 * width)) - 1)
        cycles = self.costs.load_hit + self.costs.dram_access_latency
        return _extend(value, width, signed), self.word_tag(w), cycles

    def _store_direct(self, addr, width, value, src_tag, taints, key):
        w = addr & ~7
        shift = 8 * (addr - w)
        mask = ((1 << (8 * width)) - 1) << shift
        word = self._word_at_rest(w, key) & ~mask | (value << shift) & mask
        self._set_word_at_rest(w, word, _stored_tag(self.word_tag(w), width, src_tag), key)
        self._oracle_update(addr, width, taints)
        return self.costs.store_hit + self.costs.dram_access_latency
