"""Tagged memory hierarchy: DRAM with a tag bitmap, write-back
set-associative data/instruction caches, a tag cache, and the
encryption boundary at the cache-DRAM edge.

Inside registers and caches data is plaintext; a word whose tag bit is set
rests in DRAM as ciphertext under (current thread key, word address as
tweak). Untagged words rest verbatim. A cache line holds its eight words
beside its 8-bit tag mask, bit j for word j.

Memory knows no cycle model: it counts every event once, and
report.counts picks the events each model pays for. It counts each load
and store (kernel copies included) and each DRAM data access, which is a
line fill or writeback. It counts each touch of the tag store for one
data line (a fill, a dirty writeback, a ctag.rdt miss) and its lookup in
the tag cache, a CacheModel whose one line covers 4 KiB of data: a hit,
or a miss whose dirty victim is one tag writeback; a flush writes back
every dirty tag line. Each tagged word crossing the boundary, either
way, is one cipher block, and one over-tag block too when none of its
bytes is oracle-tainted.

Encryption itself always happens, whoever pays for it. Fills and
writebacks share one transcoder, _transcode, which passes each tagged
word of a line through the cipher under (key, its address). The blocks
go through MemorySystem.memo, a crypt.BlockMemo that the simulations of
one run_models call share: a block one simulation enciphered, or a
ciphertext the engine wrote earlier, is looked up rather than
recomputed. The memo changes host time only, never a count or a DRAM
byte.

The byte_oracle bitmap is the byte-granularity golden taint reference
(one bit per DRAM byte) used to measure over-tagging; it is maintained on
the store paths and by the tag-management instructions and has no effect
on simulated behavior. Every store checks it: a store that leaves an
oracle-tainted word untagged raises SoundnessViolation.

DRAM spans [DRAM_BASE, DRAM_END), and in_dram is its one bound: memory
accesses, syscall buffers, image segments and dump ranges all ask it.

Every load and store is naturally aligned (a misaligned one raises
MisalignedAccess, which the interpreter turns into a trap), so a data
access always lies inside one 8-byte word and one cache line: it reads or
writes one tag bit and one oracle byte.

DRAM, the tag bitmap and the byte oracle are planes: bare anonymous
private mappings (which compare by identity) that read as zero and that
the OS commits one page at a time on first write, so a run pays only for
the memory its program touches.

Bookkeeping scales with that footprint too, not with DRAM size or cache
geometry. MemorySystem.regions holds the indices (offset >> REGION_SHIFT)
of the 32 KiB DRAM regions the run has reached; one region is 512 B of
the tag plane and 4 KiB of the oracle plane. A region is recorded in
_fill, which every access goes through to reach a line. So every plane
write after image loading lands in a recorded region: two memories that
loaded one image differ only there, and the over-tagging statistics scan
only those regions, each over its tagged span.
Likewise CacheModel.sets holds only the non-empty sets (a set fills only
through CacheModel.insert), so a flush walks only resident lines.

All three caches (dcache, icache and the tagcache) are CacheModels, and
each keeps mru, its most recently used line, which find answers without
walking the set; fetch checks icache.mru first. Only store and the ctag
walks dirty a line, and only a dcache line. tag_store_touches and clean
are read from the caches, not kept beside them.
"""

from __future__ import annotations

import mmap
import struct

from .crypt import BlockMemo, qarma_decrypt, qarma_encrypt
from .isa import MASK64, sext

DRAM_BASE = 0x8000_0000
DRAM_SIZE = 64 * 1024 * 1024
DRAM_END = DRAM_BASE + DRAM_SIZE
LINE = 64
WORDS_PER_LINE = LINE // 8
REGION_SHIFT = 15  # a 32 KiB DRAM region: 512 B of tag plane, 4 KiB of oracle plane

MODELS = ("baseline", "a", "b")  # the cycle models report.counts tells apart

_LINE_WORDS = struct.Struct("<8Q")  # a line's bytes in DRAM, as its eight words


def in_dram(addr, n):
    """Whether the n bytes from addr lie in DRAM."""
    return DRAM_BASE <= addr and addr + n <= DRAM_END


class MemAccessError(Exception):
    pass


class OutOfBoundsAccess(MemAccessError):
    pass


class MisalignedAccess(MemAccessError):
    pass


class SoundnessViolation(AssertionError):
    """Raised when a store leaves a word's hardware tag under its byte
    oracle: an oracle-tainted word untagged. Must never happen."""


def _plane(size):
    """A zero-filled byte array of fixed size, committed lazily by the OS."""
    # private: a page that is only read maps the zero page; the default
    # MAP_SHARED would commit a page on its first read too
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)


class _Line:
    __slots__ = ("base", "words", "tags", "dirty")

    def __init__(self, base, words, tags):
        self.base = base
        self.words = words  # list of 8 ints, word j at base + 8j
        self.tags = tags  # 8-bit mask, bit j = sensitivity of word j
        self.dirty = False


class CacheModel:
    """Set-associative, write-back, LRU. sets maps the index of each
    non-empty set to its lines, the most recently used first. mru is the
    line last found or inserted, or None: it is resident and first in its
    set, so find can answer it without walking or reordering the set."""

    def __init__(self, size, ways):
        assert size % (ways * LINE) == 0
        self.ways = ways
        self.n_sets = size // (ways * LINE)
        self.sets = {}
        self.mru = None
        self.hits = 0
        self.misses = 0

    def find(self, line_base):
        mru = self.mru
        if mru is not None and mru.base == line_base:
            return mru
        s = self.sets.get((line_base // LINE) % self.n_sets, ())
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
        s = self.sets.setdefault((line.base // LINE) % self.n_sets, [])
        victim = s.pop() if len(s) == self.ways else None
        s.insert(0, line)
        self.mru = line
        return victim

    def all_lines(self):
        # ascending set order: writeback order drives the tag cache
        for i in sorted(self.sets):
            yield from self.sets[i]

    def invalidate(self):
        self.sets.clear()
        self.mru = None


class MemorySystem:
    def __init__(self, dcache=(32 * 1024, 8), tag_cache=(4 * 1024, 8), memo=None):
        # the blocks enciphered so far; MemorySystems replaying one run
        # may share it
        self.memo = BlockMemo() if memo is None else memo

        self.dram = _plane(DRAM_SIZE)
        self.tag_bits = _plane(DRAM_SIZE // 64)  # 1 bit per word = 1/64 of data
        self.byte_oracle = _plane(DRAM_SIZE // 8)  # 1 bit per byte
        self.regions = set()  # DRAM regions reached: off >> REGION_SHIFT

        self.dcache = CacheModel(*dcache)
        self.icache = CacheModel(32 * 1024, 8)
        # 4 KiB / 8 ways / 64 B lines -> 8 sets
        self.tagcache = CacheModel(*tag_cache)

        self.loads = 0
        self.stores = 0
        self.dram_data_accesses = 0
        self.tag_writebacks = 0
        self.cipher_blocks = 0
        self.overtag_cipher_blocks = 0

    @property
    def tagcache_hits(self):
        return self.tagcache.hits

    @property
    def tagcache_misses(self):
        return self.tagcache.misses

    @property
    def tag_store_touches(self):
        """Touches of the tag store: each is one tag-cache lookup."""
        return self.tagcache.hits + self.tagcache.misses

    @property
    def clean(self):
        """DRAM holds the at-rest image: no dcache line is dirty."""
        return not any(ln.dirty for s in self.dcache.sets.values() for ln in s)

    # ---- raw DRAM helpers -------------------------------------------------

    def _check_range(self, addr, length):
        if not in_dram(addr, length):
            raise OutOfBoundsAccess(f"[{addr:#x}, {addr + length:#x}) outside DRAM")

    def write_raw_init(self, addr, data):
        """Image loading: place bytes directly, tags cleared."""
        self._check_range(addr, len(data))
        off = addr - DRAM_BASE
        self.dram[off : off + len(data)] = data

    def word_tag(self, addr):
        wi = (addr - DRAM_BASE) >> 3
        return (self.tag_bits[wi >> 3] >> (wi & 7)) & 1

    def oracle_word(self, addr):
        """The 8 oracle taint bits of the word containing addr."""
        wi = (addr - DRAM_BASE) >> 3
        return self.byte_oracle[wi]

    def _oracle_update(self, addr, width, taints):
        # taints: int with bit k = taint of the k-th written byte; an
        # aligned access lies inside one oracle byte
        bi = addr - DRAM_BASE
        mask = ((1 << width) - 1) << (bi & 7)
        old = self.byte_oracle[bi >> 3]
        self.byte_oracle[bi >> 3] = old & ~mask | (taints << (bi & 7)) & mask

    def _oracle_set(self, base, length, on):
        """Set (on) or clear the oracle bits of bytes [base, base+length):
        the oracle bytes the range touches, read as one int as
        oracle_bits_for reads them, with a mask of length bits, shifted to
        the range's first byte, ORed in or ANDed out, and written back."""
        bi = base - DRAM_BASE
        lo, hi = bi >> 3, (bi + length + 7) >> 3
        bits = int.from_bytes(self.byte_oracle[lo:hi], "little")
        mask = ((1 << length) - 1) << (bi & 7)
        bits = bits | mask if on else bits & ~mask
        self.byte_oracle[lo:hi] = bits.to_bytes(hi - lo, "little")

    def oracle_bits_for(self, addr, width):
        """Oracle taint bits of bytes [addr, addr+width), bit k for byte
        addr+k; the span need not be aligned."""
        bi = addr - DRAM_BASE
        bits = int.from_bytes(self.byte_oracle[bi >> 3 : (bi + width + 7) >> 3], "little")
        return (bits >> (bi & 7)) & ((1 << width) - 1)

    # ---- tag traffic accounting -------------------------------------------

    def _tag_access(self, line_base, write):
        """Count one touch of the tag store for one data line: its tag-cache lookup."""
        tagcache = self.tagcache
        tag_base = (line_base >> 12) * LINE  # one tag line spans 4 KiB of data
        tl = tagcache.find(tag_base)
        if tl is not None:
            tagcache.hits += 1
            tl.dirty = tl.dirty or write
            return
        tagcache.misses += 1
        tl = _Line(tag_base, None, 0)  # a tag line carries only base and dirty
        tl.dirty = write
        victim = tagcache.insert(tl)
        if victim is not None and victim.dirty:
            self.tag_writebacks += 1

    # ---- line movement ----------------------------------------------------

    def _count_cipher(self, word_addr):
        """Count one tagged word crossing the DRAM boundary; spurious work
        on fully over-tagged words is counted separately too."""
        self.cipher_blocks += 1
        if self.oracle_word(word_addr) == 0:
            self.overtag_cipher_blocks += 1

    def _transcode(self, line_base, words, tags, key, cipher):
        """The DRAM edge, either way: a new list of the line's words, each
        word whose tag bit is set passed through cipher under (key, its
        address) and counted as one block."""
        words = list(words)
        if tags:
            for j in range(WORDS_PER_LINE):
                if (tags >> j) & 1:
                    addr = line_base + 8 * j
                    words[j] = cipher(key, addr, words[j], memo=self.memo)
                    self._count_cipher(addr)
        return words

    def _writeback_line(self, line, key):
        off = line.base - DRAM_BASE
        self.dram_data_accesses += 1
        self._tag_access(line.base, write=True)
        words = self._transcode(line.base, line.words, line.tags, key, qarma_encrypt)
        _LINE_WORDS.pack_into(self.dram, off, *words)
        self.tag_bits[off >> 6] = line.tags
        line.dirty = False

    def _fill(self, cache, line_base, key):
        off = line_base - DRAM_BASE
        self.regions.add(off >> REGION_SHIFT)
        self.dram_data_accesses += 1
        self._tag_access(line_base, write=False)
        tags = self.tag_bits[off >> 6]
        words = self._transcode(line_base, _LINE_WORDS.unpack_from(self.dram, off), tags, key, qarma_decrypt)
        line = _Line(line_base, words, tags)
        victim = cache.insert(line)
        if victim is not None and victim.dirty:
            self._writeback_line(victim, key)
        return line

    def _access(self, cache, line_base, key):
        line = cache.find(line_base)
        if line is not None:
            cache.hits += 1
            return line
        cache.misses += 1
        return self._fill(cache, line_base, key)

    # ---- architectural accesses --------------------------------------------

    def _align_check(self, addr, width):
        if addr % width:
            raise MisalignedAccess(f"{width}-byte access at {addr:#x}")

    def load(self, addr, width, signed, key):
        """Returns (value, tag). The tag is the containing word's tag
        regardless of which bytes were read."""
        self._check_range(addr, width)
        self._align_check(addr, width)
        self.loads += 1
        line_base = addr & ~(LINE - 1)
        line = self._access(self.dcache, line_base, key)
        j = (addr - line_base) >> 3
        value = (line.words[j] >> (8 * (addr & 7))) & ((1 << (8 * width)) - 1)
        return sext(value, 8 * width) & MASK64 if signed else value, (line.tags >> j) & 1

    def store(self, addr, width, value, src_tag, key, taints=None):
        """Write-allocate write-back store. Full-word stores replace the
        word tag; narrower stores retain it (old OR src).

        taints carries per-byte oracle bits for the written bytes; by
        default the word-level src_tag is broadcast. A store that leaves
        the word untagged while its oracle byte is nonzero raises
        SoundnessViolation."""
        self._check_range(addr, width)
        self._align_check(addr, width)
        if taints is None:
            taints = ((1 << width) - 1) if src_tag else 0
        self.stores += 1
        line_base = addr & ~(LINE - 1)
        line = self._access(self.dcache, line_base, key)
        j = (addr - line_base) >> 3
        shift = 8 * (addr & 7)
        mask = ((1 << (8 * width)) - 1) << shift
        line.words[j] = line.words[j] & ~mask | (value << shift) & mask
        tag = src_tag if width == 8 else (line.tags >> j) & 1 | src_tag
        line.tags = line.tags & ~(1 << j) | tag << j
        line.dirty = True
        self._oracle_update(addr, width, taints)
        if not tag and self.byte_oracle[(addr - DRAM_BASE) >> 3]:
            raise SoundnessViolation(f"store left word {addr & ~7:#x} under-tagged")

    def fetch(self, addr, key):
        """Instruction fetch of the 4-aligned addr: an icache hit counts
        nothing else, a miss fills the line. A hit on icache.mru needs no
        range check, since a resident line lies inside DRAM."""
        line_base = addr & ~(LINE - 1)
        icache = self.icache
        line = icache.mru
        if line is not None and line.base == line_base:
            icache.hits += 1
        else:
            self._check_range(addr, 4)
            line = self._access(icache, line_base, key)
        return (line.words[(addr - line_base) >> 3] >> (8 * (addr & 4))) & 0xFFFFFFFF

    def icache_word(self, addr):
        """The instruction word at the 4-aligned addr as the icache holds
        it, which is what fetch last returned there, or None if no resident
        line holds addr. Counts nothing."""
        line = self.icache.find(addr & ~(LINE - 1))
        if line is None:
            return None
        return (line.words[(addr - line.base) >> 3] >> (8 * (addr & 4))) & 0xFFFFFFFF

    # ---- tag management ---------------------------------------------------

    def ctag_set_range(self, base, length, key, charge=None):
        """Tag every word overlapping [base, base+length); the byte oracle
        records exactly the covered bytes. For charge, see _ctag_range."""
        return self._ctag_range(base, length, key, True, charge)

    def ctag_clear_range(self, base, length, key, charge=None):
        """Clear tags of words fully inside [base, base+length); words
        only partially covered stay tagged. Covered oracle bytes clear.
        Lines pass through the cache, so cleared words will rest in DRAM
        as plaintext after the next writeback. For charge, see
        _ctag_range."""
        return self._ctag_range(base, length, key, False, charge)

    def _ctag_range(self, base, length, key, on, charge):
        """Set (on) the tags of the words [base, base+length) overlaps, or
        clear those of the words wholly inside it; set or clear the oracle
        bits of the covered bytes. Once the range is checked, and before
        the walk starts, charge (if given) is called with the accesses the
        walk makes: one per line it visits."""
        if length == 0:
            return
        self._check_range(base, length)
        end = base + length
        # the words affected: [lo, hi)
        lo, hi = (base & ~7, (end + 7) & ~7) if on else ((base + 7) & ~7, end & ~7)
        if charge is not None:
            charge(((end + LINE - 1) >> 6) - (base >> 6))
        for lb in range(base & ~(LINE - 1), end, LINE):
            line = self._access(self.dcache, lb, key)
            # bit j: word lb + 8j lies in [lo, hi)
            mask = (0xFF << (max(lo - lb, 0) >> 3)) & (0xFF >> (max(lb + LINE - hi, 0) >> 3))
            line.tags = line.tags | mask if on else line.tags & ~mask
            line.dirty = True
        self._oracle_set(base, length, on)

    def ctag_read(self, addr):
        """Tag bit of the word containing addr. A resident line answers
        from its own metadata and counts nothing; a miss consults the tag
        store without filling data."""
        self._check_range(addr, 1)
        line_base = addr & ~(LINE - 1)
        line = self.dcache.find(line_base)
        if line is not None:
            return (line.tags >> ((addr - line_base) >> 3)) & 1
        self._tag_access(line_base, write=False)
        return self.word_tag(addr)

    # ---- maintenance -------------------------------------------------------

    def flush_and_sync(self, key):
        """Write back every dirty dcache line under `key` and invalidate the
        caches; afterwards all of DRAM is at rest (tagged words encrypted,
        the rest plaintext)."""
        for line in self.dcache.all_lines():
            if line.dirty:
                self._writeback_line(line, key)
        self.dcache.invalidate()
        self.icache.invalidate()
        self.tag_writebacks += sum(tl.dirty for tl in self.tagcache.all_lines())
        self.tagcache.invalidate()

    def raw_dump(self, start, length):
        """The attacker's view: exact DRAM bytes plus per-word tag bits.
        Never decrypts. Requires DRAM at rest (clean), as flush_and_sync
        leaves it."""
        if not self.clean:
            raise RuntimeError("raw_dump requires flush_and_sync first")
        self._check_range(start, length)
        off = start - DRAM_BASE
        data = bytes(self.dram[off : off + length])
        tags = []
        for w in range(start & ~7, start + length, 8):
            tags.append(self.word_tag(w))
        return data, tags

    def format_dump(self, start, length):
        data, tags = self.raw_dump(start, length)
        out = []
        w0 = start & ~7
        data = bytes(start - w0) + data  # each byte at its offset in its word
        for i, w in enumerate(range(w0, start + length, 8)):
            if i == 0 or w % LINE == 0:
                out.append(f"# line {w & ~(LINE - 1):#x}")
            word = int.from_bytes(data[8 * i : 8 * i + 8].ljust(8, b"\x00"), "little")
            out.append(f"{w:08x}: {word:016x} {tags[i]}")
        return "\n".join(out) + "\n"
