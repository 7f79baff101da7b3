"""Shared test corpus: small programs exercising every subsystem, reused
by the semantics-preservation and soundness suites. Each entry is
(name, source, fs), and every program exits 0. Also the uncached
reference memory that the cached hierarchy is checked against,
plane_diff, which compares two memories' planes, and mem_counters, every
event a memory counts. And Instr, the decoded form of a word the decoder
tests compare."""

import random
from importlib import resources
from typing import NamedTuple

import pytest
from hypothesis import Phase, settings

from conch import isa
from conch.cli import DEMOS, read_source
from conch.crypt import qarma_decrypt, qarma_encrypt
from conch.isa import MASK64
from conch.mem import DRAM_BASE, DRAM_SIZE, REGION_SHIFT, MemorySystem

# The published QARMA-64 reference vector: one (w0, k0, tweak, plaintext)
# tuple with the expected ciphertext under each S-box variant (Avanzi, The
# QARMA Block Cipher Family, ToSC 2017).
VEC_W0 = 0x84BE85CE9804E94B
VEC_K0 = 0xEC2802D4E0A488E9
VEC_T = 0x477D469DEC0B8762
VEC_P = 0xFB623599DA6E8127
VEC_C = {
    0: 0x3EE99A6C82AF0C38,
    1: 0x544B0AB95BDA7C3A,
    2: 0xC003B93999B33765,
}

# every property test runs without a per-example deadline: one example can
# run the simulator, or walk megabytes of tags, for longer than the default
settings.register_profile("conch", deadline=None)
settings.load_profile("conch")
# tests/mutants.py runs its tests under this profile: a property test that
# fails on a planted defect reports its first failing example, unshrunk,
# and leaves nothing in the example database
settings.register_profile(
    "mutants", parent=settings.get_profile("conch"), phases=(Phase.explicit, Phase.generate), database=None
)


class Instr(NamedTuple):
    mnem: str
    rd: int
    rs1: int
    rs2: int
    imm: int  # sign-extended and ready to use; shamt for shifts


def decoded(word):
    """isa.decode(word) as an Instr, or None for an illegal word."""
    dec = isa.decode(word)
    return None if dec is None else Instr(dec[0], *dec[2])


def plane_diff(a, b):
    """The first (plane, region) whose bytes differ between memories a and
    b, or None. Every plane write after load_image lands in a region its
    writer recorded, so for two memories that loaded one image this
    compares every byte that can differ. It takes the union of the
    regions: the uncached reference records one region per word it
    touches, the cached memory one per line it fills."""
    for plane in ("dram", "tag_bits", "byte_oracle"):
        pa, pb = getattr(a, plane), getattr(b, plane)
        span = len(pa) * (1 << REGION_SHIFT) // DRAM_SIZE  # one region's bytes
        for r in sorted(a.regions | b.regions):
            if pa[r * span : (r + 1) * span] != pb[r * span : (r + 1) * span]:
                return plane, r
    return None


def mem_counters(mem):
    """Every event mem counted."""
    return (
        mem.dcache.hits, mem.dcache.misses, mem.icache.hits, mem.icache.misses,
        mem.tagcache_hits, mem.tagcache_misses, mem.tag_store_touches, mem.tag_writebacks, mem.dram_data_accesses,
        mem.cipher_blocks, mem.overtag_cipher_blocks, mem.loads, mem.stores,
    )


class UncachedReference(MemorySystem):
    """Memory without caches, kept frozen as the reference the cached
    hierarchy must agree with: every load, store, fetch and ctag walk
    reads or writes the words at rest in DRAM, deciphering and
    enciphering tagged ones under the access's key. It keeps its own
    copies of the retain-OR tag rule and of sign extension. It counts no
    event; a ctag walk is charged one access per word it changes."""

    def _word_at_rest(self, word_addr, key):
        off = word_addr - DRAM_BASE
        self.regions.add(off >> REGION_SHIFT)
        raw = int.from_bytes(self.dram[off : off + 8], "little")
        if self.word_tag(word_addr):
            return qarma_decrypt(key, word_addr, raw, memo=self.memo)
        return raw

    def _set_word_at_rest(self, word_addr, value, tag, key):
        off = word_addr - DRAM_BASE
        wi = off >> 3
        if tag:
            raw = qarma_encrypt(key, word_addr, value, memo=self.memo)
            self.tag_bits[wi >> 3] |= 1 << (wi & 7)
        else:
            raw = value
            self.tag_bits[wi >> 3] &= ~(1 << (wi & 7)) & 0xFF
        self.dram[off : off + 8] = raw.to_bytes(8, "little")

    def _load_direct(self, addr, width, signed, key):
        w = addr & ~7
        value = (self._word_at_rest(w, key) >> (8 * (addr - w))) & ((1 << (8 * width)) - 1)
        if signed and value & (1 << (8 * width - 1)):
            value -= 1 << (8 * width)
        return value & MASK64, self.word_tag(w)

    def load(self, addr, width, signed, key):
        self._check_range(addr, width)
        self._align_check(addr, width)
        return self._load_direct(addr, width, signed, key)

    def store(self, addr, width, value, src_tag, key, taints=None):
        self._check_range(addr, width)
        self._align_check(addr, width)
        if taints is None:
            taints = ((1 << width) - 1) if src_tag else 0
        w = addr & ~7
        shift = 8 * (addr - w)
        mask = ((1 << (8 * width)) - 1) << shift
        word = self._word_at_rest(w, key) & ~mask | (value << shift) & mask
        # a full-word store replaces the word tag; a narrower one ORs into it
        tag = src_tag if width == 8 else self.word_tag(w) | src_tag
        self._set_word_at_rest(w, word, tag, key)
        self._oracle_update(addr, width, taints)

    def fetch(self, addr, key):
        self._check_range(addr, 4)
        return self._load_direct(addr, 4, False, key)[0]

    def _ctag_range(self, base, length, key, on, charge):
        if length == 0:
            return
        self._check_range(base, length)
        end = base + length
        lo, hi = (base & ~7, (end + 7) & ~7) if on else ((base + 7) & ~7, end & ~7)
        if charge is not None:
            charge(max(hi - lo, 0) >> 3)
        for w in range(lo, hi, 8):
            # read before flipping the tag: it decides the decrypt
            self._set_word_at_rest(w, self._word_at_rest(w, key), on, key)
        self._oracle_set(base, length, on)

    def ctag_read(self, addr):
        self._check_range(addr, 1)
        return self.word_tag(addr)


# Arithmetic mix including the division edge cases, results stored so the
# memory image is part of the cross-model comparison.
ALU_MIX = """
    .text
_start:
    la   s0, out
    li   t0, -7
    li   t1, 3
    div  t2, t0, t1
    sd   t2, 0(s0)
    rem  t2, t0, t1
    sd   t2, 8(s0)
    li   t1, 0
    div  t2, t0, t1          # division by zero: all ones
    sd   t2, 16(s0)
    rem  t2, t0, t1          # remainder by zero: dividend
    sd   t2, 24(s0)
    li   t0, 1
    slli t0, t0, 63          # INT64_MIN
    li   t1, -1
    div  t2, t0, t1          # signed overflow: dividend
    sd   t2, 32(s0)
    rem  t2, t0, t1          # signed overflow: zero
    sd   t2, 40(s0)
    li   t0, 0x1234
    li   t1, 0x5678
    mul  t2, t0, t1
    mulhu t3, t0, t1
    xor  t2, t2, t3
    sltu t3, t0, t1
    add  t2, t2, t3
    sraw t4, t0, t1
    addw t2, t2, t4
    sd   t2, 48(s0)
    li   a0, 0
    li   a7, 93
    ecall
    .data
out:
    .dword 0
    .dword 0
    .dword 0
    .dword 0
    .dword 0
    .dword 0
    .dword 0
"""

# Recursive fib(12) = 144; self-checking exit code.
FIB = """
    .text
_start:
    li   a0, 12
    jal  ra, fib
    li   t0, 144
    sub  a0, a0, t0
    sltu a0, x0, a0          # 0 if fib(12) == 144, else 1
    li   a7, 93
    ecall

fib:
    li   t0, 2
    bltu a0, t0, fib_base
    addi sp, sp, -24
    sd   ra, 0(sp)
    sd   s0, 8(sp)
    mv   s0, a0
    addi a0, a0, -1
    jal  ra, fib
    sd   a0, 16(sp)
    addi a0, s0, -2
    jal  ra, fib
    ld   t1, 16(sp)
    add  a0, a0, t1
    ld   ra, 0(sp)
    ld   s0, 8(sp)
    addi sp, sp, 24
fib_base:
    ret
"""

# Byte-wise copy across a half-tagged source region: sub-word loads of
# tagged words propagate, sub-word stores retain-OR into the destination.
BYTE_COPY = """
    .text
_start:
    la   s0, src
    la   s1, dst
    li   a0, 16
    ctag.set s0, a0          # first 16 of 32 source bytes sensitive
    li   t0, 0
copy:
    add  t1, s0, t0
    lbu  t2, 0(t1)
    add  t3, s1, t0
    sb   t2, 0(t3)
    addi t0, t0, 1
    li   t4, 32
    bltu t0, t4, copy
    li   a0, 0
    li   a7, 93
    ecall
    .data
    .align 3
src:
    .dword 0x1111111111111111
    .dword 0x2222222222222222
    .dword 0x3333333333333333
    .dword 0x4444444444444444
dst:
    .dword 0
    .dword 0
    .dword 0
    .dword 0
"""

# Tag 64 KiB and stream it back in (scaled-down cousin of the acceptance
# streaming benchmark).
STREAM64K = """
    .text
_start:
    li   t0, 1
    slli t0, t0, 31
    li   t1, 0x300000
    add  t0, t0, t1
    li   t1, 0x10000
    ctag.set t0, t1
    add  t2, t0, t1
    mv   t3, t0
loop:
    ld   t4, 0(t3)
    addi t3, t3, 64
    bltu t3, t2, loop
    li   a0, 0
    li   a7, 93
    ecall
"""

# Insertion sort of 32 tagged random doublewords; branch- and swap-heavy.
SORT = """
    .text
_start:
    la   s0, arr
    li   a1, 256
    mv   a0, s0
    li   a2, 0
    li   a7, 278
    ecall                    # 256 tagged random bytes = 32 dwords

    li   t0, 1               # i = 1
outer:
    li   t6, 32
    bgeu t0, t6, done
    slli t1, t0, 3
    add  t1, t1, s0
    ld   t2, 0(t1)           # key = arr[i]
    mv   t3, t0              # j = i
inner:
    beq  t3, x0, place
    slli t4, t3, 3
    add  t4, t4, s0
    ld   t5, -8(t4)          # arr[j-1]
    bgeu t2, t5, place
    sd   t5, 0(t4)           # shift right
    addi t3, t3, -1
    j    inner
place:
    slli t4, t3, 3
    add  t4, t4, s0
    sd   t2, 0(t4)
    addi t0, t0, 1
    j    outer
done:
    # verify ascending order; exit 0 when sorted
    li   t0, 1
check:
    li   t6, 32
    bgeu t0, t6, ok
    slli t1, t0, 3
    add  t1, t1, s0
    ld   t2, -8(t1)
    ld   t3, 0(t1)
    bltu t3, t2, bad
    addi t0, t0, 1
    j    check
bad:
    li   a0, 1
    li   a7, 93
    ecall
ok:
    li   a0, 0
    li   a7, 93
    ecall
    .data
    .align 3
arr:
    .dword 0
    .org 0x80100200
arr_end:
    .dword 0
"""

# Aggregate tagged data, declassify the aggregate, publish it: the
# tag-clear path that resolves a sensitivity conflict.
CLEAR_FLOW = """
    .text
_start:
    la   s0, secret_buf
    mv   a0, s0
    li   a1, 32
    li   a2, 0
    li   a7, 278
    ecall                    # 32 tagged random bytes

    ld   t0, 0(s0)
    ld   t1, 8(s0)
    ld   t2, 16(s0)
    ld   t3, 24(s0)
    xor  t0, t0, t1
    xor  t2, t2, t3
    xor  t0, t0, t2          # fold; tag follows the data
    la   s1, pub
    sd   t0, 0(s1)           # still tagged here
    mv   a0, s1
    li   a1, 8
    ctag.clr a0, a1          # deliberate declassification
    li   a0, 1
    mv   a1, s1
    li   a2, 8
    li   a7, 64
    ecall                    # publishes plaintext, no leak counted
    li   a0, 0
    li   a7, 93
    ecall
    .data
    .align 3
secret_buf:
    .dword 0
    .dword 0
    .dword 0
    .dword 0
pub:
    .dword 0
"""

# Plain file input, checksum, small write: the untagged IO path.
IO_PLAIN = """
    .text
_start:
    li   a0, -100
    la   a1, path
    li   a2, 0
    li   a7, 56
    ecall
    mv   s0, a0
    mv   a0, s0
    la   a1, buf
    li   a2, 64
    li   a7, 63
    ecall

    la   t0, buf
    li   t1, 0
    li   t2, 0
sum:
    ld   t3, 0(t0)
    add  t1, t1, t3
    addi t0, t0, 8
    addi t2, t2, 1
    li   t4, 8
    bltu t2, t4, sum
    la   t5, out
    sd   t1, 0(t5)

    li   a0, 1
    la   a1, out
    li   a2, 8
    li   a7, 64
    ecall
    li   a0, 0
    li   a7, 93
    ecall
    .data
path:
    .asciz "input"
    .align 3
buf:
    .org 0x80100048
out:
    .dword 0
"""

def odd_access_program(mnem):
    """One guest access of the given mnemonic at an odd address, then exit 0."""
    return f"""
    .text
_start:
    la   t0, buf
    li   t1, 0x55
    {mnem}   t1, 1(t0)
    li   a0, 0
    li   a7, 93
    ecall
    .data
    .align 3
buf:
    .dword 0
"""


def grid_words(per_triple):
    """Instruction words covering every (opcode, funct3, funct7) triple,
    `per_triple` words each. Register fields come from a seeded pool in
    which each field is zero half the time, so the forms that require rd
    or rs2 to be zero (ctag, ecall, ebreak) are reached too."""
    rng = random.Random(0)
    pool = [[rng.choice((0, rng.randrange(32))) for _ in range(3)] for _ in range(997)]
    n = 0
    for op in range(128):
        for f3 in range(8):
            for f7 in range(128):
                for _ in range(per_triple):
                    rd, rs1, rs2 = pool[n % len(pool)]
                    n += 1
                    yield (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op


def demo_path(name):
    """The path of a bundled demo's source, as `conch demo NAME` runs it."""
    return str(resources.files("conch") / "demos" / f"{name}.s")


def demo_source(name):
    return read_source(demo_path(name))


def build_corpus():
    """The corpus; each demo runs with the inputs `conch demo` gives it."""
    corpus = [
        ("alu_mix", ALU_MIX, {}),
        ("fib", FIB, {}),
        ("byte_copy", BYTE_COPY, {}),
        ("stream64k", STREAM64K, {}),
        ("sort", SORT, {}),
        ("clear_flow", CLEAR_FLOW, {}),
        ("io_plain", IO_PLAIN, {"input": bytes(range(64))}),
    ]
    corpus += [(f"demo_{name}", demo_source(name), demo["fs"]) for name, demo in DEMOS.items()]
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()
