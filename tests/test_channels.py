"""The channels the word tags do not close. Tags follow data, not control,
and the exit status and the cycle count are not data in memory, so a
secret still reaches what an attacker sees through an untagged store
under a branch on it, through the exit status and through the cycles.
Each test runs its own program twice under one seed, so the key and the
kernel's PRNG are the same, with only the bytes of an O_SENSITIVE file
differing, and pins today's behaviour: the two runs differ. The last
test is the converse: a program that uses none of these channels shows
an attacker the same view whatever the secret (noninterference, checked
by running the program twice)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conch.mem import DRAM_BASE, REGION_SHIFT
from conch.report import simulate

SECRETS = (bytes(8), b"\x07" * 8)

# open "secret" with O_SENSITIVE and read its 8 bytes, tagged, into t0
PROLOGUE = """
    .org 0x80000000
_start:
    li   a0, -100
    la   a1, path
    li   a2, 0x02000000
    li   a7, 56
    ecall
    la   a1, secret
    li   a2, 8
    li   a7, 63
    ecall
    la   s0, secret
    ld   t0, 0(s0)
"""

DATA = """
    .org 0x80001000
secret:
    .dword 0
flag:
    .dword 0
path:
    .asciz "secret"
"""
FLAG = DRAM_BASE + 0x1008


def two_runs(body):
    """The program PROLOGUE + body run under model b, once per secret."""
    return [simulate(PROLOGUE + body + DATA, model="b", seed=0, fs={"secret": s}) for s in SECRETS]


def test_an_untagged_store_under_a_branch_on_the_secret_differs_at_rest():
    runs = two_runs(
        """
    beq  t0, x0, done
    li   t1, 1
    la   s1, flag
    sd   t1, 0(s1)
done:
    li   a0, 0
    li   a7, 93
    ecall
"""
    )
    assert [r.stop for r in runs] == ["exit", "exit"]
    assert [r.mem.word_tag(FLAG) for r in runs] == [0, 0]
    off = FLAG - DRAM_BASE
    assert [int.from_bytes(r.mem.dram[off : off + 8], "little") for r in runs] == [0, 1]


def test_exit_with_the_secret_gives_its_low_byte_as_the_status():
    runs = two_runs(
        """
    mv   a0, t0
    li   a7, 93
    ecall
"""
    )
    assert [r.st.reg_tags[10] for r in runs] == [1, 1]  # a0 is tagged
    assert [r.st.exit_code for r in runs] == [0, 7]


def test_a_branch_on_the_secret_to_the_next_instruction_differs_in_cycles():
    # either way the next instruction runs, so only the prediction differs
    runs = two_runs(
        """
    beq  t0, x0, next
next:
    li   a0, 0
    li   a7, 93
    ecall
"""
    )
    a, b = runs
    assert (a.stop, a.st.exit_code, a.st.instret) == (b.stop, b.st.exit_code, b.st.instret)
    assert (a.st.mispredicts, b.st.mispredicts) == (1, 0)
    assert a.cycles != b.cycles


# ---- without those channels, the view is the same for any secret ----

BUF = DRAM_BASE + 0x1000  # 64 secret bytes, then 64 bytes that start clean

# read 64 bytes of the O_SENSITIVE file "secret", tagged, into BUF; s0 = BUF
NI_PROLOGUE = """
    .org 0x80000000
_start:
    li   a0, -100
    la   a1, path
    li   a2, 0x02000000
    li   a7, 56
    ecall
    la   a1, buf
    li   a2, 64
    li   a7, 63
    ecall
    la   s0, buf
"""

# write all of BUF to stdout, then exit 0
NI_EPILOGUE = """
    li   a0, 1
    mv   a1, s0
    li   a2, 128
    li   a7, 64
    ecall
    li   a0, 0
    li   a7, 93
    ecall
    .org 0x80001000
buf:
    .dword 0
    .org 0x80001080
path:
    .asciz "secret"
"""

POOL = ("t0", "t1", "t2", "t3", "t4", "t5", "t6", "s1")
R_OPS = (
    "add sub sll slt sltu xor srl sra or and mul mulh mulhsu mulhu div divu rem remu "
    "addw subw sllw srlw sraw mulw divw divuw remw remuw"
).split()
LOADS = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4, "ld": 8}
STORES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

_reg = st.sampled_from(POOL)


def _access(widths):
    """A load or store of BUF: its mnemonic, a pool register and an
    aligned offset."""
    return st.sampled_from(sorted(widths)).flatmap(
        lambda m: st.builds(
            f"{m} {{}}, {{}}(s0)".format, _reg, st.integers(0, 128 // widths[m] - 1).map(lambda k: k * widths[m])
        )
    )


@st.composite
def _ctag_set(draw):
    off = draw(st.integers(0, 127))
    return f"addi a3, s0, {off}\n    li   a4, {draw(st.integers(0, 128 - off))}\n    ctag.set a3, a4"


# one step of a straight-line body; every address comes from s0 or a3,
# which hold no secret, and nothing declassifies
_STEP = st.one_of(
    st.builds("li   {}, {}".format, _reg, st.integers(-(1 << 31), (1 << 31) - 1)),
    st.builds("{} {}, {}, {}".format, st.sampled_from(R_OPS), _reg, _reg, _reg),
    st.builds("{} {}, {}, {}".format, st.sampled_from("addi slti sltiu xori ori andi addiw".split()), _reg, _reg, st.integers(-2048, 2047)),
    st.builds("{} {}, {}, {}".format, st.sampled_from(("slli", "srli", "srai")), _reg, _reg, st.integers(0, 63)),
    st.builds("{} {}, {}, {}".format, st.sampled_from(("slliw", "srliw", "sraiw")), _reg, _reg, st.integers(0, 31)),
    _access(LOADS),
    _access(STORES),
    _ctag_set(),
)


def view(run, regions):
    """What an attacker sees of run: in each DRAM region of regions, the
    plaintext of every word whose tag is 0 at rest (a tagged word reads
    as zeros) and the tag plane; the stdout bytes written from untagged
    words of BUF; every register whose tag is 0; instret; and the stop
    reason."""
    mem, state = run.mem, run.st
    size = 1 << REGION_SHIFT
    dram = []
    for region in sorted(regions):
        lo = region * size
        plain = bytearray(mem.dram[lo : lo + size])
        tags = mem.tag_bits[lo >> 6 : (lo + size) >> 6]
        for w in range(8 * len(tags)):
            if tags[w >> 3] >> (w & 7) & 1:
                plain[8 * w : 8 * w + 8] = bytes(8)
        dram.append((bytes(plain), bytes(tags)))
    out = run.shim.stdout
    stdout = [None if mem.word_tag(BUF + k) else bytes(out[k : k + 8]) for k in range(0, len(out), 8)]
    regs = [None if tag else value for value, tag in zip(state.regs, state.reg_tags)]
    return dram, stdout, regs, state.instret, run.stop


@given(body=st.lists(_STEP, min_size=1, max_size=24), secret=st.binary(min_size=64, max_size=64))
@settings(max_examples=200)
def test_a_straight_line_program_shows_one_view_for_two_secrets(body, secret):
    # the second secret differs from the first in every bit
    source = NI_PROLOGUE + "".join(f"    {step}\n" for step in body) + NI_EPILOGUE
    runs = [simulate(source, model="b", seed=0, fs={"secret": s}) for s in (secret, bytes(b ^ 0xFF for b in secret))]
    assert [r.stop for r in runs] == ["exit", "exit"]
    regions = runs[0].mem.regions | runs[1].mem.regions
    assert view(runs[0], regions) == view(runs[1], regions)
