"""The channels the word tags do not close. Tags follow data, not control,
and the exit status and the cycle count are not data in memory, so a
secret still reaches what an attacker sees through an untagged store
under a branch on it, through the exit status and through the cycles.
Each test runs its own program twice under one seed, so the key and the
kernel's PRNG are the same, with only the bytes of an O_SENSITIVE file
differing, and pins today's behaviour: the two runs differ."""

from conch.mem import DRAM_BASE
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
