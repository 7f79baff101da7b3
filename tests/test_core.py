"""Interpreter core: decoding, ALU semantics against an independent
reference, traps, tag propagation, cycle accounting hooks, and the
handler dispatch stepped against a frozen copy of the if/elif
interpreter it replaced."""

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conch import asm, core, isa
from conch.core import (
    Breakpoint,
    BudgetExhausted,
    IllegalInstruction,
    MachineState,
    MisalignedFetch,
    Trap,
    run,
    step,
)
from conch.crypt import BlockMemo, derive_thread_key, generate_master_key
from conch.mem import DRAM_BASE, DRAM_END, MemAccessError, MemorySystem, MisalignedAccess
from conch.os_shim import SYS_GETRANDOM, SYS_OPENAT, SYS_READ, SYS_THREAD_SWITCH, SYS_WRITE, FileDesc, OsShim
from conch.report import (
    MODELS,
    PRICE_FIELD,
    ByteOracle,
    CycleCosts,
    build_report,
    counts,
    emit_report,
    mem_stats,
    price,
    simulate,
)

from conftest import Instr, boot, decoded, grid_words, mem_counters, odd_access_program

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
KEY = derive_thread_key(generate_master_key(0), 0)


def make_machine(words, data=(), memo=None):
    """Tiny harness: place instruction words at the DRAM base and return
    (state, mem) ready to step; mem enciphers through memo if given."""
    mem = MemorySystem(memo=memo)
    blob = b"".join(w.to_bytes(4, "little") for w in words)
    mem.write_raw_init(DRAM_BASE, blob)
    for addr, value in data:
        mem.write_raw_init(addr, value.to_bytes(8, "little"))
    stt = MachineState(pc=DRAM_BASE, key=KEY)
    stt.regs[2] = DRAM_END - 64
    return stt, mem


# ---- decode -----------------------------------------------------------------


def test_decode_fields():
    w = isa.encode("add", 3, 4, 5)  # add x3, x4, x5
    assert decoded(w) == Instr("add", 3, 4, 5, 0)
    w = isa.encode("addi", 1, 2, imm=-7)
    assert decoded(w) == Instr("addi", 1, 2, 0, -7)


@pytest.mark.parametrize(
    "word",
    [
        0x00000000,
        0xFFFFFFFF,
        isa.encode("add", 1, 2, 3) | 0b1111111 << 25,  # bad funct7
        isa.encode("slli", 1, 2) | 1 << 30,  # slli with funct6 set
        isa.encode("lb", 1, 2) | 0b111 << 12,  # no such load width
        isa.encode("jalr", 1, 2) | 0b010 << 12,  # jalr funct3 must be 0
        (2 << 12) | 0b1110011,  # system funct3 2
        isa.encode("ctag.set", rs1=1, rs2=2) | 0b011 << 12,  # ctag funct3 3
        isa.encode("ctag.set", rs1=1, rs2=2) | 5 << 7,  # ctag.set with rd set
    ],
)
def test_decode_rejects(word):
    """step traps on an illegal word, names it, and leaves the pc at it."""
    stt, mem = make_machine([word])
    with pytest.raises(IllegalInstruction) as exc:
        step(stt, mem)
    assert str(exc.value) == f"illegal instruction {word:#010x}"
    assert stt.pc == DRAM_BASE


# ---- reference: the opcode-chain decoder ------------------------------------------
# A frozen copy of the hand-written decoder that the table-driven one
# replaced, with its own tables, so that a change to isa.SPECS or to the
# operand extractors cannot move both sides at once.


def _ref_sext(value, bits):
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


def _ref_i_imm(w):
    return _ref_sext(w >> 20, 12)


def _ref_s_imm(w):
    return _ref_sext(((w >> 25) << 5) | ((w >> 7) & 0x1F), 12)


def _ref_b_imm(w):
    imm = ((w >> 31) & 1) << 12 | ((w >> 7) & 1) << 11 | ((w >> 25) & 0x3F) << 5 | ((w >> 8) & 0xF) << 1
    return _ref_sext(imm, 13)


def _ref_j_imm(w):
    imm = ((w >> 31) & 1) << 20 | ((w >> 12) & 0xFF) << 12 | ((w >> 20) & 1) << 11 | ((w >> 21) & 0x3FF) << 1
    return _ref_sext(imm, 21)


_REF_R = {}
for _f7, _names in (
    (0b0000000, ["add", "sll", "slt", "sltu", "xor", "srl", "or", "and"]),
    (0b0000001, ["mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"]),
):
    for _f3, _name in enumerate(_names):
        _REF_R[(0b0110011, _f3, _f7)] = _name
_REF_R.update({(0b0110011, 0, 0b0100000): "sub", (0b0110011, 5, 0b0100000): "sra"})
for (_f3, _f7), _name in {
    (0, 0): "addw", (0, 0b0100000): "subw", (1, 0): "sllw", (5, 0): "srlw", (5, 0b0100000): "sraw",
    (0, 1): "mulw", (4, 1): "divw", (5, 1): "divuw", (6, 1): "remw", (7, 1): "remuw",
}.items():
    _REF_R[(0b0111011, _f3, _f7)] = _name
_REF_LOADS = {0: "lb", 1: "lh", 2: "lw", 3: "ld", 4: "lbu", 5: "lhu", 6: "lwu"}
_REF_STORES = {0: "sb", 1: "sh", 2: "sw", 3: "sd"}
_REF_BRANCHES = {0: "beq", 1: "bne", 4: "blt", 5: "bge", 6: "bltu", 7: "bgeu"}
_REF_OPIMM = {0: "addi", 2: "slti", 3: "sltiu", 4: "xori", 6: "ori", 7: "andi"}
_REF_CTAG = {0: "ctag.set", 1: "ctag.clr", 2: "ctag.rdt"}


def _ref_decode(word):
    """Instr for a legal word, None for an illegal one."""
    op = word & 0x7F
    rd = (word >> 7) & 31
    f3 = (word >> 12) & 7
    rs1 = (word >> 15) & 31
    rs2 = (word >> 20) & 31
    f7 = word >> 25
    if op in (0b0110011, 0b0111011):
        m = _REF_R.get((op, f3, f7))
        return Instr(m, rd, rs1, rs2, 0) if m else None
    if op == 0b0010011:
        if f3 == 0b001:
            return None if f7 >> 1 else Instr("slli", rd, rs1, 0, (word >> 20) & 63)
        if f3 == 0b101:
            m = {0: "srli", 0b010000: "srai"}.get(f7 >> 1)
            return Instr(m, rd, rs1, 0, (word >> 20) & 63) if m else None
        return Instr(_REF_OPIMM[f3], rd, rs1, 0, _ref_i_imm(word))
    if op == 0b0000011:
        return Instr(_REF_LOADS[f3], rd, rs1, 0, _ref_i_imm(word)) if f3 in _REF_LOADS else None
    if op == 0b0100011:
        return Instr(_REF_STORES[f3], 0, rs1, rs2, _ref_s_imm(word)) if f3 in _REF_STORES else None
    if op == 0b1100011:
        return Instr(_REF_BRANCHES[f3], 0, rs1, rs2, _ref_b_imm(word)) if f3 in _REF_BRANCHES else None
    if op == 0b0011011:
        if f3 == 0:
            return Instr("addiw", rd, rs1, 0, _ref_i_imm(word))
        m = {(1, 0): "slliw", (5, 0): "srliw", (5, 0b0100000): "sraiw"}.get((f3, f7))
        return Instr(m, rd, rs1, 0, (word >> 20) & 31) if m else None
    if op == 0b1101111:
        return Instr("jal", rd, 0, 0, _ref_j_imm(word))
    if op == 0b1100111:
        return Instr("jalr", rd, rs1, 0, _ref_i_imm(word)) if f3 == 0 else None
    if op in (0b0110111, 0b0010111):
        return Instr("lui" if op == 0b0110111 else "auipc", rd, 0, 0, _ref_sext(word & 0xFFFFF000, 32))
    if op == 0b1110011:
        m = {0x00000073: "ecall", 0x00100073: "ebreak"}.get(word)
        return Instr(m, 0, 0, 0, 0) if m else None
    if op == 0b0001011:
        m = _REF_CTAG.get(f3)
        if m is None or f7 != 0 or (rs2 if m == "ctag.rdt" else rd) != 0:
            return None
        return Instr(m, rd, rs1, rs2, 0)
    return None


def test_spec_entries_match_disjoint_words():
    # Two entries overlap when their match values agree on the bits both
    # masks fix; then which one decodes a word would depend on order.
    entries = [e for group in isa._BY_OPCODE.values() for e in group]
    overlaps = [
        (a[2], b[2])
        for i, a in enumerate(entries)
        for b in entries[i + 1 :]
        if (a[1] ^ b[1]) & a[0] & b[0] == 0
    ]
    assert overlaps == []


def test_decode_matches_reference_on_every_opcode_funct3_funct7():
    diffs = [hex(w) for w in grid_words(2) if decoded(w) != _ref_decode(w)]
    assert diffs == []


@given(st.integers(0, (1 << 32) - 1))
@settings(max_examples=500)
def test_decode_matches_reference_on_any_word(word):
    assert decoded(word) == _ref_decode(word)


def test_encode_inverts_decode_on_every_opcode_funct3_funct7():
    pairs = [(w, isa.decode(w)) for w in grid_words(1)]
    assert [hex(w) for w, dec in pairs if dec and isa.encode(dec[0], *dec[2]) != w] == []


@given(st.integers(0, (1 << 32) - 1), st.sampled_from([e for g in isa._BY_OPCODE.values() for e in g]))
@settings(max_examples=500)
def test_encode_inverts_decode_on_any_word(word, entry):
    # the word as drawn, and the word with entry's fixed bits put over it
    mask, match, mnem, _ = entry
    fixed = match | word & ~mask
    assert isa.decode(fixed)[0] == mnem
    for w in (word, fixed):
        dec = isa.decode(w)
        if dec is not None:
            assert isa.encode(dec[0], *dec[2]) == w


# ---- ALU semantics ------------------------------------------------------------

# Independent reference semantics, written from the architecture manual
# rather than by importing the implementation's tables.


def _ref_s(x, bits=64):
    x &= (1 << bits) - 1
    return x - (1 << bits) if x >> (bits - 1) else x


def _ref_div(a, b, bits):
    sa, sb = _ref_s(a, bits), _ref_s(b, bits)
    if sb == 0:
        return (1 << bits) - 1
    if sa == -(1 << (bits - 1)) and sb == -1:
        return sa & ((1 << bits) - 1)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & ((1 << bits) - 1)


def _ref_rem(a, b, bits):
    sa, sb = _ref_s(a, bits), _ref_s(b, bits)
    if sb == 0:
        return sa & ((1 << bits) - 1)
    if sa == -(1 << (bits - 1)) and sb == -1:
        return 0
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return (sa - q * sb) & ((1 << bits) - 1)


def _sx32(v):
    return _ref_s(v, 32) & ((1 << 64) - 1)


REF = {
    "add": lambda a, b: (a + b) % 2**64,
    "sub": lambda a, b: (a - b) % 2**64,
    "sll": lambda a, b: (a << (b % 64)) % 2**64,
    "slt": lambda a, b: int(_ref_s(a) < _ref_s(b)),
    "sltu": lambda a, b: int(a < b),
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a >> (b % 64),
    "sra": lambda a, b: (_ref_s(a) >> (b % 64)) % 2**64,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "mul": lambda a, b: (a * b) % 2**64,
    "mulh": lambda a, b: ((_ref_s(a) * _ref_s(b)) >> 64) % 2**64,
    "mulhsu": lambda a, b: ((_ref_s(a) * b) >> 64) % 2**64,
    "mulhu": lambda a, b: (a * b) >> 64,
    "div": lambda a, b: _ref_div(a, b, 64),
    "divu": lambda a, b: 2**64 - 1 if b == 0 else a // b,
    "rem": lambda a, b: _ref_rem(a, b, 64),
    "remu": lambda a, b: a if b == 0 else a % b,
    "addw": lambda a, b: _sx32(a + b),
    "subw": lambda a, b: _sx32(a - b),
    "sllw": lambda a, b: _sx32(a << (b % 32)),
    "srlw": lambda a, b: _sx32((a % 2**32) >> (b % 32)),
    "sraw": lambda a, b: _sx32(_ref_s(a, 32) >> (b % 32)),
    "mulw": lambda a, b: _sx32(a * b),
    "divw": lambda a, b: _sx32(_ref_div(a, b, 32)),
    "divuw": lambda a, b: 2**64 - 1 if b % 2**32 == 0 else _sx32((a % 2**32) // (b % 2**32)),
    "remw": lambda a, b: _sx32(_ref_rem(a, b, 32)),
    "remuw": lambda a, b: _sx32(a % 2**32) if b % 2**32 == 0 else _sx32((a % 2**32) % (b % 2**32)),
}


@given(a=U64, b=U64, mnem=st.sampled_from(sorted(REF)))
@settings(max_examples=800)
def test_alu_matches_reference(a, b, mnem):
    assert core._ALU[mnem](a, b) == REF[mnem](a, b), mnem


@pytest.mark.parametrize(
    "mnem,a,b",
    [
        ("div", 1 << 63, (1 << 64) - 1),  # INT64_MIN / -1
        ("rem", 1 << 63, (1 << 64) - 1),
        ("div", 5, (1 << 64) - 1),  # 5 / -1: a divisor of -1 alone
        ("rem", 5, (1 << 64) - 1),
        ("divw", 5, 0xFFFFFFFF),
        ("remw", 5, 0xFFFFFFFF),
        ("div", 5, 0),
        ("rem", 5, 0),
        ("divw", 0x80000000, 0xFFFFFFFF),
        ("remw", 0x80000000, 0xFFFFFFFF),
        ("divuw", 7, 0),
        ("remuw", 0xFFFFFFFF_00000005, 0),
        ("div", 7, 7),  # operands of one value: a ^ b is 0, the quotient +1
        ("rem", (1 << 64) - 7, (1 << 64) - 7),  # -7 % -7, a ^ b is 0 again
    ],
)
def test_division_edges(mnem, a, b):
    assert core._ALU[mnem](a, b) == REF[mnem](a, b)


# ---- stepping ------------------------------------------------------------------


def test_x0_is_immutable():
    stt, mem = make_machine([isa.encode("addi", imm=5)])  # addi x0, x0, 5
    step(stt, mem)
    assert stt.regs[0] == 0 and stt.reg_tags[0] == 0


def test_branch_and_prediction_costs():
    # forward branch taken: static not-taken prediction misses
    beq = isa.encode("beq", imm=8)
    stt, mem = make_machine([beq, 0, 0])
    step(stt, mem)
    assert stt.pc == DRAM_BASE + 8
    assert stt.mispredicts == 1

    stt2, mem2 = make_machine([isa.encode("bne", imm=8), 0, 0])  # bne: not taken
    step(stt2, mem2)
    assert stt2.pc == DRAM_BASE + 4
    assert stt2.mispredicts == 0
    costs = CycleCosts()
    taken, not_taken = (price(counts(t, m, "baseline"), costs) for t, m in ((stt, mem), (stt2, mem2)))
    assert taken == not_taken + costs.mispredict


@pytest.mark.parametrize(
    "mnem, taken",
    [("beq", True), ("bne", False), ("blt", False), ("bge", True), ("bltu", False), ("bgeu", True)],
)
@pytest.mark.parametrize("value", [0, 5, 1 << 63])
def test_branches_on_equal_operands(mnem, taken, value):
    stt, mem = make_machine([isa.encode(mnem, rs1=5, rs2=6, imm=8)])
    stt.regs[5] = stt.regs[6] = value
    step(stt, mem)
    assert stt.pc == DRAM_BASE + (8 if taken else 4)


def test_not_taken_branch_to_itself_is_predicted():
    # offset 0 is not backward, so the static predictor says not taken
    stt, mem = make_machine([isa.encode("bne", rs1=0, rs2=0, imm=0)])
    step(stt, mem)
    assert stt.pc == DRAM_BASE + 4
    assert stt.mispredicts == 0


def test_jal_jalr_link_and_target():
    jal = isa.encode("jal", 1, imm=12)
    stt, mem = make_machine([jal, 0, 0, isa.encode("jalr", 5, 1, imm=1)])
    step(stt, mem)
    assert stt.pc == DRAM_BASE + 12
    assert stt.regs[1] == DRAM_BASE + 4 and stt.reg_tags[1] == 0
    step(stt, mem)  # jalr x5, 1(x1): odd target bit cleared
    assert stt.pc == DRAM_BASE + 4
    assert stt.regs[5] == DRAM_BASE + 16


def test_misaligned_fetch_traps():
    stt, mem = make_machine([0x13])
    stt.pc = DRAM_BASE + 2
    with pytest.raises(MisalignedFetch):
        step(stt, mem)


@pytest.mark.parametrize("mnem", ["lh", "lw", "ld", "sh", "sw", "sd"], ids=lambda m: f"{m}-cached")
def test_misaligned_data_access_traps(mnem):
    res = simulate(odd_access_program(mnem))
    assert res.stop == "trap"
    assert isinstance(res.st.trap, MisalignedAccess)
    assert res.st.instret == 3  # la and li retire; the access does not


@pytest.mark.parametrize("mnem", ["lb", "sb"], ids=lambda m: f"{m}-cached")
def test_byte_access_at_odd_address_runs(mnem):
    res = simulate(odd_access_program(mnem))
    assert res.stop == "exit"
    assert res.st.exit_code == 0


def test_ebreak_and_run_trap():
    stt, mem = make_machine([isa.encode("ebreak")])
    assert run(stt, mem) == "trap"
    assert isinstance(stt.trap, Breakpoint)
    assert stt.halted


def test_ecall_without_shim_traps():
    stt, mem = make_machine([isa.encode("ecall")])
    with pytest.raises(Trap):
        step(stt, mem)


def test_run_budget():
    # a loop of 200 instructions, then a trap: the budget stops it first
    countdown = [isa.encode("addi", rd=5, rs1=5, imm=-1), isa.encode("bne", rs1=5, imm=-4), isa.encode("ebreak")]
    stt, mem = make_machine(countdown)
    stt.regs[5] = 100
    stt.max_instret = 50
    assert run(stt, mem) == "budget"
    assert stt.instret == 50


def test_a_copy_past_the_budget_raises_and_charges_nothing():
    stt = MachineState(pc=DRAM_BASE)
    stt.max_instret = 10
    stt.charge_copy(4)
    with pytest.raises(BudgetExhausted):
        stt.charge_copy(6)  # with its instruction, 1 + 4 + 6 words overrun 10
    assert stt.copy_words == 4
    stt.charge_copy(5)  # 1 + 4 + 5 spends the budget exactly
    assert stt.copy_words == 9


def test_run_budget_stops_a_program_before_its_end():
    # the budget, not the ebreak, ends this run
    stt, mem = make_machine([0x13, 0x13, 0x13, isa.encode("ebreak")])
    stt.max_instret = 2
    assert run(stt, mem) == "budget"
    assert stt.instret == 2 and not stt.halted


def test_histogram_counts():
    # three passes of addi, addi and a jal to the next pass, then a trap
    stt, mem = make_machine([0x13, 0x13, isa.encode("jal", imm=4)] * 3 + [isa.encode("ebreak")])
    stt.max_instret = 9
    assert run(stt, mem) == "budget"
    assert stt.histogram["addi"] == 6
    assert stt.histogram["jal"] == 3


@pytest.mark.parametrize("m", ["ctag.set", "ctag.clr"])
def test_ctag_walk_is_charged_against_the_budget(m):
    stt, mem = make_machine([isa.encode(m, rs1=10, rs2=11)])
    stt.regs[10], stt.regs[11] = DRAM_BASE + 8, 130
    step(stt, mem)
    assert stt.copy_words == 3  # [base+8, base+138) overlaps lines 0, 1 and 2


def test_ctag_walk_over_budget_stops_before_walking():
    # a 16 MiB ctag.set would walk 262,144 lines; the budget stops it first
    stt, mem = make_machine([isa.encode("ctag.set", rs1=10, rs2=11)])
    stt.regs[10], stt.regs[11] = DRAM_BASE + 0x1000, 16 << 20
    stt.max_instret = 1000
    with pytest.raises(BudgetExhausted):
        step(stt, mem)
    assert stt.copy_words == 0 and stt.instret == 0
    assert mem.dcache.hits == mem.dcache.misses == 0
    assert mem.word_tag(DRAM_BASE + 0x1000) == 0


ZERO_CTAG_PROG = """
    .org 0x80000000
    la   a0, buf
    {addr}
    {insn}
    li   a0, 0
    li   a7, 93
    ecall
    .align 3
buf:
    .dword 0x1122334455667788
"""


@pytest.mark.parametrize("m", ["ctag.set", "ctag.clr"])
@pytest.mark.parametrize("addr", ["addi a0, a0, 3", "li a0, 0x10"], ids=["unaligned", "outside-dram"])
def test_zero_length_ctag_does_nothing(m, addr):
    # an empty range, wherever it starts, walks no line, charges no copy
    # and tags no word: each model counts what a nop in its place counts
    program = asm.assemble(ZERO_CTAG_PROG.format(addr=addr, insn=f"{m} a0, zero"))
    reference = asm.assemble(ZERO_CTAG_PROG.format(addr=addr, insn="nop"))
    for model in MODELS:
        res = simulate(program=program, model=model)
        nop = simulate(program=reference, model=model)
        assert res.stop == "exit" and res.st.copy_words == 0
        assert counts(res.st, res.mem, model) == counts(nop.st, nop.mem, model)
        assert mem_stats(res.mem, model) == mem_stats(nop.mem, model)
        assert res.mem.word_tag(program.symbols["buf"]) == 0


# ---- tags through the machine ------------------------------------------------


def test_propagate_tag_rules():
    """The word-level DIFT rule of register writes: the OR of the source
    tags, except for results derived only from the pc or an immediate."""
    x5_tagged = [
        (isa.encode("add", 7, 6, 6), 0),  # add x7, x6, x6
        (isa.encode("add", 7, 5, 6), 1),  # add x7, x5, x6
        (isa.encode("xor", 7, 6, 5), 1),  # xor x7, x6, x5
        (isa.encode("addi", 7, 5, imm=3), 1),  # addi x7, x5, 3
        (isa.encode("lui", 7, imm=1 << 12), 0),  # lui x7, 1
        (isa.encode("jalr", 7, 5), 0),  # jalr x7, 0(x5)
        (isa.encode("ctag.rdt", 7, 5), 0),  # ctag.rdt x7, x5
    ]
    for word, tag in x5_tagged:
        stt, mem = make_machine([word])
        stt.regs[5] = DRAM_BASE + 0x1000  # the jalr target, the ctag.rdt address
        stt.reg_tags[5] = 1
        stt.reg_tags[7] = 1 - tag  # the step must overwrite it
        step(stt, mem)
        assert stt.reg_tags[7] == tag, hex(word)


def test_alu_tag_flow_in_machine():
    # x5 tagged; x6 = x5 + x7 must carry the tag, x8 = x7 + x7 must not
    add1 = isa.encode("add", 6, 5, 7)
    add2 = isa.encode("add", 8, 7, 7)
    stt, mem = make_machine([add1, add2])
    stt.reg_tags[5] = 1
    step(stt, mem)
    step(stt, mem)
    assert stt.reg_tags[6] == 1
    assert stt.reg_tags[8] == 0


def test_load_store_tag_flow():
    # sd tagged x5 to memory, ld back into x6: tag survives the round trip
    sd = isa.encode("sd", rs1=10, rs2=5)
    ld = isa.encode("ld", 6, 10)
    stt, mem = make_machine([sd, ld])
    stt.regs[10] = DRAM_BASE + 0x1000
    stt.regs[5] = 0xABCD
    stt.reg_tags[5] = 1
    step(stt, mem)
    step(stt, mem)
    assert stt.regs[6] == 0xABCD
    assert stt.reg_tags[6] == 1
    before = mem_counters(mem)
    assert mem.ctag_read(DRAM_BASE + 0x1000) == 1
    assert mem_counters(mem) == before  # resident: the lookup counts nothing
    mem.flush_and_sync(KEY)
    assert mem.word_tag(DRAM_BASE + 0x1000) == 1  # and now at rest too


def test_ctag_rdt_reads_but_never_taints():
    rdt = isa.encode("ctag.rdt", 6, 10)
    stt, mem = make_machine([rdt])
    stt.regs[10] = DRAM_BASE + 0x2000
    mem.ctag_set_range(DRAM_BASE + 0x2000, 8, KEY)
    step(stt, mem)
    assert stt.regs[6] == 1
    assert stt.reg_tags[6] == 0


def test_mul_div_cycle_costs():
    mul = isa.encode("mul", 6, 5, 5)
    div = isa.encode("div", 7, 5, 5)
    stt, mem = make_machine([mul, div])
    step(stt, mem)
    step(stt, mem)
    n = counts(stt, mem, "baseline")
    # the first step's icache fill is the one DRAM access
    assert n == {**dict.fromkeys(n, 0), "mul": 1, "div": 1, "dram_access_latency": 1}


# ---- robustness: any word at the pc ------------------------------------------------

_OPCODES = [getattr(isa, n) for n in dir(isa) if n.startswith("OP_")]


def _random_regs(seed):
    """31 register values, each a random 64-bit word, a DRAM address or a
    small count, so that operands reach DRAM and syscalls succeed too."""
    rng = random.Random(seed)
    ranges = [(0, (1 << 64) - 1), (DRAM_BASE, DRAM_END - 1), (0, 4096)]
    return [rng.randint(*rng.choice(ranges)) for _ in range(31)]


@given(
    word=st.one_of(
        st.just(0x73),  # ecall
        st.integers(0, (1 << 32) - 1),
        st.builds(lambda hi, op: hi << 7 | op, st.integers(0, (1 << 25) - 1), st.sampled_from(_OPCODES)),
    ),
    seed=st.integers(0, (1 << 32) - 1),
    a7=st.one_of(st.sampled_from([SYS_OPENAT, SYS_READ, SYS_WRITE, SYS_GETRANDOM, SYS_THREAD_SWITCH]), U64),
    budget=st.integers(1, 1000),
)
@settings(max_examples=400)
def test_any_word_raises_only_documented_errors(word, seed, a7, budget):
    """One step of an arbitrary word, with arbitrary registers, fails only
    with the exceptions run() turns into a trap or a budget stop."""
    mem = MemorySystem()
    mem.write_raw_init(DRAM_BASE, word.to_bytes(4, "little"))
    shim = OsShim(generate_master_key(0), fs={"f": b"x"})
    shim.fds[3] = FileDesc(data=bytes(range(256)))
    stt = MachineState(pc=DRAM_BASE, key=KEY)
    stt.regs[1:] = _random_regs(seed)
    stt.regs[17] = a7
    stt.max_instret = budget
    try:
        step(stt, mem, shim, ByteOracle())
    except (Trap, MemAccessError, BudgetExhausted):
        pass


# ---- reference: the if/elif interpreter ---------------------------------------------
# A frozen copy of the mnemonic chain that the handler dispatch replaced.
# It decodes with _ref_decode and computes with REF and its own tables, so
# a change to the handlers or to core's tables cannot move both sides.
# _REF_ALU_IMM, _REF_LOAD and _REF_STORE are the tables core listed before
# its builders derived them from isa.SPECS by encoding class.

_REF_ALU_IMM = {
    "addi": "add", "slti": "slt", "sltiu": "sltu", "xori": "xor", "ori": "or", "andi": "and",
    "slli": "sll", "srli": "srl", "srai": "sra",
    "addiw": "addw", "slliw": "sllw", "srliw": "srlw", "sraiw": "sraw",
}
_REF_BRANCH = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _ref_s(a) < _ref_s(b),
    "bge": lambda a, b: _ref_s(a) >= _ref_s(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}
_REF_MUL = {"mul", "mulh", "mulhsu", "mulhu", "mulw"}
_REF_DIV = {"div", "divu", "rem", "remu", "divw", "divuw", "remw", "remuw"}
_REF_LOAD = {"lb": (1, True), "lh": (2, True), "lw": (4, True), "ld": (8, True),
             "lbu": (1, False), "lhu": (2, False), "lwu": (4, False)}
_REF_STORE = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}
_M64 = (1 << 64) - 1


def _ref_write(st, rd, value, tag):
    if rd:
        st.regs[rd] = value & _M64
        st.reg_tags[rd] = tag


def _ref_step(st, mem, shim=None, oracle=None):
    pc = st.pc
    if pc & 3:
        raise MisalignedFetch(f"pc {pc:#x}")
    word = mem.fetch(pc, st.key)
    ins = _ref_decode(word)
    if ins is None:
        raise IllegalInstruction(f"illegal instruction {word:#010x}")
    m = ins.mnem
    regs = st.regs
    tags = st.reg_tags
    next_pc = pc + 4

    if m in REF:
        _ref_write(st, ins.rd, REF[m](regs[ins.rs1], regs[ins.rs2]), tags[ins.rs1] | tags[ins.rs2])
        if oracle:
            oracle.oracle_step("alu", ins.rd, (ins.rs1, ins.rs2))
    elif m in _REF_ALU_IMM:
        _ref_write(st, ins.rd, REF[_REF_ALU_IMM[m]](regs[ins.rs1], ins.imm & _M64), tags[ins.rs1])
        if oracle:
            oracle.oracle_step("alu", ins.rd, (ins.rs1,))
    elif m in _REF_LOAD:
        width, signed = _REF_LOAD[m]
        ea = (regs[ins.rs1] + ins.imm) & _M64
        value, tag = mem.load(ea, width, signed, st.key)
        _ref_write(st, ins.rd, value, tag)
        if oracle:
            oracle.oracle_step("load", ins.rd, (mem.oracle_bits_for(ea, width), width, signed))
    elif m in _REF_STORE:
        width = _REF_STORE[m]
        ea = (regs[ins.rs1] + ins.imm) & _M64
        taints = oracle.store_taints(ins.rs2, width) if oracle else None
        mem.store(ea, width, regs[ins.rs2], tags[ins.rs2], st.key, taints)
    elif m in _REF_BRANCH:
        taken = _REF_BRANCH[m](regs[ins.rs1], regs[ins.rs2])
        if taken != (ins.imm < 0):  # static predictor: backward taken
            st.mispredicts += 1
        if taken:
            next_pc = (pc + ins.imm) & _M64
    elif m in ("jal", "jalr", "lui", "auipc"):
        if m == "jalr":
            target = (regs[ins.rs1] + ins.imm) & _M64 & ~1
        value = ins.imm if m == "lui" else pc + ins.imm if m == "auipc" else next_pc
        _ref_write(st, ins.rd, value, 0)
        if m == "jal":
            next_pc = (pc + ins.imm) & _M64
        elif m == "jalr":
            next_pc = target
        if oracle:
            oracle.oracle_step("clear", ins.rd, None)
    elif m == "ecall":
        if shim is None:
            raise Trap("ecall with no OS attached")
        shim.handle_ecall(st, mem, oracle)
    elif m == "ebreak":
        raise Breakpoint(f"ebreak at {pc:#x}")
    elif m == "ctag.set":
        mem.ctag_set_range(regs[ins.rs1], regs[ins.rs2], st.key)
    elif m == "ctag.clr":
        mem.ctag_clear_range(regs[ins.rs1], regs[ins.rs2], st.key)
    else:  # ctag.rdt
        _ref_write(st, ins.rd, mem.ctag_read(regs[ins.rs1]), 0)
        if oracle:
            oracle.oracle_step("clear", ins.rd, None)

    st.pc = next_pc
    st.instret += 1
    st.histogram[m] = st.histogram.get(m, 0) + 1


def _ref_price_field(m):
    """The CycleCosts field the reference charged for one retired m, or
    None for loads and stores, which the memory system prices per access."""
    if m in _REF_LOAD or m in _REF_STORE:
        return None
    if m in _REF_BRANCH:
        return "branch"
    if m in ("jal", "jalr"):
        return "jump"
    return "mul" if m in _REF_MUL else "div" if m in _REF_DIV else "alu"


def test_price_fields_match_reference():
    for m in isa.SPECS:
        assert PRICE_FIELD[m] == _ref_price_field(m), m


def test_builders_match_reference_tables():
    """The builder _entry picks by opcode binds the width, signedness or
    ALU operation the reference tables give, for every mnemonic."""
    built = {"load": set(), "store": set(), "alu_imm": set()}
    for m, (_, opcode, _, _) in isa.SPECS.items():
        handler, mnem = core._entry(isa.encode(m, rd=1, rs1=2, rs2=3))
        bound = inspect.getclosurevars(handler).nonlocals
        assert mnem == m
        if opcode == isa.OP_LOAD:
            assert (bound["width"], bound["signed"]) == _REF_LOAD[m], m
        elif opcode == isa.OP_STORE:
            assert bound["width"] == _REF_STORE[m], m
        elif opcode in (isa.OP_IMM, isa.OP_IMM32):
            assert bound["fn"] is core._ALU[_REF_ALU_IMM[m]], m
        elif opcode in (isa.OP_OP, isa.OP_OP32):
            assert handler.__name__ == "alu_reg" and bound["fn"] is core._ALU[m], m
        elif opcode == isa.OP_BRANCH:
            assert handler.__name__ == "branch" and bound["cond"] is core._BRANCH[m], m
        built.get(handler.__name__, set()).add(m)
    assert built == {"load": set(_REF_LOAD), "store": set(_REF_STORE), "alu_imm": set(_REF_ALU_IMM)}


class LoggingOracle(ByteOracle):
    """A ByteOracle that logs each call with the destination register as
    the machine holds it at that moment, so a call made before the
    register write shows."""

    def __init__(self, st):
        super().__init__()
        self.st = st
        self.log = []

    def oracle_step(self, event, rd, info):
        self.log.append((event, rd, info, self.st.regs[rd], self.st.reg_tags[rd]))
        super().oracle_step(event, rd, info)

    def store_taints(self, rs, width):
        self.log.append(("store", rs, width))
        return super().store_taints(rs, width)


def _state(stt, mem, oracle):
    return (
        stt.pc, list(stt.regs), list(stt.reg_tags), stt.instret, stt.mispredicts, dict(stt.histogram),
        stt.halted, stt.exit_code, list(oracle.reg), len(oracle.log), mem_counters(mem),
    )


def _try_step(step_fn, stt, mem, shim, oracle):
    """None, or the exception one step raised as (type, message); the pc
    it left is compared through _state."""
    try:
        step_fn(stt, mem, shim, oracle)
    except (Trap, MemAccessError, BudgetExhausted) as exc:
        return type(exc), str(exc)
    return None


def _lockstep(make, max_steps):
    """Step a machine under step and one under _ref_step, both built by
    make(), and compare them after every step. Returns both machines and
    the steps taken."""
    new, ref = make(), make()
    for n in range(max_steps):
        outcome = _try_step(step, *new)
        assert outcome == _try_step(_ref_step, *ref), f"step {n}"
        assert _state(new[0], new[1], new[3]) == _state(ref[0], ref[1], ref[3]), f"step {n}"
        if outcome is not None or new[0].halted:
            break
    assert new[3].log == ref[3].log
    if new[2] is not None:
        assert bytes(new[2].stdout) == bytes(ref[2].stdout)
    return new, ref, n + 1


@pytest.fixture(scope="module")
def corpus_lockstep(corpus):
    """Each corpus program stepped once under both step functions: memory
    counts the union of every model's events, so one run serves all three
    models. Maps name to (new, ref)."""
    runs = {}
    for name, source, fs in corpus:
        program = asm.assemble(source)

        def make():
            stt, mem, shim = boot(program, fs)
            return stt, mem, shim, LoggingOracle(stt)

        new, ref, steps = _lockstep(make, 100_000)
        assert steps < 100_000, f"{name} did not finish"
        runs[name] = new, ref
    return runs


@pytest.mark.parametrize("model", MODELS)
def test_dispatch_matches_reference_on_corpus(corpus_lockstep, model):
    for name, (new, ref) in corpus_lockstep.items():
        assert counts(new[0], new[1], model) == counts(ref[0], ref[1], model), name


_REG = st.sampled_from([0, 0, 1, 2, 3, 4, 5])
_IMM = st.one_of(
    st.integers(-8, 8).map(lambda k: 4 * k),  # branch and jump targets near the sequence
    st.integers(-2048, 2047),
    st.integers(-(1 << 31), (1 << 31) - 1),
)
_WORD = st.builds(isa.encode, st.sampled_from(sorted(isa.SPECS)), _REG, _REG, _REG, _IMM)
# register values: the text (stores into it), a data window (aligned or
# not, loads and stores reach it), small counts and any 64-bit word
_VALUE = st.one_of(
    st.integers(DRAM_BASE, DRAM_BASE + 64),
    st.integers(DRAM_BASE + 0x1000, DRAM_BASE + 0x1100),
    st.integers(0, 64),
    U64,
)


@given(
    words=st.lists(_WORD, min_size=1, max_size=12),
    values=st.lists(_VALUE, min_size=5, max_size=5),
    tagged=st.lists(st.booleans(), min_size=5, max_size=5),
    tag_data=st.booleans(),
)
@settings(max_examples=300)
def test_dispatch_matches_reference_on_random_sequences(words, values, tagged, tag_data):
    """Short runs of instructions drawn from isa.SPECS, with no OS: equal
    state after every step, or the same exception with equal state. Both
    sides share one BlockMemo, so a long ctag walk's cipher work runs once."""
    memo = BlockMemo()

    def make():
        stt, mem = make_machine(words, memo=memo)
        if tag_data:
            mem.ctag_set_range(DRAM_BASE + 0x1000, 64, KEY)
        oracle = LoggingOracle(stt)
        for r, (value, tag) in enumerate(zip(values, tagged), start=1):
            stt.regs[r] = value
            stt.reg_tags[r] = int(tag)
            oracle.reg[r] = 0x0F if tag else 0
        return stt, mem, None, oracle

    new, ref, _ = _lockstep(make, 4 * len(words) + 4)
    for model in MODELS:
        assert counts(new[0], new[1], model) == counts(ref[0], ref[1], model), model


def test_dispatch_follows_a_store_into_text():
    """The memo is keyed by the word, so code a store rewrites runs as
    rewritten: sw overwrites the addi after it with addi x6, x0, 7."""
    new = isa.encode("addi", 6, imm=7)
    words = [isa.encode("sw", rs1=10, rs2=11, imm=4), isa.encode("addi", 6, imm=1)]
    stt, mem = make_machine(words)
    stt.regs[10] = DRAM_BASE
    stt.regs[11] = new
    core._entry(words[1])  # the old word is in the memo
    step(stt, mem)
    mem.flush_and_sync(KEY)  # the store reaches DRAM and the icache refills
    step(stt, mem)
    assert stt.regs[6] == 7


def test_dispatch_memo_is_bounded_and_rebuilds_an_evicted_word():
    """The memo keeps the most recently fetched words; an evicted word is
    decoded again on its next fetch, to the same mnemonic and behaviour."""
    maxsize = core._entry.cache_info().maxsize
    assert maxsize == 1 << 16
    words = [isa.encode("lui", rd=5, imm=(i + 1) << 12) for i in range(maxsize + 1000)]
    try:
        first = core._entry(words[0])
        for w in words:
            core._entry(w)
        info = core._entry.cache_info()
        assert info.currsize == maxsize
        again = core._entry(words[0])
        assert core._entry.cache_info().misses == info.misses + 1  # evicted, so decoded again
    finally:
        core._entry.cache_clear()
    assert again is not first and again[1] == first[1] == "lui"
    effects = []
    for handler, _ in (first, again):
        stt = MachineState(pc=DRAM_BASE)
        stt.reg_tags[5] = 1
        handler(stt, None, None, None, DRAM_BASE)
        effects.append((stt.regs[5], stt.reg_tags[5], stt.pc))
    assert effects == [(0x1000, 0, DRAM_BASE + 4)] * 2


# Each pass adds 0x1000 to the lui word at slot, stores it into text and
# switches threads, whose flush makes the icache fetch the new word: one
# new dispatch memo entry per 8 instructions. Pass k loads k << 12 into t0,
# and the guest exits after pass 12,800, past a budget of 100,000.
SELF_REWRITING = """
.org 0x80000000
la s0, slot
lw s1, 0(s0)
li s2, 0x1000
li s3, 0x3200000
loop: add s1, s1, s2
sw s1, 0(s0)
li a0, 0
li a7, 5000
ecall
slot: lui t0, 0
bne t0, s3, loop
li a7, 93
ecall
"""


def test_self_rewriting_guest_reads_the_same_with_a_cold_memo():
    reports = []
    for _ in range(2):
        res = simulate(SELF_REWRITING, max_instret=100_000)
        assert res.stop == "budget"
        assert core._entry.cache_info().currsize >= 100_000 // 8
        reports.append(emit_report(build_report({"baseline": res})))
        core._entry.cache_clear()
    assert reports[0] == reports[1]
