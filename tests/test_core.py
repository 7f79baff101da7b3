"""Interpreter core: decoding, ALU semantics against an independent
reference, traps, tag propagation, and cycle accounting hooks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conch import core, isa
from conch.core import (
    Breakpoint,
    BudgetExhausted,
    IllegalInstruction,
    Instr,
    MachineState,
    MisalignedFetch,
    Trap,
    decode,
    propagate_tag,
    run,
    step,
)
from conch.crypt import derive_thread_key, generate_master_key
from conch.mem import DRAM_BASE, DRAM_SIZE, MemAccessError, MemorySystem, MisalignedAccess
from conch.os_shim import SYS_GETRANDOM, SYS_OPENAT, SYS_READ, SYS_THREAD_SWITCH, SYS_WRITE, FileDesc, OsShim
from conch.report import ByteOracle, simulate

from conftest import odd_access_program

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
KEY = derive_thread_key(generate_master_key(0), 0)


def make_machine(words, data=()):
    """Tiny harness: place instruction words at the DRAM base and return
    (state, mem) ready to step."""
    mem = MemorySystem()
    blob = b"".join(w.to_bytes(4, "little") for w in words)
    mem.write_raw_init(mem.base, blob)
    for addr, value in data:
        mem.write_raw_init(addr, value.to_bytes(8, "little"))
    stt = MachineState(pc=mem.base, key=KEY)
    stt.regs[2] = mem.base + mem.size - 64
    return stt, mem


# ---- decode -----------------------------------------------------------------


def test_decode_fields():
    w = isa.enc_r(isa.OP_OP, 0b000, 0b0000000, 3, 4, 5)  # add x3, x4, x5
    assert decode(w) == Instr("add", 3, 4, 5, 0)
    w = isa.enc_i(isa.OP_IMM, 0b000, 1, 2, -7)
    assert decode(w) == Instr("addi", 1, 2, 0, -7)


def test_decode_is_memoized():
    w = isa.enc_i(isa.OP_IMM, 0b000, 1, 2, 42)
    assert decode(w) is decode(w)


@pytest.mark.parametrize(
    "word",
    [
        0x00000000,
        0xFFFFFFFF,
        isa.enc_r(isa.OP_OP, 0b000, 0b1111111, 1, 2, 3),  # bad funct7
        isa.enc_i(isa.OP_IMM, 0b001, 1, 2, 1 << 10),  # slli with funct6 set
        isa.enc_i(isa.OP_LOAD, 0b111, 1, 2, 0),  # no such load width
        isa.enc_i(isa.OP_JALR, 0b010, 1, 2, 0),  # jalr funct3 must be 0
        (2 << 12) | 0b1110011,  # system funct3 2
        isa.enc_r(isa.OP_CUSTOM0, 0b011, 0, 0, 1, 2),  # ctag funct3 3
        isa.enc_r(isa.OP_CUSTOM0, 0b000, 0, 5, 1, 2),  # ctag.set with rd set
    ],
)
def test_decode_rejects(word):
    with pytest.raises(IllegalInstruction):
        core._decode(word)


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
@settings(max_examples=800, deadline=None)
def test_alu_matches_reference(a, b, mnem):
    assert core._ALU[mnem](a, b) == REF[mnem](a, b), mnem


@pytest.mark.parametrize(
    "mnem,a,b",
    [
        ("div", 1 << 63, (1 << 64) - 1),  # INT64_MIN / -1
        ("rem", 1 << 63, (1 << 64) - 1),
        ("div", 5, 0),
        ("rem", 5, 0),
        ("divw", 0x80000000, 0xFFFFFFFF),
        ("remw", 0x80000000, 0xFFFFFFFF),
        ("divuw", 7, 0),
        ("remuw", 0xFFFFFFFF_00000005, 0),
    ],
)
def test_division_edges(mnem, a, b):
    assert core._ALU[mnem](a, b) == REF[mnem](a, b)


# ---- stepping ------------------------------------------------------------------


def test_x0_is_immutable():
    stt, mem = make_machine([isa.enc_i(isa.OP_IMM, 0b000, 0, 0, 5)])  # addi x0, x0, 5
    step(stt, mem)
    assert stt.regs[0] == 0 and stt.reg_tags[0] == 0


def test_branch_and_prediction_costs():
    # forward branch taken: static not-taken prediction misses
    beq = isa.enc_b(isa.OP_BRANCH, 0b000, 0, 0, 8)
    stt, mem = make_machine([beq, 0, 0])
    step(stt, mem)
    assert stt.pc == mem.base + 8
    taken_fwd = stt.cycles

    stt2, mem2 = make_machine([isa.enc_b(isa.OP_BRANCH, 0b001, 0, 0, 8), 0, 0])  # bne: not taken
    step(stt2, mem2)
    assert stt2.pc == mem2.base + 4
    nottaken_fwd = stt2.cycles
    assert taken_fwd == nottaken_fwd + mem.costs.mispredict


def test_jal_jalr_link_and_target():
    jal = isa.enc_j(isa.OP_JAL, 1, 12)
    stt, mem = make_machine([jal, 0, 0, isa.enc_i(isa.OP_JALR, 0b000, 5, 1, 1)])
    step(stt, mem)
    assert stt.pc == mem.base + 12
    assert stt.regs[1] == mem.base + 4 and stt.reg_tags[1] == 0
    step(stt, mem)  # jalr x5, 1(x1): odd target bit cleared
    assert stt.pc == mem.base + 4
    assert stt.regs[5] == mem.base + 16


def test_misaligned_fetch_traps():
    stt, mem = make_machine([0x13])
    stt.pc = mem.base + 2
    with pytest.raises(MisalignedFetch):
        step(stt, mem)


@pytest.mark.parametrize("no_cache", [False, True], ids=["cached", "no_cache"])
@pytest.mark.parametrize("mnem", ["lh", "lw", "ld", "sh", "sw", "sd"])
def test_misaligned_data_access_traps(mnem, no_cache):
    res = simulate(odd_access_program(mnem), no_cache=no_cache)
    assert res.stop == "trap"
    assert isinstance(res.st.trap, MisalignedAccess)
    assert res.st.instret == 3  # la and li retire; the access does not


@pytest.mark.parametrize("no_cache", [False, True], ids=["cached", "no_cache"])
@pytest.mark.parametrize("mnem", ["lb", "sb"])
def test_byte_access_at_odd_address_runs(mnem, no_cache):
    res = simulate(odd_access_program(mnem), no_cache=no_cache)
    assert res.stop == "exit"
    assert res.st.exit_code == 0


def test_ebreak_and_run_trap():
    stt, mem = make_machine([isa.enc_i(isa.OP_SYSTEM, 0, 0, 0, 1)])
    assert run(stt, mem) == "trap"
    assert isinstance(stt.trap, Breakpoint)
    assert stt.halted


def test_ecall_without_shim_traps():
    stt, mem = make_machine([isa.enc_i(isa.OP_SYSTEM, 0, 0, 0, 0)])
    with pytest.raises(Trap):
        step(stt, mem)


def test_run_budget():
    jal_self = isa.enc_j(isa.OP_JAL, 0, 0)
    stt, mem = make_machine([jal_self])
    assert run(stt, mem, max_instret=50) == "budget"
    assert stt.instret == 50


def test_histogram_counts():
    stt, mem = make_machine([0x13, 0x13, isa.enc_j(isa.OP_JAL, 0, -8)])
    run(stt, mem, max_instret=9)
    assert stt.histogram["addi"] == 6
    assert stt.histogram["jal"] == 3


# ---- tags through the machine ------------------------------------------------


def test_propagate_tag_rules():
    assert propagate_tag("add", 0, 0) == 0
    assert propagate_tag("add", 1, 0) == 1
    assert propagate_tag("xor", 0, 1) == 1
    assert propagate_tag("addi", 1) == 1
    assert propagate_tag("lui") == 0
    assert propagate_tag("jalr", 1) == 0
    assert propagate_tag("ctag.rdt", 1) == 0


def test_alu_tag_flow_in_machine():
    # x5 tagged; x6 = x5 + x7 must carry the tag, x8 = x7 + x7 must not
    add1 = isa.enc_r(isa.OP_OP, 0, 0, 6, 5, 7)
    add2 = isa.enc_r(isa.OP_OP, 0, 0, 8, 7, 7)
    stt, mem = make_machine([add1, add2])
    stt.reg_tags[5] = 1
    step(stt, mem)
    step(stt, mem)
    assert stt.reg_tags[6] == 1
    assert stt.reg_tags[8] == 0


def test_load_store_tag_flow():
    # sd tagged x5 to memory, ld back into x6: tag survives the round trip
    sd = isa.enc_s(isa.OP_STORE, 0b011, 10, 5, 0)
    ld = isa.enc_i(isa.OP_LOAD, 0b011, 6, 10, 0)
    stt, mem = make_machine([sd, ld])
    stt.regs[10] = mem.base + 0x1000
    stt.regs[5] = 0xABCD
    stt.reg_tags[5] = 1
    step(stt, mem)
    step(stt, mem)
    assert stt.regs[6] == 0xABCD
    assert stt.reg_tags[6] == 1
    assert mem.ctag_read(mem.base + 0x1000) == (1, 0)  # resident, free lookup
    mem.flush_and_sync(KEY)
    assert mem.word_tag(mem.base + 0x1000) == 1  # and now at rest too


def test_ctag_rdt_reads_but_never_taints():
    rdt = isa.enc_r(isa.OP_CUSTOM0, 0b010, 0, 6, 10, 0)
    stt, mem = make_machine([rdt])
    stt.regs[10] = mem.base + 0x2000
    mem.ctag_set_range(mem.base + 0x2000, 8, KEY)
    step(stt, mem)
    assert stt.regs[6] == 1
    assert stt.reg_tags[6] == 0


def test_mul_div_cycle_costs():
    mul = isa.enc_r(isa.OP_OP, 0b000, 1, 6, 5, 5)
    div = isa.enc_r(isa.OP_OP, 0b100, 1, 7, 5, 5)
    stt, mem = make_machine([mul, div])
    step(stt, mem)
    c_mul = stt.cycles
    step(stt, mem)
    c_div = stt.cycles - c_mul
    # first step pays the icache fill; strip it for the comparison
    assert c_mul - mem.costs.dram_access_latency == mem.costs.mul
    assert c_div == mem.costs.div


# ---- robustness: any word at the pc ------------------------------------------------

_OPCODES = [getattr(isa, n) for n in dir(isa) if n.startswith("OP_")]


def _random_regs(seed):
    """31 register values, each a random 64-bit word, a DRAM address or a
    small count, so that operands reach DRAM and syscalls succeed too."""
    rng = random.Random(seed)
    ranges = [(0, (1 << 64) - 1), (DRAM_BASE, DRAM_BASE + DRAM_SIZE - 1), (0, 4096)]
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
@settings(max_examples=400, deadline=None)
def test_any_word_raises_only_documented_errors(word, seed, a7, budget):
    """One step of an arbitrary word, with arbitrary registers, fails only
    with the exceptions run() turns into a trap or a budget stop."""
    mem = MemorySystem(model="b")
    mem.write_raw_init(mem.base, word.to_bytes(4, "little"))
    shim = OsShim(generate_master_key(0), fs={"f": b"x"})
    shim.fds[3] = FileDesc(path="f", flags=0, data=bytes(range(256)))
    stt = MachineState(pc=mem.base, key=KEY)
    stt.regs[1:] = _random_regs(seed)
    stt.regs[17] = a7
    stt.max_instret = budget
    try:
        step(stt, mem, shim, ByteOracle())
    except (Trap, MemAccessError, BudgetExhausted):
        pass
