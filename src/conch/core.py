"""RV64IM interpreter with one-bit data-flow tags on registers and memory
words, plus the tag-management instructions (ctag.set / ctag.clr /
ctag.rdt).

Tag propagation is word-granular and value-based: ALU results inherit the
OR of their source tags, loads inherit the tag of the word read,
stores write their source register's tag into the word tag (replacing it
on full-word stores, retaining-OR on narrower ones, handled by the memory
system). Instructions whose results derive only from the pc or an
immediate (lui, auipc, link writes) clear the destination tag. Address
registers never propagate into loaded data; that is the usual DIFT data
rule, pointer taint is out of scope.

The byte-granular oracle shadow (see report.ByteOracle) is driven from
here through a small duck-typed interface so the measured over-tagging is
computed against the same instruction stream.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import isa
from .isa import MASK64, sext
from .mem import MemAccessError


class Trap(Exception):
    """Architectural trap that ends execution."""

    def __init__(self, msg, pc=None):
        super().__init__(msg)
        self.pc = pc


class IllegalInstruction(Trap):
    pass


class Breakpoint(Trap):
    """ebreak; there is no debugger, so it halts."""


class MisalignedFetch(Trap):
    pass


class StrictWriteViolation(Trap):
    """write() of tagged data while --strict-write is in force."""


class BudgetExhausted(Exception):
    """A kernel-side copy would overrun the instruction budget; the run
    stops with "budget", not with a trap."""


class Instr(NamedTuple):
    mnem: str
    rd: int
    rs1: int
    rs2: int
    imm: int  # sign-extended and ready to use; shamt for shifts


# ---- decoder ---------------------------------------------------------------

# isa.SPECS holds the encodings; this layer turns a decoded word into an
# Instr, or a trap when no encoding matches.

_DEC_CACHE = {}


def _decode(word):
    dec = isa.decode(word)
    if dec is None:
        raise IllegalInstruction(f"illegal instruction {word:#010x}")
    mnem, _fmt, operands = dec
    return Instr(mnem, *operands)


def decode(word) -> Instr:
    """Decode one 32-bit instruction word. Results are memoized; code is
    static (no self-modifying programs), so the cache only grows."""
    ins = _DEC_CACHE.get(word)
    if ins is None:
        ins = _decode(word)
        _DEC_CACHE[word] = ins
    return ins


# ---- ALU semantics ----------------------------------------------------------


def _s64(x):
    return x - 0x1_0000_0000_0000_0000 if x & 0x8000_0000_0000_0000 else x


def _s32(x):
    x &= 0xFFFFFFFF
    return x - 0x1_0000_0000 if x & 0x8000_0000 else x


def _w(x):
    return sext(x & 0xFFFFFFFF, 32) & MASK64


def _div_trunc(a, b):
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _div(a, b):
    sa, sb = _s64(a), _s64(b)
    if sb == 0:
        return MASK64
    if sa == -(1 << 63) and sb == -1:
        return a
    return _div_trunc(sa, sb) & MASK64


def _rem(a, b):
    sa, sb = _s64(a), _s64(b)
    if sb == 0:
        return a
    if sa == -(1 << 63) and sb == -1:
        return 0
    return (sa - _div_trunc(sa, sb) * sb) & MASK64


def _divw(a, b):
    sa, sb = _s32(a), _s32(b)
    if sb == 0:
        return MASK64
    if sa == -(1 << 31) and sb == -1:
        return sext(sa, 32) & MASK64
    return _div_trunc(sa, sb) & MASK64


def _remw(a, b):
    sa, sb = _s32(a), _s32(b)
    if sb == 0:
        return sext(sa, 32) & MASK64
    if sa == -(1 << 31) and sb == -1:
        return 0
    return (sa - _div_trunc(sa, sb) * sb) & MASK64


_ALU = {
    "add": lambda a, b: (a + b) & MASK64,
    "sub": lambda a, b: (a - b) & MASK64,
    "sll": lambda a, b: (a << (b & 63)) & MASK64,
    "slt": lambda a, b: 1 if _s64(a) < _s64(b) else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a >> (b & 63),
    "sra": lambda a, b: (_s64(a) >> (b & 63)) & MASK64,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "mul": lambda a, b: (a * b) & MASK64,
    "mulh": lambda a, b: ((_s64(a) * _s64(b)) >> 64) & MASK64,
    "mulhsu": lambda a, b: ((_s64(a) * b) >> 64) & MASK64,
    "mulhu": lambda a, b: (a * b) >> 64,
    "div": _div,
    "divu": lambda a, b: MASK64 if b == 0 else (a // b),
    "rem": _rem,
    "remu": lambda a, b: a if b == 0 else (a % b),
    "addw": lambda a, b: _w(a + b),
    "subw": lambda a, b: _w(a - b),
    "sllw": lambda a, b: _w(a << (b & 31)),
    "srlw": lambda a, b: _w((a & 0xFFFFFFFF) >> (b & 31)),
    "sraw": lambda a, b: _w(_s32(a) >> (b & 31)),
    "mulw": lambda a, b: _w(a * b),
    "divw": _divw,
    "divuw": lambda a, b: MASK64 if b & 0xFFFFFFFF == 0 else _w((a & 0xFFFFFFFF) // (b & 0xFFFFFFFF)),
    "remw": _remw,
    "remuw": lambda a, b: _w(a) if b & 0xFFFFFFFF == 0 else _w((a & 0xFFFFFFFF) % (b & 0xFFFFFFFF)),
}

_ALU_IMM = {
    "addi": "add",
    "slti": "slt",
    "sltiu": "sltu",
    "xori": "xor",
    "ori": "or",
    "andi": "and",
    "slli": "sll",
    "srli": "srl",
    "srai": "sra",
    "addiw": "addw",
    "slliw": "sllw",
    "srliw": "srlw",
    "sraiw": "sraw",
}

_BRANCH = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _s64(a) < _s64(b),
    "bge": lambda a, b: _s64(a) >= _s64(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

_MUL_OPS = frozenset({"mul", "mulh", "mulhsu", "mulhu", "mulw"})
_DIV_OPS = frozenset({"div", "divu", "rem", "remu", "divw", "divuw", "remw", "remuw"})
# mnemonic -> (width, signed) and mnemonic -> width
_LOAD_INFO = {
    "lb": (1, True),
    "lh": (2, True),
    "lw": (4, True),
    "ld": (8, True),
    "lbu": (1, False),
    "lhu": (2, False),
    "lwu": (4, False),
}
_STORE_INFO = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

_CLEARS_TAG = frozenset({"lui", "auipc", "jal", "jalr", "ctag.rdt"})


def propagate_tag(mnem, *src_tags):
    """Word-level DIFT rule for register-writing instructions: OR of the
    source tags, except for results derived only from pc or immediates."""
    if mnem in _CLEARS_TAG:
        return 0
    t = 0
    for s in src_tags:
        t |= s
    return t


# ---- machine state ----------------------------------------------------------


class MachineState:
    __slots__ = (
        "regs",
        "reg_tags",
        "pc",
        "instret",
        "cycles",
        "histogram",
        "halted",
        "exit_code",
        "trap",
        "tid",
        "key",
        "max_instret",
        "copy_words",
    )

    def __init__(self, pc=0, key=None):
        self.regs = [0] * 32
        self.reg_tags = [0] * 32
        self.pc = pc
        self.instret = 0
        self.cycles = 0
        self.histogram = {}
        self.halted = False
        self.exit_code = 0
        self.trap: Optional[BaseException] = None
        self.tid = 0
        self.key = key
        self.max_instret = None
        self.copy_words = 0

    def write_reg(self, rd, value, tag):
        if rd:
            self.regs[rd] = value & MASK64
            self.reg_tags[rd] = tag

    def charge_copy(self, words):
        """Count a kernel-side copy of `words` word accesses against the
        instruction budget, which retired instructions and copied words
        share. A copy that, with the ecall making it, would overrun the
        budget raises BudgetExhausted before it starts."""
        if self.max_instret is not None and self.instret + 1 + self.copy_words + words > self.max_instret:
            raise BudgetExhausted(f"kernel copy of {words} words at pc {self.pc:#x} overruns the budget")
        self.copy_words += words


# ---- tag management instructions --------------------------------------------


def exec_ctag_set(st, mem, ins):
    """ctag.set rs1, rs2: mark [rs1, rs1+rs2) sensitive. Every word the
    range overlaps gets its tag set; the byte oracle records exactly the
    covered bytes. Returns cycles."""
    return mem.costs.alu + mem.ctag_set_range(st.regs[ins.rs1], st.regs[ins.rs2], st.key)


def exec_ctag_clear(st, mem, ins):
    """ctag.clr rs1, rs2: declassify [rs1, rs1+rs2). Only words fully
    inside the range lose their tag. Returns cycles."""
    return mem.costs.alu + mem.ctag_clear_range(st.regs[ins.rs1], st.regs[ins.rs2], st.key)


# ---- execution ---------------------------------------------------------------


def step(st, mem, shim=None, oracle=None):
    """Fetch, decode, execute one instruction; updates st in place and
    charges cycles through mem's cost table."""
    pc = st.pc
    if pc & 3:
        raise MisalignedFetch(f"pc {pc:#x}", pc)
    word, cycles = mem.fetch(pc, st.key)
    ins = decode(word)
    m = ins.mnem
    regs = st.regs
    tags = st.reg_tags
    costs = mem.costs
    next_pc = pc + 4

    fn = _ALU.get(m)
    if fn is not None:
        st.write_reg(ins.rd, fn(regs[ins.rs1], regs[ins.rs2]), propagate_tag(m, tags[ins.rs1], tags[ins.rs2]))
        cycles += costs.mul if m in _MUL_OPS else costs.div if m in _DIV_OPS else costs.alu
        if oracle:
            oracle.oracle_step("alu", ins.rd, (ins.rs1, ins.rs2))
    elif m in _ALU_IMM:
        fn = _ALU[_ALU_IMM[m]]
        st.write_reg(ins.rd, fn(regs[ins.rs1], ins.imm & MASK64), propagate_tag(m, tags[ins.rs1]))
        cycles += costs.alu
        if oracle:
            oracle.oracle_step("alu", ins.rd, (ins.rs1,))
    elif m in _LOAD_INFO:
        width, signed = _LOAD_INFO[m]
        ea = (regs[ins.rs1] + ins.imm) & MASK64
        value, tag, c = mem.load(ea, width, signed, st.key)
        st.write_reg(ins.rd, value, tag)
        cycles += c
        if oracle:
            oracle.oracle_step("load", ins.rd, (mem.oracle_bits_for(ea, width), width, signed))
    elif m in _STORE_INFO:
        width = _STORE_INFO[m]
        ea = (regs[ins.rs1] + ins.imm) & MASK64
        taints = oracle.store_taints(ins.rs2, width) if oracle else None
        cycles += mem.store(ea, width, regs[ins.rs2], tags[ins.rs2], st.key, taints)
    elif m in _BRANCH:
        taken = _BRANCH[m](regs[ins.rs1], regs[ins.rs2])
        cycles += costs.branch
        if taken != (ins.imm < 0):  # static predictor: backward taken
            cycles += costs.mispredict
        if taken:
            next_pc = (pc + ins.imm) & MASK64
    elif m == "jal":
        st.write_reg(ins.rd, next_pc, 0)
        next_pc = (pc + ins.imm) & MASK64
        cycles += costs.jump
        if oracle:
            oracle.oracle_step("clear", ins.rd, None)
    elif m == "jalr":
        target = (regs[ins.rs1] + ins.imm) & MASK64 & ~1
        st.write_reg(ins.rd, next_pc, 0)
        next_pc = target
        cycles += costs.jump
        if oracle:
            oracle.oracle_step("clear", ins.rd, None)
    elif m == "lui":
        st.write_reg(ins.rd, ins.imm & MASK64, 0)
        cycles += costs.alu
        if oracle:
            oracle.oracle_step("clear", ins.rd, None)
    elif m == "auipc":
        st.write_reg(ins.rd, (pc + ins.imm) & MASK64, 0)
        cycles += costs.alu
        if oracle:
            oracle.oracle_step("clear", ins.rd, None)
    elif m == "ecall":
        if shim is None:
            raise Trap("ecall with no OS attached", pc)
        cycles += costs.alu + shim.handle_ecall(st, mem, oracle)
    elif m == "ebreak":
        raise Breakpoint(f"ebreak at {pc:#x}", pc)
    elif m == "ctag.set":
        cycles += exec_ctag_set(st, mem, ins)
    elif m == "ctag.clr":
        cycles += exec_ctag_clear(st, mem, ins)
    else:  # ctag.rdt
        tag, c = mem.ctag_read(regs[ins.rs1])
        st.write_reg(ins.rd, tag, 0)
        cycles += costs.alu + c
        if oracle:
            oracle.oracle_step("clear", ins.rd, None)

    st.pc = next_pc
    st.instret += 1
    st.cycles += cycles
    st.histogram[m] = st.histogram.get(m, 0) + 1


def run(st, mem, shim=None, oracle=None, max_instret=None):
    """Run to completion. Returns a stop reason: "exit" (the program
    called exit), "budget" (max_instret spent on retired instructions and
    kernel-copied words), or "trap" with the exception recorded on
    st.trap."""
    st.max_instret = max_instret
    try:
        while not st.halted:
            if max_instret is not None and st.instret + st.copy_words >= max_instret:
                return "budget"
            step(st, mem, shim, oracle)
    except BudgetExhausted:
        return "budget"
    except (Trap, MemAccessError) as exc:
        st.halted = True
        st.trap = exc
        return "trap"
    return "exit"
