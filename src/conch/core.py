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

step dispatches through one memo keyed by the fetched instruction word.
The first fetch (or decode) of a word decodes it and builds a handler
closure with its operands, semantics and immediate bound in; every later
fetch of that word calls the handler directly (threaded code, after Ertl
and Gregg, "The Structure and Performance of Efficient Interpreters",
JILP 2003). The word is the key, not the pc, so the memo never needs
invalidating: a store into text changes the word that the next fetch
returns.
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


def _decode(word):
    dec = isa.decode(word)
    if dec is None:
        raise IllegalInstruction(f"illegal instruction {word:#010x}")
    mnem, _fmt, operands = dec
    return Instr(mnem, *operands)


def decode(word) -> Instr:
    """Decode one 32-bit instruction word. Results are memoized in the
    dispatch memo (see step), so decode(w) is decode(w)."""
    return _entry(word)[2]


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

# The builders of the dispatch memo's handlers, one per instruction class
# (see the module docstring). A handler executes the instruction on
# (st, mem, shim, oracle, pc), sets st.pc and returns the cycles beyond
# the fetch. It changes st.pc only after every call that can raise, so a
# trapping instruction leaves the pc at itself. Costs are read from
# mem.costs when the handler runs, and the oracle and the memory system
# are called through their attributes, because handlers are shared by
# every MemorySystem in the process and the bench tracer wraps those
# attributes.


def _alu_reg(ins):
    m, rd, rs1, rs2, _ = ins
    fn = _ALU[m]
    cost = "mul" if m in _MUL_OPS else "div" if m in _DIV_OPS else "alu"
    src = (rs1, rs2)

    def alu_reg(st, mem, shim, oracle, pc):
        if rd:
            regs, tags = st.regs, st.reg_tags
            regs[rd] = fn(regs[rs1], regs[rs2])
            tags[rd] = tags[rs1] | tags[rs2]
        if oracle:
            oracle.oracle_step("alu", rd, src)
        st.pc = pc + 4
        return getattr(mem.costs, cost)

    return alu_reg


def _alu_imm(ins):
    m, rd, rs1, _, imm = ins
    fn = _ALU[_ALU_IMM[m]]
    imm &= MASK64
    src = (rs1,)

    def alu_imm(st, mem, shim, oracle, pc):
        if rd:
            st.regs[rd] = fn(st.regs[rs1], imm)
            st.reg_tags[rd] = st.reg_tags[rs1]
        if oracle:
            oracle.oracle_step("alu", rd, src)
        st.pc = pc + 4
        return mem.costs.alu

    return alu_imm


def _load(ins):
    m, rd, rs1, _, imm = ins
    width, signed = _LOAD_INFO[m]

    def load(st, mem, shim, oracle, pc):
        ea = (st.regs[rs1] + imm) & MASK64
        value, tag, cycles = mem.load(ea, width, signed, st.key)
        if rd:
            st.regs[rd] = value
            st.reg_tags[rd] = tag
        if oracle:
            oracle.oracle_step("load", rd, (mem.oracle_bits_for(ea, width), width, signed))
        st.pc = pc + 4
        return cycles

    return load


def _store(ins):
    m, _, rs1, rs2, imm = ins
    width = _STORE_INFO[m]

    def store(st, mem, shim, oracle, pc):
        ea = (st.regs[rs1] + imm) & MASK64
        taints = oracle.store_taints(rs2, width) if oracle else None
        cycles = mem.store(ea, width, st.regs[rs2], st.reg_tags[rs2], st.key, taints)
        st.pc = pc + 4
        return cycles

    return store


def _branch(ins):
    m, _, rs1, rs2, imm = ins
    cond = _BRANCH[m]
    backward = imm < 0  # the static predictor takes backward branches

    def branch(st, mem, shim, oracle, pc):
        costs = mem.costs
        if cond(st.regs[rs1], st.regs[rs2]):
            st.pc = (pc + imm) & MASK64
            return costs.branch if backward else costs.branch + costs.mispredict
        st.pc = pc + 4
        return costs.branch + costs.mispredict if backward else costs.branch

    return branch


def _generic(ins):
    """jal, jalr, lui, auipc, ecall, ebreak and the tag group. Results
    derived only from the pc or an immediate, and ctag.rdt's, carry no
    tag."""
    m, rd, rs1, rs2, imm = ins

    if m == "ecall":

        def ecall(st, mem, shim, oracle, pc):
            if shim is None:
                raise Trap("ecall with no OS attached", pc)
            cycles = mem.costs.alu + shim.handle_ecall(st, mem, oracle)
            st.pc = pc + 4
            return cycles

        return ecall

    if m == "ebreak":

        def ebreak(st, mem, shim, oracle, pc):
            raise Breakpoint(f"ebreak at {pc:#x}", pc)

        return ebreak

    if m in ("ctag.set", "ctag.clr"):
        exec_ctag = exec_ctag_set if m == "ctag.set" else exec_ctag_clear

        def ctag(st, mem, shim, oracle, pc):
            cycles = exec_ctag(st, mem, ins)
            st.pc = pc + 4
            return cycles

        return ctag

    if m == "ctag.rdt":

        def ctag_rdt(st, mem, shim, oracle, pc):
            tag, cycles = mem.ctag_read(st.regs[rs1])
            st.write_reg(rd, tag, 0)
            if oracle:
                oracle.oracle_step("clear", rd, None)
            st.pc = pc + 4
            return mem.costs.alu + cycles

        return ctag_rdt

    if m == "jal":

        def jal(st, mem, shim, oracle, pc):
            st.write_reg(rd, pc + 4, 0)
            if oracle:
                oracle.oracle_step("clear", rd, None)
            st.pc = (pc + imm) & MASK64
            return mem.costs.jump

        return jal

    if m == "jalr":

        def jalr(st, mem, shim, oracle, pc):
            target = (st.regs[rs1] + imm) & MASK64 & ~1
            st.write_reg(rd, pc + 4, 0)
            if oracle:
                oracle.oracle_step("clear", rd, None)
            st.pc = target
            return mem.costs.jump

        return jalr

    # lui, auipc
    pc_relative = m == "auipc"

    def upper(st, mem, shim, oracle, pc):
        st.write_reg(rd, pc + imm if pc_relative else imm, 0)
        if oracle:
            oracle.oracle_step("clear", rd, None)
        st.pc = pc + 4
        return mem.costs.alu

    return upper


def _build(ins):
    m = ins.mnem
    if m in _ALU:
        return _alu_reg(ins)
    if m in _ALU_IMM:
        return _alu_imm(ins)
    if m in _LOAD_INFO:
        return _load(ins)
    if m in _STORE_INFO:
        return _store(ins)
    if m in _BRANCH:
        return _branch(ins)
    return _generic(ins)


# word -> (handler, mnemonic, Instr) for every legal word fetched or decoded
# so far (see the module docstring)
_MEMO = {}


def _entry(word):
    entry = _MEMO.get(word)
    if entry is None:
        ins = _decode(word)
        entry = _MEMO[word] = (_build(ins), ins.mnem, ins)
    return entry


def step(st, mem, shim=None, oracle=None):
    """Fetch one instruction, run its handler from the dispatch memo and
    retire it; updates st in place and charges cycles through mem's cost
    table."""
    pc = st.pc
    if pc & 3:
        raise MisalignedFetch(f"pc {pc:#x}", pc)
    word, cycles = mem.fetch(pc, st.key)
    entry = _MEMO.get(word)
    if entry is None:
        entry = _entry(word)
    handler, m, _ = entry
    cycles += handler(st, mem, shim, oracle, pc)
    st.instret += 1
    st.cycles += cycles
    hist = st.histogram
    hist[m] = hist.get(m, 0) + 1


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
