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
The first fetch of a word decodes it and builds a handler closure with
its operands, semantics and immediate bound in. Handlers are built by
encoding class: the opcode picks the builder, which reads widths,
signedness and OP-IMM twins from isa.SPECS. Every later fetch of that
word calls the handler directly (threaded code, after Ertl and Gregg,
"The Structure and Performance of Efficient Interpreters", JILP 2003).
The memo is an LRU cache of 65,536 words (32-40 MiB full on CPython
3.11), as QEMU bounds its translation cache; an evicted word is decoded
again on its next fetch. The word is the key, not the pc, so the memo
never needs invalidating. A store into text reaches fetch only once the
dcache line is written back and the icache line refilled (a thread
switch's flush does both, as does evicting both lines); until then the
icache returns the old word, as RISC-V does without fence.i.
"""

from __future__ import annotations

import functools
from typing import Optional

from . import isa
from .isa import MASK64, sext
from .mem import MemAccessError

DEFAULT_MAX_INSTRET = 100_000_000  # retired instructions plus kernel-copied words


class Trap(Exception):
    """Architectural trap that ends execution. Its pc is st.pc: a
    trapping instruction leaves the pc at itself."""


class IllegalInstruction(Trap):
    pass


class Breakpoint(Trap):
    """ebreak; there is no debugger, so it halts."""


class MisalignedFetch(Trap):
    pass


class StrictWriteViolation(Trap):
    """write() of tagged data while --strict-write is in force."""


class BudgetExhausted(Exception):
    """A kernel-side copy or a ctag walk would overrun the instruction
    budget; the run stops with "budget", not with a trap."""


# ---- ALU semantics ----------------------------------------------------------


def _s64(x):
    return x - 0x1_0000_0000_0000_0000 if x & 0x8000_0000_0000_0000 else x


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
    "sraw": lambda a, b: _w(_s64(_w(a)) >> (b & 31)),
    "mulw": lambda a, b: _w(a * b),
    # as the RISC-V spec defines them: div and rem of the sign-extended words
    "divw": lambda a, b: _w(_div(_w(a), _w(b))),
    "divuw": lambda a, b: MASK64 if b & 0xFFFFFFFF == 0 else _w((a & 0xFFFFFFFF) // (b & 0xFFFFFFFF)),
    "remw": lambda a, b: _w(_rem(_w(a), _w(b))),
    "remuw": lambda a, b: _w(a) if b & 0xFFFFFFFF == 0 else _w((a & 0xFFFFFFFF) % (b & 0xFFFFFFFF)),
}

# (opcode, funct3, funct7) -> mnemonic, and the OP twin of each OP-IMM opcode
_BY_FIELDS = {spec[1:]: m for m, spec in isa.SPECS.items()}
_OP_TWIN = {isa.OP_IMM: isa.OP_OP, isa.OP_IMM32: isa.OP_OP32}

_BRANCH = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _s64(a) < _s64(b),
    "bge": lambda a, b: _s64(a) >= _s64(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

# ---- machine state ----------------------------------------------------------


class MachineState:
    __slots__ = (
        "regs",
        "reg_tags",
        "pc",
        "instret",
        "mispredicts",
        "histogram",
        "halted",
        "exit_code",
        "trap",
        "key",
        "max_instret",
        "copy_words",
    )

    def __init__(self, pc=0, key=None):
        self.regs = [0] * 32
        self.reg_tags = [0] * 32
        self.pc = pc
        self.instret = 0
        self.mispredicts = 0
        self.histogram = {}
        self.halted = False
        self.exit_code = 0
        self.trap: Optional[BaseException] = None
        self.key = key
        self.max_instret = DEFAULT_MAX_INSTRET
        self.copy_words = 0

    def write_reg(self, rd, value, tag):
        if rd:
            self.regs[rd] = value & MASK64
            self.reg_tags[rd] = tag

    def charge_copy(self, words):
        """Count a kernel-side copy (or a ctag walk) of `words` word
        accesses against the instruction budget, which retired
        instructions and copied words share. A copy that, with the
        instruction making it, would overrun the budget raises
        BudgetExhausted before it starts."""
        if self.instret + 1 + self.copy_words + words > self.max_instret:
            raise BudgetExhausted(f"copy of {words} words at pc {self.pc:#x} overruns the budget")
        self.copy_words += words


# ---- execution ---------------------------------------------------------------

# The builders of the dispatch memo's handlers, one per encoding class
# (see the module docstring). A handler executes the instruction on
# (st, mem, shim, oracle, pc) and sets st.pc. It changes st.pc only after
# every call that can raise, so a trapping instruction leaves the pc at
# itself. The oracle and the memory system are called through their
# attributes, because the bench tracer wraps those attributes.


def _alu_reg(ins):
    m, rd, rs1, rs2, _ = ins
    fn = _ALU[m]
    src = (rs1, rs2)

    def alu_reg(st, mem, shim, oracle, pc):
        if rd:
            regs, tags = st.regs, st.reg_tags
            regs[rd] = fn(regs[rs1], regs[rs2])
            tags[rd] = tags[rs1] | tags[rs2]
        if oracle:
            oracle.oracle_step("alu", rd, src)
        st.pc = pc + 4

    return alu_reg


def _alu_imm(ins):
    m, rd, rs1, _, imm = ins
    # OP-IMM (OP-IMM-32) runs the OP (OP-32) operation of the same funct3
    # and funct7, which an I-format entry leaves None for 0
    _, opcode, funct3, funct7 = isa.SPECS[m]
    fn = _ALU[_BY_FIELDS[_OP_TWIN[opcode], funct3, funct7 or 0]]
    imm &= MASK64
    src = (rs1,)

    def alu_imm(st, mem, shim, oracle, pc):
        if rd:
            st.regs[rd] = fn(st.regs[rs1], imm)
            st.reg_tags[rd] = st.reg_tags[rs1]
        if oracle:
            oracle.oracle_step("alu", rd, src)
        st.pc = pc + 4

    return alu_imm


def _load(ins):
    m, rd, rs1, _, imm = ins
    funct3 = isa.SPECS[m][2]  # bit 2: zero-extend; bits 1-0: log2 width
    width, signed = 1 << (funct3 & 3), funct3 < 4

    def load(st, mem, shim, oracle, pc):
        ea = (st.regs[rs1] + imm) & MASK64
        value, tag = mem.load(ea, width, signed, st.key)
        if rd:
            st.regs[rd] = value
            st.reg_tags[rd] = tag
        if oracle:
            oracle.oracle_step("load", rd, (mem.oracle_bits_for(ea, width), width, signed))
        st.pc = pc + 4

    return load


def _store(ins):
    m, _, rs1, rs2, imm = ins
    width = 1 << isa.SPECS[m][2]  # funct3: log2 width

    def store(st, mem, shim, oracle, pc):
        ea = (st.regs[rs1] + imm) & MASK64
        taints = oracle.store_taints(rs2, width) if oracle else None
        mem.store(ea, width, st.regs[rs2], st.reg_tags[rs2], st.key, taints)
        st.pc = pc + 4

    return store


def _branch(ins):
    m, _, rs1, rs2, imm = ins
    cond = _BRANCH[m]
    backward = imm < 0  # the static predictor takes backward branches

    def branch(st, mem, shim, oracle, pc):
        taken = cond(st.regs[rs1], st.regs[rs2])
        if taken != backward:
            st.mispredicts += 1
        st.pc = (pc + imm) & MASK64 if taken else pc + 4

    return branch


def _generic(ins):
    """jal, jalr, lui, auipc, ecall, ebreak and the tag group. Results
    derived only from the pc or an immediate, and ctag.rdt's, carry no
    tag."""
    m, rd, rs1, rs2, imm = ins

    if m == "ecall":

        def ecall(st, mem, shim, oracle, pc):
            if shim is None:
                raise Trap("ecall with no OS attached")
            shim.handle_ecall(st, mem, oracle)
            st.pc = pc + 4

        return ecall

    if m == "ebreak":

        def ebreak(st, mem, shim, oracle, pc):
            raise Breakpoint(f"ebreak at {pc:#x}")

        return ebreak

    if m in ("ctag.set", "ctag.clr"):
        # ctag.set rs1, rs2 marks [rs1, rs1+rs2) sensitive: every word the
        # range overlaps gets its tag set. ctag.clr declassifies it: only
        # words wholly inside lose their tag. Either way the byte oracle
        # follows exactly the covered bytes.
        on = m == "ctag.set"

        def ctag(st, mem, shim, oracle, pc):
            ctag_range = mem.ctag_set_range if on else mem.ctag_clear_range
            # the walk is charged like a kernel copy, before it starts
            ctag_range(st.regs[rs1], st.regs[rs2], st.key, st.charge_copy)
            st.pc = pc + 4

        return ctag

    if m == "ctag.rdt":

        def ctag_rdt(st, mem, shim, oracle, pc):
            st.write_reg(rd, mem.ctag_read(st.regs[rs1]), 0)
            if oracle:
                oracle.oracle_step("clear", rd, None)
            st.pc = pc + 4

        return ctag_rdt

    if m == "jal":

        def jal(st, mem, shim, oracle, pc):
            st.write_reg(rd, pc + 4, 0)
            if oracle:
                oracle.oracle_step("clear", rd, None)
            st.pc = (pc + imm) & MASK64

        return jal

    if m == "jalr":

        def jalr(st, mem, shim, oracle, pc):
            target = (st.regs[rs1] + imm) & MASK64 & ~1
            st.write_reg(rd, pc + 4, 0)
            if oracle:
                oracle.oracle_step("clear", rd, None)
            st.pc = target

        return jalr

    # lui, auipc
    pc_relative = m == "auipc"

    def upper(st, mem, shim, oracle, pc):
        st.write_reg(rd, pc + imm if pc_relative else imm, 0)
        if oracle:
            oracle.oracle_step("clear", rd, None)
        st.pc = pc + 4

    return upper


# opcode -> builder; every other opcode's handler comes from _generic
_BUILDERS = {
    isa.OP_OP: _alu_reg,
    isa.OP_OP32: _alu_reg,
    isa.OP_IMM: _alu_imm,
    isa.OP_IMM32: _alu_imm,
    isa.OP_LOAD: _load,
    isa.OP_STORE: _store,
    isa.OP_BRANCH: _branch,
}


@functools.lru_cache(maxsize=1 << 16)
def _entry(word):
    """The memo's (handler, mnemonic) for word; an illegal word traps."""
    dec = isa.decode(word)
    if dec is None:
        raise IllegalInstruction(f"illegal instruction {word:#010x}")
    mnem, _fmt, operands = dec
    return _BUILDERS.get(word & 0x7F, _generic)((mnem, *operands)), mnem


def step(st, mem, shim=None, oracle=None):
    """Fetch one instruction, run its handler from the dispatch memo and
    retire it; updates st in place. The instruction's events are counted
    on st and mem as they happen, so a trapping one leaves its partial
    work counted (see report.counts)."""
    pc = st.pc
    if pc & 3:
        raise MisalignedFetch(f"pc {pc:#x}")
    handler, m = _entry(mem.fetch(pc, st.key))
    handler(st, mem, shim, oracle, pc)
    st.instret += 1
    hist = st.histogram
    hist[m] = hist.get(m, 0) + 1


def run(st, mem, shim=None, oracle=None):
    """Run to completion. Returns a stop reason: "exit" (the program
    called exit), "budget" (st.max_instret spent on retired instructions
    and kernel-copied words), or "trap" with the exception recorded on
    st.trap."""
    max_instret = st.max_instret
    try:
        while not st.halted:
            if st.instret + st.copy_words >= max_instret:
                return "budget"
            step(st, mem, shim, oracle)
    except BudgetExhausted:
        return "budget"
    except (Trap, MemAccessError) as exc:
        st.halted = True
        st.trap = exc
        return "trap"
    return "exit"
