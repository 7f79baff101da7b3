"""The instruction set: one table of encodings, and the decoder built on it.

Covers RV64I base, the M extension, ecall/ebreak, and the custom tag
management group on the custom-0 opcode. Encodings follow the standard
R/I/S/B/U/J formats; the tag group is R-format with funct7=0.

SPECS is the only table of encodings, and _FORMATS the only description
of each format's operand fields. The enc_* packers and decode() are built
on both: decode() matches words against the (mask, match) pair each SPECS
entry yields, as riscv-opcodes derives Spike's decoder, and the
interpreter and the disassembler both read instructions through it.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

OP_LUI = 0b0110111
OP_AUIPC = 0b0010111
OP_JAL = 0b1101111
OP_JALR = 0b1100111
OP_BRANCH = 0b1100011
OP_LOAD = 0b0000011
OP_STORE = 0b0100011
OP_IMM = 0b0010011
OP_IMM32 = 0b0011011
OP_OP = 0b0110011
OP_OP32 = 0b0111011
OP_SYSTEM = 0b1110011
OP_CUSTOM0 = 0b0001011  # tag management group

# mnemonic -> (format, opcode, funct3, funct7)
# format is one of R, I, S, B, U, J, SHIFT64, SHIFT32, SYS, CTAG, CTAGRD.
# SHIFT64 keeps funct6 in funct7's place and SYS its 12-bit immediate.
SPECS = {
    "lui": ("U", OP_LUI, None, None),
    "auipc": ("U", OP_AUIPC, None, None),
    "jal": ("J", OP_JAL, None, None),
    "jalr": ("I", OP_JALR, 0b000, None),
    "beq": ("B", OP_BRANCH, 0b000, None),
    "bne": ("B", OP_BRANCH, 0b001, None),
    "blt": ("B", OP_BRANCH, 0b100, None),
    "bge": ("B", OP_BRANCH, 0b101, None),
    "bltu": ("B", OP_BRANCH, 0b110, None),
    "bgeu": ("B", OP_BRANCH, 0b111, None),
    "lb": ("I", OP_LOAD, 0b000, None),
    "lh": ("I", OP_LOAD, 0b001, None),
    "lw": ("I", OP_LOAD, 0b010, None),
    "ld": ("I", OP_LOAD, 0b011, None),
    "lbu": ("I", OP_LOAD, 0b100, None),
    "lhu": ("I", OP_LOAD, 0b101, None),
    "lwu": ("I", OP_LOAD, 0b110, None),
    "sb": ("S", OP_STORE, 0b000, None),
    "sh": ("S", OP_STORE, 0b001, None),
    "sw": ("S", OP_STORE, 0b010, None),
    "sd": ("S", OP_STORE, 0b011, None),
    "addi": ("I", OP_IMM, 0b000, None),
    "slti": ("I", OP_IMM, 0b010, None),
    "sltiu": ("I", OP_IMM, 0b011, None),
    "xori": ("I", OP_IMM, 0b100, None),
    "ori": ("I", OP_IMM, 0b110, None),
    "andi": ("I", OP_IMM, 0b111, None),
    "slli": ("SHIFT64", OP_IMM, 0b001, 0b000000),
    "srli": ("SHIFT64", OP_IMM, 0b101, 0b000000),
    "srai": ("SHIFT64", OP_IMM, 0b101, 0b010000),
    "addiw": ("I", OP_IMM32, 0b000, None),
    "slliw": ("SHIFT32", OP_IMM32, 0b001, 0b0000000),
    "srliw": ("SHIFT32", OP_IMM32, 0b101, 0b0000000),
    "sraiw": ("SHIFT32", OP_IMM32, 0b101, 0b0100000),
    "add": ("R", OP_OP, 0b000, 0b0000000),
    "sub": ("R", OP_OP, 0b000, 0b0100000),
    "sll": ("R", OP_OP, 0b001, 0b0000000),
    "slt": ("R", OP_OP, 0b010, 0b0000000),
    "sltu": ("R", OP_OP, 0b011, 0b0000000),
    "xor": ("R", OP_OP, 0b100, 0b0000000),
    "srl": ("R", OP_OP, 0b101, 0b0000000),
    "sra": ("R", OP_OP, 0b101, 0b0100000),
    "or": ("R", OP_OP, 0b110, 0b0000000),
    "and": ("R", OP_OP, 0b111, 0b0000000),
    "mul": ("R", OP_OP, 0b000, 0b0000001),
    "mulh": ("R", OP_OP, 0b001, 0b0000001),
    "mulhsu": ("R", OP_OP, 0b010, 0b0000001),
    "mulhu": ("R", OP_OP, 0b011, 0b0000001),
    "div": ("R", OP_OP, 0b100, 0b0000001),
    "divu": ("R", OP_OP, 0b101, 0b0000001),
    "rem": ("R", OP_OP, 0b110, 0b0000001),
    "remu": ("R", OP_OP, 0b111, 0b0000001),
    "addw": ("R", OP_OP32, 0b000, 0b0000000),
    "subw": ("R", OP_OP32, 0b000, 0b0100000),
    "sllw": ("R", OP_OP32, 0b001, 0b0000000),
    "srlw": ("R", OP_OP32, 0b101, 0b0000000),
    "sraw": ("R", OP_OP32, 0b101, 0b0100000),
    "mulw": ("R", OP_OP32, 0b000, 0b0000001),
    "divw": ("R", OP_OP32, 0b100, 0b0000001),
    "divuw": ("R", OP_OP32, 0b101, 0b0000001),
    "remw": ("R", OP_OP32, 0b110, 0b0000001),
    "remuw": ("R", OP_OP32, 0b111, 0b0000001),
    "ecall": ("SYS", OP_SYSTEM, 0b000, 0),
    "ebreak": ("SYS", OP_SYSTEM, 0b000, 1),
    "ctag.set": ("CTAG", OP_CUSTOM0, 0b000, 0b0000000),
    "ctag.clr": ("CTAG", OP_CUSTOM0, 0b001, 0b0000000),
    "ctag.rdt": ("CTAGRD", OP_CUSTOM0, 0b010, 0b0000000),
}

_ABI = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
]

REGS = {f"x{i}": i for i in range(32)}
REGS.update({name: i for i, name in enumerate(_ABI)})
REGS["fp"] = 8

REG_NAME = [f"x{i}" for i in range(32)]


def sext(value, bits):
    """Sign-extend the low `bits` of value to a Python int."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


# Operand fields of each format, described as riscv-opcodes' arg_lut
# describes them: the register fields it uses, then its immediate as
# (word bit, width, immediate bit) slices and the width the immediate is
# sign-extended from (0: unsigned). Every bit outside these fields is fixed
# by the mnemonic. CTAG is ctag.set/ctag.clr rs1, rs2; CTAGRD is ctag.rdt
# rd, rs1. The enc_* packers and decode() both read this table.
_FORMATS = {
    "R": (("rd", "rs1", "rs2"), (), 0),
    "I": (("rd", "rs1"), ((20, 12, 0),), 12),
    "S": (("rs1", "rs2"), ((7, 5, 0), (25, 7, 5)), 12),
    "B": (("rs1", "rs2"), ((8, 4, 1), (25, 6, 5), (7, 1, 11), (31, 1, 12)), 13),
    "U": (("rd",), ((12, 20, 12),), 32),
    "J": (("rd",), ((21, 10, 1), (20, 1, 11), (12, 8, 12), (31, 1, 20)), 21),
    "SHIFT64": (("rd", "rs1"), ((20, 6, 0),), 0),
    "SHIFT32": (("rd", "rs1"), ((20, 5, 0),), 0),
    "SYS": ((), (), 0),
    "CTAG": (("rs1", "rs2"), (), 0),
    "CTAGRD": (("rd", "rs1"), (), 0),
}
_REG_SHIFT = {"rd": 7, "rs1": 15, "rs2": 20}


def _pack(fmt, fixed, rd=0, rs1=0, rs2=0, imm=0):
    """Place operands into the fields of `fmt` over the fixed bits; the
    inverse of _operands for in-range operands."""
    regs, slices, _ = _FORMATS[fmt]
    word = fixed
    for r, value in zip(_REG_SHIFT, (rd, rs1, rs2)):
        if r in regs:
            word |= value << _REG_SHIFT[r]
    for at, width, to in slices:
        word |= ((imm >> to) & ((1 << width) - 1)) << at
    return word


def enc_r(opcode, f3, f7, rd, rs1, rs2):
    return _pack("R", opcode | f3 << 12 | f7 << 25, rd, rs1, rs2)


def enc_i(opcode, f3, rd, rs1, imm):
    return _pack("I", opcode | f3 << 12, rd, rs1, imm=imm)


def enc_s(opcode, f3, rs1, rs2, imm):
    return _pack("S", opcode | f3 << 12, rs1=rs1, rs2=rs2, imm=imm)


def enc_b(opcode, f3, rs1, rs2, imm):
    return _pack("B", opcode | f3 << 12, rs1=rs1, rs2=rs2, imm=imm)


def enc_u(opcode, rd, imm20):
    return _pack("U", opcode, rd, imm=imm20 << 12)


def enc_j(opcode, rd, imm):
    return _pack("J", opcode, rd, imm=imm)


def _operand_bits(fmt):
    regs, slices, _ = _FORMATS[fmt]
    bits = sum(0x1F << _REG_SHIFT[r] for r in regs)
    for at, width, _ in slices:
        bits |= ((1 << width) - 1) << at
    return bits


def _operands(fmt, word):
    """(rd, rs1, rs2, imm) of a word in the given format; a field the
    format does not use reads 0, and imm is the shift amount for shifts."""
    regs, slices, sign = _FORMATS[fmt]
    rd, rs1, rs2 = ((word >> shift) & 0x1F if r in regs else 0 for r, shift in _REG_SHIFT.items())
    imm = 0
    for at, width, to in slices:
        imm |= ((word >> at) & ((1 << width) - 1)) << to
    return rd, rs1, rs2, sext(imm, sign) if sign else imm


# opcode -> [(mask, match, mnemonic, format)]: mask covers every bit outside
# the format's operands and match is the encoding with all operands zero,
# so at most one entry matches a word.
_BY_OPCODE = {}
for _mnem, (_fmt, _opcode, _f3, _f7) in SPECS.items():
    _match = _opcode | (_f3 or 0) << 12 | (_f7 or 0) << {"SHIFT64": 26, "SYS": 20}.get(_fmt, 25)
    _BY_OPCODE.setdefault(_opcode, []).append((~_operand_bits(_fmt) & 0xFFFFFFFF, _match, _mnem, _fmt))


def decode(word):
    """Decode one 32-bit word to (mnemonic, format, (rd, rs1, rs2, imm)),
    or None if no SPECS entry matches it."""
    for mask, match, mnem, fmt in _BY_OPCODE.get(word & 0x7F, ()):
        if word & mask == match:
            return mnem, fmt, _operands(fmt, word)
    return None
