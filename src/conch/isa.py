"""Instruction set tables shared by the assembler and the decoder.

Covers RV64I base, the M extension, ecall/ebreak, and the custom tag
management group on the custom-0 opcode. Encodings follow the standard
R/I/S/B/U/J formats; the tag group is R-format with funct7=0.
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
# format is one of R, I, S, B, U, J, SHIFT64, SHIFT32, SYS, CTAG
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
    "ctag.rdt": ("CTAG", OP_CUSTOM0, 0b010, 0b0000000),
}

CTAG_FUNCT3 = {"set": 0b000, "clr": 0b001, "rdt": 0b010}

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


def enc_r(opcode, f3, f7, rd, rs1, rs2):
    return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opcode


def enc_i(opcode, f3, rd, rs1, imm):
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opcode


def enc_s(opcode, f3, rs1, rs2, imm):
    imm &= 0xFFF
    return (
        ((imm >> 5) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (f3 << 12)
        | ((imm & 0x1F) << 7)
        | opcode
    )


def enc_b(opcode, f3, rs1, rs2, imm):
    imm &= 0x1FFF
    return (
        ((imm >> 12) << 31)
        | (((imm >> 5) & 0x3F) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (f3 << 12)
        | (((imm >> 1) & 0xF) << 8)
        | (((imm >> 11) & 1) << 7)
        | opcode
    )


def enc_u(opcode, rd, imm20):
    return ((imm20 & 0xFFFFF) << 12) | (rd << 7) | opcode


def enc_j(opcode, rd, imm):
    imm &= 0x1FFFFF
    return (
        ((imm >> 20) << 31)
        | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 12) & 0xFF) << 12)
        | (rd << 7)
        | opcode
    )


def dec_i_imm(word):
    return sext(word >> 20, 12)


def dec_s_imm(word):
    return sext(((word >> 25) << 5) | ((word >> 7) & 0x1F), 12)


def dec_b_imm(word):
    imm = (
        (((word >> 31) & 1) << 12)
        | (((word >> 7) & 1) << 11)
        | (((word >> 25) & 0x3F) << 5)
        | (((word >> 8) & 0xF) << 1)
    )
    return sext(imm, 13)


def dec_j_imm(word):
    imm = (
        (((word >> 31) & 1) << 20)
        | (((word >> 12) & 0xFF) << 12)
        | (((word >> 20) & 1) << 11)
        | (((word >> 21) & 0x3FF) << 1)
    )
    return sext(imm, 21)
