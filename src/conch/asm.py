"""Two-pass assembler for the simulator's RV64IM + tag-instruction subset.

Grammar: one statement per line, `label:` definitions (instruction may
follow on the same line), `#` comments, directives .text/.data/.org/
.align/.byte/.half/.word/.dword/.asciz/.globl. Flat bare-metal layout:
text defaults to TEXT_BASE, data to DATA_BASE, no relocation or linking.

Pseudo-instructions are fixed expansions so cycle counts stay
reproducible: nop, mv, j, ret, li (addi, or lui+addi for 32-bit range),
la (always auipc+addi).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import isa
from .isa import sext
from .mem import DRAM_SIZE

TEXT_BASE = 0x8000_0000
DATA_BASE = 0x8010_0000
MAX_ALIGN = DRAM_SIZE.bit_length() - 1  # largest n with 2**n <= DRAM_SIZE


class AsmError(Exception):
    def __init__(self, line, msg):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line else msg)


class UnknownMnemonic(AsmError):
    pass


class UndefinedLabel(AsmError):
    pass


class DuplicateLabel(AsmError):
    pass


class ImmediateOutOfRange(AsmError):
    pass


class MisalignedTarget(AsmError):
    pass


class SegmentOutOfBounds(Exception):
    pass


@dataclass
class SourceUnit:
    lines: list  # (line number, text)
    origin: str = "<inline>"

    @classmethod
    def from_text(cls, text, origin="<inline>"):
        return cls([(i + 1, ln) for i, ln in enumerate(text.splitlines())], origin)

    @classmethod
    def from_file(cls, path):
        with open(path) as f:
            return cls.from_text(f.read(), origin=str(path))


@dataclass
class Program:
    segments: list  # (base address, bytes, kind in {"text", "data"})
    entry: int
    symbols: dict = field(default_factory=dict)


_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.$]*)\s*:\s*(.*)$")
_MEMOP_RE = re.compile(r"^(-?[\w]*)\s*\(\s*(\w+)\s*\)$")


def _strip_comment(text):
    # '#' starts a comment unless inside a double-quoted string, where a
    # backslash escapes the character after it.
    in_str = False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_str and ch == "\\":
            i += 1
        elif ch == '"':
            in_str = not in_str
        elif ch == "#" and not in_str:
            return text[:i].strip()
        i += 1
    return text.strip()


def _parse_int(tok, line):
    try:
        return int(tok, 0)
    except ValueError:
        raise ImmediateOutOfRange(line, f"bad integer literal {tok!r}") from None


def _reg(tok, line):
    r = isa.REGS.get(tok.strip())
    if r is None:
        raise UnknownMnemonic(line, f"unknown register {tok!r}")
    return r


def _split_ops(rest):
    return [p.strip() for p in rest.split(",")] if rest.strip() else []


def _parse_string(tok, line):
    tok = tok.strip()
    if len(tok) < 2 or tok[0] != '"' or tok[-1] != '"':
        raise AsmError(line, f"expected quoted string, got {tok!r}")
    body = tok[1:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
            if i >= len(body):
                raise AsmError(line, "dangling escape in string")
            esc = body[i]
            mapped = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, '"': 34}.get(esc)
            if mapped is None:
                raise AsmError(line, f"unsupported escape \\{esc}")
            out.append(mapped)
        elif ord(ch) > 0xFF:
            raise AsmError(line, f"character {ch!r} does not fit in a byte")
        else:
            out.append(ord(ch))
        i += 1
    return bytes(out)


# Statement kinds produced by the first pass.
@dataclass
class _Stmt:
    line: int
    addr: int
    kind: str  # "insn" or "bytes"
    mnemonic: str = ""
    ops: list = field(default_factory=list)
    data: bytes = b""
    pseudo_of: str = ""  # original pseudo mnemonic, for diagnostics


def _li_expansion(rd, value, line):
    # Deterministic: addi for 12-bit, lui(+addiw) for the 32-bit signed
    # range. Anything wider must come from memory (.dword plus ld).
    if value >= 1 << 63:
        value -= 1 << 64
    if -2048 <= value <= 2047:
        return [("addi", [rd, 0, value])]
    if not -(1 << 31) <= value < 1 << 31:
        raise ImmediateOutOfRange(
            line, f"li value {value:#x} beyond 32-bit signed range; use .dword and ld"
        )
    # addiw wraps at 32 bits, so the carry between halves always works out
    lo = sext(value & 0xFFF, 12)
    hi = ((value - lo) >> 12) & 0xFFFFF
    insns = [("lui", [rd, hi])]
    if lo != 0:
        insns.append(("addiw", [rd, rd, lo]))
    return insns


def _pseudo_size(mnemonic, ops, line):
    # Instruction count a pseudo will expand to; needed for layout.
    if mnemonic == "li":
        if len(ops) != 2:
            raise AsmError(line, "li needs rd, imm")
        return len(_li_expansion(0, _parse_int(ops[1], line), line))
    if mnemonic == "la":
        return 2
    return 1


_PSEUDOS = {"nop", "mv", "j", "ret", "li", "la"}


def assemble(src: SourceUnit) -> Program:
    """Two-pass assembly: collect symbols and layout, then encode."""
    symbols = {}
    stmts = []
    # (section, base, bytearray) chunks; a chunk starts at .text/.data/.org
    chunks = []
    section = "text"
    lc = {"text": TEXT_BASE, "data": DATA_BASE}

    def new_chunk():
        chunks.append([section, lc[section], bytearray()])

    new_chunk()

    def emit(line, n, kind, **fields):
        # Record a statement at the location counter, with the chunk that
        # pass two encodes it into, and reserve its n bytes there.
        chunk = chunks[-1]
        stmts.append((_Stmt(line, lc[section], kind, **fields), chunk))
        chunk[2].extend(bytes(n))
        lc[section] += n

    def define_label(name, line):
        if name in symbols:
            raise DuplicateLabel(line, f"label {name!r} already defined")
        symbols[name] = lc[section]

    for line_no, raw in src.lines:
        text = _strip_comment(raw)
        if not text:
            continue
        m = _LABEL_RE.match(text)
        while m and m.group(1) not in isa.SPECS and not m.group(1).startswith("."):
            define_label(m.group(1), line_no)
            text = m.group(2).strip()
            if not text:
                break
            m = _LABEL_RE.match(text)
        if not text:
            continue

        parts = text.split(None, 1)
        head = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""

        if head.startswith("."):
            if head == ".text":
                section = "text"
                new_chunk()
            elif head == ".data":
                section = "data"
                new_chunk()
            elif head == ".org":
                addr = _parse_int(rest.strip(), line_no)
                lc[section] = addr
                new_chunk()
            elif head == ".align":
                n = _parse_int(rest.strip(), line_no)
                if not 0 <= n <= MAX_ALIGN:
                    raise ImmediateOutOfRange(line_no, f".align {n} out of range 0..{MAX_ALIGN}")
                pad = (-lc[section]) % (1 << n)
                if pad:
                    # The gap stays out of the image: DRAM reads as zero.
                    lc[section] += pad
                    new_chunk()
            elif head == ".byte":
                vals = [_parse_int(t, line_no) for t in _split_ops(rest)]
                for v in vals:
                    if not -128 <= v <= 255:
                        raise ImmediateOutOfRange(line_no, f".byte value {v} out of range")
                data = bytes(v & 0xFF for v in vals)
                emit(line_no, len(data), "bytes", data=data)
            elif head == ".half":
                vals = [_parse_int(t, line_no) for t in _split_ops(rest)]
                data = bytearray()
                for v in vals:
                    if not -(1 << 15) <= v < (1 << 16):
                        raise ImmediateOutOfRange(line_no, f".half value {v} out of range")
                    data += (v & 0xFFFF).to_bytes(2, "little")
                emit(line_no, len(data), "bytes", data=bytes(data))
            elif head in (".word", ".dword"):
                width = 4 if head == ".word" else 8
                toks = _split_ops(rest)
                emit(line_no, width * len(toks), "datavals", mnemonic=head, ops=toks)
            elif head == ".asciz":
                data = _parse_string(rest, line_no) + b"\x00"
                emit(line_no, len(data), "bytes", data=data)
            elif head == ".globl":
                pass  # accepted for source compatibility; no linker here
            else:
                raise UnknownMnemonic(line_no, f"unknown directive {head}")
            continue

        ops = _split_ops(rest)
        if head in _PSEUDOS:
            size = _pseudo_size(head, ops, line_no)
        elif head in isa.SPECS:
            size = 1
        else:
            raise UnknownMnemonic(line_no, f"unknown mnemonic {head!r}")
        emit(line_no, 4 * size, "insn", mnemonic=head, ops=ops)

    # Pass two: encode each statement into the space it reserved.
    def resolve(tok, line):
        if tok in symbols:
            return symbols[tok]
        v = None
        try:
            v = int(tok, 0)
        except ValueError:
            pass
        if v is None:
            raise UndefinedLabel(line, f"undefined label {tok!r}")
        return v

    for st, (_, base, buf) in stmts:
        if st.kind == "bytes":
            data = st.data
        elif st.kind == "datavals":
            width = 4 if st.mnemonic == ".word" else 8
            out = bytearray()
            for tok in st.ops:
                if tok in symbols:
                    v = symbols[tok]
                else:
                    v = _parse_int(tok, st.line)
                if v < 0:
                    v += 1 << (8 * width)
                if not 0 <= v < (1 << (8 * width)):
                    raise ImmediateOutOfRange(st.line, f"{st.mnemonic} value out of range")
                out += v.to_bytes(width, "little")
            data = out
        else:
            data = b"".join(w.to_bytes(4, "little") for w in _encode_stmt(st, symbols, resolve))
        off = st.addr - base
        buf[off : off + len(data)] = data

    segments = [
        (base, bytes(buf), sec) for sec, base, buf in chunks if len(buf) > 0
    ]
    entry = symbols.get("_start")
    if entry is None:
        text_bases = [b for b, _, k in segments if k == "text"]
        entry = min(text_bases) if text_bases else TEXT_BASE
    if entry % 4 != 0:
        raise MisalignedTarget(0, f"entry point {entry:#x} not 4-byte aligned")
    return Program(segments=segments, entry=entry, symbols=dict(symbols))


def _branch_offset(tok, addr, resolve, line, span_bits):
    # Either a defined label (absolute target) or an integer byte offset
    # relative to this instruction.
    try:
        off = int(tok, 0)
    except ValueError:
        target = resolve(tok, line)
        off = target - addr
    lim = 1 << (span_bits - 1)
    if not -lim <= off < lim:
        raise ImmediateOutOfRange(line, f"branch/jump offset {off} exceeds {span_bits}-bit range")
    if off % 2:
        raise MisalignedTarget(line, f"branch/jump offset {off} is odd")
    if (addr + off) % 4:
        raise MisalignedTarget(line, f"target {addr + off:#x} not 4-byte aligned")
    return off


def _encode_stmt(st, symbols, resolve):
    line, addr, mn, ops = st.line, st.addr, st.mnemonic, st.ops

    def need(n):
        if len(ops) != n:
            raise AsmError(line, f"{mn} expects {n} operands, got {len(ops)}")

    # Pseudo expansion first.
    if mn == "nop":
        need(0)
        return [isa.enc_i(isa.OP_IMM, 0b000, 0, 0, 0)]
    if mn == "mv":
        need(2)
        return [isa.enc_i(isa.OP_IMM, 0b000, _reg(ops[0], line), _reg(ops[1], line), 0)]
    if mn == "ret":
        need(0)
        return [isa.enc_i(isa.OP_JALR, 0b000, 0, 1, 0)]
    if mn == "j":
        need(1)
        off = _branch_offset(ops[0], addr, resolve, line, 21)
        return [isa.enc_j(isa.OP_JAL, 0, off)]
    if mn == "li":
        need(2)
        rd = _reg(ops[0], line)
        out = []
        for sub_mn, sub_ops in _li_expansion(rd, _parse_int(ops[1], line), line):
            if sub_mn == "lui":
                out.append(isa.enc_u(isa.OP_LUI, sub_ops[0], sub_ops[1]))
            else:
                out.append(isa.enc_i(isa.OP_IMM, 0b000, sub_ops[0], sub_ops[1], sub_ops[2]))
        return out
    if mn == "la":
        need(2)
        rd = _reg(ops[0], line)
        target = resolve(ops[1], line)
        delta = target - addr
        hi = (delta + 0x800) >> 12
        lo = delta - (hi << 12)
        return [
            isa.enc_u(isa.OP_AUIPC, rd, hi & 0xFFFFF),
            isa.enc_i(isa.OP_IMM, 0b000, rd, rd, lo),
        ]

    spec = isa.SPECS.get(mn)
    if spec is None:
        raise UnknownMnemonic(line, f"unknown mnemonic {mn!r}")
    fmt, opcode, f3, f7 = spec

    if fmt == "R":
        need(3)
        return [isa.enc_r(opcode, f3, f7, _reg(ops[0], line), _reg(ops[1], line), _reg(ops[2], line))]

    if fmt == "I":
        if opcode == isa.OP_LOAD or (opcode == isa.OP_JALR and len(ops) == 2 and "(" in ops[1]):
            need(2)
            rd = _reg(ops[0], line)
            m = _MEMOP_RE.match(ops[1])
            if not m:
                raise AsmError(line, f"expected imm(reg) operand, got {ops[1]!r}")
            imm = _parse_int(m.group(1), line) if m.group(1) else 0
            rs1 = _reg(m.group(2), line)
        else:
            need(3)
            rd = _reg(ops[0], line)
            rs1 = _reg(ops[1], line)
            imm = _parse_int(ops[2], line)
        if not -2048 <= imm <= 2047:
            raise ImmediateOutOfRange(line, f"immediate {imm} out of 12-bit range")
        return [isa.enc_i(opcode, f3, rd, rs1, imm)]

    if fmt == "S":
        need(2)
        rs2 = _reg(ops[0], line)
        m = _MEMOP_RE.match(ops[1])
        if not m:
            raise AsmError(line, f"expected imm(reg) operand, got {ops[1]!r}")
        imm = _parse_int(m.group(1), line) if m.group(1) else 0
        rs1 = _reg(m.group(2), line)
        if not -2048 <= imm <= 2047:
            raise ImmediateOutOfRange(line, f"immediate {imm} out of 12-bit range")
        return [isa.enc_s(opcode, f3, rs1, rs2, imm)]

    if fmt == "B":
        need(3)
        rs1 = _reg(ops[0], line)
        rs2 = _reg(ops[1], line)
        off = _branch_offset(ops[2], addr, resolve, line, 13)
        return [isa.enc_b(opcode, f3, rs1, rs2, off)]

    if fmt == "U":
        need(2)
        rd = _reg(ops[0], line)
        imm = _parse_int(ops[1], line)
        if not 0 <= imm <= 0xFFFFF:
            # accept negative 20-bit immediates too
            if not -(1 << 19) <= imm < (1 << 19):
                raise ImmediateOutOfRange(line, f"{mn} immediate {imm} out of 20-bit range")
        return [isa.enc_u(opcode, rd, imm & 0xFFFFF)]

    if fmt == "J":
        if len(ops) == 1:
            rd = 1  # jal with implicit link register
            tok = ops[0]
        else:
            need(2)
            rd = _reg(ops[0], line)
            tok = ops[1]
        off = _branch_offset(tok, addr, resolve, line, 21)
        return [isa.enc_j(opcode, rd, off)]

    if fmt == "SHIFT64":
        need(3)
        rd = _reg(ops[0], line)
        rs1 = _reg(ops[1], line)
        sh = _parse_int(ops[2], line)
        if not 0 <= sh <= 63:
            raise ImmediateOutOfRange(line, f"shift amount {sh} out of range 0..63")
        return [isa.enc_i(opcode, f3, rd, rs1, (f7 << 6) | sh)]

    if fmt == "SHIFT32":
        need(3)
        rd = _reg(ops[0], line)
        rs1 = _reg(ops[1], line)
        sh = _parse_int(ops[2], line)
        if not 0 <= sh <= 31:
            raise ImmediateOutOfRange(line, f"shift amount {sh} out of range 0..31")
        return [isa.enc_i(opcode, f3, rd, rs1, (f7 << 5) | sh)]

    if fmt == "SYS":
        need(0)
        return [isa.enc_i(opcode, f3, 0, 0, f7)]

    if fmt == "CTAG":
        need(2)
        return [isa.enc_r(opcode, f3, f7, 0, _reg(ops[0], line), _reg(ops[1], line))]

    if fmt == "CTAGRD":
        need(2)
        return [isa.enc_r(opcode, f3, f7, _reg(ops[0], line), _reg(ops[1], line), 0)]

    raise AssertionError(f"unhandled format {fmt}")


def encode_ctag(kind, rd, rs1, rs2):
    """Pack one tag-management instruction: custom-0 opcode, funct7=0,
    funct3 selects set/clr/rdt."""
    f3 = isa.SPECS["ctag." + kind.lower()][2]
    for r in (rd, rs1, rs2):
        if not 0 <= r <= 31:
            raise ValueError(f"register index {r} out of range")
    return isa.enc_r(isa.OP_CUSTOM0, f3, 0, rd, rs1, rs2)


STACK_RESERVE = 64  # bytes left untouched above the initial stack pointer


def load_image(program: Program, mem, st):
    """Copy segments into DRAM with tags cleared, set pc to the entry
    point, and point sp at the top of DRAM minus a small reserve."""
    placed = []
    for base, data, kind in program.segments:
        end = base + len(data)
        if base < mem.base or end > mem.base + mem.size:
            raise SegmentOutOfBounds(
                f"segment [{base:#x}, {end:#x}) outside DRAM [{mem.base:#x}, {mem.base + mem.size:#x})"
            )
        for pbase, pend in placed:
            if base < pend and pbase < end:
                raise SegmentOutOfBounds(
                    f"segment [{base:#x}, {end:#x}) overlaps [{pbase:#x}, {pend:#x})"
                )
        placed.append((base, end))
        mem.write_raw_init(base, data)
    st.pc = program.entry
    sp = mem.base + mem.size - STACK_RESERVE
    st.regs[2] = sp & ~0xF
    st.reg_tags[2] = 0


# Operand syntax of each format, as the assembler reads it back.
_SYNTAX = {
    "R": "{rd}, {rs1}, {rs2}",
    "I": "{rd}, {rs1}, {imm}",
    "S": "{rs2}, {imm}({rs1})",
    "B": "{rs1}, {rs2}, {imm}",
    "U": "{rd}, {hi:#x}",
    "J": "{rd}, {imm}",
    "SHIFT64": "{rd}, {rs1}, {imm}",
    "SHIFT32": "{rd}, {rs1}, {imm}",
    "SYS": "",
    "CTAG": "{rs1}, {rs2}",
    "CTAGRD": "{rd}, {rs1}",
}
_MEM_SYNTAX = "{rd}, {imm}({rs1})"  # I-format loads and jalr


def disassemble(word):
    """Debug helper: render one instruction word in re-assemblable syntax.
    Raises ValueError exactly for the words the decoder rejects."""
    dec = isa.decode(word)
    if dec is None:
        raise ValueError(f"cannot disassemble {word:#010x}")
    mn, fmt, (rd, rs1, rs2, imm) = dec
    syntax = _SYNTAX[fmt]
    if fmt == "I" and isa.SPECS[mn][1] in (isa.OP_LOAD, isa.OP_JALR):
        syntax = _MEM_SYNTAX
    r = isa.REG_NAME
    ops = syntax.format(rd=r[rd], rs1=r[rs1], rs2=r[rs2], imm=imm, hi=(imm >> 12) & 0xFFFFF)
    return f"{mn} {ops}" if ops else mn
