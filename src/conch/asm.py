"""Two-pass assembler for the simulator's RV64IM + tag-instruction subset.

assemble() takes the source text. Grammar: one statement per line,
`label:` definitions (instruction may follow on the same line), `#`
comments outside "..." strings, directives .text/.data/.org/.align/
.byte/.half/.word/.dword/.asciz/.globl. Flat bare-metal layout: text
defaults to TEXT_BASE, data to DATA_BASE, no relocation or linking.

Pass one lays out every statement and collects the labels; pass two
encodes the statements of each chunk in order, each to the length pass
one laid out for it. A value of .byte, .half, .word or .dword is an
integer literal or a label, and one of w bytes must lie in
-2**(8w-1) <= v < 2**(8w): any value of that width, signed or not.

isa.FORMATS, each format's operands in source order, gives the syntax in
both directions: the assembler parses each statement's operands by it,
checking immediates against isa.imm_range(), and disassemble() renders
decoded words by it. Every word is packed by isa.encode().

Pseudo-instructions are fixed expansions so cycle counts stay
reproducible: nop, mv, j, ret, li (addi, or lui+addi for 32-bit range),
la (always auipc+addi).
"""

from __future__ import annotations

import re

from . import isa
from .isa import sext
from .mem import DRAM_BASE, DRAM_END, DRAM_SIZE, in_dram

TEXT_BASE = DRAM_BASE
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


class Program:
    def __init__(self, segments, entry, symbols=None):
        self.segments = segments  # (base address, bytes, kind in {"text", "data"})
        self.entry = entry
        self.symbols = {} if symbols is None else symbols


_LABEL_RE = re.compile(r"([A-Za-z_][\w.$]*)\s*:\s*")
_MEMOP_RE = re.compile(r"^(-?[\w]*)\s*\(\s*(\w+)\s*\)$")


# The code before the first '#' outside a double-quoted string, in which a
# backslash escapes the next character; an unclosed string runs to the end.
_CODE_RE = re.compile(r'(?:[^"#]|"(?:[^"\\]|\\.)*(?:"|\\?\Z))*', re.S)


def _strip_comment(text):
    return _CODE_RE.match(text).group().strip()


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


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"'}
# an escape, or a character wider than a byte; scanned left to right, so
# the first fault in a string is the one reported
_ESCAPE_RE = re.compile(r"\\(.?)|([^\x00-\xff])", re.S)


def _parse_string(tok, line):
    tok = tok.strip()
    if len(tok) < 2 or tok[0] != '"' or tok[-1] != '"':
        raise AsmError(line, f"expected quoted string, got {tok!r}")

    def unescape(m):
        esc, wide = m.groups()
        if wide:
            raise AsmError(line, f"character {wide!r} does not fit in a byte")
        if esc not in _ESCAPES:
            raise AsmError(line, f"unsupported escape \\{esc}" if esc else "dangling escape in string")
        return _ESCAPES[esc]

    return _ESCAPE_RE.sub(unescape, tok[1:-1]).encode("latin-1")


def _li_expansion(rd, tok, line):
    # Deterministic: addi for 12-bit, lui(+addi) for the 32-bit signed
    # range. Anything wider must come from memory (.dword plus ld).
    value = _parse_int(tok, line)
    if not -(1 << 63) <= value < 1 << 64:
        raise ImmediateOutOfRange(line, f"li value {tok} does not fit in 64 bits")
    value = sext(value, 64)
    lo, hi = isa.imm_range("I")
    if lo <= value <= hi:
        return [("addi", rd, 0, 0, value)]
    lo, hi = isa.imm_range("U")
    if not lo <= value <= hi:
        raise ImmediateOutOfRange(
            line, f"li value {value:#x} beyond 32-bit signed range; use .dword and ld"
        )
    # lui's partner is addi, which does not wrap at 32 bits: a low part
    # that carries into bit 31 leaves the value sign-extended wrong, as the
    # strict xfail tests/test_asm.py::test_li_carry_into_bit_31 pins. addiw
    # would wrap it.
    low = sext(value & 0xFFF, 12)
    insns = [("lui", rd, 0, 0, value - low)]
    if low != 0:
        insns.append(("addi", rd, rd, 0, low))
    return insns


# pseudo-instruction -> its operand count
_PSEUDOS = {"nop": 0, "mv": 2, "j": 1, "ret": 0, "li": 2, "la": 2}


def _expand(mn, ops, addr, line, resolve):
    """The (mnemonic, rd, rs1, rs2, imm) instructions pseudo `mn` at addr
    stands for."""
    if len(ops) != _PSEUDOS[mn]:
        raise AsmError(line, f"{mn} expects {_PSEUDOS[mn]} operands, got {len(ops)}")
    if mn == "nop":
        return [("addi", 0, 0, 0, 0)]
    if mn == "ret":
        return [("jalr", 0, 1, 0, 0)]
    if mn == "j":
        return [("jal", 0, 0, 0, _immediate("jal", "off", ops[0], addr, line, resolve))]
    rd = _reg(ops[0], line)
    if mn == "mv":
        return [("addi", rd, _reg(ops[1], line), 0, 0)]
    if mn == "li":
        return _li_expansion(rd, ops[1], line)
    # la: auipc then addi, which reach delta in [-0x80000800, 0x7FFFF7FF]
    delta = resolve(ops[1], line) - addr
    hi = (delta + 0x800) >> 12
    lo, top = isa.imm_range("U")
    if not lo <= hi << 12 <= top:
        raise ImmediateOutOfRange(line, f"la target {addr + delta:#x} beyond auipc+addi reach of {addr:#x}")
    return [("auipc", rd, 0, 0, hi << 12), ("addi", rd, rd, 0, delta - (hi << 12))]


# data directive -> the width in bytes of each of its values
_WIDTHS = {".byte": 1, ".half": 2, ".word": 4, ".dword": 8}


def assemble(source: str) -> Program:
    """Two-pass assembly of source text. Pass one lays out every statement
    and collects the symbols; pass two encodes each chunk's statements in
    order, each to the length pass one laid out for it."""
    symbols = {}
    # (section, base, statements) chunks; a chunk starts at .text/.data/.org
    # or an .align gap. A statement is (line, address, mnemonic or
    # directive, operands); the operands of an .asciz are its bytes.
    chunks = []
    section = "text"
    lc = {"text": TEXT_BASE, "data": DATA_BASE}

    def new_chunk():
        chunks.append((section, lc[section], []))

    new_chunk()

    for line_no, raw in enumerate(source.splitlines(), 1):
        text = _strip_comment(raw)
        # the labels that open the line, each matched where the last ended
        pos = 0
        while (m := _LABEL_RE.match(text, pos)) and m[1] not in isa.SPECS:
            if m[1] in symbols:
                raise DuplicateLabel(line_no, f"label {m[1]!r} already defined")
            symbols[m[1]] = lc[section]
            pos = m.end()
        if pos == len(text):
            continue

        parts = text[pos:].split(None, 1)
        head = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        ops = _split_ops(rest)

        if head in _WIDTHS:
            size = _WIDTHS[head] * len(ops)
        elif head == ".asciz":
            ops = _parse_string(rest, line_no) + b"\x00"
            size = len(ops)
        elif head.startswith("."):
            if head == ".text":
                section = "text"
                new_chunk()
            elif head == ".data":
                section = "data"
                new_chunk()
            elif head == ".org":
                lc[section] = _parse_int(rest.strip(), line_no)
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
            elif head != ".globl":  # .globl is accepted; there is no linker
                raise UnknownMnemonic(line_no, f"unknown directive {head}")
            continue
        elif head in _PSEUDOS:
            # Layout needs only the length, which no label changes, so every
            # label reads as the nearest aligned address: a jump to it
            # fails here only if it fails for every target.
            here = lc[section]
            size = 4 * len(_expand(head, ops, here, line_no, lambda tok, line: here - here % 4))
        elif head in isa.SPECS:
            size = 4
        else:
            raise UnknownMnemonic(line_no, f"unknown mnemonic {head!r}")
        chunks[-1][2].append((line_no, lc[section], head, ops))
        lc[section] += size

    # Pass two: every label is known, so each operand resolves.
    def resolve(tok, line):
        if tok in symbols:
            return symbols[tok]
        try:
            return int(tok, 0)
        except ValueError:
            raise UndefinedLabel(line, f"undefined label {tok!r}") from None

    def encode(line, addr, head, ops):
        if head == ".asciz":
            return ops
        if head in _WIDTHS:
            return b"".join(_data_value(head, resolve(tok, line), line) for tok in ops)
        return b"".join(w.to_bytes(4, "little") for w in _encode(head, ops, addr, line, resolve))

    images = [(base, b"".join(encode(*stmt) for stmt in stmts), sec) for sec, base, stmts in chunks]
    segments = [seg for seg in images if seg[1]]
    entry = symbols.get("_start")
    if entry is None:
        text_bases = [b for b, _, k in segments if k == "text"]
        entry = min(text_bases) if text_bases else TEXT_BASE
    if entry % 4 != 0:
        raise MisalignedTarget(0, f"entry point {entry:#x} not 4-byte aligned")
    return Program(segments=segments, entry=entry, symbols=dict(symbols))


def _data_value(head, value, line):
    """value as the little-endian bytes of data directive `head`: any
    value of its width, signed or not, fits."""
    bits = 8 * _WIDTHS[head]
    if not -(1 << (bits - 1)) <= value < 1 << bits:
        raise ImmediateOutOfRange(line, f"{head} value {value} out of range")
    return (value & ((1 << bits) - 1)).to_bytes(bits // 8, "little")


# mnemonic -> its operands in source order; loads and jalr take rd, imm(rs1)
_SYNTAX = {
    mn: ("rd", "mem") if opcode in (isa.OP_LOAD, isa.OP_JALR) else isa.FORMATS[fmt][0]
    for mn, (fmt, opcode, _, _) in isa.SPECS.items()
}


def _immediate(mn, kind, tok, addr, line, resolve):
    """The immediate of one operand of `mn` at addr, checked against the
    range of its format: "hi" is the upper 20 bits, signed or not, and
    "off" a label or a byte offset from addr."""
    lo, hi = isa.imm_range(isa.SPECS[mn][0])
    if kind == "off":
        try:
            imm = int(tok, 0)
        except ValueError:
            imm = resolve(tok, line) - addr
    else:
        imm = _parse_int(tok, line)
    if kind == "hi":  # the upper 20 bits of the 32-bit range, signed or not
        lo, hi = lo >> 12, (hi - lo) >> 12
    if not lo <= imm <= hi:
        raise ImmediateOutOfRange(line, f"{mn} immediate {imm} out of range {lo}..{hi}")
    if kind == "off" and (imm % 2 or (addr + imm) % 4):
        raise MisalignedTarget(line, f"{mn} target {addr + imm:#x} not 4-byte aligned")
    return imm << 12 if kind == "hi" else imm


def _encode(mn, ops, addr, line, resolve):
    """The instruction words statement `mn ops` at addr encodes to."""
    if mn in _PSEUDOS:
        return [isa.encode(*insn) for insn in _expand(mn, ops, addr, line, resolve)]
    fields = _SYNTAX[mn]
    operands = {"rd": 0, "rs1": 0, "rs2": 0, "imm": 0}
    if mn == "jalr" and len(ops) == 3:
        fields = isa.FORMATS["I"][0]
    elif mn == "jal" and len(ops) == 1:
        fields, operands["rd"] = ("off",), 1  # jal label links ra
    if len(ops) != len(fields):
        raise AsmError(line, f"{mn} expects {len(fields)} operands, got {len(ops)}")
    for kind, tok in zip(fields, ops):
        if kind == "mem":
            m = _MEMOP_RE.match(tok)
            if not m:
                raise AsmError(line, f"expected imm(reg) operand, got {tok!r}")
            operands["rs1"] = _reg(m.group(2), line)
            tok = m.group(1) or "0"
        if kind in ("rd", "rs1", "rs2"):
            operands[kind] = _reg(tok, line)
        else:
            operands["imm"] = _immediate(mn, kind, tok, addr, line, resolve)
    return [isa.encode(mn, **operands)]


STACK_RESERVE = 64  # bytes left untouched above the initial stack pointer


def load_image(program: Program, mem, st):
    """Copy segments into DRAM with tags cleared, set pc to the entry
    point, and point sp at the top of DRAM minus a small reserve."""
    # in (base, end) order, a segment overlaps one placed before it iff
    # its base lies below the end of the one placed last, which ends furthest
    last = (0, 0)
    for base, data, kind in sorted(program.segments, key=lambda seg: (seg[0], seg[0] + len(seg[1]))):
        end = base + len(data)
        if not in_dram(base, len(data)):
            raise SegmentOutOfBounds(f"segment [{base:#x}, {end:#x}) outside DRAM [{DRAM_BASE:#x}, {DRAM_END:#x})")
        if base < last[1]:
            raise SegmentOutOfBounds(f"segment [{base:#x}, {end:#x}) overlaps [{last[0]:#x}, {last[1]:#x})")
        last = (base, end)
        mem.write_raw_init(base, data)
    st.pc = program.entry
    st.regs[2] = (DRAM_END - STACK_RESERVE) & ~0xF
    st.reg_tags[2] = 0


def disassemble(word):
    """Debug helper: render one instruction word in re-assemblable syntax.
    Raises ValueError exactly for the words the decoder rejects."""
    dec = isa.decode(word)
    if dec is None:
        raise ValueError(f"cannot disassemble {word:#010x}")
    mn, _, (rd, rs1, rs2, imm) = dec
    r = isa.REG_NAME
    text = {
        "rd": r[rd], "rs1": r[rs1], "rs2": r[rs2], "imm": imm, "off": imm,
        "mem": f"{imm}({r[rs1]})", "hi": f"{(imm >> 12) & 0xFFFFF:#x}",
    }
    ops = ", ".join(str(text[kind]) for kind in _SYNTAX[mn])
    return f"{mn} {ops}" if ops else mn
