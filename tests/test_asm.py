"""Assembler: encodings against the frozen reference-toolchain corpus,
layout and directive behavior, pseudo expansion, and error reporting."""

import json
import pathlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conch import asm, isa
from conch.asm import (
    AsmError,
    DuplicateLabel,
    ImmediateOutOfRange,
    MisalignedTarget,
    SegmentOutOfBounds,
    SourceUnit,
    UndefinedLabel,
    UnknownMnemonic,
    assemble,
    disassemble,
    encode_ctag,
    load_image,
)
from conch.core import IllegalInstruction, Instr, MachineState, _decode
from conch.mem import MemorySystem

from conftest import grid_words

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "golden_encodings.json").read_text())


def _words_of(program):
    text = next(data for base, data, kind in program.segments if kind == "text")
    return [int.from_bytes(text[i : i + 4], "little") for i in range(0, len(text), 4)]


def test_golden_corpus_encodings():
    program = assemble(SourceUnit.from_text("\n".join(GOLDEN["source"])))
    words = _words_of(program)
    expect = list(GOLDEN["words"])
    assert len(words) == len(expect)
    mismatches = [
        (i, GOLDEN["source"][i], hex(words[i]), hex(expect[i]))
        for i in range(len(words))
        if words[i] != expect[i]
    ]
    assert mismatches == []


def test_disassemble_golden_roundtrip():
    # Every golden word must disassemble to syntax that reassembles to
    # the identical word (branch/jump offsets render as numeric).
    for word in GOLDEN["words"]:
        text = disassemble(word)
        redone = assemble(SourceUnit.from_text(text))
        assert _words_of(redone) == [word], text


def test_disassemble_rejects_junk():
    with pytest.raises(ValueError):
        disassemble(0)
    with pytest.raises(ValueError):
        disassemble(0xFFFFFFFF)


# ---- disassembler agrees with the decoder --------------------------------------

# ctag words with a field their form does not use set (rd for ctag.set
# and ctag.clr, rs2 for ctag.rdt): the decoder rejects them, so the
# disassembler must too. Rendering 0x52018b (ctag.set with rd=3) as
# "ctag.set x4, x5" would reassemble to a different word, 0x52000b.
_CTAG_REJECTS = [
    0x52018B, 0x1FF8F8B, 0x31008B, 0x70028B, 0x2018B, 0x1FF9F8B, 0x31108B,
    0x70128B, 0x2118B, 0x1FFAF8B, 0x31208B, 0x70228B, 0xB4A00B,
]


def _decodes(word):
    try:
        _decode(word)
    except IllegalInstruction:
        return False
    return True


def _disassembles(word):
    try:
        disassemble(word)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("word", _CTAG_REJECTS, ids=hex)
def test_disassemble_rejects_what_decode_rejects(word):
    assert not _decodes(word)
    with pytest.raises(ValueError):
        disassemble(word)


def test_disassemble_agrees_with_decode_on_every_opcode_funct3_funct7():
    assert [hex(w) for w in grid_words(1) if _disassembles(w) != _decodes(w)] == []


@given(st.integers(0, (1 << 32) - 1))
@settings(max_examples=300, deadline=None)
def test_disassemble_agrees_with_decode_on_any_word(word):
    assert _disassembles(word) == _decodes(word)


def _random_operands(mnem, rng):
    """Assembly operand text for `mnem` with random legal operands, and
    the Instr the decoder must return for it."""
    fmt, opcode = isa.SPECS[mnem][:2]
    rd, rs1, rs2 = (rng.randrange(32) for _ in range(3))
    if fmt == "R":
        return f"x{rd}, x{rs1}, x{rs2}", Instr(mnem, rd, rs1, rs2, 0)
    if fmt == "I":
        imm = rng.randint(-2048, 2047)
        text = f"x{rd}, {imm}(x{rs1})" if opcode in (isa.OP_LOAD, isa.OP_JALR) else f"x{rd}, x{rs1}, {imm}"
        return text, Instr(mnem, rd, rs1, 0, imm)
    if fmt == "S":
        imm = rng.randint(-2048, 2047)
        return f"x{rs2}, {imm}(x{rs1})", Instr(mnem, 0, rs1, rs2, imm)
    if fmt == "B":
        off = 4 * rng.randint(-1024, 1023)
        return f"x{rs1}, x{rs2}, {off}", Instr(mnem, 0, rs1, rs2, off)
    if fmt == "U":
        hi = rng.randrange(1 << 20)
        return f"x{rd}, {hi:#x}", Instr(mnem, rd, 0, 0, (hi << 12) - ((hi >> 19) << 32))
    if fmt == "J":
        off = 4 * rng.randint(-(1 << 18), (1 << 18) - 1)
        return f"x{rd}, {off}", Instr(mnem, rd, 0, 0, off)
    if fmt in ("SHIFT64", "SHIFT32"):
        sh = rng.randrange(64 if fmt == "SHIFT64" else 32)
        return f"x{rd}, x{rs1}, {sh}", Instr(mnem, rd, rs1, 0, sh)
    if fmt == "SYS":
        return "", Instr(mnem, 0, 0, 0, 0)
    if fmt == "CTAG":
        return f"x{rs1}, x{rs2}", Instr(mnem, 0, rs1, rs2, 0)
    assert fmt == "CTAGRD", fmt
    return f"x{rd}, x{rs1}", Instr(mnem, rd, rs1, 0, 0)


@pytest.mark.parametrize("mnem", sorted(isa.SPECS))
def test_every_mnemonic_assembles_decodes_and_disassembles_back(mnem):
    rng = random.Random(mnem)
    for _ in range(20):
        ops, expect = _random_operands(mnem, rng)
        (word,) = _words_of(assemble(SourceUnit.from_text(f"{mnem} {ops}")))
        assert _decode(word) == expect, (mnem, ops)
        text = disassemble(word)
        assert _words_of(assemble(SourceUnit.from_text(text))) == [word], text


def test_ctag_encodings():
    # custom-0 opcode, funct7 0, funct3 selects the operation
    assert encode_ctag("set", 0, 10, 11) == (0b0001011 | (10 << 15) | (11 << 20))
    assert encode_ctag("clr", 0, 10, 11) == (0b0001011 | (1 << 12) | (10 << 15) | (11 << 20))
    assert encode_ctag("rdt", 5, 10, 0) == (0b0001011 | (2 << 12) | (5 << 7) | (10 << 15))


def test_ctag_asm_syntax():
    program = assemble(
        SourceUnit.from_text("ctag.set a0, a1\nctag.clr a0, a1\nctag.rdt t0, a0\n")
    )
    words = _words_of(program)
    assert words[0] == encode_ctag("set", 0, 10, 11)
    assert words[1] == encode_ctag("clr", 0, 10, 11)
    assert words[2] == encode_ctag("rdt", 5, 10, 0)


def test_branch_to_label_and_numeric_offset():
    a = assemble(SourceUnit.from_text("top: addi x1, x1, 1\nbne x1, x2, top\n"))
    b = assemble(SourceUnit.from_text("addi x1, x1, 1\nbne x1, x2, -4\n"))
    assert _words_of(a) == _words_of(b)


def test_li_expansions():
    def words(src):
        return _words_of(assemble(SourceUnit.from_text(src)))

    assert len(words("li a0, 42")) == 1  # addi
    assert len(words("li a0, -2048")) == 1
    assert len(words("li a0, 0x12345000")) == 1  # lui only
    assert len(words("li a0, 0x12345678")) == 2  # lui+addi
    assert len(words("li a0, 2048")) == 2


def test_li_out_of_range():
    with pytest.raises(ImmediateOutOfRange):
        assemble(SourceUnit.from_text("li a0, 0x1122334455667788"))


def test_li_runtime_values():
    # spot-check the lui+addi fixup actually produces the constant
    from conch.report import simulate

    for value in (42, -2048, 2047, 0x12345000, 0x12345678, 0x7FFFF800, -1, 0x7FFFFFFF, -2147483648):
        src = f"""
    .text
_start:
    li   a0, {value}
    li   a7, 93
    ecall
"""
        res = simulate(src)
        assert res.st.exit_code == value & 0xFF, value


def test_duplicate_label():
    with pytest.raises(DuplicateLabel):
        assemble(SourceUnit.from_text("x: nop\nx: nop\n"))


def test_undefined_label():
    with pytest.raises(UndefinedLabel):
        assemble(SourceUnit.from_text("j nowhere\n"))


def test_unknown_mnemonic_reports_line():
    with pytest.raises(UnknownMnemonic) as ei:
        assemble(SourceUnit.from_text("nop\nfrobnicate x1, x2\n"))
    assert "2" in str(ei.value)


def test_branch_range_and_alignment():
    near = "beq x0, x0, target\n.org 0x80000800\ntarget: nop\n"
    assemble(SourceUnit.from_text(near))  # +2 KiB, inside the 13-bit span
    too_far = near.replace("0x80000800", "0x80001000")
    with pytest.raises(ImmediateOutOfRange):
        assemble(SourceUnit.from_text(too_far))  # +4 KiB is one past the max


def test_store_immediate_range():
    with pytest.raises(ImmediateOutOfRange):
        assemble(SourceUnit.from_text("sd x1, 4096(x2)\n"))


def test_directives_layout():
    src = """
    .data
a:
    .byte 1, 2, 3
    .half 0x1234
    .align 3
b:
    .word 0xdeadbeef
    .dword b
c:
    .asciz "hi\\n"
"""
    program = assemble(SourceUnit.from_text(src))
    assert {kind for _, _, kind in program.segments} == {"data"}
    base, data = _flat_image(program)
    assert data[0:3] == bytes([1, 2, 3])
    # .half after 3 bytes packs immediately (no implicit alignment)
    assert data[3:5] == (0x1234).to_bytes(2, "little")
    assert program.symbols["b"] == base + 8
    assert data[8:12] == (0xDEADBEEF).to_bytes(4, "little")
    assert data[12:20] == (base + 8).to_bytes(8, "little")
    assert data[20:24] == b"hi\n\x00"
    assert data[5:8] == bytes(3)  # the .align gap reads as zero


def _flat_image(program):
    """(lowest address, bytes up to the highest address), gaps zero."""
    lo = min(base for base, _, _ in program.segments)
    hi = max(base + len(data) for base, data, _ in program.segments)
    flat = bytearray(hi - lo)
    for base, data, _ in program.segments:
        flat[base - lo : base - lo + len(data)] = data
    return lo, bytes(flat)


def test_align_gap_is_not_materialised():
    program = assemble(SourceUnit.from_text("nop\n.align 26\nnop\n"))
    assert sum(len(data) for _, data, _ in program.segments) == 8
    assert [base for base, _, _ in program.segments] == [asm.TEXT_BASE, asm.TEXT_BASE + (1 << 26)]
    # a .align that is already satisfied starts no new segment
    assert len(assemble(SourceUnit.from_text("nop\n.align 2\nnop\n")).segments) == 1


def test_many_align_gaps_assemble_in_linear_time():
    # Each gap starts a segment; every statement is encoded straight into
    # the segment it was laid out in, not found by a scan over segments.
    n = 8000
    src = ".data\n" + "".join(f".byte {i & 0xFF}\n.align 3\n" for i in range(n))
    t0 = time.perf_counter()
    program = assemble(SourceUnit.from_text(src))
    assert time.perf_counter() - t0 < 2.0
    assert program.segments == [(asm.DATA_BASE + 8 * i, bytes([i & 0xFF]), "data") for i in range(n)]


def test_entry_rules():
    p = assemble(SourceUnit.from_text("nop\n_start: nop\n"))
    assert p.entry == p.symbols["_start"]
    q = assemble(SourceUnit.from_text("nop\nnop\n"))
    assert q.entry == asm.TEXT_BASE


def test_load_image_rejects_out_of_range():
    mem = MemorySystem()
    st = MachineState()
    program = assemble(SourceUnit.from_text(".data\n.org 0x90000000\n.byte 1\n"))
    with pytest.raises(SegmentOutOfBounds):
        load_image(program, mem, st)


def test_load_image_rejects_overlap():
    program = assemble(
        SourceUnit.from_text(".data\n.dword 1, 2\n.org 0x80100008\n.dword 3\n")
    )
    mem = MemorySystem()
    with pytest.raises(SegmentOutOfBounds):
        load_image(program, mem, st=MachineState())


def test_load_image_sets_cpu_state():
    program = assemble(SourceUnit.from_text("_start: nop\n"))
    mem = MemorySystem()
    st = MachineState()
    load_image(program, mem, st)
    assert st.pc == program.entry
    assert st.regs[2] % 16 == 0
    assert mem.base < st.regs[2] < mem.base + mem.size


@pytest.mark.parametrize(
    "line,data",
    [
        ('.asciz "a\\\\" # c', b"a\\\0"),  # escaped backslash, then a comment
        ('.asciz "#" # c', b"#\0"),
        ('.asciz "\\"" # c', b'"\0'),
    ],
)
def test_comment_stripping_respects_strings(line, data):
    program = assemble(SourceUnit.from_text(line))
    assert program.segments[0][1] == data


def test_string_rejects_characters_wider_than_a_byte():
    with pytest.raises(AsmError):
        assemble(SourceUnit.from_text('.asciz "€"'))


_HEADS = sorted(isa.SPECS) + [
    "nop", "mv", "j", "ret", "li", "la",
    ".text", ".data", ".org", ".align", ".byte", ".half", ".word", ".dword", ".asciz", ".globl",
]
_OPERANDS = [
    "x1", "a0", "sp", "zero", "x32", "0", "-1", "4096", "0x80000000", "0x7fffffff", "1_0",
    "99999999999999999999", "lbl", "8(sp)", "-(x1)", "(", ":", "#", '"', "\\",
    '"a\\n"', '"a#b"', '"\\\\"', '"\\q"', '"é"', '"€"',
]
_LINE = st.builds(
    lambda label, head, ops: label + head + " " + ", ".join(ops),
    st.sampled_from(["", "lbl: ", "_start: ", "1x: "]),
    st.sampled_from(_HEADS) | st.text(max_size=6),
    st.lists(st.sampled_from(_OPERANDS) | st.text(max_size=6), max_size=4),
)


@given(st.lists(_LINE, max_size=8).map("\n".join))
@settings(max_examples=200, deadline=None)
def test_any_source_raises_only_asm_error(text):
    try:
        assemble(SourceUnit.from_text(text))
    except AsmError:
        pass


def test_asm_error_is_common_base():
    for exc in (DuplicateLabel, UndefinedLabel, UnknownMnemonic, ImmediateOutOfRange, MisalignedTarget):
        assert issubclass(exc, AsmError)
