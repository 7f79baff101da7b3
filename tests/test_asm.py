"""Assembler: encodings against the frozen reference-toolchain corpus,
layout and directive behavior, pseudo expansion, and error reporting."""

import hashlib
import json
import pathlib
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conch import asm, isa
from conch.asm import (
    AsmError,
    DuplicateLabel,
    ImmediateOutOfRange,
    MisalignedTarget,
    Program,
    SegmentOutOfBounds,
    UndefinedLabel,
    UnknownMnemonic,
    assemble,
    disassemble,
    load_image,
)
from conch.cli import load_program, program_to_image
from conch.core import MachineState
from conch.isa import MASK64
from conch.mem import DRAM_BASE, DRAM_END, MemorySystem

from conftest import Instr, build_corpus, decoded, grid_words

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "golden_encodings.json").read_text())


def _words_of(program):
    text = next(data for base, data, kind in program.segments if kind == "text")
    return [int.from_bytes(text[i : i + 4], "little") for i in range(0, len(text), 4)]


def test_golden_corpus_encodings():
    program = assemble("\n".join(GOLDEN["source"]))
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
        redone = assemble(text)
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
    return decoded(word) is not None


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
        (word,) = _words_of(assemble(f"{mnem} {ops}"))
        assert decoded(word) == expect, (mnem, ops)
        text = disassemble(word)
        assert _words_of(assemble(text)) == [word], text


# ctag.set a0, a1 / ctag.clr a0, a1 / ctag.rdt t0, a0: custom-0 opcode,
# funct7 0, funct3 selects the operation.
_CTAG_WORDS = [
    0b0001011 | (10 << 15) | (11 << 20),
    0b0001011 | (1 << 12) | (10 << 15) | (11 << 20),
    0b0001011 | (2 << 12) | (5 << 7) | (10 << 15),
]


def test_ctag_encodings():
    assert [decoded(w) for w in _CTAG_WORDS] == [
        Instr("ctag.set", 0, 10, 11, 0),
        Instr("ctag.clr", 0, 10, 11, 0),
        Instr("ctag.rdt", 5, 10, 0, 0),
    ]


def test_ctag_asm_syntax():
    program = assemble("ctag.set a0, a1\nctag.clr a0, a1\nctag.rdt t0, a0\n")
    assert _words_of(program) == _CTAG_WORDS


def test_branch_to_label_and_numeric_offset():
    a = assemble("top: addi x1, x1, 1\nbne x1, x2, top\n")
    b = assemble("addi x1, x1, 1\nbne x1, x2, -4\n")
    assert _words_of(a) == _words_of(b)


def test_li_expansions():
    def words(src):
        return _words_of(assemble(src))

    assert len(words("li a0, 42")) == 1  # addi
    assert len(words("li a0, -2048")) == 1
    assert len(words("li a0, 0x12345000")) == 1  # lui only
    assert len(words("li a0, 0x12345678")) == 2  # lui+addi
    assert len(words("li a0, 2048")) == 2


def test_li_out_of_range():
    with pytest.raises(ImmediateOutOfRange):
        assemble("li a0, 0x1122334455667788")
    # the least 64-bit value fits in 64 bits but not in lui+addi
    with pytest.raises(ImmediateOutOfRange, match="32-bit signed range"):
        assemble("li a0, -0x8000000000000000")


@pytest.mark.parametrize(
    "literal", ["0x10000000000000000", "0x10000000000000005", "0x1ffffffffffffffff", "-0x8000000000000001"]
)
def test_li_refuses_a_literal_wider_than_64_bits(literal):
    # not wrapped to its low 64 bits: 0x10000000000000005 would load 5
    with pytest.raises(ImmediateOutOfRange, match=f"li value {literal} "):
        assemble(f"li a0, {literal}")


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


def _li_a0(value):
    from conch.report import simulate

    res = simulate(f"li a0, {value}\nli a7, 93\necall\n")
    assert res.stop == "exit"
    return res.st.regs[10]


@pytest.mark.parametrize("value", [42, -2048, 2047, 0x12345000, 0x12345678, -1, -2147483648], ids=hex)
def test_li_runtime_full_register(value):
    # the whole 64-bit register, not only the exit code's low byte
    assert _li_a0(value) == value & MASK64


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="li packs lui's partner as addi, not addiw: a low part that carries "
    "into bit 31 leaves the value sign-extended (0xffffffff7ffff800)",
)
@pytest.mark.parametrize("value", [0x7FFFF800, 0x7FFFFFFF], ids=hex)
def test_li_carry_into_bit_31(value):
    assert _li_a0(value) == value


def test_duplicate_label():
    with pytest.raises(DuplicateLabel):
        assemble("x: nop\nx: nop\n")


def test_undefined_label():
    with pytest.raises(UndefinedLabel):
        assemble("j nowhere\n")


def test_unknown_mnemonic_reports_line():
    with pytest.raises(UnknownMnemonic) as ei:
        assemble("nop\nfrobnicate x1, x2\n")
    assert "2" in str(ei.value)


@pytest.mark.parametrize(
    "line, message",
    [
        (".foo", "unknown directive .foo"),
        (".L1: nop", "unknown directive .l1:"),  # a label does not start with a dot
        ("add: nop", "unknown mnemonic 'add:'"),  # nor is it a mnemonic
    ],
)
def test_unknown_directives_and_mnemonic_labels_are_refused(line, message):
    with pytest.raises(UnknownMnemonic, match=f"line 1: {message}"):
        assemble(line)


def test_jal_with_one_operand_links_ra():
    (word,) = _words_of(assemble("jal 8"))
    assert decoded(word) == Instr("jal", 1, 0, 0, 8)
    with pytest.raises(AsmError, match="beq expects 3 operands, got 1"):
        assemble("beq 8")


def test_memory_operand_syntax():
    assert _words_of(assemble("ld a0, (a1)")) == _words_of(assemble("ld a0, 0(a1)"))
    with pytest.raises(AsmError, match="expected imm\\(reg\\) operand, got 'a1'"):
        assemble("ld a0, a1")


def test_branch_range_and_alignment():
    near = "beq x0, x0, target\n.org 0x80000800\ntarget: nop\n"
    assemble(near)  # +2 KiB, inside the 13-bit span
    too_far = near.replace("0x80000800", "0x80001000")
    with pytest.raises(ImmediateOutOfRange):
        assemble(too_far)  # +4 KiB is one past the max
    with pytest.raises(MisalignedTarget):
        assemble("beq a0, a1, 2")  # even, but not a word boundary
    with pytest.raises(MisalignedTarget):
        assemble(".byte 0\nbeq a0, a1, 3\n")  # a word boundary, but odd


_HI = (-(1 << 19), 0xFFFFF), (-(1 << 19) - 1, 1 << 20)  # signed or unsigned 20 bits


@pytest.mark.parametrize(
    "template,inside,outside",
    [
        ("addi a0, a0, {}", (-2048, 2047), (-2049, 2048)),
        ("ld a0, {}(a1)", (-2048, 2047), (-2049, 2048)),
        ("jalr a0, {}(a1)", (-2048, 2047), (-2049, 2048)),
        ("jalr a0, a1, {}", (-2048, 2047), (-2049, 2048)),
        ("sd a0, {}(a1)", (-2048, 2047), (-2049, 2048)),
        ("slli a0, a0, {}", (0, 63), (-1, 64)),
        ("slliw a0, a0, {}", (0, 31), (-1, 32)),
        ("lui a0, {}", *_HI),
        ("auipc a0, {}", *_HI),
        # a target must be 4-byte aligned, so the last forward one is 4 short
        ("beq a0, a1, {}", (-4096, 4092), (-4097, 4096)),
        ("jal a0, {}", (-(1 << 20), (1 << 20) - 4), (-(1 << 20) - 1, 1 << 20)),
    ],
)
def test_immediate_range_edges(template, inside, outside):
    hi = template.startswith(("lui", "auipc"))
    for value in inside:
        (word,) = _words_of(assemble(template.format(value)))
        assert decoded(word).imm == (isa.sext(value << 12, 32) if hi else value), value
    for value in outside:
        with pytest.raises(ImmediateOutOfRange):
            assemble(template.format(value))


@pytest.mark.parametrize(
    "org, target, inside",
    [
        (0x8000_0000, 0xFFFF_F7FF, True),  # delta 0x7FFFF7FF, the forward edge
        (0x8000_0000, 0xFFFF_F800, False),
        (0x1_0000_0000, 0x7FFF_F800, True),  # delta -0x80000800, the backward edge
        (0x1_0000_0000, 0x7FFF_F7FF, False),
        (0x8000_0000, 0x1_8000_0000, False),
    ],
)
def test_la_reach(org, target, inside):
    src = f".org {org:#x}\nla a0, {target:#x}\n"
    if not inside:
        with pytest.raises(ImmediateOutOfRange):
            assemble(src)
        return
    auipc, addi = (decoded(w) for w in _words_of(assemble(src)))
    assert (auipc.mnem, addi.mnem) == ("auipc", "addi")
    assert (org + auipc.imm + addi.imm) & MASK64 == target


_PSEUDO_OPERANDS = {"nop": "", "mv": "a0, a1", "j": "0", "ret": "", "li": "a0, 1", "la": "a0, 0"}


@pytest.mark.parametrize("mnem", sorted(isa.SPECS) + sorted(_PSEUDO_OPERANDS))
def test_operand_count_errors_name_the_line(mnem):
    if mnem in _PSEUDO_OPERANDS:
        ops = _PSEUDO_OPERANDS[mnem]
    else:
        ops, _ = _random_operands(mnem, random.Random(mnem))
    ops = ops.split(", ") if ops else []
    wrong = [ops + ["x1"]] + ([ops[:-1]] if ops else [])
    for bad in wrong:
        with pytest.raises(AsmError) as ei:
            assemble(f"nop\n{mnem} {', '.join(bad)}\n")
        assert ei.value.line == 2 and str(ei.value).startswith("line 2: "), (bad, str(ei.value))


def test_store_immediate_range():
    with pytest.raises(ImmediateOutOfRange):
        assemble("sd x1, 4096(x2)\n")


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
    program = assemble(src)
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


@pytest.mark.parametrize("n", [0, 26])
def test_align_bounds_are_inclusive(n):
    # 2**26 bytes is all of DRAM, and its base is aligned to it
    assert asm.MAX_ALIGN == 26
    assert assemble(f".align {n}\nx: nop\n").symbols["x"] == DRAM_BASE


# data directive -> its width in bytes
_DATA_WIDTHS = {".byte": 1, ".half": 2, ".word": 4, ".dword": 8}


@pytest.mark.parametrize("directive", sorted(_DATA_WIDTHS))
def test_data_values_span_signed_and_unsigned_ranges(directive):
    # One rule for every width w: -2**(8w-1) <= v < 2**(8w).
    width = _DATA_WIDTHS[directive]
    lo, hi = -(1 << (8 * width - 1)), (1 << (8 * width)) - 1
    program = assemble(f".data\n{directive} {lo}, {hi}\n")
    assert program.segments[0][1] == (lo % (hi + 1)).to_bytes(width, "little") + b"\xff" * width
    for value in (lo - 1, hi + 1):
        with pytest.raises(ImmediateOutOfRange):
            assemble(f".data\n{directive} {value}\n")


@pytest.mark.parametrize("line", [".word -0xFFFFFFFF", ".dword -0x10000000000000000"])
def test_negative_data_values_do_not_wrap(line):
    with pytest.raises(ImmediateOutOfRange):
        assemble(f".data\n{line}\n")


@pytest.mark.parametrize("directive", sorted(_DATA_WIDTHS))
def test_data_values_are_literals_or_labels(directive):
    with pytest.raises(UndefinedLabel):
        assemble(f".data\n{directive} nowhere\n")
    # a label is a value like any other: DATA_BASE fits only .word and .dword
    source = f".data\nhere: {directive} here\n"
    if _DATA_WIDTHS[directive] < 4:
        with pytest.raises(ImmediateOutOfRange):
            assemble(source)
    else:
        assert assemble(source).segments[0][1] == asm.DATA_BASE.to_bytes(_DATA_WIDTHS[directive], "little")


def _flat_image(program):
    """(lowest address, bytes up to the highest address), gaps zero."""
    lo = min(base for base, _, _ in program.segments)
    hi = max(base + len(data) for base, data, _ in program.segments)
    flat = bytearray(hi - lo)
    for base, data, _ in program.segments:
        flat[base - lo : base - lo + len(data)] = data
    return lo, bytes(flat)


def test_align_gap_is_not_materialised():
    program = assemble("nop\n.align 26\nnop\n")
    assert sum(len(data) for _, data, _ in program.segments) == 8
    assert [base for base, _, _ in program.segments] == [asm.TEXT_BASE, asm.TEXT_BASE + (1 << 26)]
    # a .align that is already satisfied starts no new segment
    assert len(assemble("nop\n.align 2\nnop\n").segments) == 1


def test_many_align_gaps_assemble_in_linear_time():
    # Each gap starts a segment; every statement is encoded straight into
    # the segment it was laid out in, not found by a scan over segments.
    n = 8000
    src = ".data\n" + "".join(f".byte {i & 0xFF}\n.align 3\n" for i in range(n))
    t0 = time.perf_counter()
    program = assemble(src)
    assert time.perf_counter() - t0 < 2.0
    assert program.segments == [(asm.DATA_BASE + 8 * i, bytes([i & 0xFF]), "data") for i in range(n)]


def test_entry_rules():
    p = assemble("nop\n_start: nop\n")
    assert p.entry == p.symbols["_start"]
    q = assemble("nop\nnop\n")
    assert q.entry == asm.TEXT_BASE
    # with no _start, the lowest text segment
    assert assemble(".org 0x80000100\nnop\n").entry == 0x80000100
    with pytest.raises(MisalignedTarget, match="entry point 0x80000002"):
        assemble(".org 0x80000002\n_start:\n")
    assert Program(segments=[], entry=0).symbols == {}


def test_load_image_rejects_out_of_range():
    mem = MemorySystem()
    st = MachineState()
    program = assemble(".data\n.org 0x90000000\n.byte 1\n")
    with pytest.raises(SegmentOutOfBounds):
        load_image(program, mem, st)


def test_load_image_rejects_overlap():
    program = assemble(".data\n.dword 1, 2\n.org 0x80100008\n.dword 3\n")
    mem = MemorySystem()
    with pytest.raises(SegmentOutOfBounds):
        load_image(program, mem, st=MachineState())


def _overlaps_pairwise(spans):
    """The reference rule load_image must reproduce: some two segments
    share a byte, or an empty one lies strictly inside another."""
    return any(b < pe and pb < e for i, (b, e) in enumerate(spans) for pb, pe in spans[:i])


@given(st.lists(st.tuples(st.integers(0, 64), st.integers(0, 16)), max_size=12))
@example([(0, 8), (8, 8)])  # adjacent
@example([(4, 0), (0, 8)])  # empty, strictly inside
@example([(0, 0), (0, 8)])  # empty, at the base of another
@example([(8, 0), (0, 8)])  # empty, at the end of another
@example([(0, 8), (0, 8)])  # equal
@example([(0, 0), (0, 0)])  # empty and equal
@example([(0, 32), (4, 4), (12, 4)])  # under one that ends further
@settings(max_examples=300, deadline=None)
def test_load_image_rejects_exactly_the_pairwise_overlaps(shape):
    mem = MemorySystem()
    segments = [(DRAM_BASE + off, bytes([i + 1]) * n, "data") for i, (off, n) in enumerate(shape)]
    program = Program(segments, entry=DRAM_BASE)
    if _overlaps_pairwise([(b, b + len(d)) for b, d, _ in segments]):
        with pytest.raises(SegmentOutOfBounds, match="overlaps"):
            load_image(program, mem, MachineState())
        return
    load_image(program, mem, MachineState())
    expected = bytearray(128)
    for base, data, _ in segments:
        expected[base - DRAM_BASE : base - DRAM_BASE + len(data)] = data
    assert mem.dram[:128] == bytes(expected)


def test_load_image_checks_overlaps_in_n_log_n():
    n = 20_000
    program = Program([(asm.DATA_BASE + 8 * i, bytes(8), "data") for i in range(n)][::-1], entry=asm.DATA_BASE)
    t0 = time.perf_counter()
    load_image(program, MemorySystem(), MachineState())
    assert time.perf_counter() - t0 < 2.0  # sorted, milliseconds; pairwise, over 10 s on a 2-vCPU host


def test_load_image_sets_cpu_state():
    program = assemble("_start: nop\n")
    mem = MemorySystem()
    st = MachineState()
    load_image(program, mem, st)
    assert st.pc == program.entry
    assert st.regs[2] % 16 == 0
    assert DRAM_BASE < st.regs[2] < DRAM_END


@pytest.mark.parametrize(
    "line,data",
    [
        ('.asciz "a\\\\" # c', b"a\\\0"),  # escaped backslash, then a comment
        ('.asciz "#" # c', b"#\0"),
        ('.asciz "\\"" # c', b'"\0'),
    ],
)
def test_comment_stripping_respects_strings(line, data):
    program = assemble(line)
    assert program.segments[0][1] == data


@pytest.mark.parametrize(
    "line,text",
    [
        ('  .asciz "a#b"  # c', '.asciz "a#b"'),  # '#' inside a string
        ('.asciz "\\"#" # c', '.asciz "\\"#"'),  # escaped quote, then '#' in the string
        ("  addi a0, a0, 1   # bump", "addi a0, a0, 1"),  # no quote, a comment
        ("addi a0, a0, 1", "addi a0, a0, 1"),
        ("# only a comment", ""),
    ],
)
def test_strip_comment(line, text):
    assert asm._strip_comment(line) == text


# ---- the lexer against the character scanners it replaced ------------------------


def _strip_comment_ref(text):
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


def _parse_string_ref(tok, line):
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


def _lexed(parse, tok):
    """parse's bytes for tok, or the message of the AsmError it raises."""
    try:
        return parse(tok, 3)
    except AsmError as exc:
        return str(exc)


@given(st.text(st.sampled_from('"\\#, antrq0Z\u0101'), max_size=24))
@example('abc "de')  # an unclosed string
@example('"a\\')  # a trailing backslash inside a string
@example('"a#b" # c')  # '#' inside a string
@example('"\\"" # c')  # an escaped quote before '#'
@example('"\u0101\\q"')  # a non-Latin-1 character before a bad escape
@settings(max_examples=500, deadline=None)
def test_lexer_matches_character_scanners(line):
    """The comment regex keeps the code text the character loop kept, and
    the escape scan gives the same bytes or the same first error."""
    assert asm._strip_comment(line) == _strip_comment_ref(line)
    for tok in (line, f'"{line}"'):
        assert _lexed(asm._parse_string, tok) == _lexed(_parse_string_ref, tok)


@pytest.mark.parametrize(
    "line",
    ['"\\' * 50_000, '.asciz "' + '\\"' * 50_000 + '"', ".asciz " + '"\\' * 50_000 + '"'],
    ids=["pairs", "asciz-escaped-quotes", "asciz-pairs"],
)
def test_lexer_is_linear_on_long_quote_and_backslash_lines(line):
    t0 = time.perf_counter()
    assert asm._strip_comment(line) == line
    try:
        assemble(line)
    except AsmError:
        pass
    assert time.perf_counter() - t0 < 1.0


def test_label_chain_is_linear():
    # each label is matched where the one before it ended, so the rest of
    # the line is never copied per label
    n = 100_000
    t0 = time.perf_counter()
    program = assemble("".join(f"l{i}: " for i in range(n)) + "nop\n")
    assert time.perf_counter() - t0 < 1.0
    assert len(program.symbols) == n and set(program.symbols.values()) == {asm.TEXT_BASE}


def test_string_rejects_characters_wider_than_a_byte():
    with pytest.raises(AsmError):
        assemble('.asciz "€"')


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
        assemble(text)
    except AsmError:
        pass


def test_asm_error_is_common_base():
    for exc in (DuplicateLabel, UndefinedLabel, UnknownMnemonic, ImmediateOutOfRange, MisalignedTarget):
        assert issubclass(exc, AsmError)


# ---- images of the checked-in programs -----------------------------------------

IMAGES = pathlib.Path(__file__).parent / "data" / "golden_images.json"
BENCH_PROGRAMS = pathlib.Path(__file__).parents[1] / "bench" / "programs"


def program_sources():
    """{name: source} of every checked-in program: the corpus, the three
    demos among it, and bench/programs/*.s."""
    sources = {name: source for name, source, _, _ in build_corpus()}
    for path in sorted(BENCH_PROGRAMS.glob("*.s")):
        sources[f"bench_{path.stem}"] = path.read_bytes().decode("utf-8")
    return sources


def image_digest(source, tmp_path):
    """SHA-256 of the image `conch asm` writes for source, read back from
    a UTF-8 file the way `conch run` reads it."""
    path = tmp_path / "prog.s"
    path.write_bytes(source.encode("utf-8"))
    image = json.dumps(program_to_image(load_program(str(path))), sort_keys=True)
    return hashlib.sha256(image.encode("utf-8")).hexdigest()


def test_program_images_match_golden(tmp_path):
    # Recorded from the assembler before it took source text directly;
    # every rewrite since must lay out and encode each program the same.
    golden = json.loads(IMAGES.read_text(encoding="utf-8"))
    assert {name: image_digest(source, tmp_path) for name, source in program_sources().items()} == golden
