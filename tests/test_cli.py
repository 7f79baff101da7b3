"""Command line surface: argument handling, exit codes, the image file
round trip, report output, and the bundled demos. Everything runs
in-process through main(argv) except the process-level checks at the
end: `python -m conch`, checked against the `conch` entry declared in
pyproject.toml, always runs; the installed `conch` script is checked
only where it is on PATH."""

import base64
import contextlib
import functools
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conch
from conch import cli
from conch.cli import EXIT_ASM, EXIT_BUDGET, EXIT_DEMO, EXIT_OK, EXIT_TRAP, main
from conch.report import build_report, run_models, simulate

from conftest import demo_source, odd_access_program

EXIT_PROG = """
    .org 0x80000000
    li a0, 0
    li a7, 93
    ecall
"""

TAGGED_PROG = """
    .org 0x80000000
    la t0, buf
    li t1, 16
    ctag.set t0, t1
    li a0, 1
    mv a1, t0
    li a2, 16
    li a7, 64
    ecall
    li a0, 0
    li a7, 93
    ecall

    .org 0x80000100
buf:
    .dword 0x4141414141414141
    .dword 0x4242424242424242
"""

READER_PROG = """
    .org 0x80000000
    li   a0, -100
    la   a1, path
    li   a2, 0
    li   a7, 56
    ecall                      # openat
    la   a1, buf
    li   a2, 8
    li   a7, 63
    ecall                      # read into buf
    la   t1, buf
    lbu  a0, 0(t1)
    li   a7, 93
    ecall                      # exit with the first input byte

    .org 0x80000100
path:
    .asciz "input"
    .align 3
buf:
    .dword 0
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---- run -------------------------------------------------------------------


def test_run_exits_clean(tmp_path, capsys):
    src = write(tmp_path, "p.s", EXIT_PROG)
    code, report = run_json(capsys, ["run", src])
    assert code == EXIT_OK
    assert report["stop_reason"] == "exit"
    assert report["exit_code"] == 0
    assert set(report["cycles"]) == {"baseline", "model_a", "model_b"}


def test_run_text_format(tmp_path, capsys):
    src = write(tmp_path, "p.s", EXIT_PROG)
    assert main(["run", src, "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cycles baseline" in out
    assert "instret" in out


def test_run_model_subset_and_bad_model(tmp_path, capsys):
    src = write(tmp_path, "p.s", EXIT_PROG)
    code, report = run_json(capsys, ["run", src, "--models", "baseline"])
    assert code == EXIT_OK
    assert report["cycles"]["model_a"] is None
    assert main(["run", src, "--models", "z"]) == EXIT_ASM
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("conch: unknown model 'z'")


def test_dram_latency_changes_only_cycles_and_overhead(tmp_path, capsys):
    src = write(tmp_path, "threads.s", demo_source("threads"))
    _, default = run_json(capsys, ["run", src, "--seed", "3"])
    _, free = run_json(capsys, ["run", src, "--seed", "3", "--dram-latency", "0"])
    priced = [{k: r.pop(k) for k in ("cycles", "overhead")} for r in (default, free)]
    assert default == free
    assert all(priced[0]["cycles"][m] > priced[1]["cycles"][m] for m in priced[0]["cycles"])


def test_run_report_file_matches_stdout(tmp_path, capsys):
    src = write(tmp_path, "p.s", TAGGED_PROG)
    out_path = tmp_path / "report.json"
    assert main(["run", src, "--report", str(out_path)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert out_path.read_text() == stdout


def test_run_trap_exit_code(tmp_path, capsys):
    src = write(
        tmp_path,
        "t.s",
        """
        .org 0x80000000
        li a0, 1
        ld a1, 1(a0)
        """,
    )
    assert main(["run", src]) == EXIT_TRAP
    err = capsys.readouterr().err
    assert "trap" in err


STRICT_WRITE_PROG = """
    .org 0x80000000
    la a1, buf
    li a2, 8
    ctag.set a1, a2
    li a0, 1
    li a7, 64
trap_here:
    ecall
    .align 3
buf:
    .dword 0x41
"""

# a jump to pc 0x8000000e, where no instruction starts; the word an
# icache read there would return (0x8000000c's, 0x13) decodes as nop, so
# a disassembly line printed for it would show
MISALIGNED_FETCH_PROG = """
    .org 0x80000000
    auipc t0, 0
    addi t0, t0, 14
    jalr zero, 0(t0)
    .half 0x13
trap_here:
    .half 0
"""

# an image whose entry lies outside DRAM, with a label on it
ENTRY_ZERO_IMAGE = {"format": cli.IMAGE_FORMAT, "version": 1, "entry": 0, "segments": [], "symbols": {"trap_here": 0}}


@pytest.mark.parametrize(
    "source,flags,insn",
    [
        pytest.param(".org 0x80000000\n    nop\ntrap_here:\n    ebreak\n", [], "ebreak", id="ebreak"),
        pytest.param(
            ".org 0x80000000\n    la t0, buf\ntrap_here:\n    ld t1, 1(t0)\n    .align 3\nbuf:\n    .dword 0\n",
            [],
            "ld x6, 1(x5)",
            id="misaligned-load",
        ),
        pytest.param(".org 0x80000000\n    nop\ntrap_here:\n    .word 0\n", [], None, id="illegal-word"),
        pytest.param(STRICT_WRITE_PROG, ["--strict-write"], "ecall", id="strict-write"),
        pytest.param(json.dumps(ENTRY_ZERO_IMAGE), [], None, id="entry-zero-image"),
        pytest.param(MISALIGNED_FETCH_PROG, [], None, id="misaligned-fetch"),
    ],
)
def test_trap_names_its_pc(tmp_path, capsys, source, flags, insn):
    """The trap line names the pc; a second line disassembles the word
    fetched there, unless the fetch failed or the word does not decode."""
    src = write(tmp_path, "t.s", source)
    assert main(["run", src, *flags]) == EXIT_TRAP
    pc = cli.load_program(src).symbols["trap_here"]
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"trap at pc {pc:#x}: ")
    assert err[1:] == ([f"  {pc:#x}: {insn}"] if insn else [])


# the sw puts addi x0, x0, 0 over the ebreak in the dcache, and nothing
# writes that line back before the fetch of trap_here
SELF_PATCH_PROG = """
    .org 0x80000000
    la t0, trap_here
    li t1, 0x13
    sw t1, 0(t0)
trap_here:
    ebreak
"""


def test_trap_names_the_word_fetched_not_the_word_in_dram(tmp_path, capsys):
    src = write(tmp_path, "p.s", SELF_PATCH_PROG)
    assert main(["run", src]) == EXIT_TRAP
    pc = cli.load_program(src).symbols["trap_here"]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"trap at pc {pc:#x}: Breakpoint: ebreak at {pc:#x}", f"  {pc:#x}: ebreak"]
    # after the final flush, DRAM holds the store's word at the pc
    assert simulate(program=cli.load_program(src)).mem.raw_dump(pc, 4)[0] == (0x13).to_bytes(4, "little")


@pytest.mark.parametrize("mnem", ["lh", "lw", "ld", "sh", "sw", "sd"])
def test_misaligned_access_exit_code(tmp_path, capsys, mnem):
    src = write(tmp_path, "m.s", odd_access_program(mnem))
    assert main(["run", src]) == EXIT_TRAP
    assert "MisalignedAccess" in capsys.readouterr().err


def test_run_budget_exit_code(tmp_path, capsys):
    src = write(
        tmp_path,
        "loop.s",
        """
        .org 0x80000000
        li t0, 100
        loop: addi t0, t0, -1
        bne t0, zero, loop
        li a7, 93
        ecall
        """,
    )
    code, report = run_json(capsys, ["run", src, "--max-instret", "100"])
    assert code == EXIT_BUDGET
    assert report["stop_reason"] == "budget"
    assert report["instret"] == 100


@pytest.mark.parametrize(
    "args, stop",
    [
        pytest.param("la a0, base; li a1, 1; slli a1, a1, 62; li a2, 0; li a7, 278", "budget", id="getrandom"),
        pytest.param("li a0, 1; la a1, base; li a2, 1; slli a2, a2, 24; li a7, 64", "budget", id="write"),
        pytest.param("li a0, 1; la a1, base; li a2, -1; li a7, 64", "exit", id="write-past-dram"),
        pytest.param("la a0, base; li a1, 1; slli a1, a1, 24; ctag.set a0, a1", "budget", id="ctag.set"),
    ],
)
def test_huge_kernel_copy_stops_on_budget(tmp_path, capsys, args, stop):
    # getrandom of 1<<62 bytes and write of 16 MiB, both at the base of
    # DRAM, and a ctag.set of 16 MiB there: each copied word (each line
    # the ctag walk visits) counts against --max-instret like an
    # instruction, so the run stops instead of copying for minutes. A
    # write of 2**64 - 1 bytes there leaves DRAM, so it returns -EFAULT
    # (exit code -14 & 0xFF) before anything is charged.
    lines = "".join(f"    {a.strip()}\n" for a in args.split(";"))
    src = write(tmp_path, "copy.s", f".org 0x80000000\nbase:\n{lines}    ecall\n    li a7, 93\n    ecall\n")
    t0 = time.perf_counter()
    code, report = run_json(capsys, ["run", src, "--max-instret", "1000"])
    assert time.perf_counter() - t0 < 5.0
    assert report["stop_reason"] == stop
    assert report["instret"] < 1000
    if stop == "budget":
        assert code == EXIT_BUDGET
    else:
        assert code == EXIT_OK and report["exit_code"] == -14 & 0xFF


@pytest.mark.parametrize("m", ["ctag.set", "ctag.clr"])
def test_ctag_range_outside_dram_traps(tmp_path, capsys, m):
    # 128 MiB from the base of DRAM leaves DRAM: the range check comes
    # before the walk is charged, so this traps instead of stopping on budget
    src = write(tmp_path, "ctag.s", f".org 0x80000000\nbase:\n    la a0, base\n    li a1, 1\n    slli a1, a1, 27\n    {m} a0, a1\n")
    code, report = run_json(capsys, ["run", src, "--max-instret", "1000"])
    assert code == EXIT_TRAP
    assert report["stop_reason"] == "trap"


def test_openat_path_read_stops_on_budget(tmp_path, capsys):
    # openat of a 4,000-byte path in a loop: each byte of the path read
    # counts against --max-instret, so the first openat overruns the budget
    # instead of the loop making hundreds of uncharged 4,000-byte reads.
    src = write(
        tmp_path,
        "openat.s",
        f"""
        .org 0x80000000
        loop:
            li   a0, -100
            la   a1, path
            li   a2, 0
            li   a7, 56
            ecall
            j    loop
        path:
            .asciz "{'A' * 4000}"
        """,
    )
    t0 = time.perf_counter()
    code, report = run_json(capsys, ["run", src, "--max-instret", "1000"])
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_BUDGET
    assert report["stop_reason"] == "budget"
    assert report["instret"] < 10  # stopped at the first openat


def test_strict_write_traps(tmp_path, capsys):
    src = write(tmp_path, "w.s", TAGGED_PROG)
    assert main(["run", src]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", src, "--strict-write"]) == EXIT_TRAP


def test_asm_error_exit_code(tmp_path, capsys):
    src = write(tmp_path, "bad.s", "frobnicate x1, x2\n")
    assert main(["run", src]) == EXIT_ASM
    assert "conch:" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["100", "-1"])
def test_align_out_of_range_exit_code(tmp_path, capsys, n):
    src = write(tmp_path, "a.s", f"    .text\n    .align {n}\n")
    assert main(["run", src]) == EXIT_ASM
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"conch: line 2: .align {n} out of range 0..26\n"


def test_segment_outside_dram_exit_code(tmp_path, capsys):
    src = write(tmp_path, "low.s", ".org 0x10\n    li a7, 93\n    ecall\n")
    assert main(["run", src]) == EXIT_ASM
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("conch: ") and "outside DRAM" in err


@pytest.mark.parametrize("first", ["li a0, 0", "addi a0, x0, 0"])
def test_misaligned_instruction_exit_code(tmp_path, capsys, first):
    # no fetch reaches an instruction at an odd address, so it is refused
    # at assembly instead of trapping at its first fetch
    src = write(tmp_path, "odd.s", f"    .text\n    .byte 0\n    {first}\n    li a7, 93\n    ecall\n")
    assert main(["run", src]) == EXIT_ASM
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"conch: line 3: {first.split()[0]} at 0x80000001 not 4-byte aligned\n"


# ---- seeds and the filesystem ------------------------------------------------


def test_seed_flag_and_env(tmp_path, capsys, monkeypatch):
    # --seed is the only seed: a seed variable left in the environment
    # changes nothing, in a run or a demo
    monkeypatch.setenv("CONCH_SEED", "17")
    src = write(tmp_path, "p.s", EXIT_PROG)
    _, report = run_json(capsys, ["run", src])
    assert report["seed"] == 0
    _, report = run_json(capsys, ["run", src, "--seed", "3"])
    assert report["seed"] == 3
    assert main(["demo", "threads"]) == EXIT_OK
    assert "seed               0" in capsys.readouterr().out.splitlines()


_SEED_COMMANDS = {
    "run": ["run", "{src}"],
    "dump": ["dump", "{src}", "--range", "0x80000000:8"],
    "demo": ["demo", "threads"],
}


@pytest.mark.parametrize("command", list(_SEED_COMMANDS))
@pytest.mark.parametrize("seed", [-5, 1 << 64])
def test_seed_outside_64_bits_is_rejected(tmp_path, capsys, command, seed):
    # the key would take such a seed mod 2**64 and the kernel's PRNG its
    # absolute value: a key and a stream that no seed in range pairs
    src = write(tmp_path, "p.s", EXIT_PROG)
    argv = [a.format(src=src) for a in _SEED_COMMANDS[command]]
    assert main([*argv, "--seed", str(seed)]) == EXIT_ASM
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"conch: seed must lie in [0, 2**64), got {seed}\n"


@pytest.mark.parametrize("command", list(_SEED_COMMANDS))
def test_largest_seed_runs(tmp_path, capsys, command):
    src = write(tmp_path, "p.s", EXIT_PROG)
    argv = [a.format(src=src) for a in _SEED_COMMANDS[command]]
    assert main([*argv, "--seed", str((1 << 64) - 1)]) == EXIT_OK
    capsys.readouterr()


def test_simulate_refuses_a_seed_outside_64_bits():
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed must lie"):
            simulate(EXIT_PROG, seed=seed)
    assert simulate(EXIT_PROG, seed=(1 << 64) - 1).stop == "exit"


def test_stream_mounts_bytes(tmp_path, capsys):
    src = write(tmp_path, "r.s", READER_PROG)
    code, report = run_json(capsys, ["run", src, "--stream", "input=2a00000000000000"])
    assert code == EXIT_OK
    assert report["exit_code"] == 0x2A


def test_map_mounts_host_file(tmp_path, capsys):
    src = write(tmp_path, "r.s", READER_PROG)
    host = tmp_path / "payload.bin"
    host.write_bytes(bytes([0x7F] + [0] * 7))
    code, report = run_json(capsys, ["run", src, "--map", f"input={host}"])
    assert code == EXIT_OK
    assert report["exit_code"] == 0x7F


def test_bad_map_spec(tmp_path, capsys):
    src = write(tmp_path, "p.s", EXIT_PROG)
    for flag, wants in (("--map", "VIRT=HOSTPATH"), ("--stream", "VIRT=HEX")):
        assert main(["run", src, flag, "a"]) == EXIT_ASM
        assert capsys.readouterr().err == f"conch: {flag} wants {wants}, got 'a'\n"


def test_negative_dram_latency_is_rejected(tmp_path, capsys):
    src = write(tmp_path, "p.s", EXIT_PROG)
    assert main(["run", src, "--dram-latency", "-100"]) == EXIT_ASM
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("conch: ") and "--dram-latency" in err


@pytest.mark.parametrize("command", [["run"], ["dump", "--range", "0x80000000:8"]], ids=["run", "dump"])
def test_negative_max_instret_is_rejected(tmp_path, capsys, command):
    src = write(tmp_path, "p.s", EXIT_PROG)
    assert main([command[0], src, *command[1:], "--max-instret", "-5"]) == EXIT_ASM
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("conch: ") and "--max-instret" in err


# ---- asm / images ---------------------------------------------------------------


def test_image_round_trip_is_equivalent(tmp_path, capsys):
    src = write(tmp_path, "p.s", TAGGED_PROG)
    img = str(tmp_path / "p.img.json")
    assert main(["asm", src, "-o", img]) == EXIT_OK
    capsys.readouterr()

    doc = json.loads((tmp_path / "p.img.json").read_text())
    assert doc["format"] == "conch-image"
    assert doc["version"] == 1
    assert all("data" in seg for seg in doc["segments"])

    assert main(["run", src, "--seed", "4"]) == EXIT_OK
    from_source = capsys.readouterr().out
    assert main(["run", img, "--seed", "4"]) == EXIT_OK
    from_image = capsys.readouterr().out
    assert from_source == from_image


@pytest.mark.parametrize(
    "doc",
    [
        {"format": "conch-image"},
        {"format": "conch-image", "entry": "x", "segments": []},
        {"format": "conch-image", "entry": 0x80000000, "segments": [{"base": "a", "data": ""}]},
        # entries that are not 64-bit addresses
        {"format": "conch-image", "entry": -8, "segments": []},
        {"format": "conch-image", "entry": True, "segments": []},
        {"format": "conch-image", "entry": 1 << 65, "segments": []},
        # segment data that is not base64
        {"format": "conch-image", "entry": 0x80000000, "segments": [{"base": 0x80000000, "data": "@@@"}]},
        # the first entry past 64 bits
        {"format": "conch-image", "entry": 1 << 64, "segments": []},
        # an otherwise valid image in another format
        {"format": "other", "entry": 0x80000000, "segments": []},
        # segment data that is not a string
        {"format": "conch-image", "entry": 0x80000000, "segments": [{"base": 0x80000000, "data": 123}]},
        # JSON nested deeper than the parser recurses (a document as text)
        pytest.param('{"format": ' + "[" * 200_000 + "]" * 200_000 + "}", id="nested-200000"),
    ],
)
def test_malformed_image_exit_code(tmp_path, capsys, doc):
    img = write(tmp_path, "bad.json", doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["run", img]) == EXIT_ASM
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("conch: ")


def test_image_segment_base_is_typed_like_the_entry(tmp_path, capsys):
    # True is an int to isinstance(), but no more a base than an entry
    doc = {"format": "conch-image", "entry": 0x80000000, "segments": [{"base": True, "data": ""}]}
    img = write(tmp_path, "bad.json", json.dumps(doc))
    assert main(["run", img]) == EXIT_ASM
    assert capsys.readouterr().err == "conch: image segment 0 needs an integer base and base64 data\n"


def test_image_to_program_refuses_a_document_that_is_not_an_object():
    with pytest.raises(ValueError, match="not a conch image file"):
        cli.image_to_program([])


@pytest.mark.parametrize("entry", [0, (1 << 64) - 4])
def test_image_entry_outside_dram_traps(tmp_path, capsys, entry):
    # a 64-bit entry is a well-formed image; fetching outside DRAM traps
    doc = {"format": "conch-image", "entry": entry, "segments": []}
    img = write(tmp_path, "img.json", json.dumps(doc))
    assert main(["run", img]) == EXIT_TRAP
    assert "outside DRAM" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
_CODE = st.one_of(
    st.binary(max_size=64),
    # li a7, 93; ecall (exit) and a jump to itself (budget)
    st.just(bytes.fromhex("9308d00573000000")),
    st.just(bytes.fromhex("6f000000")),
).map(lambda b: base64.b64encode(b).decode())
_ADDR = st.one_of(st.integers(0x8000_0000 - 8, 0x8000_0040), st.integers(), _JSON)
_IMAGE = st.one_of(
    # well formed, running arbitrary code
    st.fixed_dictionaries(
        {
            "format": st.just("conch-image"),
            "entry": st.just(0x8000_0000),
            "segments": st.tuples(st.fixed_dictionaries({"base": st.just(0x8000_0000), "data": _CODE})),
        }
    ),
    # every field of any type
    st.fixed_dictionaries(
        {"format": st.just("conch-image")},
        optional={
            "entry": _ADDR,
            "segments": st.lists(
                st.fixed_dictionaries(
                    {"base": _ADDR, "data": _CODE | _JSON},
                    optional={"kind": st.sampled_from(["text", "data"]) | _JSON},
                )
                | _JSON,
                max_size=3,
            )
            | _JSON,
            "symbols": _JSON,
        },
    ),
)


@given(_IMAGE)
@settings(max_examples=100)
def test_any_image_document_exits_with_a_documented_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        img = os.path.join(tmp, "img.json")
        with open(img, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", img, "--max-instret", "1000"])
    assert code in (EXIT_OK, EXIT_ASM, EXIT_TRAP, EXIT_BUDGET)


def test_asm_rejects_bad_source(tmp_path, capsys):
    src = write(tmp_path, "bad.s", ".org 0x80000000\nbeq x1\n")
    assert main(["asm", src, "-o", str(tmp_path / "x.json")]) == EXIT_ASM


# ---- dump ----------------------------------------------------------------------


def test_dump_shows_at_rest_words(tmp_path, capsys):
    src = write(tmp_path, "p.s", TAGGED_PROG)
    assert main(["dump", src, "--range", "0x80000100:16"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# line 0x80000100"
    w0 = lines[1].split()
    assert w0[0] == "80000100:"
    assert w0[1] != "4141414141414141"  # tagged word rests encrypted
    assert w0[2] == "1"


def test_dump_bad_range(tmp_path, capsys):
    src = write(tmp_path, "p.s", EXIT_PROG)
    assert main(["dump", src, "--range", "123"]) == EXIT_ASM


@pytest.mark.parametrize("span", ["0:16", "0x80000000:-8", "0x80000000:0", "0x83fffff8:16"])
def test_dump_range_outside_dram(tmp_path, capsys, span):
    src = write(tmp_path, "p.s", EXIT_PROG)
    assert main(["dump", src, "--range", span]) == EXIT_ASM
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("conch: ")


# ---- demos ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["heartbleed", "granularity", "threads"])
def test_demo_properties_hold(name, capsys):
    assert main(["demo", name]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all demo properties hold" in out


def test_demo_unknown_name(capsys):
    assert main(["demo", "nonsense"]) == EXIT_ASM


def test_demo_failure_exit_code_is_distinct():
    assert EXIT_DEMO not in (EXIT_OK, EXIT_ASM, EXIT_TRAP, EXIT_BUDGET)


def _put_stdout(at, data):
    def doctor(results, report):
        next(iter(results.values())).shim.stdout[at : at + len(data)] = data

    return doctor


def _put_report(path, value):
    def doctor(results, report):
        *outer, last = path
        functools.reduce(dict.__getitem__, outer, report)[last] = value

    return doctor


@pytest.mark.parametrize(
    "name,doctor,expect",
    [
        pytest.param(
            "heartbleed",
            _put_stdout(16, cli._HB_SECRET),
            ["secret left the machine in plaintext", "over-read region was not protected"],
            id="heartbleed-leak",
        ),
        pytest.param(
            "heartbleed",
            _put_stdout(0, bytes(16)),
            ["request bytes did not echo back in plaintext"],
            id="heartbleed-request",
        ),
        pytest.param(
            "heartbleed",
            _put_report(["leak_averted_bytes"], 0),
            ["expected 32 leak-averted bytes, saw 0"],
            id="heartbleed-averted",
        ),
        pytest.param(
            "granularity",
            _put_report(["tag_stats", "words_tagged_final"], 3),
            ["expected 2 tagged words, saw 3"],
            id="granularity-words",
        ),
        pytest.param(
            "granularity",
            _put_report(["tag_stats", "bytes_tainted_oracle_final"], 16),
            ["expected 12 oracle bytes, saw 16"],
            id="granularity-oracle",
        ),
        pytest.param(
            "granularity",
            _put_report(["tag_stats", "overtagged_bytes"], 0),
            ["expected 4 over-tagged bytes, saw 0"],
            id="granularity-overtag",
        ),
        pytest.param(
            "threads",
            _put_report(["exit_code"], 1),
            ["thread 1 read thread 0's plaintext (exit code 1)"],
            id="threads-exit",
        ),
    ],
)
def test_demo_check_fails_on_a_doctored_outcome(name, doctor, expect):
    demo = cli.DEMOS[name]
    results = run_models(demo_source(name), fs=demo["fs"])
    report = build_report(results)
    assert demo["check"](results, report) == []
    doctor(results, report)
    assert demo["check"](results, report) == expect


def test_demo_prints_one_failure_per_broken_property(monkeypatch, capsys):
    def doctored(results):
        report = build_report(results)
        report["tag_stats"].update(words_tagged_final=3, overtagged_bytes=0)
        return report

    monkeypatch.setattr(cli, "build_report", doctored)
    assert main(["demo", "granularity"]) == EXIT_DEMO
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL: expected 2 tagged words, saw 3", "FAIL: expected 4 over-tagged bytes, saw 0"]


def test_demo_stopped_by_budget_fails_once(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_models", functools.partial(run_models, max_instret=5))
    assert main(["demo", "threads"]) == EXIT_DEMO
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL: stopped by budget"]


# ---- parsing ---------------------------------------------------------------------
# main parses with the invoked command's parser alone (cli.parse_args);
# it must read every command line as the full tree does.

_RUN_OPTIONS = [
    "--seed", "5", "--map", "/a=host_a", "--map", "/b=host_b", "--stream", "/s=00ff", "--stream", "/t=",
    "--max-instret", "10", "--strict-write",
]
_VALID_ARGVS = [
    ["asm", "p.s", "-o", "p.json"],
    ["asm", "--output", "p.json", "p.s"],
    ["run", "p.s"],
    ["run", "p.s", "--models", "a,b", "--report", "r.json", "--format", "text", "--dram-latency", "7", *_RUN_OPTIONS],
    ["run", "--format=json", "p.s", "--max-instret=-1"],
    ["dump", "p.s", "--range", "0x80000000:64"],
    ["dump", "--range=0x80000000:8", "p.s", *_RUN_OPTIONS],
    ["demo", "threads"],
    ["demo", "heartbleed", "--seed", "3"],
]
_USAGE_ERRORS = [
    [],
    ["frob"],
    ["--seed", "1", "run", "p.s"],
    ["asm"],
    ["asm", "p.s"],
    ["run"],
    ["run", "p.s", "--seed", "abc"],
    ["run", "p.s", "--max-instret", "1.5"],
    ["run", "p.s", "--format", "xml"],
    ["run", "p.s", "--map"],
    ["dump", "p.s"],
    ["demo"],
    ["demo", "threads", "--seed", "0x3"],
]
_UNRECOGNIZED = [
    (["run", "p.s", "--bogus"], "--bogus"),
    (["asm", "p.s", "-o", "p.json", "extra"], "extra"),
    (["dump", "p.s", "--range", "0x80000000:8", "--models", "a"], "--models a"),
    # dump prints no cycles, so it takes no option that only prices them
    (["dump", "p.s", "--range", "0x80000000:8", "--dram-latency", "7"], "--dram-latency 7"),
    (["demo", "threads", "again"], "again"),
]


def _parse_exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", _VALID_ARGVS, ids=" ".join)
def test_lean_parse_matches_full_parser(argv):
    assert cli.parse_args(argv) == cli.build_parser().parse_args(argv)


def test_help_lists_every_command(capsys):
    code, out, _ = _parse_exit(main, ["-h"], capsys)
    assert code == 0 and "{asm,run,dump,demo}" in out


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_command_help_matches_full_parser(command, capsys):
    lean = _parse_exit(cli.parse_args, [command, "-h"], capsys)
    full = _parse_exit(cli.build_parser().parse_args, [command, "-h"], capsys)
    assert lean == full
    assert lean[0] == 0 and lean[1].startswith(f"usage: conch {command} ")


@pytest.mark.parametrize("argv", _USAGE_ERRORS, ids=lambda a: " ".join(a) or "(none)")
def test_usage_errors_match_full_parser(argv, capsys):
    lean = _parse_exit(main, argv, capsys)
    full = _parse_exit(cli.build_parser().parse_args, argv, capsys)
    assert lean == full
    assert lean[0] == EXIT_ASM and "error:" in lean[2]


@pytest.mark.parametrize("argv, extra", _UNRECOGNIZED, ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_unrecognized_argument_names_the_command(argv, extra, capsys):
    code, out, err = _parse_exit(main, argv, capsys)
    assert code == EXIT_ASM and out == ""
    assert err.startswith(f"usage: conch {argv[0]} ")
    assert err.splitlines()[-1] == f"conch {argv[0]}: error: unrecognized arguments: {extra}"


# ---- console script -------------------------------------------------------------


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_module(argv, python_opts=(), **env_vars):
    """Run `python python_opts -m conch argv` with env_vars set and the
    imported conch package first on the child's path, so neither the
    working directory nor an install decides which code runs."""
    env = {**os.environ, **env_vars}
    pkg_root = str(Path(conch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *python_opts, "-m", "conch", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_console_script_entry_point(tmp_path, capsys):
    tomllib = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts["conch"] == "conch.cli:main"
    module, _, attr = scripts["conch"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main

    src = write(tmp_path, "p.s", EXIT_PROG)
    proc = run_module(["run", str(src), "--models", "baseline"])
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["stop_reason"] == "exit"
    assert main(["run", str(src), "--models", "baseline"]) == EXIT_OK
    assert proc.stdout == capsys.readouterr().out

    bad = write(tmp_path, "bad.s", "frobnicate x1, x2\n")
    proc = run_module(["run", str(bad)])
    assert proc.returncode == EXIT_ASM
    assert "conch:" in proc.stderr
    assert proc.stdout == ""


def test_asm_reads_source_as_utf8_under_the_c_locale(tmp_path):
    # `conch asm` reads a program file as UTF-8, as `conch run` does, even
    # where the locale's encoding is ASCII and cannot decode the comment.
    src = tmp_path / "cafe.s"
    src.write_bytes(("# café\n" + EXIT_PROG).encode("utf-8"))
    img_c, img = tmp_path / "c.img.json", tmp_path / "img.json"
    proc = run_module(["asm", str(src), "-o", str(img_c)], ["-X", "utf8=0"], LC_ALL="C", PYTHONCOERCECLOCALE="0")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(["asm", str(src), "-o", str(img)]) == EXIT_OK
    assert img_c.read_bytes() == img.read_bytes()


def test_cli_import_leaves_numpy_unloaded():
    # A finder ahead of every other one fails any import of numpy and
    # records it, so an import of numpy is caught whether or not numpy
    # is installed, even one whose ImportError the importer swallows.
    pkg_root = str(Path(conch.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "tried = []\n"
        "class NoNumpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'numpy':\n"
        "            tried.append(name)\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoNumpy())\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import conch.cli\n"
        "print(tried, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, pkg_root], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] False"


@pytest.mark.skipif(shutil.which("conch") is None, reason="conch console script not installed")
def test_installed_console_script(tmp_path):
    src = write(tmp_path, "p.s", EXIT_PROG)
    proc = subprocess.run(
        ["conch", "run", str(src), "--models", "baseline"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["stop_reason"] == "exit"
