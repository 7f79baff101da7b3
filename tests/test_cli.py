"""Command line surface: argument handling, exit codes, the image file
round trip, report output, and the bundled demos. Everything runs
in-process through main(argv) except the process-level checks at the
end: `python -m conch`, checked against the `conch` entry declared in
pyproject.toml, always runs; the installed `conch` script is checked
only where it is on PATH."""

import base64
import contextlib
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
from conch.cli import EXIT_ASM, EXIT_BUDGET, EXIT_DEMO, EXIT_OK, EXIT_TRAP, main

from conftest import odd_access_program

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


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("CONCH_SEED", raising=False)


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
    assert main(["run", src, "--models", "fast"]) == EXIT_ASM


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
        loop: j loop
        """,
    )
    code, report = run_json(capsys, ["run", src, "--max-instret", "100"])
    assert code == EXIT_BUDGET
    assert report["stop_reason"] == "budget"
    assert report["instret"] == 100


@pytest.mark.parametrize(
    "args",
    [
        pytest.param("la a0, base; li a1, 1; slli a1, a1, 62; li a2, 0; li a7, 278", id="getrandom"),
        pytest.param("li a0, 1; la a1, base; li a2, -1; li a7, 64", id="write"),
    ],
)
def test_huge_kernel_copy_stops_on_budget(tmp_path, capsys, args):
    # getrandom of 1<<62 bytes and write of 2**64 - 1 bytes, both at the base
    # of DRAM: each copied word counts against --max-instret like an
    # instruction, so the ecall stops the run instead of copying for minutes.
    lines = "".join(f"    {a.strip()}\n" for a in args.split(";"))
    src = write(tmp_path, "copy.s", f".org 0x80000000\nbase:\n{lines}    ecall\n    li a7, 93\n    ecall\n")
    t0 = time.perf_counter()
    code, report = run_json(capsys, ["run", src, "--max-instret", "1000"])
    assert time.perf_counter() - t0 < 5.0
    assert code == EXIT_BUDGET
    assert report["stop_reason"] == "budget"
    assert report["instret"] < 1000


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


# ---- seeds and the filesystem ------------------------------------------------


def test_seed_flag_and_env(tmp_path, capsys, monkeypatch):
    src = write(tmp_path, "p.s", EXIT_PROG)
    _, report = run_json(capsys, ["run", src])
    assert report["seed"] == 0
    monkeypatch.setenv("CONCH_SEED", "17")
    _, report = run_json(capsys, ["run", src])
    assert report["seed"] == 17
    _, report = run_json(capsys, ["run", src, "--seed", "3"])  # flag wins
    assert report["seed"] == 3


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
    assert main(["run", src, "--map", "nonsense"]) == EXIT_ASM


@pytest.mark.parametrize("command", [["run"], ["dump", "--range", "0x80000000:8"]], ids=["run", "dump"])
def test_negative_dram_latency_is_rejected(tmp_path, capsys, command):
    src = write(tmp_path, "p.s", EXIT_PROG)
    assert main([command[0], src, *command[1:], "--dram-latency", "-100"]) == EXIT_ASM
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("conch: ") and "--dram-latency" in err


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
    ],
)
def test_malformed_image_exit_code(tmp_path, capsys, doc):
    img = write(tmp_path, "bad.json", json.dumps(doc))
    assert main(["run", img]) == EXIT_ASM
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("conch: ")


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
@settings(max_examples=100, deadline=None)
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


@pytest.mark.parametrize("span", ["0:16", "0x80000000:-8"])
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


# ---- console script -------------------------------------------------------------


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_module(argv):
    """Run `python -m conch argv` with the imported conch package first on
    the child's path, so neither the working directory nor an install
    decides which code runs."""
    env = dict(os.environ)
    pkg_root = str(Path(conch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "conch", *argv],
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


def test_cli_import_leaves_numpy_unloaded():
    pkg_root = str(Path(conch.__file__).resolve().parents[1])
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import conch.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe, pkg_root], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
