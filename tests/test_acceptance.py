"""The acceptance gate: ten numbered criteria, each one test with one
pass/fail line on stdout (visible with -s; pytest -v shows the same
verdict per test). Every criterion asserts at its stated tolerance;
nothing here is approximate unless the criterion itself is a trend."""

import functools
import json
import random
import time
from pathlib import Path

import pytest

from conch import asm
from conch.cli import DEMOS, main
from conch.core import run
from conch.crypt import Key128, qarma_decrypt, qarma_encrypt
from conch.mem import REGION_SHIFT
from conch.report import MODELS, ByteOracle, build_report, compute_overtagging, emit_report, run_models, simulate

from conftest import (
    CLEAR_FLOW,
    VEC_C,
    VEC_K0,
    VEC_P,
    VEC_T,
    VEC_W0,
    boot,
    demo_path,
    demo_source,
    mem_counters,
    plane_diff,
)

MIB = 1024 * 1024
GOLDENS = Path(__file__).parent / "data" / "goldens"

# the heartbleed demo's inputs, as `conch demo heartbleed` mounts them
HB_FS = DEMOS["heartbleed"]["fs"]


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"acceptance criterion {num:2d} ({name}): FAIL")
                raise
            print(f"acceptance criterion {num:2d} ({name}): PASS")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    """All corpus programs under all three models; every store checks
    word-level soundness. Used by criterion 9."""
    runs = {}
    for name, source, fs in corpus:
        program = asm.assemble(source)
        runs[name] = run_models(program=program, fs=fs, seed=0)
    return runs


@pytest.fixture(scope="module")
def single_model_runs(corpus):
    """The corpus again, as one simulate per model, each with a fresh
    block memo: the reference criterion 9 holds the fused runs of
    run_models to. Only the tests run a model alone."""
    runs = {}
    for name, source, fs in corpus:
        program = asm.assemble(source)
        runs[name] = {m: simulate(program=program, model=m, fs=fs, seed=0) for m in MODELS}
    return runs


# -----------------------------------------------------------------------------


@criterion(1, "cipher conformance")
def test_criterion_01_cipher_conformance():
    start = time.monotonic()
    key = Key128(VEC_W0, VEC_K0)
    assert qarma_encrypt(key, VEC_T, VEC_P) == VEC_C[1]  # sigma1, the engine's S-box
    assert qarma_decrypt(key, VEC_T, VEC_C[1]) == VEC_P

    rng = random.Random(0xACCE97)
    bits = lambda: rng.getrandbits(64)
    for _ in range(10_000):
        k = Key128(bits(), bits())
        t, p = bits(), bits()
        assert qarma_decrypt(k, t, qarma_encrypt(k, t, p)) == p
    assert time.monotonic() - start < 5.0


@criterion(2, "confidentiality end to end")
def test_criterion_02_confidentiality_end_to_end():
    program = asm.assemble(demo_source("heartbleed"))
    res = simulate(
        program=program,
        model="b",
        seed=0,
        fs=HB_FS,
    )
    assert res.stop == "exit" and res.st.exit_code == 0

    out = bytes(res.shim.stdout)
    secret = HB_FS["secret"]
    assert out[:16] == HB_FS["request"]  # the legitimate reply is plaintext
    assert secret not in out  # zero occurrences in the wire output
    assert res.mem.dram.find(secret) == -1  # zero occurrences in all of DRAM

    # the owning thread's key plus per-word address tweaks recover it exactly
    buf = program.symbols["buf"]
    key = res.shim.key_for(0)
    recovered = b""
    for w in range(buf + 16, buf + 48, 8):
        raw, tags = res.mem.raw_dump(w, 8)
        assert tags == [1]
        recovered += qarma_decrypt(key, w, int.from_bytes(raw, "little")).to_bytes(8, "little")
    assert recovered == secret


TWEAK_PROG = """
    .org 0x80000000
_start:
    la   t3, secret
    ld   t1, 0(t3)
    la   t0, dst
    li   t2, 100
loop:
    sd   t1, 0(t0)
    mv   a0, t0
    li   a1, 8
    ctag.set a0, a1
    addi t0, t0, 8
    addi t2, t2, -1
    bne  t2, x0, loop
    li   a0, 0
    li   a7, 93
    ecall

    .org 0x80000100
secret:
    .dword 0x4B313359454E4F4D

    .org 0x80200000
dst:
    .dword 0
"""


@criterion(3, "tweak separation")
def test_criterion_03_tweak_separation():
    res = simulate(TWEAK_PROG, model="b", seed=0)
    assert res.stop == "exit"
    plain = (0x4B313359454E4F4D).to_bytes(8, "little")
    key = res.shim.key_for(0)
    seen = set()
    for i in range(100):
        addr = 0x80200000 + 8 * i
        raw, tags = res.mem.raw_dump(addr, 8)
        assert tags == [1]
        assert raw != plain
        assert qarma_decrypt(key, addr, int.from_bytes(raw, "little")) == int.from_bytes(plain, "little")
        seen.add(raw)
    assert len(seen) == 100  # all distinct


class CheckingOracle(ByteOracle):
    """Byte oracle that checks reg_tag >= oracle-OR after every retired
    register write; core.step updates the register file first."""

    def __init__(self):
        super().__init__()
        self.st = None
        self.violations = []

    def oracle_step(self, event, rd, info):
        super().oracle_step(event, rd, info)
        if rd and self.reg[rd] and not self.st.reg_tags[rd]:
            self.violations.append(f"x{rd} oracle {self.reg[rd]:#04x} but tag 0 ({event})")


# An untagged byte stored into a word getrandom tagged: the retain-OR
# rule keeps the word tagged, so its other seven bytes stay covered. No
# corpus program stores a narrow untagged value into a tagged word.
NARROW_INTO_TAGGED = """
    .text
_start:
    la   s0, word
    mv   a0, s0
    li   a1, 8
    li   a2, 0
    li   a7, 278
    ecall                    # 8 tagged random bytes
    sb   zero, 0(s0)
    ld   t0, 0(s0)
    li   a0, 0
    li   a7, 93
    ecall
    .data
    .align 3
word:
    .dword 0
"""


def _popcount(buf):
    return int.from_bytes(buf, "little").bit_count()


@criterion(4, "soundness, no under-tagging")
def test_criterion_04_soundness(corpus):
    for name, source, fs in [*corpus, ("narrow_into_tagged", NARROW_INTO_TAGGED, {})]:
        program = asm.assemble(source)
        # every store asserts word-level soundness; SoundnessViolation is
        # an AssertionError and aborts.
        st, mem, shim = boot(program, fs)
        oracle = CheckingOracle()
        oracle.st = st
        stop = run(st, mem, shim, oracle)
        assert stop == "exit", f"{name}: stopped by {stop} ({st.trap})"
        assert st.exit_code == 0, f"{name}: exit {st.exit_code}"
        assert not oracle.violations, f"{name}: {oracle.violations[:3]}"
        mem.flush_and_sync(st.key)
        # final sweep over all of memory: every set tag or oracle bit lies
        # in a recorded region, and no region holds a tainted untagged word
        words = 1 << (REGION_SHIFT - 3)  # a region's words: a tag bit and an oracle byte each
        for plane, span in ((mem.tag_bits, words // 8), (mem.byte_oracle, words)):
            in_regions = sum(_popcount(plane[r * span : (r + 1) * span]) for r in mem.regions)
            assert _popcount(plane) == in_regions, f"{name}: a bit set outside the recorded regions"
        bad = 0
        for r in mem.regions:
            tags = int.from_bytes(mem.tag_bits[r * words // 8 : (r + 1) * words // 8], "little")
            tainted = sum(1 << k for k, b in enumerate(mem.byte_oracle[r * words : (r + 1) * words]) if b)
            bad += (tainted & ~tags).bit_count()
        assert not bad, f"{name}: {bad} under-tagged words"
    # the last program run, NARROW_INTO_TAGGED, left its word tagged
    assert mem.word_tag(program.symbols["word"]) == 1


ALIGNED_PROG = """
    .org 0x80000000
_start:
    la   a0, buf
    li   a1, 64
    li   a2, 0
    li   a7, 278
    ecall
    li   a0, 0
    li   a7, 93
    ecall

    .org 0x80000100
buf:
    .dword 0, 0, 0, 0
    .dword 0, 0, 0, 0
"""


@criterion(5, "over-tagging in kind")
def test_criterion_05_overtagging(corpus):
    program = asm.assemble(demo_source("granularity"))
    res = simulate(program=program, model="b", seed=0)
    assert res.stop == "exit"
    stats = compute_overtagging(res.mem)
    assert stats["overtagged_bytes"] == 4  # exactly the 4 public neighbors

    # the conflicted word alone: tag covers 8 bytes, 4 are sensitive
    packed = program.symbols["packed"]
    assert res.mem.word_tag(packed) == 1
    sensitive = bin(res.mem.oracle_bits_for(packed, 8)).count("1")
    assert 100.0 * (8 - sensitive) / 8 == 50.0

    # a fully word-aligned sensitive workload over-tags nothing
    res2 = simulate(ALIGNED_PROG, model="b", seed=0)
    assert res2.stop == "exit"
    stats2 = compute_overtagging(res2.mem)
    assert stats2["words_tagged_final"] == 8
    assert stats2["overtag_ratio_pct"] == 0.0


STREAM_PROG = """
    .org 0x80000000
_start:
    la   s0, region
    li   s1, 0x80000          # 512 KiB region
    ctag.set s0, s1
    add  t1, s0, s1
    mv   t0, s0
    li   t2, 0
rd:
    ld   t3, 0(t0)
    add  t2, t2, t3
    addi t0, t0, 64
    bltu t0, t1, rd
    li   a0, 0
    li   a7, 93
    ecall

    .org 0x80400000
region:
    .dword 0
"""


@criterion(6, "overhead ordering and tag-cache efficacy")
def test_criterion_06_overhead_ordering():
    start = time.monotonic()
    results = run_models(STREAM_PROG, seed=0)
    elapsed = time.monotonic() - start
    base = results["baseline"].cycles
    a = results["a"].cycles
    b = results["b"].cycles
    assert results["b"].mem.cipher_blocks * 8 >= MIB  # tagged traffic floor
    assert a > b > base > 0
    overhead_a = (a - base) / base
    overhead_b = (b - base) / base
    assert overhead_b < overhead_a / 2
    assert elapsed < 60.0
    # the one workload that sweeps the cipher and the tag cache at scale:
    # its seed-0 report is pinned byte for byte (regenerate with
    # tests/test_goldens.py)
    golden = (GOLDENS / "report_stream512k.json").read_bytes().decode("utf-8")
    assert emit_report(build_report(results), fmt="json") == golden


PURITY_PROG = """
    .org 0x80000000
_start:
    li   a0, -100
    la   a1, path_a
    lui  a2, 0
    li   a7, 56
    ecall
    la   a1, buf_a
    li   a2, 64
    li   a7, 63
    ecall

    li   a0, -100
    la   a1, path_b
    lui  a2, {hi}
    li   a7, 56
    ecall
    la   a1, buf_b
    li   a2, 64
    li   a7, 63
    ecall

    la   t0, buf_a
    li   t1, 16
    li   t2, 0
sum:
    ld   t3, 0(t0)
    add  t2, t2, t3
    addi t0, t0, 8
    addi t1, t1, -1
    bne  t1, x0, sum

    li   a0, 1
    la   a1, buf_a
    li   a2, 128
    li   a7, 64
    ecall

    li   a0, 0
    li   a7, 93
    ecall

    .org 0x80000200
path_a:
    .asciz "blob_a"
path_b:
    .asciz "blob_b"
    .align 3
buf_a:
    .dword 0, 0, 0, 0
    .dword 0, 0, 0, 0
buf_b:
    .dword 0, 0, 0, 0
    .dword 0, 0, 0, 0
"""

PURITY_FS = {"blob_a": bytes(range(64)), "blob_b": bytes(range(64, 128))}


@criterion(7, "baseline purity")
def test_criterion_07_baseline_purity():
    # identical instruction streams; only the O_SENSITIVE bit differs,
    # so variant B tags half the workload's data and variant A none
    plain = PURITY_PROG.format(hi=0)
    tagged = PURITY_PROG.format(hi=0x2000)
    rp = simulate(plain, model="baseline", seed=0, fs=dict(PURITY_FS))
    rt = simulate(tagged, model="baseline", seed=0, fs=dict(PURITY_FS))
    assert rp.stop == rt.stop == "exit"
    assert rp.st.instret == rt.st.instret
    assert rt.cycles - rp.cycles == 0  # exactly zero
    # sanity: a tag-aware model does see the difference
    ap = simulate(plain, model="a", seed=0, fs=dict(PURITY_FS))
    at = simulate(tagged, model="a", seed=0, fs=dict(PURITY_FS))
    assert at.cycles > ap.cycles


SWITCHBACK_PROG = """
    .org 0x80000000
_start:
    la   s0, slot
    mv   a0, s0
    li   a1, 8
    li   a2, 0
    li   a7, 278
    ecall                   # tagged randomness under thread 0
    ld   s1, 0(s0)

    li   a0, 1
    li   a7, 5000
    ecall                   # to thread 1
    ld   s2, 0(s0)

    li   a0, 0
    li   a7, 5000
    ecall                   # back to thread 0
    ld   s3, 0(s0)

    li   a0, 0
    li   a7, 93
    ecall

    .org 0x80000100
slot:
    .dword 0
"""


@criterion(8, "thread-key isolation")
def test_criterion_08_thread_key_isolation():
    program = asm.assemble(SWITCHBACK_PROG)
    res = simulate(program=program, model="b", seed=0)
    assert res.stop == "exit" and res.st.exit_code == 0
    slot = program.symbols["slot"]
    s1, s2, s3 = res.st.regs[9], res.st.regs[18], res.st.regs[19]
    key0, key1 = res.shim.key_for(0), res.shim.key_for(1)
    assert s2 != s1  # cross-key view is not the plaintext
    assert s2 == qarma_decrypt(key1, slot, qarma_encrypt(key0, slot, s1))
    assert s3 == s1  # switching back restores exact values

    # the bundled demo asserts the same thing from inside the guest
    rd = simulate(demo_source("threads"), model="b", seed=0)
    assert rd.stop == "exit" and rd.st.exit_code == 0


@criterion(9, "semantics preservation")
def test_criterion_09_semantics_preservation(corpus_runs, single_model_runs):
    for name, results in corpus_runs.items():
        assert list(results) == ["baseline", "a", "b"], name
        base = results["baseline"]
        assert base.stop == "exit", name
        # same key, same logical values: the at-rest images match bit for
        # bit, and so do the tag and oracle planes; memory counts the same
        # events whatever the model, and the runs differ only in how report
        # prices them. Fused vs single-model: each model run alone, with
        # its own memo, matches that model in the shared run.
        pairs = [(f"fused {m}", r, base) for m, r in results.items() if r is not base]
        pairs += [(f"alone {m}", single_model_runs[name][m], r) for m, r in results.items()]
        for what, r, ref in pairs:
            for label, x, y in zip(_STATE, _state(r), _state(ref)):
                assert x == y, (name, what, label)
            assert plane_diff(r.mem, ref.mem) is None, (name, what)
            assert _counters(r) == _counters(ref), (name, what)
        for m, r in results.items():
            assert single_model_runs[name][m].cycles == r.cycles, (name, m)


_STATE = ("regs", "reg_tags", "instret", "exit_code", "stop", "stdout")


def _state(r):
    """What a run leaves behind outside memory, labelled by _STATE;
    plane_diff compares the DRAM, tag and oracle planes."""
    st = r.st
    return st.regs, st.reg_tags, st.instret, st.exit_code, r.stop, bytes(r.shim.stdout)


def _counters(r):
    """Every event a run counted."""
    return (*mem_counters(r.mem), r.st.mispredicts, r.st.histogram)


@criterion(10, "determinism")
def test_criterion_10_determinism(tmp_path, capsys):
    src = tmp_path / "flow.s"
    src.write_text(CLEAR_FLOW)
    rep_a = tmp_path / "a.json"
    rep_b = tmp_path / "b.json"

    assert main(["run", str(src), "--seed", "11", "--report", str(rep_a)]) == 0
    first = capsys.readouterr().out
    assert main(["run", str(src), "--seed", "11", "--report", str(rep_b)]) == 0
    second = capsys.readouterr().out

    assert first == second  # byte-identical stdout JSON
    assert rep_a.read_bytes() == rep_b.read_bytes()
    assert json.loads(first)["seed"] == 11

    # and the same through an input file mount
    argv = ["run", demo_path("heartbleed"), "--seed", "3"]
    for virt, content in HB_FS.items():
        argv += ["--stream", f"{virt}={content.hex()}"]
    assert main(argv) == 0
    one = capsys.readouterr().out
    assert main(argv) == 0
    two = capsys.readouterr().out
    assert one == two
