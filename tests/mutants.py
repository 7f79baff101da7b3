"""The mutation gate: each check must still catch the defect it exists
for. Every mutant below plants one defect in a copy of src/ by replacing
an old text, which must occur exactly once in its file, with a new text,
and names the tests that should fail on it. A refactor that moves a
patched line updates its mutant, which shows that the check still bites.

Run from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the runner copies src/ to a temporary directory, applies
the patch, checks that the patched tree imports, and runs the named tests
against it with -x under the "mutants" Hypothesis profile (no shrink
phase, no example database; see conftest.py), so a failing property test
reports its first failing example instead of shrinking it. A mutant is
killed when at least one test fails. A control run first runs every named
test on an unpatched copy, where all must pass. The exit status is 0 only
if the control passes and every mutant applies and is killed. It is not
part of Tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # per mutant; a mutant still running then is not killed


class Mutant(NamedTuple):
    name: str
    file: str  # under src/conch
    old: str
    new: str
    tests: tuple  # pytest node ids that should kill it


MUTANTS = (
    Mutant(
        "narrow store replaces the tag instead of ORing it",
        "mem.py",
        "tag = src_tag if width == 8 else (line.tags >> j) & 1 | src_tag",
        "tag = src_tag",
        (
            "tests/test_mem.py::test_partial_store_retains_tag",
            "tests/test_core.py::test_dispatch_matches_reference_on_random_sequences",
            "tests/test_acceptance.py::test_criterion_04_soundness",
        ),
    ),
    Mutant(
        "model A is charged no tag DRAM accesses",
        "report.py",
        '"a": mem.tag_store_touches,',
        '"a": 0,',
        ("tests/test_report.py::test_run_models_order_and_agreement", "tests/test_goldens.py"),
    ),
    Mutant(
        "over-tag blocks are never counted",
        "mem.py",
        "self.overtag_cipher_blocks += 1",
        "self.overtag_cipher_blocks += 0",
        ("tests/test_report.py::test_overtag_cycle_attribution", "tests/test_goldens.py"),
    ),
    Mutant(
        "OP-IMM drops its source tag",
        "core.py",
        "st.reg_tags[rd] = st.reg_tags[rs1]",
        "st.reg_tags[rd] = 0",
        ("tests/test_acceptance.py::test_criterion_04_soundness",),
    ),
    Mutant(
        "write() emits tagged words in plaintext",
        "os_shim.py",
        "value = qarma_encrypt(st.key, w, value, memo=mem.memo)",
        "value = value",
        ("tests/test_os.py::test_write_tagged_emits_at_rest_ciphertext", "tests/test_acceptance.py::test_criterion_02_confidentiality_end_to_end"),
    ),
    Mutant(
        "a thread switch does not flush",
        "os_shim.py",
        "mem.flush_and_sync(st.key)\n        st.key = self.key_for(tid, mem.memo)",
        "st.key = self.key_for(tid, mem.memo)",
        ("tests/test_acceptance.py::test_criterion_08_thread_key_isolation", "tests/test_report.py::test_cached_matches_uncached_on_corpus"),
    ),
    Mutant(
        "a mispredict is never counted",
        "core.py",
        "st.mispredicts += 1",
        "st.mispredicts += 0",
        ("tests/test_core.py::test_branch_and_prediction_costs", "tests/test_goldens.py"),
    ),
    Mutant(
        "a dirty tag-line victim is not written back",
        "mem.py",
        "self.tag_writebacks += 1",
        "self.tag_writebacks += 0",
        ("tests/test_mem.py::test_model_b_dirty_tag_eviction_costs_one_more", "tests/test_acceptance.py::test_criterion_06_overhead_ordering"),
    ),
    Mutant(
        "run ignores st.max_instret",
        "core.py",
        "max_instret = st.max_instret",
        "max_instret = DEFAULT_MAX_INSTRET",
        ("tests/test_core.py::test_run_budget_stops_a_program_before_its_end",),
    ),
    Mutant(
        "counts prices every model with model B's memory counters",
        "report.py",
        "ms = mem_stats(mem, model)",
        'ms = mem_stats(mem, "b")',
        ("tests/test_goldens.py",),
    ),
    Mutant(
        "decryption runs the encryption key terms",
        "crypt.py",
        "_key_consts(key)[direction]",
        "_key_consts(key)[0]",
        ("tests/test_acceptance.py::test_criterion_01_cipher_conformance",),
    ),
    Mutant(
        "a writeback leaves tagged words in plaintext",
        "mem.py",
        "words = self._transcode(line.base, line.words, line.tags, key, qarma_encrypt)",
        "words = line.words",
        ("tests/test_report.py::test_cached_matches_uncached_on_corpus",),
    ),
    Mutant(
        "planes are shared mappings",
        "mem.py",
        "mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)",
        "mmap.mmap(-1, size)",
        ("tests/test_mem.py::test_fresh_planes_cost_no_rss_until_written",),
    ),
    Mutant(
        "DRAM's bound refuses its last byte",
        "mem.py",
        "addr + n <= DRAM_END",
        "addr + n < DRAM_END",
        (
            "tests/test_mem.py::test_dram_ends_at_dram_end_for_every_caller",
            "tests/test_os.py::test_openat_path_running_out_of_dram_is_efault",
        ),
    ),
    Mutant(
        "a memory operand's base register is not packed",
        "isa.py",
        '{"rs1" if op == "mem" else op for',
        "{op for",
        (
            "tests/test_asm.py::test_every_mnemonic_assembles_decodes_and_disassembles_back",
            "tests/test_asm.py::test_program_images_match_golden",
        ),
    ),
    Mutant(
        "a zero-length ctag walks a line",
        "mem.py",
        "        if length == 0:\n            return\n",
        "",
        ("tests/test_core.py::test_zero_length_ctag_does_nothing",),
    ),
    Mutant(
        "a trap at a pc no word starts at names a word",
        "report.py",
        'stop == "trap" and not st.pc & 3',
        'stop == "trap" or not st.pc & 3',
        ("tests/test_cli.py::test_trap_names_its_pc",),
    ),
)


def apply(mutant, src):
    """Patch the copy of src/ at src; the old text must occur exactly once."""
    path = src / "conch" / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: old text occurs {found} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def verdict(tests, mutant=None):
    """"killed" (a test failed), "survived", "timeout" or "error: ..." for
    tests run against a copy of src/, patched by mutant if one is given."""
    with tempfile.TemporaryDirectory(prefix="conch-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant:
            apply(mutant, src)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        probe = subprocess.run(
            [sys.executable, "-c", "import conch.cli, conch.report"], cwd=ROOT, env=env, capture_output=True, text=True
        )
        if probe.returncode:
            return "error: the patched tree does not import\n" + probe.stderr
        cmd = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-profile=mutants", "--hypothesis-seed=0", *tests,
        ]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    if proc.returncode == 1:  # pytest: some test failed
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exited {proc.returncode}\n" + proc.stdout[-2000:] + proc.stderr[-2000:]


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    # the control: unpatched, every named test passes, so a kill below is
    # the planted defect's doing
    tests = sorted({t for m in chosen for t in m.tests})
    t0 = time.monotonic()
    control = verdict(tests)
    control = {"survived": "passed", "killed": "FAILED"}.get(control, control)
    print(f"{control:<8} {time.monotonic() - t0:6.1f} s  (control: the named tests, no mutant)", flush=True)
    bad = control != "passed"
    for mutant in chosen:
        t0 = time.monotonic()
        try:
            result = verdict(mutant.tests, mutant)
        except ValueError as exc:
            result = f"error: {exc}"
        bad += result != "killed"
        print(f"{result:<8} {time.monotonic() - t0:6.1f} s  {mutant.name}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
