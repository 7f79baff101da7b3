"""The mutation gate: each check must still catch the defect it exists
for. A mutant plants one defect in a copy of src/ and runs tests on it;
it is killed when one of them fails. Run from the repository root:

    python tests/mutants.py                             # the named mutants
    python tests/mutants.py NAME ...                    # some of them
    python tests/mutants.py --sweep                     # every module
    python tests/mutants.py --sweep src/conch/core.py   # one module

The sweep generates mutants by rule. Its clause family forces each
single-line if, while or ternary test to False, drops each operand of
each single-line and/or, and writes True (in an and) or False (in an or)
over each one-line operand of an and/or that spans lines. Its operator
family, at the first match of each operator on a code line, turns
`+= x` into `+= 0` and swaps < with <=, > with >= and `and` with `or`.
A named mutant (MUTANTS) is a defect no rule plants: it replaces an old
text, which must occur once in its file, with a new one, and names the
tests that should fail; a refactor that moves a patched line updates the
mutant. test_mutants.py fails if a named mutant patches its file as a
swept site does. So the named mutants alone are the quick gate, and
--sweep runs the generated mutants of its modules and their named ones.

First a control runs on an unpatched copy and must pass: the named
tests, or with --sweep all of Tier-1 under a sys.settrace tracer that
maps each test to the src/conch lines it ran (see traced). Then every
mutant runs in one pool of os.cpu_count() workers, each in a fresh
pytest with -x under the "mutants" Hypothesis profile (see conftest.py)
and seed 0. A named mutant runs its named tests. A swept mutant runs the
tests that reached its line, the fastest first: every test if the line
runs at import or outside any test, except that a mutant in a lambda's
body counts only the tests that ran the lambda; none if no test reached
it, so it survives. A mutant still running after HANG_S, or after the
control's time if longer, has hung. A patched tree that does not import
stops pytest at conftest.py, an error. A named mutant that survives,
hangs or errs fails the gate; a swept one that hangs or errs is killed,
and one that survives must be listed in EQUIVALENT with the reason no
input can tell it from the original. A listed entry that no longer
survives fails the sweep too. None of this is part of Tier-1. All ten
modules took 9 to 16 minutes on 2 vCPU (CPython 3.11), the traced
control included.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # per control; a control still running then fails
HANG_S = 120  # per mutant, or its control's time if longer; one still running then has hung


class Mutant(NamedTuple):
    name: str
    file: str  # under src/conch
    old: str
    new: str
    tests: tuple  # pytest node ids that should kill it

    def apply(self, conch):
        """Patch the copy of src/conch at conch; the old text must occur
        exactly once."""
        path = conch / self.file
        text = path.read_text(encoding="utf-8")
        found = text.count(self.old)
        if found != 1:
            raise ValueError(f"{self.name}: old text occurs {found} times in {self.file}")
        path.write_text(text.replace(self.old, self.new), encoding="utf-8")


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
            "tests/test_channels.py::test_a_straight_line_program_shows_one_view_for_two_secrets",
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
        "OP-IMM drops its source tag",
        "core.py",
        "st.reg_tags[rd] = st.reg_tags[rs1]",
        "st.reg_tags[rd] = 0",
        ("tests/test_acceptance.py::test_criterion_04_soundness", "tests/test_channels.py::test_a_straight_line_program_shows_one_view_for_two_secrets"),
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
        "simulate runs without the byte oracle",
        "report.py",
        "stop = run(st, mem, shim, ByteOracle() if with_oracle else None)",
        "stop = run(st, mem, shim, None)",
        ("tests/test_report.py::test_simulate_runs_the_register_oracle",),
    ),
    Mutant(
        "ctag.rdt leaves its old oracle taint",
        "core.py",
        "write_untagged(st, oracle, rd, mem.ctag_read(st.regs[rs1]))",
        "st.regs[rd], st.reg_tags[rd] = mem.ctag_read(st.regs[rs1]), 0",
        ("tests/test_report.py::test_ctag_rdt_and_an_ecall_clear_the_oracle_taint_of_their_result",),
    ),
    Mutant(
        "the over-tag span drops the oracle bytes of its first tag byte",
        "report.py",
        "oracle[8 * lo : 8 * hi]",
        "oracle[8 * lo + 8 : 8 * hi]",
        (
            "tests/test_report.py::test_overtagging_matches_whole_plane_scan_at_chunk_edges",
            "tests/test_report.py::test_overtagging_scans_the_tagged_span_exactly",
            "tests/test_report.py::test_overtagging_matches_whole_plane_scan_on_sparse_regions",
            "tests/test_report.py::test_set_bits_lie_in_recorded_regions",
        ),
    ),
)


class Equivalent(NamedTuple):
    """A swept mutant that no input can tell from the original."""

    file: str  # under src/conch
    text: str  # the mutated line, stripped
    op: str  # the operator, as Site.op names it
    reason: str


EQUIVALENT = (
    Equivalent(
        "core.py",
        "return q if (a < 0) == (b < 0) else -q",
        "< -> <=",
        "when a is 0, q is 0, and -0 is 0",
    ),
    Equivalent(
        "mem.py",
        "if mru is not None and mru.base == line_base:",
        "mru is not None and mru.base == line_base -> False",
        "a fast path: mru is first in its set, so the walk finds it there and reorders nothing",
    ),
    Equivalent(
        "mem.py",
        "if line is not None and line.base == line_base:",
        "line is not None and line.base == line_base -> False",
        "a fast path: a resident line lies in DRAM, so the range check passes, and _access "
        "finds icache.mru through find and counts the same hit",
    ),
)


class Site(NamedTuple):
    """One generated mutant: line lineno of file (under src/conch), which
    reads text once stripped, rewritten to new by operator op, inside a
    lambda's body or not."""

    file: str
    lineno: int
    text: str
    op: str
    new: str
    in_lambda: bool = False

    @property
    def name(self):
        return f"{self.file}:{self.lineno}: {self.op}"

    def apply(self, conch):
        path = conch / self.file
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[self.lineno - 1] = self.new
        path.write_text("".join(lines), encoding="utf-8")


_SWAP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "and": "or", "or": "and"}


def sites(file):
    """The clause and operator mutants of src/conch/file, in line order."""
    source = (ROOT / "src" / "conch" / file).read_text(encoding="utf-8")
    lines = source.splitlines(keepends=True)
    tree = ast.parse(source)
    found = {}

    def col(lineno, offset):
        """The character column of UTF-8 byte offset on line lineno, as ast
        counts them."""
        return len(lines[lineno - 1].encode("utf-8")[:offset].decode("utf-8"))

    # (line, column) where each lambda's body starts and ends
    bodies = [
        ((b.lineno, col(b.lineno, b.col_offset)), (b.end_lineno, col(b.end_lineno, b.end_col_offset)))
        for b in (node.body for node in ast.walk(tree) if isinstance(node, ast.Lambda))
    ]

    def add(lineno, start, end, repl, op):
        # start and end are character columns of line lineno
        line = lines[lineno - 1]
        new = line[:start] + repl + line[end:]
        in_lambda = any(lo <= (lineno, start) and (lineno, end) <= hi for lo, hi in bodies)
        found.setdefault((lineno, new), (start, Site(file, lineno, line.strip(), op, new, in_lambda)))

    def span(node):
        """node's character columns, if it lies on one line."""
        if node.lineno != node.end_lineno:
            return None
        return col(node.lineno, node.col_offset), col(node.lineno, node.end_col_offset)

    def text(node):
        start, end = span(node)
        return lines[node.lineno - 1][start:end]

    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)) and span(node.test):
            add(node.test.lineno, *span(node.test), "False", f"{text(node.test)} -> False")
        elif isinstance(node, ast.BoolOp) and span(node):
            word = " and " if isinstance(node.op, ast.And) else " or "
            for dropped in node.values:
                kept = word.join(f"({text(v)})" for v in node.values if v is not dropped)
                add(node.lineno, *span(node), f"({kept})", f"drop {text(dropped)}")
        elif isinstance(node, ast.BoolOp):
            # over several lines: each one-line operand gives way to the
            # value that leaves the others to decide
            neutral = "True" if isinstance(node.op, ast.And) else "False"
            for dropped in node.values:
                if span(dropped):
                    add(dropped.lineno, *span(dropped), neutral, f"drop {text(dropped)}")
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) and span(node):
            if not (isinstance(node.value, ast.Constant) and node.value.value == 0):
                add(node.lineno, *span(node.value), "0", f"+= {text(node.value)} -> += 0")
    first = set()  # (line, operator): only the first match on a line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.OP, tokenize.NAME) and tok.string in _SWAP and (tok.start[0], tok.string) not in first:
            first.add((tok.start[0], tok.string))
            add(tok.start[0], tok.start[1], tok.end[1], _SWAP[tok.string], f"{tok.string} -> {_SWAP[tok.string]}")
    ordered = [site for _, (_, site) in sorted(found.items(), key=lambda kv: (kv[0][0], kv[1][0]))]
    # the second and later mutants that read alike (same line text, same
    # operator) are told apart by their rank
    seen = {}
    for i, site in enumerate(ordered):
        n = seen[site.text, site.op] = seen.get((site.text, site.op), 0) + 1
        if n > 1:
            ordered[i] = site._replace(op=f"{site.op} #{n}")
    return ordered


IMPORT = "<import>"  # the reach map's key for the lines no single test is charged with


def traced(out, args):
    """Run pytest on args in this process under a sys.settrace line
    tracer, write the reach map to out as JSON and return pytest's exit
    status. The map holds, for each test's node id, the src/conch lines
    ("file:line", or "file<lambda>:line" for a lambda's body) run while
    that test was set up, run or torn down; under IMPORT, first, the lines
    run outside any test (collection imports every module) and by a
    module's own code; a test that runs conch in a child process reaches
    only the lines its own process runs. The tests follow in the order of
    their traced time, the fastest first, so that a mutant meets a cheap
    test that kills it before a slow one (as PIT orders them)."""
    import pytest

    pkg = importlib.util.find_spec("conch").submodule_search_locations[0] + os.sep
    reach = {IMPORT: {}}  # test -> file -> lines
    current = [reach[IMPORT]]

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(pkg):
            return None
        name = code.co_filename[len(pkg) :]
        if code.co_name == "<lambda>":  # its body, not the line that defines it
            name += code.co_name
        add = (reach[IMPORT] if code.co_name == "<module>" else current[0]).setdefault(name, set()).add
        add(frame.f_lineno)

        def on_line(frame, event, arg):  # a return or an exception stays on a line run
            add(frame.f_lineno)
            return on_line

        return on_line

    secs = {}

    class Charge:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            current[0] = reach.setdefault(item.nodeid, {})
            t = time.perf_counter()
            yield
            secs[item.nodeid] = time.perf_counter() - t
            current[0] = reach[IMPORT]

    sys.settrace(on_call)
    try:
        status = pytest.main(args, plugins=[Charge()])
    finally:
        sys.settrace(None)
    order = sorted(reach, key=lambda test: secs.get(test, -1))  # IMPORT, then the fastest test first
    lines = {test: [f"{f}:{n}" for f, ns in reach[test].items() for n in sorted(ns)] for test in order}
    Path(out).write_text(json.dumps(lines), encoding="utf-8")
    return int(status)


def selection(reach, site):
    """The node ids of the tests that reach site's line (for a site in a
    lambda's body, that run the lambda on it), in the map's order: every
    test if the line runs at import, none if no test runs it."""
    line = f"{site.file}{'<lambda>' if site.in_lambda else ''}:{site.lineno}"
    everyone = line in reach[IMPORT]
    return [test for test, lines in reach.items() if test != IMPORT and (everyone or line in lines)]


def verdict(tests, mutant=None, timeout=TIMEOUT_S, reach_to=None):
    """(outcome, detail) for tests run against a copy of src/, patched by
    mutant if one is given. outcome is "killed" (a test failed),
    "survived" (every test passed, or there was none to run), "timeout"
    or "error" (pytest exited otherwise; a patched tree that does not
    import stops it at conftest.py with exit 4). With reach_to, a path,
    the run is traced and writes its reach map there (see traced)."""
    if not tests:
        return "survived", "no test reaches the mutated line"
    with tempfile.TemporaryDirectory(prefix="conch-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant:
            mutant.apply(src / "conch")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        args = ["-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=mutants", "--hypothesis-seed=0", *tests]
        if reach_to is None:
            cmd = [sys.executable, "-m", "pytest", *args]
        else:
            env["PYTHONPATH"] += os.pathsep + str(ROOT / "tests")
            trace = "import sys, mutants; sys.exit(mutants.traced(sys.argv[1], sys.argv[2:]))"
            cmd = [sys.executable, "-c", trace, str(reach_to), *args]
        # a session of its own, so a hung run is killed with its children
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", ""
        finally:
            if proc.returncode is None:  # hung, or this run was interrupted
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
    if proc.returncode == 1:  # pytest: some test failed
        return "killed", ""
    if proc.returncode == 0:
        return "survived", ""
    return "error", f"pytest exited {proc.returncode}\n" + out[-2000:] + err[-2000:]


def mutate(named, files, reach, timeout):
    """Run the named mutants, each against its own tests, and the swept
    mutants of files (under src/conch), each against the tests that reach
    its line, in one pool; a run past timeout has hung. 0 if each named
    mutant is killed, each swept survivor is listed in EQUIVALENT and each
    entry of EQUIVALENT for files still survives."""
    jobs = [(m, m.tests) for m in named] + [(s, selection(reach, s)) for f in files for s in sites(f)]
    listed = {(e.file, e.text, e.op) for e in EQUIVALENT if e.file in files}
    tally = {f: dict.fromkeys(("killed", "equivalent", "survived"), 0) for f in files}
    failed = []

    def one(job):
        mutant, tests = job
        t = time.monotonic()
        try:
            outcome, detail = verdict(tests, mutant, timeout)
        except ValueError as exc:  # a named mutant's old text is gone
            outcome, detail = "error", str(exc)
        return mutant, len(tests), outcome, detail, time.monotonic() - t

    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for mutant, n, outcome, detail, secs in pool.map(one, jobs):
            label = {"timeout": "hung"}.get(outcome, outcome)
            if isinstance(mutant, Mutant):
                ok = outcome == "killed"  # a hang or an error fails it
            else:
                key = (mutant.file, mutant.text, mutant.op)
                if outcome == "survived" and key in listed:
                    label = "equivalent"
                    listed.remove(key)
                ok = label != "survived"
                tally[mutant.file]["killed" if outcome != "survived" else label] += 1
            if not ok:
                label = label.upper()
                failed.append(f"{label}: {mutant.name}")
            line = f"  | {mutant.text}" if isinstance(mutant, Site) else ""
            print(f"{label:<10} {secs:6.1f} s {n:4d} tests  {mutant.name}{line}", flush=True)
            if detail and not ok:
                print(detail, flush=True)
    for f, t in tally.items():
        print(f"{f}: {sum(t.values())} mutants, {t['killed']} killed, {t['equivalent']} equivalent, {t['survived']} survived")
    failed += [f"stale EQUIVALENT entry (no surviving mutant): {f}: {op}  | {text}" for f, text, op in sorted(listed)]
    for line in failed:
        print(line)
    return 1 if failed else 0


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--sweep"]:
        modules = sorted(p.name for p in (ROOT / "src" / "conch").glob("*.py"))
        files = [Path(f).name for f in args[1:]] or modules
        unknown = set(files) - set(modules)
        named = [m for m in MUTANTS if m.file in files]
    else:
        files, unknown = [], set(args) - {m.name for m in MUTANTS}
        named = [m for m in MUTANTS if not args or m.name in args]
    if unknown:
        print(f"no such mutant or module of src/conch: {sorted(unknown)}", file=sys.stderr)
        return 2
    # the control: unpatched, every test passes, so a kill below is the
    # planted defect's doing; with --sweep it runs Tier-1, every named test
    # among it, and maps what each test reaches
    with tempfile.TemporaryDirectory(prefix="conch-reach-") as tmp:
        reach_to = Path(tmp) / "reach.json" if files else None
        t0 = time.monotonic()
        control, detail = verdict(["tests"] if files else sorted({t for m in named for t in m.tests}), reach_to=reach_to)
        elapsed = time.monotonic() - t0
        status = {"survived": "passed", "killed": "FAILED"}.get(control, control)
        what = "Tier-1 traced" if files else "the named tests"
        print(f"{status:<10} {elapsed:6.1f} s  (control: {what}, no mutant)", flush=True)
        if control != "survived":
            print(detail, file=sys.stderr)
            return 1
        reach = None
        if files:
            reach = {test: set(lines) for test, lines in json.loads(reach_to.read_text(encoding="utf-8")).items()}
    return mutate(named, files, reach, max(HANG_S, elapsed))


if __name__ == "__main__":
    sys.exit(main())
