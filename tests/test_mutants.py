"""The parts of tests/mutants.py that need no child process: the
generated mutants of a made-up module, the choice of the tests each
mutant runs, over a made-up reach map, the runner's rules, with verdict
or Popen stubbed out, and that no named mutant plants what a swept site
of src/conch plants."""

import json
from concurrent.futures import ThreadPoolExecutor

from hypothesis import settings

import mutants
from mutants import IMPORT, MUTANTS, Site, main, mutate, selection, sites, verdict

ONE, TWO, THREE = "tests/test_a.py::one", "tests/test_b.py::two[x]", "tests/test_b.py::three"

# in the order traced writes, the fastest test first; report.py:91 runs at
# import, core.py:7 defines at import a lambda that ONE runs, and crypt.py:3
# holds a lambda run outside any test
REACH = {
    IMPORT: {"report.py:91", "core.py:7", "crypt.py<lambda>:3", "crypt.py:3"},
    ONE: {"report.py:10", "core.py:5", "core.py<lambda>:7"},
    TWO: {"core.py:5"},
    THREE: set(),
}


def site(file, lineno, in_lambda=False):
    return Site(file, lineno, "x", "x -> False", "False\n", in_lambda)


def test_a_line_run_at_import_selects_every_test():
    assert selection(REACH, site("report.py", 91)) == [ONE, TWO, THREE]


def test_a_reached_line_selects_exactly_the_tests_that_reached_it():
    assert selection(REACH, site("core.py", 5)) == [ONE, TWO]
    assert selection(REACH, site("report.py", 10)) == [ONE]
    assert selection(REACH, site("report.py", 5)) == []  # the line, not its number


def test_an_unreached_line_selects_no_test_and_survives(monkeypatch):
    unreached = site("core.py", 6)
    assert selection(REACH, unreached) == []
    # decided without copying src/ or starting pytest
    monkeypatch.setattr(mutants.shutil, "copytree", None)
    monkeypatch.setattr(mutants.subprocess, "Popen", None)
    assert verdict(selection(REACH, unreached), unreached)[0] == "survived"


def test_a_multi_line_and_or_gives_up_each_one_line_operand(tmp_path, monkeypatch):
    (tmp_path / "src" / "conch").mkdir(parents=True)
    (tmp_path / "src" / "conch" / "m.py").write_text(
        "ok = (\n    a\n    and b(c,\n          d)\n    and e\n)\nno = (\n    f\n    or g\n)\n", encoding="utf-8"
    )
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    drops = {(s.lineno, s.op, s.new) for s in sites("m.py") if s.op.startswith("drop")}
    # b(c, d) spans two lines, so it is left as it is
    assert drops == {
        (2, "drop a", "    True\n"),
        (5, "drop e", "    and True\n"),
        (8, "drop f", "    False\n"),
        (9, "drop g", "    or False\n"),
    }


def test_a_mutant_in_a_lambda_body_selects_the_tests_that_ran_the_lambda():
    assert selection(REACH, site("core.py", 7, in_lambda=True)) == [ONE]
    assert selection(REACH, site("core.py", 7)) == [ONE, TWO, THREE]  # the line that defines it
    assert selection(REACH, site("crypt.py", 3, in_lambda=True)) == [ONE, TWO, THREE]


def test_sites_tell_a_lambda_body_from_the_line_that_defines_it(tmp_path, monkeypatch):
    (tmp_path / "src" / "conch").mkdir(parents=True)
    (tmp_path / "src" / "conch" / "m.py").write_text(
        'OPS = {"lt": lambda a, b: 1 if a < b else 0}\ng = lambda a, b=x < y: a >= b\nz = u if v < w else 0\n',
        encoding="utf-8",
    )
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    # a lambda's default value is computed where the lambda is defined
    assert {(s.lineno, s.op): s.in_lambda for s in sites("m.py")} == {
        (1, "a < b -> False"): True,
        (1, "< -> <="): True,
        (2, "< -> <="): False,
        (2, ">= -> >"): True,
        (3, "v < w -> False"): False,
        (3, "< -> <="): False,
    }


def test_both_hypothesis_profiles_have_no_deadline():
    assert settings.default.deadline is None
    assert settings.get_profile("mutants").deadline is None


def test_the_pool_has_one_worker_per_cpu(monkeypatch):
    workers = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, n):
            workers.append(n)
            super().__init__(n)

    monkeypatch.setattr(mutants.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(mutants, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(mutants, "verdict", lambda tests, mutant, timeout: ("killed", ""))
    assert mutate(MUTANTS[:2], [], None, 120) == 0
    assert workers == [3]


def test_a_named_mutant_that_hangs_fails_and_a_swept_one_that_hangs_is_killed(monkeypatch):
    monkeypatch.setattr(mutants, "verdict", lambda tests, mutant, timeout: ("timeout", ""))
    assert mutate(MUTANTS[:1], [], None, 120) == 1
    monkeypatch.setattr(mutants, "sites", lambda file: [site(file, 10)])
    assert mutate([], ["report.py"], REACH, 120) == 0


def test_a_sweep_of_a_file_runs_its_named_mutants_and_no_others(monkeypatch):
    ran = []

    def fake(tests, mutant=None, timeout=None, reach_to=None):
        if reach_to:  # the traced control
            reach_to.write_text(json.dumps({IMPORT: []}), encoding="utf-8")
        ran.append(mutant)
        return "killed" if mutant else "survived", ""

    monkeypatch.setattr(mutants, "verdict", fake)
    monkeypatch.setattr(mutants, "sites", lambda file: [])
    assert main(["--sweep", "src/conch/report.py"]) == 0
    assert ran[0] is None
    assert sorted(m.name for m in ran[1:]) == sorted(m.name for m in MUTANTS if m.file == "report.py")
    assert len(ran) > 1


def test_a_pytest_exit_of_4_is_an_error(monkeypatch, tmp_path):
    class Exit4:
        pid, returncode = 0, 4

        def __init__(self, *args, **kwargs):
            pass

        def communicate(self, timeout=None):
            return "", "ImportError while loading conftest"

    monkeypatch.setattr(mutants.shutil, "copytree", lambda src, dst, ignore: None)
    monkeypatch.setattr(mutants.subprocess, "Popen", Exit4)
    outcome, detail = verdict(["tests/test_a.py::one"])
    assert outcome == "error"
    assert "pytest exited 4" in detail


def test_no_named_mutant_plants_what_a_swept_site_plants(tmp_path):
    # a named mutant is a defect no clause or operator rule plants: its
    # patched file differs from that of every swept site of the file
    twins = []
    for file in sorted({m.file for m in MUTANTS}):
        original = (mutants.ROOT / "src" / "conch" / file).read_text(encoding="utf-8")
        planted = {}
        for mutant in [*(m for m in MUTANTS if m.file == file), *sites(file)]:
            (tmp_path / file).write_text(original, encoding="utf-8")
            mutant.apply(tmp_path)
            text = (tmp_path / file).read_text(encoding="utf-8")
            if text in planted:
                twins.append((planted[text], mutant.name))
            planted.setdefault(text, mutant.name)
    assert twins == []
