"""The sweep's parts in tests/mutants.py that need no child process: the
generated mutants of a made-up module, and the choice of the tests each
mutant runs, over a made-up reach map."""

import mutants
from mutants import IMPORT, Site, selection, sites, verdict

ONE, TWO, THREE = "tests/test_a.py::one", "tests/test_b.py::two[x]", "tests/test_b.py::three"

# in the order traced writes, the fastest test first; report.py:91 runs at import
REACH = {
    IMPORT: {"report.py:91"},
    ONE: {"report.py:10", "core.py:5"},
    TWO: {"core.py:5"},
    THREE: set(),
}


def site(file, lineno):
    return Site(file, lineno, "x", "x -> False", "False\n")


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
