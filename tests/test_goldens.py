"""Behaviour goldens: the JSON report of every corpus program (the three
demos among them, with the inputs `conch demo` gives them) and the
`conch dump` text of each demo's data segment, all at seed 0, compared
byte for byte with the files under tests/data/goldens/. The 512 KiB
STREAM report, report_stream512k.json, is compared by acceptance
criterion 6 from the run it already makes. The reports hold
every model's cycles and counters, so a refactor that claims the same
behaviour is checked against them, not trusted.

Regenerate only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_goldens.py
"""

import contextlib
import io
import sys
from importlib import resources
from pathlib import Path

import pytest

from conch import asm
from conch.cli import DEMOS, EXIT_OK, main
from conch.report import build_report, emit_report, run_models

from conftest import build_corpus

GOLDENS = Path(__file__).parent / "data" / "goldens"
SEED = 0


def _demo_path(name):
    return str(resources.files("conch") / "demos" / f"{name}.s")


def report_text(source, fs):
    results = run_models(source, seed=SEED, fs=fs)
    return emit_report(build_report(results, seed=SEED), fmt="json")


def dump_text(name):
    """`conch dump` over the demo's data, from its lowest to its highest
    data address (an .align gap splits it into segments), with the demo's
    inputs mounted as streams."""
    program = asm.assemble(asm.SourceUnit.from_file(_demo_path(name)))
    spans = [(b, b + len(d)) for b, d, kind in program.segments if kind == "data"]
    base, end = min(lo for lo, _ in spans), max(hi for _, hi in spans)
    argv = ["dump", _demo_path(name), "--seed", str(SEED), "--range", f"{base:#x}:{end - base}"]
    for virt, content in DEMOS[name]["fs"].items():
        argv += ["--stream", f"{virt}={content.hex()}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


def all_goldens():
    """{file name: text} for every golden."""
    from test_acceptance import STREAM_PROG

    texts = {f"report_{name}.json": report_text(source, fs) for name, source, fs, _ in build_corpus()}
    texts["report_stream512k.json"] = report_text(STREAM_PROG, {})
    texts.update({f"dump_{name}.txt": dump_text(name) for name in DEMOS})
    return texts


def _golden(filename):
    return (GOLDENS / filename).read_bytes().decode("utf-8")


def test_corpus_demos_use_the_demo_inputs():
    corpus = {name: (source, fs) for name, source, fs, _ in build_corpus()}
    for name, demo in DEMOS.items():
        source, fs = corpus[f"demo_{name}"]
        assert source == Path(_demo_path(name)).read_text()
        assert fs == demo["fs"]


@pytest.mark.parametrize("name,source,fs", [pytest.param(n, s, f, id=n) for n, s, f, _ in build_corpus()])
def test_report_matches_golden(name, source, fs):
    assert report_text(source, fs) == _golden(f"report_{name}.json")


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_dump_matches_golden(name):
    assert dump_text(name) == _golden(f"dump_{name}.txt")


if __name__ == "__main__":
    GOLDENS.mkdir(parents=True, exist_ok=True)
    for filename, text in all_goldens().items():
        (GOLDENS / filename).write_bytes(text.encode("utf-8"))
        print(filename, len(text), file=sys.stderr)
