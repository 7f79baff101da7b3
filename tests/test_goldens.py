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

tests/data/priced_cycles.json is not regenerated by that script. It holds
each corpus program's per-model cycles under five seeded random
CycleCosts, zero fields among them, as recorded by the simulator that
summed a cost at every charge it made; priced counts must match it.
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from conch import asm
from conch.cli import DEMOS, EXIT_OK, main
from conch.report import CycleCosts, build_report, counts, emit_report, price, run_models

from conftest import build_corpus, demo_path, demo_source

GOLDENS = Path(__file__).parent / "data" / "goldens"
PRICED = Path(__file__).parent / "data" / "priced_cycles.json"
SEED = 0
CORPUS = {name: (source, fs) for name, source, fs in build_corpus()}


def report_text(results):
    return emit_report(build_report(results), fmt="json")


@functools.cache
def corpus_run(name):
    """run_models of a corpus program at SEED, made once for both of its
    goldens."""
    source, fs = CORPUS[name]
    return run_models(source, seed=SEED, fs=fs)


def dump_text(name):
    """`conch dump` over the demo's data, from its lowest to its highest
    data address (an .align gap splits it into segments), with the demo's
    inputs mounted as streams."""
    program = asm.assemble(demo_source(name))
    spans = [(b, b + len(d)) for b, d, kind in program.segments if kind == "data"]
    base, end = min(lo for lo, _ in spans), max(hi for _, hi in spans)
    argv = ["dump", demo_path(name), "--seed", str(SEED), "--range", f"{base:#x}:{end - base}"]
    for virt, content in DEMOS[name]["fs"].items():
        argv += ["--stream", f"{virt}={content.hex()}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


def all_goldens():
    """{file name: text} for every golden."""
    from test_acceptance import STREAM_PROG

    texts = {f"report_{name}.json": report_text(corpus_run(name)) for name in CORPUS}
    texts["report_stream512k.json"] = report_text(run_models(STREAM_PROG, seed=SEED))
    texts.update({f"dump_{name}.txt": dump_text(name) for name in DEMOS})
    return texts


def _golden(filename):
    return (GOLDENS / filename).read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", CORPUS)
def test_report_matches_golden(name):
    assert report_text(corpus_run(name)) == _golden(f"report_{name}.json")


@pytest.mark.parametrize("name", CORPUS)
def test_priced_cycles_match_golden(name):
    golden = json.loads(PRICED.read_text())
    results = corpus_run(name)
    for fields, expected in zip(golden["costs"], golden["cycles"][name], strict=True):
        costs = CycleCosts(**fields)
        assert {m: price(counts(r.st, r.mem, r.model), costs) for m, r in results.items()} == expected, fields


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_dump_matches_golden(name):
    assert dump_text(name) == _golden(f"dump_{name}.txt")


if __name__ == "__main__":
    GOLDENS.mkdir(parents=True, exist_ok=True)
    for filename, text in all_goldens().items():
        (GOLDENS / filename).write_bytes(text.encode("utf-8"))
        print(filename, len(text), file=sys.stderr)
