"""The pair driver, tools/pairs.py: the BENCH_*.json files it summarises
and the commands it runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_every_measured_round_has_its_file():
    names = {p.name for p in BENCH_FILES}
    rounds = (33, 34, 35, 39, 41, 46)
    assert {f"BENCH_{n}.json" for n in rounds} <= names


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_summaries_recompute_exactly_from_pairs(path):
    # every block, its summary of each end-to-end metric, failed counts and
    # correct flag, follows from its pairs alone, float for float
    doc = json.loads(path.read_text())
    better = pairs.better_of(pairs.benchmark_spec())
    assert doc["order"] == pairs.ORDER
    for name, entry in doc["workloads"].items():
        assert set(entry["summary"]) == set(better), name
        assert pairs.block(entry["pairs"], better) == entry, name
    if pairs.TIER1 in doc:
        entry = dict(doc[pairs.TIER1])
        entry.pop("command")
        assert pairs.block(entry["pairs"], {"wall_s": "lower"}) == entry


def test_dry_run_prints_the_command_sequence_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "P", "--change", "C", "--workload", "demos", "--workload", "tenant_server"]
    assert pairs.main([*argv, "--pairs", "3", "--seconds", "2", "--tier1", "--out", str(out), "--dry-run"]) == 0
    bench = "python3 bench/run.py --workload {} --seconds 2 --trace 0"
    tier1 = "PYTHONPATH=src python3 -m pytest -q --continue-on-collection-errors --hypothesis-seed=0"
    runs = []
    for command in (bench.format("demos"), bench.format("tenant_server"), tier1):
        for first, second in (("parent", "change"), ("change", "parent"), ("parent", "change")):
            runs += [f"cd $TMP/{first} && {command}", f"cd $TMP/{second} && {command}"]
    assert capsys.readouterr().out.splitlines() == [
        "git archive --format=tar --prefix=parent/ --output=$TMP/parent.tar P",
        "tar -xf $TMP/parent.tar -C $TMP",
        "git archive --format=tar --prefix=change/ --output=$TMP/change.tar C",
        "tar -xf $TMP/change.tar -C $TMP",
        *runs,
    ]
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--pairs", "1"], ["--workload", "stream_tagged"]])
def test_refuses_too_few_pairs_or_an_unlisted_workload(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        pairs.main(["--parent", "P", "--out", str(tmp_path / "B.json"), "--dry-run", *argv])
    assert exc.value.code == 2
