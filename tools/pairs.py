"""Paired benchmark runs of a parent commit and a change, written as one
BENCH_*.json file.

Run from the repository root:

    python3 tools/pairs.py --parent REV --workload tenant_server --workload demos \\
        --pairs 10 --seconds 20 --out BENCH_N.json
    python3 tools/pairs.py ... --tier1      # also pairs of Tier-1 wall time
    python3 tools/pairs.py ... --dry-run    # print the commands, write nothing

Each side's tree is exported once with `git archive` into a temporary
directory, so neither side needs a checkout or the network. The change
is --change REV, HEAD by default; after `git add -A`, `git stash create`
names a commit of the working tree as it stands. Pair i runs the parent
first for even i and the change first for odd i, each run a process of
its own in its side's tree. A benchmark run is BENCHMARK.json's command
with `--workload W --seconds S --trace 0`, and its `env` line and its
last line, the JSON result, are kept. A Tier-1 run is the suite under
`--hypothesis-seed=0`, timed from outside; it is one run, failed if
pytest exits nonzero.

The file holds parent_commit, change (a note, by default the change's
subject line), command, order, driver (this tool's command line) and,
per workload, pairs, summary, failed (each pair's [parent, change]
failed-run counts) and correct (no run failed). --tier1 adds a tier1
block of the same form. A summary gives, per end-to-end metric, both
medians, their ratio (change over parent), the parent's interquartile
range from exclusive quartiles, the pairs the change won (a tie counts
for neither side), and both sides' values in pair order.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
ORDER = "pair i runs parent first for even i, change first for odd i"
TIER1 = "tier1"  # the block name of the Tier-1 pairs
TIER1_ENV = {"PYTHONPATH": "src"}
TIER1_ARGV = ["python3", "-m", "pytest", "-q", "--continue-on-collection-errors", "--hypothesis-seed=0"]


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def better_of(spec):
    """End-to-end metric name -> "lower" or "higher", from BENCHMARK.json."""
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summarise(pairs, better):
    """The summary of one block's pairs, per metric of better."""
    summary = {}
    for metric, direction in better.items():
        p, c = ([pair[side]["result"]["metrics"][metric]["value"] for pair in pairs] for side in SIDES)
        q1, _, q3 = statistics.quantiles(p, n=4, method="exclusive")
        summary[metric] = {
            "parent_median": statistics.median(p),
            "change_median": statistics.median(c),
            "ratio": statistics.median(c) / statistics.median(p),
            "parent_iqr": q3 - q1,
            "change_wins": sum(b < a if direction == "lower" else b > a for a, b in zip(p, c)),
            "parent": p,
            "change": c,
        }
    return summary


def block(pairs, better):
    """One workload's entry of the file, from its pairs."""
    return {
        "summary": summarise(pairs, better),
        "failed": [[pair[side]["result"]["failed"] for side in SIDES] for pair in pairs],
        "correct": all(pair[side]["result"]["correct"] for pair in pairs for side in SIDES),
        "pairs": pairs,
    }


def command_line(argv, env={}):
    return " ".join([*(f"{k}={v}" for k, v in env.items()), *argv])


class Step(NamedTuple):
    """One command: in the repository when side is None, else in that
    side's tree, where it is run `pair` of block `name`."""

    argv: list
    side: str | None = None
    name: str | None = None
    pair: int | None = None
    env: dict = {}

    def show(self, tmp):
        text = command_line(self.argv, self.env)
        return f"cd {tmp}/{self.side} && {text}" if self.side else text


def bench_argv(spec, workload, seconds):
    return [*spec["command"], "--workload", workload, "--seconds", f"{seconds:g}", "--trace", "0"]


def plan(revs, workloads, pairs, seconds, tier1, tmp, spec):
    """Every step in the order it runs; revs maps each side to its rev."""
    steps = []
    for side in SIDES:
        tar = f"{tmp}/{side}.tar"
        steps.append(Step(["git", "archive", "--format=tar", f"--prefix={side}/", f"--output={tar}", revs[side]]))
        steps.append(Step(["tar", "-xf", tar, "-C", tmp]))
    blocks = [(w, bench_argv(spec, w, seconds), {}) for w in workloads]
    if tier1:
        blocks.append((TIER1, TIER1_ARGV, TIER1_ENV))
    for name, argv, env in blocks:
        for i in range(pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                steps.append(Step(argv, side, name, i, env))
    return steps


def run_step(step, tmp):
    """The {env, result} record of one run, as BENCH files keep it."""
    cwd = Path(tmp) / step.side
    t0 = time.perf_counter()
    proc = subprocess.run(step.argv, cwd=cwd, env={**os.environ, **step.env}, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    if step.name == TIER1:
        failed = int(proc.returncode != 0)
        return {
            "env": {"outcome": lines[-1] if lines else ""},
            "result": {"correct": not failed, "attempted": 1, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"}}},
        }
    if proc.returncode or not lines:
        raise SystemExit(f"pairs: {step.show(tmp)} exited {proc.returncode}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"env": env, "result": json.loads(lines[-1])}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="the parent commit")
    p.add_argument("--change", default="HEAD", help="the change's commit (default HEAD)")
    p.add_argument("--note", help="the file's change text (default the change's subject line)")
    p.add_argument("--workload", action="append", default=[], help="a BENCHMARK.json workload, repeatable")
    p.add_argument("--pairs", type=int, default=10, help="pairs per workload, at least 2 (default 10)")
    p.add_argument("--seconds", type=float, help="each run's --seconds (default BENCHMARK.json's run_seconds)")
    p.add_argument("--tier1", action="store_true", help="add pairs of Tier-1 wall time")
    p.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    p.add_argument("--dry-run", action="store_true", help="print the commands and write nothing")
    args = p.parse_args(argv)
    spec = benchmark_spec()
    known = [w["name"] for w in spec["workloads"]]
    workloads = list(dict.fromkeys(args.workload)) or known
    if set(workloads) - set(known):
        p.error(f"not a BENCHMARK.json workload: {sorted(set(workloads) - set(known))}")
    if args.pairs < 2:
        p.error("--pairs must be at least 2 for quartiles")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.dry_run:
        revs = {"parent": args.parent, "change": args.change}
        for step in plan(revs, workloads, args.pairs, seconds, args.tier1, "$TMP", spec):
            print(step.show("$TMP"))
        return 0

    try:
        revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
                for side, rev in zip(SIDES, (args.parent, args.change))}
    except subprocess.CalledProcessError as exc:
        p.error(exc.stderr.strip())
    runs = {}
    with tempfile.TemporaryDirectory(prefix="conch-pairs-") as tmp:
        for step in plan(revs, workloads, args.pairs, seconds, args.tier1, tmp, spec):
            print(step.show(tmp), file=sys.stderr, flush=True)
            if step.side is None:
                subprocess.run(step.argv, cwd=ROOT, check=True)
            else:
                # parent before change in each record, whichever ran first
                new = {"pair": step.pair, **dict.fromkeys(SIDES)}
                runs.setdefault(step.name, {}).setdefault(step.pair, new)[step.side] = run_step(step, tmp)
    better = better_of(spec)
    doc = {
        "parent_commit": revs["parent"],
        "change": args.note or git("log", "-1", "--format=%s", revs["change"]),
        "command": command_line(bench_argv(spec, "W", seconds)),
        "order": ORDER,
        "driver": shlex.join(["python3", "tools/pairs.py", *(sys.argv[1:] if argv is None else argv)]),
        "workloads": {w: block(list(runs[w].values()), better) for w in workloads},
    }
    if args.tier1:
        tier1 = block(list(runs[TIER1].values()), {"wall_s": "lower"})
        doc[TIER1] = {"command": command_line(TIER1_ARGV, TIER1_ENV), **tier1}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
