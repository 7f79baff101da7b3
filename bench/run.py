"""Host-time benchmark for conch.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all                 # every workload, one table
    python3 bench/run.py --workload NAME --record-golden  # store report digests

Run from the repository root. Each workload goes through conch's own
command line (`conch.cli.main(["run", ...])` or `main(["demo", ...])`)
in-process with stdout captured, and every run's outputs are checked.

Simulated time (cycles) is what conch reports; host time is what this
measures. The cycle model has no reference results in the repository,
so it is unvalidated and no accuracy figure is given.

--trace 0 prints the end-to-end metrics: the median host time of one
full run after an untimed warm-up (wall_s), guest instructions priced
per host second over all cycle models (sim_kips), this process's peak
resident memory (peak_rss_mib), and a fresh interpreter's time to
import conch.cli and assemble the workload's programs (setup_s).
--trace 1 alternates untraced and traced runs and prints the per-layer
metrics of bench/layers.py plus the tracing overhead; the coarse spans
go to bench/.work/spans-<workload>-<seed>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A run whose checks fail counts as failed.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="stream_tagged, sort_sensitive, tenant_server, demos or all")
    p.add_argument("--seed", type=int, default=None, help="input seed (default 0)")
    p.add_argument("--seconds", type=float, default=10.0, help="how long the timed runs last")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    p.add_argument("--record-golden", action="store_true", help="store the report digests for this seed")
    args = p.parse_args(argv)

    if not (SRC / "conch" / "cli.py").is_file():
        print(f"bench: no conch sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    if args.workload == "all":
        return measure.run_all(__file__, args.seed, args.seconds, args.trace)
    return measure.run_workload(args.workload, args.seed, args.seconds, args.trace, args.record_golden)


if __name__ == "__main__":
    sys.exit(main())
