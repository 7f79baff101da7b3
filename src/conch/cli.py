"""Command line front end: assemble to an image, run under the cycle
models, dump at-rest memory, and run the bundled demos.

Exit codes: 0 success, 2 assembly/usage error, 3 runtime trap, 4
instruction budget exhausted, 5 demo assertion failure.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import sys
from importlib import resources

from . import asm
from .asm import AsmError, SegmentOutOfBounds
from .mem import DRAM_BASE, DRAM_SIZE, MODELS
from .report import DEFAULT_MAX_INSTRET, build_report, emit_report, run_models, simulate

EXIT_OK = 0
EXIT_ASM = 2
EXIT_TRAP = 3
EXIT_BUDGET = 4
EXIT_DEMO = 5

IMAGE_FORMAT = "conch-image"


# ---- image files ------------------------------------------------------------


def program_to_image(program):
    return {
        "format": IMAGE_FORMAT,
        "version": 1,
        "entry": program.entry,
        "segments": [
            {
                "base": seg_base,
                "kind": kind,
                "data": base64.b64encode(bytes(data)).decode("ascii"),
            }
            for seg_base, data, kind in program.segments
        ],
        "symbols": program.symbols,
    }


def image_to_program(doc):
    """Build a Program from a parsed image file; a document that is not a
    well-formed image raises ValueError."""
    if not isinstance(doc, dict) or doc.get("format") != IMAGE_FORMAT:
        raise ValueError("not a conch image file")
    entry, segs = doc.get("entry"), doc.get("segments")
    if not isinstance(entry, int) or not isinstance(segs, list):
        raise ValueError("image needs an integer entry and a list of segments")
    segments = []
    for i, seg in enumerate(segs):
        if not (isinstance(seg, dict) and isinstance(seg.get("base"), int) and isinstance(seg.get("data"), str)):
            raise ValueError(f"image segment {i} needs an integer base and base64 data")
        segments.append((seg["base"], base64.b64decode(seg["data"]), seg.get("kind", "data")))
    return asm.Program(segments=segments, entry=entry, symbols=doc.get("symbols", {}))


def load_program(path):
    """Accept either assembly source or an image produced by `conch asm`;
    images are JSON objects, so the first byte tells them apart."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return image_to_program(json.loads(text))
    return asm.assemble(asm.SourceUnit.from_text(text, origin=path))


# ---- shared options -----------------------------------------------------------


def _add_run_options(p):
    p.add_argument("--seed", type=int, default=None, help="PRNG/key seed (default: $CONCH_SEED or 0)")
    p.add_argument("--map", action="append", metavar="VIRT=HOSTPATH", help="mount a host file at a virtual path")
    p.add_argument("--stream", action="append", metavar="VIRT=HEX", help="mount literal hex bytes at a virtual path")
    p.add_argument("--max-instret", type=int, default=DEFAULT_MAX_INSTRET)
    p.add_argument("--dram-latency", type=int, default=60)
    p.add_argument("--strict-write", action="store_true", help="trap on write() of tagged data")


def _seed_of(args):
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("CONCH_SEED", "0"), 0)


def _fs_of(args):
    fs = {}
    for spec in args.map or []:
        virt, sep, host = spec.partition("=")
        if not sep:
            raise ValueError(f"--map wants VIRT=HOSTPATH, got {spec!r}")
        with open(host, "rb") as fh:
            fs[virt] = fh.read()
    for spec in args.stream or []:
        virt, sep, hexdata = spec.partition("=")
        if not sep:
            raise ValueError(f"--stream wants VIRT=HEX, got {spec!r}")
        fs[virt] = bytes.fromhex(hexdata)
    return fs


def _sim_kwargs(args):
    if args.dram_latency < 0:
        raise ValueError(f"--dram-latency must not be negative, got {args.dram_latency}")
    return dict(
        seed=_seed_of(args),
        fs=_fs_of(args),
        max_instret=args.max_instret,
        dram_latency=args.dram_latency,
        strict_write=args.strict_write,
    )


def _stop_exit(stop):
    if stop == "trap":
        return EXIT_TRAP
    if stop == "budget":
        return EXIT_BUDGET
    return EXIT_OK


# ---- subcommands ----------------------------------------------------------------


def cmd_asm(args):
    program = asm.assemble(asm.SourceUnit.from_file(args.source))
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(program_to_image(program), fh, indent=2)
        fh.write("\n")
    total = sum(len(d) for _, d, _ in program.segments)
    print(f"{args.output}: {len(program.segments)} segments, {total} bytes, entry {program.entry:#x}")
    return EXIT_OK


def cmd_run(args):
    program = load_program(args.source)
    models = tuple(m.strip() for m in args.models.split(","))
    for m in models:
        if m not in MODELS:
            raise ValueError(f"unknown model {m!r} (choose from {', '.join(MODELS)})")
    results = run_models(program=program, models=models, **_sim_kwargs(args))
    report = build_report(results, seed=_seed_of(args))
    rendered = emit_report(report, fmt=args.format)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(emit_report(report, fmt="json"))
    sys.stdout.write(rendered)
    if report["stop_reason"] == "trap":
        print(f"trap: {report['trap']}", file=sys.stderr)
    return _stop_exit(report["stop_reason"])


def cmd_dump(args):
    program = load_program(args.source)
    try:
        addr_s, len_s = args.range.split(":")
        addr, length = int(addr_s, 0), int(len_s, 0)
    except ValueError:
        raise ValueError(f"--range wants ADDR:LEN, got {args.range!r}")
    if length <= 0 or addr < DRAM_BASE or addr + length > DRAM_BASE + DRAM_SIZE:
        raise ValueError(
            f"--range {args.range!r} is not a non-empty span of DRAM [{DRAM_BASE:#x}, {DRAM_BASE + DRAM_SIZE:#x})"
        )
    res = simulate(program=program, model="baseline", **_sim_kwargs(args))
    sys.stdout.write(res.mem.format_dump(addr, length))
    return _stop_exit(res.stop)


# Each demo pairs a bundled program with its inputs and the properties it
# is supposed to exhibit; a failed property is exit code 5.

_HB_REQUEST = b"GET heartbeat 48"
_HB_SECRET = b"pk.live_9f27c55e31d04a8b77aa0312"


def _check_heartbleed(results, report):
    shim = next(iter(results.values())).shim
    out = bytes(shim.stdout)
    fails = []
    if out[:16] != _HB_REQUEST:
        fails.append("request bytes did not echo back in plaintext")
    if _HB_SECRET in out:
        fails.append("secret left the machine in plaintext")
    if out[16:48] == _HB_SECRET:
        fails.append("over-read region was not protected")
    if report["leak_averted_bytes"] != 32:
        fails.append(f"expected 32 leak-averted bytes, saw {report['leak_averted_bytes']}")
    return fails


def _check_granularity(results, report):
    ts = report["tag_stats"]
    fails = []
    if ts["words_tagged_final"] != 2:
        fails.append(f"expected 2 tagged words, saw {ts['words_tagged_final']}")
    if ts["bytes_tainted_oracle_final"] != 12:
        fails.append(f"expected 12 oracle bytes, saw {ts['bytes_tainted_oracle_final']}")
    if ts["overtagged_bytes"] != 4:
        fails.append(f"expected 4 over-tagged bytes, saw {ts['overtagged_bytes']}")
    return fails


def _check_threads(results, report):
    fails = []
    if report["exit_code"] != 0:
        fails.append("thread 1 read thread 0's plaintext (exit code 1)")
    if report["stop_reason"] != "exit":
        fails.append(f"demo stopped with {report['stop_reason']}")
    return fails


DEMOS = {
    "heartbleed": {
        "blurb": "buffer over-read answered with at-rest ciphertext",
        "fs": {"request": _HB_REQUEST, "secret": _HB_SECRET},
        "check": _check_heartbleed,
    },
    "granularity": {
        "blurb": "word-rounding cost of a packed vs aligned 4-byte secret",
        "fs": {},
        "check": _check_granularity,
    },
    "threads": {
        "blurb": "per-thread keys keep one thread's data opaque to another",
        "fs": {},
        "check": _check_threads,
    },
}


def cmd_demo(args):
    if args.name not in DEMOS:
        raise ValueError(f"unknown demo {args.name!r} (have: {', '.join(sorted(DEMOS))})")
    demo = DEMOS[args.name]
    source = (resources.files("conch") / "demos" / f"{args.name}.s").read_text()
    results = run_models(
        source,
        seed=_seed_of(args),
        fs=dict(demo["fs"]),
        max_instret=DEFAULT_MAX_INSTRET,
    )
    report = build_report(results, seed=_seed_of(args))
    print(f"demo {args.name}: {demo['blurb']}\n")
    sys.stdout.write(emit_report(report, fmt="text"))
    fails = demo["check"](results, report)
    if report["stop_reason"] != "exit":
        fails.append(f"stopped by {report['stop_reason']}")
    print()
    if fails:
        for f in fails:
            print(f"FAIL: {f}")
        return EXIT_DEMO
    print("all demo properties hold")
    return EXIT_OK


# ---- entry point -------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="conch", description="tagged RV64 simulator")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("asm", help="assemble source to an image file")
    pa.add_argument("source")
    pa.add_argument("-o", "--output", required=True)
    pa.set_defaults(fn=cmd_asm)

    pr = sub.add_parser("run", help="run a program under the cycle models")
    pr.add_argument("source", help="assembly source or conch image")
    pr.add_argument("--models", default="baseline,a,b", help="comma-separated subset of baseline,a,b")
    pr.add_argument("--report", metavar="PATH", help="also write the JSON report here")
    pr.add_argument("--format", choices=("json", "text"), default="json")
    _add_run_options(pr)
    pr.set_defaults(fn=cmd_run)

    pd = sub.add_parser("dump", help="run, then dump at-rest memory")
    pd.add_argument("source")
    pd.add_argument("--range", required=True, metavar="ADDR:LEN")
    _add_run_options(pd)
    pd.set_defaults(fn=cmd_dump)

    pe = sub.add_parser("demo", help="run a bundled demo")
    pe.add_argument("name", help=", ".join(sorted(DEMOS)))
    pe.add_argument("--seed", type=int, default=None)
    pe.set_defaults(fn=cmd_demo)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AsmError, SegmentOutOfBounds, ValueError, OSError) as exc:
        print(f"conch: {exc}", file=sys.stderr)
        return EXIT_ASM
