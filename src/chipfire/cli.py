"""Command-line front end.

One executable, eight subcommands: fires, simulate, play, enumerate,
extract-orders, check, bounds, sequence.  Output on stdout is a stable
contract: given the same flags and seed, every invocation produces
byte-identical bytes (progress and diagnostics go to stderr).  Exit
codes: 0 success / all checks pass, 1 property failure, 2 usage or input
error, 3 checkpoint error, 4 enumeration paused with a checkpoint
written.

The subcommands leave the library's own argument checks to the library:
main() turns any ValueError it raises (CorpusError is one) into a single
`error: <message>` line and exit 2.  A failed write to stdout or stderr
ends the run in exit 2 without a traceback, with one `error: cannot write
<stream>: <reason>` line if stderr can still take it; a stream closed
before the start receives nothing.

`check` and `extract-orders` take each configuration as the corpus reader
hands it over and keep only what they print.  A fault of theirs waits
until the reader has read the whole file, so a fault in the file wins, and
neither prints anything before the file has been read to its end.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import sys
from dataclasses import asdict

from . import bounds as bounds_mod
from . import checks, enumeration, labeled, unlabeled

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CHECKPOINT = 3
EXIT_PAUSED = 4


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    try:
        print(f"error: {message}", file=sys.stderr)
    except _StreamError:  # stderr's reader left, or stderr cannot be written at all
        return EXIT_USAGE
    return code


class _StreamError(Exception):
    """A write to stdout or stderr failed: its reader left, or it is not open for writing."""


class _Stream:
    """sys.stdout or sys.stderr while main() runs: a failed write or flush discards the
    stream and raises _StreamError naming it, so that no other OSError is taken for it."""

    def __init__(self, name: str):
        self._name = name
        stream = getattr(sys, name)  # None if closed before the start: then it receives nothing
        self._stream = open(os.devnull, "w") if stream is None else stream

    def __getattr__(self, attr):
        return getattr(self._stream, attr)

    def write(self, text: str) -> int:
        return self._guard(self._stream.write, text)

    def flush(self) -> None:
        self._guard(self._stream.flush)

    def _guard(self, method, *args):
        try:
            return method(*args)
        except OSError as exc:
            self._discard()
            raise _StreamError(f"{self._name}: {exc.strerror or exc}") from exc

    def _discard(self) -> None:
        """Point the stream at devnull: what it still buffers goes nowhere instead of failing at exit."""
        with contextlib.suppress(ValueError):  # no descriptor (an in-memory stream), or closed
            fd = self._stream.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)


def _cannot_write(path: str) -> bool:
    """Whether a file at `path` cannot be created or replaced."""
    folder = os.path.dirname(os.path.abspath(path))
    return os.path.isdir(path) or not os.access(folder, os.W_OK | os.X_OK)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fires(args) -> int:
    prof = unlabeled.profile(args.chips)
    if args.json:
        print(_dump(prof.to_dict()))
        return EXIT_OK
    for key, value in prof.to_dict().items():
        if isinstance(value, list):
            value = ",".join(str(x) for x in value)
        print(f"{key} {value}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    state = unlabeled.simulate(args.chips, strategy=args.strategy, seed=args.seed)
    out = {
        "n_chips": state.n_chips,
        "strategy": args.strategy,
        "seed": args.seed,
        "cells": state.cells,
        "fired": state.fired,
        "total_fires": sum(state.fired.values()),
    }
    print(_dump(out))
    return EXIT_OK


def cmd_play(args) -> int:
    config, fired = labeled.run_policy_traced(args.chips, args.policy, args.seed)
    out = {
        "policy": args.policy,
        "seed": args.seed,
        "total_fires": sum(fired.values()),
        "fired": list(fired.items()),
        "config": config.to_dict(),
    }
    print(_dump(out))
    return EXIT_OK


def cmd_sequence(args) -> int:
    values = unlabeled.sequence(args.name, args.count)
    if args.json:
        print(_dump({"name": args.name, "count": args.count, "values": values}))
    elif args.csv:
        for m, value in enumerate(values, start=1):
            print(f"{m},{value}")
    else:
        for value in values:
            print(value)
    return EXIT_OK


def _parse_ell_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError("range must look like L1..L2, e.g. 4..7")
    lo, hi = int(lo), int(hi)
    if hi < lo:
        raise ValueError(f"range {text} is empty: L2 must be >= L1")
    return lo, hi


def cmd_bounds(args) -> int:
    # exact values pass the int/str digit limit of Python >= 3.11 from ell = 11 on
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _bounds(args)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _bounds(args) -> int:
    if args.table is None and args.ell is None:
        return _fail("either --ell or --table is required")
    lo, hi = _parse_ell_range(args.table) if args.table is not None else (args.ell, args.ell)
    cap = bounds_mod.ell_cap()
    if hi > cap:
        return _fail(f"ell {hi} exceeds the cap {cap}; set CHIPFIRE_MAX_ELL to raise it")
    use_sci = args.sci or (args.table is not None and not args.exact)

    def fmt(value: int) -> str:
        return bounds_mod.sci(value) if use_sci else str(value)

    mark = dict.fromkeys(bounds_mod.CONDITIONAL, " (conditional)")  # text output's mark

    if args.table is not None:
        rows = bounds_mod.compare_table(range(lo, hi + 1))
        # the Z value of each method, named as in the --json rows and the CSV header
        columns = [f"{name}_z" for name in bounds_mod.METHODS]
        if args.json:
            out = [
                {"ell": r.ell, **{c: getattr(r, c) for c in columns}, "flags": r.flags()}
                for r in rows
            ]
            print(_dump({"rows": out, "conditional": list(bounds_mod.CONDITIONAL)}))
            return EXIT_OK
        body = [[str(r.ell), *(fmt(getattr(r, c)) for c in columns)] for r in rows]
        if args.csv:
            for row in [["ell", *columns], *body]:
                print(",".join(row))
        else:
            cells = [["ell", *(name + mark.get(name, "") for name in bounds_mod.METHODS)], *body]
            widths = [max(map(len, column)) for column in zip(*cells)]
            for row in cells:
                print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        return EXIT_OK

    if args.method != "all":
        results = {args.method: bounds_mod.METHODS[args.method](args.ell)}
    else:
        results = {}
        for name, func in bounds_mod.METHODS.items():
            with contextlib.suppress(ValueError):  # left out where it is undefined
                results[name] = func(args.ell)
        if not results:
            return _fail(f"no requested bound is defined for ell={args.ell}")
    if args.json:
        print(
            _dump(
                {
                    "ell": args.ell,
                    "bounds": {name: {"t": t, "z": z} for name, (t, z) in results.items()},
                    "conditional": [n for n in results if n in bounds_mod.CONDITIONAL],
                }
            )
        )
    else:
        for name, (t, z) in results.items():
            print(f"{name}{mark.get(name, '')} T={fmt(t)} Z={fmt(z)}")
    return EXIT_OK


def _progress(*level) -> None:  # depth, target depth, frontier, explored, seconds
    print("depth %d/%d: frontier %d explored %d elapsed %.0fs" % level, file=sys.stderr, flush=True)


def cmd_enumerate(args) -> int:
    if args.out and _cannot_write(args.out):
        return _fail(f"cannot write --out {args.out}")
    if args.checkpoint and _cannot_write(args.checkpoint):
        return _fail(f"cannot write --checkpoint {args.checkpoint}", EXIT_CHECKPOINT)
    try:
        result = enumeration.enumerate_stable(
            args.ell,
            mode=args.mode,
            workers=args.workers,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume_path=args.resume,
            max_seconds=args.max_seconds,
            max_frontier=args.max_frontier,
            on_level=_progress if args.progress else None,
        )
    except enumeration.CorpusError as exc:
        return _fail(str(exc), EXIT_CHECKPOINT)
    except enumeration.EnumerationPaused as exc:
        print(f"paused: {exc}", file=sys.stderr)
        return EXIT_PAUSED
    if args.out:
        enumeration.save(result, args.out)
    if args.json:
        print(_dump({"ell": result.ell, "count": result.count, **result.meta, "out": args.out}))
    else:
        print(f"Z_{result.ell} = {result.count}")
        if args.mode == "scheduled":
            print(
                "mode scheduled fixes the vertex order and varies triples only; "
                "it matches full mode for ell <= 3 but undercounts from ell = 4 on"
            )
    return EXIT_OK


@contextlib.contextmanager
def _file_faults_first(configs):
    """Hold a command's fault back until the corpus behind `configs` has been read
    to its end: a fault in the file, which the reader raises there, wins."""
    try:
        yield
    except ValueError:
        collections.deque(configs, maxlen=0)  # the rest of the file, read and dropped
        raise


def cmd_extract_orders(args) -> int:
    header, configs = enumeration.read_corpus(args.input)
    with _file_faults_first(configs):
        orders = sorted(enumeration.extract_subtree_orders(configs, header["ell"], args.depth))
    if args.json:
        print(
            _dump(
                {
                    "ell": header["ell"],
                    "depth": args.depth,
                    "count": len(orders),
                    "orders": orders,
                }
            )
        )
    else:
        print(f"orders {len(orders)}")
        for key in orders:
            print(key)
    return EXIT_OK


def cmd_check(args) -> int:
    header, configs = enumeration.read_corpus(args.input)
    ell = header["ell"]

    # the text report; under --json only the JSON object is printed
    lines = []
    checkers = {}
    failures = []
    with _file_faults_first(configs):
        for name in checks.CHECKERS if args.property == "all" else [args.property]:
            needed = checks.min_layers_for(name)
            if ell < needed:
                if args.property != "all":
                    raise ValueError(
                        f"property {name} needs at least {needed} layers, corpus has {ell}"
                    )
                lines.append(f"skip {name}: needs at least {needed} layers, corpus has {ell}")
            else:
                checkers[name] = checks.CHECKERS[name]

        summary = {name: {"pass": 0, "fail": 0} for name in checkers}
        for index, config in enumerate(configs):
            for name, checker in checkers.items():
                try:
                    report = checker(config)
                except ValueError as exc:
                    raise ValueError(
                        f"config {index} is outside the checkers' domain: {exc}"
                    ) from exc
                summary[name]["pass" if report.passed else "fail"] += 1
                if report.passed and args.verbose:
                    lines.append(f"config {index} {name} PASS")
                for violation in report.violations:
                    failures.append({"config": index, "property": name, **asdict(violation)})
                    lines.append(
                        f"config {index} {name} FAIL vertex {violation.vertex}: {violation.detail}"
                    )
    all_pass = not failures
    if args.json:
        result = {
            "input": args.input,
            "ell": ell,
            "configs": header["count"],  # the reader has matched the body against it
            "summary": summary,
            "failures": failures,
            "all_pass": all_pass,
        }
        print(_dump(result))
    else:
        for name, c in summary.items():
            lines.append(f"{name}: {c['pass']}/{c['pass'] + c['fail']} pass")
        lines.append("all pass" if all_pass else f"failures {len(failures)}")
        print("\n".join(lines))
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Chip-firing on the infinite binary tree with a self-loop at the root.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fires", help="closed-form fire counts and stable chip counts")
    p.add_argument("--chips", type=int, required=True)
    p.set_defaults(func=cmd_fires)

    p = sub.add_parser("simulate", help="run the firing process to its stable configuration")
    p.add_argument("--chips", type=int, required=True)
    p.add_argument("--strategy", choices=unlabeled.STRATEGIES, default="lowest-index-first")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("play", help="play a labeled game with a triple-choice policy")
    p.add_argument("--chips", type=int, required=True)
    p.add_argument("--policy", choices=labeled.POLICIES, default="min-triple")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("enumerate", help="enumerate all reachable stable configurations")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--mode", choices=enumeration.MODES, default="full")
    p.add_argument("--out", help="write the stable set as a JSON-lines corpus")
    p.add_argument("--resume", help="resume from a checkpoint file")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", help="where to write periodic checkpoints")
    p.add_argument("--checkpoint-every", type=float, default=60.0, metavar="SECONDS")
    p.add_argument("--max-seconds", type=float, help="pause (exit 4) after this much time")
    p.add_argument("--max-frontier", type=int, help="pause (exit 4) if a level grows past this")
    p.add_argument("--progress", action="store_true", help="report progress on stderr")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("extract-orders", help="distinct subtree orders in a stable-set corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_extract_orders)

    p = sub.add_parser("check", help="run property checkers over a stable-set corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--property", choices=[*checks.CHECKERS, "all"], default="all")
    p.add_argument("--verbose", action="store_true", help="print per-config PASS lines too")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bounds", help="exact bounds on stable-configuration counts")
    p.add_argument("--ell", type=int)
    p.add_argument("--method", choices=[*bounds_mod.METHODS, "all"], default="all")
    p.add_argument("--table", metavar="L1..L2", help="comparison table over an ell range")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="print exact integers")
    group.add_argument("--sci", action="store_true", help="print 2-significant-digit notation")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sequence", help="integer sequences of the firing counts")
    p.add_argument("--name", choices=unlabeled.SEQUENCE_NAMES, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--csv", action="store_true", help="emit m,value rows")
    p.set_defaults(func=cmd_sequence)

    for p in sub.choices.values():  # last, so --help lists it after each command's own options
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    callers = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = _Stream("stdout"), _Stream("stderr")
    try:
        args = build_parser().parse_args(argv)
        try:
            code = args.func(args)
        except ValueError as exc:  # a usage or input error the library refused; CorpusError is one
            code = _fail(str(exc))
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except _StreamError as exc:
        return _fail(f"cannot write {exc}")
    finally:
        sys.stdout, sys.stderr = callers


if __name__ == "__main__":
    sys.exit(main())
