"""Alternating parent/change runs of one benchmark workload, merged into a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \\
        --pairs N --seed S --out BENCH_<pr>.json

DIR is the root of a checkout.  Pair i runs
``python3 perfbench/run.py --workload NAME --seed S+i --seconds 25 --trace 0``
in both checkouts, one after the other: the parent first in even pairs, the
change first in odd ones, so a host that drifts faster or slower favours
neither side.  The extra workload ``enumerate-ell4`` runs the complete
4-layer full search instead (``chipfire enumerate --ell 4 --workers 2
--out F``) and records its wall time, the CPU time of the main process,
the peak RSS of the main process and of the largest worker, the corpus
header and the sha256 of its body; both runs of a pair are marked not
correct unless the two sides agree on the body's sha256 and on the
header's ``count``, ``explored_states`` and ``max_frontier``.  The extra
workload ``play-deep``
times ``chipfire play --chips N --policy P --seed 0`` in one process for
N = 16,383 and 65,535 and every policy, and records each game's stdout
sha256.  A game still running after --seconds is stopped and counted at
--seconds, a lower bound on its time.

The workload's runs, and per metric each side's median and quartiles, the
ratio of the medians and the pairs the change won, are stored under the
workload's name in the --out file; other workloads already there are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ELL4 = "enumerate-ell4"
DEEP = "play-deep"

# run in a fresh interpreter whose PYTHONPATH is the checkout's src/
_ELL4_CHILD = """
import hashlib, json, resource, sys, time
from chipfire import cli
start = time.perf_counter()
rc = cli.main(["enumerate", "--ell", "4", "--workers", "2", "--out", sys.argv[1], "--json"])
wall = time.perf_counter() - start
main = resource.getrusage(resource.RUSAGE_SELF)
head, body = open(sys.argv[1], "rb").read().split(b"\\n", 1)
print(json.dumps({
    "correct": rc == 0,
    "metrics": {
        "wall_s": wall,
        "main_cpu_s": main.ru_utime + main.ru_stime,
        "main_rss_mb": main.ru_maxrss / 1024,
        "worker_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    },
    "header": json.loads(head),
    "body_sha256": hashlib.sha256(body).hexdigest(),
}))
"""

_DEEP_CHILD = """
import contextlib, hashlib, io, json, signal, sys, time
from chipfire import cli, labeled
class Cut(BaseException):
    pass
def cut(signum, frame):
    raise Cut
signal.signal(signal.SIGALRM, cut)
limit = float(sys.argv[1])
metrics, stdout_sha256, cut_games, correct = {}, {}, [], True
for n in (16383, 65535):
    for policy in labeled.POLICIES:
        name = f"wall_s.{n}.{policy}"
        out = io.StringIO()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(["play", "--chips", str(n), "--policy", policy, "--seed", "0"])
            correct &= rc == 0
            stdout_sha256[name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        except Cut:
            cut_games.append(name)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        metrics[name] = min(time.perf_counter() - start, limit)
print(json.dumps({
    "correct": correct, "metrics": metrics, "cut": cut_games, "stdout_sha256": stdout_sha256,
}))
"""


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run in one checkout: its result line, plus the machine line if any."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    if workload == ELL4:
        with tempfile.TemporaryDirectory() as tmp:
            argv = [sys.executable, "-c", _ELL4_CHILD, str(Path(tmp) / "z4.jsonl")]
            done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    elif workload == DEEP:
        argv = [sys.executable, "-c", _DEEP_CHILD, str(seconds)]
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    else:
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {workload} failed (exit {done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    machine = [json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("machine ")]
    if machine:
        result["machine"] = machine[0]
    return result


def mark_disagreements(runs: list[dict]) -> None:
    """Mark both enumerate-ell4 runs of a pair not correct when their corpora
    differ in body sha256, count, explored_states or max_frontier."""
    answers: dict[int, list[tuple]] = {}
    for run in runs:
        counts = map(run["header"].get, ("count", "explored_states", "max_frontier"))
        answers.setdefault(run["pair"], []).append((run["body_sha256"], *counts))
    for run in runs:
        if len(set(answers[run["pair"]])) > 1:
            run["correct"] = False


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the median ratio, and the pairs won."""
    summary = {}
    for name, direction in better.items():
        sides = {
            side: [r["metrics"][name] for r in runs if r["side"] == side]
            for side in ("parent", "change")
        }
        stats = {}
        for side, values in sides.items():
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            stats[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        summary[name] = {
            **stats,
            "better": direction,
            "ratio": stats["change"]["median"] / stats["parent"]["median"],
            "change_wins": wins,
            "pairs": len(sides["parent"]),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=lambda p: Path(p).resolve(), required=True)
    parser.add_argument("--change", type=lambda p: Path(p).resolve(), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.workload == ELL4:
        better = {
            "wall_s": "lower",
            "main_cpu_s": "lower",
            "main_rss_mb": "lower",
            "worker_rss_mb": "lower",
        }
    elif args.workload == DEEP:
        better = {
            f"wall_s.{n}.{policy}": "lower"
            for n in (16383, 65535)
            for policy in ("min-triple", "max-triple", "random")
        }
    else:
        spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs, machine = [], None
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_side(getattr(args, side), args.workload, seed, args.seconds)
            machine = result.pop("machine", None) or machine
            result["metrics"] = {
                k: v["value"] if isinstance(v, dict) else v for k, v in result["metrics"].items()
            }
            runs.append({"pair": i, "seed": seed, "side": side, **result})
            print(f"pair {i} seed {seed} {side}: {json.dumps(result['metrics'])}", flush=True)
    runs.sort(key=lambda r: (r["pair"], r["side"] != "parent"))
    if args.workload == ELL4:
        mark_disagreements(runs)

    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    bench.setdefault("workloads", {})[args.workload] = {
        "command": {
            ELL4: "enumerate --ell 4 --workers 2 --out F",
            DEEP: f"play --chips N --policy P --seed 0, stopped after {args.seconds:g} s",
        }.get(
            args.workload,
            f"perfbench/run.py --workload {args.workload} --seconds {args.seconds:g} --trace 0",
        ),
        "seeds": [args.seed + i for i in range(args.pairs)],
        "machine": machine or {"nproc": os.cpu_count(), "python": platform.python_version()},
        "summary": summarize(runs, better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
