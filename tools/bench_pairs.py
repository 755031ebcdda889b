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
workload ``play-deep`` plays ``chipfire play --chips N --policy P --seed 0``
for N = 16,383 and 65,535 and every policy, and ``simulate-deep`` plays
``chipfire simulate --chips 1048575 --strategy S --seed 0`` for every
strategy.  Each game runs in a child process of its own, which records its
wall time as ``wall_s.<game>``, its peak RSS as ``rss_mb.<game>`` and the
sha256 of its stdout; both runs of a pair are marked not correct when a game
that both sides finished printed different stdout.  A game still running
after --seconds is stopped and counted at --seconds, a lower bound on its
time.  A corpus run also records the sha256 of the corpus its seed's set-up
builds, and both runs of a pair are marked not correct when the two sides
built different corpora.

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
# what the enumerate-ell4 workload runs, less its --out
ELL4_ARGV = ["enumerate", "--ell", "4", "--workers", "2"]
# the deep-games workloads: per game, the chipfire command line that plays it
DEEP = {
    "play-deep": {
        f"{n}.{policy}": ["play", "--chips", str(n), "--policy", policy, "--seed", "0"]
        for n in (16383, 65535)
        for policy in ("min-triple", "max-triple", "random")
    },
    "simulate-deep": {
        strategy: ["simulate", "--chips", "1048575", "--strategy", strategy, "--seed", "0"]
        for strategy in ("lowest-index-first", "random", "highest-layer-first")
    },
}
# what each game of a deep-games workload records
DEEP_METRICS = ("wall_s", "rss_mb")

# The children below run in a fresh interpreter whose PYTHONPATH is the checkout's src/.
# Their own peak RSS is VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so a
# child would report at least the peak of the process that started it.
_PEAK_MB = """
def peak_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
"""

# one search: argv[1] is the corpus it writes, argv[2] the CLI arguments as JSON
_ELL4_CHILD = _PEAK_MB + """
import hashlib, json, resource, sys, time
from chipfire import cli
start = time.perf_counter()
rc = cli.main([*json.loads(sys.argv[2]), "--out", sys.argv[1], "--json"])
wall = time.perf_counter() - start
main = resource.getrusage(resource.RUSAGE_SELF)
head, body = open(sys.argv[1], "rb").read().split(b"\\n", 1)
print(json.dumps({
    "correct": rc == 0,
    "metrics": {
        "wall_s": wall,
        "main_cpu_s": main.ru_utime + main.ru_stime,
        "main_rss_mb": peak_mb(),
        "worker_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    },
    "header": json.loads(head),
    "body_sha256": hashlib.sha256(body).hexdigest(),
}))
"""

# one game; stdout is hashed as it is written, so that the peak RSS is the CLI's own
_DEEP_CHILD = _PEAK_MB + """
import contextlib, hashlib, json, signal, sys, time
from chipfire import cli
class Cut(BaseException):
    pass
def cut(signum, frame):
    raise Cut
class Digest:
    def __init__(self):
        self.sha256 = hashlib.sha256()
    def write(self, text):
        self.sha256.update(text.encode())
        return len(text)
    def flush(self):
        pass
signal.signal(signal.SIGALRM, cut)
limit, out, result = float(sys.argv[1]), Digest(), {"correct": True}
start = time.perf_counter()
signal.setitimer(signal.ITIMER_REAL, limit)
try:
    with contextlib.redirect_stdout(out):
        result["correct"] = cli.main(json.loads(sys.argv[2])) == 0
    result["stdout_sha256"] = out.sha256.hexdigest()
except Cut:
    pass
finally:
    signal.setitimer(signal.ITIMER_REAL, 0)
result["wall_s"] = min(time.perf_counter() - start, limit)
result["rss_mb"] = peak_mb()
print(json.dumps(result))
"""


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run in one checkout: its result line, plus the machine line if any."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    if workload in DEEP:
        return run_games(root, env, workload, seconds)
    if workload == ELL4:
        with tempfile.TemporaryDirectory() as tmp:
            argv = [sys.executable, "-c", _ELL4_CHILD, str(Path(tmp) / "z4.jsonl")]
            argv.append(json.dumps(ELL4_ARGV))
            done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    else:
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    result = _last_line(root, workload, done)
    lines = done.stdout.splitlines()
    machine = [json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("machine ")]
    if machine:
        result["machine"] = machine[0]
    if workload == "corpus":
        with tempfile.TemporaryDirectory() as tmp:
            argv = [sys.executable, "perfbench/workloads.py", "setup", workload, str(seed), tmp]
            done = subprocess.run([*argv, "full"], cwd=root, capture_output=True, text=True)
        result["inputs_sha256"] = _last_line(root, workload, done)["inputs_sha256"]
    return result


def run_games(root: Path, env: dict, workload: str, seconds: float) -> dict:
    """One run of a deep-games workload: each game in a child process of its own, so
    that its peak RSS is that game's alone."""
    result = {"correct": True, "metrics": {}, "cut": [], "stdout_sha256": {}}
    for game, argv in DEEP[workload].items():
        child = [sys.executable, "-c", _DEEP_CHILD, str(seconds), json.dumps(argv)]
        done = subprocess.run(child, cwd=root, env=env, capture_output=True, text=True)
        played = _last_line(root, workload, done)
        result["correct"] &= played["correct"]
        result["metrics"].update({f"{m}.{game}": played[m] for m in DEEP_METRICS})
        if "stdout_sha256" in played:
            result["stdout_sha256"][game] = played["stdout_sha256"]
        else:
            result["cut"].append(game)
    return result


def _last_line(root: Path, workload: str, done: subprocess.CompletedProcess) -> dict:
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {workload} failed (exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def _answers(run: dict) -> dict:
    """What a run made, by name: its corpus for enumerate-ell4, its inputs for
    corpus, each game's stdout for a deep-games workload, else nothing."""
    if "header" in run:
        counts = map(run["header"].get, ("count", "explored_states", "max_frontier"))
        return {"corpus": (run["body_sha256"], *counts)}
    if "inputs_sha256" in run:
        return {"inputs": run["inputs_sha256"]}
    return run.get("stdout_sha256", {})


def mark_disagreements(runs: list[dict]) -> None:
    """Mark both runs of a pair not correct when they made different answers:
    for enumerate-ell4 a corpus that differs in body sha256, count, explored_states
    or max_frontier; for corpus the set-up's inputs; for a deep-games workload a
    game's stdout, where both sides finished the game."""
    pairs: dict[int, list[dict]] = {}
    for run in runs:
        pairs.setdefault(run["pair"], []).append(_answers(run))
    for run in runs:
        first, *rest = pairs[run["pair"]]
        if any(first[k] != other[k] for other in rest for k in first.keys() & other.keys()):
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
    elif args.workload in DEEP:
        better = {f"{m}.{game}": "lower" for m in DEEP_METRICS for game in DEEP[args.workload]}
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
    mark_disagreements(runs)

    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    bench.setdefault("workloads", {})[args.workload] = {
        "command": {
            ELL4: " ".join([*ELL4_ARGV, "--out", "F"]),
            "play-deep": f"play --chips N --policy P --seed 0, stopped after {args.seconds:g} s",
            "simulate-deep": (
                f"simulate --chips 1048575 --strategy S --seed 0, stopped after {args.seconds:g} s"
            ),
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
