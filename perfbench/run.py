"""The chipfire benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each set-up and each timed pass runs
in a fresh process (see workloads.py), so every pass has its own peak RSS.

With ``--trace 0`` it runs a fixed number of untraced passes, about S
seconds' worth (see PASS_S), with two set-ups before them and two after,
and reports the end-to-end metrics of BENCHMARK.json: the fastest pass's
time, and medians of the rest.  With ``--trace 1`` it runs one untraced
and one traced pass and reports the per-layer metrics; a layer metric the
workload never reaches reads 0.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine, the derived throughput and every sample.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 4
# every run must end within 180 s; leave room to report and clean up
DEADLINE_S = 170.0
# Nominal seconds of one pass, process start included, on a 2-core host.  A
# run makes round(seconds / PASS_S) passes, at least one, however fast the
# passes turn out, so a faster engine never changes how many samples
# ``wall_s`` is taken over.
PASS_S = {"search-full": 12.5, "search-sched": 25.0, "corpus": 1.25, "games": 12.5}


class BenchError(RuntimeError):
    """A child process failed, timed out or printed no result."""


def machine(root: Path) -> dict:
    """What the numbers were measured on, with the load average at the start."""

    def first(path: str, key: str) -> str | None:
        try:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "chipfire").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
    }


class Runner:
    """Starts the child processes of one run and enforces the run's deadline."""

    def __init__(self, workload: str, seed: int, workdir: Path, sizes: str):
        self.args = [workload, str(seed), str(workdir), sizes]
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, command: str) -> tuple[dict, float]:
        """Run one child to completion; return its result and its wall time."""
        cmd = [sys.executable, str(HERE / "workloads.py"), command, *self.args]
        start = time.monotonic()
        # a session of its own, so a timeout also ends the child's pool workers
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - start))
        except BaseException as exc:  # a timeout, or this run being stopped
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{command} did not finish before the run's deadline") from None
            raise
        elapsed = time.monotonic() - start
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{command} exited {proc.returncode}:\n{err[-2000:]}")
        return json.loads(lines[-1]), elapsed


def untraced(runner: Runner, n_passes: int, log: list[str]) -> tuple[dict, int, int]:
    attempted = failed = 0
    setups = [runner.child("setup") for _ in range(SETUPS // 2)]

    passes = []
    for _ in range(n_passes):
        result, _ = runner.child("pass")
        passes.append(result)
        attempted += result["attempted"]
        failed += result["failed"]
        for error in result["errors"]:
            log.append(f"FAILED {error}")

    # the other half of the set-ups runs after the passes, in another spell of host speed
    setups += [runner.child("setup") for _ in range(SETUPS - SETUPS // 2)]
    digests = {result["inputs_sha256"] for result, _ in setups}
    if digests != {None}:  # the same seed must give the same inputs
        attempted += 1
        failed += len(digests) != 1
    log.append(f"setup_s samples {[round(t, 4) for _, t in setups]}")

    def total_rss(r: dict) -> float:
        # an upper bound: each worker is counted as large as the largest, and its
        # peak includes the pages it still shares with the main process
        return r["rss_mb"] + r["counts"].get("workers", 0) * r["worker_rss_mb"]

    walls = [r["wall_s"] for r in passes]
    metrics = {
        "setup_s": statistics.median(t for _, t in setups),
        # host noise only ever slows a pass down, so the fastest pass is the steadiest figure
        "wall_s": min(walls),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
        "total_rss_upper_mb": statistics.median(total_rss(r) for r in passes),
    }
    log.append(f"passes {len(passes)}")
    log.append(f"wall_s samples {[round(w, 4) for w in walls]} median {statistics.median(walls):.4f}")
    log.append(f"peak_rss_mb samples {[round(r['rss_mb'], 1) for r in passes]}")
    counts = passes[-1]["counts"]
    log.append(f"counts {json.dumps(counts)}")
    if "configs" in counts:
        log.append(f"configs_per_s {counts['configs'] / metrics['wall_s']:.1f} 1/s")
    if "fires" in counts:
        log.append(f"fires_per_s {counts['fires'] / metrics['wall_s']:.1f} 1/s")
    if counts.get("workers"):
        worker = statistics.median(r["worker_rss_mb"] for r in passes)
        log.append(f"worker_rss_mb {worker:.1f} MB")
    return metrics, attempted, failed


def traced(runner: Runner, workload: str, log: list[str]) -> tuple[dict, int, int]:
    inputs, _ = runner.child("setup")
    plain, _ = runner.child("pass")
    traced_pass, _ = runner.child("trace")
    runs = [plain, traced_pass]
    layers = dict(traced_pass["layers"])
    layers["trace.overhead_frac"] = traced_pass["wall_s"] / plain["wall_s"] - 1
    if "game_ms" in inputs:
        layers["labeled.game_ms.ell5"] = inputs["game_ms"]
    if workload == "search-full":
        probe, _ = runner.child("probe")
        runs.append(probe)
        layers["enumeration.pool_speedup"] = probe["op_wall_s"]["pause"] / plain["op_wall_s"]["pause"]
        layers["enumeration.worker_rss_mb"] = traced_pass["worker_rss_mb"]
    for run in runs:
        for error in run["errors"]:
            log.append(f"FAILED {error}")
    log.append(f"wall_s untraced {plain['wall_s']:.4f} traced {traced_pass['wall_s']:.4f}")
    log.append(f"counts {json.dumps(traced_pass['counts'])}")
    return layers, sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy",
        action="store_true",
        help="self-test sizes (ell = 3, N <= 64); not comparable with full runs",
    )
    args = parser.parse_args(argv)
    # on SIGTERM, unwind like on Ctrl-C, so the child and the scratch files go too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "chipfire" / "__init__.py").is_file():
        print(f"error: no chipfire sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    info = machine(ROOT)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, workdir, "toy" if args.toy else "full")
    log: list[str] = []
    try:
        if args.trace:
            values, attempted, failed = traced(runner, args.workload, log)
        else:
            n_passes = max(1, round(args.seconds / PASS_S[args.workload]))
            values, attempted, failed = untraced(runner, n_passes, log)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            workdir.parent.rmdir()
    info["loadavg_end"] = list(os.getloadavg())

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    print(f"machine {json.dumps(info)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in log:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac {failed / attempted if attempted else 1.0:.6g}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
