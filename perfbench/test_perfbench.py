"""Self-tests of the benchmark at toy size: ell = 3 searches, a few games, N <= 64.

    python3 -m pytest -q perfbench

They prove that every metric parses under its name and unit, and that a
wrong output is counted as a failure instead of being dropped.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import workloads
from chipfire import enumeration

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY = workloads.SIZES["toy"]


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_result_line_has_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert "machine " in proc.stdout and "fail_frac 0" in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_names_only_declared_layers(workload, tmp_path):
    workloads.setup(workload, 3, tmp_path, TOY)
    result = workloads.run_pass(workload, 3, tmp_path, TOY, traced=True)
    assert result["failed"] == 0
    assert set(result["layers"]) <= {m["name"] for m in SPEC["per_layer"]}
    assert result["layers"]["cli.self_s"] > 0


def test_pass_count_is_fixed_by_the_seconds():
    # toy passes take a fraction of their nominal time; the count must not follow that
    proc = _bench("--workload", "corpus", "--seed", "1", "--seconds", "3.75", "--trace", "0", "--toy")
    assert proc.returncode == 0, proc.stderr
    assert "passes 3" in proc.stdout.splitlines()


def test_bench_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "games", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_inputs_follow_the_seed(tmp_path):
    digests = [workloads.setup("corpus", seed, tmp_path, TOY)["inputs_sha256"] for seed in (1, 1, 2)]
    assert digests[0] == digests[1] != digests[2]


def test_corrupted_corpus_line_fails_every_operation(tmp_path):
    workloads.setup("corpus", 1, tmp_path, TOY)
    path = workloads.corpus_path(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].replace('"chips":[', '"chips":[1', 1)
    path.write_text("".join(lines), encoding="utf-8")
    result = workloads.run_pass("corpus", 1, tmp_path, TOY)
    assert result["attempted"] == len(lines)  # every configuration, plus extract-orders
    assert result["failed"] == result["attempted"]


def test_configuration_that_breaks_a_property_is_counted(tmp_path):
    workloads.setup("corpus", 1, tmp_path, TOY)
    path = workloads.corpus_path(tmp_path)
    stable = enumeration.load(str(path))
    bad = stable.configs[0]
    left, right = 2 ** (stable.ell - 1), 2**stable.ell - 1
    bad.cells[left], bad.cells[right] = bad.cells[right], bad.cells[left]  # chips 1 and N
    enumeration.save(stable, str(path))
    result = workloads.run_pass("corpus", 1, tmp_path, TOY)
    assert result["attempted"] == stable.count + 1
    assert result["failed"] == 1


@pytest.mark.parametrize(
    "workload, wrong",
    [
        ("search-sched", {"sched_count": TOY.sched_count + 1}),
        ("search-sched", {"sched_body_sha256": "0" * 64}),
        ("search-full", {"pause_depth": TOY.pause_depth + 1}),
    ],
)
def test_wrong_reference_is_a_failure(workload, wrong, tmp_path):
    workloads.setup(workload, 1, tmp_path, TOY)
    result = workloads.run_pass(workload, 1, tmp_path, replace(TOY, **wrong))
    assert result["attempted"] == 2
    assert result["failed"] == 1
