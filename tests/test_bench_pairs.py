"""tools/bench_pairs: the statistics every BENCH file's claims rest on, the
agreement of the two sides of a pair, and the one child process per deep game."""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from chipfire import cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# five pairs; pair 1 is a tie, which neither side wins
PARENT = [10, 12, 11, 13, 14]
CHANGE = [8, 12, 10, 9, 16]


def runs(parent, change):
    """Runs as bench_pairs keeps them: per pair the parent's run, then the change's."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        out.append({"pair": pair, "side": "parent", "metrics": {"wall_s": p, "rate": p}})
        out.append({"pair": pair, "side": "change", "metrics": {"wall_s": c, "rate": c}})
    return out


def test_medians_quartiles_and_ratio():
    summary = bench_pairs.summarize(runs(PARENT, CHANGE), {"wall_s": "lower"})["wall_s"]
    # sorted parent 10 11 12 13 14, change 8 9 10 12 16; quartiles interpolate
    # at ranks 1.5 and 4.5 of 5
    assert summary["parent"] == {"median": 12, "q1": 10.5, "q3": 13.5}
    assert summary["change"] == {"median": 10, "q1": 8.5, "q3": 14.0}
    assert summary["ratio"] == pytest.approx(10 / 12)
    assert (summary["better"], summary["pairs"]) == ("lower", 5)


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    summary = bench_pairs.summarize(runs(PARENT, CHANGE), {"wall_s": "lower", "rate": "higher"})
    # lower wins pairs 0, 2 and 3; higher wins pair 4; pair 1 is tied
    assert summary["wall_s"]["change_wins"] == 3
    assert summary["rate"]["change_wins"] == 1
    assert bench_pairs.summarize(runs(PARENT, PARENT), {"wall_s": "lower", "rate": "higher"}) == {
        name: {
            "parent": {"median": 12, "q1": 10.5, "q3": 13.5},
            "change": {"median": 12, "q1": 10.5, "q3": 13.5},
            "better": better,
            "ratio": 1.0,
            "change_wins": 0,
            "pairs": 5,
        }
        for name, better in (("wall_s", "lower"), ("rate", "higher"))
    }


def test_a_single_pair_has_its_value_as_both_quartiles():
    summary = bench_pairs.summarize(runs([4.0], [2.0]), {"wall_s": "lower"})["wall_s"]
    assert summary["parent"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert summary["change"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert (summary["ratio"], summary["change_wins"], summary["pairs"]) == (0.5, 1, 1)


def ell4_run(pair, side, body="020980e1", **header):
    """A faked enumerate-ell4 run whose process exited 0."""
    header = {"count": 36220, "explored_states": 48194309, "max_frontier": 9036223, **header}
    return {"pair": pair, "side": side, "correct": True, "header": header, "body_sha256": body}


@pytest.mark.parametrize(
    "change",
    [
        {"body": "d6e1ba03"},
        {"count": 36219},
        {"explored_states": 48194308},
        {"max_frontier": 9036222},
        {"max_frontier": None},
    ],
)
def test_an_ell4_pair_whose_sides_disagree_is_not_correct(change):
    runs = [ell4_run(0, "parent"), ell4_run(0, "change"), ell4_run(1, "parent")]
    runs.append(ell4_run(1, "change", **change))
    bench_pairs.mark_disagreements(runs)
    assert [run["correct"] for run in runs] == [True, True, False, False]


def deep_run(pair, side, **stdout_sha256):
    """A faked simulate-deep run: per game, the sha256 of its stdout; a game
    stopped at --seconds has none."""
    games = {"lowest-index-first": "5be1", "random": "5be1"}
    games.update(stdout_sha256)
    games = {name: sha for name, sha in games.items() if sha is not None}
    return {"pair": pair, "side": side, "correct": True, "stdout_sha256": games}


def test_a_deep_pair_whose_games_print_different_stdout_is_not_correct():
    runs = [deep_run(0, "parent"), deep_run(0, "change"), deep_run(1, "parent")]
    runs.append(deep_run(1, "change", random="0ddb"))
    # a game one side did not finish is compared on nothing
    runs += [deep_run(2, "parent", random=None), deep_run(2, "change")]
    bench_pairs.mark_disagreements(runs)
    assert [run["correct"] for run in runs] == [True, True, False, False, True, True]


def test_each_deep_game_records_its_own_time_and_peak_rss(monkeypatch, tmp_path):
    # the long game goes first: played in one process, the short one would
    # inherit its peak RSS
    games = {"long": ["simulate", "--chips", "1048575"], "short": ["simulate", "--chips", "6"]}
    monkeypatch.setitem(bench_pairs.DEEP, "two-games", games)
    root, out = _PATH.parents[1], tmp_path / "bench.json"
    argv = ["--parent", str(root), "--change", str(root), "--workload", "two-games"]
    argv += ["--pairs", "1", "--seconds", "0.5", "--out", str(out)]
    assert bench_pairs.main(argv) == 0

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        cli.main(games["short"])
    short_sha256 = hashlib.sha256(printed.getvalue().encode()).hexdigest()
    workload = json.loads(out.read_text())["workloads"]["two-games"]
    assert list(workload["summary"]) == [
        "wall_s.long", "wall_s.short", "rss_mb.long", "rss_mb.short"
    ]
    for run in workload["runs"]:
        metrics = run["metrics"]
        # the long game is stopped at --seconds and counted there
        assert (run["correct"], run["cut"], metrics["wall_s.long"]) == (True, ["long"], 0.5)
        assert run["stdout_sha256"] == {"short": short_sha256}
        # its two lists of 2^20 cells alone hold 16 MiB
        assert 0 < metrics["rss_mb.short"] < metrics["rss_mb.long"]



def test_a_corpus_pair_whose_set_ups_built_different_inputs_is_not_correct():
    runs = [
        {"pair": pair, "side": side, "correct": True, "inputs_sha256": sha}
        for pair, side, sha in (
            (0, "parent", "a51c"), (0, "change", "a51c"), (1, "parent", "a51c"), (1, "change", "0ddb")
        )
    ]
    # a games run makes no answer to compare
    runs += [{"pair": 2, "side": side, "correct": True} for side in ("parent", "change")]
    bench_pairs.mark_disagreements(runs)
    assert [run["correct"] for run in runs] == [True, True, False, False, True, True]


def test_an_ell4_run_records_its_own_peak_rss_not_its_caller_s(monkeypatch):
    # a 2-layer search stands in for the 4-layer one
    monkeypatch.setattr(bench_pairs, "ELL4_ARGV", ["enumerate", "--ell", "2"])
    # the caller's peak, which ru_maxrss would carry into the child across exec
    ballast = b"x" * (128 << 20)
    run = bench_pairs.run_side(_PATH.parents[1], bench_pairs.ELL4, 1, 25.0)
    del ballast
    assert (run["correct"], run["header"]["count"]) == (True, 1)
    assert 0 < run["metrics"]["main_rss_mb"] < 64
