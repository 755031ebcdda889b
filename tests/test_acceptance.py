"""Acceptance suite: one test per criterion, with its stated time budget.

Each test prints a single `ACCEPTANCE <n> PASS/FAIL` line so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist.  The full
4-layer enumeration (36,220 configurations) is a stretch goal gated
behind CHIPFIRE_RUN_LONG=1; everything else runs in CI.
"""

import itertools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from chipfire import bounds, checks, enumeration, unlabeled
from chipfire.cli import main as cli_main
from conftest import closed_forms_by_vertex


@contextmanager
def criterion(number: int, budget_seconds: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s / budget {budget_seconds:.0f}s): {description}")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


def test_criterion_01_simulation_matches_closed_forms():
    with criterion(1, 10, "simulate() equals closed-form fire and chip counts, N <= 300"):
        for n in range(1, 301):
            cells, fired = closed_forms_by_vertex(n)
            for strategy in unlabeled.STRATEGIES:
                for seed in range(5):
                    state = unlabeled.simulate(n, strategy, seed=seed)
                    assert state.cells == cells, (n, strategy, seed)
                    assert state.fired == fired, (n, strategy, seed)


def test_criterion_02_full_tree_special_case():
    with criterion(2, 1, "2^n - 1 chips: per-layer fires and total, 2 <= n <= 20"):
        for n in range(2, 21):
            f = unlabeled.fires_per_layer(2**n - 1)
            for i in range(1, n + 1):
                assert f[n - i] == 2**i - i - 1
            assert unlabeled.total_fires(2**n - 1) == (n - 3) * 2**n + n + 3


def test_criterion_03_sequence_reproduction():
    with criterion(3, 5, "published sequence terms and both difference laws, m <= 10^4"):
        assert unlabeled.sequence("f0", 16) == [
            0, 1, 2, 4, 5, 7, 8, 11, 12, 14, 15, 18, 19, 21, 22, 26,
        ]
        assert unlabeled.sequence("F", 23) == [
            0, 1, 2, 6, 7, 11, 12, 23, 24, 28, 29, 40,
            41, 45, 46, 72, 73, 77, 78, 89, 90, 94, 95,
        ]
        for m in range(1, 10**4 + 1):
            trailing = len(bin(m)) - len(bin(m).rstrip("1"))
            want = trailing if m == 2**trailing - 1 else trailing + 1
            d = unlabeled.diff_root_fires(m)
            assert d == want, m
            assert unlabeled.diff_total_fires(m) == 2 ** (d + 1) - (d + 1) - 1, m


def test_criterion_04_recursion_consistency():
    with criterion(4, 5, "recursive root-fire count equals the closed form, N <= 10^5"):
        for n in range(1, 10**5 + 1):
            assert unlabeled.root_fires_recursive(n) == unlabeled.root_fires_closed(n)


def test_criterion_05_enumeration_ground_truth():
    with criterion(5, 10, "stable-set counts 1, 1, 6 for 1..3 layers"):
        assert enumeration.enumerate_stable(1).count == 1
        assert enumeration.enumerate_stable(2).count == 1
        assert enumeration.enumerate_stable(3).count == 6


def test_criterion_06_property_suite():
    with criterion(6, 10, "all enumerated configurations satisfy the structure theorems"):
        for ell in (1, 2, 3):
            for config in enumeration.enumerate_stable(ell).configs:
                for name in ("anchors", "extremes", "zigzag", "ballot", "forbidden"):
                    if ell >= checks.min_layers_for(name):
                        report = checks.check(config, [name])[name]
                        assert report.passed, (ell, name, report.violations)


def test_criterion_07_bound_exactness():
    with criterion(7, 1, "bound values match their published exact figures"):
        assert bounds.zigzag_bound(4) == (9009000, 693000)
        assert bounds.ballot_bound(4)[1] == 186300
        assert bounds.ballot_bound(3) == (10, 20)
        assert bounds.ballot_bound(5)[0] == 71940918415766400000
        assert bounds.naive_bounds(4)[1] == 39916800


def test_criterion_08_table_reproduction_and_orderings():
    with criterion(8, 5, "comparison table to 2 significant digits; strict orderings to ell=12"):
        expected = {
            4: ("4.0e7", "6.9e5", "1.9e5"),
            5: ("1.1e28", "2.9e22", "3.4e19"),
            6: ("1.4e80", "1.8e65", "2.3e57"),
            7: ("1.2e205", "1.5e170", "1.3e152"),
        }
        for row in bounds.compare_table(range(4, 8)):
            rendered = tuple(bounds.sci(z) for _, z in row.values.values())
            assert rendered == expected[row.ell], row.ell
        row4 = bounds.compare_table([4])[0]
        assert tuple(z for _, z in row4.values.values()) == (39916800, 693000, 186300)
        for ell in range(5, 13):
            reference = bounds.factorial(2**ell - 7)
            assert bounds.zigzag_bound(ell)[1] < bounds.zigzag_bound(ell)[0] < reference
            assert bounds.ballot_bound(ell)[1] < bounds.ballot_bound(ell)[0]
            assert bounds.zigzag_bound(ell)[1] < reference
            assert bounds.ballot_bound(ell)[1] < reference


def test_criterion_09_combinatorial_oracles():
    with criterion(9, 30, "zigzag numbers and ballot splits match brute-force enumeration"):
        for n in range(10):
            by_hand = 0
            for perm in itertools.permutations(range(n)):
                if all((perm[i] < perm[i + 1]) == (i % 2 == 0) for i in range(n - 1)):
                    by_hand += 1
            if n == 0:
                by_hand = 1
            assert bounds.euler_zigzag(n) == by_hand, n

        for ell in (3, 4):  # free region lengths 2 and 10, both <= 12
            per_side = 2 ** (ell - 1) - 1
            free = 2**ell - 6
            by_hand = 0
            for positions in itertools.combinations(range(free), per_side - 2):
                votes = [1, 1] + [1 if i in positions else -1 for i in range(free)] + [-1, -1]
                running = 0
                if all((running := running + vote) >= 0 for vote in votes):
                    by_hand += 1
            assert bounds.ballot_split_count(ell) == by_hand, ell


def test_criterion_10_determinism(capsys, tmp_path):
    with criterion(10, 30, "worker counts and repeated CLI runs are byte-stable"):
        single = enumeration.enumerate_stable(3, workers=1)
        multi = enumeration.enumerate_stable(3, workers=2)
        assert single.canonical_keys() == multi.canonical_keys()

        invocations = [
            ("fires", "--chips", "15", "--json"),
            ("simulate", "--chips", "60", "--strategy", "random", "--seed", "9"),
            ("play", "--chips", "5", "--policy", "min-triple"),
            ("play", "--chips", "15", "--policy", "random", "--seed", "1"),
            ("sequence", "--name", "diff-F", "--count", "15"),
            ("sequence", "--name", "f0", "--count", "16", "--csv"),
            ("bounds", "--table", "4..7"),
            ("bounds", "--ell", "3", "--method", "ballot"),
            ("enumerate", "--ell", "3"),
            ("enumerate", "--ell", "3", "--mode", "scheduled", "--json"),
        ]
        for argv in invocations:
            assert cli_main(list(argv)) == 0
            first = capsys.readouterr().out
            assert cli_main(list(argv)) == 0
            assert capsys.readouterr().out == first, argv

        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert cli_main(["enumerate", "--ell", "3", "--out", a]) == 0
        assert cli_main(["enumerate", "--ell", "3", "--workers", "2", "--out", b]) == 0
        capsys.readouterr()
        assert Path(a).read_bytes() == Path(b).read_bytes()


@pytest.mark.long
@pytest.mark.skipif(
    os.environ.get("CHIPFIRE_RUN_LONG") != "1",
    reason="stretch goal: full 4-layer enumeration, 159 s with 2 workers on 2 cores "
    "(BENCH_12.json); set CHIPFIRE_RUN_LONG=1",
)
def test_criterion_05_stretch_four_layers(four_layer_search):
    result, search_seconds = four_layer_search  # shared with test_enumeration.py
    # the budget covers the search as well as the checks below
    budget = 6 * 3600 - search_seconds
    with criterion(5, budget, "stretch: 36,220 stable configurations and 10 subtree orders"):
        assert result.count == 36220
        orders = enumeration.extract_subtree_orders(result.configs, result.ell, 3)
        assert len(orders) == 10
        assert "4;3,5;1,6,2,7" not in orders  # the one impossible order
        for config in result.configs:
            for name in ("anchors", "extremes", "zigzag", "ballot", "forbidden"):
                assert checks.check(config, [name])[name].passed


def test_acceptance_summary_footer():
    # keep a stable marker at the end of -s output for scripted consumption
    print("ACCEPTANCE SUITE COMPLETE")
