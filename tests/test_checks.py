import hashlib
import itertools
import json
import random

import pytest

from chipfire import checks, labeled
from conftest import single_chip_config

# the worked stable configuration for 7 chips used throughout
SEVEN = {1: 4, 2: 2, 3: 6, 4: 1, 5: 3, 6: 5, 7: 7}

# a 15-chip layout whose left branch holds {1,2,3,5,6,7,11} with 11 at the
# branch's bottom-right: subtree extremes hold even though the branch is not
# order-isomorphic to a whole tree (its second-largest chip is off-anchor)
BRANCH_NOT_A_TREE = {
    1: 8, 2: 7, 3: 14, 4: 2, 5: 6, 6: 9, 7: 13,
    8: 1, 9: 5, 10: 3, 11: 11, 12: 4, 13: 12, 14: 10, 15: 15,
}


class TestPreconditions:
    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            checks.check(labeled.initial_config(7), ["anchors"])["anchors"]

    def test_rejects_wrong_chip_count(self):
        config = labeled.run_policy(5)
        with pytest.raises(ValueError):
            checks.check(config, ["anchors"])["anchors"]

    def test_rejects_partial_layouts(self):
        config = labeled.LabeledConfig(n_chips=3, cells={1: [1, 2], 2: [3]})
        with pytest.raises(ValueError):
            checks.check(config, ["extremes"])["extremes"]

    def test_single_layer_has_no_anchor_check(self):
        config = single_chip_config({1: 1})
        with pytest.raises(ValueError):
            checks.check(config, ["anchors"])["anchors"]
        assert checks.check(config, ["extremes"])["extremes"].passed
        assert checks.check(config, ["zigzag"])["zigzag"].passed
        assert checks.check(config, ["ballot"])["ballot"].passed

    @pytest.mark.parametrize("name", checks.CHECKERS)
    def test_zero_chips_are_refused(self, name):
        # 0 = 2^0 - 1 chips on no vertex: zero layers, below every minimum
        with pytest.raises(ValueError, match=f"{name} check needs at least"):
            checks.check(labeled.LabeledConfig(n_chips=0, cells={}), [name])

    @pytest.mark.parametrize("names", [[], ["zigzag", "anchors"], None])
    def test_check_runs_the_selected_properties_in_their_order(self, monkeypatch, names):
        ran = []
        for name in checks.CHECKERS:
            checker = lambda labels, ell, name=name: ran.append(name) or checks.CheckReport(name)
            monkeypatch.setitem(checks.CHECKERS, name, checker)
        reports = checks.check(single_chip_config(SEVEN), names)
        assert ran == list(reports) == (list(checks.CHECKERS) if names is None else names)

    @pytest.mark.parametrize("name", ["anchors", "penultimate", "forbidden"])
    def test_checkers_refuse_exactly_below_their_minimum(self, name):
        needed = checks.min_layers_for(name)
        with pytest.raises(ValueError, match=f"{name} check needs at least {needed} layers"):
            checks.check(labeled.run_policy(2 ** (needed - 1) - 1), [name])
        assert checks.check(labeled.run_policy(2**needed - 1), [name])[name].passed


class TestAnchors:
    def test_pass(self):
        report = checks.check(single_chip_config(SEVEN), ["anchors"])["anchors"]
        assert report.passed and report.violations == []

    def test_two_layers_checks_extreme_chips_only(self):
        config = single_chip_config({1: 2, 2: 1, 3: 3})
        assert checks.check(config, ["anchors"])["anchors"].passed

    def test_swapped_second_chip_fails_at_its_vertex(self):
        swapped = {**SEVEN, 2: 3, 5: 2}
        report = checks.check(single_chip_config(swapped), ["anchors"])["anchors"]
        assert not report.passed
        assert report.violations[0].vertex == 2
        assert "chip 2" in report.violations[0].detail


class TestSubtreeExtremes:
    def test_pass(self):
        assert checks.check(single_chip_config(SEVEN), ["extremes"])["extremes"].passed

    def test_branch_need_not_mirror_the_tree(self):
        config = single_chip_config(BRANCH_NOT_A_TREE)
        assert checks.check(config, ["extremes"])["extremes"].passed
        # the interesting feature: second-largest of the left branch is not
        # at the parent of the branch's largest chip
        assert config.cells[11] == [11]
        assert config.cells[5] != [7]

    def test_interior_minimum_fails(self):
        broken = {**BRANCH_NOT_A_TREE, 4: 1, 8: 2}
        report = checks.check(single_chip_config(broken), ["extremes"])["extremes"]
        assert not report.passed
        assert any(v.vertex == 4 for v in report.violations)


class TestZigzagAlternation:
    def test_pass_three_layers(self):
        assert checks.check(single_chip_config(SEVEN), ["zigzag"])["zigzag"].passed

    def test_pass_two_layers(self):
        config = single_chip_config({1: 2, 2: 1, 3: 3})
        assert checks.check(config, ["zigzag"])["zigzag"].passed

    def test_violation_reports_the_offending_pair(self):
        broken = {**SEVEN, 1: 2, 2: 4}
        report = checks.check(single_chip_config(broken), ["zigzag"])["zigzag"]
        assert not report.passed
        assert any("chip 2 at 1 > chip 4 at 2" in v.detail for v in report.violations)


class TestPenultimate:
    def test_passes_on_valid_configs(self):
        assert checks.check(single_chip_config(SEVEN), ["penultimate"])["penultimate"].passed

    def test_two_layers_is_trivial(self):
        config = single_chip_config({1: 2, 2: 1, 3: 3})
        assert checks.check(config, ["penultimate"])["penultimate"].passed

    def test_violation(self):
        broken = single_chip_config({1: 2, 2: 4, 3: 6, 4: 1, 5: 3, 6: 5, 7: 7})
        report = checks.check(broken, ["penultimate"])["penultimate"]
        assert not report.passed
        assert any(v.vertex == 2 for v in report.violations)


class TestBallot:
    def test_pass(self):
        assert checks.check(single_chip_config(SEVEN), ["ballot"])["ballot"].passed

    def test_every_stable_seven_chip_config_passes(self, stable3):
        for config in stable3.configs:
            assert checks.check(config, ["ballot"])["ballot"].passed

    def test_mirrored_labeling_fails(self):
        mirrored = {1: 4, 2: 6, 3: 2, 4: 7, 5: 5, 6: 3, 7: 1}
        report = checks.check(single_chip_config(mirrored), ["ballot"])["ballot"]
        assert not report.passed
        assert report.violations[0].vertex == 1


FORBIDDEN_SEVEN = {1: 4, 2: 3, 3: 5, 4: 1, 5: 6, 6: 2, 7: 7}


class TestForbiddenOrder:
    def test_all_enumerated_configs_pass(self, stable3):
        for config in stable3.configs:
            assert checks.check(config, ["forbidden"])["forbidden"].passed

    def test_planted_pattern_fails(self):
        report = checks.check(single_chip_config(FORBIDDEN_SEVEN), ["forbidden"])["forbidden"]
        assert not report.passed
        assert report.violations[0].vertex == 1

    def test_planted_pattern_in_a_subtree(self):
        # forbidden order on the subtree at vertex 2; the right branch is
        # arranged innocently (10 at the parent of 9)
        placement = {
            1: 8, 2: 4, 4: 3, 5: 5, 8: 1, 9: 6, 10: 2, 11: 7,
            3: 11, 6: 10, 7: 13, 12: 9, 13: 12, 14: 14, 15: 15,
        }
        report = checks.check(single_chip_config(placement), ["forbidden"])["forbidden"]
        assert not report.passed
        assert [v.vertex for v in report.violations] == [2]

    def test_needs_three_layers(self):
        with pytest.raises(ValueError):
            checks.check(single_chip_config({1: 2, 2: 1, 3: 3}), ["forbidden"])["forbidden"]


class TestRelativeOrderKey:
    def test_identity_ranks(self):
        config = single_chip_config(SEVEN)
        assert checks.relative_order_key(config, 1, 3) == "4;2,6;1,3,5,7"

    def test_rank_replacement(self):
        placement = {1: 8, 2: 3, 3: 12, 4: 1, 5: 5, 6: 9, 7: 15}
        filler = dict(zip(range(8, 16), (2, 4, 6, 7, 10, 11, 13, 14)))
        config = single_chip_config({**placement, **filler})
        assert checks.relative_order_key(config, 1, 3) == "4;2,6;1,3,5,7"

    def test_label_disjoint_subtrees_share_keys(self):
        config = single_chip_config(BRANCH_NOT_A_TREE)
        key_left = checks.relative_order_key(config, 4, 2)
        key_right = checks.relative_order_key(config, 6, 2)
        assert key_left == key_right == "2;1,3"

    def test_requires_full_occupancy(self):
        config = labeled.LabeledConfig(n_chips=3, cells={1: [1, 2], 2: [3]})
        with pytest.raises(ValueError):
            checks.relative_order_key(config, 1, 2)

    @pytest.mark.parametrize(
        "cells,depth,message",
        [
            ({v: [label] for v, label in SEVEN.items()}, 0, "depth must be >= 1"),
            ({v: [label] for v, label in SEVEN.items()}, -1, "depth must be >= 1"),
            # depth 2 fits in 7 chips, but vertex 2 holds two chips, or vertex 3 none
            ({1: [1], 2: [2, 3], 3: [4], 4: [5], 5: [6], 6: [7]}, 2, "occupied at vertex 2"),
            ({1: [1], 2: [2], 4: [3], 5: [4], 6: [5, 6, 7]}, 2, "occupied at vertex 3"),
        ],
    )
    def test_refusals(self, cells, depth, message):
        config = labeled.LabeledConfig(n_chips=7, cells=cells)
        with pytest.raises(ValueError, match=message):
            checks.relative_order_key(config, 1, depth)


class TestOnSampledGames:
    @pytest.mark.parametrize("n_chips", [7, 15, 31])
    def test_reachable_configs_satisfy_every_property(self, n_chips):
        ell = n_chips.bit_length()
        for policy in labeled.POLICIES:
            for seed in range(4):
                config = labeled.run_policy(n_chips, policy, seed=seed)
                for name in checks.CHECKERS:
                    if ell >= checks.min_layers_for(name):
                        report = checks.check(config, [name])[name]
                        assert report.passed, (n_chips, policy, seed, name, report.violations)


def _pinned_corpus():
    """Every ell-3 labeling, 300 seeded ell-4 labelings, 100 ell-5 random-play
    games, and four configurations outside the checkers' domain."""
    configs = [
        single_chip_config(dict(zip(range(1, 8), labels)))
        for labels in itertools.permutations(range(1, 8))
    ]
    rng = random.Random(5444)
    for _ in range(300):
        labels = rng.sample(range(1, 16), 15)
        configs.append(single_chip_config(dict(zip(range(1, 16), labels))))
    configs += [labeled.run_policy(31, "random", seed=seed) for seed in range(100)]
    configs += [
        labeled.initial_config(7),  # unstable
        labeled.run_policy(5),  # 5 is not 2^ell - 1
        labeled.LabeledConfig(n_chips=3, cells={1: [1, 2], 2: [3]}),  # two chips on one vertex
        single_chip_config({1: 1}),  # one layer: below every minimum but 1
    ]
    return configs


def _reports(configs):
    """Each checker's report (or refusal) on each configuration, as JSON lists."""
    results = []
    for config in configs:
        for name in checks.CHECKERS:
            try:
                report = checks.check(config, [name])[name]
            except ValueError as exc:
                results.append([name, str(exc)])
            else:
                found = [[v.vertex, v.detail] for v in report.violations]
                results.append([name, report.passed, found])
    return results


def _digest(results):
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()


def test_every_report_is_pinned():
    """Each checker's report (or refusal) on every pinned configuration, hashed."""
    results = _reports(_pinned_corpus())
    assert len(results) == 5444 * 6
    assert _digest(results) == "f7d33ec9303a00bf86af128c8286e98110aef3d33b78603705cc7571cdb415da"


def _deep_corpus():
    """200 seeded ell-5 labelings and 100 ell-6 ones, where every checker fails
    often, and 50 random-play games each at ell = 5 and 6 with two chips
    swapped, where a checker fails at a few vertices or not at all."""
    rng = random.Random(2856)
    configs = []
    for n, count in ((31, 200), (63, 100)):
        for _ in range(count):
            labels = rng.sample(range(1, n + 1), n)
            configs.append(single_chip_config(dict(zip(range(1, n + 1), labels))))
    for n in (31, 63):
        for seed in range(50):
            game = labeled.run_policy(n, "random", seed=seed)
            placement = {v: chips[0] for v, chips in game.cells.items()}
            a, b = rng.sample(range(1, n + 1), 2)
            placement[a], placement[b] = placement[b], placement[a]
            configs.append(single_chip_config(placement))
    return configs


def test_every_deep_report_is_pinned():
    """The same digest at ell = 5 and 6, where the pinned corpus above fails nothing."""
    results = _reports(_deep_corpus())
    assert len(results) == 400 * 6
    for name in checks.CHECKERS:
        outcomes = {r[1] for r in results if r[0] == name}
        assert outcomes == {True, False}, name
    assert _digest(results) == "20bbb15f5387be6faa86457b95b76360a6de81aac14840d1d98c8bbcf9204702"


@pytest.mark.parametrize("name", ["extremes", "zigzag", "penultimate"])
def test_the_pairs_an_order_table_tests_imply_all_its_pairs(name):
    """A labeling meeting the tested pairs passes unread: each pair must follow from them."""
    for ell in range(checks.min_layers_for(name), 8):
        table = getattr(checks.tables(ell), name)
        above = {}
        for a, b in table.tested:
            above.setdefault(a, []).append(b)
        for a in {a for a, _ in table.pairs}:
            reached, todo = set(), [a]
            while todo:
                for b in above.get(todo.pop(), ()):
                    if b not in reached:
                        reached.add(b)
                        todo.append(b)
            assert {b for x, b in table.pairs if x == a} <= reached, (ell, a)


def test_every_table_is_pinned():
    """The rows and tested pairs of each order table, and the anchors and forbidden
    subtrees, for ell = 1..8, hashed.  The digest was taken from the tables as they
    were built on a separate tree module, before the tables did their own index
    arithmetic."""
    results = []
    for ell in range(1, 9):
        tables = checks.tables(ell)
        for name in ("anchors", "extremes", "zigzag", "penultimate", "forbidden"):
            if ell < checks.min_layers_for(name):
                continue
            table = getattr(tables, name)
            if isinstance(table, checks.OrderTable):
                results.append([ell, name, table.rows, table.tested])
            else:
                results.append([ell, name, table])
    assert _digest(results) == "6bcc226ca95736096d556477613fb6914f39d46b1afb2e490c12c26d4a9e8cfd"

    # the root's two zigzags, left first (1, 10, 101, ... in binary) then right first;
    # the chip at a vertex is below the next one's exactly when that is a right child
    root = [(r.at, *r.others, r.smallest) for r in checks.tables(5).zigzag.rows if r.root == 1]
    assert root == [
        (1, 2, False), (2, 5, True), (5, 10, False), (10, 21, True),
        (1, 3, True), (3, 6, False), (6, 13, True), (13, 26, False),
    ]
    # each subtree's extremes sit bottom-straight-left and bottom-straight-right
    at = {(r.root, r.smallest): r.at for r in checks.tables(4).extremes.rows}
    assert (at[1, True], at[1, False], at[3, True], at[2, False]) == (8, 15, 12, 11)
