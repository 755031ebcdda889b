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
            checks.check_anchors(labeled.initial_config(7))

    def test_rejects_wrong_chip_count(self):
        config = labeled.run_policy(5)
        with pytest.raises(ValueError):
            checks.check_anchors(config)

    def test_rejects_partial_layouts(self):
        config = labeled.LabeledConfig(n_chips=3, cells={1: [1, 2], 2: [3]})
        with pytest.raises(ValueError):
            checks.check_subtree_extremes(config)

    def test_single_layer_has_no_anchor_check(self):
        config = single_chip_config({1: 1})
        with pytest.raises(ValueError):
            checks.check_anchors(config)
        assert checks.check_subtree_extremes(config).passed
        assert checks.check_zigzag_alternation(config).passed
        assert checks.check_ballot(config).passed

    @pytest.mark.parametrize("name", checks.CHECKERS)
    def test_zero_chips_are_refused(self, name):
        # 0 = 2^0 - 1 chips on no vertex: zero layers, below every minimum
        with pytest.raises(ValueError, match=f"{name} check needs at least"):
            checks.CHECKERS[name](labeled.LabeledConfig(n_chips=0, cells={}))

    @pytest.mark.parametrize("name", ["anchors", "penultimate", "forbidden"])
    def test_checkers_refuse_exactly_below_their_minimum(self, name):
        needed = checks.min_layers_for(name)
        with pytest.raises(ValueError, match=f"{name} check needs at least {needed} layers"):
            checks.CHECKERS[name](labeled.run_policy(2 ** (needed - 1) - 1))
        assert checks.CHECKERS[name](labeled.run_policy(2**needed - 1)).passed


class TestAnchors:
    def test_pass(self):
        report = checks.check_anchors(single_chip_config(SEVEN))
        assert report.passed and report.violations == []

    def test_two_layers_checks_extreme_chips_only(self):
        assert checks.check_anchors(single_chip_config({1: 2, 2: 1, 3: 3})).passed

    def test_swapped_second_chip_fails_at_its_vertex(self):
        swapped = {**SEVEN, 2: 3, 5: 2}
        report = checks.check_anchors(single_chip_config(swapped))
        assert not report.passed
        assert report.violations[0].vertex == 2
        assert "chip 2" in report.violations[0].detail


class TestSubtreeExtremes:
    def test_pass(self):
        assert checks.check_subtree_extremes(single_chip_config(SEVEN)).passed

    def test_branch_need_not_mirror_the_tree(self):
        config = single_chip_config(BRANCH_NOT_A_TREE)
        assert checks.check_subtree_extremes(config).passed
        # the interesting feature: second-largest of the left branch is not
        # at the parent of the branch's largest chip
        assert config.cells[11] == [11]
        assert config.cells[5] != [7]

    def test_interior_minimum_fails(self):
        broken = {**BRANCH_NOT_A_TREE, 4: 1, 8: 2}
        report = checks.check_subtree_extremes(single_chip_config(broken))
        assert not report.passed
        assert any(v.vertex == 4 for v in report.violations)


class TestZigzagAlternation:
    def test_pass_three_layers(self):
        assert checks.check_zigzag_alternation(single_chip_config(SEVEN)).passed

    def test_pass_two_layers(self):
        assert checks.check_zigzag_alternation(single_chip_config({1: 2, 2: 1, 3: 3})).passed

    def test_violation_reports_the_offending_pair(self):
        broken = {**SEVEN, 1: 2, 2: 4}
        report = checks.check_zigzag_alternation(single_chip_config(broken))
        assert not report.passed
        assert any("chip 2 at 1 > chip 4 at 2" in v.detail for v in report.violations)


class TestPenultimate:
    def test_passes_on_valid_configs(self):
        assert checks.check_penultimate(single_chip_config(SEVEN)).passed

    def test_two_layers_is_trivial(self):
        config = single_chip_config({1: 2, 2: 1, 3: 3})
        assert checks.check_penultimate(config).passed

    def test_violation(self):
        broken = single_chip_config({1: 2, 2: 4, 3: 6, 4: 1, 5: 3, 6: 5, 7: 7})
        report = checks.check_penultimate(broken)
        assert not report.passed
        assert any(v.vertex == 2 for v in report.violations)


class TestBallot:
    def test_pass(self):
        assert checks.check_ballot(single_chip_config(SEVEN)).passed

    def test_every_stable_seven_chip_config_passes(self, stable3):
        for config in stable3.configs:
            assert checks.check_ballot(config).passed

    def test_mirrored_labeling_fails(self):
        mirrored = {1: 4, 2: 6, 3: 2, 4: 7, 5: 5, 6: 3, 7: 1}
        report = checks.check_ballot(single_chip_config(mirrored))
        assert not report.passed
        assert report.violations[0].vertex == 1


FORBIDDEN_SEVEN = {1: 4, 2: 3, 3: 5, 4: 1, 5: 6, 6: 2, 7: 7}


class TestForbiddenOrder:
    def test_all_enumerated_configs_pass(self, stable3):
        for config in stable3.configs:
            assert checks.check_forbidden_order(config).passed

    def test_planted_pattern_fails(self):
        report = checks.check_forbidden_order(single_chip_config(FORBIDDEN_SEVEN))
        assert not report.passed
        assert report.violations[0].vertex == 1

    def test_planted_pattern_in_a_subtree(self):
        # forbidden order on the subtree at vertex 2; the right branch is
        # arranged innocently (10 at the parent of 9)
        placement = {
            1: 8, 2: 4, 4: 3, 5: 5, 8: 1, 9: 6, 10: 2, 11: 7,
            3: 11, 6: 10, 7: 13, 12: 9, 13: 12, 14: 14, 15: 15,
        }
        report = checks.check_forbidden_order(single_chip_config(placement))
        assert not report.passed
        assert [v.vertex for v in report.violations] == [2]

    def test_needs_three_layers(self):
        with pytest.raises(ValueError):
            checks.check_forbidden_order(single_chip_config({1: 2, 2: 1, 3: 3}))


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


class TestOnSampledGames:
    @pytest.mark.parametrize("n_chips", [7, 15, 31])
    def test_reachable_configs_satisfy_every_property(self, n_chips):
        ell = n_chips.bit_length()
        for policy in labeled.POLICIES:
            for seed in range(4):
                config = labeled.run_policy(n_chips, policy, seed=seed)
                for name, checker in checks.CHECKERS.items():
                    if ell >= checks.min_layers_for(name):
                        report = checker(config)
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


def test_every_report_is_pinned():
    """Each checker's report (or refusal) on every pinned configuration, hashed."""
    results = []
    for config in _pinned_corpus():
        for name, checker in checks.CHECKERS.items():
            try:
                report = checker(config)
            except ValueError as exc:
                results.append([name, str(exc)])
            else:
                found = [[v.vertex, v.detail] for v in report.violations]
                results.append([name, report.passed, found])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert len(results) == 5444 * 6
    assert digest == "f7d33ec9303a00bf86af128c8286e98110aef3d33b78603705cc7571cdb415da"
