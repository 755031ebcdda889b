import hashlib
import json
import os
import random

import pytest

from chipfire import labeled, unlabeled
from conftest import closed_forms_by_vertex


# labeled games of 65,535 chips take seconds each, so they run with the long tests
DEEP = pytest.param(
    65535,
    marks=[
        pytest.mark.long,
        pytest.mark.skipif(
            os.environ.get("CHIPFIRE_RUN_LONG") != "1", reason="set CHIPFIRE_RUN_LONG=1"
        ),
    ],
)


class TestConfig:
    def test_initial_config(self):
        assert labeled.initial_config(3).cells == {1: [1, 2, 3]}
        assert labeled.initial_config(15).cells == {1: list(range(1, 16))}

    def test_initial_needs_chips(self):
        with pytest.raises(ValueError):
            labeled.initial_config(0)

    def test_validate_catches_bad_label_sets(self):
        with pytest.raises(ValueError):
            labeled.LabeledConfig(n_chips=3, cells={1: [1, 2, 4]}).validate()
        with pytest.raises(ValueError):
            labeled.LabeledConfig(n_chips=3, cells={1: [2, 1, 3]}).validate()
        # equal to ints, but not ints: bool subclasses int
        for cells in ({1: [1, 2, 3.0]}, {1: [True, 2, 3]}, {1.0: [1, 2, 3]}, {True: [1, 2, 3]}):
            with pytest.raises(ValueError):
                labeled.LabeledConfig(n_chips=3, cells=cells).validate()
        # a vertex without chips is absent, never an empty list
        with pytest.raises(ValueError, match="vertex 9 holds no chips"):
            labeled.LabeledConfig(n_chips=3, cells={1: [1, 2, 3], 9: []}).validate()

    def test_stability_threshold_is_two(self):
        assert labeled.LabeledConfig(n_chips=4, cells={1: [1, 2], 2: [3, 4]}).is_stable()
        assert not labeled.initial_config(3).is_stable()

    def test_canonical_json_is_sorted_and_compact(self):
        config = labeled.LabeledConfig(n_chips=3, cells={3: [3], 1: [2], 2: [1]})
        assert (
            config.canonical_json()
            == '{"n_chips":3,"cells":[{"v":1,"chips":[2]},{"v":2,"chips":[1]},{"v":3,"chips":[3]}]}'
        )

    def test_json_round_trip(self):
        config = labeled.run_policy(15, "random", seed=3)
        again = labeled.LabeledConfig.from_json(config.canonical_json())
        assert again == config


class TestFire:
    def test_confluence_breaking_patterns(self):
        start = labeled.initial_config(5)
        first = labeled.fire(start, 1, (2, 3, 4))
        assert first.cells == {1: [1, 3, 5], 2: [2], 3: [4]}
        left_panel = labeled.fire(first, 1, (1, 3, 5))
        assert left_panel.cells == {1: [3], 2: [1, 2], 3: [4, 5]}

        right_panel = labeled.fire(labeled.fire(start, 1, (1, 2, 3)), 1, (2, 4, 5))
        assert right_panel.cells == {1: [4], 2: [1, 2], 3: [3, 5]}

        assert left_panel != right_panel
        assert left_panel.shadow() == right_panel.shadow()

    def test_middle_chip_returns_to_root(self):
        after = labeled.fire(labeled.initial_config(3), 1, (1, 2, 3))
        assert after.cells == {1: [2], 2: [1], 3: [3]}

    def test_non_root_routes_middle_to_parent(self):
        config = labeled.LabeledConfig(n_chips=5, cells={1: [5], 2: [1, 2, 3], 3: [4]})
        after = labeled.fire(config, 2, (1, 2, 3))
        assert after.cells == {1: [2, 5], 3: [4], 4: [1], 5: [3]}

    def test_fire_is_pure(self):
        start = labeled.initial_config(5)
        labeled.fire(start, 1, (1, 2, 3))
        assert start.cells == {1: [1, 2, 3, 4, 5]}

    def test_fire_preserves_labels(self):
        config = labeled.initial_config(9)
        for triple in [(1, 2, 3), (4, 5, 9), (6, 7, 8)]:
            config = labeled.fire(config, 1, triple)
            config.validate()

    def test_fire_needs_three_chips_present(self):
        config = labeled.LabeledConfig(n_chips=3, cells={1: [1, 2], 2: [3]})
        with pytest.raises(ValueError):
            labeled.fire(config, 1, (1, 2, 3))

    def test_fire_rejects_absent_labels(self):
        with pytest.raises(ValueError):
            labeled.fire(labeled.initial_config(4), 1, (1, 2, 7))
        with pytest.raises(ValueError):
            labeled.fire(labeled.initial_config(4), 1, (1, 2, 2))


class TestRunPolicy:
    def test_three_chips_forced_game(self):
        for policy in labeled.POLICIES:
            config = labeled.run_policy(3, policy, seed=0)
            assert config.cells == {1: [2], 2: [1], 3: [3]}

    @pytest.mark.parametrize("n", [5, 7, 15, 31, 1023, 4095, DEEP])
    @pytest.mark.parametrize("policy", labeled.POLICIES)
    def test_shadow_and_tallies_match_unlabeled_game(self, n, policy):
        config, fired = labeled.run_policy_traced(n, policy, seed=11)
        config.validate()
        assert config.is_stable()
        assert (config.shadow(), fired) == closed_forms_by_vertex(n)
        assert sum(fired.values()) == unlabeled.total_fires(n)

    def test_random_policy_is_seed_deterministic(self):
        a = labeled.run_policy(15, "random", seed=9)
        b = labeled.run_policy(15, "random", seed=9)
        assert a == b

    def test_random_seeds_share_a_shadow(self):
        one = labeled.run_policy(15, "random", seed=1)
        two = labeled.run_policy(15, "random", seed=2)
        assert one.is_stable() and two.is_stable()
        assert one.shadow() == two.shadow() == closed_forms_by_vertex(15)[0]

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            labeled.run_policy(5, "largest-first")

    @pytest.mark.parametrize("policy", labeled.POLICIES)
    def test_step_cap_stops_the_game_one_fire_short(self, monkeypatch, policy):
        # F(63) = 201 fires; a cap of 200 is met by the last one
        assert unlabeled.total_fires(63) == 201
        monkeypatch.setattr(unlabeled, "total_fires", lambda n_chips: 46)
        with pytest.raises(RuntimeError, match=r"step cap \(200\)"):
            labeled.run_policy(63, policy, seed=0)

    def test_random_policy_draws_what_sample_draws(self):
        # both of sample's algorithms (a pool for n <= 21, redraws above), and the
        # generator left in the same state
        for seed in range(20):
            ours, theirs = random.Random(seed), random.Random(seed)
            for n in [*range(3, 64), 255, 65_535]:
                assert labeled._three_indices(ours, n) == sorted(theirs.sample(range(n), 3))
            assert ours.random() == theirs.random()

    def test_every_game_is_pinned(self):
        """The stable configuration and fire tallies of every policy, hashed,
        for N = 1..200 and 1,023 (random at seeds 0 and 7)."""
        games = [("min-triple", None), ("max-triple", None), ("random", 0), ("random", 7)]
        digest = hashlib.sha256()
        for n in [*range(1, 201), 1023]:
            for policy, seed in games:
                config, fired = labeled.run_policy_traced(n, policy, seed)
                digest.update(config.canonical_json().encode())
                digest.update(json.dumps(sorted(fired.items())).encode() + b"\n")
        pinned = "f2ccab4e92d36fcb4cd85c1a5eaaeff345533d546e7b6772a20a52af5b1df511"
        assert digest.hexdigest() == pinned
