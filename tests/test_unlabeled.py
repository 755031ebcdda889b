import heapq

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chipfire import labeled, unlabeled
from chipfire.tree import layer

chip_counts = st.integers(min_value=1, max_value=10**9)


def one_fire_per_step(n_chips):
    """Reference: the game played one fire at a time, lowest index first, to the end.
    Returns the nonzero cells and fire tallies as simulate() reports them."""
    cells = {1: n_chips}
    fired = {}
    fireable = [1] if n_chips >= 3 else []
    while fireable:
        v = heapq.heappop(fireable)
        cells[v] -= 3
        fired[v] = fired.get(v, 0) + 1
        if cells[v] >= 3:
            heapq.heappush(fireable, v)
        for u in (v // 2 or 1, 2 * v, 2 * v + 1):
            cells[u] = cells.get(u, 0) + 1
            if cells[u] == 3:
                heapq.heappush(fireable, u)
    return {v: k for v, k in cells.items() if k}, fired


class TestChipCounts:
    @pytest.mark.parametrize(
        "n,expected",
        [(15, [1, 1, 1, 1]), (6, [2, 2]), (8, [2, 1, 1]), (1, [1]), (2, [2]), (3, [1, 1])],
    )
    def test_examples(self, n, expected):
        assert unlabeled.stable_chip_counts(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            unlabeled.stable_chip_counts(0)

    @given(chip_counts)
    def test_counts_are_one_or_two_and_conserve_chips(self, n):
        c = unlabeled.stable_chip_counts(n)
        assert all(x in (1, 2) for x in c)
        assert sum(2**i * x for i, x in enumerate(c)) == n


class TestFireCounts:
    @pytest.mark.parametrize(
        "n,expected",
        [(7, [4, 1, 0]), (15, [11, 4, 1, 0]), (3, [1, 0]), (1, [0]), (2, [0])],
    )
    def test_examples(self, n, expected):
        assert unlabeled.fires_per_layer(n) == expected

    @given(chip_counts)
    def test_difference_identity(self, n):
        # consecutive layers differ by half the chips stored below
        c = unlabeled.stable_chip_counts(n)
        f = unlabeled.fires_per_layer(n)
        for i in range(len(f) - 1):
            below = sum(2 ** (j - i - 1) * c[j] for j in range(i + 1, len(c)))
            assert f[i] - f[i + 1] == below

    @given(chip_counts)
    def test_nonincreasing_with_silent_bottom(self, n):
        f = unlabeled.fires_per_layer(n)
        assert f[-1] == 0
        assert all(a >= b for a, b in zip(f, f[1:]))

    def test_difference_identity_exhaustive(self):
        for n in range(1, 10**4 + 1):
            c = unlabeled.stable_chip_counts(n)
            f = unlabeled.fires_per_layer(n)
            for i in range(len(f) - 1):
                below = sum(2 ** (j - i - 1) * c[j] for j in range(i + 1, len(c)))
                assert f[i] - f[i + 1] == below


class TestRootFires:
    @pytest.mark.parametrize("n,expected", [(15, 11), (4, 1), (1, 0)])
    def test_closed_examples(self, n, expected):
        assert unlabeled.root_fires_closed(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 0), (6, 2), (31, 26)])
    def test_recursive_examples(self, n, expected):
        assert unlabeled.root_fires_recursive(n) == expected

    @given(chip_counts)
    def test_recursive_agrees_with_closed(self, n):
        assert unlabeled.root_fires_recursive(n) == unlabeled.root_fires_closed(n)


class TestTotalFires:
    @pytest.mark.parametrize("n,expected", [(15, 23), (8, 6), (2, 0), (7, 6)])
    def test_examples(self, n, expected):
        assert unlabeled.total_fires(n) == expected

    def test_matches_weighted_layer_sum(self):
        # independent route: 2^i vertices on layer i+1, each firing f_i times
        for n in range(1, 2049):
            f = unlabeled.fires_per_layer(n)
            assert unlabeled.total_fires(n) == sum(2**i * x for i, x in enumerate(f))

    def test_full_tree_closed_form(self):
        for n in range(2, 21):
            assert unlabeled.total_fires(2**n - 1) == (n - 3) * 2**n + n + 3

    def test_even_odd_pairs_agree(self):
        for m in range(1, 10**4 + 1):
            assert unlabeled.root_fires_closed(2 * m - 1) == unlabeled.root_fires_closed(2 * m)
            assert unlabeled.total_fires(2 * m - 1) == unlabeled.total_fires(2 * m)


class TestDifferences:
    @pytest.mark.parametrize("m,expected", [(3, 2), (7, 3), (5, 2), (1, 1), (2, 1)])
    def test_root_fire_diff(self, m, expected):
        assert unlabeled.diff_root_fires(m) == expected

    @pytest.mark.parametrize("m,expected", [(3, 4), (7, 11), (15, 26), (1, 1)])
    def test_total_fire_diff(self, m, expected):
        assert unlabeled.diff_total_fires(m) == expected

    @given(st.integers(min_value=1, max_value=10**6))
    def test_root_diff_counts_trailing_ones(self, m):
        ones = len(bin(m)) - len(bin(m).rstrip("1"))
        expected = ones if m == 2**ones - 1 else ones + 1
        assert unlabeled.diff_root_fires(m) == expected

    @given(st.integers(min_value=1, max_value=10**5))
    def test_total_diff_is_a000295_of_root_diff(self, m):
        d = unlabeled.diff_root_fires(m) + 1
        assert unlabeled.diff_total_fires(m) == 2**d - d - 1


class TestSequences:
    def test_root_fire_series(self):
        assert unlabeled.sequence("f0", 16) == [
            0, 1, 2, 4, 5, 7, 8, 11, 12, 14, 15, 18, 19, 21, 22, 26,
        ]

    def test_total_fire_series(self):
        assert unlabeled.sequence("F", 23) == [
            0, 1, 2, 6, 7, 11, 12, 23, 24, 28, 29, 40,
            41, 45, 46, 72, 73, 77, 78, 89, 90, 94, 95,
        ]

    def test_difference_series(self):
        assert unlabeled.sequence("diff-f0", 8) == [1, 1, 2, 1, 2, 1, 3, 1]
        assert unlabeled.sequence("diff-F", 15) == [
            1, 1, 4, 1, 4, 1, 11, 1, 4, 1, 11, 1, 4, 1, 26,
        ]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            unlabeled.sequence("nope", 5)
        with pytest.raises(ValueError):
            unlabeled.sequence("f0", 0)


class TestSimulate:
    def test_three_chips_single_fire(self):
        state = unlabeled.simulate(3)
        assert state.cells == {1: 1, 2: 1, 3: 1}
        assert state.fired == {1: 1}

    def test_seven_chips(self):
        state = unlabeled.simulate(7)
        assert state.cells == {v: 1 for v in range(1, 8)}
        assert state.fired == {1: 4, 2: 1, 3: 1}

    def test_confluence_across_strategies(self):
        reference = unlabeled.simulate(6, "lowest-index-first")
        for strategy, seed in [("random", 42), ("random", 7), ("highest-layer-first", None)]:
            state = unlabeled.simulate(6, strategy, seed=seed)
            assert state.cells == reference.cells == {1: 2, 2: 2, 3: 2}
            assert state.fired == reference.fired

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 100, 255, 256])
    def test_matches_closed_forms(self, n):
        state = unlabeled.simulate(n)
        c = unlabeled.stable_chip_counts(n)
        f = unlabeled.fires_per_layer(n)
        assert state.cells == {v: c[layer(v) - 1] for v in range(1, 2 ** len(c))}
        assert state.fired == {
            v: f[layer(v) - 1] for v in range(1, 2 ** len(f)) if f[layer(v) - 1]
        }

    def test_no_chip_ever_leaves_the_occupied_layers(self):
        state = unlabeled.simulate(64)
        deepest = len(unlabeled.stable_chip_counts(64))
        assert max(layer(v) for v in state.cells) == deepest

    def test_toppling_matches_one_fire_per_step(self):
        # one pick fires a vertex up to stability; by the abelian property the
        # outcome is that of firing once per step, whatever the order
        for n in range(1, 601):
            cells, fired = one_fire_per_step(n)
            for strategy in unlabeled.STRATEGIES:
                for seed in range(3):
                    state = unlabeled.simulate(n, strategy, seed=seed)
                    assert (state.cells, state.fired) == (cells, fired), (n, strategy, seed)

    @pytest.mark.parametrize("strategy", unlabeled.STRATEGIES)
    def test_deep_game_matches_closed_forms(self, strategy):
        n = 65_535
        c = unlabeled.stable_chip_counts(n)
        f = unlabeled.fires_per_layer(n)
        state = unlabeled.simulate(n, strategy, seed=1)
        assert state.cells == {v: c[layer(v) - 1] for v in range(1, 2 ** len(c))}
        assert state.fired == {
            v: f[layer(v) - 1] for v in range(1, 2 ** len(f)) if f[layer(v) - 1]
        }

    @pytest.mark.parametrize("strategy", unlabeled.STRATEGIES)
    def test_step_cap_counts_fires_not_picks(self, monkeypatch, strategy):
        # F(4095) = 36,879 fires come in at most 19,714 picks (highest-layer-first;
        # 14,105 lowest-index-first, about 12,000 random), so a cap 3 fires short
        # of F(N) is only met when every fire of a pick counts
        n = 4095
        total = unlabeled.total_fires(n)
        cap = 4 * ((total - 17) // 4) + 16
        assert total - 4 < cap < total
        monkeypatch.setattr(unlabeled, "total_fires", lambda n_chips: (cap - 16) // 4)
        with pytest.raises(RuntimeError, match=rf"step cap \({cap}\)"):
            unlabeled.simulate(n, strategy, seed=0)

    def test_step_cap_raises(self, monkeypatch):
        # with F(N) read as 0 the cap is 16 fires, far fewer than 100 chips need
        monkeypatch.setattr(unlabeled, "total_fires", lambda n_chips: 0)
        with pytest.raises(RuntimeError, match=r"step cap \(16\)"):
            unlabeled.simulate(100)

    def test_games_refuse_more_chips_than_the_bound(self, monkeypatch):
        # a lowered bound, so no game near the real one is ever started
        monkeypatch.setattr(unlabeled, "MAX_GAME_CHIPS", 100)
        assert unlabeled.simulate(100).total() == 100
        assert labeled.initial_config(100).n_chips == 100
        with pytest.raises(ValueError, match="at most 100 chips, got 101"):
            unlabeled.simulate(101)
        with pytest.raises(ValueError, match="at most 100 chips, got 101"):
            labeled.initial_config(101)

    def test_the_bound_admits_the_benchmark_game_and_keeps_lists_small(self):
        n = unlabeled.MAX_GAME_CHIPS
        assert n >= 20_000  # the benchmark's longest unlabeled game
        assert 1 << ((n + 1).bit_length() - 1) <= 2**23

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            unlabeled.simulate(5, "sideways")


class TestProfile:
    def test_fields(self):
        prof = unlabeled.profile(15)
        assert prof.n == 4
        assert prof.digits == [0, 0, 0, 0, 1]
        assert prof.chip_counts == [1, 1, 1, 1]
        assert prof.fire_counts == [11, 4, 1, 0]
        assert prof.root_fires == 11
        assert prof.total_fires == 23

    def test_dict_round_trip(self):
        d = unlabeled.profile(8).to_dict()
        assert list(d) == [
            "n_chips", "n", "digits", "chip_counts", "fire_counts", "root_fires", "total_fires",
        ]
        assert d["n_chips"] == 8 and d["total_fires"] == 6
