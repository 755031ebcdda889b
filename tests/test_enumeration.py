import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import tracemalloc
import types
from concurrent.futures import process
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chipfire import checks, cli, enumeration, labeled, unlabeled
from conftest import mirror_of, shadow_of, single_chip_config


def seven_chip_placements_by_constraints():
    """Independent oracle for the 7-chip stable set.

    Directly filters all assignments of chips 3..5 to vertices 1, 5, 6 on
    top of the forced positions (1@4, 2@2, 6@3, 7@7) under the proven
    inequalities: chip at 5 above chip at 2's, chip at 6 below chip at
    3's, root chip between its children's.
    """
    out = []
    for l1, l5, l6 in itertools.permutations((3, 4, 5)):
        placement = {1: l1, 2: 2, 3: 6, 4: 1, 5: l5, 6: l6, 7: 7}
        if placement[2] < placement[1] < placement[3]:
            if placement[5] > placement[2] and placement[6] < placement[3]:
                out.append(placement)
    return out


def state_of(config):
    """The search's byte encoding of a configuration: byte i is chip i + 1's vertex."""
    state = bytearray(config.n_chips)
    for v, labels in config.cells.items():
        for label in labels:
            state[label - 1] = v
    return bytes(state)


def tallied_bfs(n_chips):
    """Independent oracle: every reachable configuration with the fire tally of its paths.

    Plays every (vertex, triple) choice with labeled.fire and carries the
    per-vertex tally along each path; paths that merge must agree on it.
    """
    start = labeled.initial_config(n_chips)
    seen = {start.canonical_json(): (start, {})}
    frontier = [start.canonical_json()]
    while frontier:
        nxt = []
        for key in frontier:
            config, tally = seen[key]
            for v, labels in config.cells.items():
                if len(labels) < 3:
                    continue
                fired = {**tally, v: tally.get(v, 0) + 1}
                for triple in itertools.combinations(labels, 3):
                    child = labeled.fire(config, v, triple)
                    child_key = child.canonical_json()
                    if child_key in seen:
                        assert seen[child_key][1] == fired
                    else:
                        seen[child_key] = (child, fired)
                        nxt.append(child_key)
        frontier = nxt
    return list(seen.values())


def plain_fires(state, v):
    """Reference: every successor of a bytes state that fires vertex v."""
    out = set()
    labels = [i for i, u in enumerate(state) if u == v]
    for a, b, c in itertools.combinations(labels, 3):
        nxt = bytearray(state)
        nxt[a], nxt[b], nxt[c] = 2 * v, v // 2 or 1, 2 * v + 1
        out.add(bytes(nxt))
    return out


def plain_successors(state):
    """Reference: every full-mode successor of a bytes state, without the mirror quotient."""
    return set().union(*(plain_fires(state, v) for v in set(state)))


def plain_scheduled_successors(state):
    """Reference: every scheduled-mode successor: the lowest-index fireable vertex fires."""
    return plain_fires(state, min(v for v in set(state) if state.count(v) >= 3))


def plain_frontier(n_chips, depth):
    """Reference: the unreduced full-mode frontier at `depth`, by a plain BFS on bytes."""
    frontier = {bytes([1]) * n_chips}
    for _ in range(depth):
        frontier = set().union(*map(plain_successors, frontier))
    return frontier


def orbits(states):
    return {m for s in states for m in (s, mirror_of(s))}


def ints(states):
    return [int.from_bytes(state, "big") for state in states]


def encoded(groups, n_chips):
    """The states of the search's {shadow: state ints} groups, as bytes."""
    return {x.to_bytes(n_chips, "big") for group in groups.values() for x in group}


def expand(state, mode, depth):
    """One state's successors, as the search's expansion of its shadow group returns them."""
    groups = enumeration._expand_batch((shadow_of(state), ints([state]), mode, depth))
    return encoded(groups, len(state))


def checkpoint_body(data):
    return {bytes.fromhex(line) for line in data.decode().split("\n")[1:] if line}


def levels_of(records):
    """An on_level hook that appends each level's (depth, target, size, explored) to `records`."""

    def on_level(depth, target, size, explored, seconds):
        assert seconds >= 0
        records.append((depth, target, size, explored))

    return on_level


class TestGroundTruth:
    @pytest.mark.parametrize("ell,expected", [(1, 1), (2, 1), (3, 6)])
    def test_counts(self, ell, expected):
        assert enumeration.enumerate_stable(ell).count == expected

    def test_three_layer_set_matches_constraint_oracle(self, stable3):
        oracle = seven_chip_placements_by_constraints()
        assert len(oracle) == 6
        expected = {single_chip_config(p).canonical_json() for p in oracle}
        assert set(stable3.canonical_keys()) == expected

    def test_worked_example_is_reachable(self, stable3):
        example = single_chip_config({1: 4, 2: 2, 3: 6, 4: 1, 5: 3, 6: 5, 7: 7})
        assert example.canonical_json() in stable3.canonical_keys()

    def test_every_member_is_stable_with_all_ones_shadow(self, stable3):
        for config in stable3.configs:
            assert config.is_stable()
            assert config.shadow() == {v: 1 for v in range(1, 8)}

    def test_meta_counters(self, stable3):
        assert stable3.meta["mode"] == "full"
        assert stable3.meta["explored_states"] > stable3.meta["max_frontier"] > 6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            enumeration.enumerate_stable(0)
        with pytest.raises(ValueError):
            enumeration.enumerate_stable(3, mode="depth-first")

    @pytest.mark.parametrize("budget", ["max_seconds", "checkpoint_every"])
    def test_a_nan_budget_is_refused(self, tmp_path, budget):
        # every comparison with NaN is false: the search would never pause or checkpoint
        ckpt = tmp_path / "z3.ckpt"
        with pytest.raises(ValueError, match="NaN"):
            enumeration.enumerate_stable(3, checkpoint_path=str(ckpt), **{budget: float("nan")})
        assert not ckpt.exists()


class TestDeterminismAndModes:
    def test_scheduled_mode_agrees_at_three_layers(self, stable3):
        scheduled = enumeration.enumerate_stable(3, mode="scheduled")
        assert scheduled.canonical_keys() == stable3.canonical_keys()

    def test_worker_count_does_not_change_results(self, stable3):
        # with two workers every level, and the budget check, goes through the process pool
        records = {1: [], 2: []}
        for workers, levels in records.items():
            result = enumeration.enumerate_stable(3, workers=workers, on_level=levels_of(levels))
            assert result.canonical_keys() == stable3.canonical_keys()
            assert result.meta == stable3.meta
        assert records[1] == records[2]
        depth, target, size, explored = records[1][-1]
        assert depth == target == unlabeled.total_fires(7)
        assert explored + size == stable3.meta["explored_states"]


class TestFireVector:
    def test_matches_tallies_of_an_independent_search(self, stable3):
        reached = tallied_bfs(7)
        assert len(reached) == 90
        for config, tally in reached:
            fires = enumeration._fire_vector(shadow_of(state_of(config)))
            assert fires == [0] + [tally.get(v, 0) for v in range(1, 8)]
        stable = sorted(c.canonical_json() for c, _ in reached if c.is_stable())
        assert stable == stable3.canonical_keys()

    def test_rejects_siblings_that_disagree(self):
        # all chips on vertex 7 say f(3) = 7, the empty vertex 6 says f(3) = 0
        assert enumeration._fire_vector(shadow_of(bytes([7] * 7))) is None

    def test_sibling_agreement_implies_the_root_equation_and_signs(self):
        accepted = 0
        for state in itertools.combinations_with_replacement(range(1, 8), 7):
            fires = enumeration._fire_vector(shadow_of(bytes(state)))
            if fires is None:
                continue
            accepted += 1
            assert state.count(1) == 7 - 2 * fires[1] + fires[2] + fires[3]
            assert min(fires) >= 0
        assert accepted >= 8  # the 7-chip game passes through 8 shadows

    def test_budget_check(self):
        fired_root_once = shadow_of(bytes([2, 1, 3, 1, 1, 1, 1]))
        enumeration._check_fire_vectors([fired_root_once], 1, [0, 1] + [0] * 6)
        with pytest.raises(AssertionError, match="depth 1"):
            enumeration._check_fire_vectors([fired_root_once], 1, [0] * 8)
        with pytest.raises(AssertionError, match="depth 3"):
            enumeration._check_fire_vectors([fired_root_once], 3, [9] * 8)

    @pytest.mark.parametrize("mode", enumeration.MODES)
    def test_a_stable_state_is_never_expanded(self, mode):
        # every path stabilizes at F(N) = 6 fires, so the search expands depths 0..5 only
        fired_root_once = bytes([2, 1, 3, 1, 1, 1, 1])
        stable = bytes([4, 2, 5, 1, 6, 3, 7])
        assert expand(fired_root_once, mode, 1)
        with pytest.raises(AssertionError, match=f"stable state {stable.hex()} at depth 5"):
            expand(stable, mode, 5)


# the frontier sizes the search keeps (representatives in full mode) at depths 0, 1, ...
KERNEL_LEVELS = {
    (3, "full"): [1, 9, 20, 6, 8, 4],
    (3, "scheduled"): [1, 15, 36, 10, 8, 6],
    (4, "full"): [1, 49, 1052, 8340, 31168],
    (4, "scheduled"): [1, 91, 2068, 16590, 51968],
}
KERNEL_DIGESTS = {
    (3, "full"): "ccc186b4340ea01133ba4a60eedc347360011ac725df098e088008d491c28f1c",
    (3, "scheduled"): "1176ba6ef41e87507cbbece97b16a0df599c89f0ce0a33b2792c9d7e6b717d70",
    (4, "full"): "41d3305e4f763df1c3f92ab37fd29ea4114e2840de123610366f9964580111d7",
    (4, "scheduled"): "61a48fe7eee9857771fc00186f7ed17435a01de1c2ae07432cb4b66a13699f88",
}


@pytest.mark.parametrize("ell,mode", KERNEL_LEVELS)
def test_every_states_successors_are_pinned(ell, mode):
    """Each state's successor set, as one expansion returns it, hashed level by level."""
    frontier = {bytes([1]) * (2**ell - 1)}
    digest = hashlib.sha256()
    sizes = []
    for depth in range(len(KERNEL_LEVELS[ell, mode])):
        sizes.append(len(frontier))
        level = set()
        for state in sorted(frontier):
            successors = expand(state, mode, depth)
            digest.update(state + b":" + b"".join(sorted(successors)) + b"\n")
            level |= successors
        frontier = level
    assert sizes == KERNEL_LEVELS[ell, mode]
    assert digest.hexdigest() == KERNEL_DIGESTS[ell, mode]


class TestMirrorQuotient:
    def test_paused_frontier_is_the_unreduced_bfs_frontier(self, tmp_path):
        ckpt = tmp_path / "z4.ckpt"
        with pytest.raises(enumeration.EnumerationPaused) as info:
            enumeration.enumerate_stable(4, max_frontier=50_000, checkpoint_path=str(ckpt))
        assert (info.value.depth, info.value.frontier) == (4, 62_180)
        data = ckpt.read_bytes()
        header = json.loads(data.split(b"\n")[0])
        assert header["version"] == 2
        assert header["explored_states"] == 18_750
        assert header["max_frontier"] == 62_180
        reps = checkpoint_body(data)
        assert header["frontier_count"] == len(reps) == data.count(b"\n") - 1
        assert all(s <= mirror_of(s) for s in reps)
        reference = plain_frontier(15, 4)
        assert len(reference) == 62_180
        assert orbits(reps) == reference

    def test_every_checkpoint_expands_to_the_tallied_states_at_its_depth(
        self, tmp_path, monkeypatch
    ):
        copies = []
        write = enumeration.write_checkpoint

        def write_and_copy(path, *args):
            write(path, *args)
            copies.append(Path(path).read_bytes())

        monkeypatch.setattr(enumeration, "write_checkpoint", write_and_copy)
        ckpt = str(tmp_path / "z3.ckpt")
        enumeration.enumerate_stable(3, checkpoint_path=ckpt, checkpoint_every=0)
        by_depth = {}
        for config, tally in tallied_bfs(7):
            by_depth.setdefault(sum(tally.values()), set()).add(state_of(config))
        assert len(copies) == len(by_depth) == unlabeled.total_fires(7) + 1
        for depth, copy in enumerate(copies):
            assert orbits(checkpoint_body(copy)) == by_depth[depth]

    def test_mirror_is_an_involution_that_commutes_with_expansion(self):
        states = {state_of(config) for config, _ in tallied_bfs(7)}
        assert len(states) == 90
        for s in states:
            m = mirror_of(s)
            assert m in states
            assert mirror_of(m) == s
            assert {mirror_of(t) for t in plain_successors(s)} == plain_successors(m)

    def test_stable_set_is_closed_under_the_mirror(self, stable3):
        states = {state_of(config) for config in stable3.configs}
        assert orbits(states) == states


class TestWholeGroups:
    """Levels whose groups hold many states with the same chips on the firing
    vertex, expanded as the search expands them, against a plain BFS."""

    def test_scheduled_level_is_the_plain_scheduled_bfs_level(self, tmp_path):
        ckpt = tmp_path / "s4.ckpt"
        with pytest.raises(enumeration.EnumerationPaused) as info:
            enumeration.enumerate_stable(
                4, mode="scheduled", max_frontier=20_000, checkpoint_path=str(ckpt)
            )
        assert (info.value.depth, info.value.frontier) == (4, 51_968)
        reference = {bytes([1]) * 15}
        for _ in range(4):
            reference = set().union(*map(plain_scheduled_successors, reference))
        assert checkpoint_body(ckpt.read_bytes()) == reference

    def test_five_layers_full(self, tmp_path):
        # 31-byte states; the plain BFS takes about 1.5 s to reach depth 2
        ckpt = tmp_path / "z5.ckpt"
        with pytest.raises(enumeration.EnumerationPaused) as info:
            enumeration.enumerate_stable(5, max_frontier=50_000, checkpoint_path=str(ckpt))
        assert (info.value.depth, info.value.frontier) == (2, 55_188)
        reps = checkpoint_body(ckpt.read_bytes())
        assert all(s <= mirror_of(s) for s in reps)
        assert orbits(reps) == plain_frontier(31, 2)
        # only the root fires at depth 2; states that share their root chips
        # differ in which two of the other four went left, two ways at most
        subgroups = {}
        for state in sorted(orbits(reps)):
            subgroups.setdefault(state.translate(bytes([0, 1]) + bytes(254)), []).append(state)
        group = max(subgroups.values(), key=len)
        assert len(group) == 2
        level = enumeration._expand_batch((shadow_of(group[0]), ints(group), "full", 2))
        plain = set().union(*map(plain_successors, group))
        assert orbits(encoded(level, 31)) == orbits(plain)


class TestShadowGroups:
    """Each level of the search is kept as {shadow: states}."""

    @pytest.fixture
    def checked(self, monkeypatch):
        depths = []
        check = enumeration._check_fire_vectors

        def check_groups(level, depth, budgets):
            for shadow, states in level.items():
                assert states, f"empty group at depth {depth}"
                # the vertices of a state with this shadow, in ascending order
                chips = b"".join(bytes([v]) * count for v, count in enumerate(shadow))
                for state in states:
                    state = state.to_bytes(len(chips), "big")
                    assert bytes(sorted(state)) == chips, (depth, state.hex())
            depths.append(depth)
            check(level, depth, budgets)

        monkeypatch.setattr(enumeration, "_check_fire_vectors", check_groups)
        return depths

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", enumeration.MODES)
    def test_three_layers(self, checked, mode, workers, stable3):
        result = enumeration.enumerate_stable(3, mode=mode, workers=workers)
        assert result.canonical_keys() == stable3.canonical_keys()
        assert checked == list(range(unlabeled.total_fires(7) + 1))

    @pytest.mark.parametrize("mode", enumeration.MODES)
    def test_a_resumed_level(self, checked, mode, tmp_path):
        ckpt = str(tmp_path / "z3.ckpt")
        with pytest.raises(enumeration.EnumerationPaused) as info:
            enumeration.enumerate_stable(3, mode=mode, max_frontier=5, checkpoint_path=ckpt)
        del checked[:]
        enumeration.enumerate_stable(3, mode=mode, resume_path=ckpt)
        assert checked == list(range(info.value.depth, unlabeled.total_fires(7) + 1))

    @pytest.mark.parametrize(
        "workers,max_frontier,pause_depth", [(1, 220_000, 5), (2, 300_000, 6)]
    )
    def test_four_layers(self, checked, workers, max_frontier, pause_depth):
        with pytest.raises(enumeration.EnumerationPaused) as info:
            enumeration.enumerate_stable(4, workers=workers, max_frontier=max_frontier)
        assert info.value.depth == pause_depth
        assert checked == list(range(pause_depth + 1))


class TestOrbitCount:
    def test_only_a_self_mirror_shadow_is_compared_with_mirrors(self, monkeypatch):
        fired = bytes([2, 1, 3, 1, 1, 1, 1])  # the root fired once: a self-mirror shadow
        assert mirror_of(fired) == bytes([1, 1, 1, 1, 2, 1, 3]) != fired
        palindrome = bytes([2, 1, 1, 1, 1, 1, 3])  # chip 1 on vertex 2, chip 7 on vertex 3
        assert mirror_of(palindrome) == palindrome
        shadow = shadow_of(fired)
        assert enumeration._mirror_shadow(shadow) == shadow == shadow_of(palindrome)
        group = ints([fired, palindrome])
        assert enumeration._orbit_count(shadow, group, "full") == 3
        assert enumeration._orbit_count(shadow, group, "scheduled") == 2

        left = bytes([2, 1, 2, 2, 1, 1, 1])  # three chips on vertex 2, none on vertex 3
        lopsided = shadow_of(left)
        assert enumeration._mirror_shadow(lopsided) != lopsided
        monkeypatch.setattr(enumeration, "_mirrors", None)  # never called for this group
        assert enumeration._orbit_count(lopsided, ints([left]), "full") == 2


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_is_an_error(self, workers):
        with pytest.raises(ValueError, match="workers"):
            enumeration.enumerate_stable(2, workers=workers)

    @pytest.mark.parametrize("mode", enumeration.MODES)
    def test_one_process_and_the_pool_write_the_same_checkpoint(self, mode, tmp_path):
        written, records = [], {1: [], 2: []}
        for workers, levels in records.items():
            ckpt = tmp_path / f"{workers}.ckpt"
            with pytest.raises(enumeration.EnumerationPaused) as info:
                enumeration.enumerate_stable(
                    4,
                    mode=mode,
                    workers=workers,
                    max_frontier=50_000,
                    checkpoint_path=str(ckpt),
                    on_level=levels_of(levels),
                )
            assert info.value.depth == 4
            written.append(ckpt.read_bytes())
        assert written[0] == written[1]
        assert [depth for depth, *_ in records[1]] == [0, 1, 2, 3]
        assert records[1] == records[2]

    @pytest.fixture
    def pools(self, monkeypatch):
        """The max_workers of each pool the search starts, run in this process.

        The search imports the pool class when it starts a pool, so the class is
        replaced in its own module."""
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def map(self, func, batches):
                return map(func, batches)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                pass

        monkeypatch.setattr(process, "ProcessPoolExecutor", FakePool)
        return started

    def test_a_dead_worker_pauses_the_cli_with_the_level_it_was_on(
        self, stable3, tmp_path, monkeypatch, pools
    ):
        class DyingPool(process.ProcessPoolExecutor):
            def map(self, func, batches):
                for batch in batches:
                    yield func(batch)
                    if batch[3] == 2:  # a worker dies once depth 2's first batch is merged
                        raise process.BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(process, "ProcessPoolExecutor", DyingPool)
        monkeypatch.setattr(enumeration.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        ckpt, out, ref = (str(tmp_path / name) for name in ("K", "z3.jsonl", "ref.jsonl"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            argv = ["enumerate", "--ell", "3", "--workers", "2", "--checkpoint", ckpt]
            assert cli.main(argv) == 4
            assert enumeration.read_checkpoint(ckpt, 3, "full")[0] == 2
            assert cli.main(["enumerate", "--ell", "3", "--resume", ckpt, "--out", out]) == 0
        assert pools == [2]
        assert err.getvalue() == (
            "paused: enumeration paused at depth 2 (frontier 36): "
            f"a worker process ended abruptly; checkpoint written to {ckpt}\n"
        )
        enumeration.save(stable3, ref)
        assert Path(out).read_bytes() == Path(ref).read_bytes()

    def test_pool_is_capped_at_the_cpu_count(self, stable3, monkeypatch, pools):
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
        # a platform without affinity masks falls back on the CPU count
        monkeypatch.delattr(enumeration.os, "sched_getaffinity", raising=False)
        result = enumeration.enumerate_stable(3, workers=10**6)
        assert pools == [3]
        assert result.canonical_keys() == stable3.canonical_keys()

    @pytest.mark.parametrize("cpus,started", [({0, 5, 6}, [3]), ({4}, [])])
    def test_pool_is_capped_at_the_cpus_this_process_may_run_on(
        self, stable3, monkeypatch, pools, cpus, started
    ):
        # a process pinned to fewer CPUs than the machine has starts no idle workers,
        # and one pinned to one CPU starts no pool at all
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(enumeration.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        result = enumeration.enumerate_stable(3, workers=8)
        assert pools == started
        assert result.canonical_keys() == stable3.canonical_keys()


class TestSubtreeOrders:
    def test_depth_two_orders(self, stable3):
        assert enumeration.extract_subtree_orders(stable3.configs, stable3.ell, 2) == {"2;1,3"}

    def test_whole_tree_orders(self, stable3):
        assert len(enumeration.extract_subtree_orders(stable3.configs, stable3.ell, 3)) == 6

    def test_depth_out_of_range(self, stable3):
        with pytest.raises(ValueError):
            enumeration.extract_subtree_orders(stable3.configs, stable3.ell, 4)
        with pytest.raises(ValueError):
            enumeration.extract_subtree_orders(stable3.configs, stable3.ell, 0)


class TestPersistence:
    def test_enumerate_then_save_builds_each_canonical_json_once(self, tmp_path, monkeypatch):
        calls = []
        canonical_json = labeled.LabeledConfig.canonical_json

        def counted(config):
            calls.append(config)
            return canonical_json(config)

        monkeypatch.setattr(labeled.LabeledConfig, "canonical_json", counted)
        result = enumeration.enumerate_stable(3)
        path = tmp_path / "z3.jsonl"
        enumeration.save(result, str(path))
        # one template for the one stable shadow, filled in for each of the 6 configs
        assert len(calls) == 1 and result.count == 6
        monkeypatch.undo()
        assert path.read_text().splitlines()[1:] == [c.canonical_json() for c in result.configs]

    @pytest.mark.parametrize("mode", enumeration.MODES)
    def test_keys_are_the_configs_canonical_json_in_order(self, mode):
        result = enumeration.enumerate_stable(3, mode=mode)
        keys = [config.canonical_json() for config in result.configs]
        assert result.canonical_keys() == keys == sorted(keys)

    def test_configs_of_every_shadow_match_canonical_json(self):
        # every state the 7-chip game reaches, stable or not: cells of 0 to 7 chips
        groups = {}
        for config, _ in tallied_bfs(7):
            state = state_of(config)
            shadow_group = groups.setdefault(shadow_of(state), {})
            shadow_group[int.from_bytes(state, "big")] = config
        assert len(groups) == 8
        for shadow, configs in groups.items():
            built = list(enumeration._stable_configs(shadow, configs))
            assert [config for _, config in built] == list(configs.values())
            assert [key for key, _ in built] == [c.canonical_json() for c in configs.values()]

    def test_save_sorts_a_set_given_out_of_order(self, stable3, tmp_path):
        ordered, shuffled = tmp_path / "ordered.jsonl", tmp_path / "shuffled.jsonl"
        enumeration.save(stable3, str(ordered))
        reversed_set = enumeration.StableSet(3, stable3.configs[::-1], dict(stable3.meta))
        enumeration.save(reversed_set, str(shuffled))
        assert shuffled.read_bytes() == ordered.read_bytes()

    def test_round_trip(self, stable3, tmp_path):
        path = str(tmp_path / "z3.jsonl")
        enumeration.save(stable3, path)
        loaded = enumeration.load(path)
        assert loaded.ell == 3
        assert loaded.canonical_keys() == stable3.canonical_keys()
        assert loaded.meta == stable3.meta

    def test_truncated_body_is_detected(self, stable3, tmp_path):
        path = str(tmp_path / "z3.jsonl")
        enumeration.save(stable3, path)
        lines = Path(path).read_text().splitlines()
        Path(path).write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(enumeration.CorpusError, match="count"):
            enumeration.load(path)

    def test_corrupted_line_reports_its_number(self, stable3, tmp_path):
        path = str(tmp_path / "z3.jsonl")
        enumeration.save(stable3, path)
        lines = Path(path).read_text().splitlines()
        lines[3] = lines[3].replace('"chips":[1]', '"chips":[9]')
        body = "".join(line + "\n" for line in lines[1:])
        header = json.loads(lines[0])
        header["sha256"] = hashlib.sha256(body.encode()).hexdigest()
        Path(path).write_text(json.dumps(header, separators=(",", ":")) + "\n" + body)
        with pytest.raises(enumeration.CorpusError, match="line 4"):
            enumeration.load(path)

    def test_checksum_mismatch(self, stable3, tmp_path):
        path = str(tmp_path / "z3.jsonl")
        enumeration.save(stable3, path)
        lines = Path(path).read_text().splitlines()
        swapped = [lines[0], lines[2], lines[1], *lines[3:]]  # same count, different bytes
        Path(path).write_text("\n".join(swapped) + "\n")
        with pytest.raises(enumeration.CorpusError, match="checksum"):
            enumeration.load(path)

    def test_version_mismatch(self, stable3, tmp_path):
        path = str(tmp_path / "z3.jsonl")
        enumeration.save(stable3, path)
        lines = Path(path).read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        Path(path).write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(enumeration.CorpusError, match="version"):
            enumeration.load(path)

    def test_corpora_keep_version_one(self, stable3, tmp_path):
        path = str(tmp_path / "z3.jsonl")
        enumeration.save(stable3, path)
        assert json.loads(Path(path).read_bytes().split(b"\n", 1)[0])["version"] == 1

    @pytest.mark.parametrize("ell", [2, 4])
    def test_configurations_must_have_the_headers_chip_count(self, stable3, tmp_path, ell):
        # the checksum covers the body only, so a header ell off by one still matches it
        path = str(tmp_path / "z3.jsonl")
        enumeration.save(stable3, path)
        head, body = Path(path).read_bytes().split(b"\n", 1)
        header = {**json.loads(head), "ell": ell}
        Path(path).write_bytes(json.dumps(header).encode() + b"\n" + body)
        message = f"line 2: bad record: 7 chips, not 2\\^{ell} - 1"
        with pytest.raises(enumeration.CorpusError, match=message):
            enumeration.load(path)

    def test_a_wrong_chip_count_is_a_bad_record_in_file_order(self, stable3, tmp_path):
        # one batch holds both lines; the malformed one fails the batch's parse first
        path = str(tmp_path / "z3.jsonl")
        enumeration.save(stable3, path)
        lines = Path(path).read_text().splitlines()
        lines[1:3] = ['{"n_chips":1,"cells":[{"v":1,"chips":[1]}]}', "not a record"]
        body = "".join(line + "\n" for line in lines[1:])
        header = {**json.loads(lines[0]), "sha256": hashlib.sha256(body.encode()).hexdigest()}
        Path(path).write_text(json.dumps(header) + "\n" + body)
        with pytest.raises(
            enumeration.CorpusError, match="line 2: bad record: 1 chips, not 2\\^3 - 1$"
        ):
            enumeration.load(path)

    @pytest.mark.parametrize("n_chips", [10**20, 8, "7", True])
    def test_n_chips_must_be_the_label_count(self, stable3, tmp_path, n_chips):
        # a forged n_chips is refused before it sizes anything
        path = str(tmp_path / "z3.jsonl")
        enumeration.save(stable3, path)
        lines = Path(path).read_text().splitlines()
        lines[1] = lines[1].replace('"n_chips":7', f'"n_chips":{json.dumps(n_chips)}')
        body = "".join(line + "\n" for line in lines[1:])
        header = {**json.loads(lines[0]), "sha256": hashlib.sha256(body.encode()).hexdigest()}
        Path(path).write_text(json.dumps(header) + "\n" + body)
        with pytest.raises(enumeration.CorpusError, match="line 2: .*not the label count 7"):
            enumeration.load(path)

    @pytest.mark.parametrize("key,value", [("explored_states", "abc"), ("max_frontier", None)])
    def test_corpus_counters_must_be_integers(self, stable3, tmp_path, key, value):
        path = str(tmp_path / "z3.jsonl")
        enumeration.save(stable3, path)
        head, body = Path(path).read_bytes().split(b"\n", 1)
        header = {**json.loads(head), key: value}
        Path(path).write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(enumeration.CorpusError, match=f"header needs an integer '{key}'"):
            enumeration.load(path)

    def test_not_a_corpus(self, tmp_path):
        path = str(tmp_path / "junk.jsonl")
        Path(path).write_text("plain text\n")
        with pytest.raises(enumeration.CorpusError):
            enumeration.load(path)


class TestCheckpointing:
    def test_pause_and_resume(self, stable3, tmp_path):
        ckpt = str(tmp_path / "z3.ckpt")
        levels, whole = [], []
        with pytest.raises(enumeration.EnumerationPaused) as info:
            enumeration.enumerate_stable(
                3, max_frontier=5, checkpoint_path=ckpt, on_level=levels_of(levels)
            )
        assert info.value.checkpoint_path == ckpt
        assert info.value.reason == "frontier size limit exceeded"
        assert [depth for depth, *_ in levels] == list(range(info.value.depth))
        resumed = enumeration.enumerate_stable(3, resume_path=ckpt, on_level=levels_of(levels))
        assert resumed.canonical_keys() == stable3.canonical_keys()
        # the paused level is reported once, by the resumed run
        enumeration.enumerate_stable(3, on_level=levels_of(whole))
        assert levels == whole

    @pytest.mark.parametrize("failing_call,depth", [(1, 0), (3, 2)])
    def test_memory_running_out_while_a_level_is_counted_pauses_the_cli_at_that_level(
        self, stable3, tmp_path, monkeypatch, failing_call, depth
    ):
        # ell = 3 has one shadow at each of depths 0..2, so the third count is depth 2's
        orbit_count, calls = enumeration._orbit_count, itertools.count(1)

        def out_of_memory_once(*args):
            if next(calls) == failing_call:
                raise MemoryError
            return orbit_count(*args)

        monkeypatch.setattr(enumeration, "_orbit_count", out_of_memory_once)
        ckpt, out, ref = (str(tmp_path / name) for name in ("K", "z3.jsonl", "ref.jsonl"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(["enumerate", "--ell", "3", "--checkpoint", ckpt]) == 4
            assert enumeration.read_checkpoint(ckpt, 3, "full")[0] == depth
            assert cli.main(["enumerate", "--ell", "3", "--resume", ckpt, "--out", out]) == 0
        # the level was not counted, so the line names no frontier size
        assert err.getvalue() == (
            f"paused: enumeration paused at depth {depth}: out of memory; "
            f"checkpoint written to {ckpt}\n"
        )
        enumeration.save(stable3, ref)
        assert Path(out).read_bytes() == Path(ref).read_bytes()

    def test_immediate_time_budget_pause(self, tmp_path):
        ckpt = str(tmp_path / "z3.ckpt")
        with pytest.raises(enumeration.EnumerationPaused, match="time budget"):
            enumeration.enumerate_stable(3, max_seconds=0, checkpoint_path=ckpt)
        assert os.path.exists(ckpt)

    def test_pause_without_checkpoint_path(self):
        with pytest.raises(enumeration.EnumerationPaused) as info:
            enumeration.enumerate_stable(3, max_frontier=5)
        assert info.value.checkpoint_path is None

    def test_resume_rejects_other_parameters(self, tmp_path):
        ckpt = str(tmp_path / "z3.ckpt")
        with pytest.raises(enumeration.EnumerationPaused):
            enumeration.enumerate_stable(3, max_frontier=5, checkpoint_path=ckpt)
        with pytest.raises(enumeration.CorpusError, match="ell"):
            enumeration.enumerate_stable(2, resume_path=ckpt)
        with pytest.raises(enumeration.CorpusError, match="mode"):
            enumeration.enumerate_stable(3, mode="scheduled", resume_path=ckpt)

    def test_resume_rejects_version_mismatch(self, tmp_path):
        ckpt = str(tmp_path / "z3.ckpt")
        with pytest.raises(enumeration.EnumerationPaused):
            enumeration.enumerate_stable(3, max_frontier=5, checkpoint_path=ckpt)
        lines = Path(ckpt).read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        Path(ckpt).write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(enumeration.CorpusError, match="version"):
            enumeration.enumerate_stable(3, resume_path=ckpt)

    def test_resume_rejects_a_version_one_checkpoint(self, tmp_path):
        # a version-1 body holds both states of every mirror pair
        ckpt = str(tmp_path / "z3.ckpt")
        with pytest.raises(enumeration.EnumerationPaused):
            enumeration.enumerate_stable(3, max_frontier=5, checkpoint_path=ckpt)
        head, body = Path(ckpt).read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["version"] = 1
        Path(ckpt).write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(enumeration.CorpusError, match="version"):
            enumeration.enumerate_stable(3, resume_path=ckpt)

    def test_full_mode_rejects_a_state_that_is_not_its_orbits_minimum(self, tmp_path):
        ckpt = str(tmp_path / "z3.ckpt")
        fired = bytes([2, 1, 3, 1, 1, 1, 1])
        mirrored = mirror_of(fired)
        assert mirrored == bytes([1, 1, 1, 1, 2, 1, 3]) and mirrored < fired
        for mode in enumeration.MODES:
            fields = {"ell": 3, "mode": mode, "depth": 1, "frontier_count": 2}
            lines = [mirrored.hex(), fired.hex()]
            enumeration._write_records(ckpt, enumeration.CHECKPOINT_FORMAT, fields, lines)
            if mode == "scheduled":
                level = {shadow_of(fired): ints([mirrored, fired])}
                assert enumeration.read_checkpoint(ckpt, 3, mode)[1] == level
            else:
                with pytest.raises(enumeration.CorpusError, match="line 3: .*mirror"):
                    enumeration.read_checkpoint(ckpt, 3, mode)

    @pytest.mark.parametrize(
        "line", [bytes(7).hex(), bytes([8] + [1] * 6).hex(), "01" * 6, "01" * 6 + "0g"]
    )
    def test_bad_state_lines_are_reported_by_number(self, tmp_path, line):
        ckpt = str(tmp_path / "z3.ckpt")
        fields = {"ell": 3, "mode": "full", "depth": 0, "frontier_count": 2}
        enumeration._write_records(ckpt, enumeration.CHECKPOINT_FORMAT, fields, ["01" * 7, line])
        with pytest.raises(enumeration.CorpusError, match="line 3"):
            enumeration.read_checkpoint(ckpt, 3, "full")

    @pytest.mark.parametrize("mode", enumeration.MODES)
    def test_kill_at_every_depth(self, mode, tmp_path, monkeypatch):
        copies = []
        write = enumeration.write_checkpoint

        def write_and_copy(path, *args):
            write(path, *args)
            copies.append(Path(path).read_bytes())

        monkeypatch.setattr(enumeration, "write_checkpoint", write_and_copy)
        whole = enumeration.enumerate_stable(
            3, mode=mode, checkpoint_path=str(tmp_path / "z3.ckpt"), checkpoint_every=0
        )
        monkeypatch.undo()
        expected = tmp_path / "whole.jsonl"
        enumeration.save(whole, str(expected))
        depths = [json.loads(c.split(b"\n")[0])["depth"] for c in copies]
        assert depths == list(range(unlabeled.total_fires(7) + 1))

        for depth, copy in enumerate(copies):
            ckpt, rewritten, corpus = (tmp_path / f"{depth}.{x}" for x in ("ckpt", "re", "jsonl"))
            ckpt.write_bytes(copy)
            enumeration.write_checkpoint(
                str(rewritten), 3, mode, *enumeration.read_checkpoint(str(ckpt), 3, mode)
            )
            assert rewritten.read_bytes() == copy
            resumed = enumeration.enumerate_stable(3, mode=mode, resume_path=str(ckpt))
            enumeration.save(resumed, str(corpus))
            assert corpus.read_bytes() == expected.read_bytes()


def _paused_checkpoint(path):
    """An ell = 3 checkpoint paused at depth 1: 9 lines in full mode."""
    with pytest.raises(enumeration.EnumerationPaused):
        enumeration.enumerate_stable(3, max_frontier=5, checkpoint_path=str(path))
    head, body = path.read_bytes().split(b"\n", 1)
    return json.loads(head), body


def _with_body(path, header, body):
    """Write `header` with the count and checksum of `body`, then `body`."""
    header = {**header, "frontier_count": len(body.splitlines())}
    header["sha256"] = hashlib.sha256(body).hexdigest()
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


class TestStreamedRead:
    """A body read a few bytes at a time reads as the whole body does."""

    @given(
        st.lists(st.sampled_from([b"0", b"1", b"\r", b"\n"]), max_size=40).map(b"".join),
        st.integers(1, 9),
    )
    def test_lines_split_as_the_whole_body_splits(self, tmp_path_factory, body, block):
        # draining the records raises nothing, so the count and the checksum are accepted too
        path = tmp_path_factory.mktemp("body") / "body.jsonl"
        header = {
            "format": enumeration.CORPUS_FORMAT,
            "version": enumeration.VERSIONS[enumeration.CORPUS_FORMAT],
            "count": len(body.splitlines()),
            "sha256": hashlib.sha256(body).hexdigest(),
        }
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(enumeration, "_BLOCK_BYTES", block)
            records = enumeration._read_records(
                str(path), enumeration.CORPUS_FORMAT, lambda lines: lines, "count"
            )
            assert next(records) == header
            assert list(itertools.chain.from_iterable(records)) == body.splitlines()

    @pytest.mark.parametrize("block", [1, 2, 5, 31, 1 << 16])
    @pytest.mark.parametrize(
        "ending", ["newline", "no final newline", "crlf", "cr"], ids=lambda e: e.replace(" ", "-")
    )
    def test_line_endings_read_as_splitlines_reads_them(self, tmp_path, monkeypatch, block, ending):
        # the count and the checksum are the forged body's own, so only the splitting differs
        ckpt = tmp_path / "z3.ckpt"
        header, body = _paused_checkpoint(ckpt)
        expected = enumeration.read_checkpoint(str(ckpt), 3, "full")
        forged = {
            "newline": body,
            "no final newline": body[:-1],
            "crlf": body.replace(b"\n", b"\r\n"),
            "cr": body.replace(b"\n", b"\r"),
        }[ending]
        _with_body(ckpt, header, forged)
        monkeypatch.setattr(enumeration, "_BLOCK_BYTES", block)
        assert enumeration.read_checkpoint(str(ckpt), 3, "full") == expected

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_a_corpus_loads_the_same_in_any_block_size(self, stable3, tmp_path, monkeypatch, block):
        path = str(tmp_path / "z3.jsonl")
        enumeration.save(stable3, path)
        monkeypatch.setattr(enumeration, "_BLOCK_BYTES", block)
        loaded = enumeration.load(path)
        assert loaded.canonical_keys() == stable3.canonical_keys()
        assert loaded.meta == stable3.meta

    # each defect, and the message it is reported with, in the order they are checked
    DEFECTS = {
        "count": "header frontier_count 10 != body line count 9",
        "checksum": "checksum mismatch",
        "record": "line 5: bad record: Non-hexadecimal digit found",
        "depth": "line 1: depth 99 is outside 0..6",
        "order": "line 3: state is not above the one before it",
    }

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    @pytest.mark.parametrize(
        "defects",
        [(d,) for d in DEFECTS] + list(itertools.combinations(DEFECTS, 2)),
        ids="+".join,
    )
    def test_the_first_defect_in_check_order_is_reported(
        self, tmp_path, monkeypatch, defects, block
    ):
        ckpt = tmp_path / "z3.ckpt"
        header, body = _paused_checkpoint(ckpt)
        lines = body.splitlines()
        assert len(lines) == 9
        if "record" in defects:
            lines[3] = b"zz" * 7
        if "order" in defects:
            lines[0], lines[1] = lines[1], lines[0]
        if "depth" in defects:
            header = {**header, "depth": 99}
        _with_body(ckpt, header, b"".join(line + b"\n" for line in lines))
        if "count" in defects or "checksum" in defects:
            head, body = ckpt.read_bytes().split(b"\n", 1)
            forged = json.loads(head)
            forged["frontier_count"] += "count" in defects
            forged["sha256"] = "0" * 64 if "checksum" in defects else forged["sha256"]
            ckpt.write_bytes(json.dumps(forged).encode() + b"\n" + body)
        monkeypatch.setattr(enumeration, "_BLOCK_BYTES", block)
        with pytest.raises(enumeration.CorpusError) as info:
            enumeration.read_checkpoint(str(ckpt), 3, "full")
        assert str(info.value) == f"{ckpt}: {self.DEFECTS[defects[0]]}"

    @pytest.mark.parametrize("block", [1, 1 << 16])
    def test_an_empty_body_is_reported_before_a_bad_depth(
        self, tmp_path, monkeypatch, block
    ):
        ckpt = tmp_path / "z3.ckpt"
        header, _ = _paused_checkpoint(ckpt)
        _with_body(ckpt, {**header, "depth": 99}, b"")
        monkeypatch.setattr(enumeration, "_BLOCK_BYTES", block)
        with pytest.raises(enumeration.CorpusError, match="checkpoint frontier is empty"):
            enumeration.read_checkpoint(str(ckpt), 3, "full")

    def test_a_file_changed_while_it_is_read_is_refused(self, tmp_path, monkeypatch):
        # the lines already handed out and the rest of the file as it is now form a valid
        # body, but not the one the header's checksum is for: what is parsed is what is hashed
        ckpt = tmp_path / "s4.ckpt"
        with pytest.raises(enumeration.EnumerationPaused):
            enumeration.enumerate_stable(
                4, mode="scheduled", max_frontier=50_000, checkpoint_path=str(ckpt)
            )
        data, largest = ckpt.read_bytes(), b"0f" * 15 + b"\n"
        assert len(data) > 1 << 20 and not data.endswith(largest)

        def rewritten_after_the_first_block():
            digest, updates = hashlib.sha256(), itertools.count()

            def update(block):
                digest.update(block)
                if next(updates) == 0:  # the last state becomes the largest one
                    with open(ckpt, "r+b") as handle:
                        handle.seek(len(data) - len(largest))
                        handle.write(largest)

            return types.SimpleNamespace(update=update, hexdigest=digest.hexdigest)

        sha256 = types.SimpleNamespace(sha256=rewritten_after_the_first_block)
        monkeypatch.setattr(enumeration, "hashlib", sha256)
        with pytest.raises(enumeration.CorpusError, match="checksum mismatch"):
            enumeration.read_checkpoint(str(ckpt), 4, "scheduled")
        assert ckpt.read_bytes() == data[: -len(largest)] + largest

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_json_nested_too_deep_for_the_parser_is_a_corpus_error(self, stable3, tmp_path, where):
        path = tmp_path / "z3.jsonl"
        enumeration.save(stable3, str(path))
        head, body = path.read_bytes().split(b"\n", 1)
        deep = b"[" * 100_000 + b"]" * 100_000
        if where == "header":
            head = deep
        else:
            body = deep + b"\n" + body.split(b"\n", 1)[1]
            header = {**json.loads(head), "sha256": hashlib.sha256(body).hexdigest()}
            head = json.dumps(header).encode()
        path.write_bytes(head + b"\n" + body)
        line = "line 1: header is not valid JSON" if where == "header" else "line 2: bad record"
        with pytest.raises(enumeration.CorpusError, match=line):
            enumeration.load(str(path))


class TestMemory:
    """tracemalloc pins on reading and writing a checkpoint: the read holds the level
    it returns and one batch of lines, the write the sorted states and one chunk of lines."""

    @pytest.fixture(scope="class")
    def depth5(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("memory") / "d5.ckpt")
        with pytest.raises(enumeration.EnumerationPaused) as info:
            enumeration.enumerate_stable(4, max_frontier=150_000, checkpoint_path=path)
        assert info.value.depth == 5
        return path

    @staticmethod
    def traced(func, *args):
        """func(*args), the bytes still allocated after it and the peak above that."""
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = func(*args)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, current - base, peak - current

    def test_a_read_holds_little_beyond_the_level_it_returns(self, depth5):
        # 110,119 lines in a 3.4 MB file; the level holds 5.1 MB.  Measured over it on
        # Python 3.10-3.13: 0.50 MB; reading the whole body at once took 8.3 MB
        (depth, level, _, _), kept, over = self.traced(
            enumeration.read_checkpoint, depth5, 4, "full"
        )
        assert (depth, sum(map(len, level.values()))) == (5, 110_119)
        assert kept > 4 * 2**20
        assert over < 1 * 2**20

    def test_a_write_holds_little_beyond_the_level_it_is_given(self, depth5, tmp_path):
        # measured on Python 3.10-3.13: 1.60-1.67 MB, the sorted list of 110,119 ints
        # and one 4,096-line chunk; 65,536-line chunks took 12.0 MB
        checkpoint = enumeration.read_checkpoint(depth5, 4, "full")
        path = tmp_path / "d5.ckpt"
        _, kept, over = self.traced(enumeration.write_checkpoint, str(path), 4, "full", *checkpoint)
        assert path.read_bytes() == Path(depth5).read_bytes()
        assert kept + over < 2.5 * 2**20

    def test_a_line_far_longer_than_a_state_is_refused_undecoded(self, tmp_path):
        # one 4 MB line.  Measured on Python 3.10-3.13: 8.1 MB, the line and its split
        # copy; decoding it before its length was checked took 12.0 MB
        ckpt = tmp_path / "z3.ckpt"
        header, _ = _paused_checkpoint(ckpt)
        _with_body(ckpt, header, b"ff" * (2 << 20) + b"\n")

        def refused():
            with pytest.raises(enumeration.CorpusError, match="line 2: bad record: not a state"):
                enumeration.read_checkpoint(str(ckpt), 3, "full")

        _, kept, over = self.traced(refused)
        assert kept + over < 10 * 2**20


FOUR_LAYER_BODY_SHA256 = "020980e1fc2e2a69660a363d6abfd83e385ef60381e752e9425aa15d1a3cdf8d"
SCHEDULED_BODY_SHA256 = "d6e1ba0382ea2753c98c9cf2bb6c6f56570cf4d18fbf6ab8e6da9e6500b734bb"


@pytest.mark.long
@pytest.mark.skipif(
    os.environ.get("CHIPFIRE_RUN_LONG") != "1",
    reason="full 4-layer enumeration: 143 s with 2 workers on 2 cores (BENCH_15.json); "
    "set CHIPFIRE_RUN_LONG=1",
)
class TestFourLayersFull:
    def test_ground_truth_and_observed_orders(self, tmp_path, four_layer_search):
        result, _ = four_layer_search  # shared with test_acceptance.py
        assert result.count == 36220
        assert result.meta["explored_states"] == 48_194_309
        assert result.meta["max_frontier"] == 9_036_223
        corpus = tmp_path / "z4.jsonl"
        enumeration.save(result, str(corpus))
        body = corpus.read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == FOUR_LAYER_BODY_SHA256
        assert len(enumeration.extract_subtree_orders(result.configs, result.ell, 3)) == 10
        for config in result.configs:
            for name, report in checks.check(config).items():
                assert report.passed, name

    def test_scheduled_mode_undercounts(self, tmp_path):
        # the fixed-vertex-order heuristic misses configurations from 4
        # layers on; this pins the observed shortfall
        scheduled = enumeration.enumerate_stable(4, mode="scheduled")
        assert scheduled.count == 20006
        assert scheduled.meta["explored_states"] == 2_348_422
        assert scheduled.meta["max_frontier"] == 874_190
        corpus = tmp_path / "s4.jsonl"
        enumeration.save(scheduled, str(corpus))
        body = corpus.read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == SCHEDULED_BODY_SHA256
