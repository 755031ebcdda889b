"""The tree geometry the checkers compute by index arithmetic.

Vertex v has children 2v and 2v + 1 and lies on layer v.bit_length().
checks.py reads the tree through _subtree (a subtree layer by layer),
_straight_ancestors (parents reached by undoing only left or only right
steps), the extremes table (bottom-straight descendants) and
_maximal_zigzags; these tests hold each to the tree's known answers.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chipfire.checks import (
    _maximal_zigzags,
    _straight_ancestors,
    _subtree,
    relative_order_key,
    tables,
)
from conftest import single_chip_config

vertices = st.integers(min_value=1, max_value=2**62)


def _children(v):
    _, left, right = _subtree(v, 2)
    return left, right


def _parent(v):
    (u, *_) = _straight_ancestors(v, v % 2 == 0)
    return u


def _zigzags(ell, start):
    return [path for path in _maximal_zigzags(ell) if path[0] == start]


@pytest.mark.parametrize("v,expected", [(1, 1), (5, 3), (21, 5), (2, 2), (1023, 10)])
def test_layer(v, expected):
    # the subtree of the root with `expected` layers ends on v's layer
    assert v in set(_subtree(1, expected)) - set(_subtree(1, expected - 1))


def test_children_and_parent():
    assert _children(3)[0] == 6
    assert _children(1)[1] == 3
    assert _parent(7) == 3
    assert _parent(6) == 3


def test_root_has_no_parent():
    assert _straight_ancestors(1, True) == []
    assert _straight_ancestors(1, False) == []


@pytest.mark.parametrize("bad", [0, -3])
def test_vertices_are_positive(bad):
    with pytest.raises(ValueError):
        relative_order_key(single_chip_config({1: 1}), bad, 1)


@given(vertices)
def test_parent_inverts_children(v):
    left, right = _children(v)
    assert _parent(left) == v
    assert _parent(right) == v


@given(vertices)
def test_children_are_one_layer_down(v):
    assert [u.bit_length() for u in _children(v)] == [v.bit_length() + 1] * 2


def test_parent_child_roundtrip_exhaustive():
    for v in range(1, 2**16 + 1):
        left, right = _children(v)
        assert _parent(left) == v
        assert _parent(right) == v


def test_bottom_straight_descendants():
    def targets(ell):
        return {(row.root, row.smallest): row.at for row in tables(ell).extremes.rows}

    four = targets(4)
    assert four[1, True] == 8
    assert four[3, True] == 12
    assert four[1, False] == 15
    assert four[2, False] == 11
    # a bottom vertex is its own subtree: no order is rooted there
    assert (5, True) not in targets(3)


class TestZigzag:
    def test_from_root_left_first(self):
        assert [1, 2, 5, 10, 21] in _zigzags(5, 1)

    def test_from_root_right_first(self):
        assert [1, 3, 6, 13, 26] in _zigzags(5, 1)

    def test_from_right_child(self):
        assert _zigzags(5, 7) == [[7, 14, 29]]

    def test_from_left_child(self):
        assert _zigzags(5, 4) == [[4, 9, 18]]

    def test_length_matches_layer_span(self):
        for ell in range(1, 10):
            for path in _maximal_zigzags(ell):
                assert len(path) == ell - path[0].bit_length() + 1
                assert path[-1].bit_length() == ell

    def test_first_move_only_for_root(self):
        # only the root has a choice of first move, so it alone starts two zigzags
        starts = [path[0] for path in _maximal_zigzags(7)]
        assert starts.count(1) == 2
        assert len(set(starts)) == len(starts) - 1

    def test_root_left_path_alternates_binary_digits(self):
        # indices on this path read 1, 10, 101, 1010, ... in binary
        (path,) = [p for p in _zigzags(10, 1) if p[1] == 2]
        for v in path:
            bits = bin(v)[2:]
            assert all(a != b for a, b in zip(bits, bits[1:]))

    @given(st.integers(min_value=1, max_value=12))
    def test_parity_strictly_alternates(self, ell):
        for path in _maximal_zigzags(ell):
            for a, b in zip(path, path[1:]):
                assert b in (2 * a, 2 * a + 1)
                # the root is neither child, so its step is the one free choice
                assert a == 1 or a % 2 != b % 2


class TestZigzagPartition:
    def test_depths_for_four_layers(self):
        assert sorted(map(len, _maximal_zigzags(4))) == [1, 1, 1, 1, 2, 2, 4, 4]

    def test_two_layers(self):
        assert _maximal_zigzags(2) == [[1, 2], [1, 3]]

    def test_needs_two_layers(self):
        # a zigzag step spans two layers, so one layer orders nothing
        assert tables(1).zigzag.rows == ()
        assert len(tables(2).zigzag.rows) == 2

    @pytest.mark.parametrize("ell", range(2, 11))
    @pytest.mark.parametrize("first_move", ["left", "right"])
    def test_partition_covers_tree_exactly(self, ell, first_move):
        # the root's zigzag and the whole subtrees hanging off it tile the tree
        second = 2 if first_move == "left" else 3
        (path,) = [p for p in _zigzags(ell, 1) if p[1] == second]
        covered = list(path)
        for a, b in zip(path, path[1:]):
            off = b ^ 1  # the child of a that the zigzag leaves
            covered.extend(_subtree(off, ell - off.bit_length() + 1))
        assert sorted(covered) == list(range(1, 2**ell))
