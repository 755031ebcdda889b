"""Structural property checkers for stable labeled configurations.

check() takes a stable configuration of N = 2^ell - 1 chips whose shadow
is one chip on each vertex of the first ell layers, reads the chip on
each vertex once, and hands that list to each property's checker, which
returns a CheckReport listing violations (with the witnessing vertices)
instead of raising.  Handing check() anything outside that domain is a
usage error, not a failed check.

What a checker reads of the tree depends on ell alone, so it comes from
tables(ell), built once per ell; per configuration a checker only looks
labels up and compares them.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter, lt
from typing import NamedTuple

from .labeled import LabeledConfig

__all__ = [
    "Violation",
    "CheckReport",
    "check",
    "check_anchors",
    "check_subtree_extremes",
    "check_zigzag_alternation",
    "check_penultimate",
    "check_ballot",
    "check_forbidden_order",
    "relative_order_key",
    "CHECKERS",
    "min_layers_for",
]

@dataclass(frozen=True)
class Violation:
    vertex: int
    detail: str


@dataclass
class CheckReport:
    property: str
    passed: bool = True
    violations: list[Violation] = field(default_factory=list)

    def add(self, vertex: int, detail: str) -> None:
        self.violations.append(Violation(vertex, detail))
        self.passed = False


# the properties defined only from more than one layer on
_MIN_LAYERS = {"anchors": 2, "penultimate": 2, "forbidden": 3}


def min_layers_for(property_name: str) -> int:
    """Smallest layer count a property is defined for."""
    return _MIN_LAYERS.get(property_name, 1)


def _getter(keys) -> Callable:
    """itemgetter(*keys), but returning a tuple for one key or none as well."""
    keys = tuple(keys)
    if len(keys) == 1:
        (key,) = keys
        return lambda items: (items[key],)
    return itemgetter(*keys) if keys else lambda items: ()


def _subtree(root: int, depth: int) -> Iterator[int]:
    """The vertices of the `depth`-layer subtree under `root`, layer by layer."""
    return (v for d in range(depth) for v in range(root << d, (root + 1) << d))


class Order(NamedTuple):
    """The chip at `at` is below (`smallest`) or above every chip at `others`.

    `root` is the vertex the order belongs to: the subtree it speaks of, or
    for a zigzag the path's start.
    """

    root: int
    at: int
    smallest: bool
    others: tuple[int, ...]


class OrderTable:
    """The orders a property requires on the first ell layers, in report order.

    `pairs` lists every (smaller vertex, larger vertex) pair the orders
    require, once each; `tested` is the part of it that broken() tests.
    """

    def __init__(self, rows: Iterable[Order]):
        self.rows = tuple(rows)
        self.pairs = tuple(
            sorted({(r.at, o) if r.smallest else (o, r.at) for r in self.rows for o in r.others})
        )
        # broken() tests only the pairs with no vertex between their two: the orders are
        # acyclic (stable configurations meet them), so every other pair follows by transitivity
        above, below = defaultdict(set), defaultdict(set)
        for a, b in self.pairs:
            above[a].add(b)
            below[b].add(a)
        self.tested = tuple((a, b) for a, b in self.pairs if above[a].isdisjoint(below[b]))
        self._smaller = _getter(a for a, _ in self.tested)
        self._larger = _getter(b for _, b in self.tested)

    def broken(self, labels: list[int]) -> Iterator[tuple[Order, int, int]]:
        """The orders `labels` break, each with the chip at `at` and the
        smallest (or largest) chip at `others`."""
        if all(map(lt, self._smaller(labels), self._larger(labels))):
            return
        for row in self.rows:
            found = labels[row.at]
            chips = map(labels.__getitem__, row.others)
            want = min(chips) if row.smallest else max(chips)
            if not (found < want if row.smallest else found > want):
                yield row, found, want


class Tables:
    """What the checkers read of the first ell layers; each table is built on first use."""

    def __init__(self, ell: int):
        self.ell = ell

    @cached_property
    def cells(self) -> Callable:
        """The cells of vertices 1..2^ell - 1 of a cells mapping, in vertex order."""
        return _getter(range(1, 2**self.ell))

    @cached_property
    def anchors(self) -> list[tuple[int, int]]:
        """(chip, vertex) pairs: chip 1 at the leftmost bottom vertex, chip N at
        the rightmost, and from ell = 3 on chips 2 and N - 1 at their parents."""
        ell, n = self.ell, 2**self.ell - 1
        targets = [(1, 2 ** (ell - 1)), (n, 2**ell - 1)]
        if ell >= 3:
            targets += [(2, 2 ** (ell - 2)), (n - 1, 2 ** (ell - 1) - 1)]
        return targets

    @cached_property
    def extremes(self) -> OrderTable:
        """Each subtree's bottom-straight-left chip is its smallest and its
        bottom-straight-right chip its largest."""
        ell = self.ell
        rows = []
        for v in range(1, 2 ** (ell - 1)):  # a bottom vertex is its own subtree
            k = ell - v.bit_length()  # the layers below v
            subtree = tuple(_subtree(v, k + 1))
            # straight left to the bottom appends k zeros to v, straight right k ones
            for at, smallest in ((v << k, True), (((v + 1) << k) - 1, False)):
                rows.append(Order(v, at, smallest, tuple(u for u in subtree if u != at)))
        return OrderTable(rows)

    @cached_property
    def zigzag(self) -> OrderTable:
        """Consecutive chips along each maximal zigzag rise and fall alternately."""
        # a chip is below the chip at its zigzag successor exactly when that is a right child
        return OrderTable(
            Order(path[0], a, b % 2 == 1, (b,))
            for path in _maximal_zigzags(self.ell)
            for a, b in zip(path, path[1:])
        )

    @cached_property
    def penultimate(self) -> OrderTable:
        """Each chip on layer ell - 1 is the smallest (largest) chip above the
        bottom layer in the subtree of each ancestor it is straight-left
        (straight-right) of."""
        ell = self.ell
        rows = []
        for v in range(2 ** (ell - 2), 2 ** (ell - 1)):
            for smallest in (True, False):
                for u in _straight_ancestors(v, smallest):
                    above = _subtree(u, ell - u.bit_length())
                    rows.append(Order(u, v, smallest, tuple(x for x in above if x != v)))
        return OrderTable(rows)

    @cached_property
    def forbidden(self) -> list[tuple[int, ...]]:
        """The vertices of each bottom-anchored 3-layer subtree, its root first."""
        return [tuple(_subtree(s, 3)) for s in range(2 ** (self.ell - 3), 2 ** (self.ell - 2))]


@lru_cache(maxsize=4)
def tables(ell: int) -> Tables:
    """The checkers' tables for ell layers, shared by every configuration of that size."""
    return Tables(ell)


def _labels(config: LabeledConfig) -> tuple[list[int], int]:
    """The chip on each vertex, indexed by vertex (entry 0 unused), and ell.

    Refuses anything outside the checkers' domain: N = 2^ell - 1 chips,
    stable, one chip on each vertex of the first ell layers.
    """
    n = config.n_chips
    ell = n.bit_length()
    if n != 2**ell - 1:
        raise ValueError(f"checkers need n_chips of the form 2^ell - 1, got {n}")
    cells = config.cells
    labels = None
    if len(cells) == n:  # so that the tables are sized by cells that exist
        try:
            labels = [0, *[chip for (chip,) in tables(ell).cells(cells)]]
        except (KeyError, ValueError):  # a vertex without exactly one chip
            pass
    if labels is None:  # one chip on each vertex is stable: only now can stability fail
        if not config.is_stable():
            raise ValueError("checkers only accept stable configurations")
        raise ValueError("configuration is not one chip on each vertex of the first layers")
    return labels, ell


def check(config: LabeledConfig, names: Iterable[str] | None = None) -> dict[str, CheckReport]:
    """Each named property's report on `config`, in `names` order; None names them all.

    The configuration is read once for all of them.  Refuses anything
    outside the checkers' domain, and a property below its minimum layer
    count.
    """
    labels, ell = _labels(config)
    names = list(CHECKERS if names is None else names)
    for name in names:
        needed = min_layers_for(name)
        if ell < needed:
            raise ValueError(f"{name} check needs at least {needed} layers")
    # looked up per call, so that an entry replaced in CHECKERS is the one that runs
    return {name: CHECKERS[name](labels, ell) for name in names}


def check_anchors(labels: list[int], ell: int) -> CheckReport:
    """The two smallest and two largest chips sit in forced positions.

    Chip 1 ends at the leftmost bottom vertex and chip N at the rightmost;
    for ell >= 3, chip 2 sits at the parent of chip 1's vertex and chip
    N - 1 at the parent of chip N's vertex.
    """
    report = CheckReport("anchors")
    for chip, want in tables(ell).anchors:
        if labels[want] != chip:
            got = labels.index(chip)
            report.add(want, f"chip {chip} expected at vertex {want}, found at vertex {got}")
    return report


def check_subtree_extremes(labels: list[int], ell: int) -> CheckReport:
    """Each subtree keeps its smallest chip bottom-straight-left and its
    largest bottom-straight-right."""
    report = CheckReport("extremes")
    for (v, at, smallest, _), found, want in tables(ell).extremes.broken(labels):
        word = "minimum" if smallest else "maximum"
        report.add(v, f"subtree {word} {want} is not at vertex {at} (found chip {found})")
    return report


def _maximal_zigzags(ell: int) -> list[list[int]]:
    """The zigzags down to layer ell that no longer zigzag passes through.

    A zigzag steps from a left child to its right child and from a right
    child to its left child.  A non-root vertex continues its parent's
    zigzag exactly when the two have opposite parity (or the parent is the
    root, whose two zigzags take both children), so the maximal zigzags
    are the root's two and one from each same-parity child of a non-root
    vertex.
    """
    paths = [[1, 2], [1, 3]]
    paths += [[v, 2 * v + 1 - (v & 1)] for v in range(4, 2**ell) if (v & 1) == ((v >> 1) & 1)]
    for path in paths:
        while path[-1].bit_length() < ell:
            u = path[-1]
            path.append(2 * u + 1 - (u & 1))
        del path[ell - path[0].bit_length() + 1 :]  # at ell = 1 the root's zigzag is [1]
    return paths


def check_zigzag_alternation(labels: list[int], ell: int) -> CheckReport:
    """Chips along every maximal zigzag rise and fall alternately.

    Zigzags starting at a left child (or at the root moving right) open
    ascending: c1 < c2 > c3 < ...; starts at a right child (or the root
    moving left) open descending.
    """
    report = CheckReport("zigzag")
    for (_, a, ascending, (b,)), ca, cb in tables(ell).zigzag.broken(labels):
        rel = "<" if ascending else ">"
        report.add(a, f"expected chip {ca} at {a} {rel} chip {cb} at {b}")
    return report


def _straight_ancestors(v: int, left: bool) -> list[int]:
    """Proper ancestors of v reached by undoing only left (or only right) steps."""
    out = []
    u = v
    while u > 1 and (u % 2 == 0) == left:
        u >>= 1
        out.append(u)
    return out


def check_penultimate(labels: list[int], ell: int) -> CheckReport:
    """Chips one layer above the bottom are extremes of their straight
    ancestors' subtrees, once the bottom layer is excluded.

    For v on layer ell - 1 and any proper ancestor u having v as a
    straight-left descendant, the chip at v is the smallest chip in u's
    subtree above the bottom layer (symmetrically largest on the
    straight-right side).  v itself need not be tested: the chip at v is
    the only chip of v's subtree above the bottom layer.
    """
    report = CheckReport("penultimate")
    for (u, v, smallest, _), found, want in tables(ell).penultimate.broken(labels):
        word = "smallest" if smallest else "largest"
        report.add(
            v,
            f"chip {found} at vertex {v} is not the {word} "
            f"above the bottom layer in the subtree at {u} (that is {want})",
        )
    return report


def check_ballot(labels: list[int], ell: int) -> CheckReport:
    """Left subtrees are pointwise dominated by their right siblings.

    At every vertex above the bottom layer, the i-th smallest chip of the
    left child's subtree must be smaller than the i-th smallest chip of
    the right child's subtree, for all i.
    """
    # per vertex, the ascending chips of its subtree, built bottom-up
    sub = list(map(list, zip(labels)))
    for v in range(2 ** (ell - 1) - 1, 0, -1):
        sub[v] = sorted(sub[v] + sub[2 * v] + sub[2 * v + 1])
    report = CheckReport("ballot")
    for v in range(1, 2 ** (ell - 1)):
        left, right = sub[2 * v], sub[2 * v + 1]
        below = list(map(lt, left, right))
        if False in below:
            i = below.index(False)
            report.add(
                v,
                f"rank {i + 1} chip of left subtree at {2 * v} is {left[i]}, "
                f"not below {right[i]} on the right at {2 * v + 1}",
            )
    return report


def check_forbidden_order(labels: list[int], ell: int) -> CheckReport:
    """No bottom-anchored 3-layer subtree shows the impossible order.

    The excluded pattern has the second-smallest chip away from the parent
    of the smallest chip while the second-largest chip is simultaneously
    away from the parent of the largest chip.
    """
    report = CheckReport("forbidden")
    for vertices in tables(ell).forbidden:
        s = vertices[0]
        ranked = sorted(vertices, key=labels.__getitem__)
        lo, lo2, hi2, hi = ranked[0], ranked[1], ranked[-2], ranked[-1]
        lo_ok = lo != s and lo >> 1 == lo2
        hi_ok = hi != s and hi >> 1 == hi2
        if not lo_ok and not hi_ok:
            report.add(
                s,
                f"subtree at {s} shows the excluded order: chip {labels[lo2]} "
                f"is not at the parent of chip {labels[lo]} and chip "
                f"{labels[hi2]} is not at the parent of chip {labels[hi]}",
            )
    return report


@lru_cache(maxsize=1024)
def _key_table(root: int, depth: int) -> tuple[Callable, str, tuple[str, ...]]:
    """For relative_order_key: the getter of the subtree's cells, the key's
    format with one field per vertex, and the ranks as text."""
    vertices = tuple(_subtree(root, depth))
    layout = ";".join(",".join(["{}"] * 2**d) for d in range(depth))
    return _getter(vertices), layout, tuple(map(str, range(1, len(vertices) + 1)))


def relative_order_key(config: LabeledConfig, subtree_root: int, depth: int) -> str:
    """Canonical signature of the relative chip order on a subtree.

    Labels on the `depth`-layer subtree under `subtree_root` are replaced
    by their ranks 1..2^depth - 1; the signature lists ranks level by
    level, layers separated by ';'.  Two label-disjoint subtrees with the
    same relative order share a key.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cells = config.cells
    chips = None
    # the subtree has 2^depth - 1 vertices: a depth no configuration can fill must not size a table
    if depth < (len(cells) + 1).bit_length():
        cells_at, layout, ranks = _key_table(subtree_root, depth)
        try:
            chips = [chip for (chip,) in cells_at(cells)]
        except (KeyError, ValueError):  # a vertex without exactly one chip
            pass
    if chips is None:
        v = next(v for v in _subtree(subtree_root, depth) if len(cells.get(v, ())) != 1)
        raise ValueError(f"subtree at {subtree_root} is not fully occupied at vertex {v}")
    rank = dict(zip(sorted(chips), ranks))
    return layout.format(*map(rank.__getitem__, chips))


# each property's checker, a function of (labels, ell): labels[v] is the chip at vertex v
CHECKERS = {
    "anchors": check_anchors,
    "extremes": check_subtree_extremes,
    "zigzag": check_zigzag_alternation,
    "penultimate": check_penultimate,
    "ballot": check_ballot,
    "forbidden": check_forbidden_order,
}
