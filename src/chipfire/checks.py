"""Structural property checkers for stable labeled configurations.

Every checker takes a stable configuration of N = 2^ell - 1 chips whose
shadow is one chip on each vertex of the first ell layers, and returns a
CheckReport listing violations (with the witnessing vertices) instead of
raising.  Handing a checker anything outside that domain is a usage
error, not a failed check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tree
from .labeled import LabeledConfig

__all__ = [
    "Violation",
    "CheckReport",
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


def min_layers_for(property_name: str) -> int:
    """Smallest layer count a property is defined for."""
    return {"anchors": 2, "penultimate": 2, "forbidden": 3}.get(property_name, 1)


def _labels(config: LabeledConfig, property_name: str) -> tuple[list[int], int]:
    """The chip on each vertex, indexed by vertex (entry 0 unused), and ell.

    Refuses anything outside the checkers' domain: N = 2^ell - 1 chips,
    stable, one chip on each vertex of the first ell layers, and at least
    the property's minimum layer count.
    """
    n = config.n_chips
    ell = n.bit_length()
    if n != 2**ell - 1:
        raise ValueError(f"checkers need n_chips of the form 2^ell - 1, got {n}")
    if not config.is_stable():
        raise ValueError("checkers only accept stable configurations")
    if len(config.cells) != n or any(len(config.cells.get(v, ())) != 1 for v in range(1, n + 1)):
        raise ValueError("configuration is not one chip on each vertex of the first layers")
    needed = min_layers_for(property_name)
    if ell < needed:
        raise ValueError(f"{property_name} check needs at least {needed} layers")
    return [0] + [config.cells[v][0] for v in range(1, n + 1)], ell


def _subtree_sorted(labels: list[int], ell: int) -> list[list[int]]:
    """Per vertex, the ascending chips of its subtree within the first ell layers."""
    sub = [[labels[v]] for v in range(2**ell)]
    for v in range(2 ** (ell - 1) - 1, 0, -1):
        sub[v] = sorted(sub[v] + sub[2 * v] + sub[2 * v + 1])
    return sub


def check_anchors(config: LabeledConfig) -> CheckReport:
    """The two smallest and two largest chips sit in forced positions.

    Chip 1 ends at the leftmost bottom vertex and chip N at the rightmost;
    for ell >= 3, chip 2 sits at the parent of chip 1's vertex and chip
    N - 1 at the parent of chip N's vertex.
    """
    labels, ell = _labels(config, "anchors")
    n = config.n_chips
    report = CheckReport("anchors")
    targets = [(1, 2 ** (ell - 1)), (n, 2**ell - 1)]
    if ell >= 3:
        targets += [(2, 2 ** (ell - 2)), (n - 1, 2 ** (ell - 1) - 1)]
    for chip, want in targets:
        got = labels.index(chip)
        if got != want:
            report.add(want, f"chip {chip} expected at vertex {want}, found at vertex {got}")
    return report


def check_subtree_extremes(config: LabeledConfig) -> CheckReport:
    """Each subtree keeps its smallest chip bottom-straight-left and its
    largest bottom-straight-right."""
    labels, ell = _labels(config, "extremes")
    sub = _subtree_sorted(labels, ell)
    report = CheckReport("extremes")
    for v in range(1, 2**ell):
        bl, br = tree.bottom_straight_left(v, ell), tree.bottom_straight_right(v, ell)
        for at, word, end in ((bl, "minimum", 0), (br, "maximum", -1)):
            found, want = labels[at], sub[v][end]
            if found != want:
                report.add(v, f"subtree {word} {want} is not at vertex {at} (found chip {found})")
    return report


def _maximal_zigzag_starts(ell: int) -> list[tuple[int, str | None]]:
    """Start vertices of zigzags no longer zigzag can pass through.

    A non-root vertex v continues its parent's zigzag exactly when v and
    parent(v) have opposite parity (or the parent is the root, whose two
    zigzags absorb both children), so maximal starts are the root plus
    same-parity children of non-root vertices.
    """
    same_parity = [(v, None) for v in range(4, 2**ell) if (v & 1) == ((v >> 1) & 1)]
    return [(1, "left"), (1, "right"), *same_parity]


def check_zigzag_alternation(config: LabeledConfig) -> CheckReport:
    """Chips along every maximal zigzag rise and fall alternately.

    Zigzags starting at a left child (or at the root moving right) open
    ascending: c1 < c2 > c3 < ...; starts at a right child (or the root
    moving left) open descending.
    """
    labels, ell = _labels(config, "zigzag")
    report = CheckReport("zigzag")
    for v, first_move in _maximal_zigzag_starts(ell):
        path = tree.zigzag_from(v, ell, first_move).vertices
        ascending = path[0] % 2 == 0 or first_move == "right"
        for a, b in zip(path, path[1:]):
            ca, cb = labels[a], labels[b]
            if not (ca < cb if ascending else ca > cb):
                rel = "<" if ascending else ">"
                report.add(a, f"expected chip {ca} at {a} {rel} chip {cb} at {b}")
            ascending = not ascending
    return report


def _straight_ancestors(v: int, left: bool) -> list[int]:
    """Proper ancestors of v reached by undoing only left (or only right) steps."""
    out = []
    u = v
    while u > 1 and (u % 2 == 0) == left:
        u >>= 1
        out.append(u)
    return out


def check_penultimate(config: LabeledConfig) -> CheckReport:
    """Chips one layer above the bottom are extremes of their straight
    ancestors' subtrees, once the bottom layer is excluded.

    For v on layer ell - 1 and any proper ancestor u having v as a
    straight-left descendant, the chip at v is the smallest chip in u's
    subtree above the bottom layer (symmetrically largest on the
    straight-right side).  v itself need not be tested: the chip at v is
    the only chip of v's subtree above the bottom layer.
    """
    labels, ell = _labels(config, "penultimate")
    sub = _subtree_sorted(labels, ell - 1)  # bottom layer excluded
    report = CheckReport("penultimate")
    for v in range(2 ** (ell - 2), 2 ** (ell - 1)):
        for left, word, end in ((True, "smallest", 0), (False, "largest", -1)):
            for u in _straight_ancestors(v, left):
                if labels[v] != sub[u][end]:
                    report.add(
                        v,
                        f"chip {labels[v]} at vertex {v} is not the {word} "
                        f"above the bottom layer in the subtree at {u} (that is {sub[u][end]})",
                    )
    return report


def check_ballot(config: LabeledConfig) -> CheckReport:
    """Left subtrees are pointwise dominated by their right siblings.

    At every vertex above the bottom layer, the i-th smallest chip of the
    left child's subtree must be smaller than the i-th smallest chip of
    the right child's subtree, for all i.
    """
    labels, ell = _labels(config, "ballot")
    sub = _subtree_sorted(labels, ell)
    report = CheckReport("ballot")
    for v in range(1, 2 ** (ell - 1)):
        left, right = sub[2 * v], sub[2 * v + 1]
        for i, (a, b) in enumerate(zip(left, right)):
            if a >= b:
                report.add(
                    v,
                    f"rank {i + 1} chip of left subtree at {2 * v} is {a}, "
                    f"not below {b} on the right at {2 * v + 1}",
                )
                break
    return report


def check_forbidden_order(config: LabeledConfig) -> CheckReport:
    """No bottom-anchored 3-layer subtree shows the impossible order.

    The excluded pattern has the second-smallest chip away from the parent
    of the smallest chip while the second-largest chip is simultaneously
    away from the parent of the largest chip.
    """
    labels, ell = _labels(config, "forbidden")
    report = CheckReport("forbidden")
    for s in range(2 ** (ell - 3), 2 ** (ell - 2)):
        vertices = [s, 2 * s, 2 * s + 1] + [4 * s + i for i in range(4)]
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


def relative_order_key(config: LabeledConfig, subtree_root: int, depth: int) -> str:
    """Canonical signature of the relative chip order on a subtree.

    Labels on the `depth`-layer subtree under `subtree_root` are replaced
    by their ranks 1..2^depth - 1; the signature lists ranks level by
    level, layers separated by ';'.  Two label-disjoint subtrees with the
    same relative order share a key.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    levels: list[list[int]] = []
    for d in range(depth):
        row = [subtree_root * 2**d + i for i in range(2**d)]
        for v in row:
            if len(config.cells.get(v, [])) != 1:
                raise ValueError(f"subtree at {subtree_root} is not fully occupied at vertex {v}")
        levels.append([config.cells[v][0] for v in row])
    rank = {lab: i + 1 for i, lab in enumerate(sorted(x for row in levels for x in row))}
    return ";".join(",".join(str(rank[x]) for x in row) for row in levels)


CHECKERS = {
    "anchors": check_anchors,
    "extremes": check_subtree_extremes,
    "zigzag": check_zigzag_alternation,
    "penultimate": check_penultimate,
    "ballot": check_ballot,
    "forbidden": check_forbidden_order,
}
