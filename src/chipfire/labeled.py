"""Labeled chip-firing: distinguishable chips and the triple-firing rule.

Chips carry labels 1..N.  A vertex with at least 3 chips fires by picking
3 of them; the smallest goes to the left child, the largest to the right
child, and the middle one to the parent (back onto the root itself when
the root fires).  Unlike the unlabeled game, the choice of triples changes
which stable configuration is reached, so there can be many endpoints;
only the per-vertex chip counts are forced.
"""

from __future__ import annotations

import json
import random
from bisect import insort
from dataclasses import dataclass

from . import unlabeled

__all__ = [
    "LabeledConfig",
    "POLICIES",
    "initial_config",
    "fire",
    "run_policy",
    "run_policy_traced",
]

POLICIES = ("min-triple", "max-triple", "random")


@dataclass(frozen=True)
class LabeledConfig:
    """A placement of chips 1..n_chips on tree vertices.

    `cells` maps a vertex to the ascending list of labels sitting on it;
    vertices without chips are absent.  Instances are treated as
    immutable: fire() builds a new one.
    """

    n_chips: int
    cells: dict[int, list[int]]

    def validate(self) -> None:
        seen: list[int] = []
        # vertices and labels are ints by type: True == 1 and 2.0 == 2, and bool is an int
        for v, labels in self.cells.items():
            if type(v) is not int or v < 1:
                raise ValueError(f"bad vertex {v!r}")
            if labels != sorted(labels):
                raise ValueError(f"labels at vertex {v} are not ascending: {labels}")
            seen.extend(labels)
        if {*map(type, seen)} - {int}:
            raise ValueError(f"labels are not all integers: {seen}")
        # checked before the range is built: a forged n_chips must not size it
        if type(self.n_chips) is not int or self.n_chips != len(seen):
            raise ValueError(f"n_chips {self.n_chips!r} is not the label count {len(seen)}")
        if sorted(seen) != list(range(1, self.n_chips + 1)):
            raise ValueError("labels are not exactly 1..n_chips")

    def is_stable(self) -> bool:
        return all(len(labels) <= 2 for labels in self.cells.values())

    def shadow(self) -> dict[int, int]:
        """Per-vertex chip counts (the unlabeled view)."""
        return {v: len(labels) for v, labels in sorted(self.cells.items())}

    def to_dict(self) -> dict:
        """The JSON object form: cells as a list sorted by vertex."""
        return {
            "n_chips": self.n_chips,
            "cells": [
                {"v": v, "chips": list(labels)} for v, labels in sorted(self.cells.items())
            ],
        }

    def canonical_json(self) -> str:
        """Byte-exact serialization used as the deduplication key."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str | bytes) -> "LabeledConfig":
        obj = json.loads(text)
        cfg = cls(
            n_chips=obj["n_chips"],
            cells={entry["v"]: list(entry["chips"]) for entry in obj["cells"]},
        )
        cfg.validate()
        return cfg


def initial_config(n_chips: int) -> LabeledConfig:
    """All chips 1..n_chips stacked on the root; at most unlabeled.MAX_GAME_CHIPS."""
    unlabeled._check_game_chips(n_chips)
    return LabeledConfig(n_chips=n_chips, cells={1: list(range(1, n_chips + 1))})


def fire(config: LabeledConfig, v: int, triple: tuple[int, int, int]) -> LabeledConfig:
    """Fire vertex v, dispersing the given 3 labels.

    The triple is an unordered 3-subset of the labels at v; routing is by
    relative size only.
    """
    labels = config.cells.get(v, [])
    if len(labels) < 3:
        raise ValueError(f"vertex {v} holds {len(labels)} chips; firing needs 3")
    chosen = sorted(set(triple))
    if len(chosen) != 3 or any(t not in labels for t in chosen):
        raise ValueError(f"triple {triple!r} is not a 3-subset of the chips at vertex {v}")

    small, mid, large = chosen
    pv = v >> 1 if v > 1 else v  # middle chip returns to the root via its self-loop
    cells = {u: list(ls) for u, ls in config.cells.items()}
    remaining = [t for t in cells[v] if t not in (small, mid, large)]
    if remaining:
        cells[v] = remaining
    else:
        del cells[v]
    for label, dest in ((small, 2 * v), (mid, pv), (large, 2 * v + 1)):
        bucket = cells.setdefault(dest, [])
        bucket.append(label)
        bucket.sort()
    return LabeledConfig(n_chips=config.n_chips, cells=cells)


def _three_indices(rng: random.Random, n: int) -> list[int]:
    """sorted(rng.sample(range(n), 3)), drawn as sample draws it.

    The same steps written with randrange take the same draws from `rng`
    without sample's per-call overhead.
    """
    draw = rng.randrange
    if n <= 21:
        # sample's pool of range(n): each drawn slot is refilled from the
        # pool's last one, so i's slot then holds n - 1 and j's holds `refill`
        i = draw(n)
        j = draw(n - 1)
        k = draw(n - 2)
        refill = n - 1 if i == n - 2 else n - 2
        return sorted((i, n - 1 if j == i else j, refill if k == j else n - 1 if k == i else k))
    # sample redraws an index it has already drawn
    i = draw(n)
    j = draw(n)
    while j == i:
        j = draw(n)
    k = draw(n)
    while k == i or k == j:
        k = draw(n)
    return sorted((i, j, k))


def run_policy_traced(
    n_chips: int, policy: str = "min-triple", seed: int | None = None
) -> tuple[LabeledConfig, dict[int, int]]:
    """Like run_policy, but also returns the per-vertex fire tallies.

    One fire per step, on the unlabeled game's lowest-index-first queue:
    each vertex keeps one ascending label list, changed in place.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    rng = random.Random(seed) if policy == "random" else None
    size, cap, queue, push, pop = unlabeled._game(n_chips, "lowest-index-first", None)
    cells: list[list[int]] = [[] for _ in range(size)]
    cells[1] = list(range(1, n_chips + 1))
    fired = [0] * size
    fires = 0
    while queue:
        if fires == cap:
            raise unlabeled._over_cap(cap, n_chips)
        v = pop()
        here = cells[v]
        if policy == "min-triple":
            small, mid, large = here[:3]
            del here[:3]
        elif policy == "max-triple":
            small, mid, large = here[-3:]
            del here[-3:]
        else:
            # sampling indices draws what sampling the labels would
            i, j, k = _three_indices(rng, len(here))
            small, mid, large = here[i], here[j], here[k]
            del here[k], here[j], here[i]
        fires += 1
        fired[v] += 1
        if len(here) >= 3:
            push(v)
        # middle chip returns to the root via its self-loop
        for u, label in ((v >> 1 or 1, mid), (2 * v, small), (2 * v + 1, large)):
            there = cells[u]
            insort(there, label)
            if len(there) == 3:
                push(u)
    config = LabeledConfig(n_chips=n_chips, cells={v: ls for v, ls in enumerate(cells) if ls})
    return config, {v: k for v, k in enumerate(fired) if k}


def run_policy(n_chips: int, policy: str = "min-triple", seed: int | None = None) -> LabeledConfig:
    """Play a full game, always firing the lowest-index fireable vertex.

    The policy only decides which 3 chips that vertex disperses.  The
    number of fires performed is F(n_chips) no matter what.
    """
    config, _ = run_policy_traced(n_chips, policy, seed)
    return config
