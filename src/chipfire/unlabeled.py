"""Unlabeled chip-firing dynamics and their closed-form counts.

Start with N >= 1 indistinguishable chips on the root.  A vertex holding
at least 3 chips may fire: it sends one chip to each of its 3 neighbors.
The root's third neighbor is itself (self-loop), so a root fire is a net
loss of 2 chips there.  Firing order never changes the outcome: the final
configuration and every per-vertex fire tally are unique.

Closed forms are driven by the binary digits a_0..a_n of N + 1, where
n = floor(log2(N + 1)):

* the stable configuration puts c_i = a_i + 1 chips on every vertex of
  layer i + 1, for 0 <= i <= n - 1;
* every vertex on layer k + 1 fires f_k = sum_{j=1}^{n-k-1} (2^j - 1) *
  c_{k+j} times;
* the total number of fires is F(N) = sum_{k=1}^{n-1} ((k-1) 2^k + 1) c_k.

Arrays c and f are 0-indexed (entry k describes layer k + 1) throughout.
"""

from __future__ import annotations

import functools
import heapq
import random
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

__all__ = [
    "UnlabeledProfile",
    "UnlabeledState",
    "STRATEGIES",
    "profile",
    "binary_digits",
    "stable_chip_counts",
    "fires_per_layer",
    "root_fires_closed",
    "root_fires_recursive",
    "total_fires",
    "simulate",
    "MAX_GAME_CHIPS",
    "diff_root_fires",
    "diff_total_fires",
    "SEQUENCE_NAMES",
    "sequence",
]

STRATEGIES = ("lowest-index-first", "random", "highest-layer-first")
SEQUENCE_NAMES = ("f0", "F", "diff-f0", "diff-F")


# The most chips a game is played with (simulate() and the labeled games).
# A game of N chips keeps lists of 2^floor(log2(N + 1)) entries, here at
# most 2^23; the closed forms take any N.
MAX_GAME_CHIPS = 2**23 - 1


def _check_chips(n_chips: int) -> None:
    if not isinstance(n_chips, int) or n_chips < 1:
        raise ValueError(f"number of chips must be a positive integer, got {n_chips!r}")


def _check_game_chips(n_chips: int) -> None:
    _check_chips(n_chips)
    if n_chips > MAX_GAME_CHIPS:
        raise ValueError(f"a game is played with at most {MAX_GAME_CHIPS} chips, got {n_chips}")


def binary_digits(value: int) -> list[int]:
    """Binary digits of `value`, least significant first."""
    if value < 1:
        raise ValueError("value must be positive")
    return [(value >> k) & 1 for k in range(value.bit_length())]


def stable_chip_counts(n_chips: int) -> list[int]:
    """Per-layer chip count of the stable configuration, c_0..c_{n-1}."""
    _check_chips(n_chips)
    digits = binary_digits(n_chips + 1)
    return [a + 1 for a in digits[:-1]]


def fires_per_layer(n_chips: int) -> list[int]:
    """Per-layer fire tally f_0..f_{n-1} (f_k for every vertex on layer k+1)."""
    c = stable_chip_counts(n_chips)
    n = len(c)
    return [sum((2**j - 1) * c[k + j] for j in range(1, n - k)) for k in range(n)]


def root_fires_closed(n_chips: int) -> int:
    """Number of root fires, as the weighted sum over c_1..c_{n-1}."""
    c = stable_chip_counts(n_chips)
    return sum((2**j - 1) * c[j] for j in range(1, len(c)))


def root_fires_recursive(n_chips: int) -> int:
    """Number of root fires via the halving recursion.

    f0(N) = ceil(N/2) - 1 + f0(ceil(N/2) - 1), grounded at f0(N) = 0 for
    N <= 2 (fewer than 3 chips never fire).  Agrees with
    root_fires_closed for every N.
    """
    _check_chips(n_chips)
    total = 0
    while n_chips > 2:
        half = (n_chips + 1) // 2
        total += half - 1
        n_chips = half - 1
    return total


def total_fires(n_chips: int) -> int:
    """Total number of fires over the whole stabilization."""
    c = stable_chip_counts(n_chips)
    return sum(((k - 1) * 2**k + 1) * c[k] for k in range(1, len(c)))


def diff_root_fires(m: int) -> int:
    """Root-fire increment f0(2m+2) - f0(2m).

    Equals i when m = 2^i - 1 and i + 1 when the binary expansion of m
    ends with exactly i ones otherwise.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return root_fires_closed(2 * m + 2) - root_fires_closed(2 * m)


def diff_total_fires(m: int) -> int:
    """Total-fire increment F(2m+2) - F(2m); always of the form 2^d - d - 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return total_fires(2 * m + 2) - total_fires(2 * m)


@dataclass(frozen=True)
class UnlabeledProfile:
    """Everything the closed forms say about stabilizing n_chips chips."""

    n_chips: int
    n: int
    digits: list[int]
    chip_counts: list[int]
    fire_counts: list[int]
    root_fires: int
    total_fires: int

    def to_dict(self) -> dict:
        return asdict(self)


def profile(n_chips: int) -> UnlabeledProfile:
    _check_chips(n_chips)
    digits = binary_digits(n_chips + 1)
    f = fires_per_layer(n_chips)
    return UnlabeledProfile(
        n_chips=n_chips,
        n=len(digits) - 1,
        digits=digits,
        chip_counts=stable_chip_counts(n_chips),
        fire_counts=f,
        root_fires=f[0],
        total_fires=total_fires(n_chips),
    )


@dataclass
class UnlabeledState:
    """Final state of a simulation: nonzero cells and per-vertex fire tallies,
    both in ascending vertex order."""

    n_chips: int
    cells: dict[int, int]
    fired: dict[int, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.cells.values())


def _game(
    n_chips: int, strategy: str, rng: random.Random | None
) -> tuple[int, int, list, Callable[[int], None], Callable[[], int]]:
    """What both games share, for n_chips chips on the root: (size, cap, queue, push, pop).

    `size` = 2^floor(log2(N + 1)) is the length of the per-vertex lists:
    chips never pass layer n = floor(log2(N + 1)), whose vertices never
    fire, so every vertex they reach is below 2^n.  A game makes at most
    `cap` = 4*F(N) + 16 fires; one more is a runaway loop, raised as
    _over_cap instead of hanging.  `queue` holds the fireable vertices,
    starting with the root if it can fire; `push` adds a vertex and `pop`
    removes the one `strategy` picks (`random` draws from `rng`).
    """
    _check_game_chips(n_chips)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    size = 1 << ((n_chips + 1).bit_length() - 1)
    cap = 4 * total_fires(n_chips) + 16

    # Each fireable vertex is queued exactly once: a vertex loses chips only
    # by firing, so it stays fireable until the strategy picks it.
    queue: list = []
    if strategy == "lowest-index-first":
        push = functools.partial(heapq.heappush, queue)
        pop = functools.partial(heapq.heappop, queue)
    elif strategy == "highest-layer-first":

        def push(v: int) -> None:
            heapq.heappush(queue, (-v.bit_length(), v))

        def pop() -> int:
            return heapq.heappop(queue)[1]

    else:
        push = queue.append

        def pop() -> int:
            i = int(rng.random() * len(queue))
            queue[i], queue[-1] = queue[-1], queue[i]
            return queue.pop()

    if n_chips >= 3:
        push(1)
    return size, cap, queue, push, pop


def _over_cap(cap: int, n_chips: int) -> RuntimeError:
    return RuntimeError(
        f"game exceeded its step cap ({cap}) for n_chips={n_chips}; "
        "this indicates an internal error"
    )


def simulate(
    n_chips: int, strategy: str = "lowest-index-first", seed: int | None = None
) -> UnlabeledState:
    """Run the firing process to its stable configuration.

    Each pick fires one vertex until it holds fewer than 3 chips: k = c // 3
    times when it holds c chips, or k = (c - 1) // 2 times at the root, which
    keeps one chip of each fire.  Each neighbor receives its k chips at once.
    `strategy` picks which fireable vertex goes next; `random` draws
    uniformly from the fireable set with a generator seeded by `seed`.  By
    the abelian property neither the strategy nor the k fires in one pick
    change the result.  The step cap counts fires, not picks.  At most
    MAX_GAME_CHIPS chips are played with.
    """
    rng = random.Random(seed) if strategy == "random" else None
    size, cap, queue, push, pop = _game(n_chips, strategy, rng)
    cells = [0] * size
    fired = [0] * size
    cells[1] = n_chips
    fires = 0
    while queue:
        v = pop()
        c = cells[v]
        # the root's parent is itself: each root fire gives one chip back
        k = (c - 1) // 2 if v == 1 else c // 3
        cells[v] = c - 3 * k
        fired[v] += k
        fires += k
        if fires > cap:
            raise _over_cap(cap, n_chips)
        # the three neighbors, written out: a loop over them costs 15-20%
        u = v >> 1 or 1
        c = cells[u]
        cells[u] = c + k
        if c < 3 <= c + k:
            push(u)
        u = 2 * v
        c = cells[u]
        cells[u] = c + k
        if c < 3 <= c + k:
            push(u)
        u += 1
        c = cells[u]
        cells[u] = c + k
        if c < 3 <= c + k:
            push(u)
    return UnlabeledState(
        n_chips=n_chips,
        cells={v: k for v, k in enumerate(cells) if k},
        fired={v: k for v, k in enumerate(fired) if k},
    )


def sequence(name: str, count: int) -> list[int]:
    """First `count` terms (m = 1..count) of one of the even-argument series.

    f0:     root fires for 2m chips
    F:      total fires for 2m chips
    diff-f0: f0(2m+2) - f0(2m)
    diff-F:  F(2m+2) - F(2m)

    Odd arguments add nothing: neither count depends on the lowest binary
    digit of N + 1, so f0(2m-1) = f0(2m) and F(2m-1) = F(2m).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if name == "f0":
        return [root_fires_closed(2 * m) for m in range(1, count + 1)]
    if name == "F":
        return [total_fires(2 * m) for m in range(1, count + 1)]
    if name == "diff-f0":
        return [diff_root_fires(m) for m in range(1, count + 1)]
    if name == "diff-F":
        return [diff_total_fires(m) for m in range(1, count + 1)]
    raise ValueError(f"unknown sequence {name!r}; expected one of {SEQUENCE_NAMES}")
