"""Exact upper bounds on the number of stable configurations.

Everything here is integer arithmetic on Python ints (arbitrary
precision); no floating point enters any bound computation.  Two families
of counts are bounded for trees of 2^ell - 1 labeled chips: the number of
reachable stable configurations of the whole tree (Z) and the number of
relative chip orders a full subtree can carry (T).

Three bounds are provided:

* naive: permute everything except the chips with forced positions;
* zigzag: decompose the tree along an alternating root path, count its
  orderings with the zigzag permutation numbers, and recurse on the
  hanging subtrees;
* ballot: conditional on the conjecture that every left subtree is
  pointwise dominated by its right sibling, split chips between branches
  with Catalan-type counts.  All ballot figures inherit that caveat.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "factorial",
    "binomial",
    "multinomial",
    "catalan",
    "euler_zigzag",
    "a000295",
    "naive_bounds",
    "zigzag_subtree_factor",
    "zigzag_tree_factor",
    "zigzag_bound",
    "ballot_split_count",
    "ballot_bound",
    "METHODS",
    "CONDITIONAL",
    "BoundRow",
    "compare_table",
    "sci",
    "ell_cap",
]

DEFAULT_ELL_CAP = 16


def ell_cap() -> int:
    """Guard against astronomically large requests; CHIPFIRE_MAX_ELL overrides."""
    raw = os.environ.get("CHIPFIRE_MAX_ELL", str(DEFAULT_ELL_CAP))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CHIPFIRE_MAX_ELL must be an integer, got {raw!r}") from None


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of a negative number")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, 0 whenever k is outside 0..n.

    The out-of-range convention is load-bearing: the 3-layer ballot bound
    evaluates a binomial with negative lower index.
    """
    if n < 0:
        raise ValueError("binomial with negative upper index")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Ways to split n items into groups of the given sizes; parts must sum to n."""
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {list(parts)} sum to {sum(parts)}, expected {n}")
    out = 1
    rest = n
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("catalan of a negative number")
    return math.comb(2 * n, n) // (n + 1)


def euler_zigzag(n: int) -> int:
    """Number of alternating (up-down) permutations of n elements.

    Computed with the boustrophedon triangle: each row is the running sum
    of the previous row read backwards.  Stays below n! for n > 1.
    """
    if n < 0:
        raise ValueError("euler_zigzag of a negative number")
    row = [1]
    for _ in range(n):
        nxt = [0]
        for prev in reversed(row):
            nxt.append(nxt[-1] + prev)
        row = nxt
    return row[-1]


def a000295(n: int) -> int:
    """2^n - n - 1 (counts nonempty non-singleton subsets of an n-set)."""
    if n < 0:
        raise ValueError("a000295 of a negative number")
    return 2**n - n - 1


def naive_bounds(ell: int) -> tuple[int, int]:
    """Permutation bounds (T, Z): fix the forced chips, permute the rest.

    A subtree pins 3 chips, the whole tree pins 4, leaving (2^ell - 4)!
    and (2^ell - 5)! arrangements.
    """
    if ell < 3:
        raise ValueError("naive bounds need ell >= 3")
    return factorial(2**ell - 4), factorial(2**ell - 5)


def _descending_parts(ell: int, drop: int) -> list[int]:
    # sizes of the subtrees hanging off the root zigzag, minus their own
    # forced chips: the two largest lose `drop` chips each, smaller ones 1
    return [2 ** (ell - 1) - drop, 2 ** (ell - 2) - drop] + [
        2**j - 1 for j in range(ell - 3, 0, -1)
    ]


def _zigzag_factor(ell: int, free: int, drop: int) -> int:
    if ell < 4:
        raise ValueError("zigzag factors need ell >= 4")
    parts = _descending_parts(ell, drop)
    return euler_zigzag(ell) * binomial(free, ell) * multinomial(free - ell, parts)


def zigzag_subtree_factor(ell: int) -> int:
    """Per-level factor of the zigzag bound for a subtree with 2^ell - 1 chips.

    Orders on the root zigzag times ways to choose its chips times ways to
    distribute the remaining chips into the hanging subtrees.
    """
    return _zigzag_factor(ell, 2**ell - 3, 2)


def zigzag_tree_factor(ell: int) -> int:
    """Zigzag factor for the whole tree, where four chip positions are forced."""
    return _zigzag_factor(ell, 2**ell - 5, 3)


def zigzag_bound(ell: int) -> tuple[int, int]:
    """Zigzag-decomposition bounds (T, Z) for 2^ell - 1 chips, ell >= 4."""
    if ell < 4:
        raise ValueError("zigzag bound needs ell >= 4")
    power = 10 ** (2 ** (ell - 4))
    lower_levels = math.prod(
        zigzag_subtree_factor(i) ** (2 ** (ell - 1 - i)) for i in range(4, ell)
    )
    return (
        power * zigzag_subtree_factor(ell) * lower_levels,
        power * zigzag_tree_factor(ell) * lower_levels,
    )


def ballot_split_count(ell: int) -> int:
    """Ways to split the tree's chips between the root's branches.

    Counts vote sequences of length 2^ell - 2 that start with two left
    votes, end with two right votes, give each side 2^(ell-1) - 1 votes,
    and keep the left side never behind on any prefix.
    """
    if ell < 3:
        raise ValueError("ballot split count needs ell >= 3")
    return binomial(2**ell - 6, 2 ** (ell - 1) - 3) - binomial(2**ell - 6, 2 ** (ell - 1) - 6)


def ballot_bound(ell: int) -> tuple[int, int]:
    """Ballot-property bounds (T, Z) for 2^ell - 1 chips, ell >= 3.

    Conditional: valid only if every stable configuration satisfies the
    left-right domination property at all subtrees.
    """
    if ell < 3:
        raise ValueError("ballot bound needs ell >= 3")
    power = 10 ** (2 ** (ell - 3))
    t_bound = power * math.prod(
        ((2 ** (ell - i) - 4) * catalan(2 ** (ell - i - 1) - 1)) ** (2**i)
        for i in range(ell - 3)
    )
    z_bound = (
        (2**ell - 7)
        * ballot_split_count(ell)
        * power
        * math.prod(
            ((2 ** (ell - 1 - i) - 4) * catalan(2 ** (ell - i - 2) - 1)) ** (2 ** (i + 1))
            for i in range(ell - 4)
        )
    )
    return t_bound, z_bound


# the bounds by name, in the order every table and listing prints them
METHODS = {"naive": naive_bounds, "zigzag": zigzag_bound, "ballot": ballot_bound}
# the methods whose figures hold only if the left-right domination conjecture does
CONDITIONAL = ("ballot",)


@dataclass(frozen=True)
class BoundRow:
    """One comparison row: all six exact bound values for a given ell."""

    ell: int
    naive_t: int
    naive_z: int
    zigzag_t: int
    zigzag_z: int
    ballot_t: int
    ballot_z: int

    def flags(self) -> dict[str, bool]:
        """Exact-integer ordering checks between the bounds."""
        out = {
            "zigzag_z_below_t": self.zigzag_z < self.zigzag_t,
            "ballot_z_below_t": self.ballot_z < self.ballot_t,
        }
        if self.ell >= 5:
            reference = factorial(2**self.ell - 7)
            out["zigzag_z_below_restricted_factorial"] = self.zigzag_z < reference
            out["ballot_z_below_restricted_factorial"] = self.ballot_z < reference
        return out


def compare_table(ells: Iterable[int]) -> list[BoundRow]:
    """Exact bound rows for each requested ell (each must be >= 4)."""
    rows = []
    for ell in ells:
        if ell < 4:
            raise ValueError("comparison table rows need ell >= 4")
        rows.append(BoundRow(ell, *(value for bound in METHODS.values() for value in bound(ell))))
    return rows


def sci(value: int, sig: int = 2) -> str:
    """Scientific notation for an exact integer, rounded half-even.

    sci(39916800) == '4.0e7'; used to render table cells the way the
    reference table displays them.
    """
    if value < 0:
        raise ValueError("sci expects a nonnegative integer")
    if value == 0:
        return "0.0e0"
    # (bits - 1) * log10(2) floors to exp or exp - 1; str(value) would be
    # quadratic, and Python >= 3.11 refuses it past 4,300 digits
    exp = int((value.bit_length() - 1) * math.log10(2))
    if value >= 10 ** (exp + 1):
        exp += 1
    shift = exp - sig + 1
    if shift <= 0:
        mant = value * 10**-shift
    else:
        mant, rem = divmod(value, 10**shift)
        double = 2 * rem
        if double > 10**shift or (double == 10**shift and mant % 2 == 1):
            mant += 1
    if mant == 10**sig:
        mant //= 10
        exp += 1
    digits = str(mant)
    return f"{digits[0]}.{digits[1:]}e{exp}"
