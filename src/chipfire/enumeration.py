"""Exhaustive enumeration of reachable labeled stable configurations.

Starting from 2^ell - 1 chips on the root, the search walks the game tree
breadth first.  Every path to stability uses exactly F(2^ell - 1) fires,
so all states sit at a well-defined depth (the number of fires performed
so far is a function of the state itself), states can never recur at a
later depth, and per-level deduplication is equivalent to a global
visited set while only two frontiers stay in memory.

States are encoded as `bytes` of length N: byte i holds the vertex
carrying chip i + 1.  Chips never descend past layer ell (the bottom
layer never fires), so vertex numbers stay below 2^ell and the encoding
is bijective with the canonical JSON of labeled configurations; deduping
on one is deduping on the other.

`full` mode branches over every (vertex, triple) choice; `scheduled` mode
always fires the lowest-index fireable vertex and branches over triples
only.  Scheduled mode agrees with full mode for up to 3 layers (6 of 6
stable configurations) but is incomplete beyond that: at 4 layers it
reaches 20,006 of the 36,220 stable configurations, so it is a cheap
lower-bound probe, not a substitute for the full search.

The tree with its root self-loop is left-right symmetric: reflecting it
and relabelling chip i as N + 1 - i maps every game to a game.  So full
mode keeps only the smaller state of each mirror pair, its orbit's
representative; the successors of a state's mirror are the mirrors of its
successors.  Every count the search reports (frontier sizes, explored
states, the peak frontier) is in unreduced states, and the stable level is
expanded back into whole orbits, so corpora do not depend on the
quotient.  Scheduled mode fires the lowest-index vertex first, which the
mirror does not preserve, so it keeps every state.

A state's shadow, the number of chips on each vertex, decides which
vertices can fire and how often each has fired (the game is abelian).  So
each level is kept as a dict from shadow to the states that have it: the
fireable vertices, the successors' shadows and the fire-vector check are
worked out once per shadow, not once per state.

Within a group, the states that hold the same chips on the firing vertex
v take the same picks, and a pick adds the same number to every one of
them read as a big-endian int: the sum of (dest - v) * 256^(n - 1 - p)
over the chips it moves, p being a chip's byte.  So each such subgroup is
read as ints once, and all its picks are applied to all its states in one
C-level pass that writes the successors back as `bytes` into the level's
set.  The mirror quotient happens in the same pass: mirror(x + delta) is
mirror(x) plus the mirrored move, the smaller of the two is the
representative, and which side is smaller says whose shadow it has.  No
dedup is needed within a subgroup: states with the same chips on v that
differ keep their difference after any pick, and two picks move different
chips, so equal successors imply the same state and the same pick; the set
only merges successors that come from different subgroups.  States stay
`bytes` everywhere else.

Corpora and checkpoints share one record format: a JSON header line
carrying the sha256 of the body, then one sorted record per line.  A
checkpoint body holds one representative per line in full mode, so
checkpoints have a version of their own.
"""

from __future__ import annotations

import binascii
import contextlib
import functools
import hashlib
import itertools
import json
import operator
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator

from . import unlabeled
from .checks import relative_order_key
from .labeled import LabeledConfig

__all__ = [
    "StableSet",
    "CorpusError",
    "EnumerationPaused",
    "enumerate_stable",
    "extract_subtree_orders",
    "save",
    "load",
    "write_checkpoint",
    "read_checkpoint",
]

CORPUS_FORMAT = "chipfire-stable-set"
CHECKPOINT_FORMAT = "chipfire-checkpoint"
# version 2 checkpoints hold mirror representatives in full mode; a
# version 1 body would resume with half of its orbits missing
VERSIONS = {CORPUS_FORMAT: 1, CHECKPOINT_FORMAT: 2}

MODES = ("full", "scheduled")

# body lines encoded at a time: every encoded chunk is held until the header is
# written, so this only avoids a whole-body str beside its encoded copy
_CHUNK_LINES = 1 << 16


class CorpusError(ValueError):
    """A stable-set or checkpoint file could not be read, written or validated."""


class EnumerationPaused(RuntimeError):
    """The search stopped before completion; a checkpoint was written."""

    def __init__(self, reason: str, checkpoint_path: str | None, depth: int, frontier: int):
        super().__init__(
            f"enumeration paused at depth {depth} (frontier {frontier}): {reason}"
            + (f"; checkpoint written to {checkpoint_path}" if checkpoint_path else "")
        )
        self.reason = reason
        self.checkpoint_path = checkpoint_path
        self.depth = depth
        self.frontier = frontier


@dataclass
class StableSet:
    """Deduplicated stable configurations reached from 2^ell - 1 root chips."""

    ell: int
    configs: list[LabeledConfig]
    # mode, explored_states and max_frontier, in the order `enumerate --json` prints them
    meta: dict = field(default_factory=dict)
    # the canonical JSON of each config, built once; `configs` is not changed after
    _keys: list[str] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.configs)

    def canonical_keys(self) -> list[str]:
        if self._keys is None:
            self._keys = [c.canonical_json() for c in self.configs]
        return self._keys


# ---------------------------------------------------------------------------
# states


def _cells_of(state: bytes) -> dict[int, list[int]]:
    cells: dict[int, list[int]] = {}
    for idx, v in enumerate(state):
        cells.setdefault(v, []).append(idx + 1)
    return cells


# the mirror of vertex v on layer k, 3 * 2^(k-1) - 1 - v, sits as far from
# the other end of layer k; one table serves every ell up to 8
_MIRROR = bytes([0] + [3 * (1 << (v.bit_length() - 1)) - 1 - v for v in range(1, 256)])


def _mirror(state: bytes) -> bytes:
    """The mirror image of `state`: the tree reflected, chip i relabelled N + 1 - i."""
    return state[::-1].translate(_MIRROR)


def _shadow(state: bytes) -> bytes:
    """How many chips each vertex of `state` holds, indexed by vertex (entry 0 unused)."""
    return bytes(map(state.count, range(len(state) + 1)))


def _orbit_count(states: Collection[bytes], mode: str) -> int:
    """How many states `states` stands for: two per mirror pair in full mode."""
    if mode != "full":
        return len(states)
    return 2 * len(states) - sum(1 for s in states if s == _mirror(s))


def _fire_vector(shadow: bytes) -> list[int] | None:
    """How often each vertex has fired to reach a state with `shadow`.

    The game is abelian and chips never pass layer ell, so a bottom vertex
    w holds f(parent w) chips, and going up the tree
    f(parent v) = chips(v) - f(2v) - f(2v + 1) + 3 f(v).  Returns the list
    indexed by vertex (entry 0 unused), or None when two siblings disagree
    on their parent, so that no reachable state has this shadow.  The
    shadow covers vertices 0..2^ell - 1.  Then the root equation
    chips(1) = N - 2 f(1) + f(2) + f(3) follows from the others, as the
    chips sum to N, and f never decreases going up, so f >= 0.
    """
    size = len(shadow)  # 2^ell
    fires = [0] * (2 * size)  # the bottom layer never fires
    for v in range(size - 1, 1, -1):
        up = shadow[v] - fires[2 * v] - fires[2 * v + 1] + 3 * fires[v]
        if v & 1:
            fires[v >> 1] = up
        elif up != fires[v >> 1]:
            return None
    return fires[:size]


def _check_fire_vectors(shadows: Iterable[bytes], depth: int, budgets: list[int]) -> None:
    """Raise unless every shadow's fire vector accounts for exactly `depth`
    fires, none over its vertex's budget."""
    for shadow in shadows:
        fires = _fire_vector(shadow)
        if fires is None or sum(fires) != depth or any(map(int.__gt__, fires, budgets)):
            raise AssertionError(
                f"shadow {shadow.hex()} at depth {depth} has fire vector {fires}, "
                f"budgets {budgets}"
            )


@functools.lru_cache(maxsize=None)
def _move_tables(n: int, v: int) -> tuple[tuple[int, ...], tuple, tuple]:
    """Where a fire of v sends its three chips, and what each move adds to an
    n-chip state read as a big-endian int and to its mirror's int.

    The destinations are the left child, up and the right child; the
    middle chip of a root fire stays on the root.  Entry [k][p] of either
    table is for the chip on byte p going to destination k.  Byte p weighs
    256^(n - 1 - p), and the mirror carries it to byte n - 1 - p.
    """
    weights = [1 << 8 * p for p in range(n)][::-1]
    dests = (2 * v, v >> 1 or v, 2 * v + 1)
    tables = tuple(tuple((d - v) * w for w in weights) for d in dests)
    mirror_tables = tuple(
        tuple((_MIRROR[d] - _MIRROR[v]) * w for w in reversed(weights)) for d in dests
    )
    return dests, tables, mirror_tables


def _moves(tables: tuple, picks: list[tuple[int, int, int]], xs: Iterable[int]) -> Iterator[int]:
    """Every pick (a, b, c) of chip bytes applied to every state int in `xs`."""
    left, up, right = tables
    deltas = [left[a] + up[b] + right[c] for a, b, c in picks]
    return itertools.starmap(operator.add, itertools.product(deltas, xs))


def _expand_batch(
    args: tuple[bytes, Collection[bytes], str, int], level: dict[bytes, set[bytes]] | None = None
) -> dict[bytes, set[bytes]]:
    """The successors of `states`, which all have `shadow` and sit at `depth`,
    below the stabilization depth, keyed by their shadow and merged into `level`.

    In full mode the successors are mirror representatives.  Every path
    takes F(N) fires, so a stable shadow here cannot be reached: it raises.
    """
    shadow, states, mode, depth = args
    level = {} if level is None else level
    fireable = [v for v, chips in enumerate(shadow) if chips >= 3]
    if not fireable:
        raise AssertionError(f"stable state {next(iter(states)).hex()} at depth {depth}")
    if mode == "scheduled":
        del fireable[1:]
    n, full = len(shadow) - 1, mode == "full"
    big, little, width = itertools.repeat("big"), itertools.repeat("little"), itertools.repeat(n)
    for v in fireable:
        dests, tables, mirror_tables = _move_tables(n, v)
        moved = bytearray(shadow)
        moved[v] -= 3
        for dest in dests:
            moved[dest] += 1
        child = bytes(moved)
        # a representative that is a mirror has the mirrored shadow
        mirrored = bytes(map(child.__getitem__, _MIRROR[: n + 1])) if full else child
        kept, swapped = level.setdefault(child, set()), level.setdefault(mirrored, set())
        # states with the same chips on v take the same picks
        on_v = bytes(v) + b"\x01" + bytes(255 - v)
        subgroups: dict[bytes, list[bytes]] = {}
        for state, chips in zip(states, map(bytes.translate, states, itertools.repeat(on_v))):
            subgroups.setdefault(chips, []).append(state)
        for chips, members in subgroups.items():
            pos = list(itertools.compress(range(n), chips))
            if v == 1:
                # the pick is a pair (a, c) with a chip between them
                picks = [(a, pos[j + 1], c) for j, a in enumerate(pos) for c in pos[j + 2 :]]
            else:
                picks = list(itertools.combinations(pos, 3))
            ys = _moves(tables, picks, map(int.from_bytes, members, big))
            if not full:
                kept.update(map(int.to_bytes, ys, width, big))
                continue
            # mirror(x + delta) = mirror(x) + mirrored delta; a mirror read
            # big-endian is the translated state read little-endian
            mirrors = map(bytes.translate, members, itertools.repeat(_MIRROR))
            ms = _moves(mirror_tables, picks, map(int.from_bytes, mirrors, little))
            if swapped is kept:
                kept.update(map(int.to_bytes, map(min, ys, ms), width, big))
                continue
            # the representative is the smaller one, under its own shadow
            ys, ms = list(ys), list(ms)
            lower = list(map(int.__lt__, ys, ms))
            kept.update(map(int.to_bytes, itertools.compress(ys, lower), width, big))
            swapped.update(
                map(int.to_bytes, itertools.compress(ms, map(operator.not_, lower)), width, big)
            )
        for key in {child, mirrored}:
            if not level[key]:
                del level[key]
    return level


def _unpack(packed: bytes, n_chips: int) -> Iterator[bytes]:
    return (packed[i : i + n_chips] for i in range(0, len(packed), n_chips))


def _expand_packed(args: tuple[bytes, bytes, int, str, int]) -> dict[bytes, bytes]:
    """_expand_batch in a worker process, with the states of each shadow packed
    into one bytes object.

    One object pickles without a per-state memo entry, and the main
    process unpacks the successors one at a time into its level's sets, so
    states that another batch already produced are freed at once instead
    of piling up and fragmenting the main process's heap.
    """
    shadow, packed, n_chips, mode, depth = args
    level = _expand_batch((shadow, list(_unpack(packed, n_chips)), mode, depth))
    return {child: b"".join(states) for child, states in level.items()}


# ---------------------------------------------------------------------------
# search


def enumerate_stable(
    ell: int,
    mode: str = "full",
    workers: int = 1,
    checkpoint_path: str | None = None,
    checkpoint_every: float = 60.0,
    resume_path: str | None = None,
    max_seconds: float | None = None,
    max_frontier: int | None = None,
    progress: bool = False,
) -> StableSet:
    """Enumerate every reachable stable configuration for 2^ell - 1 chips.

    Raises EnumerationPaused (after writing a checkpoint when a path was
    given) if `max_seconds` or `max_frontier` (in unreduced states) is
    exceeded; pass the checkpoint to `resume_path` to continue.  With
    `workers` > 1, every level is expanded in a pool of at most one
    process per CPU.  Every path stabilizes after exactly F(2^ell - 1)
    fires, so the level at that depth is the stable set.  Each level is
    kept keyed by shadow, and the fire vector of every shadow on every
    level, the last one included, is checked, after a resume too.  A
    resumed frontier that breaks an invariant of the search raises
    CorpusError.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > 8:
        raise ValueError("enumeration is limited to ell <= 8 (state encoding and sanity)")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # more processes than CPUs only add memory and pickling; results never depend on it
    workers = min(workers, os.cpu_count() or 1)

    n_chips = 2**ell - 1
    target_depth = unlabeled.total_fires(n_chips)
    per_layer = unlabeled.fires_per_layer(n_chips)
    budgets = [0] + [per_layer[v.bit_length() - 1] for v in range(1, n_chips + 1)]

    if resume_path is not None:
        depth, states, explored, max_seen = read_checkpoint(resume_path, ell, mode)
    else:
        depth, states, explored, max_seen = 0, [bytes([1]) * n_chips], 0, 1
    size = _orbit_count(states, mode)
    # the level keyed by shadow; `states` is grouped only before its first check,
    # so a resumed search that pauses at once writes the sorted list it read
    frontier: dict[bytes, Collection[bytes]] | None = None

    def level() -> Iterable[bytes]:
        return states if frontier is None else itertools.chain.from_iterable(frontier.values())

    started = time.monotonic()
    last_checkpoint = started
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None

    def pause(reason: str) -> EnumerationPaused:
        if checkpoint_path is not None:
            write_checkpoint(checkpoint_path, ell, mode, depth, level(), explored, max_seen)
        return EnumerationPaused(reason, checkpoint_path, depth, size)

    try:
        while True:
            if max_seconds is not None and time.monotonic() - started > max_seconds:
                raise pause("time budget exhausted")
            if max_frontier is not None and size > max_frontier:
                raise pause("frontier size limit exceeded")
            if (
                checkpoint_path is not None
                and time.monotonic() - last_checkpoint >= checkpoint_every
            ):
                write_checkpoint(checkpoint_path, ell, mode, depth, level(), explored, max_seen)
                last_checkpoint = time.monotonic()
            if progress:
                print(
                    f"depth {depth}/{target_depth}: frontier {size} "
                    f"explored {explored} elapsed {time.monotonic() - started:.0f}s",
                    file=sys.stderr,
                    flush=True,
                )
            if frontier is None:
                frontier = {}
                for state in states:
                    frontier.setdefault(_shadow(state), []).append(state)
                states = []
            _check_fire_vectors(frontier, depth, budgets)
            if depth == target_depth:
                break

            next_frontier: dict[bytes, Collection[bytes]] = {}
            if pool is not None:
                # every group is a sorted list here; neighbours in byte order share
                # their low-label chips and many successors, so contiguous batches
                # dedup those in the worker
                chunk = max(1, sum(map(len, frontier.values())) // (workers * 8))
                # a generator: map() submits every batch at once, and no list keeps
                # a batch alive once its result is back
                batches = (
                    (shadow, b"".join(group[i : i + chunk]), n_chips, mode, depth)
                    for shadow, group in frontier.items()
                    for i in range(0, len(group), chunk)
                )
                for result in pool.map(_expand_packed, batches):
                    for child, packed in result.items():
                        next_frontier.setdefault(child, set()).update(_unpack(packed, n_chips))
                # a sorted list takes a fraction of a set's memory while the level waits
                for child, group in next_frontier.items():
                    next_frontier[child] = sorted(group)
            else:
                for shadow, group in frontier.items():
                    _expand_batch((shadow, group, mode, depth), next_frontier)
            explored += size
            frontier = next_frontier
            size = sum(_orbit_count(group, mode) for group in frontier.values())
            max_seen = max(max_seen, size)
            depth += 1
        explored += size
        # raised, not asserted: python -O must not resume a forged frontier
        if any(max(shadow) >= 3 for shadow in frontier):
            raise AssertionError("search ran past the fixed stabilization depth")
    except MemoryError:
        raise pause("out of memory") from None
    except AssertionError as exc:
        if resume_path is None:
            raise
        raise CorpusError(f"{resume_path}: resumed frontier is not reachable: {exc}") from exc
    finally:
        if pool is not None:
            pool.shutdown()

    stable = level()
    if mode == "full":
        stable = {m for s in stable for m in (s, _mirror(s))}
    # each config's canonical JSON is built once: it orders the set and save() writes it
    configs = [LabeledConfig(n_chips, dict(sorted(_cells_of(s).items()))) for s in stable]
    keyed = sorted(zip(map(LabeledConfig.canonical_json, configs), configs))
    result = StableSet(
        ell=ell,
        configs=[config for _, config in keyed],
        meta={"mode": mode, "explored_states": explored, "max_frontier": max_seen},
    )
    result._keys = [key for key, _ in keyed]
    return result


def extract_subtree_orders(stable_set: StableSet, depth: int) -> set[str]:
    """Distinct relative orders on bottom-anchored subtrees of `depth` layers.

    Scans, in every configuration, each subtree whose root sits on layer
    ell - depth + 1 (so its bottom coincides with the tree's bottom layer)
    and collects the canonical order signatures.
    """
    ell = stable_set.ell
    if not 1 <= depth <= ell:
        raise ValueError(f"depth must be in 1..{ell}, got {depth}")
    top = ell - depth + 1
    roots = range(2 ** (top - 1), 2**top)
    return {
        relative_order_key(config, root, depth)
        for config in stable_set.configs
        for root in roots
    }


# ---------------------------------------------------------------------------
# persistence


def _write_records(path: str, fmt: str, fields: dict, lines: Iterable[str]) -> None:
    """Atomically write a header (with the body's sha256), then the sorted `lines`."""
    lines, chunks, digest = iter(lines), [], hashlib.sha256()
    while batch := list(itertools.islice(lines, _CHUNK_LINES)):
        chunks.append(("\n".join(batch) + "\n").encode())
        digest.update(chunks[-1])
    header = {"format": fmt, "version": VERSIONS[fmt], **fields, "sha256": digest.hexdigest()}
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
            handle.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):  # a partial file, if the write got that far
            os.remove(tmp)
        raise CorpusError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _read_records(path: str, fmt: str, parse, count_key: str, *int_keys: str, **expected):
    """Read a file written by _write_records: its header and its body lines, parsed.

    Checks format, version, the `expected` header values, the integer
    fields and the counters the header has, the line count and the
    checksum.  Every failure, an unreadable file included, raises
    CorpusError naming the line where there is one.
    """
    try:
        with open(path, "rb") as handle:
            head, body = handle.readline(), handle.read()
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        header = json.loads(head)
    except ValueError as exc:
        raise CorpusError(f"{path}: line 1: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise CorpusError(f"{path}: line 1: not a {fmt} file")
    if header.get("version") != VERSIONS[fmt]:
        raise CorpusError(
            f"{path}: version mismatch: file has {header.get('version')}, "
            f"supported is {VERSIONS[fmt]}"
        )
    for key, value in expected.items():
        if header.get(key) != value:
            raise CorpusError(f"{path}: file has {key}={header.get(key)}, requested {key}={value}")
    # the checksum covers the body only; a search counter may be absent
    counters = [key for key in ("explored_states", "max_frontier") if key in header]
    for key in (count_key, *int_keys, *counters):
        if type(header.get(key)) is not int:
            raise CorpusError(f"{path}: line 1: header needs an integer {key!r}")
    lines = body.splitlines()
    if len(lines) != header[count_key]:
        raise CorpusError(
            f"{path}: header {count_key} {header[count_key]} != body line count {len(lines)}"
        )
    if hashlib.sha256(body).hexdigest() != header.get("sha256"):
        raise CorpusError(f"{path}: checksum mismatch")
    records = []
    for i, line in enumerate(lines, start=2):
        try:
            records.append(parse(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise CorpusError(f"{path}: line {i}: bad record: {exc}") from exc
    return header, records


def save(stable_set: StableSet, path: str) -> None:
    """Write a stable set as a JSON-lines corpus: header, then one config per line."""
    # linear when the keys are already in order, as enumerate_stable leaves them
    lines = sorted(stable_set.canonical_keys())
    fields = {
        "ell": stable_set.ell,
        "count": len(lines),
        "mode": stable_set.meta.get("mode", "full"),
        "explored_states": stable_set.meta.get("explored_states", 0),
        "max_frontier": stable_set.meta.get("max_frontier", 0),
    }
    _write_records(path, CORPUS_FORMAT, fields, lines)


def load(path: str) -> StableSet:
    """Read a corpus written by save(), validating structure, count, and checksum."""
    header, configs = _read_records(path, CORPUS_FORMAT, LabeledConfig.from_json, "count", "ell")
    ell = header["ell"]
    for line, config in enumerate(configs, start=2):
        # bit_length first, so that 2**ell is only computed for a small ell
        if config.n_chips.bit_length() != ell or config.n_chips != 2**ell - 1:
            raise CorpusError(f"{path}: line {line}: {config.n_chips} chips, not 2^{ell} - 1")
    return StableSet(
        ell=ell,
        configs=configs,
        meta={
            "mode": header.get("mode", "full"),
            "explored_states": header.get("explored_states", 0),
            "max_frontier": header.get("max_frontier", 0),
        },
    )


def write_checkpoint(
    path: str,
    ell: int,
    mode: str,
    depth: int,
    frontier: Iterable[bytes],
    explored: int,
    max_seen: int,
) -> None:
    """Write the frontier as the search keeps it: mirror representatives in full mode.

    `frontier_count` is the number of body lines; `explored` and
    `max_seen` are in unreduced states.
    """
    # states have one length, so their byte order is the order of their hex; a
    # frontier made of sorted runs, as a resumed one is, sorts in about linear time
    states = sorted(frontier)
    fields = {
        "ell": ell,
        "mode": mode,
        "depth": depth,
        "frontier_count": len(states),
        "explored_states": explored,
        "max_frontier": max_seen,
    }
    _write_records(path, CHECKPOINT_FORMAT, fields, map(bytes.hex, states))


def read_checkpoint(path: str, ell: int, mode: str) -> tuple[int, list[bytes], int, int]:
    """Read a checkpoint written by write_checkpoint(): depth, frontier, explored, max_seen.

    The frontier is the body's states in their order, which must be
    strictly ascending, as write_checkpoint() leaves it: a repeated state
    would be counted twice.  In full mode every state must be the smaller
    of its mirror pair.
    """
    n_chips = 2**ell - 1
    vertices = bytes(range(1, n_chips + 1))

    def parse(line: bytes) -> bytes:
        state = binascii.unhexlify(line)
        if len(state) != n_chips or state.translate(None, vertices):
            raise ValueError(f"not a state of {n_chips} chips on vertices 1..{n_chips}")
        if mode == "full" and _mirror(state) < state:
            raise ValueError("not the smaller state of its mirror pair")
        return state

    header, states = _read_records(
        path, CHECKPOINT_FORMAT, parse, "frontier_count", "depth", ell=ell, mode=mode
    )
    if not states:
        raise CorpusError(f"{path}: checkpoint frontier is empty")
    for line, (before, state) in enumerate(itertools.pairwise(states), start=3):
        if state <= before:
            raise CorpusError(f"{path}: line {line}: state is not above the one before it")
    target = unlabeled.total_fires(n_chips)
    if not 0 <= header["depth"] <= target:
        raise CorpusError(f"{path}: line 1: depth {header['depth']} is outside 0..{target}")
    explored = header.get("explored_states", 0)
    max_seen = header.get("max_frontier", len(states))
    return header["depth"], states, explored, max_seen
