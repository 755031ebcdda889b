"""Exhaustive enumeration of reachable labeled stable configurations.

Starting from 2^ell - 1 chips on the root, the search walks the game tree
breadth first.  Every path to stability uses exactly F(2^ell - 1) fires,
so all states sit at a well-defined depth (the number of fires performed
so far is a function of the state itself), states can never recur at a
later depth, and per-level deduplication is equivalent to a global
visited set while only two frontiers stay in memory.

A state is encoded as N bytes: byte i holds the vertex carrying chip
i + 1.  Chips never descend past layer ell (the bottom layer never
fires), so vertex numbers stay below 2^ell and the encoding is bijective
with the canonical JSON of labeled configurations; deduping on one is
deduping on the other.  The search keeps each state as the int those
bytes read big-endian.  Ints of one byte length order like their bytes,
so a sorted level of ints is a sorted checkpoint body.

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
over the chips it moves, p being a chip's byte.  So all the picks of a
subgroup are applied to all its states in one C-level pass that adds the
successor ints to the level's set as they are.  The mirror quotient
happens in the same pass: mirror(x + delta) is mirror(x) plus the
mirrored move, the smaller of the two is the representative, and which
side is smaller says whose shadow it has.  No dedup is needed within a
subgroup: states with the same chips on v that differ keep their
difference after any pick, and two picks move different chips, so equal
successors imply the same state and the same pick; the set only merges
successors that come from different subgroups.  Bytes are made only at
the edges: once per state and vertex in the kernel, to read the chips on
v and the mirror; for the stable level's configurations; and for
checkpoint lines.  A checkpoint is read into the same {shadow: ints}
level that the search keeps, and written from it.

Corpora and checkpoints share one record format: a JSON header line
carrying the sha256 of the body, then one sorted record per line.  A
checkpoint body holds one representative per line in full mode, so
checkpoints have a version of their own.  Both kinds are written a chunk
of lines at a time and read in batches of whole lines, about a block at a
time; no file is held whole.  A write holds its sorted records and one
chunk of lines; a read hashes and counts each batch of lines as it parses
them, raises a wrong count, checksum or record only after the body has
ended, and holds little beyond what it returns: a checkpoint's ints join
their shadow's group as their batch is read, and a corpus's configurations
are handed to the caller one at a time.
"""

from __future__ import annotations

import binascii
import contextlib
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator

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
    "read_corpus",
    "write_checkpoint",
    "read_checkpoint",
]

CORPUS_FORMAT = "chipfire-stable-set"
CHECKPOINT_FORMAT = "chipfire-checkpoint"
# version 2 checkpoints hold mirror representatives in full mode; a
# version 1 body would resume with half of its orbits missing
VERSIONS = {CORPUS_FORMAT: 1, CHECKPOINT_FORMAT: 2}

MODES = ("full", "scheduled")

# the search counters of corpus and checkpoint headers, in their order there
_COUNTERS = ("explored_states", "max_frontier")

# body lines encoded and written at a time; body bytes read at a time, in whole lines
_CHUNK_LINES = 1 << 12
_BLOCK_BYTES = 1 << 16
# successors per pickled chunk of a worker's result
_CHUNK_STATES = 1 << 12


class CorpusError(ValueError):
    """A stable-set or checkpoint file could not be read, written or validated."""


class EnumerationPaused(RuntimeError):
    """The search stopped before completion; a checkpoint is written when a
    checkpoint path is given."""

    def __init__(self, reason: str, checkpoint_path: str | None, depth: int, frontier: int | None):
        counted = "" if frontier is None else f" (frontier {frontier})"
        super().__init__(
            f"enumeration paused at depth {depth}{counted}: {reason}"
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


# the mirror of vertex v on layer k, 3 * 2^(k-1) - 1 - v, sits as far from
# the other end of layer k; one table serves every ell up to 8
_MIRROR = bytes([0] + [3 * (1 << (v.bit_length() - 1)) - 1 - v for v in range(1, 256)])


def _encode(states: Iterable[int], n: int) -> Iterator[bytes]:
    """The `n`-byte big-endian encodings of state ints."""
    return map(int.to_bytes, states, itertools.repeat(n), itertools.repeat("big"))


def _mirrors(encoded: Iterable[bytes]) -> Iterator[int]:
    """The mirror of each encoded state, as an int: a mirror read big-endian is
    the translated state read little-endian."""
    translated = map(bytes.translate, encoded, itertools.repeat(_MIRROR))
    return map(int.from_bytes, translated, itertools.repeat("little"))


def _mirror_shadow(shadow: bytes) -> bytes:
    """The shadow of the mirrors of the states with `shadow`."""
    return bytes(map(shadow.__getitem__, _MIRROR[: len(shadow)]))


def _orbit_count(shadow: bytes, states: Collection[int], mode: str) -> int:
    """How many states the `states` with `shadow` stand for: two per mirror pair in full mode.

    A state that is its own mirror has a shadow that is its own mirror, so
    states whose shadow is not are counted without comparing any of them
    with its mirror.
    """
    if mode != "full":
        return len(states)
    if _mirror_shadow(shadow) != shadow:
        return 2 * len(states)
    mirrors = _mirrors(_encode(states, len(shadow) - 1))
    return 2 * len(states) - sum(map(operator.eq, states, mirrors))


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
    args: tuple[bytes, Collection[int], str, int], level: dict[bytes, set[int]] | None = None
) -> dict[bytes, set[int]]:
    """The successors of `states`, which all have `shadow` and sit at `depth`,
    below the stabilization depth, keyed by their shadow and merged into `level`.

    In full mode the successors are mirror representatives.  Every path
    takes F(N) fires, so a stable shadow here cannot be reached: it raises.
    """
    shadow, states, mode, depth = args
    level = {} if level is None else level
    n, full = len(shadow) - 1, mode == "full"
    fireable = [v for v, chips in enumerate(shadow) if chips >= 3]
    if not fireable:
        raise AssertionError(f"stable state {next(iter(states)):0{2 * n}x} at depth {depth}")
    if mode == "scheduled":
        del fireable[1:]
    for v in fireable:
        dests, tables, mirror_tables = _move_tables(n, v)
        moved = bytearray(shadow)
        moved[v] -= 3
        for dest in dests:
            moved[dest] += 1
        child = bytes(moved)
        # a representative that is a mirror has the mirrored shadow
        mirrored = _mirror_shadow(child) if full else child
        kept, swapped = level.setdefault(child, set()), level.setdefault(mirrored, set())
        # states with the same chips on v take the same picks
        on_v = bytes(v) + b"\x01" + bytes(255 - v)
        subgroups: dict[bytes, list[int]] = {}
        keys = map(bytes.translate, _encode(states, n), itertools.repeat(on_v))
        for state, chips in zip(states, keys):
            subgroups.setdefault(chips, []).append(state)
        for chips, members in subgroups.items():
            pos = list(itertools.compress(range(n), chips))
            if v == 1:
                # the pick is a pair (a, c) with a chip between them
                picks = [(a, pos[j + 1], c) for j, a in enumerate(pos) for c in pos[j + 2 :]]
            else:
                picks = list(itertools.combinations(pos, 3))
            if not full:
                kept.update(_moves(tables, picks, members))
                continue
            # mirror(x + delta) = mirror(x) + mirrored delta
            ys = _moves(tables, picks, members)
            ms = _moves(mirror_tables, picks, _mirrors(_encode(members, n)))
            if swapped is kept:
                kept.update(map(min, ys, ms))
                continue
            # the representative is the smaller one, under its own shadow
            ys, ms = list(ys), list(ms)
            lower = list(map(int.__lt__, ys, ms))
            kept.update(itertools.compress(ys, lower))
            swapped.update(itertools.compress(ms, map(operator.not_, lower)))
        for key in {child, mirrored}:
            if not level[key]:
                del level[key]
    return level


def _expand_pickled(args: tuple[bytes, Collection[int], str, int]) -> dict[bytes, list[bytes]]:
    """_expand_batch in a worker process, each shadow's successors sent back as
    lists of at most _CHUNK_STATES ints, each list pickled on its own.

    The main process unpickles one chunk at a time straight into its set
    for that shadow.  A result unpickled whole would hold millions of ints
    at once, most of them states that another batch already produced, and
    the main process's heap would stay that much larger after they are freed.
    """
    import pickle

    pickled: dict[bytes, list[bytes]] = {}
    for child, group in _expand_batch(args).items():
        states, chunks = iter(group), []
        while chunk := list(itertools.islice(states, _CHUNK_STATES)):
            chunks.append(pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL))
        pickled[child] = chunks
    return pickled


def _stable_configs(shadow: bytes, states: Iterable[int]) -> Iterator[tuple[str, LabeledConfig]]:
    """The canonical JSON and the configuration of each state with `shadow`.

    Both are read off the state's labels sorted by (vertex, label): the
    JSON is a template made once for the shadow, filled with those labels,
    and each vertex's cell is a slice of them.
    """
    n = len(shadow) - 1
    cells = {v: ["%d"] * chips for v, chips in enumerate(shadow) if chips}
    template = LabeledConfig(n, cells).canonical_json().replace('"%d"', "%d")
    ends = list(itertools.accumulate(map(len, cells.values())))
    slices = list(zip(cells, [0, *ends], ends))
    labels = range(1, n + 1)
    # byte i of a state written in n + 1 bytes is the vertex of chip i
    for padded in _encode(states, n + 1):
        ordered = sorted(labels, key=padded.__getitem__)
        yield template % tuple(ordered), LabeledConfig(
            n, {v: ordered[a:b] for v, a, b in slices}
        )


# ---------------------------------------------------------------------------
# search


def _expand_level(frontier: dict, mode: str, depth: int, pool, workers: int) -> dict:
    """The level after `frontier`, at `depth`: sorted lists from `pool`, sets if it is None."""
    next_frontier: dict[bytes, Collection[int]] = {}
    if pool is not None:
        import pickle

        # every group is a sorted list here; neighbours in order share
        # their low-label chips and many successors, so contiguous batches
        # dedup those in the worker
        chunk = max(1, sum(map(len, frontier.values())) // (workers * 8))
        # a generator: map() submits every batch at once, and no list keeps
        # a batch alive once its result is back
        batches = (
            (shadow, group[i : i + chunk], mode, depth)
            for shadow, group in frontier.items()
            for i in range(0, len(group), chunk)
        )
        for result in pool.map(_expand_pickled, batches):
            for child, pickled in result.items():
                merged = next_frontier.setdefault(child, set())
                for states in pickled:
                    merged.update(pickle.loads(states))
        # a sorted list takes a fraction of a set's memory while the level waits
        for child, group in next_frontier.items():
            next_frontier[child] = sorted(group)
    else:
        for shadow, group in frontier.items():
            _expand_batch((shadow, group, mode, depth), next_frontier)
    return next_frontier


def enumerate_stable(
    ell: int,
    mode: str = "full",
    workers: int = 1,
    checkpoint_path: str | None = None,
    checkpoint_every: float = 60.0,
    resume_path: str | None = None,
    max_seconds: float | None = None,
    max_frontier: int | None = None,
    on_level: Callable[[int, int, int, int, float], object] | None = None,
) -> StableSet:
    """Enumerate every reachable stable configuration for 2^ell - 1 chips.

    Raises EnumerationPaused (after writing a checkpoint of the current level
    when a path was given) if `max_seconds` or `max_frontier` (in unreduced
    states) is exceeded, memory runs out or a pool worker ends abruptly;
    pass the checkpoint to `resume_path` to continue.  With `workers` > 1,
    every level is expanded in a pool of at most one process per CPU that
    this process may run on.  Every path stabilizes after exactly
    F(2^ell - 1) fires, so the level at that depth is the stable set.  Each
    level is kept keyed by shadow, and the fire vector of every shadow on
    every level, the last one and a resumed one included, is checked before
    the level can be written to a checkpoint.  Each level that does not pause
    then calls `on_level(depth, F(2^ell - 1), size, explored, seconds)`.
    A resumed frontier that breaks an invariant of the search raises
    CorpusError.  A NaN `max_seconds` or `checkpoint_every` raises
    ValueError; infinity means no limit.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > 8:
        raise ValueError("enumeration is limited to ell <= 8 (state encoding and sanity)")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # every comparison with NaN is false: the search would never pause or checkpoint
    if math.isnan(checkpoint_every) or max_seconds is not None and math.isnan(max_seconds):
        raise ValueError("checkpoint_every and max_seconds must not be NaN")
    # more processes than the CPUs this process may run on only add memory and
    # pickling; results never depend on it
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)

    n_chips = 2**ell - 1
    target_depth = unlabeled.total_fires(n_chips)
    per_layer = unlabeled.fires_per_layer(n_chips)
    budgets = [0] + [per_layer[v.bit_length() - 1] for v in range(1, n_chips + 1)]

    if resume_path is not None:
        depth, frontier, explored, max_seen = read_checkpoint(resume_path, ell, mode)
    else:
        # every chip on the root: each byte of the state is 1, and byte 1 of the shadow N
        depth, explored, max_seen, root = 0, 0, 0, int.from_bytes(b"\1" * n_chips, "big")
        frontier = {bytes([0, n_chips]) + bytes(n_chips - 1): [root]}

    started = last_checkpoint = time.monotonic()

    def checkpoint() -> None:
        nonlocal last_checkpoint
        if checkpoint_path is not None:
            write_checkpoint(checkpoint_path, ell, mode, depth, frontier, explored, max_seen)
            last_checkpoint = time.monotonic()

    def pause(reason: str) -> EnumerationPaused:
        checkpoint()
        return EnumerationPaused(reason, checkpoint_path, depth, size)

    pool, broken = None, ()  # except () catches nothing
    if workers > 1:
        # only a pooled search imports the pool, and with it multiprocessing and pickle
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        pool, broken = ProcessPoolExecutor(max_workers=workers), BrokenProcessPool
    with pool or contextlib.nullcontext():
        try:
            for depth in range(depth, target_depth + 1):
                # every level, a resumed one included, is counted and checked before
                # it can be written; a pause before it is counted names no size
                size = None
                size = sum(_orbit_count(shadow, group, mode) for shadow, group in frontier.items())
                max_seen = max(max_seen, size)
                _check_fire_vectors(frontier, depth, budgets)
                if max_seconds is not None and time.monotonic() - started > max_seconds:
                    raise pause("time budget exhausted")
                if max_frontier is not None and size > max_frontier:
                    raise pause("frontier size limit exceeded")
                if time.monotonic() - last_checkpoint >= checkpoint_every:
                    checkpoint()
                if on_level is not None:
                    on_level(depth, target_depth, size, explored, time.monotonic() - started)
                if depth < target_depth:
                    frontier = _expand_level(frontier, mode, depth, pool, workers)
                explored += size
            # at depth F(N) the check above has each vertex's fires at most its budget
            # and summing to F(N), which is what the budgets sum to: so every vertex
            # has fired exactly its budget.  The fire vector and N fix the shadow, so
            # the level has one shadow, the stable one (at most 2 chips on a vertex),
            # and that shadow is its own mirror
            ((shadow, group),) = frontier.items()
        except MemoryError:
            raise pause("out of memory") from None
        except broken:
            raise pause("a worker process ended abruptly") from None
        except AssertionError as exc:
            if resume_path is None:
                raise
            raise CorpusError(f"{resume_path}: resumed frontier is not reachable: {exc}") from exc

    # the stable level in whole orbits
    if mode == "full":
        group = {*group, *_mirrors(_encode(group, n_chips))}
    # each config's canonical JSON is built once: it orders the set and save() writes it
    keyed = sorted(_stable_configs(shadow, group))
    result = StableSet(
        ell=ell,
        configs=[config for _, config in keyed],
        meta={"mode": mode, **dict(zip(_COUNTERS, (explored, max_seen)))},
    )
    result._keys = [key for key, _ in keyed]
    return result


def extract_subtree_orders(configs: Iterable[LabeledConfig], ell: int, depth: int) -> set[str]:
    """Distinct relative orders on bottom-anchored subtrees of `depth` layers.

    Scans, in every configuration of `ell` layers, each subtree whose root
    sits on layer ell - depth + 1 (so its bottom coincides with the tree's
    bottom layer) and collects the canonical order signatures.  `configs`
    is iterated once, so it may be a corpus as read_corpus() reads it.
    """
    if not 1 <= depth <= ell:
        raise ValueError(f"depth must be in 1..{ell}, got {depth}")
    top = ell - depth + 1
    # the roots are ranged per config: no configs, whatever their ell, range none
    return {
        relative_order_key(config, root, depth)
        for config in configs
        for root in range(2 ** (top - 1), 2**top)
    }


# ---------------------------------------------------------------------------
# persistence


def _write_records(path: str, fmt: str, fields: dict, lines: Iterable[str]) -> None:
    """Atomically write a header (with the body's sha256), then the sorted `lines`.

    The body is written a chunk at a time after a header whose sha256 is
    zeros, and the real header, of the same length, then overwrites it.
    """
    header = {"format": fmt, "version": VERSIONS[fmt], **fields, "sha256": "0" * 64}
    lines, digest, tmp = iter(lines), hashlib.sha256(), path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
            while batch := list(itertools.islice(lines, _CHUNK_LINES)):
                chunk = ("\n".join(batch) + "\n").encode()
                digest.update(chunk)
                handle.write(chunk)
            header["sha256"] = digest.hexdigest()
            handle.seek(0)
            handle.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise CorpusError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(OSError):  # a partial file, if one is left
            os.remove(tmp)


# a line that parse() refuses
_BAD_RECORD = (ValueError, KeyError, TypeError, RecursionError)


def _read_records(path: str, fmt: str, parse, count_key: str, *int_keys: str, **expected):
    """Read a file written by _write_records: yield its header, then its body's
    records, a list per batch of lines read.

    The header is checked before it is yielded: format, version, the
    `expected` header values, the integer fields and the counters the
    header has.  The body is read as whole lines, about _BLOCK_BYTES of
    them at a time, and never held whole; a body whose lines all end in a
    lone carriage return holds no newline, so it is read as one batch.
    Each batch is hashed and its lines counted, and `parse` turns its lines
    into their records, judging each line on its own, until a line fails.
    After the body the line count, then the checksum, then the first bad
    record raise, so a caller drains the records before it trusts them, and
    what was parsed is what was hashed.  Every failure, an unreadable file
    included, raises CorpusError naming the line where there is one.
    """
    try:
        with open(path, "rb") as handle:
            header = _read_header(path, handle.readline(), fmt, count_key, int_keys, expected)
            yield header
            digest, count, bad = hashlib.sha256(), 0, None
            # every batch of lines but the file's last ends in \n, so it splits as the
            # whole body would, \r\n and a lone \r included
            while block := b"".join(handle.readlines(_BLOCK_BYTES)):
                digest.update(block)
                lines = block.splitlines()
                if bad is None:
                    try:
                        records = parse(lines)
                    except _BAD_RECORD as exc:
                        bad = _first_refusal(parse, lines, count + 2) or (count + 2, exc)
                    else:
                        yield records
                count += len(lines)
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if count != header[count_key]:
        raise CorpusError(
            f"{path}: header {count_key} {header[count_key]} != body line count {count}"
        )
    if digest.hexdigest() != header.get("sha256"):
        raise CorpusError(f"{path}: checksum mismatch")
    if bad is not None:
        line, exc = bad
        raise CorpusError(f"{path}: line {line}: bad record: {exc}") from exc


def _first_refusal(parse, lines: list[bytes], first: int) -> tuple[int, Exception] | None:
    """The number of the first of `lines` that `parse` refuses on its own, and
    why; `first` is the number of lines[0]."""
    for number, line in enumerate(lines, start=first):
        try:
            parse([line])
        except _BAD_RECORD as exc:
            return number, exc
    return None


def _read_header(path: str, head: bytes, fmt: str, count_key: str, int_keys, expected) -> dict:
    """The header line of a file written by _write_records, checked."""
    try:
        header = json.loads(head)
    except (ValueError, RecursionError) as exc:
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
    counters = [key for key in _COUNTERS if key in header]
    for key in (count_key, *int_keys, *counters):
        if type(header.get(key)) is not int:
            raise CorpusError(f"{path}: line 1: header needs an integer {key!r}")
    return header


def _counters(fields: dict) -> dict:
    """The search counters of a header or a StableSet's meta; an absent one reads as 0."""
    return {key: fields.get(key, 0) for key in _COUNTERS}


def save(stable_set: StableSet, path: str) -> None:
    """Write a stable set as a JSON-lines corpus: header, then one config per line."""
    # linear when the keys are already in order, as enumerate_stable leaves them
    lines = sorted(stable_set.canonical_keys())
    fields = {
        "ell": stable_set.ell,
        "count": len(lines),
        "mode": stable_set.meta.get("mode", "full"),
        **_counters(stable_set.meta),
    }
    _write_records(path, CORPUS_FORMAT, fields, lines)


def read_corpus(path: str) -> tuple[dict, Iterator[LabeledConfig]]:
    """Open a corpus written by save(): its checked header, and an iterator
    over its configurations as they are read, a batch of lines at a time.

    A faulty header raises here.  A line is a bad record unless it is a
    valid configuration of 2^ell - 1 chips, ell being the header's.  The
    iterator stops before the first bad record, and raises after the body,
    in this order: a wrong count, a wrong checksum, the first bad record.
    So a caller drains it before it trusts what it took from it.
    """

    def parse(lines: list[bytes]) -> list[LabeledConfig]:
        configs = list(map(LabeledConfig.from_json, lines))
        for n in set(map(operator.attrgetter("n_chips"), configs)):
            # bit_length first, so that 2**ell is only computed for a small ell
            if n.bit_length() != ell or n != 2**ell - 1:
                raise ValueError(f"{n} chips, not 2^{ell} - 1")
        return configs

    records = _read_records(path, CORPUS_FORMAT, parse, "count", "ell")
    header = next(records)
    ell = header["ell"]  # read by parse, which runs only once the header is out
    return header, itertools.chain.from_iterable(records)


def load(path: str) -> StableSet:
    """Read a corpus written by save(), validating structure, count, and checksum."""
    header, configs = read_corpus(path)
    return StableSet(
        ell=header["ell"],
        configs=list(configs),
        meta={"mode": header.get("mode", "full"), **_counters(header)},
    )


def write_checkpoint(
    path: str,
    ell: int,
    mode: str,
    depth: int,
    frontier: dict[bytes, Collection[int]],
    explored: int,
    max_seen: int,
) -> None:
    """Write a level, {shadow: state ints}: mirror representatives in full mode.

    The body is every state's bytes in hex, one per line, in ascending
    order.  `frontier_count` is the number of body lines; `explored` and
    `max_seen` are in unreduced states.
    """
    # a level made of sorted runs, as a pooled or resumed one is, sorts in about linear time
    states = sorted(itertools.chain.from_iterable(frontier.values()))
    fields = {
        "ell": ell,
        "mode": mode,
        "depth": depth,
        "frontier_count": len(states),
        **dict(zip(_COUNTERS, (explored, max_seen))),
    }
    _write_records(path, CHECKPOINT_FORMAT, fields, map(bytes.hex, _encode(states, 2**ell - 1)))


def read_checkpoint(path: str, ell: int, mode: str) -> tuple[int, dict, int, int]:
    """Read a checkpoint written by write_checkpoint(): depth, level, explored, max_seen.

    The level is {shadow: state ints}, each group in ascending order.  The
    body's states must be strictly ascending, as write_checkpoint() leaves
    them: a repeated state would be counted twice.  In full mode every
    state must be the smaller of its mirror pair.
    """
    n_chips = 2**ell - 1
    vertices = bytes(range(1, n_chips + 1))
    # a state's shadow read as a little-endian int is the sum of 256^v over its chips' vertices v
    weights = [1 << 8 * v for v in range(n_chips + 1)]
    not_a_state = f"not a state of {n_chips} chips on vertices 1..{n_chips}"

    def parse(lines: list[bytes]) -> list[bytes]:
        # the length first, so that a line far longer than a state is never decoded
        if any(map((2 * n_chips).__ne__, map(len, lines))):
            raise ValueError(not_a_state)
        states = list(map(binascii.unhexlify, lines))
        if any(map(bytes.translate, states, itertools.repeat(None), itertools.repeat(vertices))):
            raise ValueError(not_a_state)
        ints = map(int.from_bytes, states, itertools.repeat("big"))
        if mode == "full" and any(map(int.__gt__, ints, _mirrors(states))):
            raise ValueError("not the smaller state of its mirror pair")
        return states

    records = _read_records(
        path, CHECKPOINT_FORMAT, parse, "frontier_count", "depth", ell=ell, mode=mode
    )
    header = next(records)
    # each state's int joins its shadow's group as its block is read; the first line
    # out of order is raised after the file's own checks
    groups: dict[int, list[int]] = {}
    before, line, unordered = b"", 2, None
    for states in records:
        ordered = list(map(bytes.__lt__, [before, *states], states))
        if unordered is None and not all(ordered):
            unordered = line + ordered.index(False)
        keys = map(sum, map(map, itertools.repeat(weights.__getitem__), states))
        for key, state in zip(keys, map(int.from_bytes, states, itertools.repeat("big"))):
            groups.setdefault(key, []).append(state)
        if states:
            before = states[-1]
        line += len(states)
    if not groups:
        raise CorpusError(f"{path}: checkpoint frontier is empty")
    target = unlabeled.total_fires(n_chips)
    if not 0 <= header["depth"] <= target:
        raise CorpusError(f"{path}: line 1: depth {header['depth']} is outside 0..{target}")
    if unordered is not None:
        raise CorpusError(f"{path}: line {unordered}: state is not above the one before it")
    level = {key.to_bytes(n_chips + 1, "little"): group for key, group in groups.items()}
    return header["depth"], level, *_counters(header).values()
