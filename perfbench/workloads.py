"""Workloads of the chipfire benchmark: set-up, timed passes and traced passes.

run.py starts this file as a fresh process for every set-up and every pass,
so that each pass has its own ``ru_maxrss``:

    python3 perfbench/workloads.py COMMAND WORKLOAD SEED WORKDIR SIZES

COMMAND is ``setup``, ``pass``, ``trace`` or ``probe``;
SIZES is ``full`` or ``toy``.  The process prints one JSON object on stdout.

Every workload is driven through ``chipfire.cli.main(argv)``, or through the
public library call where no subcommand exists.  Only the calls into chipfire
are timed; reading outputs and comparing them with the references is not.
Tracing is done from outside the package: a traced pass wraps chipfire's
public functions in spans and timestamps the ``--progress`` lines that
``enumerate`` writes.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chipfire import checks, cli, enumeration, labeled, unlabeled  # noqa: E402

@dataclass(frozen=True)
class Sizes:
    """Problem sizes, and the reference answers that hold at those sizes."""

    ell: int = 4
    workers: int = 2
    # Any cap in [220,054, 372,474) pauses at depth 6 both for today's frontier
    # (744,616 states) and for a mirror-quotient frontier half that size, so a
    # quotient engine cannot silently change how much work search-full does.
    max_frontier: int = 300_000
    pause_depth: int = 6
    sched_count: int = 20_006
    sched_body_sha256: str = "d6e1ba0382ea2753c98c9cf2bb6c6f56570cf4d18fbf6ab8e6da9e6500b734bb"
    corpus_ell: int = 5
    corpus_games: int = 2000
    orders_depth: int = 3
    big_n: int = 20_000
    sweep_max: int = 300
    play_n: int = 1023


SIZES = {
    "full": Sizes(),
    "toy": Sizes(
        ell=3,
        max_frontier=20,
        pause_depth=2,
        sched_count=6,
        sched_body_sha256="c490e9aab7ef38c0b391156dcb3c029100cea6514fe49f6ea6eb887dd7ffb567",
        corpus_ell=3,
        corpus_games=8,
        orders_depth=2,
        big_n=64,
        sweep_max=16,
        play_n=63,
    ),
}


# ---------------------------------------------------------------------------
# tracing from outside the package


class Tracer:
    """Spans around calls into chipfire's public functions.

    A span is ``[name, start, end, parent]``, where ``parent`` is the index
    of the span that was open when it started.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str) -> None:
        is_map = isinstance(owner, dict)
        original = owner[attr] if is_map else getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        if is_map:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every public function a workload reaches, by layer name.

        ``enumerate_stable`` looks ``write_checkpoint`` and ``read_checkpoint``
        up as module globals, and the CLI calls every other function through
        its module, so wrapping the module attributes catches each call.
        """
        for attr, name in (
            ("enumerate_stable", "enumeration.enumerate"),
            ("write_checkpoint", "enumeration.checkpoint_write"),
            ("read_checkpoint", "enumeration.checkpoint_read"),
            ("save", "enumeration.save"),
            ("load", "enumeration.load"),
            ("extract_subtree_orders", "enumeration.extract"),
        ):
            self.wrap(enumeration, attr, name)
        for prop in checks.CHECKERS:
            if prop == "penultimate":  # the CLI calls it directly, to pass --mode
                self.wrap(checks, "check_penultimate", "checks.penultimate")
            else:
                self.wrap(checks.CHECKERS, prop, f"checks.{prop}")
        self.wrap(unlabeled, "simulate", "unlabeled.simulate")
        self.wrap(labeled, "run_policy_traced", "labeled.run_policy")

    def close(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()


class _Stderr(io.StringIO):
    """Stands in for stderr during a CLI call and stamps each progress line."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[tuple[float, str]] = []

    def write(self, text: str) -> int:
        if text.startswith("depth "):
            self.stamps.append((time.perf_counter(), text))
        return super().write(text)


# ---------------------------------------------------------------------------
# one pass


class Pass:
    """The timed operations of one pass, their reference checks and counts."""

    def __init__(self, seed: int, workdir: Path, sizes: Sizes, traced: bool):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self.tracer = Tracer() if traced else None
        self.wall = 0.0
        self.op_wall: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: dict[str, float] = {}
        self.stamps: dict[str, list[tuple[float, str]]] = {}

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, label: str, argv: list[str]) -> tuple[int | None, str]:
        """Time ``cli.main(argv)``; return its exit code (None if it raised) and stdout."""
        out, err = io.StringIO(), _Stderr()
        rc: int | None = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                with self._span(f"cli.{label}"):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an escaped exception is a failed operation, not a crash
                self.errors.append(f"{label}: {traceback.format_exc()}")
            elapsed = time.perf_counter() - start
        self.wall += elapsed
        self.op_wall[label] = self.op_wall.get(label, 0.0) + elapsed
        self.stamps[label] = err.stamps
        if rc not in (0, 4):
            self.errors.append(f"{label}: exit {rc}: {err.getvalue()[-500:]}")
        return rc, out.getvalue()

    def call(self, label: str, func, *args, **kwargs):
        """Time one library call that has no CLI subcommand."""
        start = time.perf_counter()
        with self._span(label):
            result = func(*args, **kwargs)
        self.wall += time.perf_counter() - start
        return result

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def result(self) -> dict:
        return {
            "wall_s": self.wall,
            "op_wall_s": self.op_wall,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:20],
            "counts": self.counts,
        }


def _read_header(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.readline())


def _body_sha256(path: Path) -> str:
    data = path.read_bytes()
    return hashlib.sha256(data[data.index(b"\n") + 1 :]).hexdigest()


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _safely(func, *args):
    """Read an output; a missing or malformed one reads as None."""
    try:
        return func(*args)
    except (OSError, ValueError):
        return None


def _search_argv(sizes: Sizes, mode: str, workers: int, traced: bool) -> list[str]:
    argv = ["enumerate", "--ell", str(sizes.ell), "--mode", mode, "--workers", str(workers)]
    return argv + ["--progress"] if traced else argv


def pass_search_full(p: Pass) -> None:
    """Pause at the frontier cap, then resume from the checkpoint with the same cap."""
    s = p.sizes
    ckpt = p.workdir / "search-full.ckpt"
    ckpt.unlink(missing_ok=True)
    argv = _search_argv(s, "full", s.workers, p.tracer is not None)
    argv += ["--max-frontier", str(s.max_frontier), "--checkpoint", str(ckpt)]
    rc, _ = p.cli("pause", argv)
    header = _safely(_read_header, ckpt) or {}
    first = _safely(_file_sha256, ckpt)
    p.check(
        rc == 4 and header.get("depth") == s.pause_depth,
        f"pause: exit {rc} at depth {header.get('depth')}, expected exit 4 at depth {s.pause_depth}",
    )
    rc, _ = p.cli("resume", argv + ["--resume", str(ckpt)])
    p.check(
        rc == 4 and first is not None and _safely(_file_sha256, ckpt) == first,
        f"resume: exit {rc}; the checkpoint must pause again, byte-identical",
    )
    p.counts.update(
        workers=s.workers,
        depth=header.get("depth", 0),
        frontier=header.get("frontier_count", 0),
        explored=header.get("explored_states", 0),
        max_frontier=header.get("max_frontier", 0),
        checkpoint_mb=ckpt.stat().st_size / 2**20 if ckpt.exists() else 0.0,
    )


def pass_search_sched(p: Pass) -> None:
    """Scheduled-mode search on one process, to completion, saved as a corpus."""
    s = p.sizes
    out = p.workdir / "search-sched.jsonl"
    out.unlink(missing_ok=True)
    argv = _search_argv(s, "scheduled", 1, p.tracer is not None) + ["--out", str(out)]
    rc, _ = p.cli("search", argv)
    header = _safely(_read_header, out) or {}
    p.check(
        rc == 0 and header.get("count") == s.sched_count,
        f"search: exit {rc}, count {header.get('count')}, expected exit 0 and {s.sched_count}",
    )
    p.check(
        _safely(_body_sha256, out) == s.sched_body_sha256,
        "search: corpus body sha256 differs from the reference",
    )
    p.counts.update(
        count=header.get("count", 0),
        explored=header.get("explored_states", 0),
        max_frontier=header.get("max_frontier", 0),
        corpus_mb=out.stat().st_size / 2**20 if out.exists() else 0.0,
    )


_CHECK_LINE = re.compile(r"^([a-z]+): (\d+)/(\d+) pass$")
_FAIL_LINE = re.compile(r"^config (\d+) ")


def pass_corpus(p: Pass) -> None:
    """Every checker over every configuration, then the subtree orders."""
    corpus = corpus_path(p.workdir)
    with open(corpus, "rb") as handle:
        n_configs = sum(1 for _ in handle) - 1
    rc, out = p.cli("check", ["check", "--input", str(corpus), "--property", "all"])
    lines = out.splitlines()
    summary = {m[1]: (int(m[2]), int(m[3])) for m in map(_CHECK_LINE.match, lines) if m}
    complete = rc in (0, 1) and set(summary) == set(checks.CHECKERS) and all(
        total == n_configs for _, total in summary.values()
    )
    failing = {int(m[1]) for m in map(_FAIL_LINE.match, lines) if m}
    for index in range(n_configs):
        p.check(complete and index not in failing, f"check: config {index} did not pass")

    rc, out = p.cli(
        "extract-orders",
        ["extract-orders", "--input", str(corpus), "--depth", str(p.sizes.orders_depth)],
    )
    head = out.split("\n", 1)[0]
    p.check(rc == 0 and head.startswith("orders "), f"extract-orders: exit {rc}, {head!r}")
    p.counts.update(configs=n_configs, orders=int(head.split()[1]) if rc == 0 else 0)


def _closed_forms(n: int) -> tuple[dict[int, int], dict[int, int], int]:
    """The stable cells, per-vertex fire tallies and total fires for n chips."""
    c = unlabeled.stable_chip_counts(n)
    f = unlabeled.fires_per_layer(n)
    cells = {v: c[v.bit_length() - 1] for v in range(1, 2 ** len(c))}
    fired = {v: f[v.bit_length() - 1] for v in range(1, 2 ** len(f)) if f[v.bit_length() - 1]}
    return cells, fired, unlabeled.total_fires(n)


def pass_games(p: Pass) -> None:
    """Long unlabeled games, a small-N sweep, and labeled games, against the closed forms."""
    s = p.sizes
    fires = 0
    for strategy in unlabeled.STRATEGIES:
        argv = ["simulate", "--chips", str(s.big_n), "--strategy", strategy, "--seed", str(p.seed)]
        rc, out = p.cli(f"simulate.{strategy}", argv)
        cells, fired, total = p.call("unlabeled.closed_forms", _closed_forms, s.big_n)
        got = _safely(json.loads, out) or {}
        p.check(
            rc == 0
            and got.get("cells") == {str(v): k for v, k in cells.items()}
            and got.get("fired") == {str(v): k for v, k in fired.items()}
            and got.get("total_fires") == total,
            f"simulate --chips {s.big_n} --strategy {strategy}: differs from the closed forms",
        )
        fires += total

    for n in range(1, s.sweep_max + 1):
        cells, fired, total = p.call("unlabeled.closed_forms", _closed_forms, n)
        for strategy in unlabeled.STRATEGIES:
            state = p.call("unlabeled.sweep", unlabeled.simulate, n, strategy, seed=p.seed + n)
            p.check(
                state.cells == cells and state.fired == fired,
                f"simulate({n}, {strategy!r}): differs from the closed forms",
            )
            fires += total

    for policy in labeled.POLICIES:
        argv = ["play", "--chips", str(s.play_n), "--policy", policy, "--seed", str(p.seed)]
        rc, out = p.cli(f"play.{policy}", argv)
        cells, fired, total = p.call("unlabeled.closed_forms", _closed_forms, s.play_n)
        got = _safely(json.loads, out) or {}
        shadow = {c["v"]: len(c["chips"]) for c in got.get("config", {}).get("cells", [])}
        p.check(
            rc == 0
            and shadow == cells
            and dict(map(tuple, got.get("fired", []))) == fired
            and got.get("total_fires") == total,
            f"play --chips {s.play_n} --policy {policy}: shadow or tallies differ "
            "from the closed forms",
        )
        fires += total
    p.counts["fires"] = fires


PASSES = {
    "search-full": pass_search_full,
    "search-sched": pass_search_sched,
    "corpus": pass_corpus,
    "games": pass_games,
}
WORKLOADS = tuple(PASSES)


def run_pass(workload: str, seed: int, workdir: Path, sizes: Sizes, traced: bool = False) -> dict:
    p = Pass(seed, workdir, sizes, traced)
    if p.tracer:
        p.tracer.install()
    try:
        PASSES[workload](p)
    finally:
        if p.tracer:
            p.tracer.close()
    result = p.result()
    if p.tracer:
        result["layers"] = layer_metrics(workload, p)
    return result


def probe_one_worker(seed: int, workdir: Path, sizes: Sizes) -> dict:
    """search-full's pause with one process: the base of the pool speed-up."""
    ckpt = workdir / "probe.ckpt"
    ckpt.unlink(missing_ok=True)
    p = Pass(seed, workdir, sizes, traced=False)
    argv = _search_argv(sizes, "full", 1, False)
    rc, _ = p.cli("pause", argv + ["--max-frontier", str(sizes.max_frontier), "--checkpoint", str(ckpt)])
    p.check(rc == 4, f"pause with one worker: exit {rc}, expected 4")
    ckpt.unlink(missing_ok=True)
    return p.result()


# ---------------------------------------------------------------------------
# set-up


def corpus_path(workdir: Path) -> Path:
    return workdir / "corpus.jsonl"


def setup(workload: str, seed: int, workdir: Path, sizes: Sizes) -> dict:
    """Make the workload's inputs.  Only corpus has any: random-play games, saved."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload != "corpus":
        return {"inputs_sha256": None}
    n_chips = 2**sizes.corpus_ell - 1
    configs = {}
    game_s = []
    for i in range(sizes.corpus_games):
        start = time.perf_counter()
        config = labeled.run_policy(n_chips, "random", seed=seed * 1_000_000 + i)
        game_s.append(time.perf_counter() - start)
        configs[config.canonical_json()] = config
    stable = enumeration.StableSet(
        ell=sizes.corpus_ell,
        configs=[configs[key] for key in sorted(configs)],
        meta={"mode": "random-play"},
    )
    path = corpus_path(workdir)
    enumeration.save(stable, str(path))
    return {
        "inputs_sha256": _file_sha256(path),
        "configs": stable.count,
        "game_ms": 1000 * statistics.median(game_s),
    }


# ---------------------------------------------------------------------------
# per-layer metrics of a traced pass

_PROGRESS = re.compile(r"depth (\d+)/\d+: frontier (\d+)")


def _children(spans: list[list], index: int) -> list[list]:
    return [s for s in spans if s[3] == index]


def _total(spans: list[list], name: str) -> float:
    return sum(end - start for n, start, end, _ in spans if n == name)


def _cli_span(spans: list[list], label: str) -> int:
    return next(i for i, s in enumerate(spans) if s[0] == f"cli.{label}")


def _child_s(spans: list[list], label: str, name: str) -> float:
    return sum(e - s for n, s, e, _ in _children(spans, _cli_span(spans, label)) if n == name)


def _search_levels(p: Pass, label: str) -> dict[str, float]:
    """Per-depth seconds and frontier sizes from the stamped progress lines.

    A level ends at the next progress line, or at the checkpoint written when
    the search pauses.  Time from the last line to the return of
    ``enumerate_stable`` is the finalize step: the stable level, the state to
    configuration conversion and the sort.
    """
    spans = p.tracer.spans
    search = next(s for s in _children(spans, _cli_span(spans, label)) if s[0] == "enumeration.enumerate")
    writes = [
        s[1:3]
        for s in spans
        if s[0] == "enumeration.checkpoint_write" and search[1] <= s[1] <= search[2]
    ]
    stamps = [(t, _PROGRESS.match(line)) for t, line in p.stamps[label]]
    out: dict[str, float] = {}
    for i, (t, match) in enumerate(stamps):
        depth = int(match[1])
        out[f"enumeration.frontier.d{depth}"] = int(match[2])
        later = [u for u, _ in stamps[i + 1 : i + 2]] or [w for w, _ in writes if w > t][:1]
        if later:
            out[f"enumeration.level_s.d{depth}"] = later[0] - t
        else:
            out["enumeration.finalize_s"] = search[2] - t
    # the pause's checkpoint write is inside the search span but is not search work
    busy = (search[2] - search[1]) - sum(end - start for start, end in writes)
    out["enumeration.states_per_s"] = p.counts["explored"] / busy
    return out


def layer_metrics(workload: str, p: Pass) -> dict[str, float]:
    spans = p.tracer.spans
    out: dict[str, float] = {}
    if workload in ("search-full", "search-sched"):
        label = "pause" if workload == "search-full" else "search"
        out.update(_search_levels(p, label))
        out["enumeration.explored"] = p.counts["explored"]
        out["enumeration.max_frontier"] = p.counts["max_frontier"]
    if workload == "search-full":
        out[f"enumeration.frontier.d{p.counts['depth']}"] = p.counts["frontier"]
        out["enumeration.checkpoint_write_s"] = _total(spans, "enumeration.checkpoint_write")
        out["enumeration.checkpoint_read_s"] = _total(spans, "enumeration.checkpoint_read")
        out["enumeration.checkpoint_mb"] = p.counts["checkpoint_mb"]
    if workload == "search-sched":
        out["enumeration.save_s"] = _total(spans, "enumeration.save")
        out["enumeration.corpus_mb"] = p.counts["corpus_mb"]
    if workload == "corpus":
        out["enumeration.load_s"] = _total(spans, "enumeration.load")
        out["enumeration.extract_s"] = _total(spans, "enumeration.extract")
        per_config = [0.0] * p.counts["configs"]
        for prop in checks.CHECKERS:
            calls = [e - s for n, s, e, _ in spans if n == f"checks.{prop}"]
            out[f"checks.{prop}_s"] = sum(calls)
            for i, seconds in enumerate(calls[: len(per_config)]):
                per_config[i] += seconds
        micro = [1e6 * s for s in per_config]
        out["checks.config_us.p50"] = statistics.median(micro)
        out["checks.config_us.p99"] = statistics.quantiles(micro, n=100)[98] if len(micro) > 1 else micro[0]
        out["checks.config_samples"] = len(micro)
    if workload == "games":
        s = p.sizes
        for strategy in unlabeled.STRATEGIES:
            busy = _child_s(spans, f"simulate.{strategy}", "unlabeled.simulate")
            out[f"unlabeled.fires_per_s.{strategy}"] = unlabeled.total_fires(s.big_n) / busy
        for policy in labeled.POLICIES:
            busy = _child_s(spans, f"play.{policy}", "labeled.run_policy")
            out[f"labeled.fires_per_s.{policy}"] = unlabeled.total_fires(s.play_n) / busy
        out["unlabeled.sweep_s"] = _total(spans, "unlabeled.sweep")
        out["unlabeled.closed_forms_s"] = _total(spans, "unlabeled.closed_forms")
    # the CLI's self time: each main() call minus the layer calls directly under it
    out["cli.self_s"] = sum(
        (end - start) - sum(e - s for _, s, e, _ in _children(spans, i))
        for i, (name, start, end, _) in enumerate(spans)
        if name.startswith("cli.")
    )
    return out


# ---------------------------------------------------------------------------
# process entry


def main(argv: list[str]) -> int:
    command, workload, seed, workdir, size_name = argv
    seed, workdir, sizes = int(seed), Path(workdir), SIZES[size_name]
    if command == "setup":
        result = setup(workload, seed, workdir, sizes)
    elif command in ("pass", "trace"):
        result = run_pass(workload, seed, workdir, sizes, traced=command == "trace")
    elif command == "probe":
        result = probe_one_worker(seed, workdir, sizes)
    else:
        raise SystemExit(f"unknown command {command!r}")
    # ru_maxrss is in KiB on Linux; children holds the largest reaped pool worker
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["worker_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
