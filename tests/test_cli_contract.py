"""The CLI contract over generated argv and environments.

Every invocation exits with a code in 0..4, and nothing escapes `main()`
but argparse's own SystemExit(2): usage and input errors print one
`error:` line, never a traceback.
"""

import contextlib
import hashlib
import io
import json
import os
import string
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import bounds, checks, enumeration, labeled, unlabeled
from chipfire.cli import main


def run(argv, max_ell=None):
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(err):
            os.environ.pop("CHIPFIRE_MAX_ELL", None)
            if max_ell is not None:
                os.environ["CHIPFIRE_MAX_ELL"] = max_ell
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the argv
                assert exc.code == 2, err.getvalue()
                code = 2
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths the argv lists name: Z3 an ell-3 corpus, P a paused ell-3 checkpoint
    (as the pinned --max-frontier 5 line writes it), P-<counter>-<value> copies
    of P whose header counter is not an integer, Z3-ell-2 a copy of Z3 whose
    header says 2 layers, Z3-n_chips-1e20 one whose first configuration claims
    10^20 chips, junk a file in no known format, C, W and O fresh, and
    /nonexistent missing."""
    tmp = tmp_path_factory.mktemp("contract")
    paths = {
        "C": str(tmp / "c.ckpt"),
        "P": str(tmp / "p.ckpt"),
        "Z3": str(tmp / "z3.jsonl"),
        "/nonexistent": str(tmp / "nonexistent"),
        "/nonexistent/dir/x": str(tmp / "nonexistent" / "dir" / "x"),
        "junk": str(tmp / "junk.txt"),
        "W": str(tmp / "w.ckpt"),
        "O": str(tmp / "o.jsonl"),
        "tmp": str(tmp),
    }
    enumeration.save(enumeration.enumerate_stable(3), paths["Z3"])
    code, _, _ = run(["enumerate", "--ell", "3", "--max-frontier", "5", "--checkpoint", paths["P"]])
    assert code == 4
    with open(paths["junk"], "w") as handle:
        handle.write("not a corpus\n")
    # the checksum covers the body only: the first copy keeps it, the second is given a new one
    head, body = Path(paths["Z3"]).read_bytes().split(b"\n", 1)
    header = {**json.loads(head), "ell": 2}
    paths["Z3-ell-2"] = str(tmp / "z3-ell-2.jsonl")
    Path(paths["Z3-ell-2"]).write_bytes(json.dumps(header).encode() + b"\n" + body)
    body = body.replace(b'"n_chips":7', b'"n_chips":100000000000000000000', 1)
    header = {**json.loads(head), "sha256": hashlib.sha256(body).hexdigest()}
    paths["Z3-n_chips-1e20"] = str(tmp / "z3-n_chips-1e20.jsonl")
    Path(paths["Z3-n_chips-1e20"]).write_bytes(json.dumps(header).encode() + b"\n" + body)
    head, body = Path(paths["P"]).read_bytes().split(b"\n", 1)
    for name, (key, value) in FORGED.items():
        paths[name] = str(tmp / f"{name}.ckpt")
        header = {**json.loads(head), key: value}
        Path(paths[name]).write_bytes(json.dumps(header).encode() + b"\n" + body)
    return paths


# header counters that are not integers, by file name: each forged checkpoint must exit 3
FORGED = {
    f"P-{key}-{json.dumps(value)}": (key, value)
    for key, value in [
        ("explored_states", "abc"),
        ("explored_states", True),
        ("max_frontier", None),
        ("max_frontier", [1]),
    ]
}

# exit codes that held while the CLI still repeated the library's checks, and must hold now
PINNED = [
    (2, "fires --chips -5"),
    (2, "fires --chips 0"),
    (2, "simulate --chips -1 --labeled"),
    (0, "simulate --chips 2"),
    (2, "play --chips -3"),
    (2, "sequence --name f0 --count 0"),
    (2, "bounds --ell -3"),
    (2, "bounds --ell 0 --method all"),
    (2, "bounds --ell 2"),
    (0, "bounds --ell 3 --csv"),
    (2, "bounds --table a..b"),
    (2, "bounds --table 4..3"),
    (2, "bounds --table 5"),
    (2, "bounds --table ..4"),
    (2, "bounds --table -1..4"),  # argparse reads -1..4 as an option
    (2, "enumerate --ell 0"),
    (2, "enumerate --ell 9"),
    (2, "enumerate --ell 3 --workers 0"),
    (4, "enumerate --ell 2 --max-frontier -1"),
    (4, "enumerate --ell 3 --max-seconds -1"),
    (0, "enumerate --ell 3 --checkpoint-every -1 --checkpoint C"),
    (3, "enumerate --ell 3 --resume /nonexistent"),
    (2, "enumerate --ell 3 --out /nonexistent/dir/x"),
    (2, "extract-orders --input /nonexistent --depth 2"),
    (2, "check --input /nonexistent"),
    (2, "extract-orders --input Z3 --depth 0"),
    (2, "extract-orders --input Z3 --depth 9"),
    (4, "enumerate --ell 3 --max-frontier 5 --checkpoint P"),
    (3, "enumerate --ell 4 --resume P"),
    (3, "enumerate --ell 3 --mode scheduled --resume P"),
    (2, "check --input P"),
    (0, "simulate --chips 3 --seed -1 --strategy random"),
    (0, "fires --chips 99999999999999999999"),
    # corpora whose header ell or n_chips the checksum does not cover
    (2, "check --input Z3-ell-2"),
    (2, "extract-orders --input Z3-ell-2 --depth 2"),
    (2, "check --input Z3-n_chips-1e20"),
    (2, "extract-orders --input Z3-n_chips-1e20 --depth 2"),
    # removed options: simulate's --labeled and --policy (play is the labeled game) and
    # check's --mode (the penultimate property has one reading)
    (2, "check --input Z3 --mode lenient"),
    (2, "check --input Z3 --mode literal"),
    (2, "simulate --chips 5 --labeled"),
    (2, "simulate --chips 5 --policy min-triple"),
]


@pytest.mark.parametrize("code,argv", PINNED, ids=[argv for _, argv in PINNED])
def test_pinned_exit_codes(files, code, argv):
    got, out, err = run([files.get(token, token) for token in argv.split()])
    assert got == code, err
    if code:
        assert out == ""
        assert ("paused: " if code == 4 else "error: ") in err.splitlines()[-1]


# every invocation above that reads a corpus or a checkpoint, the forged ones included
READS = [(code, argv) for code, argv in PINNED if "--input" in argv or "--resume" in argv]
READS += [(3, f"enumerate --ell 3 --resume {name}") for name in FORGED]
READS += [(2, "check --input junk"), (0, "check --input Z3"), (0, "enumerate --ell 3 --resume P")]


@pytest.mark.parametrize("code,argv", READS, ids=[argv for _, argv in READS])
def test_files_read_a_few_bytes_at_a_time_keep_their_exit_codes_and_messages(
    files, monkeypatch, code, argv
):
    argv = [files.get(token, token) for token in argv.split()]
    whole = run(argv)
    assert whole[0] == code
    for block in (1, 3):
        monkeypatch.setattr(enumeration, "_BLOCK_BYTES", block)
        assert run(argv) == whole


@pytest.mark.parametrize(
    "argv,call",
    [
        ("fires --chips -5", lambda: unlabeled.profile(-5)),
        ("play --chips 0", lambda: labeled.initial_config(0)),
        ("play --chips -3", lambda: labeled.initial_config(-3)),
        ("sequence --name F --count 0", lambda: unlabeled.sequence("F", 0)),
        ("bounds --ell 3 --method zigzag", lambda: bounds.zigzag_bound(3)),
        ("enumerate --ell 0", lambda: enumeration.enumerate_stable(0)),
    ],
)
def test_usage_errors_print_the_library_message(argv, call):
    with pytest.raises(ValueError) as info:
        call()
    assert run(argv.split()) == (2, "", f"error: {info.value}\n")


@pytest.mark.parametrize("game", ["simulate", "play"])
def test_games_past_the_chip_bound_are_usage_errors(game):
    # far past the bound, where a game with no bound fails at once instead of playing
    chips = 99999999999999999999
    message = f"a game is played with at most {unlabeled.MAX_GAME_CHIPS} chips, got {chips}"
    assert run([*game.split(), "--chips", str(chips)]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("forged", FORGED)
def test_non_integer_checkpoint_counters_are_checkpoint_errors(files, forged):
    key, path = FORGED[forged][0], files[forged]
    message = f"{path}: line 1: header needs an integer {key!r}"
    assert run(["enumerate", "--ell", "3", "--resume", path]) == (3, "", f"error: {message}\n")


def test_negative_chips_get_the_chip_count_message():
    with pytest.raises(ValueError, match="positive integer, got -5"):
        unlabeled.profile(-5)


# -- generated invocations ---------------------------------------------------------------

# no digits, so junk never parses as an integer (int() also reads non-ASCII digits)
junk = st.text(alphabet=string.ascii_letters + string.punctuation + " ", max_size=6)


def mostly(good, bad, odds=4):
    """Values of `good`, and one time in `odds` a value of `bad`."""
    roll = st.integers(0, odds - 1)
    return st.builds(lambda g, r, b: b if r == odds - 1 else g, good, roll, bad)


def integer(low, high):
    """An integer flag value; one time in ten a string argparse refuses."""
    return mostly(st.integers(low, high).map(str), junk, odds=10)


def required(name, values):
    return values.map(lambda v: [name, v])


def flag(name, values):
    """Either nothing or `name` with one of `values`."""
    return st.one_of(st.just([]), required(name, values))


def switch(name):
    return st.sampled_from([[], [name]])


def concat(*parts):
    return st.tuples(*parts).map(lambda lists: [x for part in lists for x in part])


small_ell = st.integers(-3, 12).map(str)
ell_range = mostly(
    st.builds("{}..{}".format, small_ell, small_ell),
    st.builds(
        "{}{}{}".format,
        st.one_of(small_ell, junk),
        st.sampled_from(["..", ".", "...", ""]),
        st.one_of(small_ell, junk),
    ),
)
fires = concat(st.just(["fires"]), required("--chips", integer(-(10**4), 10**4)), switch("--json"))
simulate = concat(
    st.just(["simulate"]),
    required("--chips", integer(-5, 10**4)),
    flag("--strategy", st.sampled_from(unlabeled.STRATEGIES)),
    flag("--seed", integer(-3, 3)),
)
labeled_game = concat(
    st.just(["play"]),
    required("--chips", integer(-5, 1023)),
    flag("--policy", st.sampled_from(labeled.POLICIES)),
    flag("--seed", integer(-3, 3)),
)
sequence = concat(
    st.just(["sequence"]),
    required("--name", st.sampled_from(unlabeled.SEQUENCE_NAMES)),
    required("--count", integer(-3, 40)),
    switch("--csv"),
    switch("--json"),
)
ell_or_table = st.one_of(required("--ell", integer(-3, 12)), required("--table", ell_range))
bounds_ = concat(
    st.just(["bounds"]),
    mostly(ell_or_table, st.just([])),
    flag("--method", st.sampled_from(["naive", "zigzag", "ballot", "all"])),
    mostly(st.sampled_from([[], ["--exact"], ["--sci"]]), st.just(["--exact", "--sci"])),
    switch("--csv"),
    switch("--json"),
)
# W and O are written by earlier examples, so a later one may resume or overwrite them
missing_or_dir = st.sampled_from(["/nonexistent/dir/x", "tmp"])
enumerate_ = concat(
    st.just(["enumerate"]),
    required("--ell", mostly(st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-2", "9"]))),
    flag("--mode", st.sampled_from(enumeration.MODES)),
    flag("--workers", mostly(st.sampled_from(["1", "2"]), st.sampled_from(["0", "-1", "x"]))),
    flag("--max-frontier", integer(-1, 40)),
    flag("--max-seconds", mostly(st.sampled_from(["-1", "0", "5"]), st.just("x"))),
    flag("--checkpoint", mostly(st.just("W"), missing_or_dir)),
    flag("--checkpoint-every", st.sampled_from(["-1", "0", "60"])),
    flag("--resume", st.sampled_from(["P", "W", "Z3", "junk", "/nonexistent", "tmp", *FORGED])),
    flag("--out", mostly(st.just("O"), missing_or_dir)),
    switch("--json"),
    switch("--progress"),
)
# a base that runs to the resume, so the drawn --resume file alone decides the exit code;
# the flags above line up for that too rarely to reach the forged counters
resume_only = concat(
    st.just(["enumerate", "--ell", "3", "--workers", "1", "--checkpoint", "W"]),
    required("--resume", st.sampled_from([*FORGED, "P", "W", "Z3", "junk", "tmp"])),
    switch("--json"),
)
corpus_input = required(
    "--input",
    mostly(
        st.sampled_from(["Z3", "O"]),
        st.sampled_from(["P", "junk", "/nonexistent", "tmp", "Z3-ell-2", "Z3-n_chips-1e20"]),
    ),
)
extract = concat(
    st.just(["extract-orders"]), corpus_input, required("--depth", integer(-2, 5)), switch("--json")
)
check = concat(
    st.just(["check"]),
    corpus_input,
    flag("--property", mostly(st.sampled_from([*checks.CHECKERS, "all"]), st.just("nope"))),
    switch("--verbose"),
    switch("--json"),
)
stray = st.lists(st.sampled_from(["fires", "bounds", "--chips", "--ell", "3", "-5", "--", "x"]))
max_ells = mostly(
    st.none(),
    st.one_of(st.integers(-5, 12).map(str), junk, st.builds("{} ".format, st.integers(0, 12))),
)
COMMANDS = {
    "fires": fires,
    "simulate": simulate,
    "labeled": labeled_game,
    "sequence": sequence,
    "bounds": bounds_,
    "enumerate": enumerate_,
    "resume": resume_only,
    "extract-orders": extract,
    "check": check,
    "stray": stray,
}


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), max_ell=max_ells)
def test_every_invocation_keeps_the_exit_code_contract(files, command, data, max_ell):
    argv = [files.get(token, token) for token in data.draw(COMMANDS[command], label="argv")]
    code, out, err = run(argv, max_ell)
    assert code in range(5), (code, err)
    assert "Traceback" not in err
    if code in (2, 3):
        assert "error: " in err
    if "--json" in argv and code in (0, 1):
        json.loads(out)  # one JSON document and nothing else
