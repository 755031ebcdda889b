import contextlib
import decimal
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import chipfire
from chipfire import bounds, enumeration, unlabeled
from chipfire.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestFires:
    def test_text_output(self, capsys):
        code, out = run_cli(capsys, "fires", "--chips", "15")
        assert code == 0
        assert "fire_counts 11,4,1,0" in out
        assert "total_fires 23" in out

    def test_small_case(self, capsys):
        code, out = run_cli(capsys, "fires", "--chips", "3")
        assert code == 0
        assert "fire_counts 1,0" in out
        assert "total_fires 1" in out

    def test_json(self, capsys):
        code, out = run_cli(capsys, "fires", "--chips", "15", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n_chips": 15,
            "n": 4,
            "digits": [0, 0, 0, 0, 1],
            "chip_counts": [1, 1, 1, 1],
            "fire_counts": [11, 4, 1, 0],
            "root_fires": 11,
            "total_fires": 23,
        }

    def test_zero_chips_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "fires", "--chips", "0")
        assert code == 2


class TestSimulate:
    def test_unlabeled(self, capsys):
        code, out = run_cli(capsys, "simulate", "--chips", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["cells"] == {"1": 2, "2": 2, "3": 2}
        assert payload["total_fires"] == 2

    def test_labeled_prints_the_canonical_config(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--chips", "5", "--labeled", "--policy", "min-triple"
        )
        assert code == 0
        payload = json.loads(out)
        counts = {entry["v"]: len(entry["chips"]) for entry in payload["cells"]}
        assert counts == {1: 1, 2: 2, 3: 2}
        from chipfire.labeled import LabeledConfig

        assert LabeledConfig.from_json(out.strip()).canonical_json() == out.strip()

    def test_seed_reproducibility(self, capsys):
        args = ("simulate", "--chips", "100", "--strategy", "random", "--seed", "5")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second


class TestPlay:
    def test_policy_game(self, capsys):
        code, out = run_cli(capsys, "play", "--chips", "15", "--policy", "random", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_fires"] == 23
        assert sum(len(e["chips"]) for e in payload["config"]["cells"]) == 15


class TestSequence:
    def test_plain(self, capsys):
        code, out = run_cli(capsys, "sequence", "--name", "f0", "--count", "16")
        assert code == 0
        assert [int(x) for x in out.split()] == [
            0, 1, 2, 4, 5, 7, 8, 11, 12, 14, 15, 18, 19, 21, 22, 26,
        ]

    def test_diff_total(self, capsys):
        code, out = run_cli(capsys, "sequence", "--name", "diff-F", "--count", "15")
        assert code == 0
        assert [int(x) for x in out.split()] == [1, 1, 4, 1, 4, 1, 11, 1, 4, 1, 11, 1, 4, 1, 26]

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "sequence", "--name", "F", "--count", "3", "--csv")
        assert code == 0
        assert out == "1,0\n2,1\n3,2\n"

    def test_json(self, capsys):
        code, out = run_cli(capsys, "sequence", "--name", "diff-f0", "--count", "4", "--json")
        assert code == 0
        assert json.loads(out)["values"] == [1, 1, 2, 1]


class TestBounds:
    def test_single_ell_ballot(self, capsys):
        code, out = run_cli(capsys, "bounds", "--ell", "3", "--method", "ballot")
        assert code == 0
        assert out == "ballot (conditional) T=10 Z=20\n"

    def test_single_ell_all(self, capsys):
        code, out = run_cli(capsys, "bounds", "--ell", "4")
        assert code == 0
        assert "naive T=479001600 Z=39916800" in out
        assert "zigzag T=9009000 Z=693000" in out
        assert "ballot (conditional) T=514800 Z=186300" in out

    def test_table(self, capsys):
        code, out = run_cli(capsys, "bounds", "--table", "4..7")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["4", "4.0e7", "6.9e5", "1.9e5"]
        assert lines[2].split() == ["5", "1.1e28", "2.9e22", "3.4e19"]
        assert lines[3].split() == ["6", "1.4e80", "1.8e65", "2.3e57"]
        assert lines[4].split() == ["7", "1.2e205", "1.5e170", "1.3e152"]

    def test_table_exact_csv(self, capsys):
        code, out = run_cli(capsys, "bounds", "--table", "4..4", "--exact", "--csv")
        assert code == 0
        assert out == "ell,naive_z,zigzag_z,ballot_z\n4,39916800,693000,186300\n"

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("--table 4..9", "2fbc57884a9d9258803fa7cf34918a831f9e358dc76b2142cb78dd9b0f9c7d95"),
            (
                "--table 4..9 --csv",
                "bed2480955dc4746ce332fedce0339bd3b2464c0670ffaf9c617d67e88928281",
            ),
            (
                "--table 4..9 --exact --csv",
                "f1152bbf765b6d628ca11bd97434e7f4c60ff149067ae928db614ed741704370",
            ),
            (
                "--table 4..9 --json",
                "847793ae4c98fbc88454767d44f4f8a12ba354114d809d4b1e11262e459ef642",
            ),
            ("--ell 5", "2c7325f044b3b8a55af73b9e8986ed1b997c4f6a6bae158005675b6c4255abe9"),
            ("--ell 5 --json", "6c3d8e29eb2e790875e9e1563f8190063e766f9e45097f25e6d388f348e9c577"),
            (
                "--ell 3 --method ballot",
                "4a3c68d1b1aad6455b1686c775fbfb900fd41673a602954bb85ae06776aade18",
            ),
        ],
    )
    def test_stdout_is_pinned(self, capsys, argv, digest):
        code, out = run_cli(capsys, "bounds", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_includes_flags(self, capsys):
        code, out = run_cli(capsys, "bounds", "--table", "5..5", "--json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["flags"]["ballot_z_below_restricted_factorial"] is True

    def test_zigzag_below_four_layers_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "bounds", "--ell", "3", "--method", "zigzag")
        assert code == 2

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CHIPFIRE_MAX_ELL", "5")
        code, _ = run_cli(capsys, "bounds", "--ell", "6")
        assert code == 2
        monkeypatch.setenv("CHIPFIRE_MAX_ELL", "6")
        code, _ = run_cli(capsys, "bounds", "--ell", "6")
        assert code == 0

    def test_requires_ell_or_table(self, capsys):
        code, _ = run_cli(capsys, "bounds")
        assert code == 2

    def test_non_integer_env_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CHIPFIRE_MAX_ELL", "abc")
        assert main(["bounds", "--ell", "4"]) == 2
        assert "CHIPFIRE_MAX_ELL must be an integer" in capsys.readouterr().err


class TestBoundsPastTheDigitLimit:
    """From ell = 11 on, values pass the 4,300-digit int/str limit of Python >= 3.11."""

    @pytest.fixture(scope="class")
    def row11(self):
        return bounds.compare_table([11])[0]

    def test_table(self, capsys, row11):
        code, out = run_cli(capsys, "bounds", "--table", "4..11")
        assert code == 0
        cells = [row11.naive_z, row11.zigzag_z, row11.ballot_z]
        assert out.splitlines()[-1].split() == ["11", *map(bounds.sci, cells)]

    def test_exact_csv_and_single_ell(self, capsys, row11):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, out = run_cli(capsys, "bounds", "--table", "11..11", "--exact", "--csv")
        assert code == 0
        cells = out.splitlines()[1].split(",")
        assert cells[0] == "11"
        assert [decimal.Decimal(c) for c in cells[1:]] == [
            decimal.Decimal(v) for v in (row11.naive_z, row11.zigzag_z, row11.ballot_z)
        ]
        code, out = run_cli(capsys, "bounds", "--ell", "11", "--method", "naive")
        assert code == 0
        _, z = out.split()[1:]
        assert decimal.Decimal(z[2:]) == decimal.Decimal(row11.naive_z)
        if limit is not None:  # the lifted limit is restored
            assert sys.get_int_max_str_digits() == limit


class TestEnumerateAndCorpus:
    def test_enumerate_prints_count(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--ell", "3")
        assert code == 0
        assert out.startswith("Z_3 = 6\n")

    def test_scheduled_mode_notes_its_scope(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--ell", "3", "--mode", "scheduled")
        assert code == 0
        assert "Z_3 = 6" in out
        assert "scheduled" in out

    def test_corpus_write_and_check(self, capsys, tmp_path):
        corpus = str(tmp_path / "z3.jsonl")
        code, _ = run_cli(capsys, "enumerate", "--ell", "3", "--out", corpus)
        assert code == 0
        code, out = run_cli(capsys, "check", "--input", corpus, "--property", "all")
        assert code == 0
        assert "all pass" in out
        for name in ("anchors", "extremes", "zigzag", "penultimate", "ballot", "forbidden"):
            assert f"{name}: 6/6 pass" in out

    def test_extract_orders(self, capsys, tmp_path):
        corpus = str(tmp_path / "z3.jsonl")
        run_cli(capsys, "enumerate", "--ell", "3", "--out", corpus)
        code, out = run_cli(capsys, "extract-orders", "--input", corpus, "--depth", "2")
        assert code == 0
        assert out == "orders 1\n2;1,3\n"

    def test_planted_violation_fails_with_witness(self, capsys, tmp_path):
        corpus = str(tmp_path / "z3.jsonl")
        run_cli(capsys, "enumerate", "--ell", "3", "--out", corpus)
        lines = open(corpus).read().splitlines()
        mirrored = (
            '{"n_chips":7,"cells":[{"v":1,"chips":[4]},{"v":2,"chips":[6]},'
            '{"v":3,"chips":[2]},{"v":4,"chips":[7]},{"v":5,"chips":[5]},'
            '{"v":6,"chips":[3]},{"v":7,"chips":[1]}]}'
        )
        body = "".join(line + "\n" for line in [mirrored, *lines[2:]])
        header = json.loads(lines[0])
        header["sha256"] = hashlib.sha256(body.encode()).hexdigest()
        open(corpus, "w").write(json.dumps(header, separators=(",", ":")) + "\n" + body)

        code, out = run_cli(capsys, "check", "--input", corpus, "--property", "ballot")
        assert code == 1
        assert "config 0 ballot FAIL vertex 1" in out

    def test_malformed_corpus_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a corpus\n")
        code, _ = run_cli(capsys, "check", "--input", str(bad), "--property", "all")
        assert code == 2

    def test_config_outside_checker_domain_is_input_error(self, capsys, tmp_path):
        corpus = str(tmp_path / "odd.jsonl")
        run_cli(capsys, "enumerate", "--ell", "2", "--out", corpus)
        lines = open(corpus).read().splitlines()
        # stable and label-complete, but two chips share a vertex
        crooked = (
            '{"n_chips":3,"cells":[{"v":1,"chips":[2]},{"v":2,"chips":[1,3]}]}'
        )
        body = crooked + "\n"
        header = json.loads(lines[0])
        header["sha256"] = hashlib.sha256(body.encode()).hexdigest()
        open(corpus, "w").write(json.dumps(header, separators=(",", ":")) + "\n" + body)
        code, _ = run_cli(capsys, "check", "--input", corpus, "--property", "extremes")
        assert code == 2

    def test_check_on_too_small_corpus(self, capsys, tmp_path):
        corpus = str(tmp_path / "z2.jsonl")
        run_cli(capsys, "enumerate", "--ell", "2", "--out", corpus)
        code, _ = run_cli(capsys, "check", "--input", corpus, "--property", "forbidden")
        assert code == 2
        code, out = run_cli(capsys, "check", "--input", corpus, "--property", "all")
        assert code == 0
        assert "skip forbidden" in out

    @pytest.mark.parametrize("flag", ["--json", "--verbose"])
    def test_literal_mode_prints_one_json_document(self, capsys, tmp_path, flag):
        # --json prints the report object alone: no skip, PASS or FAIL line comes before it
        corpus = str(tmp_path / "z3.jsonl")
        run_cli(capsys, "enumerate", "--ell", "3", "--out", corpus)
        code, out = run_cli(capsys, "check", "--input", corpus, "--mode", "literal", flag, "--json")
        assert code == 1
        report = json.loads(out)
        assert report["summary"]["penultimate"] == {"pass": 0, "fail": 6}
        assert len(report["failures"]) == 12 and not report["all_pass"]

    def test_skipped_properties_are_absent_from_the_json_summary(self, capsys, tmp_path):
        corpus = str(tmp_path / "z2.jsonl")
        run_cli(capsys, "enumerate", "--ell", "2", "--out", corpus)
        code, out = run_cli(capsys, "check", "--input", corpus, "--json")
        assert code == 0
        assert "forbidden" not in json.loads(out)["summary"]

    def test_pause_resume_exit_codes(self, capsys, tmp_path):
        ckpt = str(tmp_path / "z3.ckpt")
        code, _ = run_cli(
            capsys, "enumerate", "--ell", "3", "--max-frontier", "5", "--checkpoint", ckpt
        )
        assert code == 4
        code, out = run_cli(capsys, "enumerate", "--ell", "3", "--resume", ckpt)
        assert code == 0
        assert "Z_3 = 6" in out

    def test_checkpoint_version_mismatch_exit_code(self, capsys, tmp_path):
        ckpt = str(tmp_path / "z3.ckpt")
        run_cli(capsys, "enumerate", "--ell", "3", "--max-frontier", "5", "--checkpoint", ckpt)
        lines = open(ckpt).read().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        open(ckpt, "w").write("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        code, _ = run_cli(capsys, "enumerate", "--ell", "3", "--resume", ckpt)
        assert code == 3

    def test_missing_resume_file_is_checkpoint_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "enumerate", "--ell", "3", "--resume", str(tmp_path / "none"))
        assert code == 3

    def test_unwritable_checkpoint_is_checkpoint_error(self, capsys, tmp_path):
        ckpt = str(tmp_path / "missing-dir" / "z3.ckpt")
        code, _ = run_cli(
            capsys, "enumerate", "--ell", "3", "--max-frontier", "5", "--checkpoint", ckpt
        )
        assert code == 3

    def test_failed_checkpoint_write_is_checkpoint_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(enumeration.os, "replace", _no_space_left)
        ckpt = str(tmp_path / "z3.ckpt")
        code = main(["enumerate", "--ell", "3", "--max-frontier", "5", "--checkpoint", ckpt])
        assert code == 3
        assert capsys.readouterr().err == f"error: cannot write {ckpt}: No space left on device\n"
        assert os.listdir(tmp_path) == []  # no z3.ckpt.tmp either

    def test_failed_out_write_is_input_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(enumeration.os, "replace", _no_space_left)
        out = str(tmp_path / "z3.jsonl")
        assert main(["enumerate", "--ell", "3", "--out", out]) == 2
        message = f"error: cannot write {out}: No space left on device\n"
        assert capsys.readouterr() == ("", message)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "flag,argv,code",
        [("--out", [], 2), ("--checkpoint", ["--max-frontier", "5"], 3)],
    )
    def test_a_write_that_fails_midway_leaves_no_partial_file(
        self, capsys, tmp_path, monkeypatch, flag, argv, code
    ):
        monkeypatch.setattr(enumeration, "open", _FullDisk, raising=False)
        path = str(tmp_path / "z3")
        assert main(["enumerate", "--ell", "3", *argv, flag, path]) == code
        assert capsys.readouterr().err == f"error: cannot write {path}: No space left on device\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("where", ["missing-dir/z3.jsonl", "."])
    def test_unwritable_out_is_refused_before_the_search(
        self, capsys, tmp_path, monkeypatch, where
    ):
        def search(*args, **kwargs):
            raise AssertionError("the search must not start")

        monkeypatch.setattr(enumeration, "enumerate_stable", search)
        code, _ = run_cli(capsys, "enumerate", "--ell", "3", "--out", str(tmp_path / where))
        assert code == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_is_a_usage_error(self, capsys, workers):
        code, _ = run_cli(capsys, "enumerate", "--ell", "2", "--workers", workers)
        assert code == 2

    def test_enumerate_json_summary(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--ell", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1 and payload["mode"] == "full"


def _no_space_left(*args):
    raise OSError(28, "No space left on device")


class _FullDisk(io.FileIO):
    """A file on a full disk: the first byte of a write lands, then the write fails."""

    def write(self, data):
        super().write(data[:1])
        _no_space_left()


def _paused_checkpoint(path):
    with pytest.raises(enumeration.EnumerationPaused):
        enumeration.enumerate_stable(3, max_frontier=5, checkpoint_path=path)


def _forge_header_without_depth(path):
    _paused_checkpoint(path)
    head, body = open(path, "rb").read().split(b"\n", 1)
    header = json.loads(head)
    del header["depth"]
    open(path, "wb").write(json.dumps(header).encode() + b"\n" + body)


def _forge_non_utf8(path):
    open(path, "wb").write(b"\xff\xfe\x00not a checkpoint\n")


def _forge_empty_frontier(path):
    enumeration.write_checkpoint(path, 3, "full", 2, set(), 3, 15)


def _forge_all_chips_on_vertex_7(path):
    enumeration.write_checkpoint(path, 3, "full", 4, {bytes([7] * 7)}, 10, 15)


def _forge_unreachable_representative(path):
    enumeration.write_checkpoint(path, 3, "full", 4, {bytes([4] * 7)}, 10, 15)


def _forge_version_one(path):
    _paused_checkpoint(path)
    head, body = open(path, "rb").read().split(b"\n", 1)
    header = json.loads(head)
    header["version"] = 1
    open(path, "wb").write(json.dumps(header).encode() + b"\n" + body)


def _forge_larger_state_of_a_mirror_pair(path):
    _paused_checkpoint(path)
    depth, frontier, explored, max_seen = enumeration.read_checkpoint(path, 3, "full")
    mirrored = {max(s, enumeration._mirror(s)) for s in frontier}
    enumeration.write_checkpoint(path, 3, "full", depth, mirrored, explored, max_seen)


def _forge_depth_shifted_by_two(path):
    _paused_checkpoint(path)
    depth, frontier, explored, max_seen = enumeration.read_checkpoint(path, 3, "full")
    enumeration.write_checkpoint(path, 3, "full", depth + 2, frontier, explored, max_seen)


def _forge_stable_state_off_its_shadow(path):
    # stable, the smaller of its mirror pair, at depth F(7) = 6, but two chips on vertex 4
    # where every stable 7-chip configuration has one: only its fire vector gives it away
    state = bytes([4, 4, 2, 1, 5, 3, 6])
    assert state < enumeration._mirror(state)
    enumeration.write_checkpoint(path, 3, "full", unlabeled.total_fires(7), {state}, 84, 15)


def _forge_depth_past_the_stabilization_depth(path):
    enumeration.enumerate_stable(3, checkpoint_path=path, checkpoint_every=0)
    depth, frontier, explored, max_seen = enumeration.read_checkpoint(path, 3, "full")
    assert depth == unlabeled.total_fires(7)
    enumeration.write_checkpoint(path, 3, "full", depth + 1, frontier, explored, max_seen)


@pytest.mark.parametrize(
    "forge",
    [
        _forge_header_without_depth,
        _forge_non_utf8,
        _forge_empty_frontier,
        _forge_all_chips_on_vertex_7,
        _forge_depth_shifted_by_two,
        _forge_unreachable_representative,
        _forge_version_one,
        _forge_larger_state_of_a_mirror_pair,
        _forge_stable_state_off_its_shadow,
        _forge_depth_past_the_stabilization_depth,
    ],
)
def test_malformed_checkpoint_is_checkpoint_error(capsys, tmp_path, forge):
    ckpt = str(tmp_path / "z3.ckpt")
    forge(ckpt)
    assert main(["enumerate", "--ell", "3", "--resume", ckpt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("mode", enumeration.MODES)
@pytest.mark.parametrize("forgery", ["repeated", "swapped"])
def test_a_checkpoint_body_out_of_order_is_checkpoint_error(capsys, tmp_path, mode, forgery):
    # the forged body gets its own checksum, so only the order rule can refuse it
    ckpt = str(tmp_path / "z3.ckpt")
    with pytest.raises(enumeration.EnumerationPaused):
        enumeration.enumerate_stable(3, mode=mode, max_frontier=5, checkpoint_path=ckpt)
    head, body = open(ckpt, "rb").read().split(b"\n", 1)
    lines = body.decode().splitlines()
    assert len(lines) >= 3 and lines == sorted(set(lines))
    if forgery == "repeated":
        lines[2] = lines[1]
    else:
        lines[1], lines[2] = lines[2], lines[1]
    fields = {k: v for k, v in json.loads(head).items() if k not in ("format", "version", "sha256")}
    enumeration._write_records(ckpt, enumeration.CHECKPOINT_FORMAT, fields, lines)
    code = main(["enumerate", "--ell", "3", "--mode", mode, "--resume", ckpt])
    assert code == 3
    message = f"error: {ckpt}: line 4: state is not above the one before it\n"
    assert capsys.readouterr() == ("", message)


def test_forged_depth_is_refused_with_asserts_stripped(tmp_path):
    # a frontier at depth 4 that claims to sit at the stabilization depth; python -O
    # strips assert statements, so the search's invariants must be raised explicitly
    ckpt = str(tmp_path / "z4.ckpt")
    with pytest.raises(enumeration.EnumerationPaused):
        enumeration.enumerate_stable(4, max_frontier=50_000, checkpoint_path=ckpt)
    head, body = open(ckpt, "rb").read().split(b"\n", 1)
    header = json.loads(head)
    assert header["depth"] == 4
    header["depth"] = unlabeled.total_fires(15)
    open(ckpt, "wb").write(json.dumps(header).encode() + b"\n" + body)
    argv = ["enumerate", "--ell", "4", "--resume", ckpt, "--max-seconds", "5"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "chipfire.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(chipfire.__file__))},
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert f"at depth {header['depth']} has fire vector" in proc.stderr


def test_a_frontier_one_level_off_is_refused_before_it_is_expanded(capsys, tmp_path):
    # every state of the depth-4 frontier has fired 4 times, not 5; the check of the
    # resumed level refuses it at once, before the search could pause again
    ckpt = str(tmp_path / "z4.ckpt")
    with pytest.raises(enumeration.EnumerationPaused):
        enumeration.enumerate_stable(4, max_frontier=50_000, checkpoint_path=ckpt)
    head, body = open(ckpt, "rb").read().split(b"\n", 1)
    header = json.loads(head)
    assert header["depth"] == 4
    header["depth"] = 5
    open(ckpt, "wb").write(json.dumps(header).encode() + b"\n" + body)
    argv = ["enumerate", "--ell", "4", "--resume", ckpt, "--checkpoint", ckpt]
    assert main([*argv, "--max-seconds", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {ckpt}: resumed frontier is not reachable: shadow ")
    assert " at depth 5 has fire vector " in captured.err
    assert json.loads(open(ckpt, "rb").readline())["depth"] == 5


def test_a_closed_stdout_exits_2_without_a_traceback():
    # about 1.6 MB of output, more than a pipe holds, so a write fails once the reader leaves
    proc = subprocess.Popen(
        [sys.executable, "-m", "chipfire.cli", "sequence", "--name", "F", "--count", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(chipfire.__file__))},
    )
    assert proc.stdout.readline() == "0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


_CHILD_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(chipfire.__file__))}


def _run_with_closed_fd(fd, *argv):
    """Run the CLI in a child process whose file descriptor `fd` is closed from the start."""
    return subprocess.run(
        [sys.executable, "-m", "chipfire.cli", *argv],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
        preexec_fn=lambda: os.close(fd),
        timeout=120,
    )


def test_a_closed_stderr_stops_the_search_without_a_traceback():
    argv = ["enumerate", "--ell", "4", "--mode", "scheduled", "--progress"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "chipfire.cli", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=_CHILD_ENV,
    )
    first = proc.stderr.readline()
    proc.stderr.close()
    # the next progress line fails long before the 23-level search could end
    assert proc.wait(timeout=120) == 2
    assert first.startswith("depth 0/23: ") and "Traceback" not in first


def test_an_error_with_stderr_closed_from_the_start_is_not_printed_on_stdout():
    proc = _run_with_closed_fd(2, "fires", "--chips", "0", "--json")
    assert (proc.returncode, proc.stdout) == (2, "")


def test_progress_with_stderr_closed_from_the_start_leaves_one_json_document():
    proc = _run_with_closed_fd(2, "enumerate", "--ell", "2", "--progress", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 1


def test_an_error_with_a_read_only_stderr_exits_2_without_a_traceback():
    # fd 2 is open but cannot be written: the error line fails with EBADF
    with open(os.devnull, "rb") as read_only:
        proc = subprocess.run(
            [sys.executable, "-m", "chipfire.cli", "fires", "--chips", "0", "--json"],
            stdout=subprocess.PIPE,
            stderr=read_only,
            env=_CHILD_ENV,
            timeout=120,
        )
    assert (proc.returncode, proc.stdout) == (2, b"")


def _run_with_read_only_fd(fd, *argv):
    """Run the CLI in a child process whose file descriptor `fd` is open read-only."""
    with open(os.devnull, "rb") as read_only:
        return subprocess.run(
            [sys.executable, "-m", "chipfire.cli", *argv],
            stdout=read_only if fd == 1 else subprocess.PIPE,
            stderr=read_only if fd == 2 else subprocess.PIPE,
            text=True,
            env=_CHILD_ENV,
            timeout=120,
        )


def test_progress_into_a_read_only_stderr_exits_2_without_a_traceback():
    proc = _run_with_read_only_fd(2, "enumerate", "--ell", "2", "--progress")
    assert (proc.returncode, proc.stdout) == (2, "")


def test_a_pause_into_a_read_only_stderr_exits_2_after_writing_its_checkpoint(tmp_path):
    # the pause writes its checkpoint first; the `paused:` line is what fails
    ckpt = str(tmp_path / "C")
    argv = ["enumerate", "--ell", "3", "--max-frontier", "1", "--checkpoint", ckpt]
    proc = _run_with_read_only_fd(2, *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert enumeration.read_checkpoint(ckpt, 3, "full")[0] == 1


def test_help_into_a_read_only_stdout_exits_2():
    # argparse swallows an OSError from its help output, so this holds only while
    # parsing runs inside main's stream guard
    proc = _run_with_read_only_fd(1, "--help")
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write stdout: Bad file descriptor\n")


def test_main_hands_back_the_callers_own_streams():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["fires", "--chips", "3"]) == 0
        assert sys.stdout is out and sys.stderr is err
    with open(os.devnull) as read_only:  # each write to it fails with "not writable"
        with contextlib.redirect_stdout(read_only), contextlib.redirect_stderr(err):
            assert main(["fires", "--chips", "3"]) == 2
            assert sys.stdout is read_only and sys.stderr is err
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(read_only):
            assert main(["fires", "--chips", "0"]) == 2
            assert sys.stdout is out and sys.stderr is read_only
    assert err.getvalue() == "error: cannot write stdout: not writable\n"


def test_a_failed_write_to_an_in_memory_stdout_is_reported():
    # such a stream has no descriptor to point at devnull
    class Gone(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    err = io.StringIO()
    with contextlib.redirect_stdout(Gone()), contextlib.redirect_stderr(err):
        assert main(["fires", "--chips", "3"]) == 2
    assert err.getvalue() == "error: cannot write stdout: Broken pipe\n"


def test_each_progress_line_reaches_the_callers_stderr_in_one_write():
    # perfbench stamps its per-level times from these write calls
    class Stderr(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    writes, err = [], Stderr()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["enumerate", "--ell", "3", "--progress"]) == 0
    lines = err.getvalue().splitlines()
    assert len(lines) > 1 and all(line.startswith("depth ") for line in lines)
    assert [text for text in writes if text != "\n"] == lines


def test_a_read_only_stdout_exits_2_without_a_traceback():
    # fd 1 is open but cannot be written: the first print fails with EBADF
    with open(os.devnull, "rb") as read_only:
        proc = subprocess.run(
            [sys.executable, "-m", "chipfire.cli", "fires", "--chips", "3"],
            stdout=read_only,
            stderr=subprocess.PIPE,
            text=True,
            env=_CHILD_ENV,
            timeout=120,
        )
    message = "error: cannot write stdout: Bad file descriptor\n"
    assert (proc.returncode, proc.stderr) == (2, message)


def test_a_stdout_closed_from_the_start_is_not_an_error():
    proc = _run_with_closed_fd(1, "fires", "--chips", "3")
    assert (proc.returncode, proc.stderr) == (0, "")


def test_each_subcommand_keeps_its_options_in_order():
    # what --help lists, without its version-dependent headings
    subparsers = next(a for a in build_parser()._actions if a.choices)
    options = {
        name: [s for action in sub._actions for s in action.option_strings]
        for name, sub in subparsers.choices.items()
    }
    helps = ["-h", "--help"]
    assert options == {
        "fires": [*helps, "--chips", "--json"],
        "simulate": [*helps, "--chips", "--strategy", "--seed", "--labeled", "--policy", "--json"],
        "play": [*helps, "--chips", "--policy", "--seed", "--json"],
        "enumerate": [
            *helps,
            "--ell",
            "--mode",
            "--out",
            "--resume",
            "--workers",
            "--checkpoint",
            "--checkpoint-every",
            "--max-seconds",
            "--max-frontier",
            "--progress",
            "--json",
        ],
        "extract-orders": [*helps, "--input", "--depth", "--json"],
        "check": [*helps, "--input", "--property", "--mode", "--verbose", "--json"],
        "bounds": [*helps, "--ell", "--method", "--table", "--exact", "--sci", "--csv", "--json"],
        "sequence": [*helps, "--name", "--count", "--csv", "--json"],
    }


class TestByteReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ("fires", "--chips", "15", "--json"),
            ("simulate", "--chips", "20", "--strategy", "random", "--seed", "3"),
            ("play", "--chips", "15", "--policy", "random", "--seed", "4"),
            ("sequence", "--name", "F", "--count", "23"),
            ("bounds", "--table", "4..7"),
            ("enumerate", "--ell", "3", "--json"),
        ],
    )
    def test_invocations_repeat_byte_identically(self, capsys, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_corpus_files_repeat_byte_identically(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        run_cli(capsys, "enumerate", "--ell", "3", "--out", a)
        run_cli(capsys, "enumerate", "--ell", "3", "--out", b, "--workers", "2")
        assert open(a, "rb").read() == open(b, "rb").read()


def test_corpus_round_trips_through_library(capsys, tmp_path):
    corpus = str(tmp_path / "z3.jsonl")
    run_cli(capsys, "enumerate", "--ell", "3", "--out", corpus)
    loaded = enumeration.load(corpus)
    assert loaded.count == 6
