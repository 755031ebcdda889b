import contextlib
import decimal
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import chipfire
from chipfire import bounds, enumeration, labeled, unlabeled
from chipfire.cli import build_parser, main
from conftest import mirror_of, shadow_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def rewrite_body(corpus, lines):
    """Give the corpus at `corpus` the body `lines`, and a header that counts and hashes it."""
    header = json.loads(Path(corpus).read_text().split("\n", 1)[0])
    body = "".join(line + "\n" for line in lines)
    header.update(count=len(lines), sha256=hashlib.sha256(body.encode()).hexdigest())
    Path(corpus).write_text(json.dumps(header, separators=(",", ":")) + "\n" + body)


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

    def test_seed_reproducibility(self, capsys):
        args = ("simulate", "--chips", "100", "--strategy", "random", "--seed", "5")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_stdout_is_pinned(self, capsys):
        digest = hashlib.sha256()
        for strategy in unlabeled.STRATEGIES:
            for n in range(1, 301):
                argv = ("simulate", "--chips", str(n), "--strategy", strategy, "--seed", "0")
                code, out = run_cli(capsys, *argv)
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "080fbcc1f5f6a330af8e3299a34afe7ec948eb832c61b4d985e070219005ee58"
        )

    def test_printing_holds_little_beyond_the_game(self):
        # the game's own peak at 65,535 chips is about 7.6 MiB and its stdout 0.9 MiB;
        # printing the result as simulate returns it adds about 6.5 MiB, and a sorted,
        # re-keyed copy of both dicts about 14 MiB
        def peak(run) -> int:
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        out = io.StringIO()

        def play_and_print():
            with contextlib.redirect_stdout(out):
                main(["simulate", "--chips", "65535"])

        game = peak(lambda: unlabeled.simulate(65535))
        excess = peak(play_and_print) - game
        assert json.loads(out.getvalue())["total_fires"] == unlabeled.total_fires(65535)
        assert excess < 10 * 2**20


class TestCorpusMemory:
    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        """Corpora of the first 200 and of all 2,000 seeded ell = 5 random-policy games."""
        folder = tmp_path_factory.mktemp("random-play")
        games = [labeled.run_policy(31, "random", seed=seed) for seed in range(2000)]
        paths = []
        for count in (200, 2000):
            keyed = {config.canonical_json(): config for config in games[:count]}
            stable = enumeration.StableSet(5, [keyed[key] for key in sorted(keyed)])
            paths.append(str(folder / f"games{count}.jsonl"))
            enumeration.save(stable, paths[-1])
        return paths

    @pytest.mark.parametrize(
        "argv", [["check", "--property", "all"], ["extract-orders", "--depth", "3"]]
    )
    def test_memory_does_not_grow_with_the_corpus(self, corpora, argv):
        # every game passes every property, so what the commands print does not grow either;
        # a command that loads the whole corpus first peaks about 6 MiB higher on 2,000 games
        # than on 200.  About 3 s, the games included
        def peak(corpus) -> int:
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main([*argv, "--input", corpus]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = map(peak, corpora)
        assert large - small < 2**20


class TestPlay:
    def test_policy_game(self, capsys):
        code, out = run_cli(capsys, "play", "--chips", "15", "--policy", "random", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_fires"] == 23
        assert sum(len(e["chips"]) for e in payload["config"]["cells"]) == 15

    def test_prints_the_canonical_config(self, capsys):
        code, out = run_cli(capsys, "play", "--chips", "5", "--policy", "min-triple")
        assert code == 0
        config = json.dumps(json.loads(out)["config"], separators=(",", ":"))
        # the line that the retired `simulate --labeled` printed for this game
        assert config == (
            '{"n_chips":5,"cells":[{"v":1,"chips":[4]},'
            '{"v":2,"chips":[1,2]},{"v":3,"chips":[3,5]}]}'
        )
        assert labeled.LabeledConfig.from_json(config).canonical_json() == config

    def test_stdout_is_pinned(self, capsys):
        digest = hashlib.sha256()
        for policy in labeled.POLICIES:
            for n in range(1, 101):
                argv = ("play", "--chips", str(n), "--policy", policy, "--seed", "0")
                code, out = run_cli(capsys, *argv)
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "4bcad4116e35387d68254a263cbba68a142d151c654edadad0511b9a6d3a5716"
        )


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
            (
                "--table 4..9 --exact",
                "20e5475394ed27ee985fcdc2e04d9d5e49bf0aebb8a7c5265d65b1385dec9408",
            ),
            (
                "--ell 3 --method naive",
                "6d7970eded86602d429e377f2809f11f04c9b0616b5b79bf79b43ceb8b9971d0",
            ),
            (
                "--ell 3 --method naive --json",
                "286df90aa6d932644af4455c5b0f826d99535281ea9bde22d63f87e17c2968c8",
            ),
            (
                "--ell 3 --method ballot --json",
                "b6882844e45c585909266dd97961370d98e449e26b9be09c99701b5b99990c07",
            ),
            (
                "--ell 3 --method all",
                "18c84c4e137e194b270b773230a9b40317d7173fd4a3c56753be2dcae060eb1c",
            ),
            (
                "--ell 3 --method all --json",
                "4e017f6bd7eaf2b6647043532c3675d92ce4ea6356793a76359f29738a4d5568",
            ),
            (
                "--ell 4 --method naive",
                "cd2584a15ed46e153ec2529b155be7f849b846a90e2641f0de8869b4bf5065cd",
            ),
            (
                "--ell 4 --method naive --json",
                "3f3f42160adc6ccf7017f9f815946ee088d92727cc51c7512e154edaa843d4d7",
            ),
            (
                "--ell 4 --method zigzag",
                "da43ae1de866e43c5f6947b016b955761f01004ace2f8420bfdf3599085e08e1",
            ),
            (
                "--ell 4 --method zigzag --json",
                "d71a7b69375eb7bedf5e3f764e48f625ad0f2a630c1c44d06062cb531adac64c",
            ),
            (
                "--ell 4 --method ballot",
                "0248152546e4b3148cebfd08019245cf329f9f2bc98e7e76ffde779b8f226f08",
            ),
            (
                "--ell 4 --method ballot --json",
                "b6dddbf7dac526d5b411d64014308f277a8de1e1870f355075c9988c0c925add",
            ),
            (
                "--ell 4 --method all",
                "c50a2cfd5da420893514e66c17b46d7b0914527e8fcbe32784e36d7f8be32451",
            ),
            (
                "--ell 4 --method all --json",
                "45493e7be6777072d979417c585dfdca1a344ba0d83d79b1a4cf1d75a5a5b0bc",
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
        lines = Path(corpus).read_text().splitlines()
        mirrored = (
            '{"n_chips":7,"cells":[{"v":1,"chips":[4]},{"v":2,"chips":[6]},'
            '{"v":3,"chips":[2]},{"v":4,"chips":[7]},{"v":5,"chips":[5]},'
            '{"v":6,"chips":[3]},{"v":7,"chips":[1]}]}'
        )
        rewrite_body(corpus, [mirrored, *lines[2:]])

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
        # stable and label-complete, but two chips share a vertex
        rewrite_body(corpus, ['{"n_chips":3,"cells":[{"v":1,"chips":[2]},{"v":2,"chips":[1,3]}]}'])
        code, _ = run_cli(capsys, "check", "--input", corpus, "--property", "extremes")
        assert code == 2

    def test_extraction_reads_subtrees_the_checkers_refuse(self, capsys, tmp_path):
        corpus = str(tmp_path / "z3.jsonl")
        run_cli(capsys, "enumerate", "--ell", "3", "--out", corpus)
        # the worked 7-chip configuration with chip 4 moved from the root to vertex 8:
        # the bottom-anchored 2-layer subtrees stay whole, the first 3 layers do not
        line = (
            '{"n_chips":7,"cells":[{"v":2,"chips":[2]},{"v":3,"chips":[6]},'
            '{"v":4,"chips":[1]},{"v":5,"chips":[3]},{"v":6,"chips":[5]},'
            '{"v":7,"chips":[7]},{"v":8,"chips":[4]}]}'
        )
        rewrite_body(corpus, [line])
        code, out = run_cli(capsys, "extract-orders", "--input", corpus, "--depth", "2")
        assert (code, out) == (0, "orders 1\n2;1,3\n")
        assert main(["check", "--input", corpus]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: config 0 is outside the checkers' domain: "
            "configuration is not one chip on each vertex of the first layers\n"
        )

    def test_check_on_too_small_corpus(self, capsys, tmp_path):
        corpus = str(tmp_path / "z2.jsonl")
        run_cli(capsys, "enumerate", "--ell", "2", "--out", corpus)
        code, _ = run_cli(capsys, "check", "--input", corpus, "--property", "forbidden")
        assert code == 2
        code, out = run_cli(capsys, "check", "--input", corpus, "--property", "all")
        assert code == 0
        assert "skip forbidden" in out

    @pytest.mark.parametrize("flag", ["--json", "--verbose"])
    def test_json_prints_one_document_when_checks_fail(self, capsys, tmp_path, flag):
        # --json prints the report object alone: no skip, PASS or FAIL line comes before it
        corpus = str(tmp_path / "z2.jsonl")
        run_cli(capsys, "enumerate", "--ell", "2", "--out", corpus)
        # chip 1 on the root: anchors, extremes and zigzag fail, forbidden is skipped
        line = '{"n_chips":3,"cells":[{"v":1,"chips":[1]},{"v":2,"chips":[2]},{"v":3,"chips":[3]}]}'
        rewrite_body(corpus, [line])
        code, out = run_cli(capsys, "check", "--input", corpus, flag, "--json")
        assert code == 1
        report = json.loads(out)
        assert report["summary"]["anchors"] == {"pass": 0, "fail": 1}
        assert report["summary"]["penultimate"] == {"pass": 1, "fail": 0}
        assert len(report["failures"]) == 3 and not report["all_pass"]

    @pytest.mark.parametrize(
        "cells",
        [
            '[{"v":1,"chips":[2.0]},{"v":2,"chips":[true]},{"v":3,"chips":[3]}]',
            '[{"v":1.0,"chips":[2]},{"v":2,"chips":[1]},{"v":3,"chips":[3]}]',
            '[{"v":true,"chips":[2]},{"v":2,"chips":[1]},{"v":3,"chips":[3]}]',
            '[{"v":1.5,"chips":[2]},{"v":2,"chips":[1]},{"v":3,"chips":[3]}]',
            '[{"v":1,"chips":[2]},{"v":2,"chips":[1]},{"v":3,"chips":[3]},{"v":9,"chips":[]}]',
        ],
    )
    def test_chips_and_vertices_that_are_not_integers_are_bad_records(
        self, capsys, tmp_path, cells
    ):
        # 2.0 == 2 and True == 1, so the first three once passed as the ell-2 configuration;
        # the last, with an empty chip list, loaded too
        corpus = str(tmp_path / "z2.jsonl")
        run_cli(capsys, "enumerate", "--ell", "2", "--out", corpus)
        rewrite_body(corpus, [f'{{"n_chips":3,"cells":{cells}}}'])
        with pytest.raises(enumeration.CorpusError, match="line 2: bad record"):
            enumeration.load(corpus)
        for argv in (["check"], ["extract-orders", "--depth", "2"]):
            assert main([*argv, "--input", corpus]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "line 2: bad record" in captured.err

    # the ell = 2 corpus's one configuration, and one outside the checkers' domain whose
    # 2-layer subtree is not fully occupied either
    _Z2 = '{"n_chips":3,"cells":[{"v":1,"chips":[2]},{"v":2,"chips":[1]},{"v":3,"chips":[3]}]}'
    _CROWDED = '{"n_chips":3,"cells":[{"v":1,"chips":[2]},{"v":2,"chips":[1,3]}]}'

    @pytest.mark.parametrize(
        "argv, first, command_fault",
        [
            (
                ["check"],
                _CROWDED,
                "config 0 is outside the checkers' domain: "
                "configuration is not one chip on each vertex of the first layers",
            ),
            (
                ["extract-orders", "--depth", "2"],
                _CROWDED,
                "subtree at 1 is not fully occupied at vertex 2",
            ),
            (
                ["check", "--property", "forbidden"],
                _Z2,
                "property forbidden needs at least 3 layers, corpus has 2",
            ),
            (["extract-orders", "--depth", "3"], _Z2, "depth must be in 1..2, got 3"),
        ],
        ids=["domain", "subtree", "property", "depth"],
    )
    @pytest.mark.parametrize("file_fault", [None, "checksum", "count", "record", "chips"])
    def test_a_fault_in_the_file_wins_over_a_fault_of_the_command(
        self, capsys, tmp_path, monkeypatch, argv, first, command_fault, file_fault
    ):
        # the command meets its fault on line 2, before the reader reaches the file's:
        # each line is a batch of its own.  Nothing is printed on stdout either way
        monkeypatch.setattr(enumeration, "_BLOCK_BYTES", 1)
        corpus = str(tmp_path / "z2.jsonl")
        run_cli(capsys, "enumerate", "--ell", "2", "--out", corpus)
        body = [first, self._Z2]
        if file_fault == "record":
            body.append("not a record")
        elif file_fault == "chips":
            body.append('{"n_chips":1,"cells":[{"v":1,"chips":[1]}]}')
        rewrite_body(corpus, body)
        header, rest = Path(corpus).read_text().split("\n", 1)
        header = json.loads(header)
        if file_fault == "checksum":
            header["sha256"] = "0" * 64
        elif file_fault == "count":
            header["count"] += 1
        Path(corpus).write_text(json.dumps(header, separators=(",", ":")) + "\n" + rest)
        message = {
            None: command_fault,
            "checksum": f"{corpus}: checksum mismatch",
            "count": f"{corpus}: header count 3 != body line count 2",
            "record": f"{corpus}: line 4: bad record: Expecting value: line 1 column 1 (char 0)",
            "chips": f"{corpus}: line 4: 1 chips, not 2^2 - 1",
        }[file_fault]
        assert main([*argv, "--input", corpus]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

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

    def test_a_resume_without_max_frontier_counts_the_resumed_level(self, capsys, tmp_path):
        # the pause is at depth 2, whose 36 states (20 lines) are the largest level
        ckpt = str(tmp_path / "z3.ckpt")
        argv = ["enumerate", "--ell", "3", "--json"]
        code, out = run_cli(capsys, *argv)
        assert (code, json.loads(out)["max_frontier"]) == (0, 36)
        code, _ = run_cli(capsys, *argv, "--max-frontier", "30", "--checkpoint", ckpt)
        head, body = Path(ckpt).read_bytes().split(b"\n", 1)
        header = json.loads(head)
        assert (code, header["depth"], header["frontier_count"]) == (4, 2, 20)
        del header["max_frontier"]
        Path(ckpt).write_bytes(json.dumps(header).encode() + b"\n" + body)
        code, out = run_cli(capsys, *argv, "--resume", ckpt)
        assert (code, json.loads(out)["max_frontier"]) == (0, 36)

    def test_checkpoint_version_mismatch_exit_code(self, capsys, tmp_path):
        ckpt = str(tmp_path / "z3.ckpt")
        run_cli(capsys, "enumerate", "--ell", "3", "--max-frontier", "5", "--checkpoint", ckpt)
        lines = Path(ckpt).read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        Path(ckpt).write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
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

    @pytest.mark.parametrize("flag", ["--max-seconds", "--checkpoint-every"])
    def test_a_nan_budget_is_a_usage_error(self, capsys, tmp_path, flag):
        ckpt = str(tmp_path / "z3.ckpt")
        argv = ["enumerate", "--ell", "3", "--checkpoint", ckpt, flag, "nan"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: checkpoint_every and max_seconds must not be NaN\n"
        assert not os.path.exists(ckpt)

    def test_an_infinite_budget_is_no_limit(self, capsys, tmp_path):
        ckpt = str(tmp_path / "z3.ckpt")
        argv = ["--checkpoint", ckpt, "--max-seconds", "inf", "--checkpoint-every", "inf"]
        code, out = run_cli(capsys, "enumerate", "--ell", "3", *argv)
        assert (code, out) == (0, "Z_3 = 6\n")
        assert not os.path.exists(ckpt)

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
    head, body = Path(path).read_bytes().split(b"\n", 1)
    header = json.loads(head)
    del header["depth"]
    Path(path).write_bytes(json.dumps(header).encode() + b"\n" + body)


def _forge_non_utf8(path):
    Path(path).write_bytes(b"\xff\xfe\x00not a checkpoint\n")


def _level(states):
    """The search's {shadow: ascending state ints} level of the bytes `states`."""
    level = {}
    for state in sorted(states):
        level.setdefault(shadow_of(state), []).append(int.from_bytes(state, "big"))
    return level


def _forge_empty_frontier(path):
    enumeration.write_checkpoint(path, 3, "full", 2, {}, 3, 15)


def _forge_all_chips_on_vertex_7(path):
    enumeration.write_checkpoint(path, 3, "full", 4, _level([bytes([7] * 7)]), 10, 15)


def _forge_unreachable_representative(path):
    enumeration.write_checkpoint(path, 3, "full", 4, _level([bytes([4] * 7)]), 10, 15)


def _forge_version_one(path):
    _paused_checkpoint(path)
    head, body = Path(path).read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["version"] = 1
    Path(path).write_bytes(json.dumps(header).encode() + b"\n" + body)


def _forge_larger_state_of_a_mirror_pair(path):
    _paused_checkpoint(path)
    depth, frontier, explored, max_seen = enumeration.read_checkpoint(path, 3, "full")
    states = [x.to_bytes(7, "big") for group in frontier.values() for x in group]
    mirrored = _level({max(s, mirror_of(s)) for s in states})
    enumeration.write_checkpoint(path, 3, "full", depth, mirrored, explored, max_seen)


def _forge_depth_shifted_by_two(path):
    _paused_checkpoint(path)
    depth, frontier, explored, max_seen = enumeration.read_checkpoint(path, 3, "full")
    enumeration.write_checkpoint(path, 3, "full", depth + 2, frontier, explored, max_seen)


def _forge_stable_state_off_its_shadow(path):
    # stable, the smaller of its mirror pair, at depth F(7) = 6, but two chips on vertex 4
    # where every stable 7-chip configuration has one: only its fire vector gives it away
    state = bytes([4, 4, 2, 1, 5, 3, 6])
    assert state < mirror_of(state)
    depth = unlabeled.total_fires(7)
    enumeration.write_checkpoint(path, 3, "full", depth, _level([state]), 84, 15)


def _forge_depth_past_the_stabilization_depth(path):
    enumeration.enumerate_stable(3, checkpoint_path=path, checkpoint_every=0)
    depth, frontier, explored, max_seen = enumeration.read_checkpoint(path, 3, "full")
    assert depth == unlabeled.total_fires(7)
    enumeration.write_checkpoint(path, 3, "full", depth + 1, frontier, explored, max_seen)


_FORGERIES = [
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
]


@pytest.mark.parametrize(
    "forge,pause",
    [pytest.param(forge, [], id=forge.__name__) for forge in _FORGERIES]
    + [
        pytest.param(forge, ["--max-frontier", "1", "--checkpoint"], id=f"{forge.__name__}-paused")
        for forge in _FORGERIES
    ],
)
def test_malformed_checkpoint_is_checkpoint_error(capsys, tmp_path, forge, pause):
    # a resumed level is checked before it can pause: no checkpoint is written
    ckpt = str(tmp_path / "z3.ckpt")
    forge(ckpt)
    argv = ["enumerate", "--ell", "3", "--resume", ckpt, *pause]
    if pause:
        argv.append(str(tmp_path / "fresh.ckpt"))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert os.listdir(tmp_path) == ["z3.ckpt"]


@pytest.mark.parametrize("block", [1, 3, 8])
@pytest.mark.parametrize("forge", _FORGERIES, ids=lambda forge: forge.__name__)
def test_a_forged_checkpoint_read_a_few_bytes_at_a_time_is_refused_alike(
    capsys, tmp_path, monkeypatch, forge, block
):
    # every line straddles blocks: the exit code and the message are the ones a
    # file read in one block gets
    ckpt = str(tmp_path / "z3.ckpt")
    forge(ckpt)
    argv = ["enumerate", "--ell", "3", "--resume", ckpt]
    whole = main(argv), capsys.readouterr()
    assert whole[0] == 3
    monkeypatch.setattr(enumeration, "_BLOCK_BYTES", block)
    assert (main(argv), capsys.readouterr()) == whole


@pytest.mark.parametrize("mode", enumeration.MODES)
@pytest.mark.parametrize("forgery", ["repeated", "swapped"])
def test_a_checkpoint_body_out_of_order_is_checkpoint_error(capsys, tmp_path, mode, forgery):
    # the forged body gets its own checksum, so only the order rule can refuse it
    ckpt = str(tmp_path / "z3.ckpt")
    with pytest.raises(enumeration.EnumerationPaused):
        enumeration.enumerate_stable(3, mode=mode, max_frontier=5, checkpoint_path=ckpt)
    head, body = Path(ckpt).read_bytes().split(b"\n", 1)
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


@pytest.mark.parametrize("block", [1, 3, 8])
@pytest.mark.parametrize("mode", enumeration.MODES)
def test_a_body_out_of_order_read_a_few_bytes_at_a_time_keeps_its_line_number(
    capsys, tmp_path, monkeypatch, mode, block
):
    ckpt = str(tmp_path / "z3.ckpt")
    with pytest.raises(enumeration.EnumerationPaused):
        enumeration.enumerate_stable(3, mode=mode, max_frontier=5, checkpoint_path=ckpt)
    head, body = Path(ckpt).read_bytes().split(b"\n", 1)
    lines = body.decode().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    fields = {k: v for k, v in json.loads(head).items() if k not in ("format", "version", "sha256")}
    enumeration._write_records(ckpt, enumeration.CHECKPOINT_FORMAT, fields, lines)
    monkeypatch.setattr(enumeration, "_BLOCK_BYTES", block)
    assert main(["enumerate", "--ell", "3", "--mode", mode, "--resume", ckpt]) == 3
    message = f"error: {ckpt}: line 4: state is not above the one before it\n"
    assert capsys.readouterr() == ("", message)


def test_forged_depth_is_refused_with_asserts_stripped(tmp_path):
    # a frontier at depth 4 that claims to sit at the stabilization depth; python -O
    # strips assert statements, so the search's invariants must be raised explicitly
    ckpt = str(tmp_path / "z4.ckpt")
    with pytest.raises(enumeration.EnumerationPaused):
        enumeration.enumerate_stable(4, max_frontier=50_000, checkpoint_path=ckpt)
    head, body = Path(ckpt).read_bytes().split(b"\n", 1)
    header = json.loads(head)
    assert header["depth"] == 4
    header["depth"] = unlabeled.total_fires(15)
    Path(ckpt).write_bytes(json.dumps(header).encode() + b"\n" + body)
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
    head, body = Path(ckpt).read_bytes().split(b"\n", 1)
    header = json.loads(head)
    assert header["depth"] == 4
    header["depth"] = 5
    Path(ckpt).write_bytes(json.dumps(header).encode() + b"\n" + body)
    argv = ["enumerate", "--ell", "4", "--resume", ckpt, "--checkpoint", ckpt]
    assert main([*argv, "--max-seconds", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {ckpt}: resumed frontier is not reachable: shadow ")
    assert " at depth 5 has fire vector " in captured.err
    assert json.loads(Path(ckpt).read_bytes().split(b"\n", 1)[0])["depth"] == 5


def test_a_closed_stdout_exits_2_without_a_traceback():
    # about 1.6 MB of output, more than a pipe holds, so a write fails once the reader leaves
    with subprocess.Popen(
        [sys.executable, "-m", "chipfire.cli", "sequence", "--name", "F", "--count", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(chipfire.__file__))},
    ) as proc:
        assert proc.stdout.readline() == "0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


_CHILD_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(chipfire.__file__))}


def test_the_cli_imports_no_worker_pool():
    # only a search that starts a pool imports it, and with it multiprocessing
    code = (
        "import sys, chipfire.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_CHILD_ENV, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


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


def test_extract_orders_on_an_empty_corpus_ranges_no_roots(tmp_path):
    # 2^(ell - depth) roots would take longer, and more memory, than the child is given
    header = {
        "format": enumeration.CORPUS_FORMAT,
        "version": enumeration.VERSIONS[enumeration.CORPUS_FORMAT],
        "ell": 10**13,
        "count": 0,
        "sha256": hashlib.sha256(b"").hexdigest(),
    }
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text(json.dumps(header) + "\n")
    gigabyte = 2**30
    proc = subprocess.run(
        [sys.executable, "-m", "chipfire.cli", "extract-orders", "--input", str(corpus)]
        + ["--depth", "1"],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gigabyte, gigabyte)),
        timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (0, "orders 0\n")


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
        "simulate": [*helps, "--chips", "--strategy", "--seed", "--json"],
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
        "check": [*helps, "--input", "--property", "--verbose", "--json"],
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
        assert Path(a).read_bytes() == Path(b).read_bytes()


def test_corpus_round_trips_through_library(capsys, tmp_path):
    corpus = str(tmp_path / "z3.jsonl")
    run_cli(capsys, "enumerate", "--ell", "3", "--out", corpus)
    loaded = enumeration.load(corpus)
    assert loaded.count == 6
