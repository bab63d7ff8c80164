import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qssbounds import cli, prover, simplex
from qssbounds.cli import build_parser, main
from qssbounds.simplex import LPSolution, SimplexError
from qssbounds.structures import CAPACITY

from helpers import bump_first_multiplier, count_quantum_scans


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_structure(tmp_path, name, n, sets):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "minimal_sets": sets}))
    return str(path)


# Structure JSON that is no object, or whose fields have wrong types.
HOSTILE_STRUCTURES = {
    "sets-not-a-list": {"n": 3, "minimal_sets": 5},
    "set-not-a-list": {"n": 3, "minimal_sets": [[1, 2], 3]},
    "string-player": {"n": 3, "minimal_sets": [[1, "2"]]},
    "float-player": {"n": 3, "minimal_sets": [[1, 2.0], [1, 3]]},
    "bool-player": {"n": 3, "minimal_sets": [[1, True]]},
    "bool-n": {"n": True, "minimal_sets": [[1]]},
    "top-level-list": [1, 2],
    "top-level-string": "x",
    "top-level-number": 3,
    "top-level-null": None,
}

# Certificate JSON that must be refused before any replay.
HOSTILE_CERTIFICATES = {
    "top-level-list": [],
    "null-claimed-bound": {"claimed_bound": None, "entries": []},
    "entries-string": {"claimed_bound": "1/1", "entries": "ab"},
    "entries-missing": {"claimed_bound": "1/1"},
    "entry-not-object": {"claimed_bound": "1/1", "entries": [["normalize", "1/1"]]},
    "list-id": {"claimed_bound": "1/1", "entries": [{"id": ["normalize"], "mult": "1/1"}]},
    "repeated-id": {
        "claimed_bound": "1/1",
        "entries": [{"id": "normalize", "mult": "1/2"}, {"id": "normalize", "mult": "1/2"}],
    },
    "decimal-mult": {"claimed_bound": "1/1", "entries": [{"id": "normalize", "mult": "0.5"}]},
    "exponent-mult": {"claimed_bound": "1/1", "entries": [{"id": "normalize", "mult": "1e3"}]},
    "float-mult": {"claimed_bound": "1/1", "entries": [{"id": "normalize", "mult": 2.5}]},
    "int-claimed-bound": {"claimed_bound": 1, "entries": []},
    "zero-denominator": {"claimed_bound": "1/0", "entries": []},
    "plus-sign": {"claimed_bound": "+1/2", "entries": []},
    "leading-space": {"claimed_bound": " 1/2", "entries": []},
    "trailing-newline": {"claimed_bound": "1/2\n", "entries": []},
    "underscore-digits": {
        "claimed_bound": "1/1", "entries": [{"id": "normalize", "mult": "1_0/3"}],
    },
    "negative-denominator": {"claimed_bound": "1/-2", "entries": []},
    # int() would read Arabic-Indic digits; the format is ASCII only
    "arabic-indic-digits": {
        "claimed_bound": "1/1", "entries": [{"id": "normalize", "mult": "١/٢"}],
    },
}


def _worker_dying_on_b(job):
    """``cli._batch_worker`` whose process dies on ``b.json``."""
    if os.path.basename(job[0]) == "b.json":
        os._exit(1)
    return _REAL_BATCH_WORKER(job)


_REAL_BATCH_WORKER = cli._batch_worker


GAMMA4_SETS = [[1, 2], [1, 3], [2, 3, 4]]

# Outputs of the commands that inspect and transform structures, on csirmaz(4).
RENDERINGS = {
    "gen-text": (("gen", "csirmaz", "--n", "4", "--format", "text"),
                 "players: 4\nminimal sets: (1,2); (1,3); (2,3,4)\nk: 2\n"),
    "check-text": (("check", "--in", "{g4}", "--format", "text"),
                   "players: 4\nminimal sets: (1,2); (1,3); (2,3,4)\nvalid antichain: yes\n"
                   "quantum: yes\nself-dual: no\n"),
    "dual-text": (("dual", "--in", "{g4}", "--format", "text"),
                  "players: 4\nminimal sets: (1,2); (1,3); (2,3); (1,4)\n"),
    "purify-json": (("purify", "--in", "{g4}"),
                    json.dumps({"n": 5, "minimal_sets": GAMMA4_SETS + [[2, 3, 5], [1, 4, 5]]},
                               indent=2) + "\n"),
}


@pytest.mark.parametrize("argv,expected", RENDERINGS.values(), ids=RENDERINGS.keys())
def test_structure_renderings(capsys, tmp_path, argv, expected):
    g4 = write_structure(tmp_path, "g4.json", 4, GAMMA4_SETS)
    code, out, _ = run(capsys, *(arg.format(g4=g4) for arg in argv))
    assert (code, out) == (0, expected)


# Runs of each subcommand; {t} is the (2,3) threshold structure, {bad} a
# broken antichain, {batch} a directory holding {t} and {cert} its certificate.
TEXT_RUNS = {
    "gen": [("gen", "csirmaz", "--n", "4")],
    "check": [("check", "--in", "{t}"), ("check", "--in", "{bad}")],
    "dual": [("dual", "--in", "{t}")],
    "purify": [("purify", "--in", "{t}")],
    "bound": [("bound", "--in", "{t}"), ("bound", "--batch", "{batch}")],
    "verify-cert": [("verify-cert", "--system-from", "{t}", "--cert", "{cert}")],
    "lemmas": [("lemmas", "--in", "{t}")],
    "chain": [("chain", "--n", "4")],
}


def _subcommands() -> list[str]:
    parser = cli.build_parser()
    return sorted(next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ))


@pytest.mark.parametrize("command", _subcommands())
def test_format_text_is_never_ignored(capsys, tmp_path, command):
    """Under --format text a command prints text or refuses the flag (exit 2)."""
    batch = tmp_path / "batch"
    batch.mkdir()
    files = {
        "t": write_structure(batch, "t.json", 3, [[1, 2], [1, 3], [2, 3]]),
        "bad": write_structure(tmp_path, "bad.json", 2, [[1], [1, 2]]),
        "batch": str(batch),
        "cert": str(tmp_path / "cert.json"),
    }
    assert main(["bound", "--in", files["t"], "--certificate", files["cert"],
                 "--out", str(tmp_path / "report.json")]) == 0
    for argv in TEXT_RUNS[command]:
        code, out, _ = run(capsys, *(a.format(**files) for a in argv), "--format", "text")
        if code != 2:
            assert out, argv
            with pytest.raises(ValueError):
                json.loads(out)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_successive_runs_match_fresh_runs(capsys, tmp_path):
    """Flags given to one `main` call do not carry over to the next."""
    path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
    cert = str(tmp_path / "cert.json")
    assert main(["bound", "--in", path, "--certificate", cert,
                 "--out", str(tmp_path / "report.json")]) == 0
    runs = [
        ("verify-cert", "--system-from", path, "--cert", cert, "--format", "text"),
        ("verify-cert", "--system-from", path, "--cert", cert),
        ("bound", "--in", path, "--players", "1,2"),
        ("bound", "--in", path),
    ]

    def outputs(argv):
        code, out, err = run(capsys, *argv)
        if argv[0] == "bound":
            out = json.loads(out)
            out["stats"].pop("millis")
        return code, out, err

    successive = [outputs(argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(outputs(argv))
    assert successive == fresh
    assert len({json.dumps(o, sort_keys=True) for o in fresh}) == len(runs)


class TestGen:
    def test_csirmaz_4(self, capsys):
        code, out, _ = run(capsys, "gen", "csirmaz", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data == {"n": 4, "minimal_sets": [[1, 2], [1, 3], [2, 3, 4]], "k": 2}

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "gen", "csirmaz", "--n", "6")
        _, second, _ = run(capsys, "gen", "csirmaz", "--n", "6")
        assert first == second

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "unknown", "--n", "4")
        assert code == 2
        assert "family" in err

    def test_small_n_fails(self, capsys):
        # malformed input: a usage error, like every other bad flag value
        code, out, err = run(capsys, "gen", "csirmaz", "--n", "3")
        assert (code, out) == (2, "")
        assert err == "error: --n 3: the staircase family needs at least 4 players\n"


class TestCheck:
    def test_round_trip_from_gen(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        run(capsys, "gen", "csirmaz", "--n", "4", "--out", str(out_path))
        code, out, _ = run(capsys, "check", "--in", str(out_path))
        assert code == 0
        data = json.loads(out)
        assert data["valid_antichain"] and data["is_quantum"]
        assert not data["is_self_dual"]

    def test_non_quantum_exits_1(self, capsys, tmp_path):
        path = write_structure(tmp_path, "nq.json", 2, [[1], [2]])
        code, out, _ = run(capsys, "check", "--in", path)
        assert code == 1
        assert json.loads(out)["is_quantum"] is False

    def test_broken_antichain_reported(self, capsys, tmp_path):
        path = write_structure(tmp_path, "bad.json", 2, [[1], [1, 2]])
        code, out, _ = run(capsys, "check", "--in", path)
        assert code == 1
        assert json.loads(out)["valid_antichain"] is False

    def test_broken_antichain_text(self, capsys, tmp_path):
        path = write_structure(tmp_path, "bad.json", 2, [[1], [1, 2]])
        code, out, _ = run(capsys, "check", "--in", path, "--format", "text")
        assert code == 1
        assert out.startswith(f"valid antichain: no\nerror: invalid access structure in {path}: ")

    def test_unreadable_input_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, "check", "--in", str(missing))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {missing}: ")

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", "--in", str(path))
        assert code == 2
        assert "malformed" in err

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "check", "--in", str(path))
        assert code == 2
        assert "malformed" in err

    def test_malformed_json_under_a_misleading_directory_name(self, capsys, tmp_path):
        # the error text then contains "invalid access structure", but
        # the input is still malformed JSON and so a usage error
        folder = tmp_path / "invalid access structure"
        folder.mkdir()
        path = folder / "broken.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "check", "--in", str(path))
        assert code == 2
        assert out == ""
        assert "malformed" in err

    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    def test_out_in_missing_directory_is_usage_error(self, capsys, tmp_path, valid):
        sets = [[1, 2], [1, 3], [2, 3]] if valid else [[1, 2], [1]]
        path = write_structure(tmp_path, "t.json", 3, sets)
        target = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, "check", "--in", path, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("shape", sorted(HOSTILE_STRUCTURES))
    def test_hostile_structure_reported_invalid(self, capsys, tmp_path, shape):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(HOSTILE_STRUCTURES[shape]))
        code, out, _ = run(capsys, "check", "--in", str(path))
        assert code == 1
        assert json.loads(out)["valid_antichain"] is False


class TestTransforms:
    def test_dual(self, capsys, tmp_path):
        path = write_structure(tmp_path, "g4.json", 4, [[1, 2], [1, 3], [2, 3, 4]])
        code, out, _ = run(capsys, "dual", "--in", path)
        assert code == 0
        assert json.loads(out)["minimal_sets"] == [[1, 2], [1, 3], [2, 3], [1, 4]]

    def test_purify_marks_new_party_in_text(self, capsys, tmp_path):
        path = write_structure(tmp_path, "g4.json", 4, [[1, 2], [1, 3], [2, 3, 4]])
        code, out, _ = run(capsys, "purify", "--in", path, "--format", "text")
        assert code == 0
        assert "(2,3,p)" in out and "(1,4,p)" in out

    def test_purify_non_quantum_fails(self, capsys, tmp_path):
        path = write_structure(tmp_path, "nq.json", 2, [[1], [2]])
        code, _, err = run(capsys, "purify", "--in", path)
        assert code == 1
        assert "quantum" in err

    def test_purify_over_capacity_exits_3(self, capsys, tmp_path):
        path = write_structure(tmp_path, "p15.json", 15, [[1, 2]])
        code, out, err = run(capsys, "purify", "--in", path)
        assert (code, out) == (3, "")
        assert "purification would exceed 15 players" in err


class TestBound:
    def test_threshold_bound(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        code, out, _ = run(capsys, "bound", "--in", path)
        assert code == 0
        data = json.loads(out)
        assert data["lp_value"] == "1/1"
        assert data["rate_upper_bound"] == "1/1"
        assert data["purified"] is False

    def test_bound_then_verify_roundtrip(self, capsys, tmp_path):
        path = write_structure(tmp_path, "g4.json", 4, [[1, 2], [1, 3], [2, 3, 4]])
        cert = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "bound", "--in", path, "--auto-purify",
            "--players", "1,2,3,4", "--certificate", str(cert),
        )
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 2 and data["theorem3_bound"] == "7/5"

        code, out, _ = run(
            capsys, "verify-cert", "--system-from", path, "--auto-purify",
            "--players", "1,2,3,4", "--cert", str(cert),
        )
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_tampered_certificate_rejected(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        cert = tmp_path / "cert.json"
        code, _, _ = run(capsys, "bound", "--in", path, "--certificate", str(cert))
        assert code == 0
        data = json.loads(cert.read_text())
        data["entries"][0]["mult"] = "41/1"
        cert.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, "verify-cert", "--system-from", path, "--cert", str(cert)
        )
        assert code == 1
        assert json.loads(out)["verified"] is False

    def test_limit_guard_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "chain", "--n", "9")
        assert code == 3
        assert "limit" in err

    @pytest.mark.parametrize(
        "flags", [("--auto-purify",), ("--mode", "mixed")], ids=["pure", "mixed"]
    )
    def test_zero_lp_value_fails_cleanly(self, capsys, tmp_path, flags):
        path = write_structure(tmp_path, "s.json", 4, [[2]])
        code, out, err = run(
            capsys, "bound", "--in", path, "--objective", "minsum", "--players", "1", *flags
        )
        assert (code, out) == (1, "")
        assert err.startswith("failed: the minsum over players 1 objective has LP value 0/1")

    def test_bad_objective_is_usage_error(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        # not quantum, so a flag checked after the files are read fails with exit 1
        nonquantum = write_structure(tmp_path, "nq.json", 2, [[1], [2]])
        for argv in (
            ("bound", "--in", path),
            ("verify-cert", "--system-from", nonquantum, "--cert", str(tmp_path / "c.json")),
        ):
            # non-ASCII digits: "²" passes str.isdigit, and int() reads "١" as 1
            for spec in ("median", "single:2", "single:x", "single:", "single:²", "single:١"):
                code, out, err = run(capsys, *argv, "--objective", spec)
                assert (code, out) == (2, ""), (argv, spec)
                assert err.startswith(f"error: bad --objective {spec!r}"), (argv, spec)

    def test_repeated_player_is_usage_error(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        cert = tmp_path / "cert.json"
        assert run(capsys, "bound", "--in", path, "--certificate", str(cert))[0] == 0
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "a.json", 3, [[1, 2], [1, 3], [2, 3]])
        # not quantum, so a flag checked after the files are read fails with exit 1
        nonquantum = write_structure(tmp_path, "nq.json", 2, [[1], [2]])
        for argv in (
            ("bound", "--in", path),
            ("bound", "--batch", str(batch), "--workers", "1"),
            ("verify-cert", "--system-from", path, "--cert", str(cert)),
            ("verify-cert", "--system-from", nonquantum, "--cert", str(cert)),
        ):
            # a repeated player, lists that name no player at all, and a
            # non-ASCII digit that int() would read as player 1
            for players in ("1,1", "", ",", "\u0661"):
                code, out, err = run(capsys, *argv, "--players", players)
                assert (code, out) == (2, ""), (argv, players)
                assert err.startswith(f"error: bad --players list {players!r}"), argv
                assert "Traceback" not in err
        assert not (batch / "a.report.json").exists()

    def test_player_zero_is_usage_error_before_any_file_is_read(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        for argv in (
            ("bound", "--in", missing),
            ("bound", "--batch", str(tmp_path / "missing")),
            ("verify-cert", "--system-from", missing, "--cert", missing),
        ):
            for players in ("0", "2,0"):
                code, out, err = run(capsys, *argv, "--players", players)
                assert (code, out) == (2, ""), (argv, players)
                assert err == (
                    f"error: bad --players list {players!r}: objective player 0 is below 1\n"
                ), argv

    def test_player_above_the_structure_is_usage_error(self, capsys, tmp_path):
        # checked once the structure is read: --auto-purify adds player 5 to g4
        t23 = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        g4 = write_structure(tmp_path, "g4.json", 4, GAMMA4_SETS)
        cert = tmp_path / "cert.json"
        assert run(capsys, "bound", "--in", t23, "--certificate", str(cert))[0] == 0
        for argv, players, n in (
            (("bound", "--in", t23), "9", 3),
            (("bound", "--in", t23, "--mode", "mixed"), "1,4", 3),
            (("bound", "--in", g4, "--auto-purify"), "6", 5),
            (("bound", "--in", g4, "--mode", "mixed"), "5", 4),
            (("verify-cert", "--system-from", t23, "--cert", str(cert)), "4", 3),
        ):
            code, out, err = run(capsys, *argv, "--players", players)
            assert (code, out) == (2, ""), argv
            top = max(map(int, players.split(",")))
            assert err == (
                f"error: bad --players list {players!r}: objective player {top} outside 1..{n}\n"
            ), argv
        code, out, _ = run(capsys, "bound", "--in", g4, "--auto-purify", "--objective", "minsum",
                           "--players", "5")
        assert code == 0 and json.loads(out)["lp_value"] == "1/1"

    def test_batch_records_a_player_above_the_structure(self, capsys, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "a.json", 3, [[1, 2], [1, 3], [2, 3]])
        write_structure(batch, "b.json", 4, GAMMA4_SETS)
        code, out, err = run(capsys, "bound", "--batch", str(batch), "--auto-purify",
                             "--players", "5", "--workers", "1")
        assert (code, err) == (1, "")
        a, b = json.loads(out)["batch"]
        assert a == {"file": "a.json", "status": "error",
                     "error": "objective player 5 outside 1..3"}
        assert b["status"] == "ok" and (batch / "b.report.json").exists()
        assert not (batch / "a.report.json").exists()

    def test_players_with_single_objective_is_usage_error(self, capsys, tmp_path):
        # single:<i> is gone, with or without --players; minsum --players i
        # is its one spelling.  Refused before any file is read: none of
        # these paths exists
        missing = str(tmp_path / "missing.json")
        for argv in (
            ("bound", "--in", missing),
            ("bound", "--batch", str(tmp_path / "missing")),
            ("verify-cert", "--system-from", missing, "--cert", missing),
        ):
            for players in ((), ("--players", "1,3")):
                code, out, err = run(capsys, *argv, "--objective", "single:2", *players)
                assert (code, out) == (2, ""), argv
                assert err == "error: bad --objective 'single:2'; use minmax or minsum\n", argv

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("flag", ["--certificate", "--out", "--dump-system"])
    def test_output_that_fails_to_write_is_usage_error(self, capsys, tmp_path, flag):
        # /dev/full opens, and every write to it fails; the files this run
        # created are removed, and paths that existed before it are kept
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        kept = tmp_path / "kept.json"
        kept.write_text("{}")
        code, out, err = run(capsys, "bound", "--in", path, flag, "/dev/full")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write /dev/full: ")
        outputs = {"--out": "report.json", "--certificate": "cert.json",
                   "--dump-system": "system.txt"}
        for existing in (None, "--out", "--certificate", "--dump-system"):
            if existing == flag:
                continue
            argv = ["bound", "--in", path, "--auto-purify", flag, "/dev/full"]
            for other, name in outputs.items():
                if other != flag:
                    argv += [other, str(kept if other == existing else tmp_path / name)]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: cannot write /dev/full: "), argv
            assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json", "t.json"], argv
        assert os.path.exists("/dev/full")

    def test_workers_without_batch_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # refused before the input is read: it does not exist
        read = []
        monkeypatch.setattr(cli, "_load_structure", lambda path: read.append(path))
        missing = str(tmp_path / "missing.json")
        for workers in ("1", "4"):
            code, out, err = run(capsys, "bound", "--in", missing, "--workers", workers)
            assert (code, out) == (2, "")
            assert err == "error: bound --workers needs --batch DIR\n"
        assert read == []

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_batch_with_fewer_than_one_worker_is_usage_error(
        self, capsys, tmp_path, monkeypatch, workers
    ):
        # refused before the directory is listed or any input is read
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "a.json", 3, [[1, 2], [1, 3], [2, 3]])
        listed = []
        monkeypatch.setattr(cli.os, "listdir", lambda path: listed.append(path) or [])
        code, out, err = run(capsys, "bound", "--batch", str(batch), "--auto-purify",
                             "--workers", workers)
        assert (code, out, listed) == (2, "", [])
        assert err == f"error: bound --workers needs at least 1 worker, not {workers}\n"
        monkeypatch.undo()
        assert sorted(p.name for p in batch.iterdir()) == ["a.json"]

    def test_auto_purify_in_mixed_mode_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # mixed mode never purifies; refused before any file is read
        read = []
        monkeypatch.setattr(cli, "_load_structure", lambda path: read.append(path))
        missing = str(tmp_path / "missing.json")
        for argv in (
            ("bound", "--in", missing),
            ("bound", "--batch", str(tmp_path / "missing")),
            ("verify-cert", "--system-from", missing, "--cert", missing),
        ):
            code, out, err = run(capsys, *argv, "--auto-purify", "--mode", "mixed")
            assert (code, out) == (2, ""), argv
            assert err == (
                "error: --auto-purify applies to pure mode only; mixed mode never purifies\n"
            ), argv
        assert read == []

    def test_bound_without_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bound")
        assert code == 2
        assert "--in" in err

    def test_dump_system(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        dump = tmp_path / "system.txt"
        code, _, _ = run(capsys, "bound", "--in", path, "--dump-system", str(dump))
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "nonneg:1 : 1*S(1) >= 0"
        assert any(line.startswith("purity : ") for line in lines)

    def test_text_report(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        code, out, _ = run(capsys, "bound", "--in", path, "--format", "text")
        assert code == 0
        assert "largest share >= 1/1" in out

    def test_text_report_of_a_single_share_and_a_staircase(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        code, out, _ = run(capsys, "bound", "--in", path, "--objective", "minsum",
                           "--players", "2", "--format", "text")
        assert code == 0
        assert out.splitlines()[2:5] == [
            "objective: minsum over players 2",
            "largest share >= 1/1 * S(secret)",
            "information rate <= 1/1",
        ]
        path = write_structure(tmp_path, "g4.json", 4, GAMMA4_SETS)
        code, out, _ = run(capsys, "bound", "--in", path, "--auto-purify", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[:-1] == [
            "structure: (1,2); (1,3); (2,3,4); (2,3,p); (1,4,p) [purified]",
            "mode: pure   inequalities: full",
            "objective: minmax over players 1,2,3,4,5",
            "largest share >= 5/3 * S(secret)",
            "information rate <= 3/5",
            "closed-form reference (k=2): 7/5",
        ]
        assert lines[-1].startswith("lp: 62 rows, 12 cols, 25 pivots, ")

    def test_bound_deterministic_apart_from_timing(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        _, first, _ = run(capsys, "bound", "--in", path)
        _, second, _ = run(capsys, "bound", "--in", path)
        a, b = json.loads(first), json.loads(second)
        a["stats"].pop("millis"), b["stats"].pop("millis")
        assert a == b

    @pytest.mark.parametrize("shape", sorted(HOSTILE_STRUCTURES))
    def test_hostile_structure_is_usage_error(self, capsys, tmp_path, shape):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(HOSTILE_STRUCTURES[shape]))
        code, out, err = run(capsys, "bound", "--in", str(path))
        assert code == 2
        assert out == ""
        assert "invalid access structure" in err

    @pytest.mark.parametrize("shape", sorted(HOSTILE_CERTIFICATES))
    def test_hostile_certificate_is_usage_error(self, capsys, tmp_path, shape):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(HOSTILE_CERTIFICATES[shape]))
        code, out, err = run(capsys, "verify-cert", "--system-from", path, "--cert", str(cert))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read certificate")

    def test_deeply_nested_certificate_is_usage_error(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        cert = tmp_path / "cert.json"
        cert.write_text('{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, _, err = run(capsys, "verify-cert", "--system-from", path, "--cert", str(cert))
        assert code == 2
        assert err.startswith("error: cannot read certificate")

    def test_batch(self, capsys, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "a.json", 3, [[1, 2], [1, 3], [2, 3]])
        write_structure(batch, "b.json", 2, [[1, 2]])
        code, out, _ = run(
            capsys, "bound", "--batch", str(batch), "--auto-purify", "--workers", "1"
        )
        assert code == 0
        summary = json.loads(out)["batch"]
        assert [e["file"] for e in summary] == ["a.json", "b.json"]
        assert all(e["status"] == "ok" for e in summary)
        assert (batch / "a.report.json").exists()
        report = json.loads((batch / "b.report.json").read_text())
        assert report["purified"] is True

    @pytest.mark.parametrize("flag", ["--out", "--certificate", "--dump-system"])
    def test_output_in_missing_directory_is_usage_error(self, capsys, tmp_path, flag):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        target = tmp_path / "missing" / "x.json"
        code, _, err = run(capsys, "bound", "--in", path, flag, str(target))
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--out", "--certificate", "--dump-system"])
    def test_output_in_missing_directory_fails_before_solving(
        self, capsys, tmp_path, monkeypatch, flag
    ):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        solved = []
        monkeypatch.setattr(cli, "share_bound", lambda *a, **k: solved.append(a))
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "bound", "--in", path, flag, str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert solved == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]

    def test_output_path_that_is_a_directory_fails_before_solving(
        self, capsys, tmp_path, monkeypatch
    ):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        solved = []
        monkeypatch.setattr(cli, "share_bound", lambda *a, **k: solved.append(a))
        code, _, err = run(capsys, "bound", "--in", path, "--out", str(tmp_path))
        assert code == 2
        assert err == f"error: cannot write {tmp_path}: it is a directory\n"
        assert solved == []

    def test_batch_out_in_missing_directory_fails_before_solving(
        self, capsys, tmp_path, monkeypatch
    ):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "a.json", 3, [[1, 2], [1, 3], [2, 3]])
        solved = []
        monkeypatch.setattr(cli, "share_bound", lambda *a, **k: solved.append(a))
        missing = tmp_path / "missing"
        code, out, err = run(
            capsys, "bound", "--batch", str(batch), "--out", str(missing), "--workers", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write reports to {missing}")
        assert solved == []
        assert sorted(p.name for p in batch.iterdir()) == ["a.json"]

    @pytest.mark.parametrize("flag", ["--in", "--certificate", "--dump-system", "--format text"])
    def test_batch_refuses_single_file_flags(self, capsys, tmp_path, monkeypatch, flag):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "a.json", 3, [[1, 2], [1, 3], [2, 3]])
        solved = []
        monkeypatch.setattr(cli, "share_bound", lambda *a, **k: solved.append(a))
        listed = []
        monkeypatch.setattr(cli.os, "listdir", lambda path: listed.append(path) or [])
        target = tmp_path / "x.json"
        name, _, value = flag.partition(" ")
        code, out, err = run(
            capsys, "bound", "--batch", str(batch), name, value or str(target), "--workers", "1"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: bound --batch does not take {flag}\n"
        assert solved == [] and listed == []
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["batch"]
        assert sorted(p.name for p in batch.iterdir()) == ["a.json"]

    @pytest.mark.parametrize("kind", ["missing", "no-inputs"])
    def test_batch_without_inputs_is_usage_error(self, capsys, tmp_path, kind):
        batch = tmp_path / "batch"
        if kind == "no-inputs":
            batch.mkdir()
            (batch / "a.report.json").write_text("{}")
        code, out, err = run(capsys, "bound", "--batch", str(batch), "--workers", "1")
        assert (code, out) == (2, "")
        expected = f"cannot list {batch}: " if kind == "missing" else f"no .json inputs in {batch}"
        assert err.startswith("error: " + expected)

    def test_batch_records_a_file_over_the_limit(self, capsys, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "a.json", 3, [[1, 2], [1, 3], [2, 3]])
        code, out, _ = run(
            capsys, "bound", "--batch", str(batch), "--limit-elements", "3", "--workers", "1"
        )
        assert code == 1
        (entry,) = json.loads(out)["batch"]
        assert (entry["file"], entry["status"]) == ("a.json", "limit")
        assert entry["error"].startswith("4 ground elements exceed the limit 3")
        assert sorted(p.name for p in batch.iterdir()) == ["a.json"]

    def test_verify_cert_text(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        cert = tmp_path / "cert.json"
        assert run(capsys, "bound", "--in", path, "--certificate", str(cert))[0] == 0
        argv = ("verify-cert", "--system-from", path, "--cert", str(cert), "--format", "text")
        assert run(capsys, *argv)[:2] == (0, "verified: yes\nclaimed bound: 1/1\n")
        cert.write_text(json.dumps({"claimed_bound": "0/1",
                                    "entries": [{"id": "unknown", "mult": "1/1"}]}))
        assert run(capsys, *argv)[:2] == (
            1, "verified: no\nerror: certificate references unknown constraint 'unknown'\n"
        )

    def test_batch_collects_errors(self, capsys, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "bad.json", 2, [[1], [2]])
        code, out, _ = run(capsys, "bound", "--batch", str(batch), "--workers", "1")
        assert code == 1
        assert json.loads(out)["batch"][0]["status"] == "error"


class TestSolverFailures:
    @staticmethod
    def raise_simplex_error(problem):
        raise SimplexError("iteration limit exceeded")

    @staticmethod
    def return_infeasible(problem):
        return LPSolution("infeasible", None, None, None, 0)

    def test_simplex_error_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", 0)
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        code, out, err = run(capsys, "bound", "--in", path)
        assert code == 1
        assert out == ""
        assert err == "failed: iteration limit exceeded\n"

    def test_certificate_that_fails_replay_is_never_written(self, capsys, tmp_path, monkeypatch):
        bump_first_multiplier(monkeypatch)
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        report, cert = tmp_path / "r.json", tmp_path / "c.json"
        code, out, err = run(capsys, "bound", "--in", path, "--out", str(report),
                             "--certificate", str(cert))
        assert (code, out) == (1, "")
        assert err == "failed: emitted certificate failed independent replay\n"
        assert not report.exists() and not cert.exists()

    def test_batch_records_a_file_over_the_iteration_limit(self, capsys, tmp_path, monkeypatch):
        # threshold(2,3) takes 5 pivots and the purified g4 32, so a limit
        # of 10 pivots per run (the zero phase, then the dual run) stops only g4
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", 10)
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        write_structure(batch, "g4.json", 4, GAMMA4_SETS)
        code, out, err = run(capsys, "bound", "--batch", str(batch), "--auto-purify",
                             "--workers", "1")
        assert code == 1
        assert "Traceback" not in err
        assert json.loads(out)["batch"] == [
            {"file": "g4.json", "status": "error", "error": "iteration limit exceeded"},
            {"file": "t.json", "status": "ok", "lp_value": "1/1", "report": "t.report.json"},
        ]
        assert json.loads((batch / "t.report.json").read_text())["lp_value"] == "1/1"
        assert not (batch / "g4.report.json").exists()

    def test_prover_error_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(prover, "solve", self.return_infeasible)
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        code, out, err = run(capsys, "bound", "--in", path)
        assert code == 1
        assert out == ""
        assert err.startswith("failed: bound solve ended infeasible")

    def test_batch_records_solver_errors_per_file(self, capsys, tmp_path, monkeypatch):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "a.json", 3, [[1, 2], [1, 3], [2, 3]])
        write_structure(batch, "b.json", 3, [[1, 2], [1, 3], [2, 3]])
        failures = iter([self.raise_simplex_error, self.return_infeasible])
        monkeypatch.setattr(prover, "solve", lambda problem: next(failures)(problem))
        code, out, _ = run(capsys, "bound", "--batch", str(batch), "--workers", "1")
        assert code == 1
        summary = json.loads(out)["batch"]
        assert [(e["file"], e["status"]) for e in summary] == [
            ("a.json", "error"), ("b.json", "error"),
        ]
        assert summary[0]["error"] == "iteration limit exceeded"
        assert "infeasible" in summary[1]["error"]

    def test_batch_keeps_finished_reports_when_a_job_raises(self, capsys, tmp_path, monkeypatch):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "a.json", 3, [[1, 2], [1, 3], [2, 3]])
        write_structure(batch, "b.json", 3, [[1, 2], [1, 3], [2, 3]])
        real = cli.share_bound
        calls = []

        def second_call_raises(structure, **options):
            calls.append(structure)
            if len(calls) == 2:
                raise RuntimeError("unexpected failure")
            return real(structure, **options)

        monkeypatch.setattr(cli, "share_bound", second_call_raises)
        code, out, err = run(capsys, "bound", "--batch", str(batch), "--workers", "1")
        assert code == 1
        summary = json.loads(out)["batch"]
        assert [(e["file"], e["status"]) for e in summary] == [
            ("a.json", "ok"), ("b.json", "error"),
        ]
        assert summary[1]["error"] == "RuntimeError: unexpected failure"
        assert "b.json: Traceback" in err
        assert json.loads((batch / "a.report.json").read_text())["lp_value"] == "1/1"
        assert not (batch / "b.report.json").exists()


    def test_batch_worker_death_keeps_finished_reports(self, capsys, tmp_path, monkeypatch):
        batch = tmp_path / "batch"
        batch.mkdir()
        for name in ("a.json", "b.json", "c.json"):
            write_structure(batch, name, 3, [[1, 2], [1, 3], [2, 3]])
        monkeypatch.setattr(cli, "_batch_worker", _worker_dying_on_b)
        code, out, err = run(capsys, "bound", "--batch", str(batch), "--workers", "2")
        assert code == 1
        assert "Traceback" not in err
        summary = json.loads(out)["batch"]
        assert [e["file"] for e in summary] == ["a.json", "b.json", "c.json"]
        assert summary[1] == {
            "file": "b.json", "status": "error", "error": "worker process died"
        }
        # a.json and c.json may or may not finish before the pool breaks;
        # each ends as a written report or as a recorded error, never lost
        for entry in summary:
            report = batch / (entry["file"][: -len(".json")] + ".report.json")
            if entry["status"] == "ok":
                assert json.loads(report.read_text())["lp_value"] == "1/1"
            else:
                assert entry["error"] == "worker process died"
                assert not report.exists()

    def test_import_leaves_the_process_pool_unloaded(self):
        # only --batch with more than one worker needs the pool, so a plain
        # command does not pay for importing it
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import sys, qssbounds.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('concurrent.futures')))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert "concurrent.futures.process" not in done.stdout


# name -> (players, minimal sets, flags); g4bar is g4 purified by --auto-purify
CLI_STRUCTURES = {
    "threshold23": (3, [[1, 2], [1, 3], [2, 3]], ()),
    "g4bar": (4, [[1, 2], [1, 3], [2, 3, 4]], ("--auto-purify",)),
}
PINNED_CLI = json.loads(
    (Path(__file__).parent / "data" / "pinned_cli.json").read_text(encoding="utf-8")
)


def _tampered(cert: dict, kind: str) -> dict:
    entries = [dict(e) for e in cert["entries"]]
    if kind == "unknown-id":
        entries[0]["id"] = "unknown:" + entries[0]["id"]
    elif kind == "raised-mult":
        link = next(e for e in entries if e["id"].startswith("objlink:"))
        num, den = map(int, link["mult"].split("/"))
        link["mult"] = f"{num + den}/{den}"
    else:  # player 1 written as an Arabic-Indic digit, which int() would accept
        entries[0]["id"] = entries[0]["id"].replace("1", "١", 1)
    return {"claimed_bound": cert["claimed_bound"], "entries": entries}


def cli_outputs(tmp_path, name: str, ineq: str) -> dict:
    """Exit codes and output files of `bound --dump-system` and `verify-cert`.

    The dump is kept as its line count and SHA-256; the certificate and
    the `verify-cert` JSON (genuine and three tampered certificates) are
    kept whole.  Only files are read, so `main` runs as the command would.
    """
    n, sets, flags = CLI_STRUCTURES[name]
    path = write_structure(tmp_path, f"{name}.json", n, sets)
    cert, dump = tmp_path / "cert.json", tmp_path / "system.txt"
    code = main(["bound", "--in", path, *flags, "--ineq", ineq, "--certificate", str(cert),
                 "--dump-system", str(dump), "--out", str(tmp_path / "report.json")])
    text = dump.read_bytes()
    out = {"bound_exit": code, "dump_lines": text.count(b"\n"),
           "dump_sha256": hashlib.sha256(text).hexdigest(),
           "certificate": cert.read_text(encoding="utf-8")}
    genuine = json.loads(out["certificate"])
    for kind in ("genuine", "unknown-id", "raised-mult", "arabic-digit"):
        data = genuine if kind == "genuine" else _tampered(genuine, kind)
        cpath, vpath = tmp_path / f"{kind}.cert.json", tmp_path / f"{kind}.out.json"
        cpath.write_text(json.dumps(data), encoding="utf-8")
        code = main(["verify-cert", "--system-from", path, *flags, "--ineq", ineq,
                     "--cert", str(cpath), "--out", str(vpath)])
        out[f"verify_{kind}"] = [code, vpath.read_text(encoding="utf-8")]
    return out


class TestPinnedOutputs:
    """`bound --dump-system` and `verify-cert` print what they printed when
    the rows were looked up in a fully generated system."""

    @pytest.mark.parametrize("key", sorted(PINNED_CLI))
    def test_outputs(self, tmp_path, key):
        name, ineq = key.split("/")
        assert cli_outputs(tmp_path, name, ineq) == PINNED_CLI[key]


class TestHostileRowIds:
    IDS = ["nonneg:²", "nonneg:١", "nonneg:" + "1" * 5000, "nonneg:01", "ssa:2;1|∅",
           "ssa:1;2|∅ ", "recover:1", "purity:", "unknown:", ""]

    @pytest.mark.parametrize("ineq", ["full", "elemental"])
    @pytest.mark.parametrize("mode", ["pure", "mixed"])
    def test_verify_cert_exits_1(self, capsys, tmp_path, ineq, mode):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        for i, rid in enumerate(self.IDS + (["purity"] if mode == "mixed" else [])):
            cert = tmp_path / f"{i}.json"
            cert.write_text(json.dumps(
                {"claimed_bound": "0/1", "entries": [{"id": rid, "mult": "1/1"}]}
            ))
            code, out, err = run(capsys, "verify-cert", "--system-from", path, "--cert",
                                 str(cert), "--ineq", ineq, "--mode", mode)
            assert (code, err) == (1, ""), rid[:20]
            data = json.loads(out)
            assert data["verified"] is False
            assert data["error"] == f"certificate references unknown constraint {rid!r}"


class TestLemmasCommand:
    def test_threshold(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        code, out, _ = run(capsys, "lemmas", "--in", path)
        assert code == 0
        data = json.loads(out)
        assert data["all_implied"] is True
        assert data["implied"] == data["total"]

    def test_needs_self_dual_or_flag(self, capsys, tmp_path):
        path = write_structure(tmp_path, "g4.json", 4, [[1, 2], [1, 3], [2, 3, 4]])
        code, _, err = run(capsys, "lemmas", "--in", path)
        assert code == 1
        assert "auto-purify" in err


    @pytest.mark.parametrize(
        "flag", [["--mode", "mixed"], ["--objective", "minsum"], ["--players", "7"]]
    )
    def test_flags_it_would_ignore_are_usage_errors(self, capsys, tmp_path, flag):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "--in", path, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_flags_it_reads(self, capsys, tmp_path):
        # not self-dual: --auto-purify adds a fourth player, 5 elements
        path = write_structure(tmp_path, "star.json", 3, [[1, 2], [1, 3]])
        code, out, _ = run(
            capsys, "lemmas", "--in", path, "--auto-purify", "--ineq", "elemental",
            "--limit-elements", "5", "--format", "text",
        )
        assert code == 0
        assert "failures: none" in out
        code, _, _ = run(capsys, "lemmas", "--in", path, "--auto-purify", "--limit-elements", "4")
        assert code == 3

    def test_auto_purify_prepares_the_structure_once(self, capsys, tmp_path, monkeypatch):
        calls = count_quantum_scans(monkeypatch)
        path = write_structure(tmp_path, "g4.json", 4, [[1, 2], [1, 3], [2, 3, 4]])
        code, out, _ = run(capsys, "lemmas", "--in", path, "--auto-purify", "--ineq", "elemental")
        assert code == 0
        assert json.loads(out)["structure"]["n"] == 5
        assert len(calls) == 1


class TestQuantumScan:
    """Each command checks its input for disjoint authorized sets once."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("check",),
            ("purify",),
            ("bound", "--auto-purify"),
            ("lemmas", "--auto-purify", "--ineq", "elemental"),
            ("verify-cert", "--auto-purify", "--cert", "{cert}"),
        ],
        ids=["check", "purify", "bound", "lemmas", "verify-cert"],
    )
    def test_one_scan_per_command(self, capsys, tmp_path, monkeypatch, argv):
        path = write_structure(tmp_path, "g4.json", 4, [[1, 2], [1, 3], [2, 3, 4]])
        cert = tmp_path / "cert.json"
        code, _, _ = run(capsys, "bound", "--in", path, "--auto-purify", "--certificate", str(cert))
        assert code == 0
        calls = count_quantum_scans(monkeypatch)
        flag = "--system-from" if argv[0] == "verify-cert" else "--in"
        argv = [a.format(cert=cert) for a in argv]
        assert run(capsys, argv[0], flag, path, *argv[1:])[0] == 0
        assert len(calls) == 1

    def test_pure_mode_refuses_a_structure_not_self_dual(self, capsys, tmp_path, monkeypatch):
        path = write_structure(tmp_path, "g4.json", 4, [[1, 2], [1, 3], [2, 3, 4]])
        calls = count_quantum_scans(monkeypatch)
        code, _, err = run(capsys, "bound", "--in", path)
        assert code == 1 and "pure mode needs a self-dual structure" in err
        assert len(calls) == 1


class TestChainCommand:
    @pytest.mark.parametrize(
        "flag",
        [["--mode", "mixed"], ["--objective", "minsum"], ["--players", "7"], ["--auto-purify"]],
    )
    def test_flags_it_would_ignore_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["chain", "--n", "4", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["3", "0", "-2"])
    def test_small_n_is_a_usage_error_before_any_work(self, capsys, monkeypatch, n):
        monkeypatch.setattr(cli, "theorem3_chain", lambda *a, **k: pytest.fail("chain ran"))
        code, out, err = run(capsys, "chain", "--n", n)
        assert (code, out) == (2, "")
        assert err == f"error: --n {n}: the staircase family needs at least 4 players\n"

    def test_limit_flags_apply(self, capsys):
        code, _, err = run(capsys, "chain", "--n", "4", "--limit-elements", "5")
        assert code == 3
        assert err.startswith("limit:")

    def test_n4_text(self, capsys):
        code, out, _ = run(capsys, "chain", "--n", "4", "--format", "text")
        assert code == 0
        assert out == (
            "k = 2, closed-form bound 7/5\n"
            "  [ok ] S(A,B_0)+S(B_1) >= S(A,B_1)+S(B_0)+2\n"
            "  [ok ] S(A,B_1)+S(B_2) >= S(A,B_2)+S(B_1)+2\n"
            "  [ok ] S(A)+S(B) >= S(A,B)+4\n"
            "  [ok ] 2*S(A)+S(purifier) >= 7\n"
            "lp value: 5/3 (rate <= 3/5)\n"
        )

    def test_n4_json(self, capsys):
        code, out, _ = run(capsys, "chain", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 2
        assert data["theorem3_bound"] == "7/5"
        assert data["all_implied"] is True
        assert [s["id"] for s in data["steps"]] == [
            "step:0", "step:1", "telescoped", "final",
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--in", "t.json"),
        ("verify-cert", "--system-from", "t.json", "--cert", "c.json"),
        ("lemmas", "--in", "t.json"),
        ("chain", "--n", "4"),
    ],
    ids=["bound", "verify-cert", "lemmas", "chain"],
)
def test_force_is_not_a_flag(capsys, argv):
    # --limit-elements is the only limit; 16 admits every structure
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--in", "missing.json"),
        ("verify-cert", "--system-from", "missing.json", "--cert", "missing.json"),
        ("lemmas", "--in", "missing.json"),
        ("chain", "--n", "4"),
    ],
    ids=["bound", "verify-cert", "lemmas", "chain"],
)
def test_limit_elements_outside_two_to_capacity_is_usage_error(capsys, monkeypatch, argv):
    # a ground set has 2 to CAPACITY elements; refused before any file is read or work done
    monkeypatch.setattr(cli, "_load_structure", lambda path: pytest.fail("read " + path))
    monkeypatch.setattr(cli, "theorem3_chain", lambda *a, **k: pytest.fail("chain ran"))
    for limit in ("-5", "0", "1", str(CAPACITY + 1), "99"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--limit-elements", limit])
        assert exc.value.code == 2
        assert "--limit-elements" in capsys.readouterr().err
    for limit in (2, CAPACITY):
        args = build_parser().parse_args([*argv, "--limit-elements", str(limit)])
        assert args.limit_elements == limit


@pytest.mark.parametrize(
    "argv,work",
    [
        (("lemmas", "--in", "{t}"), "lemma_suite"),
        (("chain", "--n", "4"), "theorem3_chain"),
        (("verify-cert", "--system-from", "{t}", "--cert", "{t}"), "bound_setup"),
    ],
    ids=["lemmas", "chain", "verify-cert"],
)
def test_out_in_missing_directory_fails_before_any_work(capsys, tmp_path, monkeypatch, argv, work):
    path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])

    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(cli, work, refuse)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *(a.format(t=path) for a in argv), "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
