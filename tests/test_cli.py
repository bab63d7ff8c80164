import json
import os

import pytest

from qssbounds import cli, prover
from qssbounds.cli import main
from qssbounds.simplex import LPSolution, SimplexError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_structure(tmp_path, name, n, sets):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "minimal_sets": sets}))
    return str(path)


# Structure JSON of the right overall shape whose fields have wrong types.
HOSTILE_STRUCTURES = {
    "sets-not-a-list": {"n": 3, "minimal_sets": 5},
    "set-not-a-list": {"n": 3, "minimal_sets": [[1, 2], 3]},
    "string-player": {"n": 3, "minimal_sets": [[1, "2"]]},
    "float-player": {"n": 3, "minimal_sets": [[1, 2.0], [1, 3]]},
    "bool-player": {"n": 3, "minimal_sets": [[1, True]]},
    "bool-n": {"n": True, "minimal_sets": [[1]]},
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
}


def _worker_dying_on_b(job):
    """``cli._batch_worker`` whose process dies on ``b.json``."""
    if os.path.basename(job[0]) == "b.json":
        os._exit(1)
    return _REAL_BATCH_WORKER(job)


_REAL_BATCH_WORKER = cli._batch_worker


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
        code, _, _ = run(capsys, "gen", "csirmaz", "--n", "3")
        assert code == 1


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

    def test_bad_objective_is_usage_error(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        code, _, err = run(capsys, "bound", "--in", path, "--objective", "median")
        assert code == 2
        assert "--objective" in err

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
        assert lines[0] == "emptyset : 1*S(∅) = 0"
        assert any(line.startswith("purity : ") for line in lines)

    def test_text_report(self, capsys, tmp_path):
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        code, out, _ = run(capsys, "bound", "--in", path, "--format", "text")
        assert code == 0
        assert "largest share >= 1/1" in out

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

    @pytest.mark.parametrize("flag", ["--in", "--certificate", "--dump-system"])
    def test_batch_refuses_single_file_flags(self, capsys, tmp_path, monkeypatch, flag):
        batch = tmp_path / "batch"
        batch.mkdir()
        write_structure(batch, "a.json", 3, [[1, 2], [1, 3], [2, 3]])
        solved = []
        monkeypatch.setattr(cli, "share_bound", lambda *a, **k: solved.append(a))
        listed = []
        monkeypatch.setattr(cli.os, "listdir", lambda path: listed.append(path) or [])
        target = tmp_path / "x.json"
        code, out, err = run(
            capsys, "bound", "--batch", str(batch), flag, str(target), "--workers", "1"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: bound --batch does not take {flag}\n"
        assert solved == [] and listed == []
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["batch"]
        assert sorted(p.name for p in batch.iterdir()) == ["a.json"]

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
        monkeypatch.setattr(prover, "solve", self.raise_simplex_error)
        path = write_structure(tmp_path, "t.json", 3, [[1, 2], [1, 3], [2, 3]])
        code, out, err = run(capsys, "bound", "--in", path)
        assert code == 1
        assert out == ""
        assert err == "failed: iteration limit exceeded\n"

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
        "flag", [["--mode", "mixed"], ["--objective", "single:9"], ["--players", "7"]]
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


class TestChainCommand:
    @pytest.mark.parametrize(
        "flag",
        [["--mode", "mixed"], ["--objective", "single:9"], ["--players", "7"], ["--auto-purify"]],
    )
    def test_flags_it_would_ignore_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["chain", "--n", "4", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_limit_flags_apply(self, capsys):
        code, _, err = run(capsys, "chain", "--n", "4", "--limit-elements", "5")
        assert code == 3
        assert err.startswith("limit:")

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
