"""CLI error paths and plumbing edge cases for ``python -m repro``."""

import json
import os
import subprocess

import pytest

from repro.cli import _perfbench_smoke, main, perfbench_problem


def _tables(text):
    """Rendered output minus the bracketed timing lines."""
    return [line for line in text.splitlines() if not line.startswith("[")]


class TestErrorPaths:
    def test_unknown_experiment_exits_2(self, capsys):
        # No `bench` command: perfbench/run.py is the only wall-clock benchmark.
        for name in ("definitely-not-an-experiment", "bench"):
            assert main([name]) == 2
            assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_flag_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--check-regression"])

    def test_fuzz_unknown_mutation_exits_2(self, capsys):
        assert main(["fuzz", "--mutate", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown mutation" in err
        # The error names the valid mutations so the flag is discoverable.
        assert "reclaim_delay_zero" in err

    def test_mc_unknown_mutation_exits_2(self, capsys):
        assert main(["mc", "--mutate", "bogus"]) == 2
        assert "unknown mutation" in capsys.readouterr().err

    def test_mc_scope_bounds_exit_2(self, capsys):
        for argv in (
            ["mc", "--cores", "5"],
            ["mc", "--cores", "0"],
            ["mc", "--pages", "4"],
            ["mc", "--pages", "0"],
            ["mc", "--ops", "11"],
        ):
            assert main(argv) == 2, argv
            assert "small-scope" in capsys.readouterr().err


class TestJobsPlumbing:
    def test_jobs_on_single_cell_experiment_matches_serial(self, capsys):
        # tab1 decomposes into exactly one cell; --jobs must still work
        # (the cell goes through the pool) and render identically.
        assert main(["tab1", "--fast"]) == 0
        serial = capsys.readouterr().out
        assert main(["tab1", "--fast", "--jobs", "2"]) == 0
        sharded = capsys.readouterr().out
        assert _tables(serial) == _tables(sharded)

    def test_list_exits_0_and_names_model_exhaust(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "model-exhaust" in out


def _result_line(correct, failed):
    return json.dumps({"correct": correct, "attempted": 40, "failed": failed, "metrics": {}})


class TestPerfbenchStep:
    """``repro ci`` reads perfbench's last output line, because
    ``perfbench/run.py`` exits 0 on an incorrect run too."""

    def test_correct_run_passes(self):
        stdout = "digest mc 4ba7aecc95797ac2\n" + _result_line(True, 0) + "\n"
        assert perfbench_problem(stdout) is None

    @pytest.mark.parametrize(
        "stdout, problem",
        [
            (
                "INCORRECT: digest differs between samples\n" + _result_line(False, 40),
                "result is not correct",
            ),
            (_result_line(True, 1), "1 of 40 operations failed"),
            ("Traceback (most recent call last):\n", "no JSON result line"),
            ("", "no JSON result line"),
        ],
        ids=["incorrect", "failed-ops", "traceback", "empty"],
    )
    def test_bad_run_fails(self, stdout, problem):
        assert perfbench_problem(stdout) == problem

    def test_mismatched_digest_fails_naming_the_leg(self):
        stdout = (
            "digest apache-abis d614b75dcf5894ed\n"
            "digest apache-latr 0000000000000000\n"
            "digest apache-linux a4a405e4e2fa5696\n" + _result_line(True, 0) + "\n"
        )
        assert perfbench_problem(stdout) == (
            "digest apache-latr is 0000000000000000, pinned f0f2d5f3b53688f5"
        )

    def test_unpinned_leg_fails(self):
        stdout = "digest fleet-linux 1234\n" + _result_line(True, 0)
        assert perfbench_problem(stdout) == "digest fleet-linux has no pinned value"

    def test_smoke_fails_on_mismatched_digest(self, tmp_path, monkeypatch, capsys):
        """The ``repro ci`` step itself, with a run.py that prints a correct
        result under a wrong fleet digest."""
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "fleet-960c"}]}))
        fake = tmp_path / "perfbench"
        fake.mkdir()
        (fake / "run.py").write_text(
            "print('digest fleet-latr 484e37e1d115ea34')\n"
            f"print({_result_line(True, 0)!r})\n"
        )
        monkeypatch.setattr(subprocess, "call", lambda *a, **k: 0)  # perfbench's own tests
        assert _perfbench_smoke(str(tmp_path), dict(os.environ)) == 1
        assert "perfbench fleet-960c: digest fleet-latr is 484e37e1d115ea34" in capsys.readouterr().err

    def test_smoke_fails_when_a_pinned_leg_is_missing(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "mc-4c3p5o"}]}))
        fake = tmp_path / "perfbench"
        fake.mkdir()
        (fake / "run.py").write_text(
            "print('digest mc 4ba7aecc95797ac2')\n" f"print({_result_line(True, 0)!r})\n"
        )
        monkeypatch.setattr(subprocess, "call", lambda *a, **k: 0)
        assert _perfbench_smoke(str(tmp_path), dict(os.environ)) == 1
        err = capsys.readouterr().err
        assert "no digest reported for apache-abis, apache-latr, apache-linux, fleet-latr" in err
