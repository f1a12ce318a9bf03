"""CLI error paths and plumbing edge cases for ``python -m repro``."""

import json

import pytest

from repro.cli import main, perfbench_problem


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
