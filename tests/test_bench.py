"""Tests for the wall-clock benchmark harness (`python -m repro bench`)."""

from __future__ import annotations

import json
import os

from helpers import FullScanLatr

from repro.bench import (
    CaseResult,
    compare_to_previous,
    previous_bench_file,
    run_bench,
    run_sweep_stress,
)


def _fake_case(name, wall_s, **extra):
    return CaseResult(name=name, wall_s=wall_s, events=1000, extra=extra)


class TestRegressionComparison:
    def test_no_previous_means_no_regressions(self):
        assert compare_to_previous({"a": {"wall_s": 1.0}}, None, 25.0) == []

    def test_flags_only_cases_beyond_threshold(self):
        previous = {
            "cases": {
                "fast": {"wall_s": 1.0},
                "slow": {"wall_s": 1.0},
                "gone": {"wall_s": 1.0},
            }
        }
        current = {
            "fast": {"wall_s": 1.1},   # +10%: fine
            "slow": {"wall_s": 1.5},   # +50%: regression
            "new": {"wall_s": 9.0},    # no baseline: skipped
        }
        regressions = compare_to_previous(current, previous, 25.0)
        assert len(regressions) == 1
        assert regressions[0].startswith("slow:")

    def test_different_sim_ms_not_compared(self):
        previous = {"cases": {"stress": {"wall_s": 0.1, "sim_ms": 8}}}
        current = {"stress": {"wall_s": 0.9, "sim_ms": 30}}
        assert compare_to_previous(current, previous, 25.0) == []


class TestRunBench:
    def test_writes_json_and_detects_regression(self, tmp_path):
        bench_dir = str(tmp_path)
        lines = []
        report1, code1 = run_bench(
            bench_dir=bench_dir,
            suite=[lambda: _fake_case("case-a", 0.1)],
            echo=lines.append,
        )
        assert code1 == 0
        first = previous_bench_file(bench_dir)
        assert first is not None
        with open(first) as fh:
            on_disk = json.load(fh)
        assert on_disk["cases"]["case-a"]["wall_s"] == 0.1
        assert on_disk["comparison"]["previous"] is None

        # A much slower second run against the first: regression detected,
        # exit code non-zero only with check_regression.
        report2, code2 = run_bench(
            bench_dir=bench_dir,
            suite=[lambda: _fake_case("case-a", 0.5)],
            check_regression=True,
            threshold_pct=25.0,
            echo=lines.append,
        )
        assert code2 == 1
        comparison = report2["comparison"]
        assert comparison["previous"] == os.path.basename(first)
        assert len(comparison["regressions"]) == 1
        assert any("REGRESSION" in line for line in lines)

    def test_stats_mismatch_fails_even_without_check_regression(self, tmp_path):
        _report, code = run_bench(
            bench_dir=str(tmp_path),
            suite=[lambda: _fake_case("stress", 0.1, tables_match=False)],
            echo=lambda _line: None,
        )
        assert code == 1


class TestSweepStressEquivalence:
    def test_indexed_and_full_scan_agree_on_small_machine(self, monkeypatch):
        # The real case runs 120 cores; a 16-core variant keeps the suite
        # fast while exercising the identical driver. The full-scan leg is
        # the test-local reference sweep.
        from repro.coherence import MECHANISMS

        indexed = run_sweep_stress(4, machine="commodity-2s16c")
        monkeypatch.setitem(MECHANISMS, "latr", FullScanLatr)
        full = run_sweep_stress(4, machine="commodity-2s16c")
        assert indexed == full
        assert indexed["count.latr.sweeps"] > 0
        assert indexed["count.shootdown.initiated"] > 0


class TestOpenLoopStressCase:
    def test_events_floor_failure_fails_the_run(self, tmp_path):
        _report, code = run_bench(
            bench_dir=str(tmp_path),
            suite=[
                lambda: _fake_case(
                    "openloop-stress-120c",
                    0.1,
                    events_floor_ok=False,
                    min_events_per_sec=300_000.0,
                    floor_rounds=8,
                )
            ],
            echo=lambda _line: None,
        )
        assert code == 1

    def test_small_scope_clears_floor(self, monkeypatch):
        # Shrink the stress scope so tier-1 stays fast.
        import repro.bench as bench

        monkeypatch.setattr(
            bench,
            "OPENLOOP_STRESS_SCOPE",
            dict(
                machine="commodity-2s16c",
                mechanism="linux",
                offered_kreq_s=20.0,
                request_work_ns=200_000,
                request_pages=1,
                conn_churn_per_sec=0.0,
                warmup_ms=2,
                duration_ms=10,
            ),
        )
        monkeypatch.setattr(bench, "OPENLOOP_MIN_EVENTS_PER_SEC", 0.0)
        monkeypatch.setattr(bench, "OPENLOOP_FLOOR_ROUNDS", 1)
        case = bench._openloop_stress_case()
        assert case.extra["events_floor_ok"] is True
        assert case.events > 0
