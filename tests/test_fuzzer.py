"""The coherence fuzzer's own test suite: continuous invariant checking,
mutation detection (the harness must catch known-bad LATR variants),
differential agreement across mechanisms, and the shrinker."""

from __future__ import annotations

import pytest
from helpers import make_proc, run_to_completion

from repro import build_system
from repro.mm.addr import PAGE_SIZE
from repro.verify import (
    MUTATIONS,
    FuzzConfig,
    FuzzPlan,
    InvariantMonitor,
    Op,
    diff_snapshots,
    generate_plan,
    mutation_spec,
    run_fuzz,
    run_one,
    shrink_plan,
)
from repro.verify.plan import SchedulePlan


def _mixed_plan(seed: int = 3, reps: int = 4) -> FuzzPlan:
    """A deterministic mixed munmap+migration workload (the ISSUE's
    continuous-checking scenario), plus swaps to widen coverage."""
    ops = [Op("mmap", pages=12, core=0, proc=0, write=True, tag="m0"),
           Op("mmap", pages=40, core=1, proc=1, write=True, tag="m1")]
    for i in range(reps):
        ops += [
            Op("touch", region=i, pages=6, core=i % 4, proc=0, write=True, tag=f"w{i}"),
            Op("migrate", region=i, pages=6, core=2, proc=0),
            Op("mmap", pages=8, core=3, proc=1, write=True, tag=f"n{i}"),
            Op("swap", region=i + 1, pages=5, core=1, proc=1),
            Op("munmap", region=i, core=0, proc=0),
            Op("madvise", region=0, core=3, proc=1),
        ]
    schedule = SchedulePlan(
        tick_offsets={0: 0, 1: 137_000, 2: 512_000, 3: 891_000},
        ctx_switch_gaps={c: (430_000, 1_350_000, 760_000) for c in range(4)},
        reclaim_delay_ticks=2,
        queue_depth=8,
    )
    return FuzzPlan(seed=seed, n_cores=4, n_procs=2, ops=tuple(ops), schedule=schedule)


class TestInvariantMonitor:
    def test_install_hooks_pte_observer_and_detach_unhooks(self):
        system = build_system("latr", cores=2)
        monitor = InvariantMonitor.install(system.kernel)
        assert system.kernel.invariant_monitor is monitor
        proc, tasks = make_proc(system)
        assert proc.mm.page_table.observer is not None

        def body():
            vr = yield from system.kernel.syscalls.mmap(
                tasks[0], system.kernel.machine.core(0), 4 * PAGE_SIZE
            )
            yield from system.kernel.syscalls.touch_pages(
                tasks[0], system.kernel.machine.core(0), vr, write=True
            )

        run_to_completion(system, body())
        assert monitor.notifications > 0
        assert monitor.checks_run > 0
        assert monitor.healthy
        monitor.detach()
        assert system.kernel.invariant_monitor is None
        assert proc.mm.page_table.observer is None

    def test_unknown_check_rejected(self):
        system = build_system("latr", cores=2)
        with pytest.raises(ValueError, match="unknown continuous check"):
            InvariantMonitor.install(system.kernel, checks=("frame_refcounts",))

    def test_quiescent_check_includes_refcounts(self):
        system = build_system("latr", cores=2)
        monitor = InvariantMonitor.install(system.kernel)
        assert monitor.check_quiescent() == []
        # Corrupt refcount accounting (a PTE referencing a frame the
        # allocator thinks is free); only the quiescent pass sees it.
        from repro.mm.pte import make_present_pte

        proc, _tasks = make_proc(system)
        proc.mm.page_table.set_pte(0x1000, make_present_pte(7))
        assert monitor.check_quiescent() != []
        assert any(v.check == "frame_refcounts" for v in monitor.violations)


class TestContinuousChecking:
    """ISSUE satellite: a mixed munmap+migration workload runs with the
    monitor attached and zero violations, under every mechanism."""

    @pytest.mark.parametrize("mechanism", ["linux", "latr", "abis", "didi", "unitd"])
    def test_mixed_workload_zero_violations(self, mechanism):
        result = run_one(mechanism, _mixed_plan())
        assert result.errors == []
        assert result.violations == []
        assert result.ops_executed == len(_mixed_plan().ops)
        # The monitor actually ran, at many instants.
        assert result.checks_run > 100

    def test_latr_checked_at_sweep_and_reclaim_points(self):
        result = run_one("latr", _mixed_plan(), with_tracer=True)
        assert result.violations == []
        counts = result.tracer.counts()
        assert counts.get("latr.sweep", 0) > 0
        assert counts.get("latr.reclaim", 0) > 0


class TestMutationDetection:
    """The harness must catch every injected bug (proof it has teeth).

    Safety mutations must trip the invariant monitor; liveness/engine
    mutations must trip the progress guards or the differential against
    the synchronous baseline.
    """

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutation_caught(self, mutation):
        spec = mutation_spec(mutation)
        plan = generate_plan(1, 60)
        result = run_one("latr", plan, mutate=mutation)
        if spec.detected_by == "monitor":
            assert result.violations, f"mutation {mutation} was not detected"
            expected_check = {
                "broken_replica": "replica_coherence",
                "broken_ept_shootdown": "ept_coherence",
            }.get(mutation, "tlb_frame_safety")
            assert any(v.check == expected_check for v in result.violations)
            return
        findings = list(result.errors)
        if result.snapshot is not None:
            base = run_one("linux", plan)
            findings += diff_snapshots(base.snapshot, result.snapshot)
        findings += [str(v) for v in result.violations]
        assert findings, f"mutation {mutation} was not detected"

    def test_healthy_latr_is_clean_on_same_plan(self):
        plan = generate_plan(1, 60)
        result = run_one("latr", plan)
        assert result.violations == []
        assert result.errors == []


class TestDifferential:
    """End state must match synchronous Linux on identical op sequences."""

    def test_latr_matches_linux_on_20_seeded_schedules(self):
        for seed in range(1, 21):
            plan = generate_plan(seed, 25)
            base = run_one("linux", plan)
            assert base.errors == [] and base.violations == [], f"seed {seed}"
            res = run_one("latr", plan)
            assert res.errors == [] and res.violations == [], f"seed {seed}"
            assert diff_snapshots(base.snapshot, res.snapshot) == [], f"seed {seed}"

    @pytest.mark.parametrize("mechanism", ["abis", "didi", "unitd"])
    def test_other_mechanisms_match_linux(self, mechanism):
        for seed in (1, 5, 9):
            plan = generate_plan(seed, 30)
            base = run_one("linux", plan)
            res = run_one(mechanism, plan)
            assert res.errors == [] and res.violations == []
            assert diff_snapshots(base.snapshot, res.snapshot) == [], f"seed {seed}"

    def test_diff_snapshots_reports_differences(self):
        plan = generate_plan(2, 20)
        snap = run_one("linux", plan).snapshot
        altered = dict(snap)
        altered["swap_slots"] = snap["swap_slots"] + 1
        assert any("swap_slots" in d for d in diff_snapshots(snap, altered))


class TestShrinking:
    def test_mutated_campaign_shrinks_and_dumps_trace(self):
        report = run_fuzz(
            FuzzConfig(seed=1, n_ops=40, mutate="reclaim_delay_zero", shrink_budget=30)
        )
        assert not report.ok
        assert "latr" in report.failures
        assert report.shrunk_plan is not None
        assert len(report.shrunk_plan.ops) < len(report.plan.ops)
        # The minimal plan still reproduces.
        re_run = run_one("latr", report.shrunk_plan, mutate="reclaim_delay_zero")
        assert re_run.violations
        assert report.trace_dump
        assert "PASS" not in report.render()

    def test_shrink_plan_reaches_known_minimal_core(self):
        plan = generate_plan(7, 12)

        def fails(p):
            # Pretend the failure needs an mmap followed (eventually) by a swap.
            kinds = [op.kind for op in p.ops]
            return "mmap" in kinds and "swap" in kinds[kinds.index("mmap"):]

        if not fails(plan):
            plan = plan.with_ops(plan.ops + (Op("swap"),))
        shrunk, runs = shrink_plan(plan, fails, budget=60)
        assert fails(shrunk)
        assert len(shrunk.ops) == 2
        assert runs <= 60


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        assert generate_plan(11, 50) == generate_plan(11, 50)

    def test_different_seeds_differ(self):
        assert generate_plan(11, 50) != generate_plan(12, 50)

    def test_schedule_knobs_within_ranges(self):
        plan = generate_plan(3, 30)
        assert plan.schedule.queue_depth in (3, 8, 64)
        assert plan.schedule.reclaim_delay_ticks in (1, 2, 3)
        assert all(0 <= off < 1_000_000 for off in plan.schedule.tick_offsets.values())
        assert set(plan.schedule.ctx_switch_gaps) == {0, 1, 2, 3}


class TestFuzzSmoke:
    """Fast end-to-end campaign for tier-1 (the CLI's `fuzz` path)."""

    def test_fast_campaign_passes(self):
        report = run_fuzz(FuzzConfig(seed=1, n_ops=40, shrink=False))
        assert report.ok, report.render()
        assert set(report.results) == {"linux", "latr", "abis", "didi", "unitd"}
        text = report.render()
        assert "PASS" in text
