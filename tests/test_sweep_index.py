"""Equivalence tests for the LATR active-state sweep index.

The indexed sweep (`LatrCoherence._sweep_indexed_soa`) must charge the exact
modelled costs of a full scan of every queue slot (the test-local
`FullScanLatr` reference) -- every counter, latency and rate bit-for-bit
identical -- while doing asymptotically less simulator work. The strongest
check replays full differential-fuzzer plans with both and compares
complete ``StatsRegistry.summary()`` dicts.
"""

from __future__ import annotations

import pytest
from helpers import FullScanLatr, drain, make_proc, run_to_completion

from repro import build_system
from repro.mm.addr import PAGE_SIZE
from repro.verify import fuzzer
from repro.verify.fuzzer import run_one
from repro.verify.plan import generate_plan


class TestFuzzPlanEquivalence:
    """Replay fuzzer plans with and without the index: identical stats."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_indexed_and_full_scan_stats_identical(self, seed, monkeypatch):
        plan = generate_plan(seed, 40, n_cores=4, n_procs=2)
        indexed = run_one("latr", plan)
        monkeypatch.setattr(fuzzer, "LatrCoherence", FullScanLatr)
        full = run_one("latr", plan)
        assert indexed.clean, (indexed.violations, indexed.errors)
        assert full.clean, (full.violations, full.errors)
        assert indexed.stats_summary == full.stats_summary
        assert indexed.snapshot == full.snapshot
        assert indexed.sim_time_ns == full.sim_time_ns


class TestIndexBookkeeping:
    def _munmap_once(self, system, proc, tasks, pages=1):
        kernel = system.kernel
        sc = kernel.syscalls

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            t1, c1 = tasks[1], kernel.machine.core(1)
            vr = yield from sc.mmap(t0, c0, pages * PAGE_SIZE)
            yield from sc.touch_pages(t0, c0, vr, write=True)
            yield from sc.touch_pages(t1, c1, vr)
            yield from sc.munmap(t0, c0, vr)

        run_to_completion(system, body())

    def test_count_matches_full_scan_through_lifecycle(self):
        system = build_system("latr", cores=4)
        proc, tasks = make_proc(system)
        coherence = system.kernel.coherence

        def scan_count():
            return sum(
                1
                for queue in coherence.queues.values()
                for _ in queue.active_states()
            )

        assert coherence.active_state_count() == scan_count() == 0
        self._munmap_once(system, proc, tasks)
        assert coherence.active_state_count() == scan_count() == 1
        # Ticks sweep the state away; reclamation retires it.
        drain(system, ms=6)
        assert coherence.active_state_count() == scan_count() == 0

    def test_empty_sweep_costs_exactly_base(self):
        system = build_system("latr", cores=4)
        make_proc(system)
        coherence = system.kernel.coherence
        lat = system.machine.latency
        cost = coherence.sweep(system.machine.core(0))
        assert cost == lat.latr_sweep_base_ns

    def test_repeat_sweep_skips_already_cleared_states(self):
        system = build_system("latr", cores=4)
        proc, tasks = make_proc(system)
        coherence = system.kernel.coherence
        lat = system.machine.latency
        self._munmap_once(system, proc, tasks)
        core1 = system.machine.core(1)
        first = coherence.sweep(core1)
        # The state stays active (other cores' bits remain) and is charged
        # per-entry in both sweeps, but the second sweep starts beyond the
        # cursor: no re-pull, no matching work -- only base + per-entry.
        assert coherence.active_state_count() == 1
        second = coherence.sweep(core1)
        assert first > second
        assert second == lat.latr_sweep_base_ns + lat.latr_sweep_per_entry_ns

    def test_deactivation_via_direct_assignment_updates_counts(self):
        # Fallback paths and fuzzer mutations retire states by assigning
        # ``active = False`` directly; the notifying property must keep the
        # queue and global counts exact anyway.
        system = build_system("latr", cores=2)
        proc, tasks = make_proc(system)
        self._munmap_once(system, proc, tasks)
        coherence = system.kernel.coherence
        (state,) = [
            s for q in coherence.queues.values() for s in q.active_states()
        ]
        queue = state.queue
        assert queue.active_count == 1
        state.active = False
        assert queue.active_count == 0
        assert coherence.active_state_count() == 0
        state.active = False  # idempotent: no double-decrement
        assert coherence.active_state_count() == 0
