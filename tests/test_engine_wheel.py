"""Tests for the timer-wheel simulator core and the periodic-event fast path.

The wheel is a pure wall-clock optimisation: against the plain heap a
choice hook forces (the test-local ``HeapSimulator``), the engine must
execute the exact same events in the exact same ``(time, seq)`` order, and
every modelled result -- stats tables, mechanism snapshots, simulated time,
per-core TLB counters -- must be bit-identical. The differential tests
below replay full fuzzer plans and a pure engine-churn microbench on both
engines and compare everything.
"""

from __future__ import annotations

import pytest
from helpers import (
    HeapSimulator,
    drain,
    make_proc,
    make_sim,
    run_engine_stress,
    run_to_completion,
)

import repro
from repro import build_system
from repro.mm.addr import PAGE_SIZE
from repro.sim.engine import (
    WHEEL_SLOT_NS,
    WHEEL_SLOTS,
    WHEEL_SPAN_NS,
    Simulator,
    Timeout,
)
from repro.verify import fuzzer
from repro.verify.fuzzer import run_one
from repro.verify.plan import generate_plan


class TestWheelHeapDifferential:
    """Wheel vs heap: identical modelled behaviour, end to end."""

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_fuzz_plans_identical(self, seed, monkeypatch):
        plan = generate_plan(seed, 40, n_cores=4, n_procs=2)
        wheel = run_one("latr", plan)
        monkeypatch.setattr(fuzzer, "Simulator", HeapSimulator)
        heap = run_one("latr", plan)
        assert wheel.clean, (wheel.violations, wheel.errors)
        assert heap.clean, (heap.violations, heap.errors)
        assert wheel.stats_summary == heap.stats_summary
        assert wheel.snapshot == heap.snapshot
        assert wheel.sim_time_ns == heap.sim_time_ns

    def test_engine_stress_order_identical(self):
        _sim, wheel_order = run_engine_stress(20_000)
        _sim, heap_order = run_engine_stress(20_000, heap=True)
        assert wheel_order == heap_order
        assert len(wheel_order) == 20_000

    def test_tlb_stats_identical(self, monkeypatch):
        def run(wheel):
            with monkeypatch.context() as patch:
                if not wheel:
                    patch.setattr(repro, "Simulator", HeapSimulator)
                system = build_system("latr", cores=4)
            kernel = system.kernel
            _proc, tasks = make_proc(system)
            sc = kernel.syscalls

            def body():
                t0, c0 = tasks[0], kernel.machine.core(0)
                t1, c1 = tasks[1], kernel.machine.core(1)
                for _ in range(4):
                    vr = yield from sc.mmap(t0, c0, 8 * PAGE_SIZE)
                    yield from sc.touch_pages(t0, c0, vr, write=True)
                    yield from sc.touch_pages(t1, c1, vr)
                    yield from sc.munmap(t0, c0, vr)

            run_to_completion(system, body())
            drain(system, ms=8)
            return (
                kernel.stats.summary(),
                [core.tlb.stats() for core in kernel.machine.cores],
                system.sim.now,
            )

        assert run(True) == run(False)


class TestEvery:
    """sim.every(): one reusable handle, classic daemon cadence."""

    def test_callback_fires_every_interval(self):
        sim = Simulator()
        fired = []
        sim.every(100, lambda: fired.append(sim.now))
        sim.run(until=350)
        assert fired == [100, 200, 300]

    def test_start_offset(self):
        sim = Simulator()
        fired = []
        sim.every(100, lambda: fired.append(sim.now), start=5)
        sim.run(until=300)
        assert fired == [5, 105, 205]
        sim2 = Simulator()
        fired2 = []
        sim2.every(100, lambda: fired2.append(sim2.now), start=0)
        sim2.run(until=250)
        assert fired2 == [0, 100, 200]

    def test_args_are_passed_each_firing(self):
        sim = Simulator()
        seen = []
        sim.every(10, lambda a, b: seen.append((a, b)), "x", 7)
        sim.run(until=25)
        assert seen == [("x", 7), ("x", 7)]

    def test_cancel_stops_the_series(self):
        sim = Simulator()
        fired = []
        handle = sim.every(100, lambda: fired.append(sim.now))
        sim.run(until=250)
        handle.cancel()
        sim.run(until=1000)
        assert fired == [100, 200]
        assert sim.pending() == 0

    def test_cancel_from_inside_the_callback(self):
        sim = Simulator()
        fired = []
        def cb():
            fired.append(sim.now)
            if len(fired) == 3:
                handle.cancel()
        handle = sim.every(50, cb)
        sim.run()
        assert fired == [50, 100, 150]

    def test_generator_body_rearms_after_completion(self):
        # The old daemons did `while True: yield Timeout(p); <body>`:
        # the next period starts when the body *finishes*. The generator
        # flavour of every() must keep that cadence.
        sim = Simulator()
        windows = []

        def body():
            started = sim.now
            yield Timeout(30)
            windows.append((started, sim.now))

        sim.every(100, body)
        sim.run(until=400)
        assert windows == [(100, 130), (230, 260), (360, 390)]

    def test_periodic_reuses_one_handle(self):
        sim = Simulator()
        handle = sim.every(100, lambda: None)
        for expected in (100, 200, 300):
            sim.run(max_events=1)
            assert sim.now == expected
            assert sim.pending() == 1  # the same handle, re-armed

    def test_rejects_bad_intervals(self):
        from repro.sim.engine import SimulationError

        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0, lambda: None)
        with pytest.raises(SimulationError):
            sim.every(100, lambda: None, start=-1)


class TestCancellation:
    """cancel() must not leak bucket slots, and pending() stays O(1)-exact."""

    def test_pending_counts_exactly(self):
        sim = Simulator()
        handles = [sim.after(1000 + 7 * i, lambda: None) for i in range(100)]
        assert sim.pending() == 100
        for h in handles[::2]:
            h.cancel()
        assert sim.pending() == 50
        executed = sim.run()
        assert executed == 50
        assert sim.pending() == 0

    def test_double_cancel_is_idempotent(self):
        sim = Simulator()
        h = sim.after(500, lambda: None)
        h.cancel()
        h.cancel()
        assert sim.pending() == 0

    def test_cancelled_events_never_fire(self):
        sim = Simulator()
        fired = []
        keep = [sim.after(10_000 + i, fired.append, i) for i in range(0, 20, 2)]
        drop = [sim.after(10_001 + i, fired.append, -i) for i in range(0, 20, 2)]
        for h in drop:
            h.cancel()
        sim.run()
        assert fired == list(range(0, 20, 2))
        assert all(h.cancelled for h in drop) and keep

    def test_bucket_compaction_reclaims_slots(self):
        sim = Simulator()
        # 20 events into one future wheel slot (same 4096 ns bucket, well
        # past the active slot so they are appended, not heap-pushed).
        base = 10 * WHEEL_SLOT_NS
        handles = [sim.after(base + i, lambda: None) for i in range(20)]
        bucket_idx = handles[0]._bucket
        assert bucket_idx >= 0
        assert all(h._bucket == bucket_idx for h in handles)
        assert len(sim._buckets[bucket_idx]) == 20
        # Cancelling up to half leaves the dead handles in place...
        for h in handles[:10]:
            h.cancel()
        assert len(sim._buckets[bucket_idx]) == 20
        # ...one more tips the bucket over 50% dead: it compacts.
        handles[10].cancel()
        assert len(sim._buckets[bucket_idx]) == 9
        assert all(not h.cancelled for h in sim._buckets[bucket_idx])
        assert sim.pending() == 9
        assert sim.run() == 9

    def test_small_buckets_skip_compaction(self):
        sim = Simulator()
        base = 10 * WHEEL_SLOT_NS
        handles = [sim.after(base + i, lambda: None) for i in range(4)]
        bucket_idx = handles[0]._bucket
        for h in handles[:3]:
            h.cancel()
        # Below the compaction minimum: lazily dropped at pop time instead.
        assert len(sim._buckets[bucket_idx]) == 4
        assert sim.pending() == 1
        assert sim.run() == 1


class TestWheelEdges:
    """Placement edges: active slot, horizon, overflow, cursor jumps."""

    def test_overflow_migrates_into_wheel_in_order(self):
        sim = Simulator()
        fired = []
        # One event per region: active slot, mid-wheel, past the horizon.
        sim.after(WHEEL_SPAN_NS + 5_000, fired.append, "far")
        sim.after(50, fired.append, "near")
        sim.after(WHEEL_SLOT_NS * 3, fired.append, "mid")
        sim.after(2 * WHEEL_SPAN_NS + 1, fired.append, "farther")
        sim.run()
        assert fired == ["near", "mid", "far", "farther"]

    def test_same_time_fifo_by_seq(self):
        sim = Simulator()
        fired = []
        for tag in ("a", "b", "c"):
            sim.after(1_000, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_jump_over_long_empty_gap(self):
        sim = Simulator()
        fired = []
        sim.after(100, fired.append, "first")
        # Far past the whole wheel span: requires a cursor jump, not a
        # slot-by-slot crawl.
        sim.after(1_000 * WHEEL_SPAN_NS, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 1_000 * WHEEL_SPAN_NS

    def test_schedule_now_executes(self):
        sim = Simulator()
        fired = []
        sim.after(500, lambda: sim.after(0, fired.append, sim.now))
        sim.run()
        assert fired == [500]

    def test_run_until_advances_clock_when_drained(self):
        sim = Simulator()
        sim.after(100, lambda: None)
        sim.run(until=10_000)
        assert sim.now == 10_000

    def test_heap_only_mode_equivalent(self):
        def exercise(use_wheel):
            sim = make_sim(use_wheel)
            sim.order_log = []
            for i in range(40):
                delay = (i * 7919) % (3 * WHEEL_SPAN_NS) + 1
                h = sim.after(delay, lambda: None)
                if i % 5 == 0:
                    h.cancel()
            sim.every(WHEEL_SLOT_NS, lambda: None)
            sim.run(until=3 * WHEEL_SPAN_NS)
            return sim.order_log, sim.now

        assert exercise(True) == exercise(False)

    def test_wheel_constants_sane(self):
        assert WHEEL_SPAN_NS == WHEEL_SLOT_NS * WHEEL_SLOTS
        # The span must comfortably cover the 1 ms scheduler tick, the
        # highest-frequency periodic event in the system.
        assert WHEEL_SPAN_NS > 2 * 1_000_000
