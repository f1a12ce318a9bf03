"""Benchmark the simulator hot paths on the paper's 120-core machine.

Holds the sweep-stress microbench to >= 3x the events/sec of the committed
pre-wheel baseline, times the engine-stress microbench on the timer wheel
against the heap a choice hook forces (identical event order, wheel
faster), and holds the invalidate-stress microbench to an absolute ops/s
floor.
"""

import gc
import json
import os
import time

#: The committed pre-timer-wheel baseline this PR's 3x target is measured
#: against (see EXPERIMENTS.md).
BASELINE_FILE = "BENCH_20260806-190159.json"
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Twice the linear-scan TLB's rate in the committed
#: BENCH_20260806-205227.json (70.5k ops/s indexed at a 4.61x speedup over
#: the scan, i.e. 15.3k ops/s scanning): the per-pcid index must keep at
#: least the 2x advantage it was gated on.
INVALIDATE_MIN_OPS_PER_SEC = 30_000.0


def test_sweep_stress_beats_prewheel_baseline():
    """The tentpole gate: >= 3x the events/sec of the committed pre-wheel
    baseline BENCH file (best of three, wall-clock timing is noisy)."""
    from repro.bench import SWEEP_STRESS_MS, run_sweep_stress
    from repro.sim.engine import Simulator

    path = os.path.join(RESULTS_DIR, BASELINE_FILE)
    with open(path) as fh:
        baseline = json.load(fh)
    base_eps = baseline["cases"]["sweep-stress-120c"]["events_per_sec"]

    best_eps = 0.0
    for _ in range(3):
        # Earlier tests in this file leave the cyclic GC primed mid-cycle;
        # collect so each round times the workload, not the leftovers.
        gc.collect()
        events_before = Simulator.total_events_executed
        started = time.perf_counter()
        run_sweep_stress(SWEEP_STRESS_MS)
        wall = time.perf_counter() - started
        events = Simulator.total_events_executed - events_before
        best_eps = max(best_eps, events / wall)

    print(
        f"\nsweep-stress-120c: {best_eps:,.0f} events/s vs baseline "
        f"{base_eps:,.0f} ({best_eps / base_eps:.2f}x)"
    )
    assert best_eps >= 3.0 * base_eps, (
        f"sweep-stress below 3x pre-wheel baseline: {best_eps / base_eps:.2f}x"
    )


def test_engine_stress_wheel_speedup(benchmark):
    """Timer wheel vs the choice-hook heap on pure event-loop churn:
    byte-identical (time, seq) execution order, and the wheel must not be
    slower."""
    from repro.bench import ENGINE_STRESS_EVENTS, run_engine_stress

    started = time.perf_counter()
    _sim, heap_order = run_engine_stress(ENGINE_STRESS_EVENTS, heap=True)
    heap_wall = time.perf_counter() - started

    started = time.perf_counter()
    _sim, wheel_order = benchmark.pedantic(
        run_engine_stress,
        args=(ENGINE_STRESS_EVENTS,),
        rounds=1,
        iterations=1,
    )
    wheel_wall = time.perf_counter() - started

    print(
        f"\nengine-stress: wheel {wheel_wall:.2f}s, heap {heap_wall:.2f}s, "
        f"speedup {heap_wall / wheel_wall:.2f}x"
    )
    assert wheel_order == heap_order, "timer wheel changed the event order"
    assert heap_wall >= 1.1 * wheel_wall, (
        f"timer wheel speedup below 1.1x: {heap_wall / wheel_wall:.2f}x"
    )


def test_invalidate_stress_ops_floor(benchmark):
    """Per-pcid TLB index under the fill/invalidate_range/flush mix: at
    least INVALIDATE_MIN_OPS_PER_SEC (best of three, timing is noisy)."""
    from repro.bench import INVALIDATE_STRESS_OPS, run_invalidate_stress

    best_wall = float("inf")
    for _ in range(2):
        gc.collect()
        started = time.perf_counter()
        run_invalidate_stress(INVALIDATE_STRESS_OPS)
        best_wall = min(best_wall, time.perf_counter() - started)
    started = time.perf_counter()
    benchmark.pedantic(
        run_invalidate_stress,
        args=(INVALIDATE_STRESS_OPS,),
        rounds=1,
        iterations=1,
    )
    best_wall = min(best_wall, time.perf_counter() - started)
    ops_per_sec = INVALIDATE_STRESS_OPS / best_wall

    print(
        f"\ninvalidate-stress: {ops_per_sec:,.0f} ops/s "
        f"(floor {INVALIDATE_MIN_OPS_PER_SEC:,.0f})"
    )
    assert ops_per_sec >= INVALIDATE_MIN_OPS_PER_SEC, (
        f"invalidate-stress below floor: {ops_per_sec:,.0f} ops/s"
    )
