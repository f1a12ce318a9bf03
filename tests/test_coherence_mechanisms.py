"""Behavioural tests for all four coherence mechanisms.

Each test builds a small system, maps and shares pages across cores, then
exercises a VM operation and asserts on *when* remote TLBs become clean,
*who* was interrupted, and *when* memory became reusable -- the three axes
on which the mechanisms differ (paper Table 2).
"""

import pytest

from repro import build_system
from repro.coherence.base import (
    LAZY_POSSIBLE,
    MECHANISM_PROPERTIES,
    OPERATION_CLASSES,
    OpClass,
)
from repro.kernel.invariants import check_all, check_no_stale_entries_for
from repro.mm.addr import PAGE_SIZE
from repro.sim.engine import MSEC

from helpers import make_proc, run_to_completion, drain


def map_and_share(system, tasks, n_pages=2):
    """Map a buffer and have every task touch it; returns the range."""
    kernel = system.kernel
    holder = {}

    def body():
        t0 = tasks[0]
        c0 = kernel.machine.core(t0.home_core_id)
        vrange = yield from kernel.syscalls.mmap(t0, c0, n_pages * PAGE_SIZE)
        for t in tasks:
            core = kernel.machine.core(t.home_core_id)
            yield from kernel.syscalls.touch_pages(t, core, vrange, write=True)
        holder["vrange"] = vrange

    run_to_completion(system, body())
    return holder["vrange"]


def resident_count(system, mm, vrange):
    """How many cores still hold TLB entries for vrange."""
    count = 0
    for core in system.kernel.machine.cores:
        for (pcid, vpn), entry in core.tlb.items():
            if entry.debug_mm_id == mm.mm_id and vrange.vpn_start <= vpn < vrange.vpn_end:
                count += 1
                break
    return count


@pytest.mark.parametrize("mech", ["linux", "abis", "barrelfish"])
class TestSynchronousMechanisms:
    def test_remote_tlbs_clean_at_munmap_return(self, mech):
        system = build_system(mech, cores=4)
        proc, tasks = make_proc(system)
        vrange = map_and_share(system, tasks)
        assert resident_count(system, proc.mm, vrange) == 4

        def do_unmap():
            yield from system.kernel.syscalls.munmap(
                tasks[0], system.kernel.machine.core(0), vrange
            )

        run_to_completion(system, do_unmap())
        # Synchronous: clean immediately, no tick needed.
        assert resident_count(system, proc.mm, vrange) == 0
        assert check_all(system.kernel) == []

    def test_frames_reusable_immediately(self, mech):
        system = build_system(mech, cores=4)
        proc, tasks = make_proc(system)
        vrange = map_and_share(system, tasks)
        free_before = system.kernel.frames.free_count()

        def do_unmap():
            yield from system.kernel.syscalls.munmap(
                tasks[0], system.kernel.machine.core(0), vrange
            )

        run_to_completion(system, do_unmap())
        assert system.kernel.frames.free_count() == free_before + vrange.n_pages
        assert not proc.mm.lazy_frames

    def test_table2_properties(self, mech):
        system = build_system(mech, cores=2)
        props = system.kernel.coherence.properties
        assert not props.asynchronous
        assert props.no_hardware_changes


class TestLinuxSpecifics:
    def test_ipis_sent_to_each_remote_core(self):
        system = build_system("linux", cores=4)
        proc, tasks = make_proc(system)
        vrange = map_and_share(system, tasks)

        def do_unmap():
            yield from system.kernel.syscalls.munmap(
                tasks[0], system.kernel.machine.core(0), vrange
            )

        run_to_completion(system, do_unmap())
        assert system.stats.counter("ipi.sent").value == 3
        assert system.stats.counter("ipi.handled").value == 3

    def test_remote_handler_full_flush_beyond_threshold(self):
        system = build_system("linux", cores=2)
        proc, tasks = make_proc(system)
        vrange = map_and_share(system, tasks, n_pages=40)  # > 32
        remote = system.kernel.machine.core(1)
        flushes_before = remote.tlb.full_flushes

        def do_unmap():
            yield from system.kernel.syscalls.munmap(
                tasks[0], system.kernel.machine.core(0), vrange
            )

        run_to_completion(system, do_unmap())
        assert remote.tlb.full_flushes == flushes_before + 1

    def test_idle_core_not_interrupted(self):
        """Linux's lazy-TLB idle optimization (paper 2.3)."""
        system = build_system("linux", cores=4)
        proc, tasks = make_proc(system)
        vrange = map_and_share(system, tasks)
        idle_core = system.kernel.machine.core(3)
        system.kernel.scheduler.task_exit(tasks[3])
        assert idle_core.lazy_tlb_mode

        def do_unmap():
            yield from system.kernel.syscalls.munmap(
                tasks[0], system.kernel.machine.core(0), vrange
            )

        run_to_completion(system, do_unmap())
        assert idle_core.interrupts_received == 0
        assert idle_core.needs_flush_on_wake
        assert system.stats.counter("shootdown.idle_skipped").value == 1
        # On wake the core full-flushes, restoring safety.
        flushed = idle_core.exit_idle(tasks[3])
        assert flushed is True
        assert len(idle_core.tlb) == 0

    def test_no_remote_targets_no_ipis(self):
        system = build_system("linux", cores=4)
        proc, tasks = make_proc(system, n_threads=1)
        vrange = map_and_share(system, tasks[:1])

        def do_unmap():
            yield from system.kernel.syscalls.munmap(
                tasks[0], system.kernel.machine.core(0), vrange
            )

        run_to_completion(system, do_unmap())
        assert system.stats.counter("ipi.sent").value == 0


class TestAbisSpecifics:
    def test_targets_only_actual_sharers(self):
        system = build_system("abis", cores=4)
        proc, tasks = make_proc(system)
        kernel = system.kernel
        holder = {}

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, PAGE_SIZE)
            # Only cores 0 and 2 touch the page; 1 and 3 never do, but they
            # are in the mm cpumask (threads run there).
            yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
            t2, c2 = tasks[2], kernel.machine.core(2)
            yield from kernel.syscalls.touch_pages(t2, c2, vrange)
            holder["vrange"] = vrange
            yield from kernel.syscalls.munmap(t0, c0, vrange)

        run_to_completion(system, body())
        # Only core 2 needed an IPI (core 0 invalidates locally).
        assert system.stats.counter("ipi.sent").value == 1
        assert system.stats.counter("abis.fills_tracked").value >= 2

    def test_tracking_cost_charged_on_fill(self):
        sys_abis = build_system("abis", cores=1)
        sys_linux = build_system("linux", cores=1)
        times = {}
        for name, system in (("abis", sys_abis), ("linux", sys_linux)):
            proc, tasks = make_proc(system, n_threads=1)

            def body(system=system, tasks=tasks):
                t0, c0 = tasks[0], system.kernel.machine.core(0)
                vrange = yield from system.kernel.syscalls.mmap(t0, c0, 16 * PAGE_SIZE)
                start = system.sim.now
                yield from system.kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
                times[name] = system.sim.now - start

            run_to_completion(system, body())
        assert times["abis"] > times["linux"]


class TestBarrelfishSpecifics:
    def test_no_interrupts_but_messages(self):
        system = build_system("barrelfish", cores=4)
        proc, tasks = make_proc(system)
        vrange = map_and_share(system, tasks)

        def do_unmap():
            yield from system.kernel.syscalls.munmap(
                tasks[0], system.kernel.machine.core(0), vrange
            )

        run_to_completion(system, do_unmap())
        assert system.stats.counter("barrelfish.messages").value == 3
        assert system.stats.counter("ipi.sent").value == 0
        assert all(c.interrupts_received == 0 for c in system.kernel.machine.cores)
        assert resident_count(system, proc.mm, vrange) == 0

    def test_still_synchronous_wait(self):
        """Barrelfish removes the interrupt, not the ACK wait (Table 2)."""
        system = build_system("barrelfish", cores=4)
        proc, tasks = make_proc(system)
        vrange = map_and_share(system, tasks)
        durations = {}

        def do_unmap():
            start = system.sim.now
            yield from system.kernel.syscalls.munmap(
                tasks[0], system.kernel.machine.core(0), vrange
            )
            durations["munmap"] = system.sim.now - start

        run_to_completion(system, do_unmap())
        # Must include at least the poll delay round-trip.
        assert durations["munmap"] > system.kernel.coherence.poll_delay_ns


class TestTableData:
    def test_table1_classes(self):
        assert LAZY_POSSIBLE[OpClass.FREE]
        assert LAZY_POSSIBLE[OpClass.MIGRATION]
        assert not LAZY_POSSIBLE[OpClass.PERMISSION]
        assert not LAZY_POSSIBLE[OpClass.OWNERSHIP]
        assert not LAZY_POSSIBLE[OpClass.REMAP]
        assert len(OPERATION_CLASSES) == 9

    def test_table2_latr_row(self):
        latr = MECHANISM_PROPERTIES["LATR"]
        assert latr.asynchronous and latr.non_ipi
        assert latr.no_remote_core_involvement and latr.no_hardware_changes

    def test_table2_only_latr_asynchronous(self):
        async_rows = [n for n, p in MECHANISM_PROPERTIES.items() if p.asynchronous]
        assert async_rows == ["LATR"]
