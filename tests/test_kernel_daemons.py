"""AutoNUMA, swap, KSM, and compaction end-to-end behaviour."""

import pytest

from repro import build_system
from repro.kernel.autonuma import AutoNuma
from repro.kernel.compaction import Compactor
from repro.kernel.invariants import check_all, check_tlb_frame_safety
from repro.kernel.ksm import KsmDaemon
from repro.kernel.swapd import SwapDevice
from repro.mm.addr import PAGE_SIZE
from repro.mm.frames import FrameAllocatorError
from repro.sim.engine import MSEC

from helpers import make_proc, run_to_completion, drain


class TestAutoNuma:
    def _system_with_remote_access(self, mech):
        """Pages allocated on node 0, then accessed repeatedly from node 1."""
        system = build_system(mech, cores=16)
        kernel = system.kernel
        AutoNuma.install(kernel, scan_period_ns=2 * MSEC, scan_pages_per_round=64)
        proc, tasks = make_proc(system)
        kernel.autonuma.register(proc)
        state = {}

        def setup():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, 32 * PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
            state["vrange"] = vrange

        run_to_completion(system, setup())
        return system, kernel, proc, tasks, state

    @pytest.mark.parametrize("mech", ["linux", "latr"])
    def test_pages_migrate_to_accessing_node(self, mech):
        system, kernel, proc, tasks, state = self._system_with_remote_access(mech)
        vrange = state["vrange"]
        remote_task = tasks[8]  # socket 1
        remote_core = kernel.machine.core(8)

        def hammer():
            for _ in range(40):
                yield from kernel.syscalls.touch_pages(remote_task, remote_core, vrange)
                yield from remote_core.execute(500_000)

        system.sim.spawn(hammer())
        system.sim.run(until=system.sim.now + 120 * MSEC)
        assert kernel.stats.counter("numa.migrations").value > 0
        migrated_pfn = proc.mm.page_table.walk(vrange.vpn_start)
        # At least the first page should now live on node 1.
        nodes = {
            kernel.frames.node_of(pte.pfn)
            for _vpn, pte in proc.mm.page_table.entries_in_range(vrange)
            if not pte.swapped
        }
        assert 1 in nodes
        assert check_tlb_frame_safety(kernel) == []

    def test_linux_pays_ipis_latr_does_not(self):
        counts = {}
        for mech in ("linux", "latr"):
            system, kernel, proc, tasks, state = self._system_with_remote_access(mech)
            vrange = state["vrange"]
            remote_task, remote_core = tasks[8], kernel.machine.core(8)

            def hammer():
                for _ in range(20):
                    yield from kernel.syscalls.touch_pages(remote_task, remote_core, vrange)
                    yield from remote_core.execute(500_000)

            system.sim.spawn(hammer())
            system.sim.run(until=system.sim.now + 60 * MSEC)
            counts[mech] = {
                "ipis": system.stats.counter("ipi.sent").value,
                "samples": system.stats.counter("numa.pages_sampled").value,
            }
        assert counts["linux"]["samples"] > 0
        assert counts["latr"]["samples"] > 0
        assert counts["linux"]["ipis"] > 0
        assert counts["latr"]["ipis"] == 0

    def test_no_migration_for_local_access(self):
        system, kernel, proc, tasks, state = self._system_with_remote_access("latr")
        vrange = state["vrange"]
        local_task, local_core = tasks[1], kernel.machine.core(1)  # same socket

        def hammer():
            for _ in range(30):
                yield from kernel.syscalls.touch_pages(local_task, local_core, vrange)
                yield from local_core.execute(500_000)

        system.sim.spawn(hammer())
        system.sim.run(until=system.sim.now + 80 * MSEC)
        assert kernel.stats.counter("numa.hint_faults").value > 0
        assert kernel.stats.counter("numa.migrations").value == 0


class TestSwap:
    @pytest.mark.parametrize("mech", ["linux", "latr"])
    def test_swap_out_and_refault(self, mech):
        system = build_system(mech, cores=4)
        kernel = system.kernel
        SwapDevice.install(kernel)
        proc, tasks = make_proc(system)
        out = {}

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, 4 * PAGE_SIZE)
            for t in tasks:
                core = kernel.machine.core(t.home_core_id)
                yield from kernel.syscalls.touch_pages(t, core, vrange, write=True)
            count = yield from kernel.swap.swap_out_pages(t0, c0, vrange)
            out["swapped"] = count
            out["vrange"] = vrange

        run_to_completion(system, body())
        assert out["swapped"] == 4
        drain(system, ms=5)  # let lazy unmap + writeback finish
        assert kernel.stats.counter("swap.writes").value == 4
        vrange = out["vrange"]
        assert proc.mm.page_table.walk(vrange.vpn_start).swapped
        assert check_tlb_frame_safety(kernel) == []

        def refault():
            t0, c0 = tasks[0], kernel.machine.core(0)
            yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)

        run_to_completion(system, refault())
        assert kernel.stats.counter("swap.ins").value == 4
        assert not proc.mm.page_table.walk(vrange.vpn_start).swapped
        drain(system, ms=5)
        assert check_all(kernel) == []

    def test_latr_swap_defers_frame_free_until_invalidation(self):
        system = build_system("latr", cores=4)
        kernel = system.kernel
        SwapDevice.install(kernel)
        proc, tasks = make_proc(system)
        out = {}

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, PAGE_SIZE)
            for t in tasks:
                core = kernel.machine.core(t.home_core_id)
                yield from kernel.syscalls.touch_pages(t, core, vrange)
            out["pfn"] = proc.mm.page_table.walk(vrange.vpn_start).pfn
            yield from kernel.swap.swap_out_pages(t0, c0, vrange)

        run_to_completion(system, body())
        # Immediately after the (lazy) unmap posted, the frame must survive:
        # remote TLBs still reference it.
        assert kernel.frames.is_allocated(out["pfn"])
        drain(system, ms=5)
        assert not kernel.frames.is_allocated(out["pfn"])
        assert check_tlb_frame_safety(kernel) == []


class TestKsm:
    @pytest.mark.parametrize("mech", ["linux", "latr"])
    def test_identical_pages_merge(self, mech):
        system = build_system(mech, cores=2)
        kernel = system.kernel
        ksm = KsmDaemon.install(kernel, scan_period_ns=5 * MSEC)
        proc, tasks = make_proc(system)
        ksm.register(proc)
        out = {}

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, 4 * PAGE_SIZE)
            for i in range(4):
                yield from kernel.syscalls.write_with_content(
                    t0, c0, vrange.start + i * PAGE_SIZE, tag="zeros"
                )
            out["vrange"] = vrange

        run_to_completion(system, body())
        system.sim.run(until=system.sim.now + 30 * MSEC)
        assert kernel.stats.counter("ksm.pages_merged").value == 3
        pfns = {
            pte.pfn
            for _vpn, pte in proc.mm.page_table.entries_in_range(out["vrange"])
        }
        assert len(pfns) == 1
        canonical = pfns.pop()
        assert kernel.frames.refcount(canonical) == 4
        assert check_all(kernel) == []

    def test_write_after_merge_cow_breaks(self):
        system = build_system("latr", cores=2)
        kernel = system.kernel
        ksm = KsmDaemon.install(kernel, scan_period_ns=5 * MSEC)
        proc, tasks = make_proc(system)
        ksm.register(proc)
        out = {}

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, 2 * PAGE_SIZE)
            for i in range(2):
                yield from kernel.syscalls.write_with_content(
                    t0, c0, vrange.start + i * PAGE_SIZE, tag="same"
                )
            out["vrange"] = vrange

        run_to_completion(system, body())
        system.sim.run(until=system.sim.now + 30 * MSEC)
        assert kernel.stats.counter("ksm.pages_merged").value == 1
        vrange = out["vrange"]

        def write_one():
            t0, c0 = tasks[0], kernel.machine.core(0)
            # New content: the CoW break must give page 0 a private copy,
            # and the changed tag prevents ksmd from re-merging it.
            yield from kernel.syscalls.write_with_content(
                t0, c0, vrange.start, tag="changed"
            )

        run_to_completion(system, write_one())
        pte0 = proc.mm.page_table.walk(vrange.vpn_start)
        pte1 = proc.mm.page_table.walk(vrange.vpn_start + 1)
        assert pte0.pfn != pte1.pfn  # diverged again
        assert pte0.writable
        drain(system, ms=5)
        assert check_all(kernel) == []

    def test_different_content_not_merged(self):
        system = build_system("latr", cores=2)
        kernel = system.kernel
        ksm = KsmDaemon.install(kernel, scan_period_ns=5 * MSEC)
        proc, tasks = make_proc(system)
        ksm.register(proc)

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, 2 * PAGE_SIZE)
            yield from kernel.syscalls.write_with_content(t0, c0, vrange.start, tag="a")
            yield from kernel.syscalls.write_with_content(
                t0, c0, vrange.start + PAGE_SIZE, tag="b"
            )

        run_to_completion(system, body())
        system.sim.run(until=system.sim.now + 30 * MSEC)
        assert kernel.stats.counter("ksm.pages_merged").value == 0


class TestCompaction:
    @pytest.mark.parametrize("mech", ["linux", "latr"])
    def test_compaction_relocates_pages(self, mech):
        system = build_system(mech, cores=2)
        kernel = system.kernel
        compactor = Compactor.install(kernel)
        proc, tasks = make_proc(system)
        compactor.register(proc)
        out = {}

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, 4 * PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
            out["before"] = {
                vpn: pte.pfn
                for vpn, pte in proc.mm.page_table.entries_in_range(vrange)
            }
            out["vrange"] = vrange
            moved = yield from kernel.compactor.compact_node(0, max_pages=4)
            out["moved"] = moved

        run_to_completion(system, body())
        drain(system, ms=5)
        assert out["moved"] == 4
        after = {
            vpn: pte.pfn
            for vpn, pte in proc.mm.page_table.entries_in_range(out["vrange"])
        }
        assert set(after) == set(out["before"])
        assert all(after[vpn] != out["before"][vpn] for vpn in after)
        assert check_all(kernel) == []
        assert check_tlb_frame_safety(kernel) == []

    def _compact_after(self, setup):
        """Map and touch 4 pages, run ``setup(kernel)``, then one
        compaction round; returns (process, outcome dict)."""
        system = build_system("linux", cores=2, frames_per_node=1024)
        kernel = system.kernel
        compactor = Compactor.install(kernel)
        proc, tasks = make_proc(system)
        compactor.register(proc)
        out = {}

        def body():
            t0, c0 = tasks[0], kernel.machine.core(0)
            vrange = yield from kernel.syscalls.mmap(t0, c0, 4 * PAGE_SIZE)
            yield from kernel.syscalls.touch_pages(t0, c0, vrange, write=True)
            setup(kernel)
            try:
                out["moved"] = yield from compactor.compact_node(0, max_pages=4)
            except RuntimeError as exc:
                out["raised"] = exc

        run_to_completion(system, body())
        # The round got past block selection to the relocation loop.
        assert kernel.stats.counter("compaction.no_block").value == 0
        return proc, out

    def test_non_allocator_error_from_alloc_propagates(self):
        def inject(kernel):
            def alloc(node=0, exclude=None):
                raise RuntimeError("injected")

            kernel.frames.alloc = alloc

        proc, out = self._compact_after(inject)
        assert str(out["raised"]) == "injected"
        assert not proc.mm.mmap_sem.locked

    def test_exhausted_allocator_ends_round_cleanly(self):
        def exhaust(kernel):
            # Every frame outside the target block: the block stays
            # movable, but no relocation destination is left.
            block, _victims = kernel.compactor.pick_target_block(0)
            while True:
                try:
                    kernel.frames.alloc(0, exclude=block)
                except FrameAllocatorError:
                    return

        proc, out = self._compact_after(exhaust)
        assert out == {"moved": 0}
        assert not proc.mm.mmap_sem.locked


class TestKsmCrossProcess:
    def test_merge_across_processes(self):
        """KSM deduplicates identical pages owned by different processes;
        the duplicate's frame is freed only after the lazy invalidation."""
        system = build_system("latr", cores=2)
        kernel = system.kernel
        ksm = KsmDaemon.install(kernel, scan_period_ns=5 * MSEC)
        proc_a, tasks_a = make_proc(system, n_threads=1, name="a")
        proc_b = kernel.create_process("b")
        task_b = kernel.spawn_thread(proc_b, "t0", 1)
        ksm.register(proc_a)
        ksm.register(proc_b)
        box = {}

        def body():
            ta, ca = tasks_a[0], kernel.machine.core(0)
            cb = kernel.machine.core(1)
            ra = yield from kernel.syscalls.mmap(ta, ca, PAGE_SIZE)
            rb = yield from kernel.syscalls.mmap(task_b, cb, PAGE_SIZE)
            yield from kernel.syscalls.write_with_content(ta, ca, ra.start, tag="dup")
            yield from kernel.syscalls.write_with_content(task_b, cb, rb.start, tag="dup")
            box["ra"], box["rb"] = ra, rb

        run_to_completion(system, body())
        system.sim.run(until=system.sim.now + 30 * MSEC)
        pfn_a = proc_a.mm.page_table.walk(box["ra"].vpn_start).pfn
        pfn_b = proc_b.mm.page_table.walk(box["rb"].vpn_start).pfn
        assert pfn_a == pfn_b
        assert kernel.frames.refcount(pfn_a) == 2
        assert kernel.stats.counter("ksm.pages_merged").value == 1
        # Both sides are now CoW: a write diverges privately.
        pte_a = proc_a.mm.page_table.walk(box["ra"].vpn_start)
        pte_b = proc_b.mm.page_table.walk(box["rb"].vpn_start)
        assert pte_a.cow and pte_b.cow
        assert check_all(kernel) == []
