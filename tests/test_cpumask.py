"""Bitmap cpumasks: mask-based target selection and sharer counting checked
against set-based references, and the masks' snapshot round trip."""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import build_system
from repro.hw.cpumask import mask_ids, mask_of, popcount
from repro.mm.addr import PAGE_SIZE
from repro.snapshot import restore_kernel, snapshot_kernel

from helpers import reference_targets, run_to_completion

SPECS = {"commodity-2s16c": 16, "large-numa-8s120c": 120, "fleet-16s960c": 960}
SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _ids(mask, n):
    """Core ids of ``mask`` by a per-core scan (independent of ``mask_ids``)."""
    return {c for c in range(n) if mask >> c & 1}


@st.composite
def _masks(draw, n):
    full = (1 << n) - 1
    return draw(
        st.one_of(
            st.integers(0, full),
            st.sets(st.integers(0, n - 1), max_size=12).map(mask_of),
            st.just(full),
        )
    )


@st.composite
def scenarios(draw):
    """A machine spec, an mm cpumask, a lazy-TLB idle set and an initiator."""
    spec = draw(st.sampled_from(sorted(SPECS)))
    n = SPECS[spec]
    return spec, draw(_masks(n)), draw(_masks(n)), draw(st.integers(0, n - 1))


def _system(mech, spec, idle_mask):
    system = build_system(mech, machine=spec)
    kernel = system.kernel
    for core_id in mask_ids(idle_mask):
        kernel.machine.core(core_id).enter_idle()
    return kernel


def _flagged(kernel):
    return [c.id for c in kernel.machine.cores if c.needs_flush_on_wake]


class TestMaskHelpers:
    @given(st.sets(st.integers(0, 1023)))
    def test_mask_of_and_ids_round_trip(self, ids):
        mask = mask_of(ids)
        assert mask_ids(mask) == sorted(ids)
        assert popcount(mask) == len(ids)

    def test_core_bits_and_lazy_mask(self):
        kernel = _system("linux", "commodity-2s16c", mask_of([3, 9]))
        machine = kernel.machine
        assert machine.lazy_mask == mask_of([3, 9])
        assert [c.id for c in machine.cores if c.lazy_tlb_mode] == [3, 9]
        assert all(c.bit == 1 << c.id for c in machine.cores)
        assert [c.id for c in machine.cores_in(mask_of([12, 0, 7]))] == [0, 7, 12]


class TestTargetSelectionVsSetReference:
    @SETTINGS
    @given(scenarios())
    def test_select_targets(self, scenario):
        spec, cpumask, idle, initiator = scenario
        n = SPECS[spec]
        targets, skipped = reference_targets(_ids(cpumask, n), _ids(idle, n), initiator)
        kernel = _system("linux", spec, idle)
        mm = kernel.create_process("p").mm
        mm.cpumask = cpumask
        got = kernel.coherence.select_targets(kernel.machine.core(initiator), mm)
        assert [core.id for core in got] == targets
        assert _flagged(kernel) == skipped
        counters = kernel.stats.counters_snapshot()
        if skipped:
            assert counters["shootdown.idle_skipped"] == len(skipped)
        else:
            assert "shootdown.idle_skipped" not in counters
        # Selection reads the masks, never writes them.
        assert mm.cpumask == cpumask and kernel.machine.lazy_mask == idle

    @SETTINGS
    @given(scenarios())
    def test_latr_target_mask(self, scenario):
        spec, cpumask, idle, initiator = scenario
        n = SPECS[spec]
        targets, skipped = reference_targets(_ids(cpumask, n), _ids(idle, n), initiator)
        kernel = _system("latr", spec, idle)
        mm = kernel.create_process("p").mm
        mm.cpumask = cpumask
        assert kernel.coherence.target_mask(kernel.machine.core(initiator), mm) == mask_of(targets)
        assert _flagged(kernel) == skipped
        assert kernel.stats.counters_snapshot().get("shootdown.idle_skipped", 0) == len(skipped)

    @SETTINGS
    @given(scenarios(), st.data())
    def test_abis_targets_for_range(self, scenario, data):
        """ABIS narrows the cpumask to the access-bit sharers; idle cores
        are flagged but, unlike ``select_targets``, not counted."""
        spec, cpumask, idle, initiator = scenario
        n = SPECS[spec]
        sharers = [data.draw(_masks(n)) for _ in range(3)]
        union = _ids(sharers[0] | sharers[1] | sharers[2], n)
        targets, skipped = reference_targets(union & _ids(cpumask, n), _ids(idle, n), initiator)
        kernel = _system("abis", spec, idle)
        mm = kernel.create_process("p").mm
        mm.cpumask = cpumask
        abis = kernel.coherence
        vrange = mm.find_free_range(3 * PAGE_SIZE)
        for vpn, mask in zip(vrange.vpns(), sharers):
            abis._sharers[(mm.mm_id, vpn)] = mask
        assert abis._targets_for_range(kernel.machine.core(initiator), mm, vrange) == mask_of(targets)
        assert _flagged(kernel) == skipped
        assert abis._sharers == {}
        assert "shootdown.idle_skipped" not in kernel.stats.counters_snapshot()

    @SETTINGS
    @given(scenarios())
    def test_sharer_hop_counts(self, scenario):
        spec, cpumask, _idle, core_id = scenario
        n = SPECS[spec]
        topo = build_system("linux", machine=spec).machine.topology
        expected = Counter(
            topo.core_hops(core_id, other) for other in _ids(cpumask, n) if other != core_id
        )
        assert topo.sharer_hop_counts(core_id, cpumask) == dict(expected)


class TestBitmapSnapshotRoundTrip:
    """The MC canonical hash does not fold core idle state, so this is the
    check that a restore brings back every cpumask and the lazy mask."""

    def test_restore_rewinds_cpumasks_and_lazy_mask(self):
        system = build_system("latr", machine="commodity-2s16c")
        kernel = system.kernel
        machine = kernel.machine
        proc_a = kernel.create_process("a")
        tasks_a = [kernel.spawn_thread(proc_a, f"a{c}", c) for c in range(8)]
        proc_b = kernel.create_process("b")
        tasks_b = [kernel.spawn_thread(proc_b, f"b{c}", c) for c in range(8, 16)]
        core0 = machine.core(0)

        def share():
            vrange = yield from kernel.syscalls.mmap(tasks_a[0], core0, 4 * PAGE_SIZE)
            for task in tasks_a:
                core = machine.core(task.home_core_id)
                yield from kernel.syscalls.touch_pages(task, core, vrange, write=True)
            return vrange

        vrange = run_to_completion(system, share())
        for task in (tasks_a[3], tasks_a[5], tasks_b[2]):
            kernel.scheduler.task_exit(task)
        masks = {mm: mm.cpumask for mm in kernel.mm_registry.values()}
        lazy = machine.lazy_mask
        assert lazy == mask_of([3, 5, 10])
        snap = snapshot_kernel(kernel)

        def unmap():
            yield from kernel.syscalls.munmap(tasks_a[0], core0, vrange)
            return kernel.coherence._pending_reclaim[-1].cpu_bitmask

        posted = run_to_completion(system, unmap())
        assert posted == frozenset({1, 2, 4, 6, 7})
        restore_kernel(kernel, snap)

        proc_a.mm.mark_running_on(12)
        proc_a.mm.clear_cpu(2)
        proc_b.mm.clear_cpu(9)
        machine.core(3).exit_idle(tasks_a[3])
        machine.core(10).exit_idle(tasks_b[2])
        machine.core(6).enter_idle()
        machine.core(14).enter_idle()
        assert machine.lazy_mask != lazy
        assert {mm: mm.cpumask for mm in masks} != masks

        restore_kernel(kernel, snap)
        assert {mm: mm.cpumask for mm in masks} == masks
        assert machine.lazy_mask == lazy
        assert [c.id for c in machine.cores if c.lazy_tlb_mode] == [3, 5, 10]
        assert run_to_completion(system, unmap()) == posted
