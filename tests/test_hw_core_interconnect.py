"""Unit tests for the core execution model and the IPI interconnect."""

import pytest

from repro.hw.latency import DEFAULT_LATENCY
from repro.hw.machine import Machine
from repro.hw.spec import COMMODITY_2S16C, LARGE_NUMA_8S120C
from repro.sim.engine import Simulator


def make_machine(spec=COMMODITY_2S16C):
    sim = Simulator()
    return sim, Machine(sim, spec)


class TestCoreExecute:
    def test_execute_takes_exactly_work_time(self):
        sim, machine = make_machine()
        core = machine.core(0)

        def body():
            yield from core.execute(12_345)

        proc = sim.spawn(body())
        sim.run()
        assert sim.now == 12_345
        assert core.busy_ns_total == 12_345

    def test_interrupt_time_extends_execution(self):
        sim, machine = make_machine()
        core = machine.core(0)

        def body():
            yield from core.execute(100_000)

        sim.spawn(body())
        sim.after(30_000, core.deliver_interrupt, 5_000)
        sim.run()
        assert sim.now == 105_000

    def test_steal_time_extends_execution(self):
        sim, machine = make_machine()
        core = machine.core(0)

        def body():
            yield from core.execute(50_000)

        sim.spawn(body())
        sim.after(10_000, core.steal_time, 2_000)
        sim.run()
        assert sim.now == 52_000

    def test_negative_work_rejected(self):
        sim, machine = make_machine()
        core = machine.core(0)
        with pytest.raises(ValueError):
            list(core.execute(-1))

    def test_handlers_serialize(self):
        sim, machine = make_machine()
        core = machine.core(0)
        done1 = core.deliver_interrupt(1_000)
        done2 = core.deliver_interrupt(1_000)
        assert done1 == 1_000
        assert done2 == 2_000  # queued behind the first
        assert core.interrupts_received == 2

    def test_idle_transitions(self):
        sim, machine = make_machine()
        core = machine.core(0)
        core.enter_idle()
        assert core.idle and core.lazy_tlb_mode
        core.needs_flush_on_wake = True
        core.tlb.fill(1, 5, __import__("repro.hw.tlb", fromlist=["TlbEntry"]).TlbEntry(pfn=1))
        assert machine.lazy_mask == core.bit
        flushed = core.exit_idle(task=object())
        assert flushed is True
        assert len(core.tlb) == 0
        assert not core.lazy_tlb_mode
        assert machine.lazy_mask == 0
        # Nothing deferred: waking again flushes nothing.
        core.enter_idle()
        assert core.exit_idle(task=object()) is False


class TestInterconnect:
    def test_multicast_no_targets_completes_immediately(self):
        sim, machine = make_machine()
        send_cost, acked = machine.interconnect.multicast_ipi(machine.core(0), [], 500)
        assert send_cost == 0
        sim.run()
        assert acked.triggered

    def test_single_target_same_socket_timing(self):
        sim, machine = make_machine()
        lat = machine.latency
        src, dst = machine.core(0), machine.core(1)
        send_cost, acked = machine.interconnect.multicast_ipi(src, [dst], 1_000)
        assert send_cost == lat.ipi_send(0)
        sim.run()
        expected = lat.ipi_send(0) + lat.ipi_delivery(0) + 1_000 + lat.ack_transfer(0)
        assert sim.now == expected
        assert dst.interrupts_received == 1

    def test_cross_socket_costs_more(self):
        sim, machine = make_machine()
        src = machine.core(0)
        _, acked_local = machine.interconnect.multicast_ipi(src, [machine.core(1)], 1_000)
        sim.run()
        local_done = sim.now

        sim2, machine2 = make_machine()
        src2 = machine2.core(0)
        _, acked_remote = machine2.interconnect.multicast_ipi(src2, [machine2.core(8)], 1_000)
        sim2.run()
        assert sim2.now > local_done

    def test_multicast_waits_for_slowest(self):
        sim, machine = make_machine()
        src = machine.core(0)
        targets = [machine.core(1), machine.core(8)]  # local + remote socket
        _, acked = machine.interconnect.multicast_ipi(src, targets, 1_000)
        sim.run()
        assert acked.triggered
        ack_times = acked.value
        assert len(ack_times) == 2
        assert sim.now == max(ack_times)

    def test_send_occupancy_accumulates_per_target(self):
        sim, machine = make_machine()
        lat = machine.latency
        src = machine.core(0)
        targets = [machine.core(i) for i in range(1, 8)]
        send_cost, _ = machine.interconnect.multicast_ipi(src, targets, 500)
        assert send_cost == 7 * lat.ipi_send(0)

    def test_ipi_counters(self):
        sim, machine = make_machine()
        src = machine.core(0)
        machine.interconnect.multicast_ipi(src, [machine.core(1), machine.core(2)], 500)
        sim.run()
        assert machine.stats.counter("ipi.sent").value == 2
        assert machine.stats.counter("ipi.handled").value == 2


class TestLatencyModel:
    def test_hop_clamping(self):
        lat = DEFAULT_LATENCY
        assert lat.ipi_send(5) == lat.ipi_send(2)
        with pytest.raises(ValueError):
            lat.ipi_send(-1)

    def test_full_flush_rule(self):
        lat = DEFAULT_LATENCY
        assert lat.local_invalidation(1, 32) == lat.tlb_invlpg_ns
        assert lat.local_invalidation(32, 32) == 32 * lat.tlb_invlpg_ns
        assert lat.local_invalidation(33, 32) == lat.tlb_full_flush_ns

    def test_handler_cost_rule(self):
        lat = DEFAULT_LATENCY
        small = lat.ipi_handler(2, 32)
        big = lat.ipi_handler(100, 32)
        assert small == lat.ipi_handler_base_ns + 2 * lat.tlb_invlpg_ns
        assert big == lat.ipi_handler_base_ns + lat.tlb_full_flush_ns

    def test_table5_constants(self):
        # Paper Table 5: the two LATR primitive costs.
        lat = DEFAULT_LATENCY
        assert lat.latr_state_write_ns == 132
        assert lat.latr_sweep_base_ns == 158

    def test_cacheline_local_vs_remote(self):
        lat = DEFAULT_LATENCY
        assert lat.cacheline(0) == lat.cacheline_local_ns
        assert lat.cacheline(1) > lat.cacheline(0)
