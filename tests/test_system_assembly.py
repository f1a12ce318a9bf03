"""build_system / Machine assembly / measurement-window plumbing."""

import pytest

from repro import System, build_system
from repro.hw.cpumask import mask_ids
from repro.sim.engine import MSEC, SEC
from repro.workloads.base import WorkloadResult, measured_window

from helpers import make_proc


class TestBuildSystem:
    def test_default_build(self):
        system = build_system()
        assert system.kernel.coherence.name == "latr"
        assert system.machine.n_cores == 16
        assert system.machine.spec.sockets == 2

    def test_core_restriction_and_preset(self):
        system = build_system("linux", machine="large-numa-8s120c", cores=30)
        assert system.machine.n_cores == 30
        assert system.machine.spec.sockets == 2  # 15 cores/socket

    def test_unknown_mechanism(self):
        with pytest.raises(KeyError):
            build_system("nope")

    def test_mechanism_kwargs_forwarded(self):
        system = build_system("latr", cores=2, queue_depth=7)
        assert system.kernel.coherence.queue_depth == 7

    def test_frames_override(self):
        system = build_system("latr", cores=2, frames_per_node=123)
        assert system.kernel.frames.frames_per_node == 123

    def test_pcid_flag_reaches_tlbs(self):
        system = build_system("latr", cores=2, pcid=True)
        assert all(c.tlb.pcid_enabled for c in system.machine.cores)

    def test_system_bundle_accessors(self):
        system = build_system("latr", cores=2)
        assert system.stats is system.kernel.stats
        assert system.syscalls is system.kernel.syscalls

    def test_scheduler_started(self):
        system = build_system("latr", cores=2)
        assert system.sim.pending() > 0  # tick loops are queued

    def test_seed_controls_rng(self):
        a = build_system("latr", cores=1, seed=5).kernel.rng.stream("x").random()
        b = build_system("latr", cores=1, seed=5).kernel.rng.stream("x").random()
        c = build_system("latr", cores=1, seed=6).kernel.rng.stream("x").random()
        assert a == b != c


class TestMachineAssembly:
    def test_cores_match_spec(self):
        system = build_system("latr", machine="large-numa-8s120c")
        machine = system.machine
        assert len(machine.cores) == 120
        assert machine.core(119).socket == 7
        assert mask_ids(machine.topology.socket_masks[3]) == list(range(45, 60))
        assert all(c.socket == 3 for c in machine.cores_in(machine.topology.socket_masks[3]))

    def test_tlb_capacity_from_spec(self):
        system = build_system("latr", cores=2)
        assert system.machine.core(0).tlb.capacity == 64


class TestMeasuredWindow:
    def test_window_runs_and_restarts_rates(self):
        system = build_system("latr", cores=2)
        make_proc(system)
        rate = system.stats.rate("x")
        rate.hit()  # before the window: ignored
        elapsed = measured_window(system, warmup_ns=2 * MSEC, duration_ns=10 * MSEC)
        assert elapsed == 10 * MSEC
        assert rate.events == 0

    def test_workload_result_metric_access(self):
        result = WorkloadResult("w", "latr", metrics={"x": 1.5})
        assert result.metric("x") == 1.5
        with pytest.raises(KeyError):
            result.metric("y")
