"""Open-loop fleet-scale service workload (SLO tail tables).

The Apache model in :mod:`repro.workloads.apache` is *closed loop*: each
core fires the next request only when the previous one finishes, so the
server can never fall behind and the latency tail stays tame even at
saturation. Real fleet front-ends face the opposite regime (the paper's
section 1 "killer microseconds" motivation): requests arrive on their own
clock, and once offered load exceeds capacity the backlog -- and the
p99/p999 -- grows without bound. This workload models that regime:

* a dispatcher draws arrivals from :mod:`repro.sim.arrivals` (Poisson or
  bursty MMPP) at a configured *offered* load, independent of service
  progress;
* requests carry connection affinity: each lands on the worker core that
  owns its connection, queueing behind whatever that core is doing;
* every request runs the mmap/touch/munmap scratch-buffer lifecycle that
  serializes on ``mmap_sem`` and triggers shootdowns -- the path where
  LATR's lazy invalidation buys back capacity;
* long-lived per-connection buffers churn (munmap + fresh mmap) at a
  configured rate, re-faulting on next use the way dropped keep-alive
  connections do.

Request latency is measured *from arrival*, so queueing delay is in the
number -- that is the whole point of open loop. Samples go to the bounded
streaming-quantile recorder (``stats.quantile``), not the keep-every-
sample ``LatencyRecorder``: offered-load sweeps past saturation record
millions of samples per cell.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .. import warm_build_system
from ..mm.addr import PAGE_SIZE
from ..sim.arrivals import make_arrivals
from ..sim.engine import MSEC, SEC, Signal, Timeout
from .base import WorkloadResult, measured_window


@dataclass
class OpenLoopConfig:
    """Knobs for one open-loop run (all fields picklable for run cells)."""

    machine: str = "large-numa-8s120c"
    cores: Optional[int] = None
    #: Total offered load in kilo-requests/second, across all cores.
    offered_kreq_s: float = 100.0
    #: Arrival process: "poisson" or "bursty" (two-state MMPP).
    arrival: str = "poisson"
    burst_factor: float = 4.0
    base_dwell_ms: float = 8.0
    burst_dwell_ms: float = 2.0
    #: CPU work per request, apart from memory management (Apache-calibrated).
    request_work_ns: int = 59_000
    #: Scratch buffer mapped/touched/unmapped by every request.
    request_pages: int = 3
    #: Long-lived connection buffers (one per connection, owner-core affine).
    connections: int = 240
    conn_pages: int = 4
    #: Connection churn (drop + re-establish) events per second.
    conn_churn_per_sec: float = 1_000.0
    warmup_ms: int = 5
    duration_ms: int = 50
    seed: int = 1


class OpenLoopWorkload:
    """An open-loop arrival-driven service on one simulated machine."""

    name = "openloop"

    def __init__(self, config: Optional[OpenLoopConfig] = None):
        self.config = config or OpenLoopConfig()

    def run(self, mechanism: str, **mechanism_kwargs) -> WorkloadResult:
        cfg = self.config
        build_kwargs = dict(
            machine=cfg.machine,
            cores=cfg.cores,
            seed=cfg.seed,
            **mechanism_kwargs,
        )
        system = warm_build_system(mechanism, **build_kwargs)
        sim = system.sim
        kernel = system.kernel
        syscalls = kernel.syscalls
        n_cores = kernel.machine.n_cores

        arrivals = make_arrivals(
            cfg.arrival,
            kernel.rng.stream("openloop.arrivals"),
            cfg.offered_kreq_s * 1_000.0,
            burst_factor=cfg.burst_factor,
            base_dwell_ms=cfg.base_dwell_ms,
            burst_dwell_ms=cfg.burst_dwell_ms,
        )
        conn_rng = kernel.rng.stream("openloop.conn")
        churn_rng = kernel.rng.stream("openloop.churn")

        server = kernel.create_process("openloop")
        workers = [kernel.spawn_thread(server, f"w{c}", c) for c in range(n_cores)]

        completed = kernel.stats.counter("openloop.requests")
        request_rate = kernel.stats.rate("openloop.requests")
        offered_rate = kernel.stats.rate("openloop.offered")
        request_latency = kernel.stats.quantile("openloop.request")
        churn_count = kernel.stats.counter("openloop.conn_churn")

        #: conn index -> mapped VirtRange (None until established).
        conn_ranges = [None] * cfg.connections
        #: Per-core request queues: (arrived_ns, kind, conn_idx).
        queues = [deque() for _ in range(n_cores)]
        #: Idle workers park on a Signal the dispatcher fires on enqueue.
        idle = [None] * n_cores

        def enqueue(core_idx: int, item) -> None:
            queues[core_idx].append(item)
            sig = idle[core_idx]
            if sig is not None:
                idle[core_idx] = None
                sig.succeed()

        def handle_request(core, task, conn_idx: int):
            yield from core.execute(cfg.request_work_ns)
            conn_range = conn_ranges[conn_idx]
            if conn_range is not None:
                # Read the connection state; faults again after churn.
                yield from syscalls.touch_pages(task, core, conn_range)
            scratch = yield from syscalls.mmap(
                task, core, cfg.request_pages * PAGE_SIZE
            )
            yield from syscalls.touch_pages(task, core, scratch, write=True)
            yield from syscalls.munmap(task, core, scratch)

        def handle_churn(core, task, conn_idx: int):
            old = conn_ranges[conn_idx]
            if old is not None:
                yield from syscalls.munmap(task, core, old)
            fresh = yield from syscalls.mmap(task, core, cfg.conn_pages * PAGE_SIZE)
            yield from syscalls.touch_pages(task, core, fresh, write=True)
            conn_ranges[conn_idx] = fresh
            churn_count.add()

        def worker_loop(core_idx: int):
            core = kernel.machine.core(core_idx)
            task = workers[core_idx]
            # Establish this core's connections before traffic starts.
            for conn_idx in range(core_idx, cfg.connections, n_cores):
                yield from kernel.scheduler.run_on(
                    core, task, handle_churn(core, task, conn_idx)
                )
            queue = queues[core_idx]
            while True:
                if not queue:
                    sig = idle[core_idx] = Signal(sim)
                    yield sig
                    continue
                arrived_ns, kind, conn_idx = queue.popleft()
                if kind == 0:
                    yield from kernel.scheduler.run_on(
                        core, task, handle_request(core, task, conn_idx)
                    )
                    completed.add()
                    request_rate.hit()
                    request_latency.record(sim.now - arrived_ns)
                else:
                    yield from kernel.scheduler.run_on(
                        core, task, handle_churn(core, task, conn_idx)
                    )

        def dispatcher():
            # Offered load does not care how the server is doing: gaps come
            # from the arrival process alone (this is what "open loop" means).
            while True:
                yield self._timeout(arrivals.next_gap_ns())
                conn_idx = conn_rng.randrange(cfg.connections)
                offered_rate.hit()
                enqueue(conn_idx % n_cores, (sim.now, 0, conn_idx))

        def churner():
            if cfg.conn_churn_per_sec <= 0:
                return
            mean_gap = SEC / cfg.conn_churn_per_sec
            while True:
                yield self._timeout(int(churn_rng.expovariate(1.0) * mean_gap))
                conn_idx = churn_rng.randrange(cfg.connections)
                enqueue(conn_idx % n_cores, (sim.now, 1, conn_idx))

        for c in range(n_cores):
            sim.spawn(worker_loop(c), name=f"openloop-w{c}")
        sim.spawn(dispatcher(), name="openloop-dispatch")
        sim.spawn(churner(), name="openloop-churn")

        window_ns = measured_window(system, cfg.warmup_ms * MSEC, cfg.duration_ms * MSEC)

        backlog = sum(len(q) for q in queues)
        metrics = {
            "offered_kreq_s": offered_rate.per_second() / 1_000.0,
            "achieved_kreq_s": request_rate.per_second() / 1_000.0,
            "latency_p50_us": request_latency.percentile(50) / 1_000.0,
            "latency_p99_us": request_latency.percentile(99) / 1_000.0,
            "latency_p999_us": request_latency.percentile(99.9) / 1_000.0,
            "shootdowns_per_sec": kernel.stats.rate("shootdowns").per_second(),
            "ipis_per_sec": kernel.stats.rate("ipi.sent").per_second(),
            "backlog_requests": float(backlog),
            "samples": float(request_latency.count),
            "window_ns": float(window_ns),
        }
        return WorkloadResult(
            workload=self.name,
            mechanism=mechanism,
            metrics=metrics,
            counters=kernel.stats.counters_snapshot(),
        )

    @staticmethod
    def _timeout(delay_ns: int) -> Timeout:
        return Timeout(max(1, delay_ns))


def run_openloop(mechanism: str, mechanism_kwargs=None, **config_kwargs) -> WorkloadResult:
    """Run-one-cell entry point (module-level, picklable arguments)."""
    workload = OpenLoopWorkload(OpenLoopConfig(**config_kwargs))
    return workload.run(mechanism, **(mechanism_kwargs or {}))
