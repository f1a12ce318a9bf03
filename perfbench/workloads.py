"""The benchmark's three workloads, driven through the simulator's public API.

Each workload is a list of legs. A leg is built by ``setup()`` (boot,
processes, threads: what ``setup_s`` times) and then driven by ``run()``
(what ``wall_s`` times). ``run()`` returns a :class:`LegResult`: a digest
of the leg's modelled outcome, the modelled operations it attempted and
the ones that failed, the checks that did not hold and the simulated
figures the ``model.*`` metrics report.

All three are closed loops: a client issues its next operation only after
the previous one returned.

``own`` wraps the benchmark's own generators; the traced run passes a
wrapper that attributes their resumes to the ``bench`` layer, the timed run
passes the identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro import build_system
from repro.mm.addr import PAGE_SIZE
from repro.mm.vma import VmaKind
from repro.sim.engine import MSEC, AllOf, Timeout
from repro.verify import mc
from repro.workloads.base import measured_window

#: apache-12c: the Fig. 9 column at 12 cores (``repro fig9 --fast`` window).
APACHE = dict(
    machine="commodity-2s16c",
    cores=12,
    warmup_ms=10,
    duration_ms=40,
    file_pool=16,
    file_pages=3,
    request_work_ns=59_000,
)
APACHE_MECHS = ("linux", "abis", "latr")

#: Paper references for ``model.err_pct`` (Fig. 9, Apache at 12 cores).
PAPER_LATR_KREQ_S = 145.0
PAPER_LATR_VS_LINUX_PCT = 59.9
PAPER_LATR_VS_ABIS_PCT = 37.9

#: The paper's figure printed beside each ``model.*`` metric it grounds.
PAPER_REFERENCES = {
    "model.latr.state_write_ns": "Table 5: state save 132 ns",
    "model.latr.sweep_ns": "Table 5: sweep 158 ns base",
    "model.linux.sync_wait_ns": "Table 5: shootdown 1.6 us",
    "model.latr.kreq_s": f"Fig. 9: ~{PAPER_LATR_KREQ_S:g} kreq/s at 12 cores",
    "model.latr_vs_linux_pct": f"Fig. 9: +{PAPER_LATR_VS_LINUX_PCT:g}%",
    "model.latr_vs_abis_pct": f"Fig. 9: +{PAPER_LATR_VS_ABIS_PCT:g}%",
}

#: Every ``model.*`` metric with its unit; a workload without the leg a
#: metric describes reports 0 for it.
MODEL_METRICS = {
    **{f"model.{mech}.kreq_s": "kreq/s" for mech in APACHE_MECHS},
    **{f"model.{mech}.munmap_ns": "ns" for mech in APACHE_MECHS},
    "model.linux.sync_wait_ns": "ns",
    "model.linux.ipis_per_munmap": "count",
    "model.latr.state_write_ns": "ns",
    "model.latr.sweep_ns": "ns",
    "model.latr_vs_linux_pct": "%",
    "model.latr_vs_abis_pct": "%",
    "model.err_pct": "%",
}

#: fleet-960c: the fleet-stress churn (16 sockets, 960 cores, LATR).
FLEET = dict(machine="fleet-16s960c", clients=96, pages=4, touchers=3, duration_ms=8)

#: mc-4c3p5o: exhaustive model checking at 4 cores, 3 pages, 5 ops.
MC_CONFIG = mc.McConfig(
    scope=mc.McScope(cores=4, pages=3, ops=5),
    differential=False,
    collect_hashes=True,
    stop_on_first=False,
)


def digest_of(obj) -> str:
    """Short stable hash of a JSON-serialisable value."""
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class LegResult:
    digest: str
    attempted: int
    failed: int = 0
    checks: List[str] = field(default_factory=list)
    model: Dict[str, float] = field(default_factory=dict)
    mc: Dict[str, float] = field(default_factory=dict)


@dataclass
class Leg:
    name: str
    setup: Callable[[], object]
    run: Callable[[object, Callable], LegResult]


class _OpCounter:
    """Counts modelled operations a client attempts and the ones that raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, gen):
        """``yield from ops.call(syscall(...))``: returns the syscall's value,
        or None when it raised."""
        self.attempted += 1
        try:
            return (yield from gen)
        except Exception:
            self.failed += 1
            return None


def _simulate(kernel, mech: str, ops: _OpCounter, run: Callable[[], object]) -> LegResult:
    """Drive ``run`` (the leg's ``sim.run`` calls) and summarise the leg.

    An exception out of ``sim.run`` becomes a failed check, so the sample
    still reports and the run says INCORRECT instead of crashing."""
    checks = []
    try:
        run()
    except Exception as exc:
        checks.append(f"{mech}: sim.run raised {type(exc).__name__}: {exc}")
    summary = kernel.stats.summary()
    shootdowns = summary.get("rate.shootdowns.per_sec", 0.0)
    model = {
        f"model.{mech}.kreq_s": summary.get("rate.apache.requests.per_sec", 0.0) / 1000.0,
        f"model.{mech}.munmap_ns": summary.get("lat.munmap.mean_ns", 0.0),
        f"model.{mech}.sync_wait_ns": summary.get("lat.shootdown.sync_wait.mean_ns", 0.0),
        f"model.{mech}.ipis_per_munmap": (
            summary.get("rate.ipi.sent.per_sec", 0.0) / shootdowns if shootdowns else 0.0
        ),
        f"model.{mech}.state_write_ns": summary.get("lat.latr.state_write.mean_ns", 0.0),
        f"model.{mech}.sweep_ns": summary.get("lat.latr.sweep.mean_ns", 0.0),
    }
    return LegResult(
        digest=digest_of(summary),
        attempted=max(ops.attempted, 1),
        failed=ops.failed,
        checks=checks,
        model={name: value for name, value in model.items() if name in MODEL_METRICS},
    )


# --------------------------------------------------------------------------- apache


def _apache_setup(mech: str, seed: int):
    system = build_system(mech, machine=APACHE["machine"], cores=APACHE["cores"], seed=seed)
    proc = system.kernel.create_process("apache0")
    workers = [system.kernel.spawn_thread(proc, f"w{c}", c) for c in range(APACHE["cores"])]
    return system, workers


def _apache_run(state, own: Callable) -> LegResult:
    """The event-MPM loop of ``repro.workloads.apache`` with one process and
    one client per core: parse, mmap a 3-page file, touch it, munmap."""
    system, workers = state
    kernel = system.kernel
    sim = system.sim
    rng = kernel.rng.stream("apache")
    ops = _OpCounter()
    completed = kernel.stats.counter("apache.requests")
    request_rate = kernel.stats.rate("apache.requests")
    request_latency = kernel.stats.latency("apache.request")
    syscalls = kernel.syscalls

    def handle_request(core):
        task = workers[core.id]
        started = sim.now
        yield from core.execute(APACHE["request_work_ns"])
        file_key = f"page{rng.randrange(APACHE['file_pool'])}.html"
        vrange = yield from ops.call(
            syscalls.mmap(
                task, core, APACHE["file_pages"] * PAGE_SIZE,
                kind=VmaKind.FILE, file_key=file_key,
            )
        )
        if vrange is not None:
            yield from ops.call(syscalls.touch_pages(task, core, vrange))
            yield from ops.call(syscalls.munmap(task, core, vrange))
        completed.add()
        request_rate.hit()
        request_latency.record(sim.now - started)

    def core_loop(core):
        while True:
            yield from kernel.scheduler.run_on(core, workers[core.id], own(handle_request(core)))

    for c in range(APACHE["cores"]):
        sim.spawn(own(core_loop(kernel.machine.core(c))), name=f"apache-core{c}")
    return _simulate(
        kernel, kernel.coherence.name, ops,
        lambda: measured_window(system, APACHE["warmup_ms"] * MSEC, APACHE["duration_ms"] * MSEC),
    )


def apache_check(model: Dict[str, float]) -> List[str]:
    """The paper's Fig. 9 shape at 12 cores: LATR > ABIS > Linux in req/s."""
    kreq = {mech: model[f"model.{mech}.kreq_s"] for mech in APACHE_MECHS}
    if kreq["latr"] > kreq["abis"] > kreq["linux"]:
        return []
    return [f"apache shape: expected latr > abis > linux req/s, got {kreq}"]


def _gain_pct(value: float, base: float) -> float:
    return (value / base - 1.0) * 100.0 if base else 0.0


def apache_vs_paper(model: Dict[str, float]) -> Dict[str, float]:
    """LATR's gains over Linux and ABIS, and the mean relative error of
    LATR's req/s and both gains against Fig. 9."""
    latr = model["model.latr.kreq_s"]
    vs_linux = _gain_pct(latr, model["model.linux.kreq_s"])
    vs_abis = _gain_pct(latr, model["model.abis.kreq_s"])
    errors = (
        abs(latr - PAPER_LATR_KREQ_S) / PAPER_LATR_KREQ_S,
        abs(vs_linux - PAPER_LATR_VS_LINUX_PCT) / PAPER_LATR_VS_LINUX_PCT,
        abs(vs_abis - PAPER_LATR_VS_ABIS_PCT) / PAPER_LATR_VS_ABIS_PCT,
    )
    return {
        "model.latr_vs_linux_pct": vs_linux,
        "model.latr_vs_abis_pct": vs_abis,
        "model.err_pct": 100.0 * sum(errors) / len(errors),
    }


# --------------------------------------------------------------------------- fleet


def _fleet_setup(seed: int):
    system = build_system("latr", machine=FLEET["machine"], seed=seed)
    kernel = system.kernel
    n_cores = len(kernel.machine.cores)
    procs = [kernel.create_process(f"fleet{p}") for p in range(FLEET["clients"])]
    tasks = [
        [kernel.spawn_thread(proc, f"fleet{p}.t{c}", c) for c in range(n_cores)]
        for p, proc in enumerate(procs)
    ]
    return system, tasks, seed


def _fleet_run(state, own: Callable) -> LegResult:
    """Every client loops: mmap 4 pages, write them, read them from 3 remote
    cores at once, munmap, wait 125 us. The seed rotates the clients' home
    cores, so it moves which sockets post and pull LATR states."""
    system, tasks, seed = state
    kernel = system.kernel
    sim = system.sim
    syscalls = kernel.syscalls
    machine = kernel.machine
    n_cores = len(machine.cores)
    ops = _OpCounter()

    def touch(task, vrange):
        core = machine.core(task.home_core_id)
        yield from ops.call(syscalls.touch_pages(task, core, vrange, write=False))

    def client(p):
        home = (p * 17 + seed) % n_cores
        t0 = tasks[p][home]
        c0 = machine.core(home)
        rep = 0
        while True:
            vrange = yield from ops.call(syscalls.mmap(t0, c0, FLEET["pages"] * PAGE_SIZE))
            if vrange is not None:
                yield from ops.call(syscalls.touch_pages(t0, c0, vrange, write=True))
                remote = [
                    tasks[p][(rep * 37 + i * 131 + home + 1) % n_cores]
                    for i in range(FLEET["touchers"])
                ]
                yield AllOf([sim.spawn(own(touch(task, vrange)), name="fleet.touch") for task in remote])
                yield from ops.call(syscalls.munmap(t0, c0, vrange))
            rep += 1
            yield Timeout(MSEC // 8)

    for p in range(FLEET["clients"]):
        sim.spawn(own(client(p)), name=f"fleet-client{p}")
    result = _simulate(kernel, "latr", ops, lambda: sim.run(until=FLEET["duration_ms"] * MSEC))
    counters = kernel.stats.counters_snapshot()
    if not counters.get("latr.sweeps") or not counters.get("latr.states_posted"):
        result.checks.append("fleet: no LATR sweeps or no states posted")
    return result


# --------------------------------------------------------------------------- mc


def _mc_setup():
    # One cold boot of the checker's world; run_mc boots one per cell and
    # one more for the root decomposition.
    return mc.McExecutor(MC_CONFIG.scope)


def _mc_run(state, own: Callable) -> LegResult:
    """Exhaustive; the seed has nothing to choose."""
    report = mc.run_mc(MC_CONFIG)
    hashes = set()
    for cell in report.cells:
        hashes |= cell.state_hashes
    result = LegResult(
        digest_of([report.verdict, report.nodes, sorted(hashes)]),
        max(report.nodes, 1),
        checks=[] if report.verdict == "ok" else [f"mc verdict {report.verdict}"],
    )
    result.mc = {
        "nodes": report.nodes,
        "states": len(hashes),
        "hash_pruned_frac": report.hash_pruned / report.nodes if report.nodes else 0.0,
    }
    return result


# --------------------------------------------------------------------------- registry


@dataclass
class Workload:
    legs: Callable[[int], List[Leg]]
    #: Checks on the merged ``model.*`` values; returns what failed.
    check: Callable[[Dict[str, float]], List[str]] = lambda model: []
    #: ``model.*`` values derived from the merged ones.
    derive: Callable[[Dict[str, float]], Dict[str, float]] = lambda model: {}


WORKLOADS: Dict[str, Workload] = {
    "apache-12c": Workload(
        legs=lambda seed: [
            Leg(f"apache-{mech}", lambda mech=mech: _apache_setup(mech, seed), _apache_run)
            for mech in APACHE_MECHS
        ],
        check=apache_check,
        derive=apache_vs_paper,
    ),
    "fleet-960c": Workload(
        legs=lambda seed: [Leg("fleet-latr", lambda: _fleet_setup(seed), _fleet_run)],
    ),
    "mc-4c3p5o": Workload(
        legs=lambda seed: [Leg("mc", _mc_setup, _mc_run)],
    ),
}
