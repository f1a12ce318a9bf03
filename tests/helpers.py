"""Shared helpers for the test suite (importable as `helpers`)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.coherence.latr import STATE_LINES, LatrCoherence
from repro.coherence.states import DEFAULT_QUEUE_DEPTH, STATE_BYTES, LatrFlag
from repro.mm.addr import VirtRange
from repro.sim.engine import MSEC, Signal, Simulator


def make_proc(system, n_threads=None, name="proc"):
    """Create a process with one thread pinned per core (or n_threads)."""
    kernel = system.kernel
    n = n_threads if n_threads is not None else kernel.machine.n_cores
    proc = kernel.create_process(name)
    tasks = [kernel.spawn_thread(proc, f"t{i}", i) for i in range(n)]
    return proc, tasks


def run_to_completion(system, gen, timeout_ms=2_000):
    """Spawn ``gen`` and run the sim until it completes; returns its value."""
    proc = system.sim.spawn(gen)
    deadline = system.sim.now + timeout_ms * MSEC
    while proc.alive and system.sim.now < deadline:
        if not system.sim.step():
            break
    assert not proc.alive, "process did not finish in time"
    return proc.value


def drain(system, ms=5):
    """Advance the simulation by ``ms`` simulated milliseconds."""
    system.sim.run(until=system.sim.now + ms * MSEC)


def reference_targets(
    cpumask: Set[int], idle: Set[int], initiator: int
) -> Tuple[List[int], List[int]]:
    """Shootdown target selection on core-id *sets*, the way Linux's
    lazy-TLB rule reads (paper section 2.3): every core of ``cpumask``
    except the initiator, in ascending id order, minus the ``idle``
    (lazy-TLB) cores. Returns ``(targets, skipped)``: the skipped idle
    cores are the ones that must full-flush on wake."""
    remote = sorted(c for c in cpumask if c != initiator)
    return [c for c in remote if c not in idle], [c for c in remote if c in idle]


#: Mutated by :func:`marker_cell`; proves where a cell executed (inline
#: cells change it in this process, sharded ones only in their worker).
MARKER_CALLS = []


def marker_cell(tag: str) -> str:
    MARKER_CALLS.append(tag)
    return tag


def crash_cell(message: str = "boom"):
    """A run-cell entry point that always raises (crash-surfacing tests)."""
    raise ValueError(message)


# ---------------------------------------------------------------------------
# Reference models: deliberately naive twins the fast structures are
# checked against.
# ---------------------------------------------------------------------------


def _front_first(ready):
    return 0


class HeapSimulator(Simulator):
    """A simulator whose front-first choice hook forces the plain heap:
    the reference engine the timer wheel must match event for event."""

    def __init__(self):
        super().__init__(choice_hook=_front_first)


def make_sim(wheel: bool = True) -> Simulator:
    """The timer-wheel engine, or (``wheel=False``) the heap reference."""
    return Simulator() if wheel else HeapSimulator()


def _xorshift(state: List[int]) -> int:
    """Deterministic 32-bit xorshift, so both engine legs replay the exact
    same schedule."""
    x = state[0]
    x ^= (x << 13) & 0xFFFFFFFF
    x ^= x >> 17
    x ^= (x << 5) & 0xFFFFFFFF
    state[0] = x
    return x


def run_engine_stress(n_events: int, heap: bool = False):
    """Pure event-loop churn, no kernel model: eight periodic generators
    keep scheduling one-shot timers whose delays are spread across the
    wheel's three placement regimes (current slot, in-horizon bucket,
    overflow heap) and cancel a deterministic subset. Returns
    ``(simulator, order_log)``; the order log is the executed
    ``(time, seq)`` sequence, which must not depend on ``heap`` (True runs
    the choice-hook heap reference)."""
    sim = make_sim(wheel=not heap)
    sim.order_log = []
    rng = [0x2545F491]
    cancel_pool: List[object] = []

    def noop() -> None:
        pass

    def churn() -> None:
        for _ in range(3):
            r = _xorshift(rng)
            kind = r % 16
            if kind < 8:
                # Near events: land in the active slot or the next few.
                delay = 1 + (r >> 4) % 4_000
            elif kind < 14:
                # Mid events: inside the wheel horizon (~2.1 ms).
                delay = 4_096 + (r >> 4) % 2_000_000
            else:
                # Far events: past the horizon, into the overflow heap.
                delay = 2_200_000 + (r >> 4) % 50_000_000
            handle = sim.after(delay, noop)
            if r & 1:
                cancel_pool.append(handle)
        while len(cancel_pool) > 32:
            victim = cancel_pool.pop(_xorshift(rng) % len(cancel_pool))
            victim.cancel()

    for i in range(8):
        sim.every(7_000 + 911 * i, churn, start=503 * i)
    sim.run(max_events=n_events)
    return sim, sim.order_log


@dataclass(eq=False)
class ShadowLatrState:
    """Reference object model of one LATR state: plain fields and core-id
    sets, no slot arrays and no deactivation notifications."""

    vrange: VirtRange
    mm: object
    cpu_bitmask: Set[int]
    flag: LatrFlag
    owner_core: int
    posted_at: int
    done: Signal
    pulled_by: Set[int] = field(default_factory=set)
    active: bool = True
    completed_at: Optional[int] = None
    reclaimed: bool = False
    slot_idx: int = -1

    def clear_cpu(self, core_id: int, now: int) -> bool:
        self.cpu_bitmask.discard(core_id)
        if not self.cpu_bitmask and self.active:
            self.completed_at = now
            self.active = False
            self.done.succeed(self)
            return True
        return False


class ShadowLatrQueue:
    """Reference LATR ring: a list of slots; every count is derived by
    scanning it."""

    def __init__(self, core_id: int, depth: int = DEFAULT_QUEUE_DEPTH):
        if depth < 1:
            raise ValueError("queue depth must be positive")
        self.core_id = core_id
        self.depth = depth
        self.slots: List[Optional[ShadowLatrState]] = [None] * depth
        self.cursor = 0
        self.posts = 0
        self.full_rejections = 0

    def post(self, state: ShadowLatrState) -> bool:
        old = self.slots[self.cursor]
        if old is not None and (old.active or not old.reclaimed):
            self.full_rejections += 1
            return False
        self.slots[self.cursor] = state
        state.slot_idx = self.cursor
        self.cursor = (self.cursor + 1) % self.depth
        self.posts += 1
        return True

    def all_states(self) -> List[ShadowLatrState]:
        return [s for s in self.slots if s is not None]

    def active_states(self) -> List[ShadowLatrState]:
        return [s for s in self.all_states() if s.active]

    @property
    def active_count(self) -> int:
        return len(self.active_states())

    def occupancy(self) -> int:
        return sum(1 for s in self.all_states() if s.active or not s.reclaimed)

    def footprint_bytes(self) -> int:
        return self.depth * STATE_BYTES


class FullScanLatr(LatrCoherence):
    """LATR with a reference sweep: every slot of every queue is visited
    and charged straight from the state's fields -- no active-state index,
    sweep cursor or row cache. The indexed sweep must match it exactly."""

    def _sweep_indexed_soa(self, core) -> int:
        lat = self._lat
        topo = self.kernel.machine.topology
        cost = lat.latr_sweep_base_ns + self.cold_sweep_extra_ns
        examined = pulls = total_pages = 0
        matching = []
        for queue in self.queues.values():
            for state in queue.active_states():
                examined += 1
                cost += lat.latr_sweep_per_entry_ns
                hops = topo.core_hops(core.id, state.owner_core)
                if hops > 0 and core.id not in state.pulled_by:
                    state.pulled_by = state.pulled_by | {core.id}
                    pulls += 1
                    cost += lat.latr_state_pull(hops)
                if core.id not in state.cpu_bitmask:
                    continue
                if state.flag is LatrFlag.MIGRATION and not state.pte_applied:
                    state.pte_applied = True
                    state.apply_pte_change()
                    cost += state.vrange.n_pages * lat.pte_set_ns
                matching.append((state.seq, None, queue, state.slot_idx, state))
                total_pages += state.vrange.n_pages
        if pulls:
            self.kernel.machine.llc.record_state_traffic(STATE_LINES * pulls)
        return self._finish_sweep(core, matching, total_pages, cost, examined)
