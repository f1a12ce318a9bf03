"""LATR: lazy translation coherence (the paper's contribution).

Free operations (section 4.2): the initiating core clears PTEs (done by the
caller), invalidates its local TLB, writes a LATR state (132 ns, Table 5)
instead of sending IPIs, and parks the freed frames/virtual range on the
mm's lazy lists. Every core sweeps all cores' state queues at each scheduler
tick or context switch (158 ns + per-entry work) and invalidates the ranges
addressed to it. A background reclamation daemon frees the parked memory two
tick intervals after posting, once the bitmask is empty.

Migration operations (section 4.3): the PTE change itself is deferred; the
*first* core that sweeps the state applies it (then invalidates), the rest
only invalidate. The migration (page fault side) is gated until the bitmask
empties (section 4.4).

Queue-full falls back to the synchronous IPI round (section 8).

The sweep hot path
------------------

The *modelled* sweep visits every core's 64-slot queue (that is what the
hardware-free design costs, and the ns cost model charges exactly that), but
simulating it naively makes the simulator's inner loop O(cores^2 x
queue_depth) per simulated millisecond -- on the 8-socket/120-core box the
empty sweep dominates wall-clock. Like numaPTE's observation that tracking
*where* translations live turns broadcast work into targeted work, the
simulator keeps an **active-state index**:

* a global count of active states -- the empty sweep (the common case)
  returns the base cost in O(1);
* per-queue active counts (maintained by ``LatrStateQueue.post`` and the
  notifying ``LatrState.active`` property) -- sweeps visit only queues
  holding active states;
* a per-core "last swept seq" cursor -- a repeat sweep never re-examines a
  state it already cleared itself from, because a state posted before this
  core's previous sweep can no longer carry this core's bitmask bit (the
  bitmask only shrinks and ``active`` is monotone).

The index changes *no modelled result*: the cost model still charges every
active state's examination, exactly what a scan of every slot would charge
(``tests/test_sweep_index.py`` pins this against a scan of the queues).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from ..hw.cpumask import popcount
from ..mm.addr import VirtRange
from ..mm.frames import FrameBatch
from ..mm.mmstruct import MmStruct
from ..sim.engine import Signal, Timeout
from .base import MECHANISM_PROPERTIES, ShootdownReason, TLBCoherence
from .states import (
    DEFAULT_QUEUE_DEPTH,
    SOA_ACTIVE,
    SOA_MIGRATION,
    SOA_PTE_APPLIED,
    LatrFlag,
    LatrState,
    LatrStateQueue,
)

#: Cacheline cost of one state record (68 B spans two 64 B lines).
STATE_LINES = 2


class LatrCoherence(TLBCoherence):
    """The lazy mechanism."""

    name = "latr"
    properties = MECHANISM_PROPERTIES["LATR"]
    #: Under virtualization the host (EPT) invalidation rides the lazy
    #: reclaim like the guest one: a state write on the critical path,
    #: the per-entry upkeep stolen off it (see Kernel.host_invalidation_work).
    host_invalidation = "lazy"

    def __init__(
        self,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        reclaim_delay_ticks: int = 2,
        sweep_on_context_switch: bool = True,
        sweep_on_tick: bool = True,
    ):
        super().__init__()
        self.queue_depth = queue_depth
        self.reclaim_delay_ticks = reclaim_delay_ticks
        self.sweep_on_context_switch = sweep_on_context_switch
        self.sweep_on_tick = sweep_on_tick
        self.queues: Dict[int, LatrStateQueue] = {}
        #: Extra per-sweep cost for cache-thrashing applications whose state
        #: queue lines never stay resident (workload profiles set this; the
        #: paper's canneal overhead comes from exactly this effect).
        self.cold_sweep_extra_ns = 0
        #: FREE states awaiting reclamation, in posting order.
        self._pending_reclaim: List[LatrState] = []
        #: Active MIGRATION states indexed for the fault-path gate.
        self._migration_states: List[LatrState] = []
        self._reclaimd_started = False
        # --- the active-state index ---
        #: Posted states whose bitmask is non-empty, across all queues.
        self._active_state_count = 0
        #: Highest seq ever posted (cursor watermark for sweeps).
        self._last_posted_seq = 0
        #: core id -> last posted seq observed at that core's previous sweep.
        self._sweep_cursor: Dict[int, int] = {}
        #: Core ids whose queues currently hold active states; sweeps visit
        #: only these, in core-id order.
        self._active_queue_ids: set = set()
        #: Snapshot of every posted active state in sweep visit order
        #: -- (core id, slot index) -- or None when stale. Membership only
        #: changes on a post or a final deactivation, which happen orders
        #: of magnitude less often than the per-tick sweeps that read it.
        self._active_states_sorted: Optional[List[LatrState]] = None
        #: Sweep row cache: (seq, owner socket, queue, slot, state)
        #: tuples for ``_active_states_sorted``, keyed on that list's
        #: *identity* (every invalidation path -- post, deactivate,
        #: snapshot restore -- installs a fresh list object).
        self._sweep_rows: Optional[list] = None
        self._sweep_rows_src: Optional[list] = None

    # ---- wiring ---------------------------------------------------------------

    def attach(self, kernel) -> None:
        super().attach(kernel)
        self.queues = {
            core.id: LatrStateQueue(core.id, self.queue_depth)
            for core in kernel.machine.cores
        }
        for queue in self.queues.values():
            queue.index = self
        self._active_state_count = 0
        self._last_posted_seq = 0
        self._sweep_cursor = {}
        self._active_queue_ids = set()
        self._active_states_sorted = None
        # The sweep fires on every tick and context switch: resolve its
        # stats objects and timing constants once instead of going through
        # the registry / the machine attribute chain each time.
        stats = self._stats
        self._sweeps_counter = stats.counter("latr.sweeps")
        self._examined_counter = stats.counter("latr.entries_examined")
        self._invalidated_counter = stats.counter("latr.entries_invalidated")
        self._sweep_latency = stats.latency("latr.sweep")
        machine = kernel.machine
        self._sim = kernel.sim
        self._full_flush_threshold = machine.spec.full_flush_threshold
        lat = machine.latency
        self._sweep_base_ns = lat.latr_sweep_base_ns
        self._sweep_per_entry_ns = lat.latr_sweep_per_entry_ns
        self._invlpg_ns = lat.tlb_invlpg_ns
        self._full_flush_ns = lat.tlb_full_flush_ns
        self._record_state_traffic = machine.llc.record_state_traffic
        # Sweep fast-path tables: the topology's socket map / hop rows and
        # the pull cost per (clamped) hop count, so the per-state loop does
        # plain list indexing instead of bound-method calls.
        topo = machine.topology
        self._socket_of = topo._socket_of
        self._hop_rows = topo._hops
        self._pull_ns_by_hops = tuple(lat.latr_state_pull(h) for h in range(3))
        self._sweep_rows = None
        self._sweep_rows_src = None

    def start(self) -> None:
        """Spawn the background reclamation daemon (kernel.start calls this)."""
        if not self._reclaimd_started:
            self._reclaimd_started = True
            # One reusable periodic handle instead of a Timeout per tick.
            self.kernel.sim.every(self._reclaim_period_ns(), self._reclaim_round)

    # ---- the active-state index (queue callbacks) -------------------------------

    def note_posted(self, queue: LatrStateQueue, state: LatrState) -> None:
        """A queue accepted an active state (called by ``LatrStateQueue.post``)."""
        self._active_state_count += 1
        self._active_queue_ids.add(queue.core_id)
        self._active_states_sorted = None
        if state.seq > self._last_posted_seq:
            self._last_posted_seq = state.seq

    def note_deactivated(self, queue: LatrStateQueue, state: LatrState) -> None:
        """A posted state went inactive (via the ``LatrState.active`` setter)."""
        if self._active_state_count > 0:
            self._active_state_count -= 1
        if queue.active_count == 0:
            self._active_queue_ids.discard(queue.core_id)
        self._active_states_sorted = None

    def active_state_count(self) -> int:
        """Posted, still-active states across all queues (index invariant:
        equals what a full scan of every queue would count)."""
        return self._active_state_count

    # ---- free operations (4.2) --------------------------------------------------

    def shootdown_free(
        self,
        core,
        mm: MmStruct,
        vrange: VirtRange,
        pfns: List[int],
        vrange_to_free: Optional[VirtRange],
    ) -> Generator:
        start = self.kernel.sim.now
        yield from core.execute(self.local_invalidate(core, mm, vrange))
        bitmask = self.target_mask(core, mm)
        if not bitmask:
            # No remote core can cache these translations; the local TLB is
            # already clean, so immediate reuse is safe (same as Linux's
            # no-IPI path). Still one initiated free-class shootdown, so the
            # counters stay comparable across mechanisms.
            self._stats.counter("shootdown.initiated").add()
            self._stats.rate("shootdowns").hit()
            yield from core.execute(FrameBatch.units_of(pfns) * self._lat.page_free_ns)
            self.kernel.release_frames(pfns)
            if vrange_to_free is not None:
                mm.release_vrange(vrange_to_free)
            self._stats.latency("shootdown.free").record(self.kernel.sim.now - start)
            return

        state = LatrState(
            vrange=vrange,
            mm=mm,
            cpu_bitmask=bitmask,
            flag=LatrFlag.FREE,
            owner_core=core.id,
            posted_at=self.kernel.sim.now,
            done=Signal(self.kernel.sim),
            pfns=pfns,
            vrange_to_free=vrange_to_free,
        )
        if not self.queues[core.id].post(state):
            # Queue full: fall back to the synchronous IPI mechanism
            # (paper section 8) and complete like Linux would.
            self._stats.counter("latr.fallback_ipi").add()
            self._stats.counter("shootdown.initiated").add()
            self._stats.rate("shootdowns").hit()
            targets = self.kernel.machine.cores_in(bitmask)
            yield from self.ipi_round(core, mm, vrange, targets, ShootdownReason.FALLBACK)
            yield from core.execute(FrameBatch.units_of(pfns) * self._lat.page_free_ns)
            self.kernel.release_frames(pfns)
            if vrange_to_free is not None:
                mm.release_vrange(vrange_to_free)
            self._stats.latency("shootdown.free").record(self.kernel.sim.now - start)
            return

        # The lazy path: one state write, then return to the application.
        yield from core.execute(self._lat.latr_state_write_ns)
        if self.kernel.tracer is not None:
            self.kernel.tracer.emit(
                "latr", "state.post", core=core.id,
                detail=f"pages={vrange.n_pages} targets={popcount(bitmask)}",
            )
        mm.defer_frames(state.pfns)
        if vrange_to_free is not None:
            mm.defer_vrange(vrange_to_free)
        self._pending_reclaim.append(state)
        self.kernel.machine.llc.record_state_traffic(STATE_LINES)
        self._stats.counter("latr.states_posted").add()
        self._stats.counter("shootdown.initiated").add()
        self._stats.rate("shootdowns").hit()
        self._stats.latency("shootdown.free").record(self.kernel.sim.now - start)
        self._stats.latency("latr.state_write").record(self._lat.latr_state_write_ns)

    # ---- migration operations (4.3) ----------------------------------------------

    def migration_unmap(
        self,
        core,
        mm: MmStruct,
        vrange: VirtRange,
        apply_pte_change: Callable[[], None],
    ) -> Generator:
        remote = self.target_mask(core, mm)
        bitmask = remote
        # The initiator participates too: its own TLB is invalidated at its
        # next tick, after the first sweeper applied the PTE change (paper
        # Figure 3b includes both cores in the bitmask).
        if not core.lazy_tlb_mode:
            bitmask |= core.bit
        state = LatrState(
            vrange=vrange,
            mm=mm,
            cpu_bitmask=bitmask,
            flag=LatrFlag.MIGRATION,
            owner_core=core.id,
            posted_at=self.kernel.sim.now,
            done=Signal(self.kernel.sim),
            apply_pte_change=apply_pte_change,
            # Migration states pin no memory: their queue slot is reusable
            # as soon as every core has invalidated (no reclaim step).
            reclaimed=True,
        )
        if not bitmask:
            # Nothing can cache the translation: apply immediately. Still an
            # initiated migration-class shootdown (counter comparability).
            self._stats.counter("shootdown.initiated").add()
            self._stats.rate("shootdowns").hit()
            apply_pte_change()
            state.pte_applied = True
            state.active = False
            state.done.succeed(state)
            yield from core.execute(0)
            return state.done
        if not self.queues[core.id].post(state):
            # Queue full: synchronous fallback (paper section 8). This is
            # still a shootdown -- record the same counters/rates as every
            # other path so fallback rounds show up in experiments, and
            # complete the state's own ``done`` signal so gating callers
            # (swap finisher, migration gate) observe the completion.
            self._stats.counter("latr.fallback_ipi").add()
            self._stats.counter("shootdown.initiated").add()
            self._stats.rate("shootdowns").hit()
            apply_pte_change()
            state.pte_applied = True
            yield from core.execute(self.local_invalidate(core, mm, vrange))
            targets = self.kernel.machine.cores_in(remote)
            yield from self.ipi_round(core, mm, vrange, targets, ShootdownReason.FALLBACK)
            state.cpu_bitmask = 0
            state.completed_at = self.kernel.sim.now
            state.active = False
            state.done.succeed(state)
            self._stats.latency("shootdown.migration").record(
                self.kernel.sim.now - state.posted_at
            )
            return state.done
        yield from core.execute(self._lat.latr_state_write_ns)
        self._migration_states.append(state)
        # Lazily-completed migrations record their latency when the last
        # sweeper empties the bitmask (clear_cpu fires ``done``) -- the lazy
        # path, not just the queue-full fallback above.
        state.done.add_callback(self._record_lazy_migration_latency)
        self.kernel.machine.llc.record_state_traffic(STATE_LINES)
        self._stats.counter("latr.states_posted").add()
        self._stats.counter("latr.migration_states").add()
        self._stats.counter("shootdown.initiated").add()
        self._stats.rate("shootdowns").hit()
        return state.done

    def _record_lazy_migration_latency(self, sig: Signal) -> None:
        state = sig.value
        completed_at = state.completed_at
        if completed_at is None:  # defensive: interrupted signal
            completed_at = self.kernel.sim.now
        self._stats.latency("shootdown.migration").record(
            completed_at - state.posted_at
        )

    def migration_gate(self, mm: MmStruct, vpn: int) -> Optional[Signal]:
        for state in self._migration_states:
            if state.active and state.mm is mm and state.vrange.vpn_start <= vpn < state.vrange.vpn_end:
                return state.done
        return None

    # ---- the sweep (4.1) -----------------------------------------------------------

    def sweep(self, core) -> int:
        """Sweep all cores' queues from ``core``; returns the cost in ns.

        Cost model is Table 5's 158 ns base (the states are contiguous and
        prefetched) plus per-active-entry examination, a cacheline pull the
        first time this core reads a state written on another socket, and
        the local invalidation work for matching entries.
        """
        return self._sweep_indexed_soa(core)

    def _sweep_indexed_soa(self, core) -> int:
        """The indexed sweep over the struct-of-arrays queues.

        Per-state checks are int-bitmask tests against the queue's parallel
        arrays, hop pull costs come from precomputed tables, and LLC state
        traffic is recorded once per sweep (the counters are pure sums, so
        one batched add of ``STATE_LINES * pulls`` equals one add per
        pull)."""
        cost = self._sweep_base_ns + self.cold_sweep_extra_ns
        examined = self._active_state_count
        if examined == 0:
            # Empty-sweep fast path: the modelled sweep walked every slot
            # and found nothing, which costs exactly the base; the simulator
            # gets there in O(1). This is the majority of all sweeps.
            self._sweeps_counter.value += 1
            self._sweep_latency.record(cost)
            kernel = self.kernel
            if kernel.invariant_monitor is not None:
                kernel.invariant_monitor.notify("latr.sweep", core=core.id)
            return cost

        cost += examined * self._sweep_per_entry_ns
        # Only states posted after this core's previous sweep, visited in
        # (core id, slot) order: older still-active states were already
        # examined then -- their cross-socket pull is paid (pulled mask)
        # and their bitmask can no longer contain this core.
        core_id = core.id
        cursor = self._sweep_cursor.get(core_id, 0)
        socket_of = self._socket_of
        states = self._active_states_sorted
        if states is None:
            queues = self.queues
            states = [
                state
                for queue_id in sorted(self._active_queue_ids)
                for state in queues[queue_id].active_states_after(-1)
            ]
            self._active_states_sorted = states
        # The per-state immutable fields (seq, owner socket, queue, slot)
        # flattened into tuples: rebuilt only when the active set changes,
        # then shared by every sweeping core in between.
        rows = self._sweep_rows
        if self._sweep_rows_src is not states:
            rows = [
                (s.seq, socket_of[s.owner_core], s.queue, s.slot_idx, s)
                for s in states
            ]
            self._sweep_rows = rows
            self._sweep_rows_src = states
        matching: list = []
        total_pages = 0
        core_bit = 1 << core_id
        hop_row = self._hop_rows[socket_of[core_id]]
        pull_ns = self._pull_ns_by_hops
        pte_set_ns = self._lat.pte_set_ns
        pulls = 0
        for row in rows:
            # Cursor skip on row[0] (seq) alone: states already examined at
            # this core's previous sweep are the common case.
            if row[0] <= cursor:
                continue
            queue = row[2]
            idx = row[3]
            hops = hop_row[row[1]]
            if hops:
                pulled_a = queue._pulled_a
                if not pulled_a[idx] & core_bit:
                    pulled_a[idx] |= core_bit
                    pulls += 1
                    cost += pull_ns[hops]
            if not queue._mask_a[idx] & core_bit:
                continue
            flags_a = queue._flags_a
            flags = flags_a[idx]
            if flags & SOA_MIGRATION and not flags & SOA_PTE_APPLIED:
                # The first sweeper applies the deferred PTE change ("Clear
                # PTE" in Figure 3b).
                flags_a[idx] = flags | SOA_PTE_APPLIED
                row[4].apply_pte_change()
                cost += queue._npages_a[idx] * pte_set_ns
            matching.append(row)
            total_pages += queue._npages_a[idx]
        if pulls:
            self._record_state_traffic(STATE_LINES * pulls)
        self._sweep_cursor[core_id] = self._last_posted_seq
        return self._finish_sweep(core, matching, total_pages, cost, examined)

    def _finish_sweep(
        self,
        core,
        matching: list,
        total_pages: int,
        cost: int,
        examined: int,
    ) -> int:
        """Pass 2: invalidate. Like Linux's 32-page batching rule, a sweep
        with more work than the threshold does one full flush instead of
        per-page INVLPGs (paper 4.1: "LATR flushes the entire TLB during
        state sweep").

        The clear pass works the queue arrays directly instead of going
        through the handle's ``clear_cpu``, with the same deactivation
        protocol: completed_at before ``active``, then the done signal."""
        invalidated_states = len(matching)
        if invalidated_states:
            now = self._sim.now
            keep_mask = ~(1 << core.id)
            tlb = core.tlb
            full_flush = total_pages > self._full_flush_threshold
            if full_flush:
                tlb.flush()
                cost += self._full_flush_ns + invalidated_states * 30
            invlpg_ns = self._invlpg_ns
            for _seq, _socket, queue, idx, state in matching:
                if not full_flush:
                    vpn = queue._vpn_a[idx]
                    npages = queue._npages_a[idx]
                    tlb.invalidate_range(state.mm.pcid, vpn, vpn + npages)
                    cost += npages * invlpg_ns + 30
                mask = queue._mask_a[idx] & keep_mask
                queue._mask_a[idx] = mask
                if mask == 0 and queue._flags_a[idx] & SOA_ACTIVE:
                    state.completed_at = now
                    state.active = False
                    state.done.succeed(state)
        self._sweeps_counter.value += 1
        kernel = self.kernel
        if invalidated_states:
            if kernel.tracer is not None:
                kernel.tracer.emit(
                    "latr", "sweep", core=core.id,
                    detail=f"states={invalidated_states} pages={total_pages}",
                )
            self._invalidated_counter.value += invalidated_states
        if examined:
            self._examined_counter.value += examined
        self._sweep_latency.record(cost)
        if kernel.invariant_monitor is not None:
            kernel.invariant_monitor.notify("latr.sweep", core=core.id)
        return cost

    # ---- scheduler hooks ---------------------------------------------------------

    def on_tick(self, core) -> None:
        if self.sweep_on_tick:
            # Inlined sweep() dispatch and steal_time (a bare increment):
            # this is the per-tick hot path.
            core._pending_interrupt_ns += self._sweep_indexed_soa(core)

    def on_context_switch(self, core, old_mm, new_mm) -> None:
        if self.sweep_on_context_switch:
            core.steal_time(self.sweep(core))

    def pending_lazy_operations(self) -> int:
        return len(self._pending_reclaim) + sum(
            1 for s in self._migration_states if s.active
        )

    # ---- reclamation daemon (4.2) ---------------------------------------------------

    def lazy_bytes_outstanding(self) -> int:
        """Physical memory currently parked on lazy lists (section 6.4)."""
        from ..mm.addr import PAGE_SIZE

        return sum(len(s.pfns) for s in self._pending_reclaim) * PAGE_SIZE

    def _reclaim_period_ns(self) -> int:
        """Reclaim-daemon polling period (mutations override this)."""
        return self.kernel.machine.spec.tick_interval_ns

    def _reclaim_round(self) -> None:
        """Periodic reclaim pass: frees lazy memory after two tick intervals.

        Ticks are unsynchronized across cores, so one interval only
        guarantees *some* cores swept; two intervals guarantee every running
        core saw a tick after the post (paper section 3). We additionally
        require the bitmask to be empty, which the tickless/idle rule makes
        equivalent (idle cores were never in the mask).
        """
        tick = self.kernel.machine.spec.tick_interval_ns
        delay = self.reclaim_delay_ticks * tick
        now = self.kernel.sim.now
        still_pending: List[LatrState] = []
        owner_costs: Dict[int, int] = {}
        for state in self._pending_reclaim:
            if state.active or now - state.posted_at < delay:
                still_pending.append(state)
                continue
            self._reclaim_state(state, owner_costs)
        self._pending_reclaim = still_pending
        self._migration_states = [s for s in self._migration_states if s.active]
        for core_id, cost in owner_costs.items():
            self.kernel.machine.core(core_id).steal_time(cost)

    def _reclaim_state(self, state: LatrState, owner_costs: Dict[int, int]) -> None:
        lat = self._lat
        mm = state.mm
        mm.take_lazy_frames(state.pfns)
        self.kernel.release_frames(state.pfns)
        if state.vrange_to_free is not None:
            mm.reclaim_vrange(state.vrange_to_free)
        state.reclaimed = True
        self._stats.counter("latr.states_reclaimed").add()
        if self.kernel.tracer is not None:
            self.kernel.tracer.emit(
                "latr", "reclaim", core=state.owner_core,
                detail=f"frames={len(state.pfns)} age_ns={self.kernel.sim.now - state.posted_at}",
            )
        self._stats.counter("latr.frames_reclaimed").add(len(state.pfns))
        cost = FrameBatch.units_of(state.pfns) * lat.page_free_ns + lat.vma_op_ns
        owner_costs[state.owner_core] = owner_costs.get(state.owner_core, 0) + cost
        if self.kernel.invariant_monitor is not None:
            self.kernel.invariant_monitor.notify("latr.reclaim", core=state.owner_core)
