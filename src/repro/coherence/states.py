"""LATR states: the per-core cyclic lock-free queues of shootdown records.

Paper section 4.1: each core owns 64 states of 68 bytes. A state holds the
virtual range, an mm identifier, the CPU bitmask of cores that still need to
invalidate, flags distinguishing free from migration operations, and an
active flag. Cores sweep *all* cores' queues at every scheduler tick or
context switch, invalidate what concerns them, clear their bitmask bit with
an atomic, and the last core deactivates the entry.

The queues use the paper's own layout: 64 packed records per core, i.e.
flat parallel arrays rather than objects. Hot per-slot fields live in
parallel int lists / a flags bytearray on :class:`LatrStateQueue` -- cpu
mask and pulled mask as int *bitmasks*, active/pte_applied/reclaimed/
migration as flag bits, base vpn / page count -- and
:class:`LatrState` is a ``__slots__`` handle that routes reads and writes to
its slot while posted. ``cpu_bitmask`` and ``pulled_by`` read as frozensets
of core ids; the sweep works the int masks directly.

To keep the simulator's sweep sub-linear (the paper's observation that the
common sweep is the *empty* sweep), every queue maintains an
:attr:`~LatrStateQueue.active_count` and reports post/deactivation events to
an optional :attr:`~LatrStateQueue.index` (the owning
:class:`~repro.coherence.latr.LatrCoherence`). Deactivation is caught at the
``active`` attribute itself -- it is a notifying property -- so every path
that retires a state (``clear_cpu``, queue-full fallbacks, the deliberately
broken fuzzer mutations) keeps the counts exact.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, FrozenSet, Iterator, List, Optional

from ..hw.cpumask import mask_ids, mask_of
from ..mm.addr import VirtRange
from ..mm.mmstruct import MmStruct
from ..sim.engine import Signal

#: Paper defaults.
DEFAULT_QUEUE_DEPTH = 64
STATE_BYTES = 68

_state_seq = itertools.count(1)


class LatrFlag(enum.Enum):
    """The 'flags' field: why the shootdown happened (paper Figure 4)."""

    FREE = "free"
    MIGRATION = "migration"


#: Flag bits of the packed per-slot flags byte (``LatrStateQueue._flags_a``).
SOA_ACTIVE = 0x01
SOA_PTE_APPLIED = 0x02
SOA_RECLAIMED = 0x04
SOA_MIGRATION = 0x08


def _as_mask(value) -> int:
    """Coerce a core-id collection (or an int bitmask) to an int bitmask."""
    return value if isinstance(value, int) else mask_of(value)


def _slot_key(state: "LatrState") -> int:
    return state.slot_idx


def _flag_property(bit: int) -> property:
    """A plain read/write bool over one bit of a state's flags byte."""

    def get(state: "LatrState") -> bool:
        return state._flags_get() & bit != 0

    def put(state: "LatrState", value: bool) -> None:
        flags = state._flags_get()
        state._flags_put(flags | bit if value else flags & ~bit)

    return property(get, put)


class LatrState:
    """One 68-byte LATR state record: a thin handle over one slot of a
    :class:`LatrStateQueue`.

    Identity and cold fields (vrange, mm, done signal, pfns, the deferred
    PTE callback) live on the handle; the hot mutable fields (cpu/pulled
    masks, the active/pte_applied/reclaimed/migration flag bits) live in the
    queue's parallel arrays while the state occupies its ring slot and are
    frozen back onto the handle when the slot is recycled. ``active`` is a
    notifying, monotone property.
    """

    __slots__ = (
        "vrange",
        "mm",
        "flag",
        "owner_core",
        "posted_at",
        "done",
        "pfns",
        "vrange_to_free",
        "apply_pte_change",
        "completed_at",
        "seq",
        "slot_idx",
        "queue",
        "_cpu_mask",
        "_pulled_mask",
        "_flags",
        "_attached",
    )

    def __init__(
        self,
        vrange: VirtRange,
        mm: MmStruct,
        cpu_bitmask,
        flag: LatrFlag,
        owner_core: int,
        posted_at: int,
        done: Signal,
        pfns: Optional[List[int]] = None,
        vrange_to_free: Optional[VirtRange] = None,
        apply_pte_change: Optional[Callable[[], None]] = None,
        reclaimed: bool = False,
    ):
        self.vrange = vrange
        self.mm = mm
        self.flag = flag
        self.owner_core = owner_core
        self.posted_at = posted_at
        self.done = done
        self.pfns = [] if pfns is None else pfns
        self.vrange_to_free = vrange_to_free
        self.apply_pte_change = apply_pte_change
        self.completed_at: Optional[int] = None
        self.seq = next(_state_seq)
        self.slot_idx = -1
        self.queue = None
        self._cpu_mask = _as_mask(cpu_bitmask)
        self._pulled_mask = 0
        self._flags = (
            SOA_ACTIVE
            | (SOA_RECLAIMED if reclaimed else 0)
            | (SOA_MIGRATION if flag is LatrFlag.MIGRATION else 0)
        )
        self._attached = False

    # ---- slot plumbing -------------------------------------------------------

    def _mask_get(self, kind: int) -> int:
        if self._attached:
            queue = self.queue
            if kind == 0:
                return queue._mask_a[self.slot_idx]
            return queue._pulled_a[self.slot_idx]
        return self._cpu_mask if kind == 0 else self._pulled_mask

    def _mask_put(self, kind: int, mask: int) -> None:
        if self._attached:
            queue = self.queue
            if kind == 0:
                queue._mask_a[self.slot_idx] = mask
            else:
                queue._pulled_a[self.slot_idx] = mask
        elif kind == 0:
            self._cpu_mask = mask
        else:
            self._pulled_mask = mask

    def _flags_get(self) -> int:
        if self._attached:
            return self.queue._flags_a[self.slot_idx]
        return self._flags

    def _flags_put(self, flags: int) -> None:
        if self._attached:
            self.queue._flags_a[self.slot_idx] = flags
        else:
            self._flags = flags

    def _detach(self) -> None:
        """Slot recycled: freeze the array-resident fields onto the handle
        (late readers -- pending lists, snapshots -- keep exact values)."""
        queue = self.queue
        idx = self.slot_idx
        self._cpu_mask = queue._mask_a[idx]
        self._pulled_mask = queue._pulled_a[idx]
        self._flags = queue._flags_a[idx]
        self._attached = False

    # ---- record fields -------------------------------------------------------

    @property
    def cpu_bitmask(self) -> FrozenSet[int]:
        """Cores that still have to invalidate (a read-only snapshot)."""
        return frozenset(mask_ids(self._mask_get(0)))

    @cpu_bitmask.setter
    def cpu_bitmask(self, value) -> None:
        self._mask_put(0, _as_mask(value))

    @property
    def pulled_by(self) -> FrozenSet[int]:
        """Cores that already pulled this state's cachelines cross-socket
        (timing bookkeeping for the sweep cost model)."""
        return frozenset(mask_ids(self._mask_get(1)))

    @pulled_by.setter
    def pulled_by(self, value) -> None:
        self._mask_put(1, _as_mask(value))

    @property
    def active(self) -> bool:
        return self._flags_get() & SOA_ACTIVE != 0

    @active.setter
    def active(self, value: bool) -> None:
        # States never reactivate (the flag is monotone), which is what
        # makes the sweep cursor in LatrCoherence sound.
        flags = self._flags_get()
        self._flags_put(flags | SOA_ACTIVE if value else flags & ~SOA_ACTIVE)
        if flags & SOA_ACTIVE and not value and self.queue is not None:
            self.queue.note_deactivated(self)

    pte_applied = _flag_property(SOA_PTE_APPLIED)
    reclaimed = _flag_property(SOA_RECLAIMED)

    def clear_cpu(self, core_id: int, now: int) -> bool:
        """Remove ``core_id`` from the bitmask; returns True when this was
        the last core (the state deactivates, paper Figure 5 step 3).

        The completion time is set before ``active`` flips: the
        deactivation notification (and the done callbacks) may read it."""
        mask = self._mask_get(0) & ~(1 << core_id)
        self._mask_put(0, mask)
        if mask == 0 and self._flags_get() & SOA_ACTIVE:
            self.completed_at = now
            self.active = False
            self.done.succeed(self)
            return True
        return False


class LatrStateQueue:
    """A per-core cyclic queue of LATR states, laid out as struct-of-arrays.

    'Lock-free' in the paper means entries are claimed and cleared with
    atomics; in the simulator the discrete-event loop serializes accesses,
    so the queue is a plain ring with an explicit full condition: the slot
    at the write cursor still being active means the queue is full and the
    poster must fall back to IPIs (paper sections 4.2, 8).

    The per-slot hot fields are parallel arrays indexed by slot:
    ``_mask_a``/``_pulled_a`` (int core bitmasks), ``_flags_a`` (a
    bytearray of SOA_* bits) and ``_vpn_a``/``_npages_a`` (the virtual
    range).
    ``_slots`` keeps the state handles for observers (snapshots, the model
    checker, mutations) that walk the queue.
    """

    def __init__(self, core_id: int, depth: int = DEFAULT_QUEUE_DEPTH):
        if depth < 1:
            raise ValueError("queue depth must be positive")
        self.core_id = core_id
        self.depth = depth
        self._slots: List[Optional[LatrState]] = [None] * depth
        self._mask_a: List[int] = [0] * depth
        self._pulled_a: List[int] = [0] * depth
        self._flags_a = bytearray(depth)
        self._vpn_a: List[int] = [0] * depth
        self._npages_a: List[int] = [0] * depth
        self._cursor = 0
        self.posts = 0
        self.full_rejections = 0
        #: Number of currently-active states in this queue; sweeps skip the
        #: queue entirely when it is zero.
        self.active_count = 0
        #: The active posted states keyed by seq (kept exact by the same
        #: post/deactivation notifications as ``active_count``).
        self._active_map: dict = {}
        #: Optional owner implementing ``note_posted(queue, state)`` /
        #: ``note_deactivated(queue, state)`` (the LatrCoherence sweep index).
        self.index = None

    def post(self, state: LatrState) -> bool:
        """Install a state; False when the queue is full (caller falls back).

        A slot is reusable once its state is inactive *and* reclaimed (for
        FREE states the record must survive until the reclamation daemon has
        freed the pages it references).
        """
        idx = self._cursor
        flags_a = self._flags_a
        old = self._slots[idx]
        if old is not None:
            old_flags = flags_a[idx]
            if old_flags & SOA_ACTIVE or not old_flags & SOA_RECLAIMED:
                self.full_rejections += 1
                return False
            old._detach()
        self._slots[idx] = state
        self._mask_a[idx] = state._cpu_mask
        self._pulled_a[idx] = state._pulled_mask
        flags_a[idx] = state._flags
        vrange = state.vrange
        self._vpn_a[idx] = vrange.vpn_start
        self._npages_a[idx] = vrange.n_pages
        state.slot_idx = idx
        state.queue = self
        state._attached = True
        self._cursor = (idx + 1) % self.depth
        self.posts += 1
        if flags_a[idx] & SOA_ACTIVE:
            self.active_count += 1
            self._active_map[state.seq] = state
            if self.index is not None:
                self.index.note_posted(self, state)
        return True

    def note_deactivated(self, state: LatrState) -> None:
        """A posted state flipped active -> inactive (called by the
        ``LatrState.active`` setter exactly once per state)."""
        if self.active_count > 0:
            self.active_count -= 1
        self._active_map.pop(state.seq, None)
        if self.index is not None:
            self.index.note_deactivated(self, state)

    def active_states(self) -> Iterator[LatrState]:
        flags_a = self._flags_a
        for idx, state in enumerate(self._slots):
            if state is not None and flags_a[idx] & SOA_ACTIVE:
                yield state

    def active_states_after(self, seq: int) -> List[LatrState]:
        """Active states with a posting sequence newer than ``seq``, in slot
        order. O(active), not O(depth): the candidates come from the active
        map and are put back into slot order by their recorded slot index
        (at most one active state per slot, so the ordering is total)."""
        states = [s for s in self._active_map.values() if s.seq > seq]
        if len(states) > 1:
            states.sort(key=_slot_key)
        return states

    def all_states(self) -> Iterator[LatrState]:
        for state in self._slots:
            if state is not None:
                yield state

    def occupancy(self) -> int:
        flags_a = self._flags_a
        return sum(
            1
            for idx, s in enumerate(self._slots)
            if s is not None
            and (flags_a[idx] & SOA_ACTIVE or not flags_a[idx] & SOA_RECLAIMED)
        )

    def footprint_bytes(self) -> int:
        return self.depth * STATE_BYTES
