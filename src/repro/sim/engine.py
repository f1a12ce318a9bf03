"""Discrete-event simulation engine.

The engine is the substrate for the whole reproduction: hardware timing
(IPIs, TLB invalidations, cacheline transfers), kernel activity (scheduler
ticks, context switches, background daemons) and workloads all run as events
or generator-based processes on a single :class:`Simulator`.

Time is modelled as integer nanoseconds, which keeps event ordering exact and
reproducible (no floating-point drift over long runs).

Internally the simulator keeps near-future events in a timer wheel
(:data:`WHEEL_SLOTS` fixed-width buckets of :data:`WHEEL_SLOT_NS` each,
covering ~2.1 ms -- comfortably past the 1 ms scheduler tick) and lets
far-future events overflow to a binary heap. Event ordering is *identical*
to a pure heap: everything executes strictly by ``(time, seq)``, with ``seq``
allocated in schedule order. A simulator with a ``choice_hook`` routes all
events through the heap instead (the hook needs the exact ready set), which
the differential tests also use to prove the wheel changes nothing
observable.
"""

from __future__ import annotations

import heapq
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, List, Optional

#: One microsecond / millisecond / second in simulation time units (ns).
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000

#: Timer-wheel geometry: 512 slots of 4096 ns cover ~2.1 ms, so scheduler
#: ticks, context-switch traffic and execution quanta all stay in the wheel;
#: only genuinely far-future events (multi-ms daemon periods) hit the heap.
WHEEL_SLOT_NS = 1 << 12
WHEEL_SLOTS = 1 << 9
WHEEL_SPAN_NS = WHEEL_SLOT_NS * WHEEL_SLOTS

#: Buckets shorter than this are never compacted -- lazy pop handles them.
_COMPACT_MIN = 8


class SimulationError(RuntimeError):
    """Raised for illegal uses of the engine (negative delays, re-triggering)."""


class EventHandle:
    """A cancellable handle for a scheduled callback.

    Periodic handles (created by :meth:`Simulator.every`) carry a non-None
    ``interval`` and are re-armed in place after each firing instead of being
    re-allocated; ``cancel()`` stops the series.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "interval", "_sim",
                 "_bucket", "_scheduled")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable,
        args: tuple,
        sim: "Optional[Simulator]" = None,
        interval: Optional[int] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.interval = interval
        self._sim = sim
        #: Wheel-bucket index while parked in a bucket, else -1.
        self._bucket = -1
        #: True while resident in a wheel/heap structure (awaiting execution).
        self._scheduled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if it already fired).

        For periodic handles this ends the series. The handle stays in its
        wheel bucket / heap and is dropped lazily; a bucket that becomes
        >50% cancelled is compacted so long-lived simulations don't leak
        slots to dead timers.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._scheduled and self._sim is not None:
            self._sim._note_cancelled(self)

    def __lt__(self, other: "EventHandle") -> bool:
        # Tuple-free (time, seq) comparison: this runs on every heap
        # sift in the event loop, and the two tuple allocations dominate
        # the comparison itself.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        kind = "periodic " if self.interval is not None else ""
        return f"<{kind}EventHandle t={self.time} fn={getattr(self.fn, '__name__', self.fn)} {state}>"


class Signal:
    """A one-shot waitable event.

    Processes wait on a Signal by yielding it; plain callbacks can subscribe
    via :meth:`add_callback`. A Signal fires exactly once with a value.
    """

    __slots__ = ("sim", "triggered", "value", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[["Signal"], None]] = []

    def succeed(self, value: Any = None) -> "Signal":
        """Fire the signal, delivering ``value`` to all waiters."""
        if self.triggered:
            raise SimulationError("Signal already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)
        return self

    def add_callback(self, cb: Callable[["Signal"], None]) -> None:
        """Invoke ``cb(self)`` when the signal fires (immediately if fired)."""
        if self.triggered:
            cb(self)
        else:
            self._callbacks.append(cb)


class Timeout:
    """Yielded by a process to sleep for ``delay`` nanoseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = int(delay)


class AllOf:
    """Yielded by a process to wait for several waitables at once.

    The process resumes once every child has fired; the sent value is the
    list of child values in the order given.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]):
        self.children = list(children)


class Process:
    """A generator-based coroutine running on the simulator.

    The generator may yield:

    * :class:`Timeout` -- resume after a delay,
    * :class:`Signal` -- resume when it fires (resumed with its value),
    * :class:`Process` -- resume when the child process finishes,
    * :class:`AllOf` -- resume when all children fire.

    The generator's return value becomes :attr:`value` and the ``done``
    signal fires with it.
    """

    __slots__ = ("sim", "gen", "done", "value", "name", "_alive")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.done = Signal(sim)
        self.value: Any = None
        self.name = name or getattr(gen, "__name__", "process")
        self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    def add_callback(self, cb: Callable[[Signal], None]) -> None:
        """Waitable protocol: completion is signalled through ``done``."""
        self.done.add_callback(cb)

    def _step(self, send_value: Any = None) -> None:
        if not self._alive:
            return
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self._alive = False
            self.value = stop.value
            self.done.succeed(stop.value)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self.sim.after(yielded.delay, self._step, None)
        elif isinstance(yielded, (Signal, Process)):
            yielded.add_callback(lambda sig: self._step(sig.value))
        elif isinstance(yielded, AllOf):
            self._wait_all(yielded.children)
        else:
            raise SimulationError(f"process {self.name!r} yielded unsupported {yielded!r}")

    def _wait_all(self, children: List[Any]) -> None:
        gathered = _gather(self.sim, children, self.name)
        gathered.add_callback(lambda sig: self._step(sig.value))

    def interrupt(self) -> None:
        """Kill the process; its ``done`` signal fires with ``None``."""
        if self._alive:
            self._alive = False
            self.gen.close()
            if not self.done.triggered:
                self.done.succeed(None)


def _gather(sim: "Simulator", children: Iterable[Any], owner: str = "") -> Signal:
    """A signal firing once every child has; its value is the list of child
    values in the order given. Nested :class:`AllOf` children gather
    recursively, so their value is itself a (possibly nested) list."""
    children = list(children)
    out = Signal(sim)
    if not children:
        sim.after(0, out.succeed, [])
        return out
    remaining = [len(children)]
    values: List[Any] = [None] * len(children)

    def make_cb(i: int) -> Callable[[Signal], None]:
        def cb(sig: Signal) -> None:
            values[i] = sig.value
            remaining[0] -= 1
            if remaining[0] == 0:
                out.succeed(values)

        return cb

    for i, child in enumerate(children):
        if isinstance(child, Timeout):
            done = Signal(sim)
            sim.after(child.delay, done.succeed, None)
            child = done
        elif isinstance(child, AllOf):
            child = _gather(sim, child.children, owner)
        elif not isinstance(child, (Signal, Process)):
            raise SimulationError(
                f"process {owner!r}: AllOf child {child!r} is not waitable"
            )
        child.add_callback(make_cb(i))
    return out


class Simulator:
    """The event loop: a timer wheel + overflow heap of callbacks, plus
    process support. Execution order is strict ``(time, seq)`` regardless of
    which structure holds an event."""

    #: Events executed across all Simulator instances in this process; the
    #: benchmark harness snapshots it around a timed run to report events/sec
    #: even when the run builds several machines internally.
    total_events_executed = 0

    def __init__(
        self,
        choice_hook: Optional[Callable[[List[EventHandle]], Optional[int]]] = None,
    ):
        #: Controllable dispatch: when set, every dispatch first gathers the
        #: *ready set* -- all pending events due at the earliest timestamp --
        #: and calls ``choice_hook(ready)``; the hook returns the index of the
        #: event to run (or None for the default, lowest-seq, choice). The
        #: model checker uses this to observe and pin same-instant races.
        #: Forces heap mode: the ready set must be extractable exactly.
        self.choice_hook = choice_hook
        self._use_wheel = choice_hook is None
        self._seq = 0
        self._now = 0
        self._running = False
        #: Scheduled, non-cancelled events (kept exact so pending() is O(1)).
        self._pending_live = 0
        #: Far-future events (>= the wheel horizon), or *all* events when the
        #: wheel is disabled: a binary heap ordered by (time, seq).
        self._overflow: List[EventHandle] = []
        # Wheel state: _current is a heap holding the active slot (plus any
        # event scheduled earlier than one slot past the cursor); _buckets
        # are append-only FIFO lists heapified when their slot activates.
        self._current: List[EventHandle] = []
        if self._use_wheel:
            self._buckets: List[List[EventHandle]] = [[] for _ in range(WHEEL_SLOTS)]
            self._bucket_dead: List[int] = [0] * WHEEL_SLOTS
        else:
            self._buckets = []
            self._bucket_dead = []
        self._cursor_slot = 0
        self._cursor_time = 0
        #: Handles resident in _current + _buckets (cancelled ones included
        #: until lazily dropped or compacted).
        self._wheel_count = 0
        #: Events executed by this instance (monotonic, never reset).
        self.events_executed = 0
        #: Set to a list to record (time, seq) of every executed event --
        #: the differential tests use it to prove wheel-vs-heap identity.
        self.order_log: Optional[List] = None

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling

    def at(self, time: int, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        handle = EventHandle(int(time), self._seq, fn, args, self)
        self._seq += 1
        handle._scheduled = True
        self._pending_live += 1
        self._place(handle)
        return handle

    def after(self, delay: int, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self._now + int(delay), fn, *args)

    def every(
        self,
        interval: int,
        fn: Callable,
        *args: Any,
        start: Optional[int] = None,
    ) -> EventHandle:
        """Register a periodic event: ``fn(*args)`` fires every ``interval``
        ns, reusing one handle instead of allocating a Timeout + EventHandle
        per firing. The first firing is ``start`` ns from now (default:
        ``interval``).

        If ``fn`` returns a generator, it is run as a process starting
        synchronously at the firing time, and the next firing is scheduled
        ``interval`` ns after the *body completes* -- exactly the cadence of
        the classic ``while True: yield Timeout(p); <body>`` daemon loop.
        Plain callbacks re-fire every ``interval`` ns with no drift.

        Returns the reusable handle; :meth:`EventHandle.cancel` stops the
        series (including between firings).
        """
        if interval <= 0:
            raise SimulationError(f"non-positive period: {interval}")
        delay = interval if start is None else start
        if delay < 0:
            raise SimulationError(f"negative start: {start}")
        handle = EventHandle(
            self._now + int(delay), self._seq, fn, args, self, int(interval)
        )
        self._seq += 1
        handle._scheduled = True
        self._pending_live += 1
        self._place(handle)
        return handle

    def _rearm(self, handle: EventHandle) -> None:
        """Re-queue a periodic handle for its next firing (fresh seq, so
        ordering against freshly-scheduled events matches the old
        Timeout-per-tick daemons exactly)."""
        if handle.cancelled:
            return
        time = handle.time = self._now + handle.interval
        handle.seq = self._seq
        self._seq += 1
        handle._scheduled = True
        self._pending_live += 1
        # _place() inlined -- periodic re-arms happen once per executed tick
        # across every daemon, and the in-horizon bucket append is the
        # overwhelmingly common case.
        if self._use_wheel and time < self._cursor_time + WHEEL_SPAN_NS:
            if time < self._cursor_time + WHEEL_SLOT_NS:
                handle._bucket = -1
                heapq.heappush(self._current, handle)
            else:
                bucket = (time // WHEEL_SLOT_NS) % WHEEL_SLOTS
                handle._bucket = bucket
                self._buckets[bucket].append(handle)
            self._wheel_count += 1
        else:
            handle._bucket = -1
            heapq.heappush(self._overflow, handle)

    def _place(self, handle: EventHandle) -> None:
        """Insert into the wheel or the overflow heap by time (structural
        insert only -- callers maintain the pending/scheduled accounting)."""
        if not self._use_wheel:
            heapq.heappush(self._overflow, handle)
            return
        time = handle.time
        if time < self._cursor_time + WHEEL_SLOT_NS:
            # Due within (or before) the active slot: keep exact heap order.
            handle._bucket = -1
            heapq.heappush(self._current, handle)
            self._wheel_count += 1
        elif time < self._cursor_time + WHEEL_SPAN_NS:
            bucket = (time // WHEEL_SLOT_NS) % WHEEL_SLOTS
            handle._bucket = bucket
            self._buckets[bucket].append(handle)
            self._wheel_count += 1
        else:
            handle._bucket = -1
            heapq.heappush(self._overflow, handle)

    # ------------------------------------------------------------------
    # cancellation bookkeeping

    def _note_cancelled(self, handle: EventHandle) -> None:
        """Called by EventHandle.cancel() while the handle is still queued:
        fix the live count and compact the bucket if mostly dead."""
        self._pending_live -= 1
        bucket_idx = handle._bucket
        if bucket_idx < 0:
            return  # in _current or _overflow: lazily dropped on pop
        dead = self._bucket_dead[bucket_idx] + 1
        bucket = self._buckets[bucket_idx]
        if dead * 2 > len(bucket) and len(bucket) >= _COMPACT_MIN:
            live = [h for h in bucket if not h.cancelled]
            for h in bucket:
                if h.cancelled:
                    h._bucket = -1
                    h._scheduled = False
            self._wheel_count -= len(bucket) - len(live)
            self._buckets[bucket_idx] = live
            self._bucket_dead[bucket_idx] = 0
        else:
            self._bucket_dead[bucket_idx] = dead

    # ------------------------------------------------------------------
    # wheel advancement

    def _advance_wheel(self) -> None:
        """Advance the cursor (only legal with _current empty and events in
        the wheel) until a populated bucket activates, migrating overflow
        events as they enter the horizon along the way."""
        buckets = self._buckets
        overflow = self._overflow
        cursor_slot = self._cursor_slot
        cursor_time = self._cursor_time
        while True:
            cursor_slot = (cursor_slot + 1) % WHEEL_SLOTS
            cursor_time += WHEEL_SLOT_NS
            self._cursor_slot = cursor_slot
            self._cursor_time = cursor_time
            if overflow and overflow[0].time < cursor_time + WHEEL_SPAN_NS:
                horizon = cursor_time + WHEEL_SPAN_NS
                while overflow and overflow[0].time < horizon:
                    migrated = heapq.heappop(overflow)
                    if migrated.cancelled:
                        migrated._scheduled = False
                        continue
                    self._place(migrated)
            bucket = buckets[cursor_slot]
            if bucket:
                buckets[cursor_slot] = []
                self._bucket_dead[cursor_slot] = 0
                for h in bucket:
                    h._bucket = -1
                heapq.heapify(bucket)
                self._current = bucket
                return

    def _jump_wheel(self, time: int) -> None:
        """With the wheel empty, teleport the cursor to ``time``'s slot and
        pull newly-in-horizon overflow events into the wheel."""
        self._cursor_time = (time // WHEEL_SLOT_NS) * WHEEL_SLOT_NS
        self._cursor_slot = (time // WHEEL_SLOT_NS) % WHEEL_SLOTS
        overflow = self._overflow
        horizon = self._cursor_time + WHEEL_SPAN_NS
        while overflow and overflow[0].time < horizon:
            migrated = heapq.heappop(overflow)
            if migrated.cancelled:
                migrated._scheduled = False
                continue
            self._place(migrated)

    # ------------------------------------------------------------------
    # event loop

    def _peek_next(self) -> Optional[EventHandle]:
        """The earliest pending non-cancelled event (cancelled heads are
        dropped lazily on the way), or None if the simulator is drained."""
        if not self._use_wheel:
            overflow = self._overflow
            while overflow:
                head = overflow[0]
                if head.cancelled:
                    heapq.heappop(overflow)
                    head._scheduled = False
                    continue
                return head
            return None
        while True:
            current = self._current
            while current:
                head = current[0]
                if head.cancelled:
                    heapq.heappop(current)
                    self._wheel_count -= 1
                    head._scheduled = False
                    continue
                return head
            if self._wheel_count:
                self._advance_wheel()
                continue
            overflow = self._overflow
            while overflow and overflow[0].cancelled:
                dropped = heapq.heappop(overflow)
                dropped._scheduled = False
            if not overflow:
                return None
            self._jump_wheel(overflow[0].time)

    def _pop_ready_set(self, until: Optional[int] = None) -> Optional[List[EventHandle]]:
        """Pop every pending event due at the earliest timestamp, in
        ``(time, seq)`` order (heap mode only -- the choice hook forces it).
        Returns None when drained or when the head is past ``until``. The
        popped handles stay marked scheduled; :meth:`_dispatch_choice`
        re-queues the ones that are not chosen."""
        head = self._peek_next()
        if head is None or (until is not None and head.time > until):
            return None
        time = head.time
        ready: List[EventHandle] = []
        overflow = self._overflow
        while overflow and overflow[0].time == time:
            handle = heapq.heappop(overflow)
            if handle.cancelled:
                handle._scheduled = False
                continue
            ready.append(handle)
        return ready

    def _dispatch_choice(self, until: Optional[int] = None) -> Optional[EventHandle]:
        """Gather the ready set, let :attr:`choice_hook` pick, re-queue the
        rest, and return the chosen handle ready for execution."""
        ready = self._pop_ready_set(until)
        if not ready:
            return None
        choice = self.choice_hook(ready)
        idx = 0 if choice is None else int(choice)
        if not 0 <= idx < len(ready):
            raise SimulationError(
                f"choice_hook returned {choice!r} for a ready set of {len(ready)}"
            )
        chosen = ready[idx]
        for handle in ready:
            if handle is not chosen:
                heapq.heappush(self._overflow, handle)
        chosen._scheduled = False
        self._pending_live -= 1
        return chosen

    def _run_with_choice_hook(
        self, until: Optional[int], max_events: Optional[int]
    ) -> int:
        """The run() loop under a choice hook: one ready-set dispatch per
        event (no wheel fast path -- exactness over speed)."""
        executed = 0
        self._running = True
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                head = self._dispatch_choice(until)
                if head is None:
                    break
                self._execute(head)
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            next_time = self._next_event_time()
            if next_time is None or next_time > until:
                self._now = until
        return executed

    def _pop_next(self) -> EventHandle:
        """Remove and return the event _peek_next() just reported (without
        a choice hook, _peek_next() always leaves the head in the active
        slot)."""
        handle = heapq.heappop(self._current)
        self._wheel_count -= 1
        handle._scheduled = False
        self._pending_live -= 1
        return handle

    def _execute(self, handle: EventHandle) -> None:
        self._now = handle.time
        if self.order_log is not None:
            # Logged before the callback: a periodic handle's re-arm
            # rewrites its time and seq.
            self.order_log.append((handle.time, handle.seq))
        if handle.interval is None:
            handle.fn(*handle.args)
        else:
            result = handle.fn(*handle.args)
            if type(result) is GeneratorType:
                # Generator-flavoured periodic: run the body as a process
                # starting *now* (synchronously, like the old daemon loops'
                # inline `yield from body`), then re-arm once it completes.
                proc = Process(self, result)
                proc._step(None)
                proc.done.add_callback(lambda _sig, h=handle: self._rearm(h))
            else:
                self._rearm(handle)
        self.events_executed += 1
        Simulator.total_events_executed += 1

    def signal(self) -> Signal:
        """Create a fresh one-shot signal bound to this simulator."""
        return Signal(self)

    def timeout_signal(self, delay: int, value: Any = None) -> Signal:
        """A signal that fires automatically after ``delay`` ns."""
        sig = Signal(self)
        self.after(delay, sig.succeed, value)
        return sig

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a process from a generator; it takes its first step at t+0."""
        proc = Process(self, gen, name)
        self.after(0, proc._step, None)
        return proc

    def step(self) -> bool:
        """Run the next pending event. Returns False if the engine drained."""
        if self.choice_hook is not None:
            head = self._dispatch_choice()
            if head is None:
                return False
            self._execute(head)
            return True
        if self._peek_next() is None:
            return False
        self._execute(self._pop_next())
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the engine drains or ``until`` (absolute ns)
        passes.

        Returns the number of events executed. When ``until`` is given the
        clock is advanced to exactly ``until`` if the engine drained of
        events at or before ``until``, so rate computations over a fixed
        window stay well-defined. If a ``max_events`` break leaves such
        events pending, the clock stays at the last executed event --
        force-advancing would make the next :meth:`step` move time backwards.
        """
        if self.choice_hook is not None:
            return self._run_with_choice_hook(until, max_events)
        executed = 0
        self._running = True
        # The body below is _pop_next() + _execute() inlined: one event is
        # dispatched per iteration and this loop is the single hottest frame
        # in every benchmark, so the per-event method-call overhead is worth
        # trading away. step() keeps the readable composed form.
        peek = self._peek_next
        pop = heapq.heappop
        rearm = self._rearm
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                # Fast path: a live head at the front of the active slot.
                # Everything else (cancelled heads, wheel advance, overflow
                # refill) funnels through _peek_next(), which leaves the
                # head at the front of the active slot.
                current = self._current
                if current and not current[0].cancelled:
                    head = current[0]
                else:
                    head = peek()
                if head is None:
                    break
                time = head.time
                if until is not None and time > until:
                    break
                pop(self._current)
                self._wheel_count -= 1
                head._scheduled = False
                self._pending_live -= 1
                self._now = time
                order_log = self.order_log
                if order_log is not None:
                    order_log.append((time, head.seq))
                if head.interval is None:
                    head.fn(*head.args)
                else:
                    result = head.fn(*head.args)
                    if type(result) is GeneratorType:
                        proc = Process(self, result)
                        proc._step(None)
                        proc.done.add_callback(
                            lambda _sig, h=head: rearm(h)
                        )
                    else:
                        rearm(head)
                executed += 1
        finally:
            self._running = False
            self.events_executed += executed
            Simulator.total_events_executed += executed
        if until is not None and self._now < until:
            next_time = self._next_event_time()
            if next_time is None or next_time > until:
                self._now = until
        return executed

    def _next_event_time(self) -> Optional[int]:
        """Time of the earliest pending (non-cancelled) event, or None."""
        head = self._peek_next()
        return head.time if head is not None else None

    def pending(self) -> int:
        """Number of scheduled, non-cancelled events (O(1))."""
        return self._pending_live

    # ------------------------------------------------------------------
    # snapshot / restore

    def _resident_handles(self) -> Iterable[EventHandle]:
        """Every handle currently parked in a queue structure (cancelled
        ones included until their lazy drop)."""
        yield from self._current
        yield from self._overflow
        for bucket in self._buckets:
            if bucket:
                yield from bucket

    def fork(self) -> "EngineSnapshot":
        """Capture a restorable snapshot of the event queues.

        Handles are *shared* with the snapshot, not copied: their mutable
        fields (time/seq/cancelled/placement) are recorded so ``restore()``
        can rewrite them in place, preserving identity -- callbacks, daemon
        re-arm chains and cached references all keep pointing at the same
        objects. ``fn``/``args``/``interval`` never mutate after creation
        and are not recorded.

        Refuses mid-run and refuses when any pending event is a live
        generator continuation (a bound method of a :class:`Process` or
        :class:`Signal`): a suspended generator frame cannot be copied, so
        snapshots are only legal at quiescent points where every pending
        event is a plain callback (periodic daemon ticks, timers).
        """
        if self._running:
            raise SimulationError("cannot fork a running simulator")
        for handle in self._resident_handles():
            if live_continuation(handle):
                raise SimulationError(
                    f"cannot fork with live generator continuation pending: "
                    f"{handle!r}"
                )
        return EngineSnapshot(
            seq=self._seq,
            now=self._now,
            pending_live=self._pending_live,
            cursor_slot=self._cursor_slot,
            cursor_time=self._cursor_time,
            wheel_count=self._wheel_count,
            events_executed=self.events_executed,
            order_len=len(self.order_log) if self.order_log is not None else None,
            current=list(self._current),
            overflow=list(self._overflow),
            buckets={
                i: list(b) for i, b in enumerate(self._buckets) if b
            },
            bucket_dead=list(self._bucket_dead),
            handle_fields=[
                (h, h.time, h.seq, h.cancelled, h._bucket, h._scheduled)
                for h in self._resident_handles()
            ],
        )

    def restore(self, snap: "EngineSnapshot") -> None:
        """Rewind the event queues to a snapshot taken by :meth:`fork`.

        Restore order matters: (1) orphan every currently-resident handle so
        post-fork events cannot corrupt the accounting via a later
        ``cancel()``; (2) rewrite the recorded fields of every snapshotted
        handle (healing post-fork execution, re-arms, cancellation and
        bucket compaction); (3) reinstall the queue structure copies;
        (4) scalars; (5) truncate the order log.
        """
        if self._running:
            raise SimulationError("cannot restore a running simulator")
        for handle in self._resident_handles():
            handle._scheduled = False
            handle._bucket = -1
        for handle, time, seq, cancelled, bucket, scheduled in snap.handle_fields:
            handle.time = time
            handle.seq = seq
            handle.cancelled = cancelled
            handle._bucket = bucket
            handle._scheduled = scheduled
        # The list copies preserved heap order, so no re-heapify is needed.
        self._current = list(snap.current)
        self._overflow = list(snap.overflow)
        if self._use_wheel:
            buckets = self._buckets
            for i, bucket in enumerate(buckets):
                if bucket:
                    buckets[i] = []
            for i, saved in snap.buckets.items():
                buckets[i] = list(saved)
            self._bucket_dead = list(snap.bucket_dead)
        self._seq = snap.seq
        self._now = snap.now
        self._pending_live = snap.pending_live
        self._cursor_slot = snap.cursor_slot
        self._cursor_time = snap.cursor_time
        self._wheel_count = snap.wheel_count
        self.events_executed = snap.events_executed
        if self.order_log is not None and snap.order_len is not None:
            del self.order_log[snap.order_len:]


def live_continuation(handle: EventHandle) -> bool:
    """True if executing (or dropping) ``handle`` would touch a suspended
    generator: its callback belongs to a live :class:`Process` or to a
    :class:`Signal`, or such an object rides in its args. A *dead*
    process's ``_step`` handle is a harmless no-op and does not count."""
    if handle.cancelled:
        return False
    owner = getattr(handle.fn, "__self__", None)
    if isinstance(owner, Signal) or (isinstance(owner, Process) and owner.alive):
        return True
    return any(
        isinstance(arg, Signal) or (isinstance(arg, Process) and arg.alive)
        for arg in handle.args
    )


class EngineSnapshot:
    """Opaque engine state captured by :meth:`Simulator.fork`."""

    __slots__ = (
        "seq", "now", "pending_live", "cursor_slot", "cursor_time",
        "wheel_count", "events_executed", "order_len", "current",
        "overflow", "buckets", "bucket_dead", "handle_fields",
    )

    def __init__(self, **fields: Any):
        for name in self.__slots__:
            setattr(self, name, fields[name])
