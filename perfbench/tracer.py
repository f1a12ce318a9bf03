"""Timing wrappers for the traced per-layer run.

The wrappers are installed on the simulator's classes (and, for module
functions, on every ``repro`` module that imported them) before a system is
built, so bound methods cached at boot are the wrapped ones. Each wrapped
call is a span on one stack; a span's self time is its duration minus the
time its child spans cover, and it is charged to the span's layer, the first
component of the metric name. Time outside every wrapped call, inside the
root span, is the ``bench`` layer: the benchmark's own load loops. So the
layers' self times add up to the root span's duration.

A call that returns a generator is timed once for the call and once per
resume (``send``, ``throw``, ``close``), so simulated waits between resumes
are excluded; the wrapper forwards every resume and the return value. A
call made while a span of the same metric is on top of the stack (``after``
calling ``at``, ``sweep`` calling its implementation) is folded into that
span: it is neither counted nor timed on its own.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple

from repro import snapshot
from repro.coherence import MECHANISMS, LatrCoherence, TLBCoherence
from repro.hw.core import Core
from repro.hw.interconnect import Interconnect
from repro.hw.tlb import Tlb
from repro.kernel.kernel import Kernel
from repro.kernel.pagefault import PageFaultHandler
from repro.kernel.scheduler import Scheduler
from repro.kernel.syscalls import Syscalls
from repro.mm.frames import FrameAllocator
from repro.mm.pagetable import PageTable
from repro.sim.engine import Simulator
from repro.sim.stats import LatencyRecorder, QuantileRecorder
from repro.verify import mc
from repro.verify.monitor import InvariantMonitor

LAYERS = ("bench", "sim", "hw", "mm", "kernel", "coherence", "snapshot", "verify")

_COHERENCE_CLASSES = [TLBCoherence, *MECHANISMS.values()]


def _defining(classes, attr):
    """The classes among ``classes`` that define ``attr`` themselves."""
    return [(cls, attr) for cls in dict.fromkeys(classes) if attr in vars(cls)]


#: metric -> the (owner, attribute) pairs it times. Owners are classes, or
#: modules for plain functions. Private attributes are optional (a later
#: version may rename them); public ones must exist.
TARGETS: Dict[str, List[Tuple[object, str]]] = {
    "sim.schedule": [(Simulator, "at"), (Simulator, "after"), (Simulator, "every")],
    "sim.spawn": [(Simulator, "spawn")],
    "sim.run": [(Simulator, "run")],
    "sim.stats.record": [(LatencyRecorder, "record"), (QuantileRecorder, "record")],
    "hw.core.execute": [(Core, "execute")],
    "hw.tlb.fill": [(Tlb, "fill"), (Tlb, "fill_new"), (Tlb, "fill_huge")],
    "hw.tlb.invalidate_range": [(Tlb, "invalidate_range")],
    "hw.tlb.flush": [(Tlb, "flush")],
    "hw.interconnect.multicast_ipi": [(Interconnect, "multicast_ipi")],
    "mm.pt.walk": [(PageTable, "walk")],
    "mm.pt.set_pte": [(PageTable, "set_pte")],
    "mm.pt.clear_pte": [(PageTable, "clear_pte")],
    "mm.frames.alloc": [(FrameAllocator, "alloc")],
    "mm.frames.free_batch": [(FrameAllocator, "free_batch")],
    "kernel.syscalls.mmap": [(Syscalls, "mmap")],
    "kernel.syscalls.munmap": [(Syscalls, "munmap")],
    "kernel.syscalls.touch_pages": [(Syscalls, "touch_pages")],
    "kernel.pagefault.handle": [(PageFaultHandler, "handle")],
    "kernel.scheduler.run_on": [(Scheduler, "run_on")],
    "kernel.create_process": [(Kernel, "create_process")],
    "kernel.spawn_thread": [(Kernel, "spawn_thread")],
    "coherence.shootdown_free": _defining(_COHERENCE_CLASSES, "shootdown_free"),
    "coherence.on_tick": _defining(_COHERENCE_CLASSES, "on_tick"),
    # on_tick calls the sweep implementation directly, not sweep().
    "coherence.latr.sweep": [
        (LatrCoherence, name)
        for name in ("sweep", "_sweep_indexed_soa", "_sweep_indexed", "_sweep_full")
    ],
    "snapshot.fork": [(snapshot, "snapshot_kernel")],
    "snapshot.restore": [(snapshot, "restore_kernel")],
    "verify.mc.run": [(mc, "run_mc")],
    "verify.mc.execute": [(mc.McExecutor, "execute")],
    "verify.mc.apply": [(mc.McExecutor, "apply")],
    "verify.mc.state_hash": [(mc.McExecutor, "state_hash")],
    "verify.monitor.notify": [(InvariantMonitor, "notify")],
}


def layer_of(metric: str) -> str:
    return metric.split(".", 1)[0]


class Tracer:
    """Span stack plus per-metric call counts and times (see module doc)."""

    def __init__(self):
        self.calls: Dict[str, int] = {m: 0 for m in TARGETS}
        self.incl_ns: Dict[str, int] = {m: 0 for m in TARGETS}
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: Sweeps that returned only the base cost (nothing active to examine).
        self.empty_sweeps = 0
        #: Host ns inside root spans (the traced wall time).
        self.root_ns = 0
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ---- spans -------------------------------------------------------------

    def _enter(self, metric: str) -> None:
        self._stack.append([metric, perf_counter_ns(), 0])

    def _exit(self) -> None:
        end = perf_counter_ns()
        metric, start, child_ns = self._stack.pop()
        duration = end - start
        if metric in self.incl_ns:
            self.incl_ns[metric] += duration
        self.self_ns[layer_of(metric)] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration

    def root(self, fn: Callable):
        """Run ``fn`` inside a root ``bench`` span; adds its host time,
        measured outside the span, to ``root_ns``."""
        start = perf_counter_ns()
        self._enter("bench")
        try:
            return fn()
        finally:
            self._exit()
            self.root_ns += perf_counter_ns() - start

    def own(self, gen):
        """Attribute the resumes of one of the benchmark's generators to the
        ``bench`` layer (the load-loop code between calls into the system)."""
        return self._resumes(gen, "bench")

    def _resumes(self, gen, metric: str):
        wrapped = self._timed_generator(gen, metric)
        wrapped.__name__ = gen.__name__
        wrapped.__qualname__ = gen.__qualname__
        return wrapped

    def _timed_generator(self, gen, metric: str):
        enter, exit_ = self._enter, self._exit
        value = None
        error: Optional[BaseException] = None
        while True:
            enter(metric)
            try:
                yielded = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                exit_()
            error = None
            try:
                value = yield yielded
            except GeneratorExit:
                enter(metric)
                try:
                    gen.close()
                finally:
                    exit_()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                value, error = None, exc

    # ---- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, metric: str, observe: Optional[Callable] = None):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == metric:
                return fn(*args, **kwargs)
            tracer.calls[metric] += 1
            tracer._enter(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if observe is not None:
                observe(args, result)
            if type(result) is GeneratorType:
                return tracer._resumes(result, metric)
            return result

        return traced

    def _observe_sweep(self, args, cost) -> None:
        mech = args[0]
        if cost == mech.kernel.machine.latency.latr_sweep_base_ns + mech.cold_sweep_extra_ns:
            self.empty_sweeps += 1

    def install(self) -> None:
        """Wrap every target; call before building a system."""
        for metric, targets in TARGETS.items():
            observe = self._observe_sweep if metric == "coherence.latr.sweep" else None
            for owner, attr in targets:
                original = vars(owner).get(attr)
                if original is None:
                    if attr.startswith("_"):
                        continue
                    raise AttributeError(f"{owner!r} has no {attr!r} to trace")
                wrapped = self._wrap(original, metric, observe)
                for holder in self._holders(owner, attr, original):
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, wrapped)

    @staticmethod
    def _holders(owner, attr, original):
        if isinstance(owner, type):
            return [owner]
        # A module function is also bound by name in every module that
        # imported it with ``from ... import``.
        return [
            module
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "repro" and getattr(module, attr, None) is original
        ]

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()
