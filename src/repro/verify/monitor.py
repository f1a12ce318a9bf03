"""Continuous invariant monitoring.

The quiescent-point checkers in :mod:`repro.kernel.invariants` are exactly
the wrong tool for catching a stale-TLB window: by the time the system is
quiescent, every sweep has run and the evidence is gone. The
:class:`InvariantMonitor` attaches to a kernel like the tracer does and
re-runs the safety checkers at every *dangerous instant* instead:

* after every LATR sweep and reclamation,
* after every synchronous IPI round,
* after every PTE mutation (via a :class:`~repro.mm.pagetable.PageTable`
  observer installed on each watched mm),
* after every frame free (the instant a still-cached translation becomes a
  use-after-free window).

Only *transient-safe* invariants run continuously by default: TLB/frame
safety and lazy-vrange isolation hold at every instant by construction.
Refcount accounting has legal mid-operation slack (e.g. between a child
PTE install and the ``frames.get`` during fork), so it stays a
quiescent-point check -- the fuzzer runs it once after the final drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..kernel import invariants

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..mm.mmstruct import MmStruct


#: Checkers safe to run at any instant (no legal transient slack).
CONTINUOUS_CHECKS: Dict[str, Callable] = {
    "tlb_frame_safety": invariants.check_tlb_frame_safety,
    "lazy_vrange_isolation": invariants.check_lazy_vrange_isolation,
    # Replica fan-out is applied synchronously with the canonical mutation
    # (only its cost is deferred), so divergence is a bug at any instant.
    "replica_coherence": invariants.check_replica_coherence,
    # Host (EPT) entries are detached the instant their frame frees, so a
    # stale one is a bug at any instant (the virtualized twin of
    # tlb_frame_safety).
    "ept_coherence": invariants.check_ept_coherence,
}

#: Checkers valid only at quiescent points (run via :meth:`check_quiescent`).
QUIESCENT_CHECKS: Dict[str, Callable] = {
    "frame_refcounts": invariants.check_frame_refcounts,
}


class InvariantViolationError(AssertionError):
    """Raised (when ``raise_on_violation``) at the violating instant, so the
    failing stack shows exactly which operation broke the invariant."""


@dataclass(frozen=True)
class Violation:
    """One invariant breach, timestamped at the instant it was observed."""

    time_ns: int
    point: str      # hook that caught it: "latr.reclaim", "pte.clear", ...
    check: str      # which invariant: "tlb_frame_safety", ...
    message: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.time_ns} ns @ {self.point}] {self.check}: {self.message}"


class InvariantMonitor:
    """Attachable continuous checker (``InvariantMonitor.install(kernel)``).

    Attributes:
        violations: every breach observed, in time order.
        checks_run: number of notification points at which checks ran.
    """

    def __init__(
        self,
        kernel: "Kernel",
        checks: Sequence[str] = (
            "tlb_frame_safety", "lazy_vrange_isolation", "replica_coherence",
            "ept_coherence",
        ),
        max_violations: int = 50,
        raise_on_violation: bool = False,
    ):
        for name in checks:
            if name not in CONTINUOUS_CHECKS:
                raise ValueError(
                    f"unknown continuous check {name!r}; have {sorted(CONTINUOUS_CHECKS)}"
                )
        self.kernel = kernel
        self.checks = tuple(checks)
        self.max_violations = max_violations
        self.raise_on_violation = raise_on_violation
        self.violations: List[Violation] = []
        self.checks_run = 0
        self.notifications = 0
        self._saturated = False

    # ---- wiring ---------------------------------------------------------------

    @classmethod
    def install(cls, kernel: "Kernel", **kwargs) -> "InvariantMonitor":
        """Attach to ``kernel`` (and every existing mm) like a tracer."""
        monitor = cls(kernel, **kwargs)
        kernel.invariant_monitor = monitor
        for mm in kernel.mm_registry.values():
            monitor.watch_mm(mm)
        return monitor

    def detach(self) -> None:
        if self.kernel.invariant_monitor is self:
            self.kernel.invariant_monitor = None
        for mm in self.kernel.mm_registry.values():
            if mm.page_table.observer == self._on_pte_event:
                mm.page_table.observer = None

    def watch_mm(self, mm: "MmStruct") -> None:
        """Observe every PTE mutation of ``mm`` (Kernel.create_process calls
        this automatically for mms created after install)."""
        mm.page_table.observer = self._on_pte_event

    def _on_pte_event(self, event: str, vpn: int) -> None:
        self.notify(f"pte.{event}", detail=f"vpn={vpn:#x}")

    # ---- the check point ------------------------------------------------------

    def notify(self, point: str, core: Optional[int] = None, detail: str = "") -> None:
        """A dangerous instant happened; run the continuous checkers now."""
        self.notifications += 1
        if self._saturated:
            return
        self.checks_run += 1
        for name in self.checks:
            for message in CONTINUOUS_CHECKS[name](self.kernel):
                self._record(point, name, message, detail)

    def check_quiescent(self) -> List[Violation]:
        """Run the full invariant set (quiescent-only checkers included);
        records and returns any violations found."""
        found: List[Violation] = []
        all_checks = dict(CONTINUOUS_CHECKS)
        all_checks.update(QUIESCENT_CHECKS)
        for name, check in all_checks.items():
            for message in check(self.kernel):
                found.append(self._record("quiescent", name, message, ""))
        return found

    def _record(self, point: str, check: str, message: str, detail: str) -> Violation:
        violation = Violation(
            time_ns=self.kernel.sim.now,
            point=point if not detail else f"{point} {detail}",
            check=check,
            message=message,
        )
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        else:
            self._saturated = True
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.emit("invariant", "violation", detail=f"{check}: {message}")
        if self.raise_on_violation:
            raise InvariantViolationError(str(violation))
        return violation

    @property
    def healthy(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if not self.violations:
            return f"healthy ({self.checks_run} check points, 0 violations)"
        lines = [
            f"{len(self.violations)} violation(s) over {self.checks_run} check points:"
        ]
        lines += [f"  {v}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... (+{len(self.violations) - 10} more)")
        return "\n".join(lines)
