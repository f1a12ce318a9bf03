"""ABIS (Amit, USENIX ATC'17): access-bit-based sharer tracking.

ABIS reduces the *number* of IPIs by tracking, via page-table access bits,
the set of cores that actually cached each page's translation; shootdowns
target only those cores instead of the whole mm cpumask. It remains fully
synchronous (Table 2). Its cost is the tracking itself: extra work on every
TLB fill (access-bit management, page-table scans) and per-page sharer
lookups during the unmap -- the paper's Figure 9 shows this overhead making
ABIS *slower* than Linux below eight cores, then faster beyond as the saved
IPIs dominate.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..hw.cpumask import popcount
from ..mm.addr import VirtRange
from ..mm.frames import FrameBatch
from ..mm.mmstruct import MmStruct
from ..sim.engine import Signal
from .base import MECHANISM_PROPERTIES, ShootdownReason, TLBCoherence


class AbisShootdown(TLBCoherence):
    """Synchronous shootdown with access-bit sharer tracking."""

    name = "abis"
    properties = MECHANISM_PROPERTIES["ABIS"]

    #: Extra cost on each TLB fill: atomic access-bit bookkeeping plus the
    #: amortized share of ABIS's periodic access-bit scans.
    track_fill_ns = 800
    #: Per-page sharer-set lookup (access-bit walk) during an unmap; runs
    #: under mmap_sem, so it eats into address-space operation throughput.
    lookup_per_page_ns = 1400

    def __init__(self):
        super().__init__()
        #: (mm_id, vpn) -> bitmask of the cores that cached the translation
        #: since the last shootdown of that page.
        self._sharers: Dict[Tuple[int, int], int] = {}

    # ---- tracking -----------------------------------------------------------------

    def on_tlb_fill(self, core, mm: MmStruct, vpn: int) -> int:
        sharers = self._sharers
        key = (mm.mm_id, vpn)
        sharers[key] = sharers.get(key, 0) | core.bit
        self._stats.counter("abis.fills_tracked").add()
        return self.track_fill_ns

    def _targets_for_range(self, core, mm: MmStruct, vrange: VirtRange) -> int:
        """Bitmask of the actual sharers of the range, intersected with the
        usual rules (idle cores skipped and flagged, initiator excluded)."""
        sharers = self._sharers
        mm_id = mm.mm_id
        sharing = 0
        for vpn in vrange.vpns():
            sharing |= sharers.pop((mm_id, vpn), 0)
        remote = sharing & mm.cpumask & ~core.bit
        skipped = remote & self.kernel.machine.lazy_mask
        if skipped:
            self._flag_for_wake(skipped)
        return remote ^ skipped

    # ---- mechanism API ---------------------------------------------------------------

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
        yield from core.execute(vrange.n_pages * self.lookup_per_page_ns)
        mask = self._targets_for_range(core, mm, vrange)
        # The cpumask's remote cores that the access bits ruled out.
        self._stats.counter("abis.ipis_saved").add(popcount(mm.cpumask & ~core.bit & ~mask))
        targets = self.kernel.machine.cores_in(mask)
        self._stats.counter("shootdown.initiated").add()
        self._stats.rate("shootdowns").hit()
        yield from self.ipi_round(core, mm, vrange, targets, ShootdownReason.FREE)
        self._stats.latency("shootdown.free").record(self.kernel.sim.now - start)
        yield from core.execute(FrameBatch.units_of(pfns) * self._lat.page_free_ns)
        self.kernel.release_frames(pfns)
        if vrange_to_free is not None:
            mm.release_vrange(vrange_to_free)

    def migration_unmap(
        self,
        core,
        mm: MmStruct,
        vrange: VirtRange,
        apply_pte_change: Callable[[], None],
    ) -> Generator:
        apply_pte_change()
        yield from core.execute(self.local_invalidate(core, mm, vrange))
        yield from core.execute(vrange.n_pages * self.lookup_per_page_ns)
        targets = self.kernel.machine.cores_in(self._targets_for_range(core, mm, vrange))
        self._stats.counter("shootdown.initiated").add()
        self._stats.rate("shootdowns").hit()
        yield from self.ipi_round(core, mm, vrange, targets, ShootdownReason.MIGRATION)
        return Signal(self.kernel.sim).succeed(None)
