"""Memory compaction: defragmenting migration (paper Table 1, section 7).

Compaction relocates movable pages to coalesce free physical memory (the
prerequisite for huge-page allocation). Each relocation is a migration-
class operation: unmap (lazily under LATR), copy, remap, and free the old
frame only after every TLB entry for it is gone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Tuple

from ..mm.addr import VirtRange
from ..mm.frames import FrameAllocatorError
from ..mm.pte import Pte
from .task import KProcess

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel


class Compactor:
    """On-demand compaction runs (no background loop; tests/benches drive it)."""

    def __init__(self, kernel: "Kernel", daemon_core_id: int = 0):
        self.kernel = kernel
        self.daemon_core_id = daemon_core_id
        self._registered: List[KProcess] = []

    @classmethod
    def install(cls, kernel: "Kernel", **kwargs) -> "Compactor":
        compactor = cls(kernel, **kwargs)
        kernel.compactor = compactor
        return compactor

    def register(self, process: KProcess) -> None:
        self._registered.append(process)

    def movable_pages(self, node: int) -> List[Tuple[KProcess, int, Pte]]:
        """Anon, non-CoW pages resident on ``node`` (the movable set)."""
        out = []
        for process in self._registered:
            for vpn, pte in process.mm.page_table.all_entries():
                if not pte.present or pte.cow or pte.huge:
                    continue
                if self.kernel.frames.node_of(pte.pfn) == node:
                    out.append((process, vpn, pte))
        return out

    def pick_target_block(self, node: int, block_frames: int = 512):
        """The aligned PFN block cheapest to evacuate: every allocated
        frame in it must be movable; prefer the fewest occupied frames.

        Returns (block_range, movable_in_block) or (None, []).
        """
        frames = self.kernel.frames
        movable_by_pfn = {
            pte.pfn: (process, vpn, pte) for process, vpn, pte in self.movable_pages(node)
        }
        base_lo = node * frames.frames_per_node
        best = None
        best_movable = []
        for base in range(base_lo, base_lo + frames.frames_per_node, block_frames):
            block = range(base, base + block_frames)
            occupied = [pfn for pfn in block if frames.is_allocated(pfn)]
            if not occupied:
                continue  # already free (nothing to gain)
            if any(pfn not in movable_by_pfn for pfn in occupied):
                continue  # pinned page (page cache, kernel) blocks the block
            if best is None or len(occupied) < len(best_movable):
                best = block
                best_movable = occupied
        if best is None:
            return None, []
        return best, [movable_by_pfn[pfn] for pfn in best_movable]

    def compact_node(self, node: int, max_pages: int) -> Generator:
        """Defragment: evacuate the cheapest aligned 2 MiB block on
        ``node`` (up to ``max_pages`` relocations); returns the count.

        Each relocation is a migration-class unmap -- lazy under LATR."""
        kernel = self.kernel
        lat = kernel.machine.latency
        core = kernel.machine.core(self.daemon_core_id)
        block, victims = self.pick_target_block(node)
        if block is None:
            kernel.stats.counter("compaction.no_block").add()
            return 0
        moved = 0
        for process, vpn, pte in victims[:max_pages]:
            mm = process.mm
            yield mm.mmap_sem.acquire()
            try:
                current = mm.page_table.walk(vpn)
                if current is None or not current.present or current.pfn != pte.pfn:
                    continue
                old_pfn = current.pfn
                try:
                    new_pfn = kernel.frames.alloc(node, exclude=block)
                except FrameAllocatorError:
                    break  # out of space outside the block; stop this round
                yield from core.execute(lat.page_alloc_ns + lat.page_copy_ns)
                tag = kernel.page_contents.get(old_pfn)
                if tag is not None:
                    kernel.page_contents[new_pfn] = tag
                replaced = {"ok": False}

                def apply_change(mm=mm, vpn=vpn, old=old_pfn, new=new_pfn, replaced=replaced) -> None:
                    live = mm.page_table.walk(vpn)
                    if live is None or not live.present or live.pfn != old:
                        return
                    mm.page_table.set_pte(vpn, Pte(pfn=new, flags=live.flags))
                    replaced["ok"] = True

                vrange = VirtRange.from_pages(vpn, 1)
                done = yield from kernel.coherence.migration_unmap(
                    core, mm, vrange, apply_change
                )
            finally:
                mm.mmap_sem.release()
            kernel.sim.spawn(
                self._free_after(done, old_pfn, new_pfn, replaced), name="compact-free"
            )
            moved += 1
        kernel.stats.counter("compaction.pages_moved").add(moved)
        return moved

    def _free_after(self, done, old_pfn: int, new_pfn: int, replaced) -> Generator:
        yield done
        if replaced["ok"]:
            self.kernel.release_frames([old_pfn])
        else:
            self.kernel.release_frames([new_pfn])
