"""Property-based tests (hypothesis) for the core data structures."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.mm.addr import PAGE_SIZE, VirtRange
from repro.mm.frames import FrameAllocator, FrameAllocatorError
from repro.mm.pagetable import PageTable
from repro.mm.pte import make_present_pte
from repro.mm.vma import Prot, Vma, VmaSet, VmaSetError

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestPageTableVsShadow:
    """The 4-level radix table must behave exactly like a flat dict."""

    @SETTINGS
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["set", "clear", "walk"]),
                st.integers(min_value=0, max_value=(1 << 36) - 1),
                st.integers(min_value=0, max_value=1 << 20),
            ),
            max_size=200,
        )
    )
    def test_matches_dict_model(self, ops):
        pt = PageTable()
        shadow = {}
        for op, vpn, pfn in ops:
            if op == "set":
                pte = make_present_pte(pfn)
                prev = pt.set_pte(vpn, pte)
                assert prev == shadow.get(vpn)
                shadow[vpn] = pte
            elif op == "clear":
                assert pt.clear_pte(vpn) == shadow.pop(vpn, None)
            else:
                assert pt.walk(vpn) == shadow.get(vpn)
        assert len(pt) == len(shadow)
        assert dict(pt.all_entries()) == shadow

    @SETTINGS
    @given(vpns=st.sets(st.integers(min_value=0, max_value=(1 << 36) - 1), max_size=60))
    def test_teardown_prunes_everything(self, vpns):
        pt = PageTable()
        for vpn in vpns:
            pt.set_pte(vpn, make_present_pte(vpn))
        for vpn in vpns:
            pt.clear_pte(vpn)
        assert len(pt) == 0
        assert pt._root == {}


class TestFrameAllocatorProperties:
    @SETTINGS
    @given(
        ops=st.lists(st.sampled_from(["alloc", "get", "put"]), max_size=300),
        nodes=st.integers(min_value=1, max_value=4),
    )
    def test_refcount_conservation(self, ops, nodes):
        """No frame is ever both free and referenced; counts always add up."""
        frames = FrameAllocator(nodes=nodes, frames_per_node=16)
        live = {}  # pfn -> expected refcount
        for op in ops:
            if op == "alloc":
                try:
                    pfn = frames.alloc(node=0)
                except FrameAllocatorError:
                    assert len(live) == frames.total_frames
                    continue
                assert pfn not in live
                live[pfn] = 1
            elif op == "get" and live:
                pfn = next(iter(live))
                frames.get(pfn)
                live[pfn] += 1
            elif op == "put" and live:
                pfn = next(iter(live))
                freed = frames.put(pfn)
                live[pfn] -= 1
                assert freed == (live[pfn] == 0)
                if live[pfn] == 0:
                    del live[pfn]
            # Global invariants after every step:
            assert frames.allocated_count() == len(live)
            assert frames.free_count() == frames.total_frames - len(live)
            for pfn, expected in live.items():
                assert frames.refcount(pfn) == expected

    @SETTINGS
    @given(cycles=st.integers(min_value=1, max_value=30))
    def test_generation_strictly_increases_per_frame(self, cycles):
        frames = FrameAllocator(nodes=1, frames_per_node=1)
        last_gen = -1
        for _ in range(cycles):
            pfn = frames.alloc()
            gen = frames.generation(pfn)
            assert gen > last_gen or last_gen == -1
            last_gen = gen
            frames.put(pfn)


def _ranges(max_page=200):
    return st.tuples(
        st.integers(min_value=0, max_value=max_page),
        st.integers(min_value=1, max_value=20),
    ).map(lambda t: VirtRange.from_pages(t[0], t[1]))


class TestVmaSetProperties:
    @SETTINGS
    @given(ops=st.lists(st.tuples(st.sampled_from(["map", "unmap"]), _ranges()), max_size=60))
    def test_never_overlaps_and_matches_page_model(self, ops):
        """The VMA set must always equal a page-granular shadow set."""
        vmas = VmaSet()
        shadow = set()  # set of mapped vpns
        for op, vrange in ops:
            if op == "map":
                try:
                    vmas.insert(Vma(range=vrange, prot=Prot.rw()))
                except VmaSetError:
                    assert any(v in shadow for v in vrange.vpns())
                    continue
                assert not any(v in shadow for v in vrange.vpns())
                shadow |= set(vrange.vpns())
            else:
                removed = vmas.remove_range(vrange)
                removed_vpns = set()
                for piece in removed:
                    removed_vpns |= set(piece.range.vpns())
                assert removed_vpns == shadow & set(vrange.vpns())
                shadow -= removed_vpns
            # Invariants: sorted, non-overlapping, page model matches.
            mapped = set()
            prev_end = -1
            for vma in vmas:
                assert vma.start >= prev_end
                prev_end = vma.end
                mapped |= set(vma.range.vpns())
            assert mapped == shadow

    @SETTINGS
    @given(vrange=_ranges(), probe=st.integers(min_value=0, max_value=220 * PAGE_SIZE))
    def test_find_agrees_with_contains(self, vrange, probe):
        vmas = VmaSet()
        vmas.insert(Vma(range=vrange, prot=Prot.rw()))
        found = vmas.find(probe)
        if vrange.contains(probe):
            assert found is not None and found.range == vrange
        else:
            assert found is None


class TestSoaQueueVsObjectShadow:
    """The struct-of-arrays LATR queue must be observationally identical to
    a list-based object-model shadow under any post/pull/clear/reclaim
    sequence."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        depth=st.integers(min_value=1, max_value=6),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["post", "clear", "drain", "pull", "reclaim"]),
                st.integers(min_value=0, max_value=1_000),
                st.integers(min_value=0, max_value=7),
            ),
            max_size=120,
        ),
    )
    def test_shadow_models_agree(self, depth, ops):
        from helpers import ShadowLatrQueue, ShadowLatrState

        from repro.coherence.states import LatrFlag, LatrState, LatrStateQueue
        from repro.mm.mmstruct import MmStruct
        from repro.sim.engine import Signal, Simulator

        sim = Simulator()
        mm = MmStruct(sim)
        shadow_q = ShadowLatrQueue(core_id=0, depth=depth)
        soa_q = LatrStateQueue(core_id=0, depth=depth)
        pairs = []  # (shadow state, SoA state), in posting order
        now = 0
        for kind, pick, core in ops:
            now += 1
            if kind == "post":
                cpus = {core, (pick % 8)}
                flag = LatrFlag.FREE if pick % 3 else LatrFlag.MIGRATION
                shadow_s, soa_s = (
                    state_cls(
                        vrange=VirtRange.from_pages(10 + pick % 50, 1 + pick % 4),
                        mm=mm,
                        cpu_bitmask=set(cpus),
                        flag=flag,
                        owner_core=0,
                        posted_at=now,
                        done=Signal(sim),
                    )
                    for state_cls in (ShadowLatrState, LatrState)
                )
                accepted = shadow_q.post(shadow_s)
                assert soa_q.post(soa_s) == accepted
                if accepted:
                    pairs.append((shadow_s, soa_s))
            elif not pairs:
                continue
            else:
                shadow_s, soa_s = pairs[pick % len(pairs)]
                if kind == "clear":
                    assert soa_s.clear_cpu(core, now) == shadow_s.clear_cpu(core, now)
                elif kind == "drain":
                    # Every remaining core sweeps: the state deactivates.
                    for cpu in sorted(shadow_s.cpu_bitmask):
                        assert soa_s.clear_cpu(cpu, now) == shadow_s.clear_cpu(cpu, now)
                elif kind == "pull":
                    shadow_s.pulled_by.add(core)
                    soa_s.pulled_by = soa_s.pulled_by | {core}
                else:
                    shadow_s.reclaimed = True
                    soa_s.reclaimed = True
            assert soa_q.active_count == shadow_q.active_count
            assert soa_q.occupancy() == shadow_q.occupancy()
            assert soa_q.posts == shadow_q.posts
            assert soa_q.full_rejections == shadow_q.full_rejections
            assert [s.slot_idx for s in soa_q.active_states_after(-1)] == [
                s.slot_idx for s in shadow_q.active_states()
            ]
        # Final deep comparison: every state pair ever posted (attached or
        # recycled) agrees on all observable fields.
        for shadow_s, soa_s in pairs:
            assert soa_s.cpu_bitmask == shadow_s.cpu_bitmask
            assert soa_s.pulled_by == shadow_s.pulled_by
            assert soa_s.active == shadow_s.active
            assert soa_s.reclaimed == shadow_s.reclaimed
            assert soa_s.completed_at == shadow_s.completed_at
        assert soa_q.footprint_bytes() == shadow_q.footprint_bytes()
