"""Unit tests for the TLB model."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.hw.tlb import HUGE_SPAN, NO_PCID, Tlb, TlbEntry, entry_pfn

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def fill(tlb, vpn, pcid=1, pfn=None):
    tlb.fill(pcid, vpn, TlbEntry(pfn=pfn if pfn is not None else vpn + 1000))


class TestLookupFill:
    def test_miss_then_hit(self):
        tlb = Tlb(capacity=4)
        assert tlb.lookup(1, 0x10) is None
        fill(tlb, 0x10)
        entry = tlb.lookup(1, 0x10)
        assert entry is not None and entry_pfn(entry) == 0x10 + 1000
        assert tlb.hits == 1 and tlb.misses == 1

    def test_lru_eviction(self):
        tlb = Tlb(capacity=2)
        fill(tlb, 1)
        fill(tlb, 2)
        tlb.lookup(1, 1)  # refresh 1; 2 becomes LRU
        fill(tlb, 3)
        assert tlb.peek(1, 2) is None
        assert tlb.peek(1, 1) is not None
        assert tlb.evictions == 1

    def test_refill_updates_entry(self):
        tlb = Tlb(capacity=2)
        fill(tlb, 1, pfn=10)
        fill(tlb, 1, pfn=20)
        assert len(tlb) == 1
        assert tlb.peek(1, 1).pfn == 20

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tlb(capacity=0)

    def test_peek_does_not_count(self):
        tlb = Tlb(capacity=2)
        fill(tlb, 1)
        tlb.peek(1, 1)
        tlb.peek(1, 99)
        assert tlb.hits == 0 and tlb.misses == 0


class TestInvalidation:
    def test_invalidate_page(self):
        tlb = Tlb(capacity=4)
        fill(tlb, 5)
        assert tlb.invalidate_page(1, 5)
        assert not tlb.invalidate_page(1, 5)
        assert tlb.invalidations == 1

    def test_invalidate_range(self):
        tlb = Tlb(capacity=8)
        for vpn in range(6):
            fill(tlb, vpn)
        dropped = tlb.invalidate_range(1, 2, 5)
        assert dropped == 3
        assert tlb.peek(1, 1) is not None
        assert tlb.peek(1, 3) is None
        assert tlb.peek(1, 5) is not None

    def test_flush_all(self):
        tlb = Tlb(capacity=8)
        for vpn in range(4):
            fill(tlb, vpn)
        count = tlb.flush()
        assert count == 4
        assert len(tlb) == 0
        assert tlb.full_flushes == 1


class TestPcid:
    def test_without_pcid_all_processes_collide(self):
        tlb = Tlb(capacity=8, pcid_enabled=False)
        fill(tlb, 7, pcid=1, pfn=100)
        # Another process's fill for the same vpn overwrites.
        fill(tlb, 7, pcid=2, pfn=200)
        assert entry_pfn(tlb.lookup(1, 7)) == 200

    def test_with_pcid_entries_are_tagged(self):
        tlb = Tlb(capacity=8, pcid_enabled=True)
        fill(tlb, 7, pcid=1, pfn=100)
        fill(tlb, 7, pcid=2, pfn=200)
        assert entry_pfn(tlb.lookup(1, 7)) == 100
        assert entry_pfn(tlb.lookup(2, 7)) == 200

    def test_pcid_scoped_flush(self):
        tlb = Tlb(capacity=8, pcid_enabled=True)
        fill(tlb, 1, pcid=1)
        fill(tlb, 2, pcid=2)
        dropped = tlb.flush(pcid=1)
        assert dropped == 1
        assert tlb.peek(2, 2) is not None

    def test_pcid_scoped_range_invalidate(self):
        tlb = Tlb(capacity=8, pcid_enabled=True)
        fill(tlb, 3, pcid=1)
        fill(tlb, 3, pcid=2)
        assert tlb.invalidate_range(1, 0, 10) == 1
        assert tlb.peek(2, 3) is not None

    def test_no_pcid_flush_with_pcid_arg_flushes_all(self):
        tlb = Tlb(capacity=8, pcid_enabled=False)
        fill(tlb, 1, pcid=1)
        fill(tlb, 2, pcid=2)
        assert tlb.flush(pcid=1) == 2


_TLB_OPS = st.lists(
    st.tuples(
        # Fill-heavy, so the small test arrays overflow and evict.
        st.sampled_from(
            ["fill"] * 4
            + ["fill_huge", "lookup", "lookup", "inv_page", "inv_range", "flush_pcid", "flush_all"]
        ),
        st.integers(min_value=1, max_value=3),  # pcid
        # vpn / range start: a dense cluster (range edges land on resident
        # entries) or anywhere across four huge spans.
        st.integers(min_value=0, max_value=24) | st.integers(min_value=0, max_value=4 * HUGE_SPAN),
        # range width: narrow or spanning huge pages.
        st.integers(min_value=1, max_value=12) | st.integers(min_value=1, max_value=2 * HUGE_SPAN),
    ),
    max_size=200,
)


class ScanTlbModel:
    """Reference TLB: one insertion-ordered dict per array keyed
    ``(pcid, vpn)`` (LRU refresh = pop + reinsert); range invalidations
    and pcid flushes scan every resident entry instead of an index."""

    def __init__(self, capacity, pcid_enabled, huge_capacity):
        self.pcid_enabled = pcid_enabled
        self.small, self.huge = {}, {}
        self.arrays = ((self.small, capacity, 1), (self.huge, huge_capacity, HUGE_SPAN))
        self.counts = dict.fromkeys(
            ("hits", "misses", "invalidations", "full_flushes", "evictions"), 0
        )

    def _pcid(self, pcid):
        return pcid if self.pcid_enabled else NO_PCID

    def _fill(self, array, pcid, vpn, entry):
        table, limit, _span = self.arrays[array]
        key = (self._pcid(pcid), vpn)
        table.pop(key, None)
        table[key] = entry
        while len(table) > limit:
            del table[next(iter(table))]
            self.counts["evictions"] += 1

    def fill(self, pcid, vpn, entry):
        self._fill(0, pcid, vpn, entry)

    def fill_huge(self, pcid, base, entry):
        self._fill(1, pcid, base, entry)

    def _find(self, pcid, vpn):
        for table, _limit, span in self.arrays:
            key = (self._pcid(pcid), vpn - vpn % span)
            if key in table:
                return table, key
        return None, None

    def lookup(self, pcid, vpn):
        table, key = self._find(pcid, vpn)
        self.counts["misses" if table is None else "hits"] += 1
        if table is None:
            return None
        table[key] = table.pop(key)
        return table[key]

    def invalidate_page(self, pcid, vpn):
        table, key = self._find(pcid, vpn)
        if table is None:
            return False
        del table[key]
        self.counts["invalidations"] += 1
        return True

    def _drop(self, doomed):
        victims = [(t, k) for t, _limit, span in self.arrays for k in t if doomed(k, span)]
        for table, key in victims:
            del table[key]
        return len(victims)

    def invalidate_range(self, pcid, start, end):
        pcid = self._pcid(pcid)
        dropped = self._drop(
            lambda key, span: key[0] == pcid and key[1] < end and key[1] + span > start
        )
        self.counts["invalidations"] += dropped
        return dropped

    def flush(self, pcid=None):
        self.counts["full_flushes"] += 1
        if pcid is None or not self.pcid_enabled:
            return self._drop(lambda key, span: True)
        return self._drop(lambda key, span: key[0] == pcid)

    def stats(self):
        return {**self.counts, "resident": len(self.small)}


def _first_divergence(tlb, model, ops):
    """Replay ``ops`` on both; the first disagreement, or None."""
    for step, (op, pcid, vpn, width) in enumerate(ops):
        results = []
        for target in (tlb, model):
            if op == "fill":
                results.append(target.fill(pcid, vpn, TlbEntry(pfn=vpn + 7)))
            elif op == "fill_huge":
                base = vpn - vpn % HUGE_SPAN
                results.append(target.fill_huge(pcid, base, TlbEntry(pfn=base + 9)))
            elif op == "lookup":
                hit = target.lookup(pcid, vpn)
                if hit is not None:
                    hit = hit.pfn if target is model else entry_pfn(hit)
                results.append(hit)
            elif op == "inv_page":
                results.append(target.invalidate_page(pcid, vpn))
            elif op == "inv_range":
                results.append(target.invalidate_range(pcid, vpn, vpn + width))
            elif op == "flush_pcid":
                results.append(target.flush(pcid))
            else:
                results.append(target.flush())
        if results[0] != results[1]:
            return (step, op, pcid, vpn, width, results)
    if tlb.items() != list(model.small.items()):
        return "resident 4 KiB entries"
    if tlb.huge_items() != list(model.huge.items()):
        return "resident 2 MiB entries"
    if tlb.stats() != model.stats():
        return "stats"
    for pcid in (1, 2, 3):
        expected = sorted(vpn for p, vpn in model.small if p == model._pcid(pcid))
        if list(tlb.cached_vpns(pcid)) != expected:
            return f"cached_vpns({pcid})"
    return None


class TestIndexedVsScan:
    """The per-pcid secondary index is a pure lookup accelerator: every
    operation must return what a scanning dict model returns and leave the
    same externally observable state -- including huge-page entries whose
    512-page span partially overlaps a range."""

    @SETTINGS
    @given(ops=_TLB_OPS, pcid_enabled=st.booleans())
    def test_matches_scan_model(self, ops, pcid_enabled):
        # Small arrays, so LRU evictions are common.
        tlb = Tlb(capacity=8, pcid_enabled=pcid_enabled, huge_capacity=4)
        model = ScanTlbModel(capacity=8, pcid_enabled=pcid_enabled, huge_capacity=4)
        assert _first_divergence(tlb, model, ops) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scan_model_long_replay(self, seed):
        # Long seeded op streams reach what short hypothesis examples
        # rarely do: full arrays, LRU churn, range edges on resident entries.
        rng = random.Random(seed)
        kinds = ["fill"] * 4 + ["fill_huge", "lookup", "lookup", "inv_page", "inv_range"]
        flushes = ["flush_pcid", "flush_all"]
        ops = [
            (
                rng.choice(flushes if rng.random() < 0.05 else kinds),
                rng.randint(1, 3),
                rng.randint(0, 24) if rng.random() < 0.7 else rng.randint(0, 4 * HUGE_SPAN),
                rng.randint(1, 12) if rng.random() < 0.7 else rng.randint(1, 2 * HUGE_SPAN),
            )
            for _ in range(600)
        ]
        pcid_enabled = seed % 2 == 0
        tlb = Tlb(capacity=8, pcid_enabled=pcid_enabled, huge_capacity=4)
        model = ScanTlbModel(capacity=8, pcid_enabled=pcid_enabled, huge_capacity=4)
        assert _first_divergence(tlb, model, ops) is None

    def test_scan_model_catches_index_desync(self):
        # The tlb_index_desync mutation hides every second fill from the
        # per-pcid index; the range invalidation then misses it.
        from types import SimpleNamespace

        from repro.verify.mutations import desync_tlb_index

        tlb = Tlb(capacity=32, pcid_enabled=True, huge_capacity=8)
        desync_tlb_index(SimpleNamespace(cores=[SimpleNamespace(tlb=tlb)]))
        model = ScanTlbModel(capacity=32, pcid_enabled=True, huge_capacity=8)
        ops = [("fill", 1, 3, 1), ("fill", 1, 4, 1), ("inv_range", 1, 0, 16)]
        assert _first_divergence(tlb, model, ops) == (
            2, "inv_range", 1, 0, 16, [1, 2]
        )

    @SETTINGS
    @given(
        base=st.integers(min_value=0, max_value=3 * HUGE_SPAN),
        start=st.integers(min_value=0, max_value=4 * HUGE_SPAN),
        width=st.integers(min_value=1, max_value=2 * HUGE_SPAN),
    )
    def test_huge_overlap_boundaries(self, base, start, width):
        # A huge entry covers [base, base + HUGE_SPAN); it must drop iff
        # that span intersects [start, start + width).
        base -= base % HUGE_SPAN
        tlb = Tlb(capacity=8, pcid_enabled=True)
        model = ScanTlbModel(capacity=8, pcid_enabled=True, huge_capacity=32)
        ops = [("fill_huge", 1, base, 1), ("inv_range", 1, start, width)]
        assert _first_divergence(tlb, model, ops) is None
        overlaps = base < start + width and base + HUGE_SPAN > start
        assert len(tlb.huge_items()) == (0 if overlaps else 1)


class TestAccessors:
    def test_cached_vpns(self):
        tlb = Tlb(capacity=8)
        for vpn in (1, 5, 9):
            fill(tlb, vpn)
        assert sorted(tlb.cached_vpns(1)) == [1, 5, 9]

    def test_items_and_stats(self):
        tlb = Tlb(capacity=8)
        fill(tlb, 1)
        items = tlb.items()
        assert len(items) == 1
        ((pcid, vpn), entry), = items
        assert pcid == NO_PCID and vpn == 1
        stats = tlb.stats()
        assert stats["resident"] == 1
