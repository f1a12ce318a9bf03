"""Unit tests for machine specs (Table 3) and topology."""

import pytest

from repro.hw.spec import (
    COMMODITY_2S16C,
    FLEET_16S960C,
    LARGE_NUMA_8S120C,
    MachineSpec,
    preset,
)
from repro.hw.cpumask import mask_ids, popcount
from repro.hw.topology import Topology


class TestSpecs:
    def test_table3_commodity(self):
        spec = COMMODITY_2S16C
        assert spec.total_cores == 16
        assert spec.sockets == 2
        assert spec.l1_dtlb_entries == 64
        assert spec.l2_tlb_entries == 1024
        assert spec.llc_mb_per_socket == 20

    def test_table3_large_numa(self):
        spec = LARGE_NUMA_8S120C
        assert spec.total_cores == 120
        assert spec.sockets == 8
        assert spec.cores_per_socket == 15
        assert spec.l2_tlb_entries == 512

    def test_socket_of(self):
        spec = COMMODITY_2S16C
        assert spec.socket_of(0) == 0
        assert spec.socket_of(7) == 0
        assert spec.socket_of(8) == 1
        with pytest.raises(ValueError):
            spec.socket_of(16)

    def test_latr_state_footprint_paper_numbers(self):
        # Paper 4.1: 32 cores -> 136 KB; 192 cores -> 816 KB.
        spec32 = MachineSpec("x", 4, 8, 2.0, 64, 16, 64, 512)
        assert spec32.latr_state_footprint_bytes == 136 * 1024 + 2048 - 2048
        assert spec32.latr_state_footprint_bytes == 32 * 64 * 68
        assert spec32.latr_state_footprint_bytes / 1024 == pytest.approx(136, rel=0.01)
        spec192 = MachineSpec("y", 8, 24, 2.0, 64, 16, 64, 512)
        assert spec192.latr_state_footprint_bytes / 1024 == pytest.approx(816, rel=0.01)

    def test_with_cores_restriction(self):
        six = COMMODITY_2S16C.with_cores(6)
        assert six.total_cores >= 6
        assert six.sockets == 1
        twelve = COMMODITY_2S16C.with_cores(12)
        assert twelve.sockets == 2
        with pytest.raises(ValueError):
            COMMODITY_2S16C.with_cores(17)

    def test_fleet_spec(self):
        spec = FLEET_16S960C
        assert spec.total_cores == 960
        assert spec.sockets == 16
        assert spec.cores_per_socket == 60
        assert preset("fleet-16s960c") is spec

    def test_with_cores_fleet_socket_major_fill(self):
        # 500 cores fills sockets in order: ceil(500/60) = 9 sockets,
        # then ceil(500/9) = 56 cores each (>= the request, the way a
        # taskset-style run rounds to even per-socket populations).
        five_hundred = FLEET_16S960C.with_cores(500)
        assert five_hundred.sockets == 9
        assert five_hundred.cores_per_socket == 56
        assert five_hundred.total_cores == 504
        assert five_hundred.name == "fleet-16s960c@500c"
        # The full fleet is the identity restriction.
        full = FLEET_16S960C.with_cores(960)
        assert full.sockets == 16
        assert full.cores_per_socket == 60
        assert full.total_cores == 960

    def test_with_cores_fleet_invalid_restrictions(self):
        with pytest.raises(ValueError):
            FLEET_16S960C.with_cores(0)
        with pytest.raises(ValueError):
            FLEET_16S960C.with_cores(-1)
        with pytest.raises(ValueError):
            FLEET_16S960C.with_cores(961)

    def test_preset_lookup(self):
        assert preset("commodity-2s16c") is COMMODITY_2S16C
        with pytest.raises(KeyError):
            preset("nope")

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            MachineSpec("bad", 0, 4, 2.0, 64, 16, 64, 512)

    def test_full_flush_threshold_default(self):
        # Linux's 32-page heuristic (paper 6.2.1).
        assert COMMODITY_2S16C.full_flush_threshold == 32

    def test_latr_defaults(self):
        assert COMMODITY_2S16C.latr_states_per_core == 64
        assert COMMODITY_2S16C.latr_state_bytes == 68


class TestTopology:
    def test_two_socket_hops(self):
        topo = Topology(COMMODITY_2S16C)
        assert topo.core_hops(0, 1) == 0
        assert topo.core_hops(0, 8) == 1
        assert topo.max_hops() == 1

    def test_eight_socket_has_two_hop_pairs(self):
        topo = Topology(LARGE_NUMA_8S120C)
        assert topo.max_hops() == 2
        # Ring neighbours are one hop.
        assert topo.socket_hops(0, 1) == 1
        # The diagonal cross link is one hop.
        assert topo.socket_hops(0, 4) == 1
        # Something must be two hops on 8 sockets (paper Figure 7).
        assert topo.socket_hops(0, 2) == 2

    def test_symmetric(self):
        topo = Topology(LARGE_NUMA_8S120C)
        for a in range(8):
            for b in range(8):
                assert topo.socket_hops(a, b) == topo.socket_hops(b, a)

    def test_cores_on_socket(self):
        topo = Topology(COMMODITY_2S16C)
        assert mask_ids(topo.socket_masks[0]) == list(range(8))
        assert mask_ids(topo.socket_masks[1]) == list(range(8, 16))
        fleet = Topology(FLEET_16S960C)
        assert all(popcount(m) == 60 for m in fleet.socket_masks)
        # The socket masks partition the machine.
        assert sum(fleet.socket_masks) == (1 << 960) - 1

    def test_numa_node_is_socket(self):
        topo = Topology(COMMODITY_2S16C)
        assert topo.numa_node_of(9) == 1
