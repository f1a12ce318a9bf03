"""Machine assembly: spec + topology + cores + interconnect + LLC."""

from __future__ import annotations

from typing import List, Optional

from ..sim.engine import Simulator
from ..sim.stats import StatsRegistry
from .cache import LlcModel
from .core import Core
from .cpumask import mask_ids
from .interconnect import Interconnect
from .latency import DEFAULT_LATENCY, LatencyModel
from .spec import MachineSpec
from .tlb import Tlb
from .topology import Topology


class Machine:
    """A simulated NUMA machine ready to host a kernel."""

    def __init__(
        self,
        sim: Simulator,
        spec: MachineSpec,
        latency: Optional[LatencyModel] = None,
        stats: Optional[StatsRegistry] = None,
        pcid_enabled: bool = False,
    ):
        self.sim = sim
        self.spec = spec
        self.latency = latency or DEFAULT_LATENCY
        self.stats = stats or StatsRegistry(sim)
        self.pcid_enabled = pcid_enabled
        self.topology = Topology(spec)
        #: Bitmask of the cores in lazy-TLB idle mode (``Core.enter_idle``
        #: sets a core's bit, ``Core.exit_idle`` clears it).
        self.lazy_mask = 0
        self.cores: List[Core] = [
            Core(
                core_id=c,
                socket=spec.socket_of(c),
                sim=sim,
                tlb=Tlb(spec.l1_dtlb_entries, pcid_enabled=pcid_enabled),
                machine=self,
            )
            for c in range(spec.total_cores)
        ]
        self.interconnect = Interconnect(sim, self.topology, self.latency, self.stats)
        self.llc = LlcModel(sim, spec, self.stats)

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]

    @property
    def n_cores(self) -> int:
        return self.spec.total_cores

    def cores_in(self, mask: int) -> List[Core]:
        """The cores whose bits are set in ``mask``, in ascending id order."""
        cores = self.cores
        return [cores[c] for c in mask_ids(mask)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Machine {self.spec.name}: {self.n_cores} cores / {self.spec.sockets} sockets>"
