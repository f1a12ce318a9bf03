"""Exhaustive small-scope coherence model checking (``python -m repro mc``).

Enumerates every schedulable interleaving of coherence-relevant actions
(program ops, per-core sweeps, reclaim rounds) at tiny scope, reduced by
sleep-set DPOR and state hashing, with every complete trace checked by
the invariant monitor and a differential oracle over the timer-wheel
engine and the synchronous mechanisms."""

from .executor import McExecutor, McScope, diff_mech_snapshots, racy_free_pages
from .explorer import (
    CellResult,
    Counterexample,
    McConfig,
    McResult,
    check_trace,
    explore_cell,
    merge_cells,
    root_actions,
    run_mc,
)
from .program import KINDS, McOp, generate_program, per_core_programs

__all__ = [
    "CellResult",
    "Counterexample",
    "KINDS",
    "McConfig",
    "McExecutor",
    "McOp",
    "McResult",
    "McScope",
    "check_trace",
    "diff_mech_snapshots",
    "explore_cell",
    "generate_program",
    "merge_cells",
    "per_core_programs",
    "racy_free_pages",
    "root_actions",
    "run_mc",
]
