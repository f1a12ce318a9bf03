"""Replay-vs-restore differential: snapshots must be invisible.

The snapshot/fork machinery (``repro.snapshot``) is a pure optimization --
warm-boot pools for the fuzzer and O(1) backtracking for the model
checker. These tests are the gate that keeps it byte-identical to the
references it replaced: cold boots for the fuzzer, prefix replay for the
model checker. Both references are built here, from the same public
pieces the production paths use.
"""

import pytest

from repro.snapshot import BootPool
from repro.verify import FuzzConfig, generate_plan, run_fuzz, run_one
from repro.verify.mc import McConfig, McScope, merge_cells, root_actions, run_mc
from repro.verify.mc.explorer import _CellExplorer


def _observables(res):
    """Everything a fuzz run reports about the world it drove."""
    return (
        res.snapshot,
        res.stats_summary,
        [str(v) for v in res.violations],
        res.errors,
        res.ops_executed,
        res.sim_time_ns,
    )


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_fuzz_differential_snapshots_vs_cold_boot(seed):
    """Every mechanism's pooled run must equal a cold boot of the same plan:
    the campaign's own first boots, and a second pooled run that restores
    the post-boot snapshot after a dirty run of a shorter plan (the shrink
    loop's pattern)."""
    report = run_fuzz(FuzzConfig(seed=seed, n_ops=40, shrink=False))
    assert report.ok
    assert report.warm_boots > 0
    plan = generate_plan(seed, 40)
    pool = BootPool()
    for name, warm in report.results.items():
        cold = _observables(run_one(name, plan, pool=None))
        assert _observables(warm) == cold, name
        run_one(name, plan.with_ops(plan.ops[:20]), pool=pool)
        restored = run_one(name, plan, pool=pool)
        assert _observables(restored) == cold, name
    assert pool.restores == len(report.results)


def _explored(cells):
    hashes = set()
    for cell in cells:
        hashes |= set(cell.state_hashes)
    return sum(cell.nodes for cell in cells), hashes


def test_mc_snapshot_explorer_reduction_soundness():
    """The snapshot explorer must visit exactly the canonical state set a
    prefix-replay explorer visits at 3c/2p/5ops -- DPOR pruning decisions
    (visited-set, sleep sets, stutter detection) all key off state hashes,
    so a single divergent hash would silently change the reduction."""
    config = McConfig(
        scope=McScope(cores=3, pages=2, ops=5),
        differential=False,
        collect_hashes=True,
        stop_on_first=False,
    )
    snap = run_mc(config)
    roots = root_actions(config)
    replay_cells = []
    for i, root in enumerate(roots):
        explorer = _CellExplorer(config, i, root, roots[:i])
        explorer.use_snapshots = False  # the reference: cold-boot prefix replay
        replay_cells.append(explorer.run())
    replay = merge_cells(config, roots, replay_cells)
    assert snap.verdict == replay.verdict == "ok"
    assert _explored(snap.cells) == _explored(replay.cells)
    # The legs must actually be different mechanisms: the snapshot leg
    # backtracks via restore() only, the replay leg via prefix replay only.
    assert sum(c.restores for c in snap.cells) > 0
    assert sum(c.replays for c in snap.cells) == 0
    assert sum(c.replays for c in replay.cells) > 0
    assert sum(c.restores for c in replay.cells) == 0
