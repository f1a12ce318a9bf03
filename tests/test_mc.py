"""Tests for the exhaustive small-scope model checker (``repro.verify.mc``).

The checker's own claims are tested here: the DPOR + state-hash reduction
reaches exactly the states brute force reaches, the healthy system's full
small-scope space is clean, every known-bad mutation is caught *within the
enumerated space* with a shrunk replayable counterexample, and sharded
exploration reports byte-identically to the serial DFS.
"""

from dataclasses import replace

import pytest

from repro.sim.engine import Simulator
from repro.verify import MUTATIONS
from repro.verify.mc import (
    KINDS,
    McConfig,
    McExecutor,
    McScope,
    check_trace,
    generate_program,
    merge_cells,
    per_core_programs,
    racy_free_pages,
    root_actions,
    run_mc,
)


def _hashes(result):
    out = set()
    for cell in result.cells:
        out |= cell.state_hashes
    return out


class TestProgram:
    def test_round_robin_shape(self):
        program = generate_program(cores=3, pages=2, ops=7)
        assert len(program) == 7
        assert [op.core for op in program] == [i % 3 for i in range(7)]
        assert [op.page for op in program] == [i % 2 for i in range(7)]
        assert [op.kind for op in program] == [KINDS[i % len(KINDS)] for i in range(7)]
        assert len({op.key for op in program}) == 7

    def test_per_core_partition_preserves_order(self):
        program = generate_program(cores=2, pages=2, ops=6)
        split = per_core_programs(program, cores=2)
        assert sorted(op.idx for ops in split for op in ops) == list(range(6))
        for core, ops in enumerate(split):
            assert all(op.core == core for op in ops)
            assert [op.idx for op in ops] == sorted(op.idx for op in ops)


class TestReductionSoundness:
    def test_reduced_run_reaches_exactly_the_brute_force_states(self):
        scope = McScope(cores=2, pages=2, ops=4)
        brute = run_mc(McConfig(scope=scope, no_reduction=True, differential=False,
                                collect_hashes=True))
        reduced = run_mc(McConfig(scope=scope, differential=False,
                                  collect_hashes=True))
        assert brute.verdict == "ok"
        assert reduced.verdict == "ok"
        assert _hashes(brute) == _hashes(reduced)
        assert reduced.nodes <= brute.nodes
        assert reduced.hash_pruned + reduced.sleep_skipped > 0
        # Unmutated scopes backtrack by snapshot restore, never by replay.
        assert all(c.restores > 0 and c.replays == 0 for c in reduced.cells)


class TestHealthyExploration:
    def test_small_scope_fully_explored_and_clean(self):
        result = run_mc(McConfig(scope=McScope(cores=2, pages=2, ops=4)))
        assert result.verdict == "ok"
        assert not any(c.incomplete for c in result.cells)
        assert result.counterexample is None
        assert sum(c.complete_leaves for c in result.cells) >= 1
        assert result.nodes > len(result.root_actions)

    def test_budget_exhaustion_reports_incomplete(self):
        result = run_mc(
            McConfig(scope=McScope(cores=2, pages=2, ops=4), max_nodes=3,
                     differential=False)
        )
        assert result.verdict == "incomplete"
        assert any(c.incomplete for c in result.cells)

    def test_empty_program_is_trivially_ok(self):
        result = run_mc(McConfig(scope=McScope(cores=2, pages=1, ops=0)))
        assert result.verdict == "ok"

    def test_4c3p5o_exact_work_counts(self):
        """The 4-core/3-page/5-op exploration is pinned exactly. Nodes and
        states move with any change to the reduction or the canonical state
        hash; the simulator event count grows to about 469k if the explorer
        backtracks by prefix replay instead of snapshot restore."""
        events_before = Simulator.total_events_executed
        result = run_mc(
            McConfig(
                scope=McScope(cores=4, pages=3, ops=5),
                differential=False,
                collect_hashes=True,
                stop_on_first=False,
            )
        )
        assert result.verdict == "ok"
        assert Simulator.total_events_executed - events_before == 13_518
        assert result.nodes == 17_681
        assert len(_hashes(result)) == 2_787
        assert all(c.restores > 0 and c.replays == 0 for c in result.cells)


class TestMutationAudit:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutation_caught_exhaustively_and_shrunk(self, mutation):
        config = McConfig(scope=McScope(cores=2, pages=2, ops=5, mutate=mutation))
        result = run_mc(config)
        assert result.verdict == "violation", mutation
        ce = result.counterexample
        assert ce is not None and ce.findings
        assert ce.shrunk is not None
        assert 0 < len(ce.shrunk) <= len(ce.trace)
        # The shrunk trace is a standalone replayable repro.
        assert check_trace(config, ce.shrunk), mutation
        # A mutation may carry state the snapshot layer does not capture,
        # so mutated scopes backtrack by prefix replay, never by restore.
        assert all(c.restores == 0 for c in result.cells), mutation


class TestShardingDeterminism:
    def test_healthy_jobs2_render_byte_identical(self):
        config = McConfig(scope=McScope(cores=2, pages=2, ops=4))
        assert run_mc(config, jobs=1).render() == run_mc(config, jobs=2).render()

    def test_mutated_jobs2_render_byte_identical(self):
        config = McConfig(
            scope=McScope(cores=2, pages=2, ops=5, mutate="reclaim_delay_zero")
        )
        assert run_mc(config, jobs=1).render() == run_mc(config, jobs=2).render()
        # Run to exhaustion, every mutated cell backtracks by replay only.
        exhaustive = run_mc(replace(config, stop_on_first=False, shrink_budget=0))
        assert all(c.restores == 0 and c.replays > 0 for c in exhaustive.cells)

    def test_merge_discards_cells_after_first_failure(self):
        config = McConfig(
            scope=McScope(cores=2, pages=2, ops=5, mutate="skip_sweep_invalidate")
        )
        roots = root_actions(config)
        from repro.verify.mc import explore_cell

        cells = [explore_cell(config, i) for i in range(len(roots))]
        merged = merge_cells(config, roots, cells)
        assert merged.verdict == "violation"
        failing = merged.cells[-1].cell
        assert all(c.cell <= failing for c in merged.cells)


class TestCheckTrace:
    def test_empty_trace_is_clean(self):
        assert check_trace(McConfig(scope=McScope(cores=2, pages=1, ops=2)), ()) == []

    def test_inapplicable_daemon_actions_are_skipped(self):
        # ddmin hands check_trace arbitrary subsequences; daemon actions
        # that are not enabled must be skipped, not flagged as stutters.
        config = McConfig(scope=McScope(cores=2, pages=1, ops=2))
        assert check_trace(config, ("reclaim", "sweep:c0", "reclaim")) == []

    def test_full_healthy_trace_is_clean(self):
        config = McConfig(scope=McScope(cores=2, pages=1, ops=2))
        executor = McExecutor(config.scope)
        trace = []
        while True:
            enabled = executor.enabled_actions()
            if not enabled:
                break
            executor.execute(enabled[0])
            trace.append(enabled[0])
        assert check_trace(config, tuple(trace)) == []


class TestExecutor:
    def test_root_actions_are_a_pure_function_of_scope(self):
        config = McConfig(scope=McScope(cores=3, pages=2, ops=5))
        assert root_actions(config) == root_actions(config)
        assert root_actions(config) == tuple(McExecutor(config.scope).enabled_actions())

    def test_state_hash_stable_across_fresh_boots(self):
        scope = McScope(cores=2, pages=2, ops=4)
        assert McExecutor(scope).state_hash() == McExecutor(scope).state_hash()

    def test_enabled_actions_change_state(self):
        # The stutter detector's precondition: every enabled action must
        # strictly change the canonical state on a healthy system.
        executor = McExecutor(McScope(cores=2, pages=1, ops=3))
        seen = {executor.state_hash()}
        while True:
            enabled = executor.enabled_actions()
            if not enabled:
                break
            executor.execute(enabled[0])
            h = executor.state_hash()
            assert h not in seen
            seen.add(h)


class TestRacyFreeNormalization:
    """Post-free staleness window: after ``madvise`` returns, remote cores
    may legally write through stale TLB entries onto the doomed frame under
    lazy coherence (the write is lost at reclaim, the slot ends absent)
    while synchronous mechanisms refault and end mapped.  The mechanism
    differential masks exactly those slots; ``racy_free_pages`` is the pure
    projection-to-slots function both legs apply."""

    def test_cross_core_touch_after_madvise_is_racy(self):
        keys = ("op:c3:i03:madvise:p0", "op:c0:i04:touch_w:p0")
        assert racy_free_pages(keys) == frozenset({0})

    def test_same_core_touch_is_not_racy(self):
        # The initiator's own TLB is invalidated inside the free op, so
        # its later touches are fully checked.
        keys = ("op:c1:i01:madvise:p2", "op:c1:i05:touch_r:p2")
        assert racy_free_pages(keys) == frozenset()

    def test_mmap_closes_the_staleness_window(self):
        keys = (
            "op:c0:i00:madvise:p1",
            "op:c1:i01:mmap:p1",
            "op:c2:i02:touch_w:p1",
        )
        assert racy_free_pages(keys) == frozenset()

    def test_untouched_freed_slot_is_not_racy(self):
        assert racy_free_pages(("op:c0:i00:madvise:p0",)) == frozenset()

    def test_shrunk_staleness_trace_is_clean(self):
        # Regression: the ddmin-shrunk 4c/3p/7ops counterexample produced
        # by the pre-normalization oracle.  c0 and c2 write p0 through
        # boot-time TLB entries after c3's madvise; the divergence vs the
        # synchronous mechanisms is legal bounded staleness and must be
        # masked.  Also exercises check_trace's drain extension: the
        # replicas must replay the deterministic drain, or the toggle and
        # revheap legs diverge artificially.
        config = McConfig(scope=McScope(cores=4, pages=3, ops=7))
        trace = (
            "op:c3:i03:madvise:p0",
            "op:c0:i00:touch_w:p0",
            "op:c0:i04:migrate:p1",
            "op:c1:i01:munmap:p1",
            "op:c1:i05:mmap:p2",
            "op:c2:i02:touch_r:p2",
            "op:c2:i06:touch_w:p0",
        )
        assert check_trace(config, trace) == []
