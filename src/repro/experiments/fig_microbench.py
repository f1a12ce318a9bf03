"""Figures 6, 7, 8: the munmap/shootdown microbenchmark.

Each (core-count|page-count, mechanism) pair is one independent simulated
boot, so the sweeps decompose into run cells executed by the sharded
backend; ``assemble`` re-derives the sweep axes from ``fast`` and folds the
cell results pairwise into the table rows.
"""

from __future__ import annotations

from .runner import ExperimentResult, RunCell, cell_experiment

RUN_MICROBENCH = "repro.workloads.microbench:run_microbench"


def _fig6_cores(fast: bool):
    return (2, 4, 8, 16) if fast else (1, 2, 4, 6, 8, 10, 12, 14, 16)


def _fig7_cores(fast: bool):
    return (15, 60, 120) if fast else (15, 30, 45, 60, 75, 90, 105, 120)


def _fig8_pages(fast: bool):
    return (1, 32, 512) if fast else (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def _core_sweep_cells(exp_id: str, machine: str, core_counts, reps: int, fast: bool):
    cells = []
    for cores in core_counts:
        for mech in ("linux", "latr"):
            cells.append(
                RunCell(
                    exp_id=exp_id,
                    cell_id=f"cores={cores}/{mech}",
                    fn=RUN_MICROBENCH,
                    params=dict(
                        mechanism=mech, machine=machine, cores=cores, pages=1, reps=reps
                    ),
                    fast=fast,
                )
            )
    return cells


def _core_sweep_assemble(core_counts, values) -> ExperimentResult:
    rows = []
    pairs = [values[i : i + 2] for i in range(0, len(values), 2)]
    for cores, (linux, latr) in zip(core_counts, pairs):
        improvement = 100.0 * (1 - latr.metric("munmap_us") / linux.metric("munmap_us"))
        rows.append(
            (
                cores,
                linux.metric("munmap_us"),
                linux.metric("shootdown_us"),
                100.0 * linux.metric("shootdown_fraction"),
                latr.metric("munmap_us"),
                latr.metric("shootdown_us"),
                improvement,
            )
        )
    return ExperimentResult(
        exp_id="",
        title="",
        headers=(
            "cores",
            "linux munmap us",
            "linux shootdown us",
            "linux sd %",
            "latr munmap us",
            "latr shootdown us",
            "latr improvement %",
        ),
        rows=rows,
    )


def fig6_cells(fast: bool = False):
    return _core_sweep_cells("fig6", "commodity-2s16c", _fig6_cores(fast), 20 if fast else 60, fast)


def fig6_assemble(values, fast: bool = False) -> ExperimentResult:
    result = _core_sweep_assemble(_fig6_cores(fast), values)
    result.exp_id = "fig6"
    result.title = "munmap cost vs cores, 1 page, 2-socket/16-core"
    result.paper_expectation = (
        "Linux munmap up to ~8 us at 16 cores with shootdown up to 71.6% of it; "
        "LATR improves munmap by up to 70.8% (to ~2.4 us)"
    )
    return result


def fig7_cells(fast: bool = False):
    return _core_sweep_cells(
        "fig7", "large-numa-8s120c", _fig7_cores(fast), 8 if fast else 25, fast
    )


def fig7_assemble(values, fast: bool = False) -> ExperimentResult:
    result = _core_sweep_assemble(_fig7_cores(fast), values)
    result.exp_id = "fig7"
    result.title = "munmap cost vs cores, 1 page, 8-socket/120-core"
    result.paper_expectation = (
        "Linux >120 us at 120 cores (shootdown up to 82 us / 69.3%), sharp rise "
        "past 3 sockets; LATR <40 us, a 66.7% improvement"
    )
    result.notes = "rise past 45 cores comes from two-hop IPI delivery"
    return result


def fig8_cells(fast: bool = False):
    cells = []
    for pages in _fig8_pages(fast):
        reps = 10 if (fast or pages >= 128) else 40
        for mech in ("linux", "latr"):
            cells.append(
                RunCell(
                    exp_id="fig8",
                    cell_id=f"pages={pages}/{mech}",
                    fn=RUN_MICROBENCH,
                    params=dict(
                        mechanism=mech,
                        machine="commodity-2s16c",
                        cores=16,
                        pages=pages,
                        reps=reps,
                    ),
                    fast=fast,
                )
            )
    return cells


def fig8_assemble(values, fast: bool = False) -> ExperimentResult:
    rows = []
    pairs = [values[i : i + 2] for i in range(0, len(values), 2)]
    for pages, (linux, latr) in zip(_fig8_pages(fast), pairs):
        improvement = 100.0 * (1 - latr.metric("munmap_us") / linux.metric("munmap_us"))
        rows.append(
            (
                pages,
                linux.metric("munmap_us"),
                linux.metric("shootdown_us"),
                latr.metric("munmap_us"),
                latr.metric("shootdown_us"),
                improvement,
            )
        )
    return ExperimentResult(
        exp_id="fig8",
        title="munmap cost vs page count, 16 cores",
        headers=(
            "pages",
            "linux munmap us",
            "linux shootdown us",
            "latr munmap us",
            "latr shootdown us",
            "latr improvement %",
        ),
        rows=rows,
        paper_expectation=(
            "shootdown impact diminishes with pages (Linux full-flushes past 32); "
            "LATR improves 70.8% at 1 page, still 7.5% at 512 pages"
        ),
    )


cell_experiment("fig6", fig6_cells, fig6_assemble)
cell_experiment("fig7", fig7_cells, fig7_assemble)
cell_experiment("fig8", fig8_cells, fig8_assemble)
