"""Command-line entry point: regenerate any paper table or figure.

Examples::

    python -m repro list
    python -m repro fig6
    python -m repro fig9 --fast
    python -m repro all --fast -o results.txt
    python -m repro all --fast --jobs 4
    python -m repro fuzz --seed 7 --ops 500
    python -m repro ci
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from .experiments import available_experiments, run_experiment, run_many

# Tier-1 line-coverage floor enforced by `repro ci` when pytest-cov is
# installed (the `.[dev]` extra). Set to two points below the measured
# suite coverage (see tools/measure_coverage.py); raise it as the suite
# grows, never lower it to paper over a regression.
COVERAGE_FLOOR = 92


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="latr-repro",
        description="Reproduce the tables and figures of 'LATR: Lazy Translation "
        "Coherence' (ASPLOS 2018) on the simulated machine.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig6, tab5), 'all', 'list', 'fuzz', 'mc', "
        "or 'ci'; 'run <id>' is accepted as an alias for '<id>'",
    )
    parser.add_argument(
        "run_target",
        nargs="?",
        default=None,
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced sweeps/durations (for smoke runs and CI)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="run cells on N worker processes (0 = one per CPU); tables are "
        "byte-identical to --jobs 1 (default: 1, fully in-process)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="fuzz: RNG seed for the workload+schedule plan",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=None,
        help="fuzz: operations per plan (default 200); "
        "mc: program length (default 5)",
    )
    parser.add_argument(
        "--mutate",
        default=None,
        help="fuzz/mc: inject a known-bad variant (see `python -m repro "
        "fuzz --mutate help`)",
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=3,
        help="mc: cores in the model-checked scope (1-4)",
    )
    parser.add_argument(
        "--pages",
        type=int,
        default=2,
        help="mc: page slots in the model-checked scope (1-3)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=200_000,
        help="mc: per-cell explored-state budget (deterministic; the run "
        "reports 'incomplete' when hit)",
    )
    parser.add_argument(
        "--no-diff",
        action="store_true",
        help="mc: skip the differential oracle at complete traces",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="also append rendered tables to this file",
    )
    parser.add_argument(
        "--csv-dir",
        default=None,
        help="also write each experiment's rows as <csv-dir>/<id>.csv",
    )
    args = parser.parse_args(argv)

    if args.experiment == "run":
        if args.run_target is None:
            parser.error("'run' needs an experiment id (e.g. 'run slo')")
        args.experiment = args.run_target
    elif args.run_target is not None:
        parser.error(f"unexpected extra argument {args.run_target!r}")

    if args.experiment == "list":
        for exp_id in available_experiments():
            print(exp_id)
        return 0

    if args.experiment == "fuzz":
        return _run_fuzz_command(args)

    if args.experiment == "mc":
        return _run_mc_command(args)

    if args.experiment == "ci":
        return _run_ci_command(args)

    exp_ids = available_experiments() if args.experiment == "all" else [args.experiment]
    sink = open(args.output, "a") if args.output else None
    try:
        if args.jobs != 1:
            # Sharded backend: the union of every experiment's cells goes
            # into one worker pool; tables come back in experiment order,
            # byte-identical to the serial path.
            started = time.time()
            runs = run_many(exp_ids, fast=args.fast, jobs=args.jobs)
            elapsed = time.time() - started
            for run in runs:
                _emit(run.exp_id, run.result, sink, args.csv_dir)
                print(
                    f"[{run.exp_id} done: {len(run.outcomes)} cell(s), "
                    f"{run.cell_seconds:.1f}s cell time]\n"
                )
            total_cells = sum(len(run.outcomes) for run in runs)
            print(
                f"[{total_cells} cells on {args.jobs or 'auto'} jobs "
                f"in {elapsed:.1f}s wall]"
            )
        else:
            for exp_id in exp_ids:
                started = time.time()
                result = run_experiment(exp_id, fast=args.fast)
                elapsed = time.time() - started
                _emit(exp_id, result, sink, args.csv_dir)
                print(f"[{exp_id} done in {elapsed:.1f}s]\n")
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        if sink:
            sink.close()
    return 0


def _emit(exp_id: str, result, sink, csv_dir: Optional[str]) -> None:
    """Print one rendered table and mirror it to the optional sinks."""
    text = result.render()
    print(text)
    if sink:
        sink.write(text + "\n\n")
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
        with open(os.path.join(csv_dir, f"{exp_id}.csv"), "w") as csv_file:
            csv_file.write(result.to_csv())


def _run_fuzz_command(args) -> int:
    """``python -m repro fuzz --seed N --ops M [--fast] [--mutate X]``:
    one differential campaign; exit 0 iff every mechanism is clean."""
    from .verify import MUTATIONS, FuzzConfig, run_fuzz

    if args.mutate is not None and args.mutate not in MUTATIONS:
        print(
            f"unknown mutation {args.mutate!r}; have {', '.join(MUTATIONS)}",
            file=sys.stderr,
        )
        return 2
    ops = 200 if args.ops is None else args.ops
    n_ops = min(ops, 120) if args.fast else ops
    config = FuzzConfig(
        seed=args.seed,
        n_ops=n_ops,
        mutate=args.mutate,
        shrink_budget=30 if args.fast else 60,
    )
    started = time.time()
    report = run_fuzz(config)
    text = report.render()
    print(text)
    print(f"[fuzz done in {time.time() - started:.1f}s]")
    if args.output:
        with open(args.output, "a") as sink:
            sink.write(text + "\n\n")
    return 0 if report.ok else 1


def _run_mc_command(args) -> int:
    """``python -m repro mc --cores N --pages P --ops K [--mutate X]``:
    exhaustively explore every reduced interleaving at a small scope; exit
    0 iff the space is fully explored with zero findings."""
    from .experiments.runner import resolve_jobs
    from .verify import MUTATIONS
    from .verify.mc import McConfig, McScope, run_mc

    if args.mutate is not None and args.mutate not in MUTATIONS:
        print(
            f"unknown mutation {args.mutate!r}; have {', '.join(MUTATIONS)}",
            file=sys.stderr,
        )
        return 2
    ops = 5 if args.ops is None else args.ops
    if not (1 <= args.cores <= 4 and 1 <= args.pages <= 3 and 0 <= ops <= 10):
        print(
            "mc is a small-scope exhaustive checker: --cores 1-4, --pages 1-3, "
            f"--ops 0-10 (got cores={args.cores} pages={args.pages} ops={ops})",
            file=sys.stderr,
        )
        return 2
    config = McConfig(
        scope=McScope(
            cores=args.cores, pages=args.pages, ops=ops, mutate=args.mutate
        ),
        max_nodes=args.budget,
        differential=not args.no_diff,
    )
    started = time.time()
    result = run_mc(config, jobs=resolve_jobs(args.jobs) if args.jobs != 1 else 1)
    text = result.render()
    print(text)
    print(f"[mc done in {time.time() - started:.1f}s]")
    if args.output:
        with open(args.output, "a") as sink:
            sink.write(text + "\n\n")
    return 0 if result.verdict == "ok" else 1


def _numapte_smoke() -> int:
    """numaPTE gate: replication eliminates remote hardware walks and
    actually fans out updates; the ``use_pt_replication`` escape hatch
    degenerates to the Linux baseline byte-identically; and the
    broken-replica mutation is caught by both the continuous invariant
    monitor (fuzz leg) and the model checker's mutation audit."""
    from .verify import generate_plan, mutation_spec, run_one
    from .verify.mc import McConfig, McScope, run_mc

    plan = generate_plan(1, 60)
    on = run_one("numapte", plan)
    if not on.clean:
        print("numapte-smoke: replicated run had findings", file=sys.stderr)
        return 1
    summary = on.stats_summary
    if summary.get("count.pt.walk.remote", 0):
        print("numapte-smoke: remote hardware walks survived replication", file=sys.stderr)
        return 1
    if not summary.get("count.pt.replica.updates", 0):
        print("numapte-smoke: no replica fan-out happened", file=sys.stderr)
        return 1
    off = run_one("numapte", plan, use_pt_replication=False)
    base = run_one("linux", plan)
    if off.stats_summary != base.stats_summary or off.snapshot != base.snapshot:
        print(
            "numapte-smoke: use_pt_replication=False is not byte-identical "
            "to the single-table baseline",
            file=sys.stderr,
        )
        return 1
    mutation = mutation_spec("broken_replica")
    bad = run_one("latr", plan, mutate=mutation.name)
    if not any(v.check == "replica_coherence" for v in bad.violations):
        print("numapte-smoke: monitor missed the broken_replica mutation", file=sys.stderr)
        return 1
    audit = run_mc(
        McConfig(scope=McScope(cores=2, pages=2, ops=5, mutate=mutation.name))
    )
    if audit.verdict != "violation":
        print(
            f"numapte-smoke: mc audit missed broken_replica "
            f"(verdict {audit.verdict})",
            file=sys.stderr,
        )
        return 1
    print(
        f"numapte ok: {int(summary['count.pt.walk.local'])} local walks, "
        f"0 remote, {int(summary['count.pt.replica.updates'])} replica "
        f"updates; escape hatch byte-identical; broken_replica caught by "
        f"monitor and mc"
    )
    return 0


def _virt_smoke() -> int:
    """Two-level translation gate: a virtualized run actually pays 2D
    walks and host-level (EPT) invalidations and stays invariant-clean
    (HATRIC included); the ``use_virtualization`` escape hatch is
    byte-identical to the flat baseline; and the broken-EPT-shootdown
    mutation is caught by both the continuous invariant monitor (fuzz
    leg) and the model checker's mutation audit."""
    from .verify import generate_plan, mutation_spec, run_one
    from .verify.mc import McConfig, McScope, run_mc

    plan = generate_plan(1, 60)
    on = run_one("linux", plan, use_virtualization=True)
    if not on.clean:
        print("virt-smoke: virtualized run had findings", file=sys.stderr)
        return 1
    summary = on.stats_summary
    if not summary.get("count.virt.walk.2d", 0) or not summary.get(
        "count.virt.host_inval.entries", 0
    ):
        print(
            "virt-smoke: virtualized run paid no 2D walks or no host "
            "invalidations",
            file=sys.stderr,
        )
        return 1
    hat = run_one("hatric", plan, use_virtualization=True)
    if not hat.clean:
        print("virt-smoke: virtualized hatric run had findings", file=sys.stderr)
        return 1
    if not hat.stats_summary.get("count.virt.host_inval.entries", 0):
        print("virt-smoke: hatric snooped no host invalidations", file=sys.stderr)
        return 1
    off = run_one("linux", plan, use_virtualization=False)
    base = run_one("linux", plan)
    if off.stats_summary != base.stats_summary or off.snapshot != base.snapshot:
        print(
            "virt-smoke: use_virtualization=False is not byte-identical "
            "to the flat baseline",
            file=sys.stderr,
        )
        return 1
    if any(k.startswith("count.virt.") for k in off.stats_summary):
        print(
            "virt-smoke: flat run carries virt.* counters", file=sys.stderr
        )
        return 1
    mutation = mutation_spec("broken_ept_shootdown")
    bad = run_one("latr", plan, mutate=mutation.name)
    if not any(v.check == "ept_coherence" for v in bad.violations):
        print(
            "virt-smoke: monitor missed the broken_ept_shootdown mutation",
            file=sys.stderr,
        )
        return 1
    audit = run_mc(
        McConfig(scope=McScope(cores=2, pages=2, ops=5, mutate=mutation.name))
    )
    if audit.verdict != "violation":
        print(
            f"virt-smoke: mc audit missed broken_ept_shootdown "
            f"(verdict {audit.verdict})",
            file=sys.stderr,
        )
        return 1
    print(
        f"virt ok: {int(summary['count.virt.walk.2d'])} 2D walks, "
        f"{int(summary['count.virt.host_inval.entries'])} host invalidations, "
        f"hatric clean; escape hatch byte-identical; broken_ept_shootdown "
        f"caught by monitor and mc"
    )
    return 0


#: perfbench's seed-1 leg digests (hashes of each leg's stats summary, or
#: of the mc verdict/nodes/state set). A change that only makes the
#: simulator faster must leave every one of them unchanged; a change that
#: alters the model updates this table and says why.
PINNED_DIGESTS = {
    "apache-linux": "a4a405e4e2fa5696",
    "apache-abis": "d614b75dcf5894ed",
    "apache-latr": "f0f2d5f3b53688f5",
    "fleet-latr": "484e37e1d115ea33",
    "mc": "4ba7aecc95797ac2",
}


def perfbench_digests(stdout: str) -> Dict[str, str]:
    """The ``digest <leg> <hex>`` lines of one perfbench run, by leg."""
    digests = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0] == "digest":
            digests[fields[1]] = fields[2]
    return digests


def perfbench_problem(stdout: str) -> Optional[str]:
    """Why one seed-1 ``perfbench/run.py`` run failed, or None for a correct
    run with no failed operation whose digests match :data:`PINNED_DIGESTS`.
    Correctness is read from the last line (the JSON result): ``run.py``
    exits 0 on an ``INCORRECT:`` run too, so the exit code alone proves
    nothing."""
    for leg, digest in perfbench_digests(stdout).items():
        pinned = PINNED_DIGESTS.get(leg)
        if pinned is None:
            return f"digest {leg} has no pinned value"
        if digest != pinned:
            return f"digest {leg} is {digest}, pinned {pinned}"
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        return "no JSON result line"
    if result.get("correct") is not True:
        return "result is not correct"
    if result.get("failed", 0) > 0:
        return f"{result['failed']} of {result.get('attempted')} operations failed"
    return None


def _perfbench_smoke(repo_root: str, env) -> int:
    """Benchmark gate: perfbench's own tests, then one short seed-1 run of
    every workload ``BENCHMARK.json`` names, each checked by
    :func:`perfbench_problem` (digest agreement across samples and with
    :data:`PINNED_DIGESTS`, Fig. 9 shape, fleet sweeps, mc verdict). Every
    pinned leg must have been reported."""
    import subprocess

    code = subprocess.call(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q"],
        cwd=repo_root,
        env=env,
    )
    if code != 0:
        return code
    with open(os.path.join(repo_root, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    seen = set()
    for workload in workloads:
        argv = [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ]
        proc = subprocess.run(argv, cwd=repo_root, env=env, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        problem = f"exit {proc.returncode}" if proc.returncode else perfbench_problem(proc.stdout)
        if problem:
            print(f"perfbench {workload}: {problem}", file=sys.stderr)
            return 1
        seen |= perfbench_digests(proc.stdout).keys()
    missing = sorted(PINNED_DIGESTS.keys() - seen)
    if missing:
        print(f"perfbench: no digest reported for {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


def _run_ci_command(args) -> int:
    """``python -m repro ci``: the full local gate -- tier-1 pytest (which
    includes the snapshot-vs-replay differential of
    ``tests/test_snapshot.py``), a small exhaustive mc scope, the numaPTE
    smoke (replication/escape-hatch/mutation-audit gate), the virt smoke
    (two-level translation: 2D-walk/host-invalidation accounting,
    escape-hatch byte-identity, broken-EPT-shootdown mutation audit), a
    parallel fast-mode smoke of every experiment, and the perfbench
    correctness step (:func:`_perfbench_smoke`). Exits non-zero on the
    first failure.

    Needs a source checkout (it locates ``tests/`` and ``perfbench/`` next
    to ``src/``)."""
    import subprocess

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    repo_root = os.path.dirname(src_dir)
    started = time.time()

    def step(label: str, runner) -> int:
        step_start = time.time()
        print(f"ci: {label} ...", flush=True)
        code = runner()
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"ci: {label}: {status} [{time.time() - step_start:.1f}s]", flush=True)
        return code

    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    def tier1() -> int:
        import importlib.util

        argv = [sys.executable, "-m", "pytest", "-x", "-q"]
        if importlib.util.find_spec("pytest_cov") is not None:
            # Coverage gate rides along wherever the dev extras are
            # installed; environments without pytest-cov still run the
            # plain suite.
            argv += [
                "--cov=repro",
                "--cov-report=term",
                f"--cov-fail-under={COVERAGE_FLOOR}",
            ]
        return subprocess.call(argv, cwd=repo_root, env=env)

    steps = [
        ("tier-1 pytest", tier1),
        (
            "repro mc --cores 2 --pages 2 --ops 4",
            lambda: main(["mc", "--cores", "2", "--pages", "2", "--ops", "4"]),
        ),
        ("numapte-smoke", _numapte_smoke),
        ("virt-smoke", _virt_smoke),
        ("repro all --fast --jobs 2", lambda: main(["all", "--fast", "--jobs", "2"])),
        ("perfbench", lambda: _perfbench_smoke(repo_root, env)),
    ]
    for label, runner in steps:
        code = step(label, runner)
        if code != 0:
            print(f"ci: FAILED at '{label}' [{time.time() - started:.1f}s total]")
            return code
    print(f"ci: all gates passed [{time.time() - started:.1f}s total]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
