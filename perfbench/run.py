"""Benchmark entry point.

    python3 perfbench/run.py --workload apache-12c --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each sample boots and drives the workload
in a fresh ``perfbench.worker`` process (one at a time, single-threaded, no
worker pool) so set-up is always measured cold; samples repeat until
``--seconds`` have passed. ``--trace 0`` reports the end-to-end metrics
(medians over the samples); ``--trace 1`` alternates untimed-wrapper and
traced samples and reports the per-layer metrics. Every sample's digests,
counts and checks must agree. Human-readable lines go first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fewest timed samples (and traced ones, with ``--trace 1``) a run takes,
#: however short ``--seconds`` is.
MIN_SAMPLES = 3
MIN_TRACED = 1
#: Upper bound on one worker process (the slowest, a traced apache-12c
#: sample, takes about 20 s on a 2-CPU host).
SAMPLE_TIMEOUT_S = 150

class SampleError(RuntimeError):
    """A worker process that crashed or printed no result."""


def run_worker(workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise SampleError(f"worker timed out after {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SampleError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, traced: bool):
    """Untraced samples (and, when ``traced``, one traced sample after each)
    until ``seconds`` pass and the minimum number of samples exists.
    Returns (untraced, traced, errors)."""
    plain, spans, errors = [], [], []
    deadline = time.monotonic() + seconds
    minimum = MIN_TRACED if traced else MIN_SAMPLES
    while time.monotonic() < deadline or len(plain) < minimum:
        for want_trace in (False, True) if traced else (False,):
            try:
                sample = run_worker(workload, seed, want_trace)
            except SampleError as exc:
                errors.append(str(exc))
                continue
            (spans if want_trace else plain).append(sample)
        if len(errors) >= MIN_SAMPLES:
            break
    return plain, spans, errors


def disagreements(samples: list) -> list:
    """What the samples of one run do not agree on; empty when they agree."""
    problems = []
    for key in ("digest", "legs", "events", "attempted", "model", "mc"):
        values = {json.dumps(s[key], sort_keys=True) for s in samples}
        if len(values) > 1:
            problems.append(f"{key} differs between samples: {sorted(values)}")
    traced = [s for s in samples if s["traced"]]
    if len({json.dumps(s["calls"], sort_keys=True) for s in traced}) > 1:
        problems.append("traced call counts differ between samples")
    return problems


def median(samples: list, key) -> float:
    return statistics.median(key(s) for s in samples)


def end_to_end(plain: list) -> dict:
    return {
        "wall_s": (median(plain, lambda s: s["wall_s"]), "s"),
        "setup_s": (median(plain, lambda s: s["setup_s"]), "s"),
        "peak_rss_mb": (median(plain, lambda s: s["peak_rss_mb"]), "MB"),
    }


def per_layer(plain: list, spans: list) -> dict:
    from perfbench.tracer import LAYERS, TARGETS
    from perfbench.workloads import MODEL_METRICS

    first = plain[0]
    wall = median(plain, lambda s: s["wall_s"])
    out = {
        "sim.events": (first["events"], "count"),
        "sim.ns_per_event": (wall / first["events"] * 1e9 if first["events"] else 0.0, "ns"),
        "trace.overhead_pct": ((median(spans, lambda s: s["wall_s"]) / wall - 1.0) * 100.0, "%"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (median(spans, lambda s: s["self_ns"][layer] / 1e9), "s")
        out[f"{layer}.share_pct"] = (
            median(spans, lambda s: 100.0 * s["self_ns"][layer] / sum(s["self_ns"].values())),
            "%",
        )
    for metric in TARGETS:
        calls = spans[0]["calls"][metric]
        out[f"{metric}.calls"] = (calls, "count")
        out[f"{metric}.ns"] = (
            median(spans, lambda s: s["incl_ns"][metric] / calls) if calls else 0.0,
            "ns",
        )
    sweeps = spans[0]["calls"]["coherence.latr.sweep"]
    out["coherence.latr.sweep.empty_frac"] = (
        spans[0]["empty_sweeps"] / sweeps if sweeps else 0.0,
        "ratio",
    )
    mc = first["mc"]
    out["verify.mc.nodes"] = (mc.get("nodes", 0), "count")
    out["verify.mc.states"] = (mc.get("states", 0), "count")
    out["verify.mc.hash_pruned_frac"] = (mc.get("hash_pruned_frac", 0.0), "ratio")
    for name, unit in MODEL_METRICS.items():
        out[name] = (first["model"].get(name, 0.0), unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import PAPER_REFERENCES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    plain, spans, errors = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    if not plain or (args.trace and not spans):
        print(f"perfbench: no sample completed: {errors}", file=sys.stderr)
        return 1
    samples = plain + spans
    disagree = disagreements(samples)
    attempted = sum(s["attempted"] for s in samples) + len(errors)
    # A sample that crashed is one failed operation; samples that disagree
    # fail every operation of the run.
    failed = attempted if disagree else sum(s["failed"] for s in samples) + len(errors)
    problems = errors + disagree + sorted({c for s in samples for c in s["checks"]})
    if failed and not problems:
        problems.append(f"{failed} of {attempted} modelled operations failed")
    metrics = per_layer(plain, spans) if args.trace else end_to_end(plain)

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} timed samples, {len(spans)} traced")
    for name, digest in sorted(samples[0]["legs"].items()):
        print(f"digest {name} {digest}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} modelled operations)")
    for name, (value, unit) in metrics.items():
        note = PAPER_REFERENCES.get(name, "")
        print(f"{name} {value:.6g} {unit}" + (f"  [{note}]" if note else ""))
    if args.workload != "apache-12c":
        print("model_err_pct: unvalidated (no paper reference for this workload)")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
