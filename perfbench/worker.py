"""One benchmark sample, in a fresh process.

    python3 -m perfbench.worker --workload NAME --seed N --trace 0|1

(run from the checkout root with ``src`` on PYTHONPATH) boots each leg of
the workload cold, drives it once and prints one JSON object: host times,
peak RSS, the modelled outcome's digests and counts, and with ``--trace 1``
the span totals of the traced run.

Host times are normalised to a reference host speed. On a shared host the
speed of one CPU drifts by tens of percent within seconds, and the drift is
not shared with the other CPUs. So a timed phase is paused every
``PAUSE_EVERY_S`` by a timer signal whose handler times a fixed pure-Python
reference loop on the same CPU; each stretch of the phase between two
pauses is scaled by ``REFERENCE_S`` over the mean of the reference times
around it. The handler touches nothing the simulator owns, so the modelled
outcome is the same with or without it. Raw seconds are reported too.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
from time import perf_counter

#: Reference-loop time that defines one normalised second: a phase measured
#: while the loop takes exactly this long reports its raw seconds.
REFERENCE_S = 0.015
#: Host seconds between two re-measurements of the host speed.
PAUSE_EVERY_S = 0.25


def _reference_loop() -> float:
    """Seconds for a fixed mix of integer arithmetic and dict/list churn,
    the two kinds of work the simulator's hot paths are made of."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    table = {}
    for i in range(20_000):
        key = i % 977
        table[key] = table.get(key, 0) + i
        [i, key].append(total)
    return perf_counter() - start


def reference_time() -> float:
    """Median of three reference-loop runs: the host's current speed."""
    return statistics.median(_reference_loop() for _ in range(3))


def timed(fn, pause: bool = True):
    """Run ``fn``; returns (result, raw seconds, normalised seconds).

    With ``pause`` the host speed is re-measured every PAUSE_EVERY_S while
    ``fn`` runs; without, only before and after it (the traced run, whose
    spans must not contain the pauses)."""
    references = [reference_time()]
    stretches = []
    stretch_start = perf_counter()

    def on_timer(signum, frame):
        nonlocal stretch_start
        stretches.append(perf_counter() - stretch_start)
        references.append(reference_time())
        stretch_start = perf_counter()

    if pause:
        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, PAUSE_EVERY_S, PAUSE_EVERY_S)
    stretch_start = perf_counter()
    try:
        result = fn()
    finally:
        if pause:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        stretches.append(perf_counter() - stretch_start)
    references.append(reference_time())
    normalised = sum(
        stretch * REFERENCE_S * 2 / (references[i] + references[i + 1])
        for i, stretch in enumerate(stretches)
    )
    return result, sum(stretches), normalised


def run_sample(workload: str, seed: int, traced: bool) -> dict:
    from repro.sim.engine import Simulator

    from .workloads import WORKLOADS, digest_of

    tracer = None
    if traced:
        from .tracer import Tracer

        tracer = Tracer()
        tracer.install()
    own = tracer.own if tracer is not None else (lambda gen: gen)
    root = tracer.root if tracer is not None else (lambda fn: fn())
    pause = tracer is None
    spec = WORKLOADS[workload]
    out = dict(setup_s=0.0, wall_s=0.0, setup_raw_s=0.0, wall_raw_s=0.0, events=0)
    results = {}
    try:
        for leg in spec.legs(seed):
            gc.collect()
            state, setup_raw, setup_s = timed(lambda: root(leg.setup), pause)
            events = Simulator.total_events_executed
            result, wall_raw, wall_s = timed(lambda: root(lambda: leg.run(state, own)), pause)
            out["events"] += Simulator.total_events_executed - events
            del state
            out["setup_raw_s"] += setup_raw
            out["wall_raw_s"] += wall_raw
            out["setup_s"] += setup_s
            out["wall_s"] += wall_s
            results[leg.name] = result
    finally:
        if tracer is not None:
            tracer.uninstall()
    model = {name: value for r in results.values() for name, value in r.model.items()}
    model.update(spec.derive(model))
    checks = [check for r in results.values() for check in r.checks] + spec.check(model)
    attempted = sum(r.attempted for r in results.values())
    out.update(
        workload=workload,
        seed=seed,
        traced=traced,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        legs={name: r.digest for name, r in results.items()},
        digest=digest_of({name: r.digest for name, r in results.items()}),
        attempted=attempted,
        # A failed check (a leg dying in sim.run, the wrong Fig. 9 shape, an
        # mc finding) fails every modelled operation of the sample.
        failed=attempted if checks else sum(r.failed for r in results.values()),
        checks=checks,
        model=model,
        mc=next((r.mc for r in results.values() if r.mc), {}),
    )
    if tracer is not None:
        out.update(
            root_ns=tracer.root_ns,
            calls=tracer.calls,
            incl_ns=tracer.incl_ns,
            self_ns=tracer.self_ns,
            empty_sweeps=tracer.empty_sweeps,
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run_sample(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
