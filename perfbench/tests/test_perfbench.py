"""Tests of the benchmark itself, on shortened workload configs.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads
from perfbench.tracer import Tracer
from perfbench.worker import run_sample
from repro.verify import mc
from repro.workloads.apache import run_apache

ROOT = run.ROOT


@pytest.fixture
def short(monkeypatch):
    """Shrink every workload so a sample takes well under a second."""
    monkeypatch.setitem(workloads.APACHE, "warmup_ms", 1)
    monkeypatch.setitem(workloads.APACHE, "duration_ms", 2)
    monkeypatch.setitem(workloads.FLEET, "duration_ms", 1)
    monkeypatch.setattr(
        workloads, "MC_CONFIG", dataclasses.replace(workloads.MC_CONFIG, scope=mc.McScope(2, 1, 3))
    )


@pytest.fixture
def samples(short):
    """(untraced, traced) samples of every workload, seed 3."""
    return {
        name: (run_sample(name, 3, traced=False), run_sample(name, 3, traced=True))
        for name in workloads.WORKLOADS
    }


def test_traced_run_models_exactly_what_the_untraced_run_models(samples):
    for name, (plain, traced) in samples.items():
        assert plain["legs"] == traced["legs"], name
        assert plain["events"] == traced["events"] > 0, name
        assert plain["model"] == traced["model"], name
        assert run.disagreements([plain, traced]) == [], name


def test_layer_self_times_sum_to_the_traced_wall_time(samples):
    for name, (_plain, traced) in samples.items():
        total = sum(traced["self_ns"].values())
        assert abs(total - traced["root_ns"]) <= 0.01 * traced["root_ns"], name


def test_each_workload_reaches_the_layers_it_is_meant_to_stress(samples):
    calls = {name: traced["calls"] for name, (_plain, traced) in samples.items()}
    assert calls["apache-12c"]["hw.interconnect.multicast_ipi"] > 0
    assert calls["apache-12c"]["kernel.scheduler.run_on"] > 0
    assert calls["fleet-960c"]["coherence.latr.sweep"] > 0
    assert calls["fleet-960c"]["kernel.spawn_thread"] == 96 * 960
    assert calls["mc-4c3p5o"]["snapshot.fork"] > 0
    assert calls["mc-4c3p5o"]["verify.mc.state_hash"] > 0
    for name in ("apache-12c", "fleet-960c"):
        assert calls[name]["snapshot.fork"] == calls[name]["verify.mc.run"] == 0


def test_metric_names_match_benchmark_json(samples):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    plain, traced = samples["fleet-960c"]
    e2e = run.end_to_end([plain])
    layers = run.per_layer([plain], [traced])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", entry["name"])
        unit = (e2e.get(entry["name"]) or layers[entry["name"]])[1]
        assert entry["unit"] == unit, entry["name"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_apache_loop_reproduces_run_apache(short):
    cfg = workloads.APACHE
    sample = run_sample("apache-12c", 5, traced=False)
    for mech in workloads.APACHE_MECHS:
        ref = run_apache(
            mech, machine=cfg["machine"], cores=cfg["cores"], seed=5,
            warmup_ms=cfg["warmup_ms"], duration_ms=cfg["duration_ms"],
        )
        assert sample["model"][f"model.{mech}.kreq_s"] == ref.metric("requests_per_sec") / 1000.0
        assert sample["model"][f"model.{mech}.munmap_ns"] == ref.metric("munmap_us") * 1000.0


def test_wrapped_generators_forward_send_throw_close_and_return():
    tracer = Tracer()

    def inner():
        got = yield "first"
        try:
            yield got * 2
        except KeyError:
            yield "caught"
        return "done"

    gen = tracer._resumes(inner(), "sim.run")
    assert next(gen) == "first"
    assert gen.send(21) == 42
    assert gen.throw(KeyError("k")) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"

    closed = []

    def closing():
        try:
            yield 1
        finally:
            closed.append(True)

    gen = tracer._resumes(closing(), "sim.run")
    next(gen)
    gen.close()
    assert closed == [True]
    assert tracer._stack == []


def test_run_refuses_a_directory_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-4c3p5o", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
