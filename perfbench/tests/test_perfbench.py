"""Self-tests of the benchmark: tracing is a pure read, patches are
undone, the layer map still names live code, and seeds behave.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import pkgutil
import sys
from pathlib import Path

import layers
import pytest
import workloads as wl

BENCH = Path(__file__).resolve().parents[1]


def tiny_packet_config():
    from repro.core.config import ExperimentConfig, SimConfig

    return ExperimentConfig(sim=SimConfig(warmup=5e-4, duration=1e-3))


def traced(fn, *args):
    tracer = layers.Tracer()
    tracer.install()
    try:
        tracer.start()
        result = fn(*args)
        tracer.stop()
    finally:
        tracer.uninstall()
    return tracer, result


def attribute_state():
    """Every attribute of every repro module and of every class they
    define, by identity."""
    state = {}
    for name in layers.repro_modules():
        module = sys.modules[name]
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for key, raw in vars(value).items():
                    state[(name, value.__qualname__, key)] = raw
    return state


def test_traced_packet_run_equals_untraced():
    from repro.core.experiment import run_experiment

    config = tiny_packet_config()
    plain = wl.digest(run_experiment(config))
    tracer, result = traced(run_experiment, config)
    assert wl.digest(result) == plain
    assert tracer.events > 0
    for layer in ("sim.engine", "host.nic", "host.iommu", "host.iotlb",
                  "host.pagetable", "host.pcie", "host.memory",
                  "host.cpu", "host.llc", "transport", "net",
                  "core.topology", "core.experiment"):
        assert tracer.calls[layer] > 0, layer
    assert len(tracer.handles) == 1


def test_traced_fluid_sweep_equals_untraced():
    inputs = wl.setup("fluid_sweep", 5)
    inputs.specs = inputs.specs[:3]
    plain = wl.digests(wl.run_pass(inputs)[0])
    tracer, (outputs, _) = traced(wl.run_pass, inputs)
    assert wl.digests(outputs) == plain
    assert tracer.fn_calls["repro.sim.fluid:FluidSolver.step"] > 0
    assert tracer.calls["core.scenario"] > 0


def small_fleet():
    from repro.workload.fleet import FleetSampler

    return FleetSampler(seed=11, warmup=1e-3, duration=2e-3,
                        fidelity="fluid")


def test_traced_fleet_equals_untraced():
    sampler = small_fleet()
    plain = wl.digest(sampler.run_aggregate(200, workers=1).to_dict())
    tracer, aggregate = traced(
        lambda: sampler.run_aggregate(200, workers=1))
    assert wl.digest(aggregate.to_dict()) == plain
    assert tracer.escaped["sim.fluid_batch"] == 0
    for layer in ("workload.fleet", "sim.fluid_batch",
                  "workload.fleet_agg", "core.config"):
        assert tracer.calls[layer] > 0, layer


def test_cohort_that_fails_to_batch_is_counted(monkeypatch):
    from repro.sim.fluid_batch import BatchFluidSolver

    sampler = small_fleet()
    plain = wl.digest(sampler.run_aggregate(50, workers=1).to_dict())

    def broken(self, until):
        raise FloatingPointError("injected")

    monkeypatch.setattr(BatchFluidSolver, "run_until", broken)
    tracer, aggregate = traced(
        lambda: sampler.run_aggregate(50, workers=1))
    # Every cohort fell back to per-host scalar runs, which agree.
    assert wl.digest(aggregate.to_dict()) == plain
    cohorts = tracer.fn_calls[
        "repro.sim.fluid_batch:BatchFluidSolver.__init__"]
    assert cohorts >= 1
    assert tracer.escaped["sim.fluid_batch"] == cohorts


def test_every_wrapped_method_is_restored():
    before = attribute_state()
    tracer = layers.Tracer()
    tracer.install()
    patched = tracer.patched()
    assert len(patched) > 100
    tracer.uninstall()
    assert tracer.patched() == []
    after = attribute_state()
    assert after.keys() == before.keys()
    moved = [key for key in before if after[key] is not before[key]]
    assert moved == []
    for owner, name, original in patched:
        assert vars(owner)[name] is original


def test_entry_points_exist_and_map_to_their_layer():
    layers.check_entry_points()
    assert set(layers.ENTRY_POINTS) == set(layers.LAYERS)


def test_every_repro_module_has_a_layer():
    import repro

    names = ["repro"] + [info.name for info in
                         pkgutil.walk_packages(repro.__path__, "repro.")]
    unmapped = [n for n in names if layers.layer_of(n) not in layers.LAYERS]
    assert unmapped == []
    assert layers.layer_of("repro_extra") == layers.UNATTRIBUTED
    assert layers.layer_of("json") == layers.UNATTRIBUTED


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_makes_inputs(workload):
    assert wl.spec_tables(workload, 3) == wl.spec_tables(workload, 3)
    assert wl.spec_tables(workload, 3) != wl.spec_tables(workload, 4)
    assert wl.slot_of(3) == wl.slot_of(3 + wl.POOL)


def test_same_seed_reproduces_outputs():
    first = wl.setup("fluid_sweep", 9)
    second = wl.setup("fluid_sweep", 9)
    first.specs = first.specs[:2]
    second.specs = second.specs[:2]
    assert (wl.digests(wl.run_pass(first)[0])
            == wl.digests(wl.run_pass(second)[0]))


def test_reference_covers_every_slot():
    reference = json.loads((BENCH / "reference.json").read_text())
    assert reference["pool"] == wl.POOL
    for workload in wl.WORKLOADS:
        slots = reference["workloads"][workload]
        assert sorted(map(int, slots)) == list(range(wl.POOL))
    for workload in wl.PACKET_WORKLOADS:
        assert len(reference["packet_tput"][workload]) == wl.POOL


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    for layer in layers.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s"} <= names
    assert {"unattributed.self_s", "trace.overhead_ratio"} <= names
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
