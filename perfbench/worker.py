"""One benchmark run inside a fresh interpreter.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` and the result-cache and ledger directories pointing
at an empty scratch directory.  It prints ``READY`` once set-up is done
(``run.py`` times that), then runs the workload:

1. timed passes until ``--seconds`` have elapsed (at least three),
   each bracketed by calibration slices (``calibration.py``).  With
   ``--trace 1`` untraced and traced passes alternate;
2. on ``fleet_fluid`` only, one untimed pass that also re-solves a
   seeded sample of hosts with the scalar solver.  It runs after the
   peak resident memory of the timed passes has been read.

Every pass is checked against the reference.  The last stdout line is
one JSON object with the run's counts and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import layers
import workloads as wl

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3


class Scorer:
    """Counts attempted and failed units against the reference."""

    def __init__(self, reference: dict, weight: int = 1):
        self.reference = reference
        #: fleet_fluid scores its one aggregate unit as every host.
        self.weight = weight
        self.attempted = 0
        self.failed = 0

    def score(self, digests: dict) -> None:
        """Score one pass; a unit missing because its spec raised, or
        a unit the reference does not know, counts as failed."""
        bad = sum(digests.get(unit) != expected
                  for unit, expected in self.reference.items())
        bad += sum(unit not in self.reference for unit in digests)
        self.attempted += len(self.reference) * self.weight
        self.failed += bad * self.weight

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def fleet_pass(inputs: wl.Inputs, scorer: Scorer) -> None:
    """An untimed fleet pass; a seeded sample of its hosts is re-solved
    with scalar ``run_experiment``, which must equal the batched
    outcome bit for bit."""
    from repro.core.experiment import run_experiment

    rows: dict = {}

    def sink(event):
        if event.get("ev") == "finished":
            rows[event["index"]] = event["metrics"]

    outputs, _ = wl.run_pass(inputs, events=sink)
    scorer.score(wl.digests(outputs))
    rng = random.Random(f"perfbench-scalar:{inputs.slot}")
    sample = rng.sample(range(inputs.n_hosts), wl.FLEET_SCALAR_SAMPLE)
    failed = 0
    for index in sample:
        batched = rows.get(index)
        metrics = run_experiment(inputs.sampler.draw_config(index)).metrics
        if batched is None or any(metrics[key] != batched[key]
                                  for key in batched):
            failed += 1
    scorer.count(len(sample), failed)


def timed_pass(inputs: wl.Inputs, scorer: Scorer) -> dict:
    """One untraced pass; returns each spec's CPU seconds."""
    gc.collect()
    outputs, cpu = wl.run_pass(inputs)
    scorer.score(wl.digests(outputs))
    return cpu


def scaled(cpu: dict, before: float, after: float) -> dict:
    """A pass's per-spec CPU seconds at reference speed, from the
    calibration slices either side of it."""
    return {name: calibration.scale(value, before, after)
            for name, value in cpu.items()}


def pass_cpu(passes: list) -> float:
    """Reference-speed CPU seconds of one pass: the sum over specs of
    each spec's median across passes."""
    return sum(statistics.median(p[name] for p in passes)
               for name in passes[0])


def untraced_run(inputs, scorer, seconds, reference) -> dict:
    deadline = time.perf_counter() + seconds
    hard_stop = time.perf_counter() + max(3 * seconds, 90)
    cpu = []
    before = calibration.slice_s()
    while (time.perf_counter() < deadline
           or (len(cpu) < MIN_PASSES and time.perf_counter() < hard_stop)):
        raw = timed_pass(inputs, scorer)
        after = calibration.slice_s()
        cpu.append(scaled(raw, before, after))
        before = after
    cpu_s = pass_cpu(cpu)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cpu_s": (cpu_s, "s"),
        "hosts_per_s": (
            wl.hosts_per_pass(inputs, scorer.reference) / cpu_s, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "fluid_tput_err": (wl.fluid_tput_err(reference["packet_tput"]),
                           "ratio"),
    }


def _counter(counters: dict, name: str) -> float:
    return sum(value for key, value in counters.items()
               if key == name or key.endswith("/" + name))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_pass(inputs: wl.Inputs, tracer: layers.Tracer,
                scorer: Scorer) -> dict:
    """One traced pass; returns its per-layer record."""
    gc.collect()
    tracer.reset()
    tracer.install()
    try:
        tracer.start()
        start = time.process_time()
        outputs, _ = wl.run_pass(inputs)
        cpu = time.process_time() - start
        tracer.stop()
    finally:
        tracer.uninstall()
    scorer.score(wl.digests(outputs))
    counters: dict = {}
    for handle in tracer.handles:
        for key, value in handle.metrics_snapshot()["counters"].items():
            counters[key] = counters.get(key, 0) + value
    tracer.handles.clear()
    return {
        "cpu": cpu,
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "fn_s": dict(tracer.fn_s),
        "fn_calls": dict(tracer.fn_calls),
        "events": tracer.events,
        "counters": counters,
        "escaped": dict(tracer.escaped),
    }


def traced_run(inputs, scorer, seconds) -> dict:
    tracer = layers.Tracer()
    deadline = time.perf_counter() + seconds
    untraced, records = [], []
    before = calibration.slice_s()
    while time.perf_counter() < deadline or not records:
        raw = timed_pass(inputs, scorer)
        middle = calibration.slice_s()
        untraced.append(scaled(raw, before, middle))
        record = traced_pass(inputs, tracer, scorer)
        before = calibration.slice_s()
        record["cpu"] = calibration.scale(record["cpu"], middle, before)
        records.append(record)
    cpu_s = pass_cpu(untraced)
    hosts = inputs.n_hosts or 1

    def median(get):
        return statistics.median(get(record) for record in records)

    def fn_us_per_host(*keys):
        return median(lambda r: sum(r["fn_s"].get(k, 0.0)
                                    for k in keys)) / hosts * 1e6

    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.calls"] = (
            median(lambda r: r["calls"].get(layer, 0)), "count")
        metrics[f"{layer}.self_s"] = (
            median(lambda r: r["self_s"].get(layer, 0.0)), "s")
    counters: dict = {}
    for record in records:
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value
    hits = _counter(counters, "iotlb.hits")
    sent = _counter(counters, "transport.packets_sent")
    batch = "repro.sim.fluid_batch:BatchFluidSolver"
    fold = "repro.workload.fleet_agg:FleetAggregate"
    metrics.update({
        "sim.engine.events_per_cpu_s": (
            median(lambda r: r["events"]) / cpu_s, "1/s"),
        "host.iotlb.hit_ratio": (
            _ratio(hits, hits + _counter(counters, "iotlb.misses")),
            "ratio"),
        "host.pagetable.walks_per_translate": (
            _ratio(_counter(counters, "iommu.iotlb_misses"),
                   _counter(counters, "iommu.translations")), "ratio"),
        "host.nic.drop_ratio": (
            _ratio(_counter(counters, "nic.dropped_packets"),
                   _counter(counters, "nic.rx_packets")), "ratio"),
        "transport.retx_ratio": (
            _ratio(_counter(counters, "transport.retransmissions"),
                   sent), "ratio"),
        "net.fabric_drop_ratio": (
            _ratio(_counter(counters, "fabric.fabric_drops"), sent),
            "ratio"),
        "sim.fluid.steps": (
            median(lambda r: r["fn_calls"].get(
                "repro.sim.fluid:FluidSolver.step", 0)), "count"),
        "sim.fluid_batch.lanes_per_cohort": (
            _ratio(inputs.n_hosts, median(lambda r: r["fn_calls"].get(
                f"{batch}.__init__", 0))), "count"),
        "sim.fluid_batch.cohort_failures": (
            median(lambda r: r["escaped"].get("sim.fluid_batch", 0)),
            "count"),
        "workload.fleet.draw_us_per_host": (
            fn_us_per_host("repro.workload.fleet:FleetSampler"
                           ".draw_config"), "us"),
        "sim.fluid_batch.construct_us_per_host": (
            fn_us_per_host(f"{batch}.__init__"), "us"),
        "sim.fluid_batch.step_us_per_host": (
            fn_us_per_host(f"{batch}.run_until", f"{batch}.reset_stats"),
            "us"),
        "workload.fleet_agg.fold_us_per_host": (
            fn_us_per_host(f"{fold}.add", f"{fold}.merge",
                           f"{fold}.to_dict", f"{fold}.from_dict"), "us"),
        "unattributed.self_s": (
            median(lambda r: r["self_s"].get(layers.UNATTRIBUTED, 0.0)),
            "s"),
        "trace.overhead_ratio": (
            median(lambda r: r["cpu"]) / cpu_s, "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = wl.setup(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = json.loads((HERE / "reference.json").read_text())
    units = reference["workloads"][args.workload][str(inputs.slot)]
    scorer = Scorer(units, weight=inputs.n_hosts or 1)
    if args.trace:
        metrics = traced_run(inputs, scorer, args.seconds)
    else:
        metrics = untraced_run(inputs, scorer, args.seconds, reference)
    if inputs.sampler is not None:
        fleet_pass(inputs, scorer)
    print(json.dumps({
        "attempted": scorer.attempted,
        "failed": scorer.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
