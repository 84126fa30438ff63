"""The benchmark's four workloads: inputs from a seed, and one pass.

A seed picks one of :data:`POOL` input sets (``seed % POOL``).  Each
input set is a list of scenario-spec tables built from the bundled
specs; the program only ever sees those tables, which set-up validates
into :class:`~repro.core.scenario.ScenarioSpec` objects.  A pass runs
every spec once through the public API and returns its outputs as
``(unit, payload)`` pairs, where a unit is one sweep point, day bin,
isolation arm, or the whole fleet aggregate.  Digests of the payloads
are compared against ``reference.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
import traceback
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("packet_host", "packet_fabric", "fleet_fluid", "fluid_sweep")
PACKET_WORKLOADS = ("packet_host", "packet_fabric")
#: Number of distinct input sets; ``reference.json`` holds one entry
#: per slot.
POOL = 32
#: Hosts per fleet pass, and the range size of the batched backend.
FLEET_HOSTS = 8192
FLEET_BATCH = 4096
#: Hosts re-solved with the scalar solver to check batched == scalar.
FLEET_SCALAR_SAMPLE = 24
#: Share of the bundled quick window the packet points simulate.  At
#: the full quick window one packet_host pass cost 5-8 s of CPU, so a
#: 20 s run held three passes and its median spread 16-21% from run to
#: run; half the window doubles the passes on the same grid points.
PACKET_WINDOW = 0.5
#: ``repro.analysis.xval``'s absolute throughput floor (Gbps).
THROUGHPUT_FLOOR_GBPS = 1.0


def slot_of(seed: int) -> int:
    return int(seed) % POOL


def input_seed(workload: str, slot: int) -> int:
    """The simulation seed a workload's slot feeds into its specs."""
    digest = hashlib.sha256(f"perfbench:{workload}:{slot}".encode())
    return int.from_bytes(digest.digest()[:4], "big") % (2**31 - 1) + 1


def _bundled_tables() -> Dict[str, dict]:
    """Raw tables of every bundled spec, by file stem."""
    import importlib.resources

    try:
        import tomllib
    except ImportError:  # Python 3.10
        import tomli as tomllib

    tables = {}
    for entry in sorted(importlib.resources.files("repro.scenarios")
                        .iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".toml"):
            tables[entry.name[:-5]] = tomllib.loads(entry.read_text())
    return tables


def _point_spec(table: dict, name: str, seed: int, point: dict,
                fidelity: str) -> dict:
    """A one-point sweep spec on ``table``'s base, with the quick
    preset's simulated window scaled by :data:`PACKET_WINDOW`.

    Packet workloads run one spec per point, so every point is timed
    on its own.
    """
    quick = table["quality"]["quick"]
    window = {path: quick[path] * PACKET_WINDOW
              for path in ("sim.warmup", "sim.duration")}
    return {
        "scenario": {"name": name, "fidelity": fidelity,
                     "default_quality": "quick"},
        "base": {**table.get("base", {}), "sim.seed": seed},
        "axes": [{"path": path, "values": [value]}
                 for path, value in point.items()],
        "quality": {"quick": window},
    }


def spec_tables(workload: str, slot: int,
                fidelity: Optional[str] = None) -> List[dict]:
    """The spec tables one workload runs for one slot.

    ``fidelity`` re-targets the packet workloads (the fluid
    counterparts behind ``fluid_tput_err``).
    """
    bundled = _bundled_tables()
    seed = input_seed(workload, slot)
    fidelity = fidelity or "packet"
    if workload == "packet_host":
        # IOMMU on below (6 cores) and past (12) the IOTLB knee, and
        # the IOMMU-off point at 12 cores, on figure3's base.
        return [_point_spec(bundled["figure3"], f"packet_host_{name}",
                            seed, {"host.iommu.enabled": iommu,
                                   "host.cpu.cores": cores}, fidelity)
                for name, iommu, cores in (("on6", True, 6),
                                           ("on12", True, 12),
                                           ("off12", False, 12))]
    if workload == "packet_fabric":
        dumbbell = bundled["dumbbell"]
        top_load = max(next(axis["values"] for axis in dumbbell["axes"]
                            if axis["path"] == "workload.offered_load"))
        tables = [_point_spec(dumbbell, f"packet_fabric_{routing}", seed,
                              {"fabric.routing": routing,
                               "workload.offered_load": top_load},
                              fidelity)
                  for routing in ("static", "ecmp", "flowlet")]
        tables.append(_point_spec(bundled["incast"], "packet_fabric_incast",
                                  seed, {"fabric.routing": "ecmp",
                                         "host.cpu.cores": 6}, fidelity))
        return tables
    if workload == "fleet_fluid":
        table = dict(bundled["figure1"])
        table["scenario"] = {**table["scenario"], "fidelity": "fluid"}
        table["driver_args"] = {**table.get("driver_args", {}),
                                "seed": seed, "n_hosts": FLEET_HOSTS}
        return [table]
    if workload == "fluid_sweep":
        tables = []
        for table in bundled.values():
            driver = table["scenario"].get("driver", "sweep")
            if driver == "fleet":
                continue
            table = dict(table)
            table["scenario"] = {**table["scenario"], "fidelity": "fluid"}
            table["base"] = {**table.get("base", {}), "sim.seed": seed}
            if driver == "day":
                table["driver_args"] = {**table.get("driver_args", {}),
                                        "schedule_seed": seed}
            tables.append(table)
        return tables
    raise ValueError(f"unknown workload {workload!r}")


@dataclasses.dataclass
class Inputs:
    """A workload's validated inputs, ready to run."""

    slot: int
    specs: list
    #: fleet_fluid only: the sampler and its host count.
    sampler: object = None
    n_hosts: int = 0


def setup(workload: str, seed: int) -> Inputs:
    """Everything before the first pass: import, spec load and
    validation, expansion, and sampler construction."""
    from repro.core.scenario import ScenarioSpec

    slot = slot_of(seed)
    specs = [ScenarioSpec.from_dict(table, source=f"<{workload}>")
             for table in spec_tables(workload, slot)]
    inputs = Inputs(slot, specs)
    for spec in specs:
        if spec.driver == "sweep":
            spec.expand()
        elif spec.driver == "fleet":
            inputs.sampler, inputs.n_hosts = spec.fleet_sampler()
    return inputs


def canonical(value):
    """A JSON-ready, order-stable form of a result payload."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(payload) -> str:
    text = json.dumps(canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


Outputs = List[Tuple[str, object]]


def run_spec(spec, inputs: Optional[Inputs] = None,
             events=None) -> Outputs:
    """Run one spec; failed sweep points come back as ``None``.

    A fleet spec runs through ``inputs.sampler`` (built at set-up) on
    the default batched backend; ``events`` is its lifecycle sink.
    """
    if spec.driver == "fleet":
        aggregate = inputs.sampler.run_aggregate(
            inputs.n_hosts, workers=1, batch_size=FLEET_BATCH,
            events=events)
        return [(f"{spec.name}.aggregate", aggregate.to_dict())]
    if spec.driver == "sweep":
        table = spec.run(workers=1, cache=None, failures="keep")
        return [(f"{spec.name}[{i}]",
                 None if getattr(row, "failed", False) else row)
                for i, row in enumerate(table)]
    result = spec.run(workers=1, cache=None)
    if spec.driver == "day":
        return [(f"{spec.name}.bin{i}", row)
                for i, row in enumerate(result)]
    return [(f"{spec.name}.{key}", row)
            for key, row in sorted(result.items())]


def run_pass(inputs: Inputs, events=None
             ) -> Tuple[Outputs, Dict[str, float]]:
    """One pass over every spec: the outputs, and each spec's process
    CPU seconds.

    A spec that raises is reported on stderr and contributes no
    outputs, so its reference units count as failed.
    """
    outputs: Outputs = []
    cpu: Dict[str, float] = {}
    for spec in inputs.specs:
        start = time.process_time()
        try:
            outputs.extend(run_spec(spec, inputs, events))
        except Exception:
            traceback.print_exc()
        cpu[spec.name] = time.process_time() - start
    return outputs, cpu


def digests(outputs: Outputs) -> Dict[str, Optional[str]]:
    """``{unit: digest}``; a failed point digests to ``None``."""
    return {unit: None if payload is None else digest(payload)
            for unit, payload in outputs}


def throughputs(outputs: Outputs) -> Dict[str, float]:
    """``app_throughput_gbps`` per sweep unit."""
    return {unit: row.metrics["app_throughput_gbps"]
            for unit, row in outputs if row is not None}


def fluid_throughputs(slot: int) -> Dict[str, float]:
    """Fluid ``app_throughput_gbps`` on both packet workloads' points."""
    from repro.core.scenario import ScenarioSpec

    result = {}
    for workload in PACKET_WORKLOADS:
        for table in spec_tables(workload, slot, fidelity="fluid"):
            spec = ScenarioSpec.from_dict(table)
            result.update(throughputs(run_spec(spec)))
    return result


def fluid_tput_err(packet_tput: Dict[str, Dict[str, dict]]) -> float:
    """Median relative error of fluid against packet throughput over
    the packet workloads' points in every slot, with the xval floor as
    the smallest denominator.

    ``packet_tput`` is ``reference.json``'s stored packet side; the
    runs verify their packet outputs against the same reference, so
    the metric depends only on the program, not on the seed.
    """
    errors = []
    for slot in range(POOL):
        fluid = fluid_throughputs(slot)
        for workload in PACKET_WORKLOADS:
            for unit, gbps in packet_tput[workload][str(slot)].items():
                errors.append(abs(fluid[unit] - gbps)
                              / max(abs(gbps), THROUGHPUT_FLOOR_GBPS))
    return statistics.median(errors)


def hosts_per_pass(inputs: Inputs, units) -> int:
    """Simulated receiver hosts one pass completes; ``units`` names
    the pass's outputs."""
    if inputs.sampler is not None:
        return inputs.n_hosts
    hosts = 0
    for spec in inputs.specs:
        if spec.driver == "sweep":
            hosts += sum(c.workload.receivers for c in spec.expand())
        else:
            count = sum(unit.startswith(f"{spec.name}.") for unit in units)
            hosts += count * spec.base_config().workload.receivers
    return hosts

