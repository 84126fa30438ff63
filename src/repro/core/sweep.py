"""Parameter sweeps over experiment configurations.

Each paper figure is a sweep along one axis with everything else at the
baseline.  Since the scenario layer landed, these helpers are thin
wrappers: each one builds an in-memory
:class:`~repro.core.scenario.ScenarioSpec` (axes in the same
declaration order as the historical loops, so config lists — and
therefore results — are byte-identical) and runs it through the one
shared execution path, :func:`repro.core.scenario.run_configs`.

The swept axes live in one table, :data:`SWEEP_AXES`, which
``repro sweep`` also builds its spec from (:func:`axis_spec`).  Prefer
spec files (``repro scenario run``) for new studies; these helpers
remain for programmatic callers.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.core.cache import ResultCache
from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
)
from repro.core.parallel import Workers
from repro.core.results import ExperimentResult, ResultTable
from repro.core.scenario import (
    RenderSpec,
    ScenarioSpec,
    SweepAxis,
    run_configs,
)

__all__ = [
    "SWEEP_AXES",
    "axis_spec",
    "baseline_config",
    "run_sweep",
    "sweep_antagonist_cores",
    "sweep_receiver_cores",
    "sweep_receivers",
    "sweep_region_size",
]


def baseline_config(
    warmup: float = 6e-3,
    duration: float = 12e-3,
    seed: int = 1,
    fidelity: str = "packet",
    **host_overrides,
) -> ExperimentConfig:
    """The paper's §3 baseline: 40 senders, 12 receiver cores, IOMMU on,
    hugepages on, 12 MB regions, Swift."""
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=12), **host_overrides),
        sim=SimConfig(warmup=warmup, duration=duration, seed=seed),
        fidelity=fidelity,
    )


def run_sweep(
    configs: Iterable[ExperimentConfig],
    progress: Optional[Callable[[int, ExperimentResult], None]] = None,
    snapshots_out: Optional[list] = None,
    *,
    workers: Workers = None,
    timeout: Optional[float] = None,
    cache: Optional[ResultCache] = None,
    events: Optional[Callable[[dict], None]] = None,
    failures: str = "raise",
) -> ResultTable:
    """Run each config and collect results, optionally in parallel.

    Alias for :func:`repro.core.scenario.run_configs` — the single
    execution path behind sweeps, scenarios, and figures.

    ``snapshots_out``, if given, receives one full metrics-registry
    snapshot (``ExperimentHandle.metrics_snapshot``) per run, in table
    order — the payload behind ``sweep --metrics-out``.

    ``workers`` fans runs out to worker processes (``"auto"`` =
    ``cpu_count - 1``); the resulting table is bit-identical to a
    serial run because every run seeds its own RNGs from its config —
    see :mod:`repro.core.parallel`.  ``timeout`` bounds each run's wall
    clock, replacing over-budget runs with a
    :class:`~repro.core.results.FailedRun` placeholder.  ``cache``
    memoizes results on disk keyed by the config digest.
    """
    return run_configs(configs, progress=progress,
                       snapshots_out=snapshots_out, workers=workers,
                       timeout=timeout, cache=cache, events=events,
                       failures=failures)


#: The one-axis sweeps, by ``repro sweep`` axis name: the swept config
#: path, the result-table column it shows up as, the value scale, and
#: the IOMMU states swept alongside it (outermost; none for
#: ``receivers``).  The ``sweep_*`` helpers and ``repro sweep`` both
#: build their specs from this table through :func:`axis_spec`.
SWEEP_AXES: Dict[str, Tuple[str, str, int, Tuple[bool, ...]]] = {
    "cores": ("host.cpu.cores", "cores", 1, (True, False)),
    "region": ("host.rx_region_bytes", "rx_region_mb", 2**20,
               (True, False)),
    "receivers": ("workload.receivers", "receivers", 1, ()),
    "antagonists": ("host.antagonist_cores", "antagonist_cores", 1,
                    (False, True)),
}


def axis_spec(axis: str, values: Sequence,
               iommu_states: Optional[Sequence[bool]] = None,
               overrides: Optional[dict] = None) -> ScenarioSpec:
    """An in-memory spec sweeping one :data:`SWEEP_AXES` axis.

    ``iommu_states`` replaces the axis's default IOMMU grid;
    ``overrides`` are the spec's dotted-path ``[base]``.  The table
    column of the swept axis is the spec's render ``x``, so
    ``repro scenario`` prints it as the first column.
    """
    path, column, scale, default_iommu = SWEEP_AXES[axis]
    axes = [SweepAxis(path, tuple(values), scale=scale)]
    if default_iommu:
        iommu = default_iommu if iommu_states is None else iommu_states
        axes.insert(0, SweepAxis("host.iommu.enabled", tuple(iommu)))
    return ScenarioSpec(name=f"sweep-{axis}", base=overrides or {},
                        axes=tuple(axes), render=RenderSpec(x=column),
                        source=f"<sweep {axis}>")


def sweep_receiver_cores(
    cores: Sequence[int] = (2, 4, 6, 8, 10, 12, 14, 16),
    iommu_states: Sequence[bool] = (True, False),
    base: Optional[ExperimentConfig] = None,
    hugepages: Optional[bool] = None,
    progress=None,
    snapshots_out: Optional[list] = None,
    *,
    workers: Workers = None,
    timeout: Optional[float] = None,
    cache: Optional[ResultCache] = None,
    events: Optional[Callable[[dict], None]] = None,
    failures: str = "raise",
) -> ResultTable:
    """Figures 3 and 4: throughput/drops/misses vs receiver cores."""
    spec = axis_spec(
        "cores", cores, iommu_states,
        None if hugepages is None else {"host.hugepages": hugepages})
    return spec.run(base=base or baseline_config(), progress=progress,
                    snapshots_out=snapshots_out, workers=workers,
                    timeout=timeout, cache=cache, events=events,
                    failures=failures)


def sweep_region_size(
    region_mb: Sequence[int] = (4, 8, 12, 16),
    iommu_states: Sequence[bool] = (True, False),
    base: Optional[ExperimentConfig] = None,
    progress=None,
    snapshots_out: Optional[list] = None,
    *,
    workers: Workers = None,
    timeout: Optional[float] = None,
    cache: Optional[ResultCache] = None,
    events: Optional[Callable[[dict], None]] = None,
    failures: str = "raise",
) -> ResultTable:
    """Figure 5: throughput/drops/misses vs Rx memory region size."""
    spec = axis_spec("region", region_mb, iommu_states)
    return spec.run(base=base or baseline_config(), progress=progress,
                    snapshots_out=snapshots_out, workers=workers,
                    timeout=timeout, cache=cache, events=events,
                    failures=failures)


def sweep_receivers(
    receivers: Sequence[int] = (1, 2, 4),
    base: Optional[ExperimentConfig] = None,
    progress=None,
    snapshots_out: Optional[list] = None,
    *,
    workers: Workers = None,
    timeout: Optional[float] = None,
    cache: Optional[ResultCache] = None,
    events: Optional[Callable[[dict], None]] = None,
    failures: str = "raise",
) -> ResultTable:
    """Multi-receiver incast scale-out: M receiver hosts behind one
    fabric, each with its own ``senders``-way incast.

    Host interconnect congestion is per-host (the NIC buffer, IOMMU,
    and memory bus are not shared across machines), so per-host
    throughput and drop rate should be flat in M while aggregate
    throughput scales linearly — the sanity check that congestion in
    this model is a *host* phenomenon, not a fabric one.
    """
    spec = axis_spec("receivers", receivers)
    return spec.run(base=base or baseline_config(), progress=progress,
                    snapshots_out=snapshots_out, workers=workers,
                    timeout=timeout, cache=cache, events=events,
                    failures=failures)


def sweep_antagonist_cores(
    antagonists: Sequence[int] = (0, 1, 2, 4, 6, 8, 10, 12, 14, 15),
    iommu_states: Sequence[bool] = (False, True),
    base: Optional[ExperimentConfig] = None,
    progress=None,
    snapshots_out: Optional[list] = None,
    *,
    workers: Workers = None,
    timeout: Optional[float] = None,
    cache: Optional[ResultCache] = None,
    events: Optional[Callable[[dict], None]] = None,
    failures: str = "raise",
) -> ResultTable:
    """Figure 6: throughput/memory bandwidth/drops vs STREAM cores."""
    spec = axis_spec("antagonists", antagonists, iommu_states)
    return spec.run(base=base or baseline_config(), progress=progress,
                    snapshots_out=snapshots_out, workers=workers,
                    timeout=timeout, cache=cache, events=events,
                    failures=failures)
