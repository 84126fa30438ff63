"""Layer map and the outside-in tracer behind ``--trace 1``.

Nothing inside ``src/`` is instrumented.  The tracer patches, from
here, every public function and method of every mapped ``repro``
module (plus ``__init__``/``__post_init__``) with a wrapper that opens
a span for the module's layer.  It also wraps ``Simulator.run`` so
each run installs a dispatch hook through the public
``Simulator.set_dispatch_hook``.  The hook attributes every
engine-dispatched callback (``Nic._dma_done``, ``ReceiverThread._finish``,
...) to the layer of the module that defines it.

A layer's self time is its spans' duration minus the time covered by
their child spans.  Time inside no span, or inside a span of a module
the map does not name, is reported as ``unattributed``.  An exception
that leaves a layer's span for another layer's is counted against the
layer it left.  All timings are host time (``time.perf_counter``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed"

#: Every ``src/repro`` module, by dotted prefix, to the layer it
#: belongs to.  The longest matching prefix wins; the bare ``repro``
#: key matches only the package module itself.
LAYER_OF_MODULE: Dict[str, str] = {
    "repro": "core.scenario",
    "repro.__main__": "core.scenario",
    "repro.cli": "core.scenario",
    "repro.scenarios": "core.scenario",
    "repro.analysis": "obs",
    "repro.core": "core.experiment",
    "repro.core.cache": "core.parallel",
    "repro.core.calibration": "core.experiment",
    "repro.core.config": "core.config",
    "repro.core.experiment": "core.experiment",
    "repro.core.fluid": "core.experiment",
    "repro.core.ledger": "obs",
    "repro.core.metrics": "obs",
    "repro.core.model": "core.experiment",
    "repro.core.parallel": "core.parallel",
    "repro.core.results": "core.experiment",
    "repro.core.scenario": "core.scenario",
    "repro.core.sweep": "core.scenario",
    "repro.core.topology": "core.topology",
    "repro.host": "core.topology",
    "repro.host.addressing": "host.iommu",
    "repro.host.antagonist": "host.memory",
    "repro.host.cache": "host.llc",
    "repro.host.cpu": "host.cpu",
    "repro.host.host": "core.topology",
    "repro.host.iommu": "host.iommu",
    "repro.host.iotlb": "host.iotlb",
    "repro.host.llc": "host.llc",
    "repro.host.memory": "host.memory",
    "repro.host.nic": "host.nic",
    "repro.host.pagetable": "host.pagetable",
    "repro.host.pcie": "host.pcie",
    "repro.net": "net",
    "repro.obs": "obs",
    "repro.sim": "sim.engine",
    "repro.sim.component": "core.topology",
    "repro.sim.fluid": "sim.fluid",
    "repro.sim.fluid_batch": "sim.fluid_batch",
    "repro.sim.tracing": "obs",
    "repro.transport": "transport",
    "repro.workload": "core.scenario",
    "repro.workload.fleet": "workload.fleet",
    "repro.workload.fleet_agg": "workload.fleet_agg",
    "repro.workload.remote_read": "transport",
}

#: The layers the benchmark reports, in report order.
LAYERS: Tuple[str, ...] = (
    "sim.engine", "host.nic", "host.iommu", "host.iotlb",
    "host.pagetable", "host.pcie", "host.memory", "host.cpu",
    "host.llc", "transport", "net", "obs", "core.topology",
    "core.experiment", "core.scenario", "core.config",
    "core.parallel", "sim.fluid", "sim.fluid_batch", "workload.fleet",
    "workload.fleet_agg",
)

#: Public functions the map relies on, one or more per layer.  A
#: rename makes :func:`check_entry_points` fail instead of silently
#: emptying a layer.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("repro.sim.engine:Simulator.run",
                   "repro.sim.engine:Simulator.set_dispatch_hook",
                   "repro.sim.engine:Simulator.schedule_timer"),
    "host.nic": ("repro.host.nic:Nic.receive",),
    "host.iommu": ("repro.host.iommu:Iommu.translate",),
    "host.iotlb": ("repro.host.iotlb:Iotlb.access",),
    "host.pagetable": ("repro.host.pagetable:PageTable.walk",),
    "host.pcie": ("repro.host.pcie:PcieLink.occupy",),
    "host.memory": ("repro.host.memory:MemoryController"
                    ".walk_access_latency",),
    "host.cpu": ("repro.host.cpu:ReceiverThread.enqueue",),
    "host.llc": ("repro.host.llc:DynamicLlcModel.record_dma_write",),
    "transport": ("repro.transport.base:Connection",
                  "repro.transport.receiver:ReceiverEndpoint"),
    "net": ("repro.net.switch:SwitchPort",
            "repro.net.routing:create_policy"),
    "obs": ("repro.obs.metrics:MetricsRegistry.snapshot",),
    "core.topology": ("repro.core.topology:GraphBuilder.build",),
    "core.experiment": ("repro.core.experiment:run_experiment",
                        "repro.core.experiment:ExperimentHandle"
                        ".collect",
                        "repro.core.experiment:ExperimentHandle"
                        ".metrics_snapshot"),
    "core.scenario": ("repro.core.scenario:ScenarioSpec.from_dict",
                      "repro.core.scenario:ScenarioSpec.run",
                      "repro.core.scenario:ScenarioSpec.fleet_sampler"),
    "core.config": ("repro.core.config:ExperimentConfig",),
    "core.parallel": ("repro.core.parallel:run_many",
                      "repro.core.parallel:map_stream"),
    "sim.fluid": ("repro.sim.fluid:FluidSolver.step",),
    "sim.fluid_batch": ("repro.sim.fluid_batch:BatchFluidSolver"
                        ".run_until",
                        "repro.sim.fluid_batch:BatchFluidSolver"
                        ".reset_stats",
                        "repro.sim.fluid_batch:BatchFluidSolver"
                        ".fleet_metrics"),
    "workload.fleet": ("repro.workload.fleet:FleetSampler.draw_config",
                       "repro.workload.fleet:FleetSampler"
                       ".run_aggregate",
                       "repro.workload.fleet:FleetSampler._draw_class",
                       "repro.workload.fleet:group_cohorts",
                       "repro.workload.fleet:FleetSample"),
    "workload.fleet_agg": ("repro.workload.fleet_agg:FleetAggregate.add",
                           "repro.workload.fleet_agg:FleetAggregate"
                           ".merge",
                           "repro.workload.fleet_agg:FleetAggregate"
                           ".to_dict",
                           "repro.workload.fleet_agg:FleetAggregate"
                           ".from_dict"),
}

#: Dunder methods that do real work and are traced like public ones.
_TRACED_DUNDERS = ("__init__", "__post_init__")


def layer_of(module: Optional[str]) -> str:
    """The layer of a dotted module name, or ``unattributed``."""
    if not module or not (module == "repro"
                          or module.startswith("repro.")):
        return UNATTRIBUTED
    name = module
    while name:
        if name in LAYER_OF_MODULE and (name != "repro"
                                        or module == "repro"):
            return LAYER_OF_MODULE[name]
        name = name.rpartition(".")[0]
    return UNATTRIBUTED


def resolve(target: str):
    """Import ``"module:Qual.name"`` and return the object."""
    module_name, _, qualname = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def check_entry_points() -> None:
    """Raise if a public function the map names no longer exists or
    has left the module of its layer."""
    for layer, targets in ENTRY_POINTS.items():
        for target in targets:
            try:
                resolve(target)
            except (ImportError, AttributeError) as exc:
                raise RuntimeError(
                    f"layer {layer!r}: {target} is gone ({exc})"
                ) from exc
            module_name = target.partition(":")[0]
            if layer_of(module_name) != layer:
                raise RuntimeError(
                    f"layer {layer!r}: {target} now maps to "
                    f"{layer_of(module_name)!r}")


def repro_modules() -> List[str]:
    """Every module under the ``repro`` package, imported."""
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        names.append(info.name)
    for name in names:
        importlib.import_module(name)
    return names


def _traceable(name: str, value) -> bool:
    if name.startswith("_") and name not in _TRACED_DUNDERS:
        return False
    return (inspect.isfunction(value)
            and not inspect.isgeneratorfunction(value))


class Tracer:
    """Per-layer call counts and self times for one traced region.

    ``install()`` patches the mapped modules, ``uninstall()`` puts
    every original object back.  Counts accumulate until ``reset()``.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: ``module:qualname`` -> inclusive seconds / calls.
        self.fn_s: Dict[str, float] = defaultdict(float)
        self.fn_calls: Dict[str, int] = defaultdict(int)
        #: Exceptions that left a layer's span into another layer's.
        self.escaped: Dict[str, int] = defaultdict(int)
        self.events = 0
        #: Packet experiment handles collected while tracing, for the
        #: modelled counters read after the traced region.
        self.handles: list = []
        self._root = [UNATTRIBUTED, 0.0, 0.0]
        self._stack: list = [self._root]
        self._patches: List[Tuple[object, str, object]] = []
        self._hook_layers: Dict[object, str] = {}

    # -- accounting ------------------------------------------------------

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.fn_s.clear()
        self.fn_calls.clear()
        self.escaped.clear()
        self.events = 0
        self.handles.clear()

    def start(self) -> None:
        """Open the root span; time outside every layer span lands
        in ``unattributed``."""
        self._root[1] = time.perf_counter()
        self._root[2] = 0.0

    def stop(self) -> None:
        duration = time.perf_counter() - self._root[1]
        self.self_s[UNATTRIBUTED] += duration - self._root[2]

    def _wrap(self, fn, layer: str, key: str, capture: bool = False):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        fn_s = self.fn_s
        fn_calls = self.fn_calls
        escaped = self.escaped
        handles = self.handles
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if stack[-2][0] != layer:
                    escaped[layer] += 1
                raise
            finally:
                stack.pop()
                duration = clock() - frame[1]
                self_s[layer] += duration - frame[2]
                stack[-1][2] += duration
                calls[layer] += 1
                fn_s[key] += duration
                fn_calls[key] += 1
                if capture:
                    handles.append(args[0])

        traced.__perfbench_wrapped__ = True
        return traced

    def _dispatch(self, _time, fn, args) -> None:
        """Dispatch hook: run one engine callback inside a span of the
        layer whose module defines it."""
        self.events += 1
        func = getattr(fn, "__func__", fn)
        func = getattr(func, "func", func)  # functools.partial
        key = getattr(func, "__code__", None)
        if key is None:
            key = type(func)
        layer = self._hook_layers.get(key)
        if layer is None:
            if getattr(func, "__perfbench_wrapped__", False):
                layer = ""
            else:
                layer = layer_of(getattr(func, "__module__", None))
            self._hook_layers[key] = layer
        if not layer:  # already a traced public method
            fn(*args)
            return
        stack = self._stack
        frame = [layer, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            fn(*args)
        finally:
            stack.pop()
            duration = time.perf_counter() - frame[1]
            self.self_s[layer] += duration - frame[2]
            stack[-1][2] += duration
            self.calls[layer] += 1

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Patch every mapped module; :meth:`uninstall` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        check_entry_points()
        names = repro_modules()
        from repro.core.experiment import ExperimentHandle
        from repro.sim.engine import Simulator

        replaced: Dict[int, object] = {}
        classes = set()
        for module_name in names:
            module = sys.modules[module_name]
            layer = layer_of(module_name)
            for name, value in list(vars(module).items()):
                if inspect.isclass(value):
                    if (value.__module__ == module_name
                            and value not in classes):
                        classes.add(value)
                        self._patch_class(value, layer, module_name,
                                          ExperimentHandle, Simulator)
                    continue
                if (_traceable(name, value)
                        and value.__module__ == module_name):
                    wrapper = self._wrap(value, layer,
                                         f"{module_name}:{name}")
                    replaced[id(value)] = wrapper
        # Re-point every module-level reference (``from x import f``)
        # at the wrapper, including the defining module's own name.
        for module_name in names:
            module = sys.modules[module_name]
            for name, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapper)

    def _patch_class(self, cls, layer: str, module_name: str,
                     handle_cls, simulator_cls) -> None:
        if (issubclass(cls, BaseException)
                or getattr(cls, "_is_protocol", False)
                or hasattr(cls, "_member_map_")):
            return
        for name, raw in list(vars(cls).items()):
            key = f"{module_name}:{cls.__qualname__}.{name}"
            if isinstance(raw, (staticmethod, classmethod)):
                if not _traceable(name, raw.__func__):
                    continue
                new = type(raw)(self._wrap(raw.__func__, layer, key))
            elif _traceable(name, raw):
                if cls is simulator_cls and name == "run":
                    new = self._wrap(self._hooked_run(raw), layer, key)
                else:
                    new = self._wrap(raw, layer, key,
                                     capture=(cls is handle_cls
                                              and name == "collect"))
            else:
                continue
            self._patches.append((cls, name, raw))
            setattr(cls, name, new)

    def _hooked_run(self, run):
        dispatch = self._dispatch

        def run_with_hook(sim, *args, **kwargs):
            sim.set_dispatch_hook(dispatch)
            try:
                return run(sim, *args, **kwargs)
            finally:
                sim.set_dispatch_hook(None)

        return run_with_hook

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._hook_layers.clear()

    def patched(self) -> List[Tuple[object, str, object]]:
        """The ``(owner, name, original)`` triples currently patched."""
        return list(self._patches)
