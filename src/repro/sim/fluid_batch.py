"""Vectorized fluid solver: N independent hosts stepped as one batch.

:class:`BatchFluidSolver` is the fleet-scale twin of
:class:`repro.sim.fluid.FluidSolver`: every piece of per-host state
(congestion window, NIC/CPU queue levels, open-loop demand backlog,
delayed congestion signals, accumulators) becomes a shape-``(N,)``
float64 array, and one :meth:`step` advances all N hosts with about
90 elementwise numpy operations instead of N trips through the scalar
step.  The scalar solver costs a few microseconds of interpreter per
host per step; batched, the per-step cost is amortized across the
whole cohort, which is where the fleet driver's order-of-magnitude
hosts/s win comes from.

**Bit-for-bit contract.**  The fleet aggregate's equality is exact
(``QuantileSketch``/``Density2D`` compare bucket counts, not
tolerances), so this solver does not merely approximate the scalar
path — it reproduces it to the last ulp.  Every expression below is
the scalar :meth:`FluidSolver.step` expression with the same
association and operation order, relying on three facts:

- IEEE-754 elementwise ``+ - * /`` and ``min``/``max`` are identical
  between CPython floats and numpy float64 lanes;
- data-dependent branches become ``np.where`` over lanes whose values
  were computed by those same elementwise ops, so the selected lane
  carries exactly the bits the scalar branch would have produced;
- the one libm call in the scalar dynamics (``x ** QUEUE_GAMMA``) was
  replaced by plain multiplication (:func:`repro.sim.fluid._cube`)
  precisely because ``pow`` kernels differ between libm and numpy in
  the last ulp.

A subexpression the scalar step evaluates more than once (``nic_bps /
8``, ``arrival_bps / 8 * dt``), or a per-lane constant product
(``ai_n * dt``), is computed once and reused: the same IEEE op on the
same operands gives the same bits.

**Per-lane structure.**  Branches that pick a *code path* rather than
a value — loss- vs delay-based congestion control, open- vs
closed-loop workload, IOMMU on/off — are per-lane boolean masks
harvested from the built scalar solvers like the constants.  Each step
evaluates both arms with the scalar expressions and ``np.where`` picks
the arm the scalar ``if`` would have taken, so one batch holds any mix
of structures.  What a batch cannot mix is the step size: every lane
advances by the same ``dt`` (``2 × link.one_way_delay``), so the whole
batch steps in lock-step and the constructor rejects mixed ``dt`` by
name (:func:`repro.workload.fleet.cohort_key` is the partition key).

**Why the step is written twice.**  The obvious single-source design
writes the step once over a tiny ops shim (``where``/``minimum``/
``maximum`` as ``a if c else b``/``min``/``max`` for scalars,
``np.where``/``np.minimum``/``np.maximum`` for arrays).  A prototype
of its scalar side matched :meth:`FluidSolver.step` bit for bit on
all 81 bundled fluid sweep configs, but cost 2.5× per step (median of
five runs spanning 2.1–2.7×, each the median of 12 alternating passes
of 20 000 steps on a figure-3 point; about 9.1 against 3.6 µs on a
2-vCPU Intel Xeon): every value branch becomes a function call with
both arms evaluated.  Scalar fluid points dominate whole-sweep CPU
time, so the scalar step stays hand-written and this one mirrors it,
held equal by the bitwise equivalence tests.

Per-host latency/delay *distributions* (``latency_pairs``,
``delay_pairs``, ``step_trace``) are deliberately not materialized:
the fleet folds scalar headline metrics only, and keeping those lists
would put a Python list append back into the hot loop.  Likewise the
batch keeps only the accumulators :meth:`BatchFluidSolver.fleet_metrics`
folds (``elapsed``, ``rx_packets``, ``dropped_packets``,
``drained_payload_bytes``): at fleet batch sizes each numpy op costs
microseconds, so step cost tracks op count, and the DMA/drain counts,
latency and utilization integrals, peak queue and timeout model would
cost a third of the step for numbers nothing reads.  Use the scalar
solver when any of those, or the message-latency percentiles of one
host, matter.

Layering: kernel (layer 0), like ``repro.sim.fluid`` — imports only
numpy, its ``repro.sim`` neighbours and the pinned kernel config
modules (enforced by ``scripts/check_layering.py``).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.config import ExperimentConfig
from repro.sim.fluid import (
    _KNEE_SPAN,
    LOSS_CC_BETA,
    QUEUE_KNEE,
    FluidSolver,
)

__all__ = ["BatchFluidSolver"]

#: Scalar-solver attributes harvested into per-host constant arrays.
#: Harvesting from built ``FluidSolver``s (rather than re-deriving from
#: the config tree) keeps one source of truth for every derived
#: constant, including the Che-approximation IOTLB miss rate.
_CONST_ATTRS = (
    "wire_bytes", "payload_bytes", "base_rtt", "misses_per_packet",
    "antagonist_Bps", "nic_write_bytes", "copy_bytes_per_packet",
    "achievable_Bps", "max_queue_delay", "walk_base", "walk_fraction",
    "t_base", "littles_bits", "pcie_goodput_bps", "cpu_wire_bps",
    "cpu_slowdown", "link_rate_bps", "buffer_bytes", "wire_bits",
    "swift_target", "swift_ai_n", "loss_ai_n", "swift_beta",
    "swift_max_mdf", "demand_step_bytes", "min_W", "max_W",
)

#: Structural flags harvested into per-host boolean masks: each picks
#: one of two code paths of the scalar step, lane by lane.
_MASK_ATTRS = ("loss_based", "open_loop", "iommu_on")

#: Mutable per-host state initialized from the freshly built scalar
#: solvers (so time-zero state matches by construction).
_STATE_ATTRS = (
    "W", "q_nic", "q_cpu", "q_demand", "now", "_host_delay",
    "_delayed_signal", "_delayed_loss", "_nic_drain_pps",
    "_cpu_drain_pps", "_last_decrease",
)

#: Measurement-window accumulators: the ``FluidRun`` fields that
#: :meth:`BatchFluidSolver.fleet_metrics` folds (see module docstring).
_ACC_ATTRS = (
    "elapsed", "rx_packets", "dropped_packets", "drained_payload_bytes",
)


class BatchFluidSolver:
    """N hosts' fluid dynamics, stepped together in lock-step.

    ``configs`` may mix transport family, loop mode and IOMMU state
    freely, and every continuous parameter may vary per host, but all
    must share the step size ``dt``: a batch with mixed ``dt`` is
    rejected.  Every config must use the one-hop star fabric: the
    fabric stage exists only in the scalar solver, so any other
    ``fabric.topology`` is rejected rather than silently stepped as a
    star.
    """

    def __init__(self, configs: Sequence[ExperimentConfig]):
        if not configs:
            raise ValueError("BatchFluidSolver needs at least one config")
        for config in configs:
            if config.fabric.topology != "star":
                raise ValueError(
                    f"BatchFluidSolver steps star fabrics only; "
                    f"fabric.topology={config.fabric.topology!r} needs "
                    f"the scalar FluidSolver's fabric stage")
        solvers = [FluidSolver(config) for config in configs]
        self.n = len(solvers)
        steps = {solver.dt for solver in solvers}
        if len(steps) > 1:
            raise ValueError(
                f"mixed dt: all configs in a batch must share the step "
                f"size dt = 2 * link.one_way_delay, got {sorted(steps)} "
                f"(partition with repro.workload.fleet.cohort_key)")
        #: The one step size every lane advances by.
        self.dt = solvers[0].dt
        for attr in _CONST_ATTRS + _STATE_ATTRS:
            setattr(self, attr, np.array(
                [getattr(s, attr) for s in solvers], dtype=np.float64))
        for attr in _MASK_ATTRS:
            setattr(self, attr, np.array(
                [getattr(s, attr) for s in solvers], dtype=bool))
        #: Per-lane ``ai_n * dt`` of the lane's transport family (the
        #: scalar ``W + ai_n * dt / rtt_eff`` multiplies first).
        self._ai_dt = np.where(self.loss_based, self.loss_ai_n * self.dt,
                               self.swift_ai_n * self.dt)
        self.n_receivers = np.array(
            [c.workload.receivers for c in configs], dtype=np.float64)
        self.steps = np.zeros(self.n, dtype=np.int64)
        self.reset_stats()

    def reset_stats(self) -> None:
        """Warmup boundary: restart accumulators, keep CC/queue state
        (mirrors :meth:`FluidSolver.reset_stats`)."""
        for attr in _ACC_ATTRS:
            setattr(self, attr, np.zeros(self.n, dtype=np.float64))

    # -- stepping ------------------------------------------------------------

    def run_until(self, until: float) -> None:
        """Advance every host while its clock is behind ``until`` (same
        loop guard as the scalar ``run_until``).  Lanes share ``dt``
        and start at zero, so their clocks are bitwise equal and lane
        0's stands for all."""
        limit = until - 1e-12
        while self.now[0] < limit:
            self._step()

    def _step(self) -> None:
        dt = self.dt

        # Memory bus: NIC DMA writes + CPU copies + antagonist vs the
        # achievable bandwidth -> utilization and queue delay.
        total_Bps = (self._nic_drain_pps * self.nic_write_bytes
                     + self._cpu_drain_pps * self.copy_bytes_per_packet
                     + self.antagonist_Bps)
        rho = total_Bps / self.achievable_Bps
        x = np.minimum((rho - QUEUE_KNEE) / _KNEE_SPAN, 1.0)
        queue_delay = np.where(rho <= QUEUE_KNEE, 0.0,
                               self.max_queue_delay * (x * x * x))

        # NIC-stage capacity: Little's-law PCIe bound, goodput-capped.
        # Structural branches below compute both arms for every lane
        # with the scalar expressions, then np.where picks the arm the
        # scalar ``if`` would have taken.
        t_total = self.t_base + queue_delay
        walk = self.walk_base + self.walk_fraction * queue_delay
        t_total = np.where(self.iommu_on,
                           t_total + self.misses_per_packet * walk,
                           t_total)
        littles = self.littles_bits / t_total
        nic_Bps = np.minimum(littles, self.pcie_goodput_bps) / 8

        # CPU-stage capacity: per-core rate slowed by bus contention.
        rho_c = np.minimum(rho, 1.0)
        cpu_Bps = (self.cpu_wire_bps
                   * (1.0 - self.cpu_slowdown * rho_c)) / 8

        # Arrivals: window-limited closed loop / open-loop demand drain.
        # ``min`` is exact, so capping both arms at the link rate after
        # the select is the scalar three-way ``min`` bit for bit.
        open_loop = self.open_loop
        rtt_eff = self.base_rtt + self._host_delay
        window_bps = self.W * self.wire_bits / rtt_eff
        q_demand = self.q_demand + self.demand_step_bytes
        arrival_bps = np.minimum(
            np.where(open_loop,
                     np.minimum(window_bps, q_demand * 8 / dt),
                     window_bps),
            self.link_rate_bps)
        inflow = arrival_bps / 8 * dt
        q_demand = np.maximum(q_demand - inflow, 0.0)

        # NIC stage: bounded buffer, tail drop on overflow.
        nic_backlog = self.q_nic + inflow
        dma_bytes = np.minimum(nic_Bps * dt, nic_backlog)
        level = nic_backlog - dma_bytes
        dropped_bytes = np.maximum(level - self.buffer_bytes, 0.0)
        q_nic = np.minimum(level, self.buffer_bytes)
        q_demand = np.where(open_loop, q_demand + dropped_bytes,
                            self.q_demand)
        nic_delay = t_total + q_nic / np.maximum(nic_Bps, 1.0)

        # CPU stage: unbounded in-memory backlog, loss-free.
        cpu_backlog = self.q_cpu + dma_bytes
        done_bytes = np.minimum(cpu_Bps * dt, cpu_backlog)
        q_cpu = cpu_backlog - done_bytes
        host_delay = nic_delay + q_cpu / np.maximum(cpu_Bps, 1.0)

        # Aggregate AIMD against the one-RTT-delayed signal: loss-based
        # lanes grow until a loss round, Swift lanes until the delay
        # signal reaches the target.
        loss_based = self.loss_based
        signal = self._delayed_signal
        now = self.now
        W = self.W
        can_cut = now - self._last_decrease >= rtt_eff
        grow = np.where(loss_based, self._delayed_loss <= 0.0,
                        signal < self.swift_target)
        mdf = np.minimum(
            self.swift_beta * (signal - self.swift_target) / signal,
            self.swift_max_mdf)
        W_new = np.where(
            grow, W + self._ai_dt / rtt_eff,
            np.where(can_cut,
                     W * np.where(loss_based, LOSS_CC_BETA, 1.0 - mdf),
                     W))
        W_new = np.minimum(np.maximum(W_new, self.min_W), self.max_W)
        last_decrease = np.where(~grow & can_cut, now,
                                 self._last_decrease)

        # Accumulators: only what ``fleet_metrics`` folds.
        dropped = dropped_bytes / self.wire_bytes
        drained = done_bytes / self.wire_bytes
        self.elapsed += dt
        self.rx_packets += inflow / self.wire_bytes
        self.dropped_packets += dropped
        self.drained_payload_bytes += drained * self.payload_bytes

        # Roll the delayed signals forward one step.
        self._delayed_signal = self._host_delay
        self._host_delay = host_delay
        self._delayed_loss = dropped_bytes
        self._nic_drain_pps = dma_bytes / self.wire_bytes / dt
        self._cpu_drain_pps = drained / dt
        self.W = W_new
        self._last_decrease = last_decrease
        self.q_nic = q_nic
        self.q_cpu = q_cpu
        self.q_demand = q_demand
        self.now = now + dt
        self.steps += 1

    # -- reporting -----------------------------------------------------------

    def fleet_metrics(self) -> Dict[str, np.ndarray]:
        """Per-host headline metrics, shape ``(N,)`` each, reproducing
        the exact operation chain of ``FluidSolver.snapshot`` +
        ``FluidExperiment.collect`` (symmetric-receiver scaling
        included) so ``link_utilization`` and ``drop_rate`` are
        bit-identical to the scalar pipeline's."""
        m = self.n_receivers
        wire_gbps = np.zeros(self.n)
        np.divide(self.rx_packets * self.wire_bytes * 8, self.elapsed,
                  out=wire_gbps, where=self.elapsed > 0.0)
        wire_gbps = wire_gbps / 1e9
        app_gbps = np.zeros(self.n)
        np.divide(self.drained_payload_bytes * 8, self.elapsed,
                  out=app_gbps, where=self.elapsed > 0.0)
        app_gbps = app_gbps / 1e9
        drop_rate = np.zeros(self.n)
        np.divide(self.dropped_packets, self.rx_packets, out=drop_rate,
                  where=self.rx_packets > 0.0)
        return {
            "link_utilization":
                wire_gbps * m * 1e9 / (self.link_rate_bps * m),
            "drop_rate": drop_rate,
            "app_throughput_gbps": app_gbps * m,
        }
