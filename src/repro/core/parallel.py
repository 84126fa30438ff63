"""Parallel experiment execution.

Every paper figure is a sweep of 8–20 *independent* ``run_experiment``
calls, so sweeps are embarrassingly parallel.  This module fans the
runs out to worker processes while keeping the output bit-identical to
a serial run:

- each run derives **all** randomness from its own ``config.sim.seed``
  (a fresh ``Simulator`` + ``RngRegistry`` per run, no module-level
  RNG), so results do not depend on which process executes them;
- results are reassembled in **submission order**, not completion
  order, so the :class:`~repro.core.results.ResultTable` layout matches
  the serial runner row for row;
- pickling is exact for floats, so worker → parent transport does not
  perturb a single bit.

One driver, :func:`_drive`, owns all of the process plumbing: the
:class:`~concurrent.futures.ProcessPoolExecutor`, the bounded
submit/wait/reorder loop, cancellation of queued work on error or
abandonment, and the managed event queue that carries in-worker
telemetry to the parent.  Serial execution (``workers=1``) stays
in-process and goes through the same task function.  The three public
entry points are thin layers over it:

- :func:`run_many` — a config list: cache split, then the driver with
  a window equal to the pending count, so every run is submitted at
  once and one slow point cannot leave workers idle;
- :func:`run_stream` — a lazily drawn config sequence through a
  bounded window (default ``2 * workers``), constant parent memory;
  the engine of the million-host scalar fleet
  (:meth:`repro.workload.fleet.FleetSampler.run_aggregate`);
- :func:`map_stream` — the same streaming shape for an arbitrary
  picklable task function (the batched fleet's index ranges).

Failure semantics: a worker exception aborts the sweep with a
:class:`SweepRunError` carrying the offending config — unless
``failures="keep"``, which instead yields a structured
:class:`~repro.core.results.FailedRun` (exception class + truncated
traceback attached) in the table.  A per-run *timeout* always yields a
``FailedRun`` placeholder, so one pathological operating point cannot
sink a 20-run figure sweep.

Live telemetry: pass ``events`` (any callable taking a dict) and the
runner streams lifecycle events — ``plan``, ``queued``, ``cached``,
``started``, ``finished``, ``failed``.  ``started`` originates *inside*
the worker process and travels over a managed multiprocessing queue
that exists only while a sink is attached; with ``events=None`` (the
default) no queue, no manager process, and no per-run stats collection
happen at all.  ``finished``/``failed`` are emitted as each outcome is
settled, in submission order.  Event dicts are exactly the rows of the
JSONL run ledger (:mod:`repro.core.ledger`) and the input to
:class:`~repro.obs.telemetry.RunAggregate`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.cache import ResultCache
from repro.core.config import ExperimentConfig
from repro.core.experiment import run_experiment
from repro.core.results import ExperimentResult, FailedRun

__all__ = [
    "RunOutcome",
    "SweepRunError",
    "map_stream",
    "resolve_workers",
    "run_many",
    "run_stream",
]

Workers = Union[int, str, None]
EventSink = Callable[[Dict], None]

#: result.metrics keys copied into ``finished``/``cached`` events for
#: live sketches — the headline observables of the paper.
_HEADLINE_METRICS = ("app_throughput_gbps", "drop_rate",
                     "link_utilization")


class SweepRunError(RuntimeError):
    """A sweep run raised: carries the offending config and its index."""

    def __init__(self, index: int, config: ExperimentConfig,
                 message: str, worker_traceback: str = ""):
        super().__init__(
            f"sweep run #{index} failed: {message} "
            f"(config: {config.describe()})")
        self.index = index
        self.config = config
        self.worker_traceback = worker_traceback


@dataclass(frozen=True)
class RunOutcome:
    """One finished run: its table position, result, and provenance."""

    index: int
    result: ExperimentResult
    #: Full metrics-registry snapshot, when requested (or cached).
    snapshot: Optional[dict]
    #: True when the result came from the on-disk cache, not a run.
    cached: bool = False


def resolve_workers(workers: Workers) -> int:
    """Normalize a ``workers`` argument to a concrete process count.

    ``None``/``0``/``1`` mean serial; ``"auto"`` resolves to
    ``os.cpu_count() - 1`` (never below 1) so a sweep leaves one core
    for the parent and the rest of the machine.
    """
    if workers is None or workers == 0:
        return 1
    if workers == "auto":
        return max(1, (os.cpu_count() or 2) - 1)
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    return count


class _RunTimeout(Exception):
    """Internal: raised by the SIGALRM handler inside a worker."""


def _raise_timeout(signum, frame):
    raise _RunTimeout()


#: Worker-side event channel: a managed queue's ``put``, installed by
#: the pool initializer when (and only when) telemetry is on.  ``None``
#: means silent — the default, and the entire cost when disabled.
_EVENT_SINK: Optional[EventSink] = None


def _init_worker(queue) -> None:
    global _EVENT_SINK
    _EVENT_SINK = queue.put


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return None


def _headline(result: ExperimentResult) -> Dict[str, float]:
    return {key: result.metrics[key] for key in _HEADLINE_METRICS
            if key in result.metrics}


def _execute(index: int, config: ExperimentConfig, want_snapshot: bool,
             timeout: Optional[float],
             emit: Optional[EventSink] = None) -> Tuple[int, tuple]:
    """Run one experiment (worker side — also the serial code path).

    Returns ``(index, payload)`` where payload is one of
    ``("ok", result, snapshot, stats)``,
    ``("timeout", failed_run, stats)``, or
    ``("error", message, traceback_text, exception_type, stats)``.
    Exceptions never escape: they are serialized so the parent can
    attach the config.  ``stats`` is ``None`` unless an event sink is
    attached (serial: ``emit``; pool: the initializer-installed queue)
    — telemetry off means zero extra work here.
    """
    sink = emit if emit is not None else _EVENT_SINK
    if sink is not None:
        sink({"ev": "started", "index": index, "pid": os.getpid(),
              "ts": time.time()})
    start = time.perf_counter()

    def stats_for(handles: list) -> Optional[dict]:
        if sink is None:
            return None
        stats = {"wall_s": time.perf_counter() - start,
                 "pid": os.getpid(), "ts": time.time(),
                 "peak_rss_kb": _peak_rss_kb()}
        if handles:
            stats["sim_s"] = handles[0].sim.now
            stats["engine_events"] = handles[0].sim.events_dispatched
        return stats

    # Enforce the per-run timeout with a real interval timer where the
    # platform has one (ProcessPoolExecutor workers are single-threaded
    # main threads, so SIGALRM is safe); elsewhere fall back to a
    # post-hoc wall-clock check.
    arm = timeout is not None and hasattr(signal, "SIGALRM")
    handles: list = []
    try:
        if arm:
            previous = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            result = run_experiment(config, handle_out=handles)
            snapshot = (handles[0].metrics_snapshot()
                        if want_snapshot else None)
        finally:
            if arm:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
    except _RunTimeout:
        elapsed = time.perf_counter() - start
        failed = FailedRun.from_config(
            config, kind="timeout",
            error=f"run exceeded {timeout:g}s timeout",
            elapsed_s=elapsed)
        return index, ("timeout", failed, stats_for(handles))
    except Exception as exc:  # serialized for the parent to attach config
        return index, ("error", repr(exc), traceback.format_exc(),
                       type(exc).__name__, stats_for(handles))
    elapsed = time.perf_counter() - start
    if timeout is not None and not arm and elapsed > timeout:
        failed = FailedRun.from_config(
            config, kind="timeout",
            error=f"run exceeded {timeout:g}s timeout", elapsed_s=elapsed)
        return index, ("timeout", failed, stats_for(handles))
    return index, ("ok", result, snapshot, stats_for(handles))


def _settle(
    index: int,
    config: ExperimentConfig,
    payload: tuple,
    events: Optional[EventSink],
    failures: str,
    *,
    cache: Optional[ResultCache] = None,
    want_snapshots: bool = False,
) -> RunOutcome:
    """Convert a worker payload into a :class:`RunOutcome`.

    Shared by :func:`run_many` and :func:`run_stream`: emits the
    ``finished``/``failed`` lifecycle event, stores successes in the
    cache, and — under ``failures="raise"`` — raises
    :class:`SweepRunError` with the offending config attached.
    """
    kind = payload[0]
    if kind == "error":
        _, message, tb_text, exc_type, stats = payload
        if events is not None:
            events({"ev": "failed", "index": index,
                    "failure_kind": "error", "error": message,
                    "exception_type": exc_type,
                    "traceback_tail":
                        tb_text[-FailedRun.TRACEBACK_LIMIT:],
                    **(stats or {"ts": time.time()})})
        if failures == "raise":
            raise SweepRunError(index, config, message,
                                worker_traceback=tb_text)
        failed = FailedRun.from_config(
            config, kind="error", error=message,
            elapsed_s=(stats or {}).get("wall_s", 0.0),
            exception_type=exc_type, traceback_text=tb_text)
        return RunOutcome(index=index, result=failed, snapshot=None)
    if kind == "timeout":
        _, failed, stats = payload
        if events is not None:
            events({"ev": "failed", "index": index,
                    "failure_kind": "timeout", "error": failed.error,
                    **(stats or {"ts": time.time()})})
        return RunOutcome(index=index, result=failed, snapshot=None)
    _, result, snapshot, stats = payload
    if cache is not None:
        cache.put(config, result, snapshot)
    if events is not None:
        events({"ev": "finished", "index": index,
                "params": config.describe(),
                "metrics": _headline(result),
                **(stats or {"ts": time.time()})})
    return RunOutcome(index=index, result=result,
                      snapshot=snapshot if want_snapshots else None)


def _drive(
    fn: Callable,
    tasks: Iterable[tuple],
    n_workers: int,
    *,
    window: Optional[int] = None,
    events: Optional[EventSink] = None,
) -> Iterator[Tuple[int, object]]:
    """The one execution driver: yield ``(position, fn(*args))`` for
    each argument tuple in ``tasks``, in submission order.

    ``tasks`` is consumed lazily.  With ``n_workers == 1`` every task
    runs in-process, given ``events`` (when set) as ``emit=``.
    Otherwise tasks go to a process pool with at most ``window``
    (default ``2 * n_workers``, never below ``n_workers``) submitted
    or buffered at once, so parent memory is bounded by the window,
    not the task count.  With ``events`` set, a manager-hosted queue
    is handed to every worker and drained between completions (and
    once more at the end); event ordering across processes is
    best-effort.

    An exception raised by ``fn`` propagates.  It, Ctrl-C, or closing
    the generator early cancels every queued task, so shutdown does
    not run the rest of the stream.
    """
    numbered = enumerate(tasks)
    if n_workers == 1:
        emit = {} if events is None else {"emit": events}
        for position, args in numbered:
            yield position, fn(*args, **emit)
        return

    window = (2 * n_workers if window is None
              else max(int(window), n_workers))
    manager = multiprocessing.Manager() if events is not None else None
    try:
        queue = manager.Queue() if manager is not None else None
        init = ({"initializer": _init_worker, "initargs": (queue,)}
                if queue is not None else {})
        poll = 0.2 if queue is not None else None

        def drain() -> None:
            while queue is not None and not queue.empty():
                events(queue.get_nowait())

        with ProcessPoolExecutor(max_workers=n_workers, **init) as pool:
            in_flight: Dict = {}            # future -> position
            ready: Dict[int, object] = {}   # position -> result
            next_yield = 0
            exhausted = False

            def top_up() -> None:
                nonlocal exhausted
                while (not exhausted
                       and len(in_flight) + len(ready) < window):
                    try:
                        position, args = next(numbered)
                    except StopIteration:
                        exhausted = True
                        return
                    in_flight[pool.submit(fn, *args)] = position

            try:
                top_up()
                while in_flight or ready:
                    if in_flight:
                        done, _ = wait(in_flight, timeout=poll,
                                       return_when=FIRST_COMPLETED)
                        drain()
                        for future in done:
                            position = in_flight.pop(future)
                            ready[position] = future.result()
                    while next_yield in ready:
                        position = next_yield
                        next_yield += 1
                        result = ready.pop(position)
                        top_up()
                        yield position, result
                    top_up()
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        drain()
    finally:
        if manager is not None:
            manager.shutdown()


def _check_failures(failures: str) -> None:
    if failures not in ("raise", "keep"):
        raise ValueError(
            f"failures must be 'raise' or 'keep', got {failures!r}")


def run_many(
    configs: Iterable[ExperimentConfig],
    *,
    workers: Workers = None,
    timeout: Optional[float] = None,
    want_snapshots: bool = False,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, ExperimentResult], None]] = None,
    events: Optional[EventSink] = None,
    failures: str = "raise",
) -> List[RunOutcome]:
    """Run every config and return outcomes in input order.

    ``progress`` is invoked once per run with the run's table index
    and result: first for every cache hit, then for each executed run
    in table order.

    ``events`` receives lifecycle event dicts (see module docstring) as
    they happen; ``None`` disables all telemetry work.  ``failures``
    selects crash semantics: ``"raise"`` aborts the sweep with
    :class:`SweepRunError`; ``"keep"`` records a structured
    :class:`FailedRun` row and keeps sweeping.
    """
    _check_failures(failures)
    configs = list(configs)
    outcomes: List[Optional[RunOutcome]] = [None] * len(configs)

    pending: List[int] = []
    cached_hits: List[Tuple[int, RunOutcome]] = []
    for index, config in enumerate(configs):
        hit = (cache.get(config, want_snapshot=want_snapshots)
               if cache is not None else None)
        if hit is not None:
            outcomes[index] = RunOutcome(
                index=index, result=hit.result,
                snapshot=hit.snapshot if want_snapshots else None,
                cached=True)
            cached_hits.append((index, outcomes[index]))
        else:
            pending.append(index)

    if events is not None:
        events({"ev": "plan", "total": len(configs),
                "pending": len(pending), "cached": len(cached_hits),
                "ts": time.time()})
        for index in pending:
            events({"ev": "queued", "index": index,
                    "params": configs[index].describe(),
                    "ts": time.time()})
    for index, outcome in cached_hits:
        if events is not None:
            events({"ev": "cached", "index": index,
                    "params": configs[index].describe(),
                    "metrics": _headline(outcome.result),
                    "ts": time.time()})
        if progress is not None:
            progress(index, outcome.result)

    # Snapshots are computed in-worker whenever they are wanted *or*
    # cached, so a later `--metrics-out` rerun can hit the same entry.
    want = want_snapshots or cache is not None
    n_workers = min(resolve_workers(workers), max(1, len(pending)))
    tasks = ((index, configs[index], want, timeout) for index in pending)
    # A window of the whole pending list submits every run up front, so
    # one slow operating point cannot leave the other workers idle.
    with closing(_drive(_execute, tasks, n_workers,
                        window=len(pending), events=events)) as done:
        for _, (index, payload) in done:
            outcomes[index] = _settle(index, configs[index], payload,
                                      events, failures, cache=cache,
                                      want_snapshots=want_snapshots)
            if progress is not None:
                progress(index, outcomes[index].result)

    return outcomes  # type: ignore[return-value]


def run_stream(
    configs: Iterable[ExperimentConfig],
    *,
    workers: Workers = None,
    timeout: Optional[float] = None,
    events: Optional[EventSink] = None,
    failures: str = "keep",
    window: Optional[int] = None,
    start_index: int = 0,
) -> Iterator[RunOutcome]:
    """Stream outcomes for a lazily-drawn config sequence.

    The constant-memory sibling of :func:`run_many`: ``configs`` is
    consumed incrementally (never materialized), at most ``window``
    runs are in flight or buffered at any moment (default
    ``2 * workers``), and outcomes are yielded **in submission order**
    — the reorder buffer is bounded by the window, so parent memory is
    independent of the stream length.  Outcome indices count from
    ``start_index`` (a sharded caller passes its shard's global
    offset, so ledger rows carry fleet-wide host indices).

    ``failures`` defaults to ``"keep"`` — one pathological host in a
    million-host stream yields a structured :class:`FailedRun` outcome
    instead of sinking the run; pass ``"raise"`` for
    :func:`run_many`-style abort semantics.  There is no cache or
    snapshot plumbing here: a streaming consumer folds each outcome
    and drops it, so memoizing per-run payloads would defeat the
    point.

    Back-pressure note: submission pauses while the consumer holds an
    outcome, so a slow fold slows the pool instead of letting results
    pile up in the parent.
    """
    _check_failures(failures)
    # Configs drawn but not yet settled, oldest first: the driver
    # yields in submission order, so each result pairs with the head.
    drawn: Deque[ExperimentConfig] = deque()

    def tasks() -> Iterator[tuple]:
        for index, config in enumerate(configs, start=start_index):
            drawn.append(config)
            yield index, config, False, timeout

    with closing(_drive(_execute, tasks(), resolve_workers(workers),
                        window=window, events=events)) as done:
        for _, (index, payload) in done:
            yield _settle(index, drawn.popleft(), payload, events,
                          failures)


def map_stream(
    fn: Callable,
    tasks: Iterable[tuple],
    *,
    workers: Workers = None,
    window: Optional[int] = None,
) -> Iterator[Tuple[int, object]]:
    """Stream ``fn(*args)`` results over a lazy task sequence, in order.

    The task-shaped sibling of :func:`run_stream`, for callers whose
    unit of work is *not* one experiment config — e.g. the batched
    fleet backend, whose tasks are whole index ranges.  ``fn`` must be
    a module-level (picklable) callable and ``tasks`` an iterable of
    argument tuples; yields ``(position, fn(*args))`` in submission
    order with at most ``window`` tasks in flight or buffered
    (default ``2 * workers``), so parent memory is bounded by the
    window, never the stream length.

    Failure semantics are the caller's: an exception raised by ``fn``
    propagates (aborting the pool and cancelling queued tasks), so a
    fault-tolerant caller catches inside ``fn`` and returns a
    structured failure value instead.
    """
    return _drive(fn, tasks, resolve_workers(workers), window=window)
