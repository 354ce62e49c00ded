"""Plan executors: the *how* of a retrieval.

An executor turns a stream of :class:`ExecutionTask` thunks into a
stream of :class:`TaskOutcome` values through one method,
``map(tasks, should_stop, *, ordered=True)``.  The contract every
executor honours:

* **Merge order.**  With ``ordered=True`` outcomes are yielded strictly
  in task order, whatever order the underlying calls complete in, so
  answer order (and therefore ranking) never depends on the execution
  strategy.  With ``ordered=False`` each outcome surfaces the moment its
  task finishes, so a fast source call is never held behind a slow
  earlier one; the non-blocking operator layer
  (:mod:`repro.engine.operators`) is built on it, and its consumers owe
  their own deterministic final ordering.
* **Prefix semantics.**  When ``should_stop()`` turns true, no further
  tasks are *started*; work already in flight runs to completion (a call
  on the wire is never interrupted) but the outcome stream simply ends.
  The started tasks are always a prefix of the plan (and, when
  *ordered*, so are the consumed outcomes).
* **Errors are data.**  A task that raises yields an outcome carrying
  the exception instead of propagating it; the engine decides whether to
  absorb or re-raise, so failure-budget semantics live in one place.

:class:`SerialExecutor` runs tasks inline and lazily — it is the
historical mediator loop, pulling one task per outcome consumed.
:class:`ConcurrentExecutor` keeps up to ``max_workers`` tasks in flight
on a thread pool; it trades the serial executor's strict laziness for
bounded prefetch.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Protocol

from repro.errors import QpiadError

__all__ = [
    "ConcurrentExecutor",
    "ExecutionTask",
    "PlanExecutor",
    "SerialExecutor",
    "TaskOutcome",
    "build_executor",
]


@dataclass(frozen=True)
class ExecutionTask:
    """One unit of plan work: a rank and a thunk that performs the call."""

    rank: int
    run: Callable[[], Any]


@dataclass(frozen=True)
class TaskOutcome:
    """What became of one task: a value, or the exception it raised."""

    rank: int
    value: Any = None
    error: BaseException | None = None


class PlanExecutor(Protocol):
    """The pluggable execution strategy for a retrieval plan."""

    name: str

    def map(
        self,
        tasks: Iterable[ExecutionTask],
        should_stop: Callable[[], bool],
        *,
        ordered: bool = True,
    ) -> Generator[TaskOutcome, None, None]:
        """Yield one outcome per started task: in task order when
        *ordered*, else in completion order."""
        ...


class SerialExecutor:
    """Run tasks inline, one at a time, pulling lazily.

    This is the default and reproduces the historical mediator loops
    exactly: a task only runs when its outcome is consumed, so a caller
    that stops reading (the streaming interface) never spends budget on
    queries it did not need.  Completion order *is* task order here, so
    *ordered* changes nothing.

    *scheduler*, when given, is the process's
    :class:`~repro.resilience.SourceScheduler`; the executor notes each
    task start with it so admission telemetry can attribute load to the
    execution strategy that generated it.  (The actual admission /
    dedup / hedging happens inside the engine's per-call routing, not
    here — the executor's job is only *when* tasks run.)
    """

    name = "serial"

    def __init__(self, scheduler: Any = None):
        self.scheduler = scheduler

    def map(
        self,
        tasks: Iterable[ExecutionTask],
        should_stop: Callable[[], bool],
        *,
        ordered: bool = True,
    ) -> Generator[TaskOutcome, None, None]:
        for task in tasks:
            if should_stop():
                return
            if self.scheduler is not None:
                self.scheduler.note_task_start(self.name)
            try:
                value = task.run()
            except Exception as exc:
                yield TaskOutcome(task.rank, error=exc)
            else:
                yield TaskOutcome(task.rank, value=value)


class ConcurrentExecutor:
    """Run up to *max_workers* tasks at once on a thread pool.

    The window is bounded: at most *max_workers* tasks are in flight (or
    prefetched) beyond what the consumer has read, so issuance stays
    roughly demand-driven.  *ordered* only picks which finished task is
    yielded next — the oldest in the window (task order) or whichever
    completes first — so one slow call never delays the answers of the
    fast ones on the streaming path.  When ``should_stop()`` turns true,
    submission stops; tasks already submitted run to completion (the
    pool is never cancelled) and any unread outcomes are discarded with
    it — exactly the serial executor's "break out of the loop"
    generalised to a window wider than one.
    """

    name = "concurrent"

    def __init__(self, max_workers: int, scheduler: Any = None):
        if max_workers < 1:
            raise QpiadError(f"max_workers must be at least 1, got {max_workers}")
        self.max_workers = max_workers
        self.scheduler = scheduler

    def map(
        self,
        tasks: Iterable[ExecutionTask],
        should_stop: Callable[[], bool],
        *,
        ordered: bool = True,
    ) -> Generator[TaskOutcome, None, None]:
        iterator = iter(tasks)
        with ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="qpiad-engine"
        ) as pool:
            # Submitted but not yet yielded, oldest first.
            window: dict[Future[Any], ExecutionTask] = {}
            exhausted = False
            while True:
                while not exhausted and len(window) < self.max_workers:
                    if should_stop():
                        exhausted = True
                        break
                    try:
                        task = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    if self.scheduler is not None:
                        self.scheduler.note_task_start(self.name)
                    window[pool.submit(task.run)] = task
                if not window:
                    return
                if ordered:
                    future = next(iter(window))
                else:
                    done, __ = wait(window, return_when=FIRST_COMPLETED)
                    future = next(f for f in window if f in done)
                task = window.pop(future)
                error = future.exception()
                if error is not None:
                    yield TaskOutcome(task.rank, error=error)
                else:
                    yield TaskOutcome(task.rank, value=future.result())


def build_executor(max_concurrency: int, scheduler: Any = None) -> PlanExecutor:
    """The executor for a concurrency width: serial at 1, thread pool above.

    *scheduler* (a :class:`~repro.resilience.SourceScheduler`) is handed
    to the executor for load attribution; it is duck-typed here to keep
    this module free of a resilience-package import.
    """
    if max_concurrency < 1:
        raise QpiadError(
            f"max_concurrency must be at least 1, got {max_concurrency}"
        )
    if max_concurrency == 1:
        return SerialExecutor(scheduler=scheduler)
    return ConcurrentExecutor(max_concurrency, scheduler=scheduler)
