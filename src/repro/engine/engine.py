"""The retrieval engine: one place for issuance, budgets, and telemetry.

:class:`RetrievalEngine` is created per retrieval.  Mediators hand it
planned queries; it issues them through the configured
:class:`~repro.engine.executor.PlanExecutor`, billing every call *before*
it runs (the accounting invariant: ``stats.queries_issued`` equals the
source's own call log, whatever the weather), wrapping every call in a
telemetry span when traced, and enforcing the
:class:`~repro.engine.policy.ExecutionPolicy` — failure budget, source
budget exhaustion, wall-clock deadline — identically for every mediator
and every executor.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import closing
from typing import Any, Callable, Generator, Iterable, Iterator, Protocol, TypeVar

from repro.engine.executor import ExecutionTask, PlanExecutor, build_executor
from repro.engine.plan import PlannedQuery, QueryKind
from repro.engine.policy import ExecutionPolicy
from repro.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    NullBindingError,
    QueryBudgetExceededError,
    SourceUnavailableError,
)
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation
from repro.resilience.deadline import Deadline, deadline_scope
from repro.resilience.scheduler import SourceScheduler, current_scheduler
from repro.telemetry import SpanKind, Telemetry, maybe_span

__all__ = [
    "FailureKind",
    "RetrievalEngine",
    "RetrievalStatsLike",
    "observe_first_answer",
]

logger = logging.getLogger(__name__)

T = TypeVar("T")


def observe_first_answer(
    stream: Iterable[T], telemetry: Telemetry | None, metric: str
) -> Iterator[T]:
    """Pass *stream* through, observing the latency to its first item.

    The clock starts when the stream is first pulled; the seconds until
    the first item arrives feed the *metric* histogram (when traced).
    Every streaming mediator times its first answer through this one
    wrapper.
    """
    started = time.monotonic()
    items = iter(stream)
    for item in items:
        if telemetry is not None:
            telemetry.observe(metric, time.monotonic() - started)
        yield item
        break
    yield from items


class FailureKind:
    """Kinds of absorbed retrieval failures (mirrored by ``QueryFailure``)."""

    SOURCE_UNAVAILABLE = "source-unavailable"
    BUDGET_EXHAUSTED = "budget-exhausted"
    DEADLINE = "deadline"
    ADMISSION_REJECTED = "admission-rejected"


class RetrievalStatsLike(Protocol):
    """What the engine needs from a stats object (structurally matched by
    :class:`~repro.core.results.RetrievalStats` — the engine cannot import
    it without creating a package cycle)."""

    queries_issued: int
    tuples_retrieved: int
    rewritten_issued: int

    def record_failure(
        self, query: SelectionQuery | None, kind: str, message: str
    ) -> Any: ...


class _SourceLike(Protocol):
    def execute(self, query: SelectionQuery) -> Relation: ...

    def execute_null_binding(
        self, query: SelectionQuery, max_nulls: int | None = ...
    ) -> Relation: ...


_SPAN_KINDS = {
    QueryKind.BASE: SpanKind.BASE_QUERY,
    QueryKind.REWRITTEN: SpanKind.REWRITTEN_QUERY,
    QueryKind.RELAXED: SpanKind.RELAXED_QUERY,
    QueryKind.MULTI_NULL: SpanKind.MULTI_NULL,
}

# Transient failures: absorbed under the failure budget, each recorded as
# its own kind and counted on its own counter.  Load shedding (the
# scheduler refused to queue the call) degrades the plan like a source
# outage, but stays visible as congestion.
_TRANSIENT: dict[type[BaseException], tuple[str, str]] = {
    AdmissionRejectedError: (FailureKind.ADMISSION_REJECTED, "mediator.load_shed"),
    SourceUnavailableError: (FailureKind.SOURCE_UNAVAILABLE, "mediator.source_failures"),
}

# What the engine does with an absorbed outcome.
_CONTINUE = "continue"
_HALT = "halt"
_RAISE = "raise"


class RetrievalEngine:
    """Executes retrieval plans for one mediated retrieval.

    Parameters
    ----------
    source:
        Default source for planned queries without a per-step override.
    policy:
        Failure/deadline/concurrency limits (see :class:`ExecutionPolicy`).
    stats:
        The retrieval's cost accounting and failure log: every issued
        call is counted here *before* it runs, and every absorbed failure
        or blown deadline is recorded into ``stats.failures``, whether
        the caller materializes a result or consumes a stream.
    executor:
        Execution strategy; defaults to one built from
        ``policy.max_concurrency``.
    telemetry:
        Optional telemetry hook; every source call becomes a span and
        feeds the ``mediator.*`` counters.
    clock:
        Injectable monotonic clock backing ``policy.deadline_seconds``.
        The deadline window opens when the engine is constructed.
    label:
        Description of the retrieval (normally the user query) used in
        deadline messages.
    """

    def __init__(
        self,
        source: _SourceLike | None,
        policy: ExecutionPolicy,
        stats: RetrievalStatsLike,
        *,
        executor: PlanExecutor | None = None,
        telemetry: Telemetry | None = None,
        clock: Callable[[], float] = time.monotonic,
        label: str | None = None,
        scheduler: SourceScheduler | None = None,
    ):
        self._source = source
        self._policy = policy
        self.stats = stats
        self._scheduler = scheduler if scheduler is not None else current_scheduler()
        self._executor = executor if executor is not None else build_executor(
            policy.max_concurrency, scheduler=self._scheduler
        )
        self._telemetry = telemetry
        self._clock = clock
        self._label = label
        self._started = clock()
        # The policy deadline as a propagatable value: queued admission
        # waits and retry backoffs below this engine cap against it.
        self._deadline = (
            Deadline(self._started + policy.deadline_seconds, clock)
            if policy.deadline_seconds is not None
            else None
        )
        self._lock = threading.Lock()
        self._source_failures = 0
        self._deadline_noted = False
        self.degraded = False

    # ------------------------------------------------------------------ #
    # Plan execution

    def run_base(self, step: PlannedQuery) -> Relation:
        """Issue a base query inline; its failure always propagates.

        Base queries run serially and outside the failure budget: without
        certain answers there is nothing to degrade *to*.
        """
        return self._issue(step)

    def stream(
        self, plan: Iterable[PlannedQuery]
    ) -> Iterator[tuple[PlannedQuery, Relation]]:
        """Execute planned queries, yielding ``(step, relation)`` in plan order.

        Failed steps are absorbed (recorded, counted, skipped) or
        re-raised according to the policy; a blown deadline stops
        issuance — work in flight completes and merges, nothing new
        starts — and is noted exactly once.
        """
        return self._run(plan, ordered=True)

    def stream_tuples(
        self, plan: Iterable[PlannedQuery]
    ) -> Iterator[tuple[PlannedQuery, Any]]:
        """Execute planned queries, yielding ``(step, row)`` as calls complete.

        The incremental tuple path behind the non-blocking operators
        (:mod:`repro.engine.operators`): the same loop as :meth:`stream`
        over the executor's ``map(..., ordered=False)``, so each source
        call's rows surface the moment that call returns — completion
        order across steps, source row order within a step.  A
        symmetric-hash join fed by this stream emits its first joined
        tuple as soon as a match exists, independent of the slowest
        source.

        Billing, telemetry, deadline and failure absorption are those of
        :meth:`stream` — every call is counted before it runs — but
        failures are absorbed in completion order, so under a failure
        *budget* the set of absorbed steps may be schedule-dependent
        (the strict policies the join processors run under are not
        affected: their first failure raises at any width).  Consumers
        must impose their own deterministic final order: rank at the
        end, stream in the middle.
        """
        with closing(self._run(plan, ordered=False)) as results:
            for step, relation in results:
                for row in relation:
                    yield step, row

    def _run(
        self, plan: Iterable[PlannedQuery], *, ordered: bool
    ) -> Generator[tuple[PlannedQuery, Relation], None, None]:
        """The one fan-out loop behind :meth:`stream` and :meth:`stream_tuples`."""
        steps = list(plan)
        if not steps:
            return
        halted = False

        def should_stop() -> bool:
            return halted or self.deadline_exceeded()

        tasks = (
            ExecutionTask(index, self._runner(step))
            for index, step in enumerate(steps)
        )
        consumed = 0
        with closing(
            self._executor.map(tasks, should_stop, ordered=ordered)
        ) as outcomes:
            for outcome in outcomes:
                consumed += 1
                step = steps[outcome.rank]
                if outcome.error is None:
                    if step.kind == QueryKind.REWRITTEN:
                        with self._lock:
                            self.stats.rewritten_issued += 1
                    yield step, outcome.value
                    continue
                verdict = self._absorb(step, outcome.error)
                if verdict == _RAISE:
                    raise outcome.error
                if verdict == _HALT:
                    halted = True
                    break
        if consumed < len(steps) and not halted and self.deadline_exceeded():
            self._note_deadline()

    def deadline_exceeded(self) -> bool:
        deadline = self._policy.deadline_seconds
        return deadline is not None and self._clock() - self._started > deadline

    # ------------------------------------------------------------------ #
    # One billable source call

    def _runner(self, step: PlannedQuery) -> Callable[[], Relation]:
        return lambda: self._issue(step)

    def _issue(self, step: PlannedQuery) -> Relation:
        """One billable source call: counted *before* it runs, spanned when traced.

        Issuance is recorded up front so calls that fail — transiently, on
        an exhausted budget, or with the response lost after the source
        already charged for the work — still appear in
        ``stats.queries_issued``.  This keeps the mediator's cost
        accounting aligned with the source's own access log instead of
        silently undercounting exactly the calls that hurt most.  Runs on
        the executor's thread, so all shared bookkeeping is locked.
        """
        source = step.source if step.source is not None else self._source
        if source is None:
            raise ValueError(f"planned query {step.query} has no source to run on")
        with self._lock:
            self.stats.queries_issued += 1
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.count("mediator.queries_issued")
        attributes: dict[str, Any] = {"query": str(step.query)}
        if step.kind == QueryKind.REWRITTEN:
            attributes["precision"] = round(step.estimated_precision, 6)
        if step.source is not None:
            attributes["source"] = getattr(source, "name", "?")
        with maybe_span(
            telemetry, step.span_name(), _SPAN_KINDS[step.kind], **attributes
        ) as span:
            retrieved = self._call_source(source, step)
            if span is not None:
                span.set(tuples=len(retrieved))
        with self._lock:
            self.stats.tuples_retrieved += len(retrieved)
        if telemetry is not None:
            telemetry.count("mediator.tuples_retrieved", len(retrieved))
        return retrieved

    def _call_source(self, source: Any, step: PlannedQuery) -> Relation:
        """Put one planned call on the wire, via the scheduler when present.

        The thunk carries the engine's deadline as ambient state so
        layers beneath the call (retry backoff sleeps, hedge copies on
        scheduler threads) see the same budget the engine enforces
        between calls.  Hedge backups launched by the scheduler are
        billed through ``_bill_hedge`` the moment they fire, keeping
        ``stats.queries_issued`` equal to the source's own call log.
        """
        if step.kind == QueryKind.MULTI_NULL:
            operation = f"null-binding:{step.max_nulls}"

            def perform() -> Relation:
                return source.execute_null_binding(step.query, max_nulls=step.max_nulls)
        else:
            operation = "execute"

            def perform() -> Relation:
                return source.execute(step.query)

        def thunk() -> Relation:
            with deadline_scope(self._deadline):
                return perform()

        scheduler = self._scheduler
        if scheduler is None:
            return thunk()
        return scheduler.call(
            source,
            step.query,
            operation,
            thunk,
            deadline=self._deadline,
            on_hedge_launch=self._bill_hedge,
        )

    def _bill_hedge(self) -> None:
        """Count a hedge backup as one more issued query, as it launches."""
        with self._lock:
            self.stats.queries_issued += 1
        if self._telemetry is not None:
            self._telemetry.count("mediator.queries_issued")
            self._telemetry.count("mediator.hedges_issued")

    # ------------------------------------------------------------------ #
    # Policy enforcement (absorbed in plan-merge order, so failure
    # semantics do not depend on the execution strategy)

    def _absorb(self, step: PlannedQuery, error: BaseException) -> str:
        if step.required:
            # Required steps are exempt from every absorption rule: their
            # failure is the retrieval's failure (counterfactual baselines).
            return _RAISE
        if isinstance(error, NullBindingError) and step.kind == QueryKind.MULTI_NULL:
            # A capability gap, not a failure: the attempt was billed (the
            # source's own log records the rejection) but lost no answers.
            return _CONTINUE
        failure_query = None if step.kind == QueryKind.MULTI_NULL else step.query
        if isinstance(error, QueryBudgetExceededError):
            self.stats.record_failure(
                failure_query, FailureKind.BUDGET_EXHAUSTED, str(error)
            )
            self.degraded = True
            if self._telemetry is not None:
                self._telemetry.count("mediator.budget_exhausted")
            if self._policy.tolerate_budget_exhaustion:
                return _HALT  # degrade gracefully: ship what we have
            return _RAISE
        if isinstance(error, DeadlineExceededError):
            # A layer below the engine (admission wait, retry backoff,
            # dedup follower timeout) hit the propagated deadline.  Note
            # it once and halt: nothing later in the plan can be
            # admitted either.
            self._note_deadline()
            return _HALT
        transient = next(
            (rule for cls, rule in _TRANSIENT.items() if isinstance(error, cls)),
            None,
        )
        if transient is not None:
            kind, counter = transient
            with self._lock:
                self._source_failures += 1
                failures = self._source_failures
            self.stats.record_failure(failure_query, kind, str(error))
            self.degraded = True
            if self._telemetry is not None:
                self._telemetry.count(counter)
            budget = self._policy.max_source_failures
            if budget is not None and failures > budget:
                return _RAISE
            logger.info(
                "planned query %r was absorbed as %s (%s); continuing "
                "with the remaining plan", step.query, kind, error,
            )
            return _CONTINUE  # skip this step, the rest of the plan stands
        return _RAISE

    def _note_deadline(self) -> None:
        """Record the blown deadline; raise when strict mode demands it.

        Noted at most once per retrieval: a deadline error absorbed from
        a plan step and the post-stream deadline check must not produce
        two failure records for the same spent budget.
        """
        with self._lock:
            if self._deadline_noted:
                return
            self._deadline_noted = True
        elapsed = self._clock() - self._started
        message = (
            f"retrieval for {self._label} exceeded its deadline of "
            f"{self._policy.deadline_seconds}s after {elapsed:.3f}s"
        )
        self.stats.record_failure(None, FailureKind.DEADLINE, message)
        if self._telemetry is not None:
            self._telemetry.count("mediator.deadline_exceeded")
        self.degraded = True
        if not self._policy.tolerate_deadline_exceeded:
            raise DeadlineExceededError(message)
        logger.info("%s; returning a degraded result", message)
