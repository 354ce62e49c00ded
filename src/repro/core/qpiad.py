"""The QPIAD mediator for selection queries (Sections 3, 4.1, 4.2).

:class:`QpiadMediator` wires the pieces together exactly as Figure 1 shows:
the query reformulator issues the original query for the base result set,
generates rewritten queries from mined AFDs, orders them by F-measure,
issues the top-K in precision order, post-filters, and returns certain
answers plus ranked relevant possible answers.

Since the engine refactor the mediator only *plans* and *post-filters*;
issuing, cost accounting, failure budgets, deadlines, and telemetry spans
live in :class:`~repro.engine.RetrievalEngine`, shared by every mediator.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.results import QueryResult, RankedAnswer, RetrievalStats
from repro.engine import (
    ExecutionPolicy,
    PlanExecutor,
    PlannedQuery,
    QueryKind,
    RetrievalEngine,
)
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore, as_store
from repro.planner import PlanCache, PlannerConfig, QueryPlanner, SelectionPlan
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation, Row
from repro.relational.values import is_null
from repro.resilience.scheduler import SourceScheduler
from repro.sources.autonomous import AutonomousSource
from repro.telemetry import SpanKind, Telemetry, maybe_span

__all__ = ["QpiadConfig", "QpiadMediator"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QpiadConfig:
    """Mediator tuning knobs (Section 4.1's α and K, plus extras).

    Parameters
    ----------
    alpha:
        F-measure weight: 0 orders purely by precision; 1 weighs precision
        and recall equally (paper Figure 5 sweeps this).
    k:
        Maximum number of rewritten queries issued per user query
        (``None`` = unlimited).  Models source rate limits.
    classifier_method:
        Which Table-3 classifier variant assesses value distributions.
    retrieve_multi_null:
        When the source (counterfactually) supports NULL binding, also fetch
        tuples with ≥2 NULLs over the constrained attributes and append them
        unranked, per the paper's assumption; ignored for plain web sources,
        which cannot express such a request.
    rank_multi_null:
        With :attr:`retrieve_multi_null`, additionally order the appended
        multi-NULL tuples among themselves by the joint probability that
        *all* their missing constrained values satisfy the query (naive
        product of per-attribute posteriors).  They still sort after every
        single-NULL ranked answer, honouring the paper's assumption that
        such tuples are less relevant.
    min_confidence:
        Drop ranked answers whose confidence falls below this threshold
        (Fig. 9's user-side filter); 0 keeps everything.
    tolerate_budget_exhaustion:
        When the source's query budget runs out mid-retrieval, return the
        answers gathered so far instead of propagating the error.  The base
        query's failure always propagates — without certain answers there
        is nothing to return.
    max_source_failures:
        Failure budget for transient source errors on *rewritten* queries:
        each :class:`~repro.errors.SourceUnavailableError` is recorded in
        the result's failure log and the plan continues with the next
        rewriting, until this many failures have been absorbed — the next
        one propagates.  ``None`` (the default) tolerates any number, so a
        flaky source degrades the answer instead of destroying it; ``0``
        restores strict all-or-nothing behaviour.  The base query is never
        covered by this budget: without certain answers there is nothing to
        degrade *to*.
    deadline_seconds:
        Optional wall-clock budget for one mediated retrieval, measured by
        the mediator's injectable clock.  Checked between source calls (a
        call in flight is never interrupted); once exceeded, no further
        rewritten queries are issued.
    tolerate_deadline_exceeded:
        When the deadline passes mid-plan, return the answers gathered so
        far (flagged degraded) rather than raising
        :class:`~repro.errors.DeadlineExceededError`.
    max_concurrency:
        How many rewritten queries may be in flight at once.  ``1`` (the
        default) runs the plan serially, exactly as the paper's loop; a
        higher value opts in to the thread-pool executor, which issues
        queries in parallel but merges outcomes deterministically in plan
        order — answers, order, and confidences are identical on a
        healthy source (``qpiad query --concurrency N`` on the CLI).
    """

    alpha: float = 0.0
    k: int | None = 10
    classifier_method: str | None = None
    retrieve_multi_null: bool = False
    rank_multi_null: bool = False
    min_confidence: float = 0.0
    tolerate_budget_exhaustion: bool = True
    max_source_failures: int | None = None
    deadline_seconds: float | None = None
    tolerate_deadline_exceeded: bool = True
    max_concurrency: int = 1

    def __post_init__(self) -> None:
        # Each check lives with the slice that owns it; building both
        # slices validates this configuration at construction.
        self.planner_config()
        self.execution_policy()

    def planner_config(self) -> PlannerConfig:
        """The planner-facing slice of this configuration."""
        return PlannerConfig(
            alpha=self.alpha,
            k=self.k,
            classifier_method=self.classifier_method,
            min_confidence=self.min_confidence,
        )

    def execution_policy(self) -> ExecutionPolicy:
        """The engine-facing slice of this configuration."""
        return ExecutionPolicy(
            max_source_failures=self.max_source_failures,
            deadline_seconds=self.deadline_seconds,
            tolerate_budget_exhaustion=self.tolerate_budget_exhaustion,
            tolerate_deadline_exceeded=self.tolerate_deadline_exceeded,
            max_concurrency=self.max_concurrency,
        )


class QpiadMediator:
    """Mediates selection queries over one incomplete autonomous source.

    Parameters
    ----------
    source:
        The autonomous database (accessed only through its query interface).
    knowledge:
        Statistics mined off-line from a sample of *source* (or of a
        correlated source — see :mod:`repro.core.correlated`), as a bare
        :class:`~repro.mining.KnowledgeBase` or a
        :class:`~repro.mining.KnowledgeStore`.  The mediator reads through
        a store and snapshots the current generation once per retrieval,
        so a :class:`~repro.mining.KnowledgeRefresher` installing a new
        generation mid-stream never mixes statistics within one query.
    config:
        Mediation parameters.
    clock:
        Injectable monotonic clock backing ``config.deadline_seconds``
        (tests drive it manually; production uses ``time.monotonic``).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hook.  When given,
        every retrieval becomes a span tree (one child span per source
        call, failed calls included) and the registry's ``mediator.*``
        counters track issuance and transfer volume; when ``None`` (the
        default) each emit site costs a single ``None`` check.
    executor:
        Optional explicit :class:`~repro.engine.PlanExecutor`, overriding
        the one ``config.max_concurrency`` would build (tests inject
        instrumented executors this way).
    scheduler:
        Optional :class:`~repro.resilience.SourceScheduler` this
        mediator's source calls are routed through.  When ``None`` (the
        default) the engine falls back to the process-wide scheduler
        installed via :func:`repro.resilience.install_scheduler`, if
        any; with neither, calls go straight to the source stack as
        before.
    plan_cache:
        Optional :class:`~repro.planner.PlanCache` shared across
        retrievals (and, if desired, across mediators).  With a cache,
        repeat plannings over unchanged knowledge and an identical base
        set are served from memory; without one (the default) the planner
        runs the plain pipeline with zero caching overhead.
    """

    def __init__(
        self,
        source: AutonomousSource,
        knowledge: "KnowledgeBase | KnowledgeStore",
        config: QpiadConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        telemetry: Telemetry | None = None,
        executor: PlanExecutor | None = None,
        plan_cache: PlanCache | None = None,
        scheduler: "SourceScheduler | None" = None,
    ):
        self.source = source
        self._store = as_store(knowledge)
        self.config = config or QpiadConfig()
        self._clock = clock
        self._telemetry = telemetry
        self._executor = executor
        self._scheduler = scheduler
        self.planner = QueryPlanner(
            self._store,
            self.config.planner_config(),
            cache=plan_cache,
            telemetry=telemetry,
        )
        #: The most recent :class:`~repro.planner.SelectionPlan`, kept for
        #: diagnostics (``qpiad query --explain`` renders it).
        self.last_plan: SelectionPlan | None = None

    @property
    def store(self) -> KnowledgeStore:
        """The knowledge store this mediator reads through."""
        return self._store

    @property
    def knowledge(self) -> KnowledgeBase:
        """Snapshot of the current knowledge generation."""
        return self._store.current

    def _engine(self, stats: RetrievalStats, query: SelectionQuery) -> RetrievalEngine:
        """A fresh engine for one retrieval over this mediator's source."""
        return RetrievalEngine(
            self.source,
            self.config.execution_policy(),
            stats,
            executor=self._executor,
            telemetry=self._telemetry,
            clock=self._clock,
            label=str(query),
            scheduler=self._scheduler,
        )

    def query(self, query: SelectionQuery) -> QueryResult:
        """Process *query*: certain answers plus ranked possible answers.

        Materializes the answer stream :meth:`iter_possible` yields, then
        appends the multi-NULL fetch and the ``degraded`` flag.  The base
        query's failure always propagates; failures of individual
        rewritten queries degrade the result instead of aborting it (see
        :class:`QpiadConfig` and :attr:`QueryResult.degraded`).
        """
        telemetry = self._telemetry
        with maybe_span(
            telemetry, f"qpiad.query {query}", SpanKind.RETRIEVAL, query=str(query)
        ) as root:
            stats = RetrievalStats()
            engine = self._engine(stats, query)
            base_set, steps = self._start(engine, query, stats)
            seen_rows: set[Row] = set(base_set)
            result = QueryResult(
                query=query,
                certain=base_set,
                ranked=list(self._answers(engine, steps, seen_rows, stats)),
                stats=stats,
            )
            if (
                self.config.retrieve_multi_null
                and len(query.constrained_attributes) > 1
                and not engine.deadline_exceeded()
            ):
                result.unranked.extend(
                    self._fetch_multi_null(engine, query, seen_rows, rank=len(steps))
                )
            result.degraded = engine.degraded
            if root is not None:
                root.set(
                    certain=len(result.certain),
                    ranked=len(result.ranked),
                    unranked=len(result.unranked),
                    queries_issued=result.stats.queries_issued,
                    degraded=result.degraded,
                )
        if telemetry is not None:
            telemetry.count("mediator.retrievals")
            if result.degraded:
                telemetry.count("mediator.retrievals_degraded")
            telemetry.count("mediator.answers_certain", len(result.certain))
            telemetry.count("mediator.answers_ranked", len(result.ranked))
        return result

    def iter_possible(
        self, query: SelectionQuery, stats: RetrievalStats | None = None
    ) -> Iterator[RankedAnswer]:
        """Lazily yield ranked possible answers, issuing queries on demand.

        The base result set is retrieved eagerly (its tuples seed the
        rewriting), but rewritten queries are only issued as the caller
        consumes the stream — a user who stops after the first few answers
        never spends the rest of the source's query budget.  Answers arrive
        in the same order :meth:`query` would rank them.  (With
        ``config.max_concurrency`` above 1 the engine prefetches a bounded
        window of queries ahead of consumption; the default serial
        executor keeps the strict one-call-per-answer-pulled economy.)

        Degradation matches :meth:`query` — transient failures of single
        rewritten queries are skipped under ``config.max_source_failures``,
        budget exhaustion and deadlines end the stream — but a generator
        has no result object, so nothing is flagged.  Pass a *stats*
        object to collect the same cost accounting and failure log
        :meth:`query` reports (issuance is recorded before each call, so
        spent budget is counted even when the call fails).
        """
        stats = RetrievalStats() if stats is None else stats
        engine = self._engine(stats, query)
        base_set, steps = self._start(engine, query, stats)
        yield from self._answers(engine, steps, set(base_set), stats)

    def _start(
        self, engine: RetrievalEngine, query: SelectionQuery, stats: RetrievalStats
    ) -> tuple[Relation, list[PlannedQuery]]:
        """Issue the base query, then plan rewritten queries over its rows.

        Planning goes through the shared :class:`QueryPlanner`.  Gating
        happens at plan time — inside the planner — so an inexpressible or
        below-threshold rewriting never spends source budget: it lands in
        ``stats.rewritten_skipped`` instead of being retrieved and
        discarded.  The skip tallies travel *with* the plan, which keeps
        stats and telemetry identical whether the plan was freshly built
        or served from the cache.
        """
        base_set = engine.run_base(
            PlannedQuery(query=query, kind=QueryKind.BASE, rank=0)
        )
        plan = self.planner.plan_selection(query, base_set, source=self.source)
        self.last_plan = plan
        stats.rewritten_generated = plan.generated
        stats.rewritten_skipped += plan.skipped
        telemetry = self._telemetry
        if telemetry is not None:
            if plan.skipped_unanswerable:
                telemetry.count(
                    "mediator.rewritten_unanswerable", plan.skipped_unanswerable
                )
            if plan.skipped_below_confidence:
                telemetry.count(
                    "mediator.rewritten_below_confidence",
                    plan.skipped_below_confidence,
                )
        logger.debug(
            "query %r: %d certain answers, %d rewritten candidates, issuing %d",
            query, len(base_set), plan.generated, len(plan.steps),
        )
        return base_set, list(plan.steps)

    def _answers(
        self,
        engine: RetrievalEngine,
        steps: list[PlannedQuery],
        seen_rows: set[Row],
        stats: RetrievalStats,
    ) -> Iterator[RankedAnswer]:
        """The one answer loop: each rewritten query's rows, post-filtered
        and deduplicated, as ranked answers in plan order.

        *seen_rows* starts as the base set and grows with every answer
        yielded, so the caller can keep deduplicating against it.
        """
        schema = self.source.schema
        for step, retrieved in engine.stream(steps):
            assert step.target_attribute is not None
            target_index = schema.index_of(step.target_attribute)
            for row in retrieved:
                # Post-filtering (step 2e): keep only tuples whose target
                # attribute is actually missing; the rest are certain
                # answers the base set already delivered.
                if not is_null(row[target_index]):
                    continue
                if row in seen_rows:
                    stats.duplicates_discarded += 1
                    continue
                seen_rows.add(row)
                yield RankedAnswer(
                    row=row,
                    confidence=step.estimated_precision,
                    retrieved_by=step.query,
                    target_attribute=step.target_attribute,
                    explanation=step.explanation,
                )

    def _fetch_multi_null(
        self,
        engine: RetrievalEngine,
        query: SelectionQuery,
        seen_rows: set[Row],
        rank: int,
    ) -> list[Row]:
        """Tuples with ≥2 NULLs over constrained attributes, unranked.

        Only expressible when the source supports NULL binding; real web
        forms do not, so this quietly returns nothing for them.  The
        attempt is still counted as an issued query — the mediator did put
        a call on the wire, and the source's own log records the
        rejection.  Failures share the retrieval's failure budget with
        the rewritten plan and are recorded with ``query=None`` (the
        fetch is a plan-level step, not a rewriting).
        """
        step = PlannedQuery(query=query, kind=QueryKind.MULTI_NULL, rank=rank)
        rows: list[Row] = []
        schema = self.source.schema
        constrained = query.constrained_attributes
        for __, retrieved in engine.stream([step]):
            for row in retrieved:
                nulls = sum(
                    1 for name in constrained if is_null(row[schema.index_of(name)])
                )
                if nulls >= 2 and row not in seen_rows:
                    seen_rows.add(row)
                    rows.append(row)
        if self.config.rank_multi_null:
            # One generation snapshot ranks the whole batch: a refresh
            # landing mid-sort must not mix posteriors across generations.
            knowledge = self._store.current
            rows.sort(
                key=lambda row: -self._joint_probability(query, row, knowledge)
            )
        return rows

    def _joint_probability(
        self, query: SelectionQuery, row: Row, knowledge: KnowledgeBase
    ) -> float:
        """Naive joint probability that every missing constrained value of
        *row* satisfies its conjuncts (independence assumption)."""
        from repro.core.rewriting import target_probability

        schema = self.source.schema
        evidence = {
            name: value
            for name, value in zip(schema.names, row)
            if not is_null(value)
        }
        probability = 1.0
        for attribute in query.constrained_attributes:
            if not is_null(row[schema.index_of(attribute)]):
                continue
            probability *= target_probability(
                knowledge,
                attribute,
                query.conjuncts_on(attribute),
                evidence,
                self.config.classifier_method,
            )
        return probability
