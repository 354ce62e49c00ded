"""Aggregate queries over incomplete autonomous databases (Section 4.4).

Ignoring incomplete tuples skews Sum/Count aggregates low.  QPIAD improves
accuracy by also issuing the rewritten queries and folding a rewritten
query's aggregate into the total *only when* the most likely completion of
the missing attribute (given the query's determining-set evidence) equals
the original constrained value — the paper found this all-or-nothing rule
more accurate than weighting every query by its precision (footnote 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.results import RetrievalStats
from repro.engine import (
    ExecutionPolicy,
    PlanExecutor,
    PlannedQuery,
    QueryKind,
    RetrievalEngine,
)
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore, as_store
from repro.planner import PlanCache, PlannerConfig, QueryPlanner
from repro.query.query import AggregateFunction, AggregateQuery
from repro.relational.relation import Relation
from repro.relational.values import is_null
from repro.sources.autonomous import AutonomousSource
from repro.telemetry import Telemetry

__all__ = ["AggregateResult", "AggregateProcessor"]


@dataclass
class AggregateResult:
    """Certain-only and prediction-augmented values of one aggregate query."""

    query: AggregateQuery
    certain_value: float | None
    predicted_value: float | None
    certain_count: int = 0
    possible_count: int = 0
    included_queries: int = 0
    considered_queries: int = 0
    stats: RetrievalStats = field(default_factory=RetrievalStats)

    @property
    def improvement_available(self) -> bool:
        """Whether prediction changed the aggregate at all."""
        return self.possible_count > 0


@dataclass
class _Accumulator:
    """Combines partial aggregates across the base set and rewritten queries."""

    function: AggregateFunction
    count: float = 0.0
    total: float = 0.0
    minimum: float | None = None
    maximum: float | None = None

    def add(self, values: list[float], weight: float = 1.0) -> None:
        self.count += weight * len(values)
        self.total += weight * sum(values)
        # Weighting has no sensible semantics for extrema; a value either
        # was observed or not.
        for value in values:
            self.minimum = value if self.minimum is None else min(self.minimum, value)
            self.maximum = value if self.maximum is None else max(self.maximum, value)

    def add_count(self, count: float) -> None:
        self.count += count

    def value(self) -> float | None:
        if self.function is AggregateFunction.COUNT:
            return float(self.count)
        if self.count == 0:
            return None
        if self.function is AggregateFunction.SUM:
            return self.total
        if self.function is AggregateFunction.AVG:
            return self.total / self.count
        if self.function is AggregateFunction.MIN:
            return self.minimum
        return self.maximum


class AggregateProcessor:
    """Executes aggregate queries with and without missing-value prediction.

    Parameters
    ----------
    inclusion_rule:
        How a rewritten query's partial aggregate is folded in:

        * ``"argmax"`` (the paper's choice) — all-or-nothing: include the
          whole partial aggregate iff the most likely completion equals the
          constrained value;
        * ``"fractional"`` (the paper's footnote-4 alternative) — weight the
          partial aggregate by the query's estimated precision.  The paper
          found this *less* accurate because every irrelevant tuple then
          contributes something; the ablation bench quantifies that.
    """

    def __init__(
        self,
        source: AutonomousSource,
        knowledge: "KnowledgeBase | KnowledgeStore",
        k: int | None = 10,
        alpha: float = 1.0,
        classifier_method: str | None = None,
        inclusion_rule: str = "argmax",
        max_concurrency: int = 1,
        telemetry: Telemetry | None = None,
        executor: PlanExecutor | None = None,
        plan_cache: PlanCache | None = None,
    ):
        self.source = source
        self._store = as_store(knowledge)
        self.k = k
        self.alpha = alpha
        self.classifier_method = classifier_method
        self.inclusion_rule = inclusion_rule
        self.max_concurrency = max_concurrency
        self._telemetry = telemetry
        self._executor = executor
        self._policy = ExecutionPolicy.strict(max_concurrency=max_concurrency)
        self.planner = QueryPlanner(
            self._store,
            PlannerConfig(
                alpha=alpha,
                k=k,
                classifier_method=classifier_method,
                inclusion_rule=inclusion_rule,
            ),
            cache=plan_cache,
            telemetry=telemetry,
        )

    @property
    def store(self) -> KnowledgeStore:
        """The knowledge store this processor reads through."""
        return self._store

    @property
    def knowledge(self) -> KnowledgeBase:
        """Snapshot of the current knowledge generation."""
        return self._store.current

    def query(self, aggregate: AggregateQuery) -> AggregateResult:
        """Process *aggregate*, returning certain and predicted values.

        All source calls run through the retrieval engine under a strict
        policy: aggregates are numbers, not answer lists, so there is no
        sensible partial result to degrade to and any failure propagates.
        """
        selection = aggregate.selection
        # One generation snapshot serves the whole aggregate: planning and
        # every per-row prediction read the same statistics even if a
        # refresh swaps the store mid-query.
        knowledge = self._store.current
        stats = RetrievalStats()
        engine = RetrievalEngine(
            self.source,
            self._policy,
            stats,
            executor=self._executor,
            telemetry=self._telemetry,
            label=str(aggregate),
        )
        base_set = engine.run_base(
            PlannedQuery(query=selection, kind=QueryKind.BASE, rank=0)
        )

        certain_acc = _Accumulator(aggregate.function)
        self._accumulate(certain_acc, aggregate, base_set, knowledge, predict=False)
        certain_value = certain_acc.value()

        predicted_acc = _Accumulator(aggregate.function)
        self._accumulate(predicted_acc, aggregate, base_set, knowledge, predict=True)

        result = AggregateResult(
            query=aggregate,
            certain_value=certain_value,
            predicted_value=None,
            certain_count=len(base_set),
            stats=stats,
        )

        # Inclusion gating happens at plan time — inside the planner: the
        # argmax / fractional rule depends only on mined statistics, never
        # on retrieved rows, so gated-out rewritings cost nothing on the
        # wire and the whole gate result caches with the plan.
        plan = self.planner.plan_aggregate(selection, base_set, knowledge=knowledge)
        stats.rewritten_generated = plan.generated
        stats.rewritten_skipped += plan.skipped
        result.considered_queries = plan.considered
        seen_rows = set(base_set)
        schema = self.source.schema

        for step, retrieved in engine.stream(plan.steps):
            assert step.target_attribute is not None
            target_index = schema.index_of(step.target_attribute)
            rows = [
                row
                for row in retrieved
                if is_null(row[target_index]) and row not in seen_rows
            ]
            if not rows:
                continue
            seen_rows.update(rows)
            result.included_queries += 1
            result.possible_count += len(rows)
            # Re-wrapping rows the source already shipped so the accumulator
            # can reuse the relation API; not a base-data bypass.
            partial = Relation(schema, rows)  # qpiadlint: disable=raw-relation-access
            self._accumulate(
                predicted_acc, aggregate, partial, knowledge, predict=True,
                weight=plan.weights[step.rank],
            )

        result.predicted_value = predicted_acc.value()
        return result

    # ------------------------------------------------------------------

    def _accumulate(
        self,
        accumulator: _Accumulator,
        aggregate: AggregateQuery,
        rows: Relation,
        knowledge: KnowledgeBase,
        predict: bool,
        weight: float = 1.0,
    ) -> None:
        """Fold *rows* into the accumulator, optionally predicting NULLs.

        ``predict=True`` replaces a NULL in the aggregated attribute by the
        classifier's most likely completion, using the tuple's present
        values as evidence.  ``weight`` scales the contribution (the
        footnote-4 fractional rule).
        """
        if aggregate.function is AggregateFunction.COUNT and aggregate.attribute == "*":
            accumulator.add_count(weight * len(rows))
            return
        attribute = aggregate.attribute
        index = rows.schema.index_of(attribute)
        values: list[float] = []
        for row in rows:
            value = row[index]
            if is_null(value):
                if not predict:
                    continue
                evidence = {
                    name: v
                    for name, v in zip(rows.schema.names, row)
                    if not is_null(v) and name != attribute
                }
                predicted, __ = knowledge.predict_value(
                    attribute, evidence, self.classifier_method
                )
                if is_null(predicted) or not isinstance(predicted, (int, float)):
                    continue
                values.append(float(predicted))
            else:
                values.append(float(value))
        accumulator.add(values, weight=weight)
