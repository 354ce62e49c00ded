"""Retrieving answers from sources that do not support the query attribute
(Section 4.3).

A mediator's global schema often contains attributes some sources lack
(Yahoo! Autos has no ``Body Style``).  A query constraining such an
attribute cannot even be *asked* of that source.  QPIAD's move: find a
*correlated source* that (i) supports the attribute, (ii) has an AFD with
the attribute on the right-hand side, and (iii) whose determining set the
deficient source does support.  The base set and statistics come from the
correlated source; the rewritten queries go to the deficient one.

Answers retrieved this way are inherently possible answers — the deficient
source cannot report the attribute at all — ranked by the correlated
source's classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.results import QueryResult, RankedAnswer, RetrievalStats
from repro.engine import ExecutionPolicy, PlannedQuery, QueryKind, RetrievalEngine
from repro.errors import RewritingError, UnsupportedAttributeError
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore, as_store
from repro.planner import PlanCache, PlannerConfig, QueryPlanner
from repro.query.query import SelectionQuery
from repro.relational.relation import Row
from repro.sources.autonomous import AutonomousSource
from repro.sources.registry import SourceRegistry
from repro.telemetry import Telemetry

__all__ = ["CorrelatedSourceMediator", "find_correlated_source"]


def find_correlated_source(
    attribute: str,
    deficient: AutonomousSource,
    registry: SourceRegistry,
    knowledge_bases: dict[str, KnowledgeBase],
) -> tuple[AutonomousSource, KnowledgeBase] | None:
    """The best correlated source for *attribute* per Definition 4.

    Candidates must support the attribute, have a (pruned) AFD with it on
    the right-hand side whose determining set the deficient source
    supports; among them the one with the highest-confidence AFD wins.
    """
    best: tuple[float, AutonomousSource, KnowledgeBase] | None = None
    for source in registry.supporting(attribute):
        if source.name == deficient.name:
            continue
        knowledge = knowledge_bases.get(source.name)
        if knowledge is None:
            continue
        for afd in knowledge.afds_for(attribute):
            if all(
                deficient.supports(name) and deficient.capabilities.can_bind(name)
                for name in afd.determining
            ):
                if best is None or afd.confidence > best[0]:
                    best = (afd.confidence, source, knowledge)
                break  # afds_for is best-first; first feasible one is the best here
    if best is None:
        return None
    return best[1], best[2]


@dataclass(frozen=True)
class CorrelatedConfig:
    """α/K parameters for cross-source retrieval (same semantics as QPIAD)."""

    alpha: float = 0.0
    k: int | None = 10
    classifier_method: str | None = None
    max_concurrency: int = 1

    def __post_init__(self) -> None:
        # Validate at construction, before any source call is billed.
        self.planner_config()
        self.execution_policy()

    def planner_config(self) -> PlannerConfig:
        """The planner-facing slice of this configuration."""
        return PlannerConfig(
            alpha=self.alpha, k=self.k, classifier_method=self.classifier_method
        )

    def execution_policy(self) -> ExecutionPolicy:
        """The engine-facing slice: strict, with the configured width."""
        return ExecutionPolicy.strict(max_concurrency=self.max_concurrency)


class CorrelatedSourceMediator:
    """Answers queries on attributes a target source does not support.

    Parameters
    ----------
    registry:
        All sources under the mediator's global schema.
    knowledge_bases:
        Per-source mined statistics, keyed by source name (only sources
        that support the query attribute need one).
    config:
        Retrieval parameters.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hook; every call to
        the correlated and deficient sources becomes a span, so federated
        traces cover the §4.3 path too.
    plan_cache:
        Optional shared :class:`~repro.planner.PlanCache`.  Plans are
        keyed by the correlated knowledge base's fingerprint and the
        target source's capability token, so one cache safely serves
        every (correlated, deficient) pairing.
    """

    def __init__(
        self,
        registry: SourceRegistry,
        knowledge_bases: "dict[str, KnowledgeBase | KnowledgeStore]",
        config: CorrelatedConfig | None = None,
        telemetry: Telemetry | None = None,
        plan_cache: PlanCache | None = None,
    ):
        self.registry = registry
        self._stores = {
            name: as_store(knowledge)
            for name, knowledge in knowledge_bases.items()
        }
        self.config = config or CorrelatedConfig()
        self._telemetry = telemetry
        self._plan_cache = plan_cache

    @property
    def stores(self) -> "dict[str, KnowledgeStore]":
        """The per-source knowledge stores this mediator reads through."""
        return dict(self._stores)

    @property
    def knowledge_bases(self) -> "dict[str, KnowledgeBase]":
        """Snapshots of every source's current knowledge generation."""
        return {name: store.current for name, store in self._stores.items()}

    def _planner(self, knowledge: KnowledgeBase) -> QueryPlanner:
        return QueryPlanner(
            knowledge,
            self.config.planner_config(),
            cache=self._plan_cache,
            telemetry=self._telemetry,
        )

    def query(self, query: SelectionQuery, target: AutonomousSource) -> QueryResult:
        """Retrieve relevant possible answers for *query* from *target*.

        *query* must constrain exactly the attributes *target* lacks plus
        (optionally) attributes it supports; the unsupported ones are
        handled via the correlated source, supported conjuncts are passed
        straight through to *target*.
        """
        unsupported = [
            name for name in query.constrained_attributes if not target.supports(name)
        ]
        if not unsupported:
            raise UnsupportedAttributeError(
                f"source {target.name!r} supports every constrained attribute; "
                "use the regular QPIAD mediator instead"
            )
        if len(unsupported) > 1:
            raise UnsupportedAttributeError(
                "correlated-source retrieval handles one unsupported attribute "
                f"per query; got {unsupported}"
            )
        attribute = unsupported[0]

        # One coherent set of generation snapshots serves the whole query:
        # source selection and planning read the same statistics even if a
        # refresh swaps a store mid-retrieval.
        found = find_correlated_source(
            attribute, target, self.registry, self.knowledge_bases
        )
        if found is None:
            raise RewritingError(
                f"no correlated source provides an AFD for {attribute!r} whose "
                f"determining set {target.name!r} supports"
            )
        correlated, knowledge = found

        telemetry = self._telemetry
        stats = RetrievalStats()
        # All engine-side failure handling is strict here: §4.3 retrieval
        # predates graceful degradation, so any source error propagates to
        # the caller (the federated mediator absorbs it per source).
        engine = RetrievalEngine(
            target,
            self.config.execution_policy(),
            stats,
            telemetry=telemetry,
            label=str(query),
        )
        # Step 1 (modified): base set from the correlated source.  The
        # engine counts issuance before the call, matching QpiadMediator's
        # accounting.
        base_set = engine.run_base(
            PlannedQuery(
                query=query,
                kind=QueryKind.BASE,
                rank=0,
                source=correlated,
                label="correlated-base",
            )
        )

        from repro.relational.relation import Relation

        result = QueryResult(
            query=query,
            # An empty placeholder result, not base data: the target source
            # cannot answer the query at all (that is the point of §4.3).
            certain=Relation(target.schema, []),  # qpiadlint: disable=raw-relation-access
            stats=stats,
        )

        # The planner gates on what the deficient source can express
        # *before* ranking (§4.3's usable-rewritings filter), forces the
        # unsupported attribute as every step's target, and caches under
        # the target's capability token.  Cached steps carry no source, so
        # the target is attached here at execution time.
        plan = self._planner(knowledge).plan_correlated(
            query, base_set, attribute, target
        )
        stats.rewritten_generated = plan.generated
        steps = [replace(step, source=target) for step in plan.steps]

        seen: set[Row] = set()
        for step, retrieved in engine.stream(steps):
            for row in retrieved:
                # No post-filter on the target attribute: the deficient
                # source does not return it at all, so every tuple is a
                # possible answer.
                if row in seen:
                    stats.duplicates_discarded += 1
                    continue
                seen.add(row)
                result.ranked.append(
                    RankedAnswer(
                        row=row,
                        confidence=step.estimated_precision,
                        retrieved_by=step.query,
                        target_attribute=attribute,
                        explanation=step.explanation,
                    )
                )
        return result
