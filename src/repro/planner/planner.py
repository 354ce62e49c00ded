"""The query planner: one facade over the query→plan pipeline.

:class:`QueryPlanner` owns the stages every mediator used to run privately
— candidate generation (:mod:`repro.planner.generators`), F-measure
ranking (:mod:`repro.planner.ranker`), and capability/confidence gating —
and produces the immutable plans the
:class:`~repro.engine.RetrievalEngine` executes.  One planning mode exists
per mediator family:

* :meth:`plan_selection` — the QPIAD selection pipeline (generate, rank,
  gate on expressibility and the confidence threshold);
* :meth:`plan_correlated` — the §4.3 cross-source variant (gate on the
  *target* source before ranking, force the unsupported attribute);
* :meth:`plan_aggregate` — the §4.4 pipeline with argmax / fractional
  inclusion gating and per-step weights;
* :meth:`rewrite_candidates` — bare ranked-input candidates, for pipelines
  with their own joint scoring (join-pair selection);
* :meth:`plan_relaxation` — the influence-guided relaxation plan.

Every mode runs through one caching wrapper.  With a
:class:`~repro.planner.cache.PlanCache` attached, results are memoized
under a key built from content fingerprints — canonical query, base-set
rows, planner config, source capability token, and the knowledge base's
:meth:`~repro.mining.knowledge.KnowledgeBase.fingerprint` — so a cached
plan is reused exactly when every planning input is bit-identical, and a
knowledge refresh (new sample, re-mined AFDs, different discretization)
invalidates it by construction.  Without a cache, no fingerprint is ever
computed: the disabled path is the plain pipeline with zero overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Hashable, TypeVar

if TYPE_CHECKING:
    from repro.core.relaxation import RelaxationPlan

from repro.core.rewriting import RewrittenQuery
from repro.engine.plan import PlannedQuery, QueryKind, RetrievalPlan
from repro.errors import QpiadError, QueryError
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore, as_store
from repro.planner.cache import PlanCache
from repro.planner.fingerprint import (
    query_fingerprint,
    relation_fingerprint,
    source_token,
)
from repro.planner.generators import (
    AfdRewriteGenerator,
    CorrelationRewriteGenerator,
    RelaxationGenerator,
    can_answer,
)
from repro.planner.ranker import Ranker
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation
from repro.telemetry import SpanKind, Telemetry, maybe_span

__all__ = [
    "AggregatePlan",
    "PlannerConfig",
    "QueryPlanner",
    "SelectionPlan",
    "baseline_plan",
]

PlanT = TypeVar("PlanT")


@dataclass(frozen=True)
class PlannerConfig:
    """The planning-stage slice of a mediator's configuration.

    The one place planning knobs are validated (α ≥ 0, K ≥ 0,
    ``min_confidence`` in [0, 1], a known inclusion rule): mediator
    configs derive this slice at construction instead of restating the
    checks.

    Every field participates in the cache key, so changing any knob —
    α, K, the classifier variant, the confidence threshold, the aggregate
    inclusion rule — starts a fresh cache lineage instead of serving plans
    ranked under the old policy.
    """

    alpha: float = 0.0
    k: "int | None" = 10
    classifier_method: "str | None" = None
    min_confidence: float = 0.0
    inclusion_rule: str = "argmax"

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise QpiadError(f"alpha must be non-negative, got {self.alpha}")
        if self.k is not None and self.k < 0:
            raise QpiadError(f"k must be non-negative, got {self.k}")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise QpiadError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if self.inclusion_rule not in ("argmax", "fractional"):
            raise QueryError(
                f"unknown inclusion rule {self.inclusion_rule!r}; "
                "expected 'argmax' or 'fractional'"
            )

    def token(self) -> str:
        """Canonical cache-key component for this configuration."""
        return (
            f"alpha={self.alpha!r};k={self.k!r};"
            f"method={self.classifier_method!r};"
            f"min_confidence={self.min_confidence!r};"
            f"inclusion={self.inclusion_rule!r}"
        )


@dataclass(frozen=True)
class SelectionPlan:
    """The planned rewritten-query sequence for one selection retrieval.

    Steps carry no source object — they are attached at execution time —
    so one cached plan can serve any retrieval whose capability token
    matches, and nothing mutable is ever shared across threads.
    """

    steps: "tuple[PlannedQuery, ...]"
    generated: int = 0
    skipped_unanswerable: int = 0
    skipped_below_confidence: int = 0
    cached: bool = False

    @property
    def skipped(self) -> int:
        return self.skipped_unanswerable + self.skipped_below_confidence


@dataclass(frozen=True)
class AggregatePlan:
    """The §4.4 plan: gated rewritten queries plus their inclusion weights."""

    steps: "tuple[PlannedQuery, ...]"
    weights: "tuple[float, ...]"
    generated: int = 0
    considered: int = 0
    skipped: int = 0
    cached: bool = False


def baseline_plan(query: SelectionQuery, max_nulls: "int | None" = 1) -> RetrievalPlan:
    """The counterfactual baselines' two-step plan (§6.2).

    One base query for the certain answers, one NULL-binding fetch for the
    possible ones.  The fetch is ``required``: the baselines exist to
    quantify what NULL binding would buy, so a source that cannot bind
    NULL must fail the retrieval loudly, not degrade it.
    """
    return RetrievalPlan(
        steps=(
            PlannedQuery(query=query, kind=QueryKind.BASE, rank=0),
            PlannedQuery(
                query=query,
                kind=QueryKind.MULTI_NULL,
                rank=1,
                max_nulls=max_nulls,
                required=True,
                label="null-binding",
            ),
        )
    )


class QueryPlanner:
    """Plans retrievals over one knowledge base.

    Parameters
    ----------
    knowledge:
        The mined statistics every planning decision reads — either a
        bare :class:`~repro.mining.knowledge.KnowledgeBase` or a
        :class:`~repro.mining.store.KnowledgeStore` holding the current
        generation.  The planner always reads through a store (a bare
        knowledge base is wrapped in a private one), snapshotting the
        current generation once per planning call: one plan is built
        against one consistent generation, and a refresh swapping the
        store between calls changes the fingerprint in the cache key, so
        stale plans miss by construction.
    config:
        Ranking and gating knobs; defaults match :class:`PlannerConfig`.
    cache:
        Optional :class:`~repro.planner.cache.PlanCache`.  ``None`` (the
        default) disables caching entirely — no fingerprints are computed,
        so the disabled path costs nothing over the raw pipeline.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hook: cache traffic
        feeds the ``planner.cache_*`` counters and every *built* (i.e.
        non-cached) plan becomes a ``plan`` span.
    """

    def __init__(
        self,
        knowledge: "KnowledgeBase | KnowledgeStore",
        config: "PlannerConfig | None" = None,
        *,
        cache: "PlanCache | None" = None,
        telemetry: "Telemetry | None" = None,
    ):
        self._store = as_store(knowledge)
        self.config = config or PlannerConfig()
        self.cache = cache
        self._telemetry = telemetry
        self._ranker = Ranker(self.config.alpha, self.config.k)

    @property
    def store(self) -> KnowledgeStore:
        """The knowledge store this planner reads through."""
        return self._store

    @property
    def knowledge(self) -> KnowledgeBase:
        """Snapshot of the current knowledge generation."""
        return self._store.current

    # ------------------------------------------------------------------
    # Planning modes

    def plan_selection(
        self,
        query: SelectionQuery,
        base_set: Relation,
        source: Any = None,
        *,
        knowledge: "KnowledgeBase | None" = None,
    ) -> SelectionPlan:
        """The QPIAD selection plan: generated, ordered, gated, ranked.

        Gating happens here — at plan time — so an inexpressible or
        below-threshold rewriting never spends source budget; the skip
        tallies let the mediator keep its ``rewritten_skipped`` accounting
        without replanning.  Pass *knowledge* to plan against a caller-held
        generation snapshot instead of the store's current one.
        """
        snapshot = self._snapshot(knowledge)
        return self._cached(
            "selection",
            lambda: (
                query_fingerprint(query),
                relation_fingerprint(base_set),
                source_token(source),
            ),
            lambda: self._build_selection(query, base_set, source, snapshot),
            name=str(query),
            knowledge=snapshot,
        )

    def plan_correlated(
        self,
        query: SelectionQuery,
        base_set: Relation,
        attribute: str,
        target: Any,
        *,
        knowledge: "KnowledgeBase | None" = None,
    ) -> SelectionPlan:
        """The §4.3 cross-source plan against a deficient *target* source.

        Candidates come from this planner's (correlated) knowledge; only
        those the target can express are ranked, and every step hunts the
        single unsupported *attribute*.  Steps carry no source — the
        mediator attaches the target at execution time.
        """
        snapshot = self._snapshot(knowledge)
        return self._cached(
            f"correlated:{attribute}",
            lambda: (
                query_fingerprint(query),
                relation_fingerprint(base_set),
                source_token(target),
            ),
            lambda: self._build_correlated(
                query, base_set, attribute, target, snapshot
            ),
            name=str(query),
            knowledge=snapshot,
        )

    def plan_aggregate(
        self,
        selection: SelectionQuery,
        base_set: Relation,
        *,
        knowledge: "KnowledgeBase | None" = None,
    ) -> AggregatePlan:
        """The §4.4 plan: inclusion-gated rewritten queries with weights.

        The argmax / fractional rule depends only on mined statistics,
        never on retrieved rows, so gated-out rewritings cost nothing on
        the wire — and the whole gate result is cacheable.
        """
        snapshot = self._snapshot(knowledge)
        return self._cached(
            "aggregate",
            lambda: (
                query_fingerprint(selection),
                relation_fingerprint(base_set),
            ),
            lambda: self._build_aggregate(selection, base_set, snapshot),
            name=str(selection),
            knowledge=snapshot,
        )

    def rewrite_candidates(
        self,
        query: SelectionQuery,
        base_set: Relation,
        *,
        knowledge: "KnowledgeBase | None" = None,
    ) -> "tuple[RewrittenQuery, ...]":
        """Bare AFD-rewriting candidates, for pipelines with their own
        joint scoring (the join processor scores query *pairs*)."""
        snapshot = self._snapshot(knowledge)
        return self._cached(
            "candidates",
            lambda: (query_fingerprint(query), relation_fingerprint(base_set)),
            lambda: tuple(
                AfdRewriteGenerator(
                    snapshot, self.config.classifier_method
                ).generate(query, base_set)
            ),
            name=str(query),
            knowledge=snapshot,
        )

    def plan_relaxation(
        self,
        query: SelectionQuery,
        max_dropped: "int | None" = None,
        *,
        knowledge: "KnowledgeBase | None" = None,
    ) -> "RelaxationPlan":
        """The influence-guided relaxation plan (least-painful first)."""
        snapshot = self._snapshot(knowledge)
        return self._cached(
            f"relaxation:{max_dropped!r}",
            lambda: (query_fingerprint(query),),
            lambda: self._build_relaxation(query, max_dropped, snapshot),
            name=str(query),
            knowledge=snapshot,
        )

    def _snapshot(self, knowledge: "KnowledgeBase | None") -> KnowledgeBase:
        """The generation this planning call runs against.

        Taken once per call so generation, builders and cache key all see
        the same knowledge even if the store is swapped mid-plan.
        """
        return self._store.current if knowledge is None else knowledge

    # ------------------------------------------------------------------
    # Stage implementations

    def _build_selection(
        self,
        query: SelectionQuery,
        base_set: Relation,
        source: Any,
        knowledge: KnowledgeBase,
    ) -> SelectionPlan:
        generator = AfdRewriteGenerator(knowledge, self.config.classifier_method)
        candidates = generator.generate(query, base_set)
        ordered = self._ranker.order(candidates)
        steps: "list[PlannedQuery]" = []
        unanswerable = 0
        below_confidence = 0
        for rewritten in ordered:
            if not can_answer(source, rewritten.query):
                unanswerable += 1
                continue  # the web form cannot express this rewriting
            if rewritten.estimated_precision < self.config.min_confidence:
                # Plan-time confidence gate: every row this rewriting could
                # retrieve would carry a confidence below the user's
                # threshold, so issuing it would only burn the source's
                # query budget on rows the post-filter must discard.
                below_confidence += 1
                continue
            steps.append(
                PlannedQuery(
                    query=rewritten.query,
                    kind=QueryKind.REWRITTEN,
                    rank=len(steps),
                    estimated_precision=rewritten.estimated_precision,
                    estimated_recall=rewritten.estimated_recall,
                    target_attribute=rewritten.target_attribute,
                    explanation=rewritten.afd,
                )
            )
        return SelectionPlan(
            steps=tuple(steps),
            generated=len(candidates),
            skipped_unanswerable=unanswerable,
            skipped_below_confidence=below_confidence,
        )

    def _build_correlated(
        self,
        query: SelectionQuery,
        base_set: Relation,
        attribute: str,
        target: Any,
        knowledge: KnowledgeBase,
    ) -> SelectionPlan:
        generator = CorrelationRewriteGenerator(
            knowledge, target, self.config.classifier_method
        )
        usable = generator.generate(query, base_set)
        ordered = self._ranker.order(usable)
        steps = tuple(
            PlannedQuery(
                query=rewritten.query,
                kind=QueryKind.REWRITTEN,
                rank=rank,
                estimated_precision=rewritten.estimated_precision,
                estimated_recall=rewritten.estimated_recall,
                target_attribute=attribute,
                explanation=rewritten.afd,
            )
            for rank, rewritten in enumerate(ordered)
        )
        return SelectionPlan(steps=steps, generated=len(usable))

    def _build_aggregate(
        self,
        selection: SelectionQuery,
        base_set: Relation,
        knowledge: KnowledgeBase,
    ) -> AggregatePlan:
        generator = AfdRewriteGenerator(knowledge, self.config.classifier_method)
        candidates = generator.generate(selection, base_set)
        ordered = self._ranker.order(candidates)
        steps: "list[PlannedQuery]" = []
        weights: "list[float]" = []
        skipped = 0
        for rewritten in ordered:
            if self.config.inclusion_rule == "argmax":
                if not self._argmax_matches(rewritten, selection, knowledge):
                    skipped += 1
                    continue
                weight = 1.0
            else:
                weight = rewritten.estimated_precision
                if weight <= 0.0:
                    skipped += 1
                    continue
            steps.append(
                PlannedQuery(
                    query=rewritten.query,
                    kind=QueryKind.REWRITTEN,
                    rank=len(steps),
                    estimated_precision=rewritten.estimated_precision,
                    estimated_recall=rewritten.estimated_recall,
                    target_attribute=rewritten.target_attribute,
                    explanation=rewritten.afd,
                )
            )
            weights.append(weight)
        return AggregatePlan(
            steps=tuple(steps),
            weights=tuple(weights),
            generated=len(candidates),
            considered=len(ordered),
            skipped=skipped,
        )

    def _argmax_matches(
        self, rewritten: Any, selection: SelectionQuery, knowledge: KnowledgeBase
    ) -> bool:
        """Section 4.4's inclusion rule: most-likely completion == query value."""
        try:
            value = selection.equality_value(rewritten.target_attribute)
        except QueryError:
            # Range-constrained target: include when the majority of the
            # posterior mass satisfies the constraint (natural extension).
            return rewritten.estimated_precision > 0.5
        return knowledge.predict_matches(
            rewritten.target_attribute,
            value,
            rewritten.evidence,
            self.config.classifier_method,
        )

    def _build_relaxation(
        self,
        query: SelectionQuery,
        max_dropped: "int | None",
        knowledge: KnowledgeBase,
    ) -> "RelaxationPlan":
        # Imported lazily: repro.core.relaxation itself plans through this
        # module, and the plan type stays there for API compatibility.
        from repro.core.relaxation import RelaxationPlan

        generator = RelaxationGenerator(knowledge.afds, max_dropped)
        influence, queries = generator.generate(query)
        return RelaxationPlan(original=query, queries=queries, influence=influence)

    # ------------------------------------------------------------------
    # The caching wrapper

    def _cached(
        self,
        mode: str,
        key_parts: Callable[[], "tuple[Hashable, ...]"],
        build: Callable[[], PlanT],
        name: str,
        knowledge: KnowledgeBase,
    ) -> PlanT:
        telemetry = self._telemetry
        cache = self.cache
        if cache is None:
            # The disabled path computes no fingerprints at all: planning
            # with the cache off costs exactly what the raw pipeline does.
            return self._build_spanned(mode, build, name)
        key = (
            mode,
            self.config.token(),
            knowledge.fingerprint(),
            *key_parts(),
        )
        hit = cache.lookup(key)
        if hit is not None:
            if telemetry is not None:
                telemetry.count("planner.cache_hits")
            if isinstance(hit, (SelectionPlan, AggregatePlan)):
                return replace(hit, cached=True)
            return hit
        if telemetry is not None:
            telemetry.count("planner.cache_misses")
        plan = self._build_spanned(mode, build, name)
        evicted = cache.store(key, plan)
        if evicted and telemetry is not None:
            telemetry.count("planner.cache_evictions")
        return plan

    def _build_spanned(
        self, mode: str, build: Callable[[], PlanT], name: str
    ) -> PlanT:
        telemetry = self._telemetry
        with maybe_span(
            telemetry, f"plan {name}", SpanKind.PLAN, mode=mode
        ) as span:
            plan = build()
            if span is not None:
                payload = getattr(plan, "steps", None)
                if payload is None:
                    payload = getattr(plan, "queries", None)
                if payload is None and isinstance(plan, tuple):
                    payload = plan
                span.set(
                    steps=len(payload) if payload is not None else 0,
                    cache="off" if self.cache is None else "miss",
                )
        return plan
