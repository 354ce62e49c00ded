"""Join queries over incomplete autonomous sources (Section 4.5).

The mediator decomposes a join query into per-source selections, generates
rewritten queries on both sides, and must then decide which *pairs* of
queries to issue: a pair only produces answers when the two result sets
share join-attribute values, so components are scored jointly —

    EstSel(qp) = Σ_v EstSel(qp₁, v) · EstSel(qp₂, v)

where ``EstSel(qpᵢ, v) = precision · selectivity · P(join = v)`` and the
join-value distribution ``P`` comes from the NBC classifiers (for rewritten
queries) or the observed base set (for the complete queries).  Pairs are
ordered by F-measure, the top-K pairs' component queries are issued (each
component once), and tuples are joined with NULL join values filled in by
the classifiers' most likely completion.

Execution is *streaming*: component results flow through a symmetric-hash
operator tree (:mod:`repro.engine.operators`) as source calls complete,
so the first joined answer surfaces as soon as both halves of any match
have arrived — the already-retrieved base sets are pushed in first, which
bounds first-answer latency by the base retrievals rather than by the
slowest rewritten component.  Candidates stream in arrival order;
:meth:`JoinProcessor.query` ranks at the edge with a total deterministic
order, so the final answer list is bit-identical at every executor width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.core.results import RetrievalStats
from repro.core.rewriting import RewrittenQuery
from repro.engine import (
    ExecutionPolicy,
    Inlet,
    OperatorNode,
    OperatorTree,
    PlanExecutor,
    PlannedQuery,
    QueryKind,
    RetrievalEngine,
    StreamingProject,
    SymmetricHashJoin,
    observe_first_answer,
)
from repro.errors import MiningError, QpiadError
from repro.mining.afd import Afd
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore, as_store
from repro.planner import PlanCache, PlannerConfig, QueryPlanner, Ranker
from repro.query.predicates import Equals
from repro.query.query import JoinQuery, SelectionQuery
from repro.relational.relation import Relation, Row
from repro.relational.values import is_null
from repro.sources.autonomous import AutonomousSource
from repro.telemetry import Telemetry

__all__ = ["JoinConfig", "JoinedAnswer", "JoinResult", "JoinProcessor"]


@dataclass(frozen=True)
class JoinConfig:
    """Knobs of the join processor.

    ``alpha`` deserves a larger default than for selections: the paper
    observes that with α = 0 the pairing over-commits to precision and
    never retrieves incomplete tuples from the side that is harder to
    predict (Section 6.6), so recall stalls.
    """

    alpha: float = 0.5
    k_pairs: int = 10
    classifier_method: str | None = None
    max_concurrency: int = 1

    def __post_init__(self) -> None:
        # α and concurrency are checked by the slices that own them.
        self.planner_config()
        self.execution_policy()
        if self.k_pairs < 1:
            raise QpiadError(f"k_pairs must be positive, got {self.k_pairs}")

    def planner_config(self) -> PlannerConfig:
        """The per-side planner slice: candidates come unlimited (k=None)
        because the top-K budget applies to *pairs*, not components; the
        pair ranker applies it after joint scoring."""
        return PlannerConfig(
            alpha=self.alpha, k=None, classifier_method=self.classifier_method
        )

    def execution_policy(self) -> ExecutionPolicy:
        """Join processing predates graceful degradation: strict semantics,
        with the configured fan-out width."""
        return ExecutionPolicy.strict(max_concurrency=self.max_concurrency)


@dataclass(frozen=True)
class _Side:
    """One component query of a pair, with its joint-scoring statistics."""

    query: SelectionQuery
    is_rewritten: bool
    precision: float
    selectivity: float
    join_distribution: Mapping[Any, float]
    target_attribute: str | None = None
    afd: Afd | None = None

    def est_sel(self, join_value: Any) -> float:
        return (
            self.precision
            * self.selectivity
            * self.join_distribution.get(join_value, 0.0)
        )


@dataclass(frozen=True)
class _QueryPair:
    left: _Side
    right: _Side

    @property
    def precision(self) -> float:
        return self.left.precision * self.right.precision

    def estimated_selectivity(self) -> float:
        common = set(self.left.join_distribution) & set(self.right.join_distribution)
        return sum(self.left.est_sel(v) * self.right.est_sel(v) for v in common)


@dataclass(frozen=True)
class JoinedAnswer:
    """One joined tuple with its combined relevance assessment."""

    left_row: Row
    right_row: Row
    join_value: Any
    confidence: float
    certain: bool

    @property
    def row(self) -> Row:
        return self.left_row + self.right_row


@dataclass
class JoinResult:
    """Certain and ranked possible answers of a mediated join query.

    ``base_queries_issued`` counts the two base retrievals (plus any
    hedge backups they spawned); ``component_queries_issued`` counts only
    the rewritten component calls.  The two always sum to
    ``stats.queries_issued`` — the base calls used to be double-counted
    into the component figure.
    """

    query: JoinQuery
    answers: list[JoinedAnswer] = field(default_factory=list)
    pairs_considered: int = 0
    pairs_issued: int = 0
    base_queries_issued: int = 0
    component_queries_issued: int = 0
    stats: RetrievalStats = field(default_factory=RetrievalStats)

    @property
    def certain(self) -> list[JoinedAnswer]:
        return [answer for answer in self.answers if answer.certain]

    @property
    def possible(self) -> list[JoinedAnswer]:
        return [answer for answer in self.answers if not answer.certain]


@dataclass(frozen=True)
class _Arrival:
    """One retrieved row entering the operator tree, tagged with its
    component query's side statistics."""

    side: _Side
    row: Row


@dataclass(frozen=True)
class _JoinItem:
    """A post-filtered row ready for the symmetric hash join.

    ``join_value`` is the *effective* value — predicted when the stored
    one is NULL — and ``confidence`` is already discounted by the
    prediction probability; ``null_join`` remembers whether the stored
    value was NULL, which disqualifies the tuple from certainty even on
    the complete×complete pair.
    """

    query: SelectionQuery
    row: Row
    join_value: Any
    confidence: float
    rewritten: bool
    null_join: bool


def _ranking_key(answer: JoinedAnswer) -> tuple[bool, float, str]:
    """The canonical total order of joined answers: certain first, then by
    confidence, with a value tie-break so ranking is deterministic at any
    executor width and any arrival interleaving."""
    return (
        not answer.certain,
        -answer.confidence,
        repr((answer.left_row, answer.right_row)),
    )


class JoinProcessor:
    """Processes two-way join queries over a pair of autonomous sources."""

    def __init__(
        self,
        left_source: AutonomousSource,
        right_source: AutonomousSource,
        left_knowledge: "KnowledgeBase | KnowledgeStore",
        right_knowledge: "KnowledgeBase | KnowledgeStore",
        config: JoinConfig | None = None,
        telemetry: Telemetry | None = None,
        executor: PlanExecutor | None = None,
        plan_cache: PlanCache | None = None,
    ):
        self.left_source = left_source
        self.right_source = right_source
        self._left_store = as_store(left_knowledge)
        self._right_store = as_store(right_knowledge)
        self.config = config or JoinConfig()
        self._telemetry = telemetry
        self._executor = executor
        # One planner per side; the pair ranker applies the top-K budget.
        component_config = self.config.planner_config()
        self._left_planner = QueryPlanner(
            self._left_store, component_config, cache=plan_cache, telemetry=telemetry
        )
        self._right_planner = QueryPlanner(
            self._right_store, component_config, cache=plan_cache, telemetry=telemetry
        )
        self._pair_ranker = Ranker(self.config.alpha, self.config.k_pairs)

    @property
    def left_knowledge(self) -> KnowledgeBase:
        """Snapshot of the left side's current knowledge generation."""
        return self._left_store.current

    @property
    def right_knowledge(self) -> KnowledgeBase:
        """Snapshot of the right side's current knowledge generation."""
        return self._right_store.current

    def query(self, join: JoinQuery) -> JoinResult:
        """Execute *join*, returning certain + ranked possible joined tuples.

        Drains the candidate stream of :meth:`stream_answers`, keeps the
        maximum-confidence version of each distinct ``(left_row,
        right_row)`` pair — a joined tuple's confidence must not depend
        on which rewritten component happened to deliver it first — and
        ranks with the canonical total order, so the answer list is
        identical at every executor width.
        """
        result = JoinResult(query=join)
        best: dict[tuple[Row, Row], JoinedAnswer] = {}
        for candidate in self.stream_answers(join, result=result):
            key = (candidate.left_row, candidate.right_row)
            held = best.get(key)
            if held is None or (candidate.certain, candidate.confidence) > (
                held.certain,
                held.confidence,
            ):
                best[key] = candidate
        result.answers = sorted(best.values(), key=_ranking_key)
        return result

    def stream_answers(
        self, join: JoinQuery, result: JoinResult | None = None
    ) -> Iterator[JoinedAnswer]:
        """Joined-answer *candidates*, yielded as matches arrive.

        The streaming interface: each candidate surfaces the moment both
        of its halves have been retrieved, so a caller sees first answers
        while slower component queries are still on the wire.  The same
        ``(left_row, right_row)`` pair can appear more than once (with
        different confidences) when several rewritten components retrieve
        the same row — callers that need the final ranked answer use
        :meth:`query`, which keeps the best and sorts at the edge.

        When *result* is given, its counters (pairs, base/component
        issuance, stats) are populated as the stream is drained.  The
        latency to the first candidate feeds the
        ``mediator.time_to_first_answer_seconds`` histogram.
        """
        if result is None:
            result = JoinResult(query=join)
        return observe_first_answer(
            self._stream(join, result),
            self._telemetry,
            "mediator.time_to_first_answer_seconds",
        )

    def _stream(self, join: JoinQuery, result: JoinResult) -> Iterator[JoinedAnswer]:
        # One generation snapshot per side serves the whole join: pair
        # scoring, rewriting and NULL-fill prediction must read consistent
        # statistics even if a refresh swaps a store mid-stream.
        left_knowledge = self._left_store.current
        right_knowledge = self._right_store.current
        engine = RetrievalEngine(
            None,  # every planned query carries its own side's source
            self.config.execution_policy(),
            result.stats,
            executor=self._executor,
            telemetry=self._telemetry,
            label=str(join),
        )

        # Both base queries go through the engine too (in parallel when the
        # executor allows); outcomes arrive in plan order, left then right.
        bases: dict[int, Relation] = {}
        for step, retrieved in engine.stream(
            [
                PlannedQuery(
                    query=join.left,
                    kind=QueryKind.BASE,
                    rank=0,
                    source=self.left_source,
                ),
                PlannedQuery(
                    query=join.right,
                    kind=QueryKind.BASE,
                    rank=1,
                    source=self.right_source,
                ),
            ]
        ):
            bases[step.rank] = retrieved
        left_base, right_base = bases[0], bases[1]
        # Snapshot after the bases (and any hedge backups they spawned)
        # are billed: everything issued beyond this point is a component.
        result.base_queries_issued = result.stats.queries_issued

        left_sides = self._build_sides(
            join.left, left_base, self._left_planner, left_knowledge,
            join.left_join_attribute,
        )
        right_sides = self._build_sides(
            join.right, right_base, self._right_planner, right_knowledge,
            join.right_join_attribute,
        )

        pairs = [_QueryPair(l, r) for l in left_sides for r in right_sides]
        result.pairs_considered = len(pairs)

        est_sels = {id(pair): pair.estimated_selectivity() for pair in pairs}
        total = sum(est_sels.values())
        f_scores = {
            id(pair): self._pair_ranker.f_measure(
                pair.precision, est_sels[id(pair)] / total if total > 0 else 0.0
            )
            for pair in pairs
        }
        # Pair selection uses the shared ranker's canonical tie-break
        # (-F, -expected throughput, repr).  This path used to break F ties
        # on bare precision, silently diverging from every other pipeline.
        selected = self._pair_ranker.select_top(
            pairs,
            f=lambda pair: f_scores[id(pair)],
            throughput=lambda pair: pair.precision * est_sels[id(pair)],
            key=lambda pair: repr(pair.left.query) + repr(pair.right.query),
        )
        result.pairs_issued = len(selected)

        tree = self._build_tree(
            join, selected, left_base, right_base, left_knowledge, right_knowledge
        )

        # The base sets are already in hand: feed them to the join first,
        # so certain base×base answers emit before any component query
        # returns — first-answer latency is bounded by the base
        # retrievals, not by the slowest rewritten component.
        for row in left_base:
            yield from tree.push("left", _Arrival(left_sides[0], row))
        for row in right_base:
            yield from tree.push("right", _Arrival(right_sides[0], row))

        plan, plan_sides = self._component_plan(selected)
        try:
            # Component rows arrive in call-completion order and flow
            # straight into the tree; the executor keeps issuing further
            # components while the driver thread joins.
            for step, row in engine.stream_tuples(plan):
                side, which = plan_sides[step.rank]
                yield from tree.push(which, _Arrival(side, row))
        finally:
            result.component_queries_issued = (
                result.stats.queries_issued - result.base_queries_issued
            )
        yield from tree.close()

    # ------------------------------------------------------------------

    def _build_sides(
        self,
        complete_query: SelectionQuery,
        base_set: Relation,
        planner: QueryPlanner,
        knowledge: KnowledgeBase,
        join_attribute: str,
    ) -> list[_Side]:
        """The complete query plus all rewritten queries, as pair components."""
        sides = [
            _Side(
                query=complete_query,
                is_rewritten=False,
                precision=1.0,
                selectivity=float(len(base_set)),
                join_distribution=_empirical_distribution(base_set, join_attribute),
            )
        ]
        rewritten = planner.rewrite_candidates(complete_query, base_set)
        for candidate in rewritten:
            sides.append(
                _Side(
                    query=candidate.query,
                    is_rewritten=True,
                    precision=candidate.estimated_precision,
                    selectivity=candidate.estimated_selectivity,
                    join_distribution=self._join_distribution(
                        candidate, knowledge, join_attribute
                    ),
                    target_attribute=candidate.target_attribute,
                    afd=candidate.afd,
                )
            )
        return sides

    def _join_distribution(
        self, rewritten: RewrittenQuery, knowledge: KnowledgeBase, join_attribute: str
    ) -> Mapping[Any, float]:
        """P(join value | query) for a rewritten query (step 3a).

        When the rewritten query binds the join attribute with an equality,
        the distribution is a point mass; otherwise the NBC posterior given
        the determining-set evidence is used.
        """
        for conjunct in rewritten.query.conjuncts:
            if isinstance(conjunct, Equals) and conjunct.attribute == join_attribute:
                return {conjunct.value: 1.0}
        if join_attribute in rewritten.evidence:
            return {rewritten.evidence[join_attribute]: 1.0}
        return knowledge.value_distribution(
            join_attribute, rewritten.evidence, self.config.classifier_method
        )

    def _component_plan(
        self, selected: list[_QueryPair]
    ) -> tuple[list[PlannedQuery], list[tuple[_Side, str]]]:
        """The selected pairs' rewritten components, each planned once.

        Both sides' components go into one retrieval plan, so a
        concurrent executor fans out across the two sources at once.
        Complete queries are never planned — their result is the base
        set, already pushed into the tree.
        """
        plan: list[PlannedQuery] = []
        plan_sides: list[tuple[_Side, str]] = []
        enqueued: set[tuple[SelectionQuery, str]] = set()
        sources = {"left": self.left_source, "right": self.right_source}

        def enqueue(side: _Side, which: str) -> None:
            if not side.is_rewritten:
                return
            key = (side.query, which)
            if key in enqueued:
                return
            enqueued.add(key)
            plan.append(
                PlannedQuery(
                    query=side.query,
                    kind=QueryKind.REWRITTEN,
                    rank=len(plan),
                    estimated_precision=side.precision,
                    target_attribute=side.target_attribute,
                    explanation=side.afd,
                    source=sources[which],
                )
            )
            plan_sides.append((side, which))

        for pair in selected:
            enqueue(pair.left, "left")
            enqueue(pair.right, "right")
        return plan, plan_sides

    def _build_tree(
        self,
        join: JoinQuery,
        selected: list[_QueryPair],
        left_base: Relation,
        right_base: Relation,
        left_knowledge: KnowledgeBase,
        right_knowledge: KnowledgeBase,
    ) -> OperatorTree:
        """The physical plan: per-side project into a symmetric hash join.

        ::

                     SymmetricHashJoin           (match: selected pairs)
                     /               \\
            StreamingProject   StreamingProject  (post-filter + NULL fill)
                    |                 |
              Inlet "left"      Inlet "right"

        Each project post-filters rewritten rows (drop rows whose target
        attribute came back non-NULL, drop rows already in the base set)
        and resolves the effective join value, predicting NULLs; the join
        emits a candidate the moment a key matches across sides, and the
        match predicate restricts the cross product to the top-K selected
        query pairs while each component is still issued only once.
        """
        selected_pairs = {
            (pair.left.query, pair.right.query) for pair in selected
        }
        left_index = self.left_source.schema.index_of(join.left_join_attribute)
        right_index = self.right_source.schema.index_of(join.right_join_attribute)

        def prepare(
            source: AutonomousSource,
            knowledge: KnowledgeBase,
            join_attribute: str,
            join_index: int,
            base_set: Relation,
        ) -> StreamingProject:
            # One frozen base-row set per side, shared by every component
            # arrival (this used to be rebuilt per retrieved relation).
            base_rows = frozenset(base_set)

            def transform(arrival: _Arrival) -> _JoinItem | None:
                side, row = arrival.side, arrival.row
                if side.is_rewritten:
                    if side.target_attribute is not None and not is_null(
                        row[source.schema.index_of(side.target_attribute)]
                    ):
                        return None  # already a certain answer of the complete query
                    if row in base_rows:
                        return None
                confidence = side.precision if side.is_rewritten else 1.0
                value, adjusted = self._effective_join_value(
                    row, join_index, source, knowledge, join_attribute, confidence
                )
                if value is None:
                    return None
                return _JoinItem(
                    query=side.query,
                    row=row,
                    join_value=value,
                    confidence=adjusted,
                    rewritten=side.is_rewritten,
                    null_join=is_null(row[join_index]),
                )

            return StreamingProject(transform)

        def combine(left: _JoinItem, right: _JoinItem) -> JoinedAnswer:
            certain = (
                not left.rewritten
                and not right.rewritten
                and not left.null_join
                and not right.null_join
            )
            return JoinedAnswer(
                left_row=left.row,
                right_row=right.row,
                join_value=left.join_value,
                confidence=1.0 if certain else left.confidence * right.confidence,
                certain=certain,
            )

        def match(left: _JoinItem, right: _JoinItem) -> bool:
            return (left.query, right.query) in selected_pairs

        left_project = OperatorNode(
            prepare(
                self.left_source, left_knowledge,
                join.left_join_attribute, left_index, left_base,
            ),
            [Inlet("left")],
            "project:left",
        )
        right_project = OperatorNode(
            prepare(
                self.right_source, right_knowledge,
                join.right_join_attribute, right_index, right_base,
            ),
            [Inlet("right")],
            "project:right",
        )
        join_node = OperatorNode(
            SymmetricHashJoin(
                left_key=lambda item: item.join_value,
                right_key=lambda item: item.join_value,
                combine=combine,
                match=match,
            ),
            [left_project, right_project],
            "join",
        )
        return OperatorTree(join_node)

    def _effective_join_value(
        self,
        row: Row,
        join_index: int,
        source: AutonomousSource,
        knowledge: KnowledgeBase,
        join_attribute: str,
        confidence: float,
    ) -> tuple[Any, float]:
        """The row's join value, predicting it when NULL (step 6).

        Returns ``(None, 0)`` when the value is NULL and unpredictable.
        The confidence is discounted by the prediction probability.
        """
        value = row[join_index]
        if not is_null(value):
            return value, confidence
        evidence = {
            name: v
            for name, v in zip(source.schema.names, row)
            if not is_null(v) and name != join_attribute
        }
        try:
            predicted, probability = knowledge.predict_value(
                join_attribute, evidence, self.config.classifier_method
            )
        except MiningError:
            return None, 0.0
        return predicted, confidence * probability


def _empirical_distribution(relation: Relation, attribute: str) -> dict[Any, float]:
    """Observed join-value distribution of a base result set."""
    counts = relation.value_counts(attribute)
    total = sum(counts.values())
    if total == 0:
        return {}
    return {value: count / total for value, count in counts.items()}
