"""Federating QPIAD over every source behind the global schema.

Figure 1 of the paper shows the mediator fronting *several* autonomous
databases.  For one user query this means:

* sources whose local schema supports all constrained attributes are
  mediated with the regular QPIAD pipeline (certain answers + ranked
  possible answers), each against its own knowledge base;
* sources lacking a constrained attribute are served through the
  correlated-source machinery of Section 4.3 (their answers are possible
  answers by construction);
* per-source answer streams are merged into one ranked list, tagged with
  their origin, ordered by confidence.

Sources without a mined knowledge base still contribute their certain
answers — a mediator should never return *less* because mining has not run
yet.

The same principle governs failures: autonomous sources go down without
notice, and one dead source must never void the answers of the live ones.
A :class:`~repro.errors.SourceUnavailableError` from any single source is
recorded in :attr:`FederatedResult.failures`, the result is flagged
degraded, and mediation continues across the rest of the federation.

Per-source mediations are independent, so the federation runs them
through the engine's :class:`~repro.engine.PlanExecutor`: serial by
default, fanned out over a thread pool when ``config.max_concurrency``
is raised.  Probe payloads stream back in *completion* order — a fast
source's answers surface while slower sources are still mediating
(:meth:`FederatedMediator.stream_answers`, built on the streaming
union/project operators) — and are then folded into the result in
registry order, so the final ranking does not depend on the execution
strategy.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.correlated import CorrelatedConfig, CorrelatedSourceMediator
from repro.core.qpiad import QpiadConfig, QpiadMediator
from repro.core.results import QueryResult, RankedAnswer
from repro.engine import (
    ExecutionTask,
    Inlet,
    OperatorNode,
    OperatorTree,
    PlanExecutor,
    StreamingProject,
    StreamingUnion,
    build_executor,
    observe_first_answer,
)
from repro.errors import RewritingError, SourceUnavailableError, UnsupportedAttributeError
from repro.mining.knowledge import KnowledgeBase
from repro.mining.store import KnowledgeStore, as_store
from repro.planner import PlanCache
from repro.query.query import SelectionQuery
from repro.relational.relation import Relation, Row
from repro.sources.autonomous import AutonomousSource
from repro.sources.registry import SourceRegistry
from repro.telemetry import SpanKind, Telemetry, maybe_span

__all__ = ["FederatedAnswer", "FederatedResult", "FederatedMediator", "SourceFailure"]


@dataclass(frozen=True)
class FederatedAnswer:
    """One possible answer, tagged with the source that supplied it."""

    source: str
    answer: RankedAnswer

    @property
    def confidence(self) -> float:
        return self.answer.confidence

    @property
    def row(self) -> Row:
        return self.answer.row


@dataclass(frozen=True)
class SourceFailure:
    """One source's transient failure the federation degraded around."""

    source: str
    message: str

    def __str__(self) -> str:
        return f"{self.source}: {self.message}"


@dataclass
class FederatedResult:
    """Merged outcome of one query across the federation.

    ``skipped_sources`` lists sources that could not *logically* contribute
    (no correlated rewriting reaches them); :attr:`failures` lists sources
    that should have contributed but failed transiently.  :attr:`degraded`
    is set when any answer stream is best-effort — a source failed outright
    or a per-source retrieval came back degraded — so callers can tell a
    complete federation answer from a partial one.
    """

    query: SelectionQuery
    certain: dict[str, Relation] = field(default_factory=dict)
    ranked: list[FederatedAnswer] = field(default_factory=list)
    per_source: dict[str, QueryResult] = field(default_factory=dict)
    skipped_sources: list[str] = field(default_factory=list)
    failures: list[SourceFailure] = field(default_factory=list)
    degraded: bool = False

    @property
    def certain_count(self) -> int:
        return sum(len(relation) for relation in self.certain.values())

    @property
    def failed_sources(self) -> tuple[str, ...]:
        return tuple(failure.source for failure in self.failures)

    def top(self, count: int) -> list[FederatedAnswer]:
        return self.ranked[:count]


# Tags for one source's probe payload, so the serial merge step knows how
# to fold it into the federated result.
_SKIPPED = "skipped"
_CERTAIN_ONLY = "certain-only"
_MEDIATED = "mediated"

_Probe = tuple[str, "QueryResult | Relation | None"]


class FederatedMediator:
    """Runs one user query across every registered source.

    Parameters
    ----------
    registry:
        Sources under the mediator's global schema.
    knowledge_bases:
        Per-source mined statistics by source name.  Sources without one
        only contribute certain answers (when they support the query) and
        can still *receive* correlated-source rewritten queries.
    config / correlated_config:
        Parameters for the regular and cross-source pipelines.
        ``config.max_concurrency`` also sets how many *sources* are
        probed at once.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hook, shared with
        every per-source mediator the federation spins up: the federated
        query becomes one root span with a child span per source, under
        which the per-source retrieval spans nest.  (With concurrency
        above 1, span parentage across sources is best-effort — see
        ``docs/engine.md``.)
    executor:
        Optional explicit :class:`~repro.engine.PlanExecutor` for the
        per-source fan-out, overriding ``config.max_concurrency``.
    plan_cache:
        Optional shared :class:`~repro.planner.PlanCache`, threaded into
        every per-source mediator (regular and correlated).  Keys include
        each knowledge base's fingerprint and each source's capability
        token, so one cache serves the whole federation without
        cross-talk.  The cache is thread-safe; it composes with
        ``config.max_concurrency`` above 1.
    """

    def __init__(
        self,
        registry: SourceRegistry,
        knowledge_bases: "dict[str, KnowledgeBase | KnowledgeStore]",
        config: QpiadConfig | None = None,
        correlated_config: CorrelatedConfig | None = None,
        telemetry: Telemetry | None = None,
        executor: PlanExecutor | None = None,
        plan_cache: PlanCache | None = None,
    ):
        self.registry = registry
        self._stores = {
            name: as_store(knowledge)
            for name, knowledge in knowledge_bases.items()
        }
        self.config = config or QpiadConfig()
        self._telemetry = telemetry
        self._executor = executor
        self._plan_cache = plan_cache
        # The correlated mediator shares the same stores, so a refresh
        # installing a new generation reaches both pipelines atomically.
        self.correlated = CorrelatedSourceMediator(
            registry,
            dict(self._stores),
            correlated_config,
            telemetry=telemetry,
            plan_cache=plan_cache,
        )

    @property
    def stores(self) -> "dict[str, KnowledgeStore]":
        """The per-source knowledge stores this federation reads through."""
        return dict(self._stores)

    @property
    def knowledge_bases(self) -> "dict[str, KnowledgeBase]":
        """Snapshots of every source's current knowledge generation."""
        return {name: store.current for name, store in self._stores.items()}

    def query(self, query: SelectionQuery) -> FederatedResult:
        """Mediate *query* over the whole federation.

        One source failing transiently never aborts the others: its failure
        is logged on the result, the result is flagged degraded, and the
        remaining sources are still mediated in full.  Probes run through
        the configured executor and stream back in completion order; their
        payloads are then folded in registry order, so the federated
        result is independent of execution interleaving.
        """
        result = FederatedResult(query=query)
        for __ in self.stream_answers(query, result=result):
            pass
        return result

    def stream_answers(
        self, query: SelectionQuery, result: "FederatedResult | None" = None
    ) -> Iterator[FederatedAnswer]:
        """Per-source ranked answers, yielded as each probe completes.

        The streaming interface: a fast source's answers surface while
        slower sources are still mediating, in arrival order — no ranking
        is owed mid-stream.  When *result* is given it is fully assembled
        (registry-order merge, confidence-sorted ``ranked``) by the time
        the stream is exhausted, identically at every executor width.
        The latency to the first answer feeds the
        ``federation.time_to_first_answer_seconds`` histogram.
        """
        if result is None:
            result = FederatedResult(query=query)
        return observe_first_answer(
            self._stream(query, result),
            self._telemetry,
            "federation.time_to_first_answer_seconds",
        )

    def _stream(
        self, query: SelectionQuery, result: FederatedResult
    ) -> Iterator[FederatedAnswer]:
        telemetry = self._telemetry
        executor = (
            self._executor
            if self._executor is not None
            else build_executor(self.config.max_concurrency)
        )
        with maybe_span(
            telemetry, f"federated {query}", SpanKind.FEDERATION, query=str(query)
        ) as root:
            sources = list(self.registry)
            tree = self._build_tree(sources) if sources else None
            payloads: dict[int, _Probe] = {}
            failures: dict[int, SourceFailure] = {}
            tasks = (
                ExecutionTask(rank, self._prober(source, query))
                for rank, source in enumerate(sources)
            )
            with closing(executor.map(tasks, lambda: False, ordered=False)) as outcomes:
                for outcome in outcomes:
                    source = sources[outcome.rank]
                    if outcome.error is not None:
                        if isinstance(outcome.error, SourceUnavailableError):
                            failures[outcome.rank] = SourceFailure(
                                source.name, str(outcome.error)
                            )
                            result.degraded = True
                            if telemetry is not None:
                                telemetry.count("federation.source_failures")
                            continue
                        raise outcome.error
                    payloads[outcome.rank] = outcome.value
                    tag, payload = outcome.value
                    if tag == _MEDIATED and tree is not None:
                        assert isinstance(payload, QueryResult)
                        for ranked in payload.ranked:
                            yield from tree.push(f"source:{outcome.rank}", ranked)
            if tree is not None:
                yield from tree.close()
            # Deterministic assembly: fold payloads and failures in
            # registry order, whatever order the probes completed in.
            for rank, source in enumerate(sources):
                if rank in failures:
                    result.failures.append(failures[rank])
                elif rank in payloads:
                    self._merge(source, payloads[rank], result)
            result.ranked.sort(key=lambda item: -item.confidence)
            if root is not None:
                root.set(
                    sources=len(self.registry),
                    ranked=len(result.ranked),
                    failed=len(result.failures),
                    degraded=result.degraded,
                )
        if telemetry is not None:
            telemetry.count("federation.queries")
            if result.degraded:
                telemetry.count("federation.queries_degraded")

    def _build_tree(self, sources: list[AutonomousSource]) -> OperatorTree:
        """The federation's physical plan: N tagging projects into a union.

        ::

                      StreamingUnion
                    /       |        \\
              project:s0  project:s1  ...   (tag answers with their source)
                   |          |
            Inlet "source:0"  "source:1"
        """

        def tagger(source: AutonomousSource) -> StreamingProject:
            return StreamingProject(
                lambda answer: FederatedAnswer(source.name, answer)
            )

        arms = [
            OperatorNode(tagger(source), [Inlet(f"source:{rank}")], f"project:{source.name}")
            for rank, source in enumerate(sources)
        ]
        return OperatorTree(
            OperatorNode(StreamingUnion(len(arms)), arms, "union")
        )

    # ------------------------------------------------------------------

    def _prober(
        self, source: AutonomousSource, query: SelectionQuery
    ) -> Callable[[], _Probe]:
        """One source's probe as a side-effect-free executor task."""

        def run() -> _Probe:
            with maybe_span(
                self._telemetry,
                f"source {source.name}",
                SpanKind.FEDERATION_SOURCE,
                source=source.name,
            ):
                if source.can_answer(query):
                    return self._query_supporting(source, query)
                return self._query_deficient(source, query)

        return run

    def _query_supporting(
        self, source: AutonomousSource, query: SelectionQuery
    ) -> _Probe:
        store = self._stores.get(source.name)
        if store is None:
            # No statistics: certain answers only.  This is the one place a
            # mediator bypasses the engine on purpose — there is no plan to
            # run, just the user's own query passed straight through.
            return (_CERTAIN_ONLY, source.execute(query))  # qpiadlint: disable=raw-source-call-in-core
        outcome = QpiadMediator(
            source,
            store,
            self.config,
            telemetry=self._telemetry,
            plan_cache=self._plan_cache,
        ).query(query)
        return (_MEDIATED, outcome)

    def _query_deficient(
        self, source: AutonomousSource, query: SelectionQuery
    ) -> _Probe:
        try:
            return (_MEDIATED, self.correlated.query(query, source))
        except (RewritingError, UnsupportedAttributeError):
            return (_SKIPPED, None)

    def _merge(
        self, source: AutonomousSource, probe: _Probe, result: FederatedResult
    ) -> None:
        """Fold one source's payload into the federated result.

        Runs serially, in registry order, whatever the executor did."""
        tag, payload = probe
        if tag == _SKIPPED:
            result.skipped_sources.append(source.name)
            return
        if tag == _CERTAIN_ONLY:
            assert isinstance(payload, Relation)
            result.certain[source.name] = payload
            return
        assert isinstance(payload, QueryResult)
        result.per_source[source.name] = payload
        if source.can_answer(result.query):
            result.certain[source.name] = payload.certain
        result.ranked.extend(
            FederatedAnswer(source.name, answer) for answer in payload.ranked
        )
        # Partial per-source retrievals make the merged answer partial too.
        result.degraded = result.degraded or payload.degraded
