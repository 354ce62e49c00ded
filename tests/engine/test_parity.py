"""Execution-strategy parity: the executor must never change the answer.

The determinism pin of the plan/executor split: on clean (fault-free)
workloads the concurrent executor returns *exactly* what the serial one
does — same certain answers, same possible answers in the same order,
same confidences, same cost accounting — and the streaming interface
(``iter_possible``) agrees with the eager one (``query``) under both.
"""

import pytest

from repro.core import AggregateProcessor, QpiadConfig, QpiadMediator
from repro.core.results import RetrievalStats
from repro.errors import SourceUnavailableError
from repro.evaluation import selection_workload, multi_attribute_workload
from repro.query import AggregateFunction, AggregateQuery
from repro.relational import NULL
from tests.core.test_degradation import FailingAt

WIDTHS = [1, 4]


def _workload(env):
    queries = selection_workload(env, "body_style", 3, seed=5)
    queries += multi_attribute_workload(env, ("make", "body_style"), 2, seed=9)
    return queries


def _fingerprint(result):
    """Everything observable about one mediated retrieval."""
    return {
        "certain": list(result.certain),
        "ranked": [(a.row, a.confidence, a.target_attribute) for a in result.ranked],
        "unranked": list(result.unranked),
        "queries_issued": result.stats.queries_issued,
        "tuples_retrieved": result.stats.tuples_retrieved,
        "rewritten_issued": result.stats.rewritten_issued,
        "rewritten_skipped": result.stats.rewritten_skipped,
        "degraded": result.degraded,
    }


class TestQueryParity:
    def test_concurrent_equals_serial_on_workload(self, cars_env):
        source = cars_env.web_source()
        for query in _workload(cars_env):
            outcomes = [
                _fingerprint(
                    QpiadMediator(
                        source,
                        cars_env.knowledge,
                        QpiadConfig(k=10, max_concurrency=width),
                    ).query(query)
                )
                for width in (1, 2, 6)
            ]
            assert outcomes[0] == outcomes[1] == outcomes[2], query

    def test_parity_holds_on_census(self, census_env):
        source = census_env.web_source()
        for query in selection_workload(census_env, "occupation", 2, seed=3):
            serial, wide = (
                _fingerprint(
                    QpiadMediator(
                        source,
                        census_env.knowledge,
                        QpiadConfig(k=8, max_concurrency=width),
                    ).query(query)
                )
                for width in (1, 5)
            )
            assert serial == wide, query


class _FailingOn(FailingAt):
    """:class:`FailingAt` keyed by query instead of call index.

    Under a concurrent executor, call indices follow the order worker
    threads reach the source, which the plan does not fix; naming the
    query fails the same plan step at every width.
    """

    def __init__(self, inner, fail_queries):
        super().__init__(inner, fail_calls=set())
        self.fail_queries = fail_queries

    def execute(self, query):
        if query in self.fail_queries:
            raise SourceUnavailableError(f"scripted failure on {query}")
        return self.inner.execute(query)


class _Duplicating(FailingAt):
    """Appends one all-NULL row to every rewritten query's result, so each
    rewritten query after the first retrieves a duplicate answer."""

    def __init__(self, inner, base_query):
        super().__init__(inner, fail_calls=set())
        self.base_query = base_query
        self.row = (NULL,) * len(inner.schema)

    def execute(self, query):
        retrieved = self.inner.execute(query)
        if query == self.base_query:
            return retrieved
        return retrieved.extend([self.row])


def _sources(env, query):
    """Factories for a clean, a failing and a duplicating source.

    The failing one fails the query a serial run issues as call 2 (the
    second rewritten query), i.e. ``FailingAt(fail_calls={2})``.
    """
    probe = QpiadMediator(env.web_source(), env.knowledge, QpiadConfig(k=10))
    probe.query(query)
    second_rewrite = probe.last_plan.steps[1].query
    return {
        "clean": env.web_source,
        "failing": lambda: _FailingOn(env.web_source(), {second_rewrite}),
        "duplicating": lambda: _Duplicating(env.web_source(), query),
    }


class TestStreamParity:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_iter_possible_matches_query(self, cars_env, width):
        config = QpiadConfig(k=10, max_concurrency=width)
        for query in _workload(cars_env):
            for name, make_source in _sources(cars_env, query).items():
                eager = QpiadMediator(make_source(), cars_env.knowledge, config).query(
                    query
                )
                stats = RetrievalStats()
                streamed = list(
                    QpiadMediator(
                        make_source(), cars_env.knowledge, config
                    ).iter_possible(query, stats)
                )
                context = (str(query), name)
                assert [(a.row, a.confidence) for a in streamed] == [
                    (a.row, a.confidence) for a in eager.ranked
                ], context
                # One answer path: the stream's cost accounting, skip and
                # duplicate tallies and failure log are the eager result's.
                assert stats == eager.stats, context
                if name == "failing":
                    assert len(stats.failures) == 1, context
                if name == "duplicating":
                    assert stats.duplicates_discarded > 0, context

    def test_abandoned_stream_spends_less(self, cars_env):
        # Laziness survives the refactor: stopping early must not cost the
        # whole plan, serial or concurrent (concurrent may prefetch up to
        # its window).
        source = cars_env.web_source()
        query = _workload(cars_env)[0]
        full = QpiadMediator(
            source, cars_env.knowledge, QpiadConfig(k=10)
        ).query(query)
        assert full.stats.queries_issued > 2  # a plan worth abandoning
        for width in WIDTHS:
            stats = RetrievalStats()
            stream = QpiadMediator(
                source, cars_env.knowledge, QpiadConfig(k=10, max_concurrency=width)
            ).iter_possible(query, stats)
            next(stream)
            stream.close()
            assert stats.queries_issued <= 2 + width


class TestAggregateParity:
    @pytest.mark.parametrize("rule", ["argmax", "fractional"])
    def test_concurrent_equals_serial(self, cars_env, rule):
        from repro.query import SelectionQuery

        aggregate = AggregateQuery(
            SelectionQuery.equals("body_style", "Convt"),
            AggregateFunction.SUM,
            "price",
        )
        outcomes = []
        for width in (1, 4):
            result = AggregateProcessor(
                cars_env.web_source(),
                cars_env.knowledge,
                inclusion_rule=rule,
                max_concurrency=width,
            ).query(aggregate)
            outcomes.append(
                (
                    result.certain_value,
                    result.predicted_value,
                    result.included_queries,
                    result.considered_queries,
                    result.stats.queries_issued,
                )
            )
        assert outcomes[0] == outcomes[1]


class TestFederationParity:
    def test_concurrent_equals_serial(self, cars_env):
        from repro.core.federation import FederatedMediator
        from repro.query import SelectionQuery
        from repro.sources.registry import SourceRegistry

        source = cars_env.web_source()
        registry = SourceRegistry(source.schema)
        registry.register(source)
        knowledge = {source.name: cars_env.knowledge}
        query = SelectionQuery.equals("body_style", "Convt")
        outcomes = []
        for width in (1, 3):
            result = FederatedMediator(
                registry, knowledge, QpiadConfig(k=10, max_concurrency=width)
            ).query(query)
            outcomes.append(
                (
                    {name: list(rel) for name, rel in result.certain.items()},
                    [(a.source, a.row, a.confidence) for a in result.ranked],
                    result.skipped_sources,
                    result.degraded,
                )
            )
        assert outcomes[0] == outcomes[1]
