"""Disjunctive (IN-list) queries flow through rewriting unchanged."""

import pytest

from repro.core import QpiadConfig, QpiadMediator
from repro.core.rewriting import generate_rewritten_queries, target_probability
from repro.query import OneOf, SelectionQuery
from repro.relational import is_null


@pytest.fixture(scope="module")
def in_query():
    return SelectionQuery(OneOf("body_style", ["Convt", "Coupe"]))


class TestOneOfTargetProbability:
    def test_sums_posterior_over_the_set(self, cars_env, in_query):
        kb = cars_env.knowledge
        evidence = {"model": "Z4"}
        combined = target_probability(
            kb, "body_style", in_query.conjuncts_on("body_style"), evidence
        )
        posterior = kb.value_distribution("body_style", evidence)
        expected = posterior.get("Convt", 0.0) + posterior.get("Coupe", 0.0)
        assert combined == pytest.approx(expected)

    def test_superset_never_decreases_probability(self, cars_env):
        kb = cars_env.knowledge
        evidence = {"model": "Mustang"}
        narrow = SelectionQuery(OneOf("body_style", ["Coupe"]))
        wide = SelectionQuery(OneOf("body_style", ["Coupe", "Convt", "Sedan"]))
        p_narrow = target_probability(
            kb, "body_style", narrow.conjuncts_on("body_style"), evidence
        )
        p_wide = target_probability(
            kb, "body_style", wide.conjuncts_on("body_style"), evidence
        )
        assert p_wide >= p_narrow


class TestOneOfMediation:
    def test_rewritten_queries_generated(self, cars_env, in_query):
        base = cars_env.web_source().execute(in_query)
        rewritten = generate_rewritten_queries(in_query, base, cars_env.knowledge)
        assert rewritten
        assert all("body_style" not in rw.query.constrained_attributes for rw in rewritten)

    def test_end_to_end_results(self, cars_env, in_query):
        mediator = QpiadMediator(
            cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=10)
        )
        result = mediator.query(in_query)
        index = cars_env.test.schema.index_of("body_style")
        assert all(row[index] in ("Convt", "Coupe") for row in result.certain)
        assert result.ranked
        assert all(is_null(answer.row[index]) for answer in result.ranked)

    def test_oneof_relevance_against_ground_truth(self, cars_env, in_query):
        mediator = QpiadMediator(
            cars_env.web_source(), cars_env.knowledge, QpiadConfig(k=10)
        )
        result = mediator.query(in_query)
        strong = [a for a in result.ranked if a.confidence >= 0.8]
        if len(strong) >= 3:
            hits = sum(
                cars_env.oracle.is_relevant(a.row, in_query) for a in strong
            )
            assert hits / len(strong) >= 0.5
