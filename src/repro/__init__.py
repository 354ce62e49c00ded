"""QPIAD: Query Processing over Incomplete Autonomous Databases.

A from-scratch Python reproduction of the QPIAD system (Wolf, Khatri,
Chokshi, Fan, Chen, Kambhampati): a mediator that retrieves *relevant
possible answers* — tuples whose constrained attributes are missing but
likely to match — from autonomous web databases that cannot be modified and
do not support binding NULL values, by rewriting queries along mined
Approximate Functional Dependencies and ranking the rewritten queries with
AFD-enhanced Naive Bayes value distributions and sampled selectivity
estimates.

Quickstart
----------
>>> from repro import (generate_cars, build_environment, SelectionQuery,
...                    QpiadMediator, QpiadConfig)
>>> env = build_environment(generate_cars(5000))
>>> mediator = QpiadMediator(env.web_source(), env.knowledge,
...                          QpiadConfig(alpha=0.0, k=10))
>>> result = mediator.query(SelectionQuery.equals("body_style", "Convt"))
>>> len(result.certain) > 0 and len(result.ranked) > 0
True
"""

from repro.core import (
    AggregateProcessor,
    AggregateResult,
    CorrelatedConfig,
    CorrelatedSourceMediator,
    JoinConfig,
    JoinedAnswer,
    JoinProcessor,
    JoinResult,
    QpiadConfig,
    QpiadMediator,
    QueryResult,
    RankedAnswer,
    all_ranked,
    all_returned,
    find_correlated_source,
)
from repro.core.rewriting import RewrittenQuery, generate_rewritten_queries
from repro.planner.ranker import order_rewritten_queries
from repro.datasets import (
    IncompleteDataset,
    generate_cars,
    generate_census,
    generate_complaints,
    make_incomplete,
)
from repro.core import (
    MultiJoinProcessor,
    MultiJoinStep,
    QueryRelaxer,
)
from repro.errors import QpiadError
from repro.mining import load_knowledge, save_knowledge
from repro.sources.caching import CachingSource
from repro.telemetry import MetricsRegistry, SpanKind, Telemetry, Tracer, maybe_span
from repro.evaluation import (
    Environment,
    GroundTruthOracle,
    build_environment,
    run_all_ranked,
    run_all_returned,
    run_qpiad,
)
from repro.mining import Afd, AKey, KnowledgeBase, MiningConfig, TaneConfig
from repro.query import (
    AggregateFunction,
    parse_selection,
    AggregateQuery,
    Between,
    Equals,
    JoinQuery,
    SelectionQuery,
)
from repro.relational import NULL, Attribute, AttributeType, Relation, Schema, is_null
from repro.sources import (
    AutonomousSource,
    RandomProbingSampler,
    SourceCapabilities,
    SourceRegistry,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # relational
    "NULL",
    "is_null",
    "Attribute",
    "AttributeType",
    "Schema",
    "Relation",
    # query
    "SelectionQuery",
    "AggregateQuery",
    "AggregateFunction",
    "JoinQuery",
    "Equals",
    "Between",
    "parse_selection",
    # sources
    "AutonomousSource",
    "SourceCapabilities",
    "SourceRegistry",
    "RandomProbingSampler",
    # mining
    "Afd",
    "AKey",
    "KnowledgeBase",
    "MiningConfig",
    "TaneConfig",
    # core
    "QpiadMediator",
    "QpiadConfig",
    "QueryResult",
    "RankedAnswer",
    "RewrittenQuery",
    "generate_rewritten_queries",
    "order_rewritten_queries",
    "all_returned",
    "all_ranked",
    "AggregateProcessor",
    "AggregateResult",
    "JoinProcessor",
    "JoinConfig",
    "JoinResult",
    "JoinedAnswer",
    "CorrelatedSourceMediator",
    "CorrelatedConfig",
    "find_correlated_source",
    # datasets
    "generate_cars",
    "generate_census",
    "generate_complaints",
    "make_incomplete",
    "IncompleteDataset",
    # evaluation
    "Environment",
    "build_environment",
    "GroundTruthOracle",
    "run_qpiad",
    "run_all_returned",
    "run_all_ranked",
    # extensions
    "MultiJoinProcessor",
    "MultiJoinStep",
    "QueryRelaxer",
    "CachingSource",
    "save_knowledge",
    "load_knowledge",
    # telemetry
    "Telemetry",
    "Tracer",
    "MetricsRegistry",
    "SpanKind",
    "maybe_span",
    # errors
    "QpiadError",
]
