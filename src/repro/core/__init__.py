"""QPIAD core: mediation, aggregates, joins, baselines.

Rewriting lives in :mod:`repro.core.rewriting` and ranking in
:mod:`repro.planner.ranker`; mediators reach both through the planner.
"""

from repro.core.aggregates import AggregateProcessor, AggregateResult
from repro.core.baselines import all_ranked, all_returned
from repro.core.correlated import (
    CorrelatedConfig,
    CorrelatedSourceMediator,
    find_correlated_source,
)
from repro.core.federation import (
    FederatedAnswer,
    FederatedMediator,
    FederatedResult,
    SourceFailure,
)
from repro.core.joins import JoinConfig, JoinedAnswer, JoinProcessor, JoinResult
from repro.core.multijoin import (
    MultiJoinedAnswer,
    MultiJoinProcessor,
    MultiJoinResult,
    MultiJoinStep,
)
from repro.core.qpiad import QpiadConfig, QpiadMediator
from repro.core.relaxation import QueryRelaxer, RelaxationPlan, RelaxedAnswer
from repro.core.results import QueryFailure, QueryResult, RankedAnswer, RetrievalStats

__all__ = [
    "RankedAnswer",
    "QueryFailure",
    "RetrievalStats",
    "QueryResult",
    "QpiadConfig",
    "QpiadMediator",
    "all_returned",
    "all_ranked",
    "AggregateProcessor",
    "AggregateResult",
    "JoinConfig",
    "JoinProcessor",
    "JoinResult",
    "JoinedAnswer",
    "CorrelatedConfig",
    "CorrelatedSourceMediator",
    "find_correlated_source",
    "MultiJoinStep",
    "MultiJoinProcessor",
    "MultiJoinResult",
    "MultiJoinedAnswer",
    "QueryRelaxer",
    "FederatedMediator",
    "FederatedResult",
    "FederatedAnswer",
    "SourceFailure",
    "RelaxationPlan",
    "RelaxedAnswer",
]
