"""The unified retrieval engine: explicit plans, pluggable execution.

The paper's Figure 1 loop — issue the base query, generate rewritten
queries, order them, issue the top-K, post-filter, merge — used to be
re-implemented by every mediator, each copy separately threading failure
budgets, deadlines, telemetry, and cost accounting.  This package factors
the loop into three explicit pieces:

* :mod:`repro.engine.plan` — *what* to retrieve: :class:`PlannedQuery`
  steps (base / rewritten / multi-null, with plan rank and estimated
  precision/recall) collected into a :class:`RetrievalPlan`;
* :mod:`repro.engine.policy` — *how much* to tolerate:
  :class:`ExecutionPolicy` (failure budget, deadline, tolerate flags,
  concurrency width);
* :mod:`repro.engine.executor` — *how* to run it: the
  :class:`PlanExecutor` protocol with :class:`SerialExecutor` (default,
  behaviour-identical to the historical loops) and
  :class:`ConcurrentExecutor` (opt-in thread pool that issues queries in
  parallel but merges outcomes deterministically in plan order);
* :mod:`repro.engine.engine` — the :class:`RetrievalEngine` that binds
  them together and owns issuance accounting, telemetry spans, and
  degradation semantics in exactly one place.

Mediators construct plans and post-filter rows; the engine does the
issuing.  See ``docs/engine.md`` for the model and its determinism
guarantees.
"""

from repro.engine.engine import FailureKind, RetrievalEngine, observe_first_answer
from repro.engine.executor import (
    ConcurrentExecutor,
    ExecutionTask,
    PlanExecutor,
    SerialExecutor,
    TaskOutcome,
    build_executor,
)
from repro.engine.operators import (
    Inlet,
    Operator,
    OperatorNode,
    OperatorTree,
    StreamingProject,
    StreamingUnion,
    SymmetricHashJoin,
)
from repro.engine.plan import PlannedQuery, QueryKind, RetrievalPlan
from repro.engine.policy import ExecutionPolicy

__all__ = [
    "ConcurrentExecutor",
    "ExecutionPolicy",
    "ExecutionTask",
    "FailureKind",
    "Inlet",
    "Operator",
    "OperatorNode",
    "OperatorTree",
    "PlanExecutor",
    "PlannedQuery",
    "QueryKind",
    "RetrievalEngine",
    "RetrievalPlan",
    "SerialExecutor",
    "StreamingProject",
    "StreamingUnion",
    "SymmetricHashJoin",
    "TaskOutcome",
    "build_executor",
    "observe_first_answer",
]
