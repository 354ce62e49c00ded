"""Rule enforcing the mediator's autonomy discipline (paper §1, Fig. 1).

QPIAD is *non-intrusive*: the mediator may never modify — or even directly
read — an autonomous source's base data.  In this codebase the only
sanctioned gateway is :class:`repro.sources.AutonomousSource`, which
enforces web-form capabilities, query budgets and result caps.  Mediator
layers (``repro.core``, ``repro.query``, ``repro.rewriting``) that
construct :class:`Relation` objects from raw rows, reach into a relation's
``.rows`` storage, or read base data straight off disk are bypassing that
gateway, and with it every constraint the paper is built around.

Result-set *assembly* (building a relation to hand answers back to the
caller) is legitimate; such sites carry a rule-specific suppression with a
justification, keeping every exemption reviewable.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, ModuleContext, Rule, Severity

__all__ = ["RawRelationAccessRule", "RawRewriteCallRule", "RawSourceCallRule"]

#: Dotted package prefixes that constitute "mediator-side" code.
MEDIATOR_PACKAGES = ("repro.core", "repro.query", "repro.rewriting")

#: Loader callables that read base data from outside any source gateway.
_DIRECT_LOADERS = frozenset({"read_csv"})


class RawRelationAccessRule(Rule):
    """Flag mediator-layer code touching base relations behind the source's back."""

    id = "raw-relation-access"
    severity = Severity.ERROR
    description = (
        "mediator layers must reach data through AutonomousSource, not by "
        "constructing Relations, reading .rows, or loading CSVs directly"
    )
    rationale = (
        "The autonomy constraint (paper §1): sources cannot be modified and are "
        "reachable only through their restricted web-form interface.  Direct "
        "Relation access in rewriting/mediation code silently skips capability "
        "checks, query budgets and access statistics."
    )

    def __init__(self, packages: "tuple[str, ...]" = MEDIATOR_PACKAGES):
        self.packages = packages

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if not context.in_package(*self.packages):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                name = self._callable_name(node.func)
                if name == "Relation":
                    yield self.finding(
                        context,
                        node,
                        "constructs a Relation directly in a mediator layer; go "
                        "through AutonomousSource (or suppress for result assembly)",
                    )
                elif name in _DIRECT_LOADERS:
                    yield self.finding(
                        context,
                        node,
                        f"{name}() loads base data from disk, bypassing the "
                        "source gateway and its capability checks",
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "rows":
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    continue  # an object's own attribute, not a Relation bypass
                yield self.finding(
                    context,
                    node,
                    "reads .rows storage directly; iterate the relation or use "
                    "its public accessors so access stays observable",
                )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.startswith("repro.relational"):
                    for alias in node.names:
                        if alias.name in _DIRECT_LOADERS:
                            yield self.finding(
                                context,
                                node,
                                f"imports {alias.name} into a mediator layer; "
                                "base data must arrive via AutonomousSource",
                            )

    @staticmethod
    def _callable_name(func: ast.AST) -> "str | None":
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None


#: The source-surface methods that constitute one billable call.
_SOURCE_CALL_METHODS = frozenset(
    {"execute", "execute_null_binding", "execute_certain_or_possible", "scan"}
)


class RawSourceCallRule(Rule):
    """Flag ``repro.core`` code calling the source surface outside the engine."""

    id = "raw-source-call-in-core"
    severity = Severity.ERROR
    description = (
        "core mediators must issue source calls through the retrieval engine "
        "(repro.engine), not by calling execute()/scan() on a source directly"
    )
    rationale = (
        "The engine is the one place that bills issuance before the call, "
        "enforces failure budgets and deadlines, and emits telemetry spans.  "
        "A direct source call in repro.core silently escapes the accounting "
        "invariant (stats.queries_issued == the source's own call log) and "
        "every policy the executor split centralised.  Deliberate bypasses "
        "(counterfactual baselines, pipelines not yet ported) carry a "
        "suppression with a justification."
    )

    def __init__(self, packages: "tuple[str, ...]" = ("repro.core",)):
        self.packages = packages

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if not context.in_package(*self.packages):
            return
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SOURCE_CALL_METHODS
            ):
                yield self.finding(
                    context,
                    node,
                    f".{node.func.attr}() called on a source directly; route "
                    "the call through RetrievalEngine so it is billed, "
                    "policy-checked, and traced (or suppress with a reason)",
                )


#: The rewrite-pipeline stage functions mediators must reach via the planner.
_REWRITE_STAGE_CALLS = frozenset(
    {
        "generate_rewritten_queries",
        "order_rewritten_queries",
        "score_rewritten_queries",
    }
)

#: Modules that legitimately *implement* the rewrite pipeline and so may
#: name its stage functions: the stage implementations themselves.
_REWRITE_PIPELINE_MODULES = ("repro.core.rewriting",)


class RawRewriteCallRule(Rule):
    """Flag ``repro.core`` code invoking rewrite-pipeline stages directly."""

    id = "raw-rewrite-call-in-core"
    severity = Severity.ERROR
    description = (
        "core mediators must plan rewritten queries through "
        "repro.planner.QueryPlanner, not by calling the generation/ranking "
        "stage functions directly"
    )
    rationale = (
        "The planner facade is the one place candidate generation, F-measure "
        "ranking and gating compose in a fixed order — it is what makes "
        "every mediator rank identically, keeps skip accounting attached to "
        "the plan, and makes the result cacheable under the knowledge "
        "fingerprint.  A mediator calling generate_rewritten_queries() or "
        "order_rewritten_queries() by hand re-creates the copy-paste "
        "divergence (tie-break drift between qpiad/joins/correlated) the "
        "planner extraction removed."
    )

    def __init__(self, packages: "tuple[str, ...]" = ("repro.core",)):
        self.packages = packages

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if not context.in_package(*self.packages):
            return
        if context.in_package(*_REWRITE_PIPELINE_MODULES):
            return  # the pipeline's own implementation
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                name = _attr_or_name(node.func)
                if name in _REWRITE_STAGE_CALLS:
                    yield self.finding(
                        context,
                        node,
                        f"{name}() called directly in a core mediator; plan "
                        "through repro.planner.QueryPlanner so ranking, "
                        "gating and caching stay unified",
                    )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.startswith("repro"):
                    for alias in node.names:
                        if alias.name in _REWRITE_STAGE_CALLS:
                            yield self.finding(
                                context,
                                node,
                                f"imports {alias.name} into a core mediator; "
                                "rewrite planning belongs to "
                                "repro.planner.QueryPlanner",
                            )


def _attr_or_name(func: ast.AST) -> "str | None":
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
