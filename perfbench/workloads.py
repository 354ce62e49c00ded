"""The benchmark's three workloads: inputs, program set-up and the timed loop.

Each workload splits into three parts.  Its constructor makes the inputs
from the seed: data, the query pool, the answers the checks expect, and
the seeded query stream and refresh batches.  :meth:`Workload.build` is
the program's set-up, the only part ``setup_s`` times.  :func:`run_pass`
is one closed-loop client issuing the stream.

Settings come from ``workloads.json`` beside this file, which also
records why each workload exists and which layers it stresses or bypasses.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from measure import BenchSource, LatencyModel, SpeedProbe, Tracer

from repro.core import JoinConfig, JoinProcessor, QpiadConfig, QpiadMediator
from repro.datasets import generate_cars, generate_complaints
from repro.datasets.scale import scaled_complete
from repro.evaluation import build_environment
from repro.evaluation.harness import Environment, selection_workload
from repro.evaluation.workloads import join_workload, multi_attribute_workload
from repro.mining.knowledge import KnowledgeBase
from repro.mining.refresh import KnowledgeRefresher
from repro.mining.store import KnowledgeStore
from repro.planner import PlanCache
from repro.query.executor import certain_answers, possible_answers
from repro.query.query import JoinQuery, SelectionQuery
from repro.relational import Relation
from repro.relational.columnar import data_plane_scope
from repro.resilience.scheduler import SourceScheduler, scheduler_scope

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text(encoding="utf-8"))

#: Seconds of timed work between two host-speed probes.
PROBE_EVERY_S = 0.5


@dataclass
class Outcome:
    """One query of a pass, as the client saw it."""

    kind: str
    started: float
    seconds: float
    calls: int = 0
    rows: int = 0
    error: "str | None" = None
    counted: bool = False
    first_answer_s: "float | None" = None
    candidates: int = 0
    component_calls: int = 0
    generated: int = 0
    issued: int = 0
    duplicates: int = 0
    ranked: int = 0
    relevant: int = 0
    total_relevant: int = 0


@dataclass(frozen=True)
class Refresh:
    """One knowledge refresh of a pass."""

    started: float
    seconds: float
    mode: str


@dataclass
class PassResult:
    outcomes: list[Outcome] = field(default_factory=list)
    refreshes: list[Refresh] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_lookups: int = 0
    dedup_hits: float = 0.0
    scheduler_calls: float = 0.0


class FirstAnswerProbe:
    """Stands in for ``JoinProcessor.stream_answers`` on one processor:
    passes every candidate through, timing the first and counting them."""

    def __init__(self, stream_answers: Any):
        self._stream_answers = stream_answers
        self.first_s: "float | None" = None
        self.candidates = 0

    def __call__(self, join: JoinQuery, result: Any = None) -> Iterator[Any]:
        started = time.perf_counter()
        self.first_s = None
        self.candidates = 0
        for candidate in self._stream_answers(join, result=result):
            if self.first_s is None:
                self.first_s = time.perf_counter() - started
            self.candidates += 1
            yield candidate


@dataclass
class Program:
    """The mediator objects one set-up built."""

    mediator: QpiadMediator
    sources: list[Any]
    mining_s: float
    joins: "JoinProcessor | None" = None
    probe: "FirstAnswerProbe | None" = None
    scheduler: "SourceScheduler | None" = None
    cache: "PlanCache | None" = None
    refresher: "KnowledgeRefresher | None" = None
    folded: list[Relation] = field(default_factory=list)

    def traffic(self) -> tuple[int, int]:
        """Calls and rows so far, from the sources' own access logs."""
        calls = rows = 0
        for source in self.sources:
            stats = source.statistics
            calls += stats.queries_answered + stats.rejected_queries
            rows += stats.tuples_returned
        return calls, rows

    def close(self) -> None:
        if self.scheduler is not None:
            self.scheduler.shutdown()


@dataclass(frozen=True)
class Expected:
    """What the checks demand of one selection query's result."""

    certain: tuple
    possible: frozenset
    total_relevant: int


def _scaled_environment(data: dict) -> Environment:
    """A dataset at a scale factor through the section 6.2 pipeline."""
    return build_environment(
        scaled_complete(data["name"], data["scale_factor"]),
        seed=data["environment_seed"],
        name=data["name"],
    )


def _mine(sample: Relation, env: Environment) -> tuple[KnowledgeBase, float]:
    started = time.perf_counter()
    knowledge = KnowledgeBase(sample, database_size=len(env.test))
    return knowledge, time.perf_counter() - started


def _selection_pool(env: Environment, pool: dict) -> list[SelectionQuery]:
    """The pool's selections; its size is part of the workload's definition,
    so a change to the query generators cannot silently resize it."""
    single = pool["single_attribute"]
    queries: list[SelectionQuery] = []
    for attribute in single["attributes"]:
        queries += selection_workload(
            env, attribute, single["per_attribute"], seed=single["seed"]
        )
    for multi in pool.get("multi_attribute", ()):
        queries += multi_attribute_workload(
            env, multi["attributes"], multi["count"], seed=multi["seed"]
        )
    if len(queries) != pool["selections"]:
        raise ValueError(
            f"the pool holds {len(queries)} selections, its definition {pool['selections']}"
        )
    return queries


def _expected(env: Environment, queries: list) -> dict[int, Expected]:
    """The answers the checks demand of each selection in *queries*, by
    index.  They are computed on the row plane, the semantic reference,
    so a fault in the columnar kernels the program runs on cannot move
    the program and its expectation alike."""
    expected = {}
    with data_plane_scope("row"):
        for index, query in enumerate(queries):
            if not isinstance(query, SelectionQuery):
                continue
            possible = possible_answers(query, env.test, max_nulls=1).rows
            expected[index] = Expected(
                certain=certain_answers(query, env.test).rows,
                possible=frozenset(possible),
                # Environment.total_relevant, without filtering the test
                # relation a second time.
                total_relevant=sum(1 for row in possible if env.oracle.is_relevant(row, query)),
            )
    return expected


def _selection_signature(result: Any) -> tuple:
    return (
        result.certain.rows,
        tuple((answer.row, answer.confidence) for answer in result.ranked),
    )


def _join_signature(result: Any) -> tuple:
    return tuple(
        (a.left_row, a.right_row, a.join_value, a.confidence, a.certain)
        for a in result.answers
    )


class Workload:
    """Inputs and set-up of one workload; subclasses fill in the specifics."""

    name = ""

    def __init__(self, seed: int):
        self.spec = SPEC[self.name]
        self.seed = seed
        self.min_rounds: int = self.spec["min_rounds"]
        #: Rounds whose queries the count and quality metrics cover.
        self.counted_rounds: int = self.spec["counted_rounds"]
        self.pool: list[Any] = []
        self.expected: dict[int, Expected] = {}
        #: The environment of the selections, whose oracle judges answers.
        self.env: Environment

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{purpose}:{self.seed}")

    def samples(self) -> list[Relation]:
        """Fresh copies of the samples set-up mines, one per mined
        environment, so each set-up starts without the columnar image and
        digest that an earlier mining left cached on a sample."""
        return [Relation.from_coerced(env.train.schema, env.train.rows) for env in self.mined()]

    def mined(self) -> list[Environment]:
        """The environments whose training samples set-up mines."""
        return [self.env]

    def build(self, samples: list[Relation], tracer: "Tracer | None" = None) -> Program:
        raise NotImplementedError

    def rounds(self) -> Iterator[list[tuple[str, Any]]]:
        """The seeded stream, one round at a time: ``("query", pool index)``
        and ``("refresh", batch)`` items.  Each call replays it from the start."""
        rng = self.rng("stream")
        indices = list(range(len(self.pool)))
        while True:
            yield [("query", index) for index in rng.sample(indices, len(indices))]

    def execute(self, program: Program, query: Any) -> Any:
        if isinstance(query, JoinQuery):
            assert program.joins is not None
            return program.joins.query(query)
        return program.mediator.query(query)

    def check(self, index: int, result: Any) -> "str | None":
        """Why *result* is wrong for pool query *index*, or ``None``."""
        query = self.pool[index]
        if isinstance(query, JoinQuery):
            return None
        if result.degraded:
            return f"{query}: result came back degraded"
        expected = self.expected[index]
        if result.certain.rows != expected.certain:
            return f"{query}: certain answers differ from the source's certain answers"
        for answer in result.ranked:
            if answer.row not in expected.possible:
                return f"{query}: ranked answer {answer.row} is not a possible answer"
        return None

    def after_pass(self, program: Program) -> list[str]:
        return []

    def relevant(self, index: int, result: Any) -> int:
        query = self.pool[index]
        return sum(1 for answer in result.ranked if self.env.oracle.is_relevant(answer.row, query))


class CensusCpu(Workload):
    name = "census_cpu"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.env = env = _scaled_environment(self.spec["dataset"])
        self.pool = _selection_pool(env, self.spec["pool"])
        self.expected = _expected(env, self.pool)

    def build(self, samples: list[Relation], tracer: "Tracer | None" = None) -> Program:
        env = self.env
        knowledge, mining_s = _mine(samples[0], env)
        source = env.web_source()
        exposed = source if tracer is None else BenchSource(source, tracer=tracer)
        mediator = QpiadMediator(exposed, knowledge, QpiadConfig(k=self.spec["mediator"]["k"]))
        if tracer is not None:
            _trace_planner(mediator, tracer)
        return Program(mediator=mediator, sources=[source], mining_s=mining_s)


class RemoteMix(Workload):
    name = "remote_mix_w2"

    def __init__(self, seed: int):
        super().__init__(seed)
        cars_spec, complaints_spec = self.spec["datasets"]
        cars = build_environment(
            generate_cars(cars_spec["rows"], seed=cars_spec["generator_seed"]),
            seed=cars_spec["environment_seed"],
            name="cars",
        )
        complaints = build_environment(
            generate_complaints(complaints_spec["rows"], seed=complaints_spec["generator_seed"]),
            seed=complaints_spec["environment_seed"],
            name="complaints",
        )
        self.env, self.complaints = cars, complaints
        pool = self.spec["pool"]
        self.pool = _selection_pool(cars, pool)
        joins = pool["joins"]
        self.pool += join_workload(
            cars,
            complaints,
            joins["join_attribute"],
            joins["left_attribute"],
            joins["right_attribute"],
            joins["count"],
            seed=joins["seed"],
        )
        if len(self.pool) != pool["selections"] + joins["count"]:
            raise ValueError(f"the pool holds {len(self.pool) - pool['selections']} joins")
        latency = self.spec["latency_model"]
        self.latency = LatencyModel(
            latency["round_trip_ms"] / 1000.0, latency["per_row_ms"] / 1000.0
        )
        self.expected = _expected(cars, self.pool)
        self.reference = self._reference()

    def mined(self) -> list[Environment]:
        return [self.env, self.complaints]

    def _reference(self) -> dict[int, tuple]:
        """Every pool query's answers from a serial mediator over the
        undelayed sources, with no scheduler."""
        cars, complaints = self.env, self.complaints
        left, right = cars.web_source(), complaints.web_source()
        mediator = QpiadMediator(left, cars.knowledge, self._selection_config(1))
        joins = JoinProcessor(
            left, right, cars.knowledge, complaints.knowledge, self._join_config(1)
        )
        reference = {}
        with scheduler_scope(None):
            for index, query in enumerate(self.pool):
                if isinstance(query, JoinQuery):
                    reference[index] = _join_signature(joins.query(query))
                else:
                    reference[index] = _selection_signature(mediator.query(query))
        return reference

    def _selection_config(self, width: int) -> QpiadConfig:
        return QpiadConfig(k=self.spec["mediator"]["k"], max_concurrency=width)

    def _join_config(self, width: int) -> JoinConfig:
        mediator = self.spec["mediator"]
        return JoinConfig(
            alpha=mediator["join_alpha"],
            k_pairs=mediator["join_k_pairs"],
            max_concurrency=width,
        )

    def build(self, samples: list[Relation], tracer: "Tracer | None" = None) -> Program:
        cars, complaints = self.env, self.complaints
        cars_knowledge, cars_s = _mine(samples[0], cars)
        complaints_knowledge, complaints_s = _mine(samples[1], complaints)
        width = self.spec["executor_width"]
        scheduler = SourceScheduler()
        left_source, right_source = cars.web_source(), complaints.web_source()
        left = BenchSource(left_source, self.latency, tracer)
        right = BenchSource(right_source, self.latency, tracer)
        mediator = QpiadMediator(
            left, cars_knowledge, self._selection_config(width), scheduler=scheduler
        )
        joins = JoinProcessor(
            left, right, cars_knowledge, complaints_knowledge, self._join_config(width)
        )
        probe = FirstAnswerProbe(joins.stream_answers)
        joins.stream_answers = probe  # type: ignore[method-assign]
        if tracer is not None:
            _trace_planner(mediator, tracer)
            scheduler.call = tracer.wrap(  # type: ignore[method-assign]
                "resilience.call", scheduler.call
            )
        return Program(
            mediator=mediator,
            sources=[left_source, right_source],
            mining_s=cars_s + complaints_s,
            joins=joins,
            probe=probe,
            scheduler=scheduler,
        )

    def check(self, index: int, result: Any) -> "str | None":
        problem = super().check(index, result)
        if problem is not None:
            return problem
        query = self.pool[index]
        if isinstance(query, JoinQuery):
            signature = _join_signature(result)
        else:
            signature = _selection_signature(result)
        if signature != self.reference[index]:
            return f"{query}: answers at width 2 differ from the serial reference"
        return None


class CarsRefreshMix(Workload):
    name = "cars_refresh_mix"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.env = env = _scaled_environment(self.spec["dataset"])
        pool = _selection_pool(env, self.spec["pool"])
        # Popularity follows a fixed shuffle of the pool, so every seed
        # runs the same mix and the seed only orders it.
        random.Random(f"{self.name}:popularity").shuffle(pool)
        self.pool = pool
        self.expected = _expected(env, pool)
        self.quotas = zipf_quotas(
            len(pool), self.spec["block_queries"], self.spec["zipf_exponent"]
        )

    def build(self, samples: list[Relation], tracer: "Tracer | None" = None) -> Program:
        env = self.env
        knowledge, mining_s = _mine(samples[0], env)
        store = KnowledgeStore(knowledge)
        refresher = KnowledgeRefresher(store)
        refresher.prime()
        cache = PlanCache()
        source = env.web_source()
        exposed = source if tracer is None else BenchSource(source, tracer=tracer)
        mediator = QpiadMediator(
            exposed, store, QpiadConfig(k=self.spec["mediator"]["k"]), plan_cache=cache
        )
        if tracer is not None:
            _trace_planner(mediator, tracer)
        return Program(
            mediator=mediator,
            sources=[source],
            mining_s=mining_s,
            cache=cache,
            refresher=refresher,
        )

    def rounds(self) -> Iterator[list[tuple[str, Any]]]:
        """Blocks of the Zipf mix in a seeded order, with a refresh before
        every ``refresh_every`` queries.  Batches are drawn without
        replacement from the source's rows, reshuffled whenever they run out."""
        test = self.env.test
        size, every = self.spec["refresh_batch_rows"], self.spec["refresh_every"]
        shuffler, order = self.rng("batches"), self.rng("stream")
        block = [index for index, quota in enumerate(self.quotas) for __ in range(quota)]
        rows: list = []
        while True:
            items: list[tuple[str, Any]] = []
            for number, index in enumerate(order.sample(block, len(block))):
                if number % every == 0:
                    if len(rows) < size:
                        rows = list(test.rows)
                        shuffler.shuffle(rows)
                    items.append(("refresh", Relation.from_coerced(test.schema, rows[:size])))
                    del rows[:size]
                items.append(("query", index))
            yield items

    def after_pass(self, program: Program) -> list[str]:
        """The refresh invariant: folded knowledge equals a full re-mine."""
        env = self.env
        assert program.refresher is not None
        union = env.train
        for batch in program.folded:
            union = union.concat(batch)
        full = KnowledgeBase(union, database_size=len(env.test))
        if full.fingerprint() != program.refresher.knowledge.fingerprint():
            return ["refreshed knowledge differs from a full re-mine of the union sample"]
        return []


WORKLOADS = {cls.name: cls for cls in (CensusCpu, RemoteMix, CarsRefreshMix)}


def zipf_quotas(count: int, block: int, exponent: float) -> list[int]:
    """Per-query counts in a block of *block* queries: one each, and the
    rest shared by Zipf weights, rounded by largest remainder."""
    if block < count:
        raise ValueError(f"a block of {block} cannot hold {count} distinct queries")
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    total = sum(weights)
    shares = [(block - count) * weight / total for weight in weights]
    quotas = [1 + int(share) for share in shares]
    by_remainder = sorted(range(count), key=lambda i: (int(shares[i]) - shares[i], i))
    for index in by_remainder[: block - sum(quotas)]:
        quotas[index] += 1
    return quotas


def _trace_planner(mediator: QpiadMediator, tracer: Tracer) -> None:
    planner = mediator.planner
    planner.plan_selection = tracer.wrap(  # type: ignore[method-assign]
        "planner.plan_selection", planner.plan_selection
    )


def run_query(
    workload: Workload,
    program: Program,
    index: int,
    tracer: "Tracer | None",
    query_id: int,
    counted: bool,
) -> Outcome:
    """Issue pool query *index* once, then check and account for it."""
    query = workload.pool[index]
    kind = "join" if isinstance(query, JoinQuery) else "selection"
    calls_before, rows_before = program.traffic()
    started = time.perf_counter()
    try:
        if tracer is None:
            result = workload.execute(program, query)
        else:
            with tracer.root("query", query_id, kind=kind):
                result = workload.execute(program, query)
    except Exception as exc:  # a query that raises fails; the run goes on
        return Outcome(
            kind, started, time.perf_counter() - started, error=f"{query}: raised {exc!r}"
        )
    seconds = time.perf_counter() - started
    calls_after, rows_after = program.traffic()
    outcome = Outcome(
        kind,
        started,
        seconds,
        calls=calls_after - calls_before,
        rows=rows_after - rows_before,
        counted=counted,
    )
    if result.stats.queries_issued != outcome.calls:
        outcome.error = (
            f"{query}: billed {result.stats.queries_issued} calls, "
            f"sources saw {outcome.calls}"
        )
    else:
        outcome.error = workload.check(index, result)
    if kind == "join":
        assert program.probe is not None
        outcome.first_answer_s = program.probe.first_s
        outcome.candidates = program.probe.candidates
        outcome.component_calls = result.component_queries_issued
        return outcome
    stats = result.stats
    outcome.generated = stats.rewritten_generated
    outcome.issued = stats.rewritten_issued
    outcome.duplicates = stats.duplicates_discarded
    outcome.ranked = len(result.ranked)
    if counted:
        outcome.relevant = workload.relevant(index, result)
        outcome.total_relevant = workload.expected[index].total_relevant
    return outcome


def warm_up(workload: Workload, program: Program) -> list[Outcome]:
    """Issue each distinct query once, filling per-knowledge memos."""
    with scheduler_scope(program.scheduler):
        return [
            run_query(workload, program, index, None, -1, False)
            for index in range(len(workload.pool))
        ]


def run_pass(
    workload: Workload,
    program: Program,
    seconds: float,
    tracer: "Tracer | None" = None,
    speed: "SpeedProbe | None" = None,
) -> PassResult:
    """One closed-loop client: whole rounds of the stream until *seconds*
    have passed and at least ``min_rounds`` rounds are done.  With *speed*,
    the host's speed is probed between queries every ``PROBE_EVERY_S``."""
    result = PassResult()
    cache, scheduler = program.cache, program.scheduler
    if cache is not None:
        hits, misses = cache.hits, cache.misses
    if scheduler is not None:
        dedup = scheduler.metrics.value("scheduler.dedup_hits")
        calls = scheduler.metrics.value("scheduler.calls")
    gc.collect()
    if speed is not None:
        speed.probe()
    started = time.perf_counter()
    with scheduler_scope(scheduler):
        for number, items in enumerate(workload.rounds()):
            if number >= workload.min_rounds and time.perf_counter() - started >= seconds:
                break
            for kind, payload in items:
                if speed is not None and time.perf_counter() - speed.last >= PROBE_EVERY_S:
                    speed.probe()
                if kind == "refresh":
                    result.refreshes.append(_refresh(program, payload, tracer))
                    continue
                result.outcomes.append(
                    run_query(
                        workload,
                        program,
                        payload,
                        tracer,
                        len(result.outcomes),
                        number < workload.counted_rounds,
                    )
                )
    if speed is not None:
        speed.probe()
    result.failures = workload.after_pass(program)
    if cache is not None:
        result.cache_hits = cache.hits - hits
        result.cache_lookups = result.cache_hits + cache.misses - misses
    if scheduler is not None:
        result.dedup_hits = scheduler.metrics.value("scheduler.dedup_hits") - dedup
        result.scheduler_calls = scheduler.metrics.value("scheduler.calls") - calls
    return result


def _refresh(program: Program, batch: Relation, tracer: "Tracer | None") -> Refresh:
    assert program.refresher is not None
    started = time.perf_counter()
    if tracer is None:
        refreshed = program.refresher.refresh(batch)
    else:
        with tracer.root("mining.refresh", -1):
            refreshed = program.refresher.refresh(batch)
    seconds = time.perf_counter() - started
    program.folded.append(batch)
    return Refresh(started, seconds, refreshed.mode)
