"""Unit tests of the plan executors' shared contract.

Every executor must (1) merge outcomes strictly in task order, or in
completion order under ``map(..., ordered=False)``, (2) stop *starting*
tasks once ``should_stop()`` turns true while letting work in flight
complete, and (3) carry task exceptions as data instead of raising
them.  The serial executor additionally promises strict
laziness: a task only runs when its outcome is consumed.
"""

import threading

import pytest

from repro.engine import (
    ConcurrentExecutor,
    ExecutionTask,
    SerialExecutor,
    build_executor,
)
from repro.errors import QpiadError

EXECUTORS = [SerialExecutor(), ConcurrentExecutor(4)]
IDS = ["serial", "concurrent"]


def _tasks(thunks):
    return [ExecutionTask(rank, thunk) for rank, thunk in enumerate(thunks)]


class _EitherOrder:
    """Cases that hold for both merge orders, run once per ``ordered``.

    Subclasses set ``ordered``; completion-order outcomes are sorted by
    rank before the checks that plan order must meet as yielded.
    """

    ordered: bool

    def _map(self, executor, tasks, should_stop=lambda: False):
        return executor.map(tasks, should_stop, ordered=self.ordered)

    @pytest.mark.parametrize("executor", EXECUTORS, ids=IDS)
    def test_errors_are_data_not_raises(self, executor):
        boom = ValueError("boom")

        def fail():
            raise boom

        outcomes = list(self._map(executor, _tasks([lambda: 1, fail, lambda: 3])))
        if not self.ordered:
            outcomes.sort(key=lambda o: o.rank)
        assert [o.value for o in outcomes] == [1, None, 3]
        assert outcomes[1].error is boom
        assert outcomes[0].error is None and outcomes[2].error is None

    @pytest.mark.parametrize("executor", EXECUTORS, ids=IDS)
    def test_should_stop_yields_a_prefix(self, executor):
        ran = []

        def make(i):
            def run():
                ran.append(i)
                return i

            return run

        consumed = []
        for outcome in self._map(
            executor, _tasks([make(i) for i in range(50)]), lambda: len(consumed) >= 3
        ):
            consumed.append(outcome.value)
        if not self.ordered:
            consumed.sort()
        # Consumed outcomes are a prefix of the plan; started tasks are
        # bounded by the consumed prefix plus the executor's window.
        assert consumed == list(range(len(consumed)))
        assert 3 <= len(consumed)
        assert len(ran) <= len(consumed) + getattr(executor, "max_workers", 1)

    @pytest.mark.parametrize("executor", EXECUTORS, ids=IDS)
    def test_empty_plan_is_empty_stream(self, executor):
        assert list(self._map(executor, [])) == []


class TestContract(_EitherOrder):
    """Plan order: ``map(...)``, the default."""

    ordered = True

    @pytest.mark.parametrize("executor", EXECUTORS, ids=IDS)
    def test_outcomes_arrive_in_task_order(self, executor):
        outcomes = list(
            executor.map(_tasks([lambda i=i: i * 10 for i in range(20)]), lambda: False)
        )
        assert [o.rank for o in outcomes] == list(range(20))
        assert [o.value for o in outcomes] == [i * 10 for i in range(20)]


class TestMapCompleted(_EitherOrder):
    """The streaming relaxation, ``map(..., ordered=False)``: completion
    order, same economy and errors."""

    ordered = False

    @pytest.mark.parametrize("executor", EXECUTORS, ids=IDS)
    def test_one_outcome_per_task(self, executor):
        outcomes = list(
            executor.map(
                _tasks([lambda i=i: i * 10 for i in range(20)]),
                lambda: False,
                ordered=False,
            )
        )
        assert sorted(o.rank for o in outcomes) == list(range(20))
        assert all(o.value == o.rank * 10 for o in outcomes)

    def test_serial_completion_order_is_task_order(self):
        outcomes = list(
            SerialExecutor().map(
                _tasks([lambda i=i: i for i in range(10)]), lambda: False, ordered=False
            )
        )
        assert [o.rank for o in outcomes] == list(range(10))

    def test_fast_task_overtakes_slow_one(self):
        release = threading.Event()

        def slow():
            assert release.wait(10)
            return "slow"

        def fast():
            return "fast"

        outcomes = []
        for outcome in ConcurrentExecutor(2).map(
            _tasks([slow, fast]), lambda: False, ordered=False
        ):
            outcomes.append(outcome)
            # Only once "fast" has been *yielded* may "slow" finish, so
            # the overtaking order is forced, not just likely.
            release.set()
        # Plan-order map would hold "fast" behind "slow"; the streaming
        # path surfaces it first.
        assert [o.value for o in outcomes] == ["fast", "slow"]
        assert [o.rank for o in outcomes] == [1, 0]


class TestSerialLaziness:
    def test_tasks_run_only_when_consumed(self):
        ran = []

        def make(i):
            def run():
                ran.append(i)
                return i

            return run

        outcomes = SerialExecutor().map(_tasks([make(i) for i in range(5)]), lambda: False)
        assert ran == []  # nothing runs before the first pull
        next(outcomes)
        assert ran == [0]
        next(outcomes)
        assert ran == [0, 1]
        outcomes.close()
        assert ran == [0, 1]  # abandoning the stream spends nothing more


class TestConcurrentWindow:
    def test_runs_tasks_on_multiple_threads(self):
        gate = threading.Barrier(4, timeout=10)

        def rendezvous():
            # Only passes if four tasks really are in flight at once.
            gate.wait()
            return threading.current_thread().name

        outcomes = list(
            ConcurrentExecutor(4).map(_tasks([rendezvous] * 4), lambda: False)
        )
        assert len({o.value for o in outcomes}) > 1
        assert all(o.value.startswith("qpiad-engine") for o in outcomes)

    def test_in_flight_work_completes_after_stop(self):
        started = []
        finished = []
        stop = threading.Event()

        def make(i):
            def run():
                started.append(i)
                stop.set()  # ask for a stop as soon as anything runs
                finished.append(i)
                return i

            return run

        outcomes = list(
            ConcurrentExecutor(2).map(
                _tasks([make(i) for i in range(10)]), stop.is_set
            )
        )
        # Everything that started also finished (never cancelled), and the
        # merged outcomes are exactly the started prefix.
        assert sorted(started) == sorted(finished)
        assert [o.value for o in outcomes] == list(range(len(outcomes)))
        assert len(outcomes) < 10

    def test_rejects_nonpositive_width(self):
        with pytest.raises(QpiadError, match="max_workers"):
            ConcurrentExecutor(0)


class TestBuildExecutor:
    def test_one_is_serial(self):
        assert build_executor(1).name == "serial"

    def test_above_one_is_concurrent(self):
        executor = build_executor(6)
        assert executor.name == "concurrent"
        assert executor.max_workers == 6

    def test_below_one_rejected(self):
        with pytest.raises(QpiadError, match="max_concurrency"):
            build_executor(0)
