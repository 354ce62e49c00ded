"""Tests of the benchmark's measurement helpers.

Run from the root of the repository::

    python3 -m pytest perfbench/test_measure.py
"""

from __future__ import annotations

import threading

import pytest
from measure import (
    BenchSource,
    LatencyModel,
    Span,
    SpeedProbe,
    Tracer,
    covered,
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
)
from workloads import zipf_quotas


class TestPercentiles:
    def test_interpolates_between_ranks(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([5.0], 90) == 5.0

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_tail_is_highest_rung_with_ten_beyond(self):
        samples = [float(i) for i in range(1000)]
        pct, value, n = tail_percentile(samples)
        assert (pct, n) == (99.0, 1000)  # p99.9 would leave one sample beyond
        assert value == percentile(samples, 99)
        assert samples_beyond(1000, 99) == 10

    def test_tail_steps_down_as_samples_shrink(self):
        assert tail_percentile([1.0] * 200)[0] == 95.0
        assert tail_percentile([1.0] * 100)[0] == 90.0
        assert tail_percentile([1.0] * 99)[0] == 50.0
        assert tail_percentile([1.0] * 19) is None


def _span(span_id, start, end, parent=None, name="s"):
    return Span(span_id, name, 0, parent, start, end)


class TestSelfTime:
    def test_subtracts_children(self):
        spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, 1), _span(3, 5.0, 6.0, 1)]
        assert self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}

    def test_overlapping_children_at_width_two_count_once(self):
        # Two source calls in flight at once under one query.
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 6.0, 1),
            _span(3, 4.0, 8.0, 1),
        ]
        assert self_times(spans)[1] == pytest.approx(3.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [_span(1, 2.0, 4.0), _span(2, 1.0, 3.0, 1)]
        assert self_times(spans)[1] == pytest.approx(1.0)

    def test_covered_merges_nested_and_disjoint_intervals(self):
        assert covered([(0, 4), (1, 2), (6, 7)]) == 5
        assert covered([]) == 0


class TestTracer:
    def test_nesting_and_executor_threads_parent_under_the_query(self):
        tracer = Tracer()
        with tracer.root("query", 7):
            with tracer.span("planner"):
                pass

            def source_call():
                with tracer.span("source"):
                    pass

            worker = threading.Thread(target=source_call)
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive()
        by_name = {span.name: span for span in tracer.spans}
        root = by_name["query"]
        assert root.parent is None
        assert by_name["planner"].parent == root.id
        assert by_name["source"].parent == root.id  # no open span on its thread
        assert by_name["planner"].query == by_name["source"].query == 7

    def test_wrap_records_one_span_per_call(self):
        tracer = Tracer()
        traced = tracer.wrap("layer", lambda x: x * 2)
        with tracer.root("query", 0):
            assert traced(3) == 6
        names = sorted(span.name for span in tracer.spans)
        assert names == ["layer", "query"]


class _Source:
    name = "fake"

    def execute(self, query):
        return list(range(len(query)))


class TestLatency:
    def test_identical_calls_get_identical_delays(self):
        model = LatencyModel(round_trip_s=0.005, per_row_s=0.001)
        schedules = []
        for __ in range(2):
            slept = []
            source = BenchSource(_Source(), model, sleep=slept.append)
            for query in ("ab", "abcd", "ab", ""):
                source.execute(query)
            schedules.append(slept)
        assert schedules[0] == schedules[1]
        assert schedules[0] == pytest.approx([0.007, 0.009, 0.007, 0.005])

    def test_traced_source_splits_execution_from_wait(self):
        tracer = Tracer()
        source = BenchSource(_Source(), LatencyModel(0.001, 0.0), tracer, sleep=lambda s: None)
        with tracer.root("query", 0):
            source.execute("abc")
        names = [span.name for span in tracer.spans]
        assert names == ["sources.execute", "sources.wait", "query"]
        assert tracer.spans[0].attrs["rows"] == 3

    def test_forwards_everything_else(self):
        assert BenchSource(_Source()).name == "fake"


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpeedProbe:
    def test_scales_by_the_probes_around_a_measurement(self):
        clock = _Clock()
        kernel_seconds = iter([2.0, 1.0, 1.0])

        def kernel():
            clock.now += next(kernel_seconds)

        speed = SpeedProbe(kernel, repeats=1, clock=clock)
        for start in (0.0, 10.0, 20.0):
            clock.now = start
            speed.probe()
        # Between a slow probe (2 s) and a fast one (1 s): mean 1.5 s.
        assert speed.factor(3.0, 9.0) == pytest.approx(1.0 / 1.5)
        assert speed.factor(12.0, 19.0) == 1.0
        # After the last probe only the one before it counts.
        assert speed.factor(22.0, 23.0) == 1.0

    def test_needs_a_probe(self):
        with pytest.raises(ValueError):
            SpeedProbe().factor(0.0, 1.0)


class TestZipfQuotas:
    def test_block_is_filled_exactly_with_every_query_present(self):
        quotas = zipf_quotas(60, 192, 1.0)
        assert sum(quotas) == 192
        assert min(quotas) >= 1
        assert quotas == sorted(quotas, reverse=True)

    def test_rejects_a_block_smaller_than_the_pool(self):
        with pytest.raises(ValueError):
            zipf_quotas(10, 5, 1.0)
