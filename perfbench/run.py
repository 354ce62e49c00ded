"""Mediator benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of the repository::

    python3 perfbench/run.py --workload census_cpu --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the untraced pass and prints the end-to-end metrics.
``--trace 1`` runs an untraced and a traced pass of ``--seconds / 2`` each
and prints the per-layer metrics, read off the traced pass's spans, which
are also written to ``perfbench/out/<workload>-seed<seed>.spans.jsonl``.
``--workload all`` runs every workload, each in a fresh process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when one failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9

WORKLOAD_NAMES = ("census_cpu", "remote_mix_w2", "cars_refresh_mix")


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _throughput(result, scale) -> float:
    """Queries per second of the time the pass spent in queries and refreshes."""
    busy = sum(scale(o.started, o.seconds) for o in result.outcomes)
    busy += sum(scale(r.started, r.seconds) for r in result.refreshes)
    return len(result.outcomes) / busy


def end_to_end(
    setups: list[float], peak_rss_mb: float, result, scale
) -> tuple[dict, list[str]]:
    """The gated end-to-end metrics, and report lines for the ones that
    exist only on some workloads.  ``scale(started, seconds)`` gives a
    timed item's seconds as reported."""
    from measure import percentile, tail_percentile

    outcomes = result.outcomes
    times = [_ms(scale(o.started, o.seconds)) for o in outcomes]
    refreshes = [_ms(scale(r.started, r.seconds)) for r in result.refreshes]
    counted = [o for o in outcomes if o.counted]
    selections = [o for o in counted if o.kind == "selection"]
    metrics = {
        "setup_s": (_median(setups), "s"),
        "query_p50_ms": (percentile(times, 50), "ms"),
        "query_p90_ms": (percentile(times, 90), "ms"),
        "throughput_qps": (_throughput(result, scale), "1/s"),
        "source_calls_per_query": (_mean([o.calls for o in counted]), "count"),
        "rows_transferred_per_query": (_mean([o.rows for o in counted]), "count"),
        "answer_precision": (
            _ratio(sum(o.relevant for o in selections), sum(o.ranked for o in selections)),
            "ratio",
        ),
        "answer_recall": (
            _ratio(
                sum(o.relevant for o in selections),
                sum(o.total_relevant for o in selections),
            ),
            "ratio",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = [_ms(o.seconds) for o in outcomes]
    lines = [
        f"query samples n = {len(times)}; unscaled wall p50 = {percentile(wall, 50):.4f} ms, "
        f"p90 = {percentile(wall, 90):.4f} ms"
    ]
    tail = tail_percentile(times)
    if tail is not None:
        pct, value, n = tail
        lines.append(
            f"highest percentile with 10+ samples beyond: p{pct:g} = {value:.4f} ms (n = {n})"
        )
    firsts = [
        _ms(scale(o.started, o.first_answer_s))
        for o in outcomes
        if o.first_answer_s is not None
    ]
    lines.append(
        f"first_answer_p50_ms = {percentile(firsts, 50):.4f} ms (n = {len(firsts)} joins)"
        if firsts
        else "first_answer_p50_ms = n/a ms (no joins)"
    )
    busy = sum(times) + sum(refreshes)
    lines.append(
        f"refresh_p50_ms = {_median(refreshes):.4f} ms (n = {len(refreshes)} refreshes, "
        f"{100.0 * sum(refreshes) / busy:.1f}% of busy time)"
        if refreshes
        else "refresh_p50_ms = n/a ms (no refreshes)"
    )
    return metrics, lines


def per_layer(result, spans, minings: list[float], overhead_pct: float) -> dict:
    """The per-layer metrics of a traced pass; 0 where the workload
    bypasses the layer."""
    from measure import covered, self_times

    outcomes = result.outcomes
    n = len(outcomes)
    own = self_times(spans)
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    roots = named["query"]
    query_s = sum(root.duration for root in roots)
    plan_s = sum(span.duration for span in named["planner.plan_selection"])
    executes, waits = named["sources.execute"], named["sources.wait"]
    by_query = defaultdict(list)
    for span in executes + waits:
        by_query[span.query].append((span.start, span.end))
    source_covered = sum(covered(intervals) for intervals in by_query.values())
    source_busy = sum(span.duration for span in executes + waits)
    selections = [o for o in outcomes if o.kind == "selection"]
    joins = [o for o in outcomes if o.kind == "join"]
    refreshes = result.refreshes
    return {
        "mining.build_s": (_median(minings), "s"),
        "mining.refresh_ms": (_median([_ms(r.seconds) for r in refreshes]), "ms"),
        "mining.refresh_full_ratio": (
            _ratio(sum(1 for r in refreshes if r.mode == "full"), len(refreshes)),
            "ratio",
        ),
        "planner.plan_ms_per_query": (_ms(plan_s) / n, "ms"),
        "planner.share": (_ratio(plan_s, query_s), "ratio"),
        "planner.rewrites_generated_per_query": (_mean([o.generated for o in selections]), "count"),
        "planner.rewrites_issued_per_query": (_mean([o.issued for o in selections]), "count"),
        "planner.cache_hit_ratio": (_ratio(result.cache_hits, result.cache_lookups), "ratio"),
        "sources.calls_per_query": (len(executes) / n, "count"),
        "sources.rows_per_call": (_mean([span.attrs["rows"] for span in executes]), "count"),
        "sources.exec_ms_per_call": (_ms(_mean([span.duration for span in executes])), "ms"),
        "sources.share": (_ratio(source_covered, query_s), "ratio"),
        "sources.injected_wait_ms_per_query": (
            _ms(sum(span.duration for span in waits)) / n,
            "ms",
        ),
        "resilience.queue_wait_ms_per_call": (
            _ms(_mean([own[span.id] for span in named["resilience.call"]])),
            "ms",
        ),
        "resilience.dedup_hit_ratio": (_ratio(result.dedup_hits, result.scheduler_calls), "ratio"),
        "engine.inflight_mean": (_ratio(source_busy, query_s), "ratio"),
        "core.self_ms_per_query": (
            _ms(_mean([own[root.id] for root in roots if root.attrs["kind"] == "selection"])),
            "ms",
        ),
        "core.duplicates_per_query": (_mean([o.duplicates for o in selections]), "count"),
        "core.ranked_per_query": (_mean([o.ranked for o in selections]), "count"),
        "joins.first_answer_ms": (_median([_ms(o.first_answer_s) for o in joins]), "ms"),
        "joins.first_answer_share": (
            _median([o.first_answer_s / o.seconds for o in joins]),
            "ratio",
        ),
        "joins.candidates_per_query": (_mean([o.candidates for o in joins]), "count"),
        "joins.component_calls_per_query": (_mean([o.component_calls for o in joins]), "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def measure(
    name: str, seed: int, seconds: float, trace: bool
) -> tuple[dict, list[str], int, list[str]]:
    """Run one workload; returns metrics, report lines, queries attempted
    and the failures seen."""
    from measure import SpeedProbe, Tracer
    from workloads import WORKLOADS, run_pass, warm_up

    workload = WORKLOADS[name](seed)
    speed = SpeedProbe()
    setups, minings = [], []
    program = None
    speed.probe()
    for __ in range(SETUP_REPEATS):
        if program is not None:
            program.close()
        samples = workload.samples()
        started = time.perf_counter()
        program = workload.build(samples)
        setups.append((started, time.perf_counter() - started))
        speed.probe()
        minings.append(program.mining_s)
    outcomes = warm_up(workload, program)
    # Read before the timed phase: cars_refresh_mix's refreshes fall back to
    # a full re-mine at a union size that depends on the seed's batches,
    # which would make the peak seed-dependent rather than program-dependent.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = run_pass(workload, program, seconds / 2 if trace else seconds, speed=speed)
    program.close()
    outcomes += untraced.outcomes
    failures = list(untraced.failures)
    sleeps = workload.spec["latency_model"] is not None

    def at_best_speed(started: float, elapsed: float) -> float:
        return elapsed * speed.factor(started, started + elapsed)

    def scale(started: float, elapsed: float) -> float:
        """Timings of CPU-bound work are reported at the run's best host
        speed; a workload whose sources sleep is timed as it ran."""
        return elapsed if sleeps else at_best_speed(started, elapsed)

    metrics, lines = end_to_end(
        [at_best_speed(started, elapsed) for started, elapsed in setups],
        peak_rss_mb,
        untraced,
        scale,
    )
    if trace:
        tracer = Tracer()
        program = workload.build(workload.samples(), tracer)
        outcomes += warm_up(workload, program)
        tracer.spans.clear()
        traced = run_pass(workload, program, seconds / 2, tracer, speed)
        program.close()
        outcomes += traced.outcomes
        failures += traced.failures
        overhead = (1.0 - _throughput(traced, scale) / _throughput(untraced, scale)) * 100.0
        metrics = per_layer(traced, tracer.spans, minings, overhead)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{name}-seed{seed}.spans.jsonl"
        tracer.dump(spans_path)
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    failures += [o.error for o in outcomes if o.error is not None]
    failed_ratio = _ratio(len(failures), len(outcomes))
    lines.append(f"failed_ratio = {failed_ratio:.6f} ratio ({len(failures)} of {len(outcomes)})")
    return metrics, lines, len(outcomes), failures


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so ``peak_rss_mb`` is its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the mediator's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    metrics, lines, attempted, failures = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        (metric["name"], metric["unit"])
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    measured = {(name, unit) for name, (__, unit) in metrics.items()}
    if measured != expected:
        print(
            f"error: metrics differ from BENCHMARK.json: {sorted(measured ^ expected)}",
            file=sys.stderr,
        )
        return 2
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in lines:
        print(f"  {line}")
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
