#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload redeliver --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from ``--seed`` (set-up is done several times
before and after the timed phase, and its median reported), runs the timed
phase for ``--seconds`` and checks the outputs against independent oracles.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation.  With ``--trace 1`` they are the per-layer ones: a traced
phase with spans around each layer's calls, then the same steps untraced on
a fresh instance (their time ratio is ``trace.overhead_ratio``), then a
phase under ``tracemalloc`` for the allocation peak.  Spans are written to
``bench/traces/``.

The exit code is 1 when an oracle fails and 2 when the engine's sources
cannot be found next to the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"
sys.path[:0] = [str(SOURCES), str(HERE)]

# Set-up runs at least SETUPS times and for at least SETUP_S seconds of wall
# time before the timed phase, and as long again after it, once the measured
# instance is closed.  The host's speed drifts over seconds to minutes, so
# samples from both ends of the run repeat better than a burst at its start.
# setup_s is their 75th percentile: short set-ups switch between a fast and a
# slow mode for seconds at a time, and the median follows whichever mode
# happened to last longer, while the upper quartile stays in the slow one.
SETUPS = 2
SETUP_S = 3.0
# throughput_ev_s is the 10th percentile of the work rates of consecutive
# windows of at least WINDOW_S seconds of timed work each, so that a cost
# paid on only a few steps still lands in every window it falls in.
WINDOW_S = 0.5
# The tail is the highest percentile, up to TAIL_PERCENTILE, with at least
# TAIL_BEYOND batches beyond it.  Higher percentiles are not used: on a shared
# machine a handful of batches hit by other tenants' bursts or a full garbage
# collection decides them, and they do not repeat from run to run.
TAIL_PERCENTILE = 95
TAIL_BEYOND = 10


def load_engine():
    """Import the engine from the checkout's own sources, never from an
    installed copy."""
    if not (SOURCES / "ces" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SOURCES}", file=sys.stderr)
        raise SystemExit(2)
    import ces

    if Path(ces.__file__).resolve().parent != (SOURCES / "ces").resolve():
        print(f"error: imported ces from {ces.__file__}, not from {SOURCES}", file=sys.stderr)
        raise SystemExit(2)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail: the highest
    nearest-rank percentile, up to TAIL_PERCENTILE, with at least TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples for that."""
    ordered = sorted(samples)
    rank = min(math.ceil(TAIL_PERCENTILE / 100 * len(ordered)), len(ordered) - TAIL_BEYOND)
    if rank < 1:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100 * rank / len(ordered), len(ordered) - rank


def set_up(workload, seed: int, keep: int):
    """Set up at least SETUPS times and for at least SETUP_S seconds of wall
    time; return the set-up times and the last ``keep`` states."""
    times, states = [], []
    began = time.perf_counter()
    while len(times) < max(SETUPS, keep) or time.perf_counter() - began < SETUP_S:
        while len(states) >= keep:
            workload.close(states.pop(0))
        gc.collect()
        start = time.perf_counter()
        states.append(workload.setup(seed))
        times.append(time.perf_counter() - start)
    return times, states


def run_phase(workload, state, seconds: float | None = None, steps: int | None = None, tracer=None) -> list:
    """Step until ``seconds`` of wall time passed (or ``steps`` steps were
    done) and the workload has done the least its oracle needs.  Returns the
    work rate of every full window of WINDOW_S timed seconds, or of the
    whole phase when it is shorter."""
    rates = []
    deadline = time.perf_counter() + (seconds or 0.0)
    window_s = window_units = 0.0
    while workload.must_continue(state) or (
        state.steps < steps if steps is not None else time.perf_counter() < deadline
    ):
        if tracer is not None:
            tracer.run_id = state.steps
        timed, units = state.timed_s, state.units
        workload.step(state)
        window_s += state.timed_s - timed
        window_units += state.units - units
        if window_s >= WINDOW_S:
            rates.append(window_units / window_s)
            window_s = window_units = 0.0
    if not rates and window_s:
        rates.append(window_units / window_s)  # a phase shorter than one window
    with workload.quiet():
        workload.finish(state)
    return rates


def measured(workload, seed: int, seconds: float):
    setup_times, (state,) = set_up(workload, seed, keep=1)
    gc.collect()
    rates = run_phase(workload, state, seconds)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.close(state)
    state.data = None
    after, extra = set_up(workload, seed, keep=1)
    workload.close(extra[0])
    setup_times += after
    value, p, beyond = tail(state.batches_ms)
    metrics = {
        "setup_s": (percentile(setup_times, 75), "s"),
        "throughput_ev_s": (percentile(rates, 10), "events/s"),
        "batch_p90_ms": (percentile(state.batches_ms, 90), "ms"),
        "batch_tail_ms": (value, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    notes = [
        f"setup_s is the 75th percentile of {len(setup_times)} set-ups, {len(setup_times) - len(after)} "
        f"before the timed phase and {len(after)} after it; median {statistics.median(setup_times):.6g} s",
        f"throughput_ev_s is the rate 90% of {len(rates)} windows of >= {WINDOW_S:g} s reached; "
        f"mean rate {state.units / state.timed_s:.6g} {workload.unit}/s",
        f"batch_p90_ms is of {len(state.batches_ms)} batches; p50 {percentile(state.batches_ms, 50):.6g} ms",
        f"batch_tail_ms is p{p:.4g} of {len(state.batches_ms)} batches ({beyond} beyond)",
    ]
    return metrics, [state], notes


def traced(workload, seed: int, seconds: float):
    """Traced phase, then the same steps untraced, then a tracemalloc phase;
    every phase on its own freshly set-up instance."""
    from tracing import Tracer

    _, states = set_up(workload, seed, keep=3)
    traced_state, reference_state, memory_state = states
    tracer = Tracer()
    workload.quiet = tracer.paused
    gc.collect()
    tracer.install()
    origin = time.perf_counter()
    tracer.active = True
    try:
        run_phase(workload, traced_state, seconds / 2, tracer=tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.sample_gauges(workload.replicas(traced_state))

    gc.collect()
    run_phase(workload, reference_state, steps=traced_state.steps)

    gc.collect()
    tracemalloc.start()
    try:
        run_phase(workload, memory_state, seconds / 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    metrics = tracer.metrics()
    metrics["mem.tracemalloc_peak_mb"] = (peak / 2**20, "MB")
    metrics["trace.overhead_ratio"] = (traced_state.timed_s / reference_state.timed_s, "1")
    traces = HERE / "traces"
    traces.mkdir(exist_ok=True)
    spans = f"{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(traces / spans, origin)
    notes = [f"traced {traced_state.steps} steps; spans in bench/traces/{spans}"]
    layer_checks(workload.name, metrics, traced_state)
    for state in states:
        workload.close(state)
    return metrics, states, notes


def layer_checks(name: str, metrics: dict, state) -> None:
    """Exact counts that show each workload loads the layers it claims to;
    a count that does not hold fails the run."""
    overwrites = metrics["events.overwrites_calls"][0]
    if name == "bulk_sync" and overwrites != 0:
        state.fail(f"layer check: {overwrites} overwrites calls on bulk_sync, expected 0")
    if name == "redeliver" and overwrites != state.units:
        state.fail(f"layer check: {overwrites} overwrites calls, expected {state.units} delivered events")
    if (metrics["editor.clone_s"][0] != 0) != (name == "edit_parse"):
        state.fail(f"layer check: editor.clone_s must be non-zero only on edit_parse, is {metrics['editor.clone_s'][0]}")


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str], list[str]]:
    """Run one workload; return the result object, summary lines and problems."""
    if trace:
        metrics, states, notes = traced(workload, seed, seconds)
    else:
        metrics, states, notes = measured(workload, seed, seconds)
    attempted = sum(s.attempted for s in states)
    failed = sum(s.failed + s.oracle_failed for s in states)
    if not trace:
        metrics["success_ratio"] = (1 - min(failed, attempted) / attempted, "1")
    problems = [p for s in states for p in s.problems]
    first = states[0]
    lines = [f"workload {workload.name} seed {seed}: {first.units} {workload.unit} in {first.steps} "
             f"steps, {first.timed_s:.3f} s timed; digest {first.digest}"]
    lines += notes
    lines += [f"{key} = {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, lines, problems


def main(argv=None) -> int:
    load_engine()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, lines, problems = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(f"# {line}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
