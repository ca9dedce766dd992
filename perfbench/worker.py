"""The measuring process: set up, then run timed passes over the pool.

Reads the generated inputs (JSON) on stdin and writes one JSON result to
stdout. ``--spawned-at`` is the ``time.monotonic()`` reading of the parent
just before it started this process, so set-up time counts interpreter
start-up and import too.

Untraced (``--trace 0``): whole passes over the pool, at least
``--min-passes`` of them, until the next pass would end after
``--seconds``. Traced (``--trace 1``): passes in which every op runs once
untraced and once traced, in alternating order, until the next pass would
end after ``--seconds``; the traced runs give the spans, and the untraced
ones, under the same machine state, the base of the tracing overhead.

Before each op, and outside its time, the cyclic garbage collector runs,
so a collection that earlier ops' garbage would set off does not land in a
later op; what is left after set-up is frozen, so those collections do not
walk it again.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter

from common import digest, import_reductions


class Tracer:
    """Spans of the benchmark's own calls into the package, kept in memory:
    (name, start_ns, end_ns, parent index, op id)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1

    def call(self, name, fn, *args):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def self_times(self):
        """Per span name: (calls, self time in s), where a span's self time
        is its duration less the durations of its child spans (children of
        one span never overlap: the benchmark runs one call at a time)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        busy = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            busy[name] += end - start - inner
        return calls, {k: v / 1e9 for k, v in busy.items()}


def run_pass(work, runners):
    """One pass over the pool. Each op is run once by each of ``runners``
    (``runner(i, inst)``), in turn, their order reversed on every other op,
    so that runners compared on the same ops see the same machine state.
    Returns per runner (wall s, per-op (s, output, error)); a runner's wall
    time includes the untimed work before each of its ops."""
    from reductions.errors import ReductionsError
    from ops import CheckFailed

    walls = [0.0] * len(runners)
    outs = [[] for _ in runners]
    for i, inst in enumerate(work.pool):
        order = range(len(runners)) if i % 2 == 0 else reversed(range(len(runners)))
        for k in order:
            t0 = time.perf_counter()
            work.before(inst)
            gc.collect()
            start = time.perf_counter()
            error = None
            try:
                result = runners[k](i, inst)
            except ReductionsError as exc:
                error = type(exc).__name__
                result = ["error", error]
            except CheckFailed as exc:
                error = "CheckFailed"
                result = ["failed", str(exc)]
            end = time.perf_counter()
            outs[k].append((end - start, result, error))
            walls[k] += end - t0
    return list(zip(walls, outs))


def main(argv=None):
    parser = argparse.ArgumentParser(description="benchmark measuring process")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = json.load(sys.stdin)
    import_reductions()
    import ops

    work = ops.WORKLOADS[inputs["workload"]](inputs)
    for inst in work.warmup:
        work.op(inst, ops.plain_call, Counter())
    gc.collect()
    gc.freeze()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        json.dump({"setup_s": setup_s}, sys.stdout)
        return 0

    passes = []  # (wall s, per-op results); when tracing, the traced runs at odd indices
    tracer = Tracer() if args.trace else None
    step = 1 if tracer is None else 2  # entries of ``passes`` per pass over the pool
    start = time.perf_counter()
    while True:
        plain_counts, traced_counts = Counter(), Counter()
        runners = [lambda i, inst: work.op(inst, ops.plain_call, plain_counts)]
        if tracer is not None:

            def traced_op(i, inst):
                tracer.op_id = i
                return tracer.call("bench.op", work.op, inst, tracer.call, traced_counts, True)

            runners.append(traced_op)
        passes.extend(run_pass(work, runners))
        # stop when the next pass would end after --seconds
        elapsed = time.perf_counter() - start
        if len(passes) >= args.min_passes and elapsed * (len(passes) + step) / len(passes) > args.seconds:
            break

    results = [p for _, p in passes]
    first = [r for _, r, _ in results[0]]
    attempted = sum(map(len, results))
    errors = Counter(e for p in results for _, _, e in p if e is not None)
    # every later pass must give the outputs of the first, op for op
    drift = sum(1 for p in results[1:] for (_, r, e), r0 in zip(p, first) if e is None and r != r0)
    failed = sum(errors.values()) + drift
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "pool": len(work.pool),
        "errors": dict(errors),
        "output_digest": digest(first),
        "first_error": next((r for p in results for _, r, e in p if e is not None), None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": dict(plain_counts if tracer is None else traced_counts),  # of the last pass
    }
    if tracer is None:
        result.update(_op_summary(passes, attempted - failed))
    else:
        result.update(_trace_summary(tracer, passes))
    json.dump(result, sys.stdout)
    return 0


def _op_summary(passes, verified):
    """The median and 90th percentile of every op time of every pass, and
    verified ops per second of the passes' wall time."""
    times = [t for _, p in passes for t, _, _ in p]
    return {
        "ops_per_s": verified / sum(wall for wall, _ in passes),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
    }


def _trace_summary(tracer, passes):
    """Per-layer calls and self time per traced pass, the share of the
    traced passes' wall time the layer spans cover, and the tracing
    overhead: traced op time, less the probes, over untraced op time on
    the same ops."""
    import ops

    calls, busy = tracer.self_times()
    traced = passes[1::2]
    layers = {}
    for name in ops.LAYERS:
        layers[f"{name}.calls"] = calls.get(name, 0) / len(traced)
        layers[f"{name}.busy_s"] = busy.get(name, 0.0) / len(traced)
    covered = sum(v for k, v in busy.items() if k != "bench.op")
    probe_s = sum(busy.get(name, 0.0) for name in ops.PROBES)
    untraced_s = sum(t for _, p in passes[0::2] for t, _, _ in p)
    traced_s = sum(t for _, p in traced for t, _, _ in p) - probe_s
    return {
        "layers": layers,
        "coverage_pct": 100.0 * covered / sum(wall for wall, _ in traced),
        "overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "spans": len(tracer.spans) // len(traced),
    }


if __name__ == "__main__":
    sys.exit(main())
