"""The repository benchmark: three closed-loop workloads over the package.

    python3 perfbench/run.py --workload quadric --seed 42 --seconds 35 --trace 0

One caller, one op at a time, no think time, in one measuring process. The
inputs are generated from ``--seed`` in a separate process first (gen.py),
so generation warms nothing in the measuring process (worker.py).

Workloads (why each was chosen is in BENCHMARK.json):

* ``quadric``   -- criteria 3 and 4: abelian planes in square(sl2),
  square(sl3) and transpose3 (quadric equivalence), and one op in four a
  Jacobian-versus-centralizer check on square(sl2)/square(sl3).
* ``limits``    -- criteria 5 and 6: (curve, plane) instances in
  square(sl2), square(sl3), transpose3 and square(sp4); each op builds the
  curve, computes the limit by both routes and the magnitude flag, runs the
  negative control on nontrivial flags, and every third op a rigidity check.
* ``structure`` -- cold construction: algebra, pair, restricted roots and
  singular kernels of one pair per op, from a fixed mix over sl2, sl3, sp4,
  g2 squares and transpose3/4, with the construction caches dropped first.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` the per-layer
ones (self time and calls per pass of the pool, counters, tracing overhead
and coverage). The last line of stdout is the JSON result; the lines before
it are the same figures for a reader. No layer has a queue: no op waits for
another, so there is no waiting time to report.

Correctness: every op checks its own result (see ops.py); later passes over
the pool must repeat the first pass op for op; and the digest of the first
pass's canonical outputs must match the one recorded for the seed in
digests.json, where there is one. A digest of the generated inputs is kept
beside it: the inputs are drawn through the package's own samplers, so a
change there would swap the workload under a before/after comparison. On a
recorded seed, inputs that changed fail the run as input drift; only
``record.py --force`` accepts new inputs. Exit code 0 when correct, 1 when
not, 2 when the package cannot be run at all (then nothing is printed on
stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, WORKLOADS, digest  # noqa: E402

# Least untraced passes per run, so that a run checks that a second pass
# repeats the outputs of the first.
MIN_PASSES = 2
SETUPS = 3  # set-ups per untraced run; setup_s is their median
TIMEOUT_S = 170
DIGESTS = os.path.join(HERE, "digests.json")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class RunFailed(Exception):
    """A benchmark process failed; the message is its diagnostics."""


def _python(script, args, stdin=None, deadline=None):
    # a fixed string-hash seed, so set and dict orders, and with them the
    # package's work on a given input, are the same in every run
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        input=stdin, capture_output=True, text=True, env=env, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RunFailed(f"{script} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def generate(workload, seed, deadline=None):
    return _python("gen.py", ["--workload", workload, "--seed", str(seed)], deadline=deadline)


def measure(inputs_text, seconds, trace, setup_only=False, min_passes=1, deadline=None):
    args = ["--seconds", str(seconds), "--trace", str(trace), "--min-passes", str(min_passes)]
    if setup_only:
        args.append("--setup-only")
    spawned = time.monotonic()
    out = _python("worker.py", ["--spawned-at", repr(spawned), *args],
                  stdin=inputs_text, deadline=deadline)
    return json.loads(out)


def load_records():
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check_digests(records, workload, seed, inputs_digest, output_digest):
    """(ok, status) of a run's digests against the record for its seed."""
    rec = records.get(workload, {}).get(str(seed))
    if rec is None:
        return True, "unrecorded seed"
    if rec["inputs"] != inputs_digest:
        return False, "input drift: the generated inputs differ from the recorded ones"
    if rec["outputs"] != output_digest:
        return False, "output digest mismatch"
    return True, "match"


def per_layer_metrics(res):
    import ops

    metrics = {}
    for key, value in res["layers"].items():
        metrics[key] = (value, "s" if key.endswith(".busy_s") else "count")
    for name in ops.COUNTERS:
        metrics[name] = (res["counters"].get(name, 0), "count")
    for name in ops.ERROR_CLASSES:
        metrics[f"errors.{name}"] = (res["errors"].get(name, 0), "count")
    metrics["trace.overhead_pct"] = (res["overhead_pct"], "%")
    metrics["trace.coverage_pct"] = (res["coverage_pct"], "%")
    metrics["trace.spans"] = (res["spans"], "count")
    return metrics


def run(workload, seed, seconds, trace, inputs_text=None, min_passes=MIN_PASSES, records=None):
    """Generate (unless ``inputs_text`` is given), measure and check one
    run against ``records`` (by default digests.json). Returns the result
    object and the report lines."""
    deadline = time.monotonic() + TIMEOUT_S
    if inputs_text is None:
        inputs_text = generate(workload, seed, deadline)
    inputs_digest = digest(json.loads(inputs_text))
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            setups.append(measure(inputs_text, 0, 0, setup_only=True, deadline=deadline)["setup_s"])
    res = measure(inputs_text, seconds, trace, min_passes=min_passes, deadline=deadline)
    setups.append(res["setup_s"])

    if records is None:
        records = load_records()
    ok, status = check_digests(records, workload, seed, inputs_digest, res["output_digest"])
    correct = ok and res["failed"] == 0
    lines = [
        f"{workload} seed={seed} trace={trace}: {res['attempted']} ops in {res['passes']} "
        f"passes over a pool of {res['pool']}, {res['failed']} failed "
        f"(failed_ratio={res['failed'] / res['attempted']:.4f}), digest {status}",
        f"  inputs {inputs_digest}",
        f"  outputs {res['output_digest']}",
    ]
    if res["first_error"]:
        lines.append(f"  first failure: {res['first_error']}")
    if trace:
        metrics = per_layer_metrics(res)
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {name: (res[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:48s} {value:14.6f} {unit}")
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
