"""Self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

For every workload, on a pool cut down to one op of each kind and pair:

* an untraced and a traced run print every metric BENCHMARK.json names,
  by name and with its unit, and nothing else, in the result object the
  benchmark contract asks for;
* the digest check passes on the true outputs, trips on a perturbed
  output, and fails changed inputs as input drift.

Finally, in a copy of the benchmark without the package source, run.py
must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, WORKLOADS, digest, import_reductions  # noqa: E402
from gen import first_of_each  # noqa: E402
from run import check_digests, generate, run  # noqa: E402

ROOT = os.path.dirname(HERE)
SEED = 42
failures = []


def expect(cond, message):
    if not cond:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def check_run(workload, trace, inputs, declared):
    # a cut-down pool is not the recorded seed's inputs: check it against no record
    result, lines = run(workload, SEED, 0, trace, inputs_text=json.dumps(inputs), min_passes=1,
                        records={})
    tag = f"{workload} trace={trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(result["correct"] and result["failed"] == 0, f"{tag}: run not correct: {lines[:3]}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{tag}: attempted")
    metrics = result["metrics"]
    expect(list(metrics) == [m["name"] for m in declared],
           f"{tag}: metric names differ from BENCHMARK.json")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        expect(got.get("unit") == m["unit"], f"{tag}: {m['name']} unit {got.get('unit')}")
        expect(isinstance(value, (int, float)) and not isinstance(value, bool)
               and math.isfinite(value), f"{tag}: {m['name']} value {value!r}")
        expect(printed.get(m["name"]) == m["unit"], f"{tag}: {m['name']} not printed with its unit")


def check_digest(workload, inputs):
    import ops
    from worker import run_pass

    work = ops.WORKLOADS[workload](inputs)
    [(_, results)] = run_pass(work, [lambda i, inst: work.op(inst, ops.plain_call, Counter())])
    outputs = [r for _, r, _ in results]
    d_in, d_out = digest(inputs), digest(outputs)
    records = {workload: {str(SEED): {"inputs": d_in, "outputs": d_out}}}
    expect(check_digests(records, workload, SEED, d_in, d_out) == (True, "match"),
           f"{workload}: true outputs do not match their record")
    perturbed = [outputs[0] + ["perturbed"]] + outputs[1:]
    ok, status = check_digests(records, workload, SEED, d_in, digest(perturbed))
    expect(not ok and "mismatch" in status, f"{workload}: a perturbed output passed the digest check")
    changed = dict(inputs, ops=inputs["ops"][1:])
    ok, status = check_digests(records, workload, SEED, digest(changed), digest(perturbed))
    expect(not ok and status.startswith("input drift"),
           f"{workload}: changed inputs did not fail the run as input drift")


def check_missing_source():
    """run.py in a directory with only BENCHMARK.json and perfbench/."""
    scratch = os.path.join(ROOT, ".perfbench_selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "quadric", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=170,
        )
        expect(proc.returncode != 0, "run.py without package source exited 0")
        expect(proc.stdout == "", "run.py without package source printed a result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    import_reductions()
    for workload in WORKLOADS:
        full = json.loads(generate(workload, SEED))
        inputs = dict(full, ops=first_of_each(full["ops"]))
        check_run(workload, 0, inputs, bench["end_to_end"])
        check_run(workload, 1, inputs, bench["per_layer"])
        check_digest(workload, inputs)
        print(f"{workload}: checked", flush=True)
    check_missing_source()
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
