"""Record interleaved parent/change runs of the benchmark as a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --out BENCH_7.json \\
        --note "what the change does" --seed 42

Both sides are exported from git into fresh directories (``git archive``
of ``--parent`` and of HEAD), so each side runs its own committed files,
``perfbench/`` included, and nothing of the working tree. An exported
tree, unlike a ``git worktree``, leaves nothing registered in the
repository when a run is interrupted.

For every workload in ``--workloads`` it runs 10 pairs of
``perfbench/run.py --trace 0``, one run per side, the side that runs first
alternating from pair to pair; every run is as long as BENCHMARK.json's
``run_seconds``. For every workload in ``--traced`` it then runs 2
interleaved pairs with ``--trace 1``. The file is
rewritten after each workload, so an interrupted recording keeps what it
finished; ``--append`` adds to a file of the same two commits, say a second
seed.

End to end, each metric of BENCHMARK.json gets per side the runs, their
median and quartiles (``statistics.quantiles(n=4, method='inclusive')``),
and across sides the ratio of the medians, the number of pairs the change
won, and whether the medians differ by more than the parent's IQR. Per
layer, each ``<layer>.busy_s`` gets the median over the traced runs of each
side; ``<layer>.calls`` and the counters keep every run's value, so that a
change of work shows as a change of count. Layers that no run calls are
left out.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # the pairs a claimed gain is judged on
TRACED_PAIRS = 2


def export(rev, dest):
    """The committed tree of ``rev`` in ``dest``; returns its full sha."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_once(tree, workload, seed, seconds, trace):
    """One run of the tree's own perfbench/run.py: (result or None, digest
    status, exit code)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"  {tree}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None, "no result", proc.returncode
    match = re.search(r"digest (.*)$", lines[0])
    return json.loads(lines[-1]), match.group(1) if match else "unknown", proc.returncode


def interleaved(trees, workload, seed, seconds, trace, pairs):
    """``pairs`` pairs of runs; per side the list of results."""
    out = {"parent": [], "change": []}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(trees[side], workload, seed, seconds, trace)
            out[side].append(res)
            value = res[0] and res[0]["metrics"].get("ops_per_s", {}).get("value")
            print(f"  {workload} trace={trace} pair {k + 1}/{pairs} {side}: "
                  f"exit {res[2]}, digest {res[1]}, ops_per_s {value}", file=sys.stderr)
    return out


def summary(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}


def end_to_end(workload, seed, seconds, results, metrics):
    ok = {side: [r for r, _, _ in results[side] if r is not None] for side in results}
    entry = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "all_correct": all(
            r is not None and r["correct"] for side in results for r, _, _ in results[side]
        ),
        "digests": sorted({status for side in results for _, status, _ in results[side]}),
        "failed_ops": {side: sum(r["failed"] for r in ok[side]) for side in ok},
        "metrics": {},
    }
    if any(len(ok[side]) < PAIRS for side in ok):
        return entry  # a run gave no result: no statistics over unequal sides
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        runs = {side: [r["metrics"][name]["value"] for r in ok[side]] for side in ok}
        parent, change = summary(runs["parent"]), summary(runs["change"])
        wins = sum(
            (c > p) if better == "higher" else (c < p)
            for p, c in zip(runs["parent"], runs["change"])
        )
        entry["metrics"][name] = {
            "better": better,
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"],
            "change_better_pairs": wins,
            "median_difference_exceeds_parent_iqr":
                abs(change["median"] - parent["median"]) > parent["iqr"],
        }
    return entry


def per_layer(workload, seed, seconds, results):
    ok = {side: [r for r, _, _ in results[side] if r is not None] for side in results}
    names = sorted({name for side in ok for r in ok[side] for name in r["metrics"]})
    # layers the workload never calls, on either side, are left out
    idle = {
        name[: -len(".calls")] for name in names if name.endswith(".calls")
        and not any(r["metrics"][name]["value"] for side in ok for r in ok[side])
    }
    names = [name for name in names if name.rsplit(".", 1)[0] not in idle]
    entry = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "runs_per_side": {side: len(ok[side]) for side in ok},
        "busy_s": {},
        "calls": {},
        "counters": {},
        "all_correct": all(
            r is not None and r["correct"] for side in results for r, _, _ in results[side]
        ),
    }
    for name in names:
        values = {
            side: [r["metrics"].get(name, {}).get("value", 0) for r in ok[side]] for side in ok
        }
        if name.endswith(".busy_s"):
            med = {side: statistics.median(v) for side, v in values.items() if v}
            if len(med) == 2:
                med["parent_over_change"] = (
                    med["parent"] / med["change"] if med["change"] else None
                )
            entry["busy_s"][name[: -len(".busy_s")]] = med
        elif name.endswith(".calls"):
            entry["calls"][name[: -len(".calls")]] = values
        elif not name.startswith("trace."):
            entry["counters"][name] = values
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--note", required=True, help="one line on what the change does")
    parser.add_argument("--workloads", nargs="+", default=["structure", "quadric", "limits"])
    parser.add_argument("--traced", nargs="*", default=["structure"],
                        help="workloads that also get traced runs")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--append", action="store_true",
                        help="add the runs to --out, which must record the same two commits")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        shas = {side: export(rev, trees[side])
                for side, rev in (("parent", args.parent), ("change", "HEAD"))}
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        metrics, seconds = bench["end_to_end"], bench["run_seconds"]
        record = {
            "change": args.note,
            "parent_commit": shas["parent"],
            "change_commit": shas["change"],
            "benchmark": "python3 perfbench/run.py --workload W --seed S --seconds "
                         f"{seconds:g} --trace T, each tree's own perfbench/",
            "machine": f"Python {platform.python_version()} on {platform.system()}, "
                       f"{os.cpu_count()} cores",
            "method": "interleaved pairs, the side that runs first alternating; quartiles by "
                      "statistics.quantiles(n=4, method='inclusive'); per-layer busy_s is self "
                      "time per pass of the pool, the median over the traced runs of each side",
            "end_to_end": [],
            "per_layer": [],
        }
        if args.append:
            with open(args.out) as fh:
                old = json.load(fh)
            if (old["parent_commit"], old["change_commit"]) != (shas["parent"], shas["change"]):
                print(f"bench_pairs: {args.out} records other commits", file=sys.stderr)
                return 2
            record["end_to_end"], record["per_layer"] = old["end_to_end"], old["per_layer"]

        def write():
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")

        for workload in args.workloads:
            results = interleaved(trees, workload, args.seed, seconds, 0, PAIRS)
            record["end_to_end"].append(end_to_end(workload, args.seed, seconds, results, metrics))
            write()
        for workload in args.traced:
            results = interleaved(trees, workload, args.seed, seconds, 1, TRACED_PAIRS)
            record["per_layer"].append(per_layer(workload, args.seed, seconds, results))
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
