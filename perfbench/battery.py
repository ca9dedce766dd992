"""Opt-in profile of the acceptance battery: one pass of every criterion.

Runs ``reductions.acceptance.criterion_1`` .. ``criterion_10`` once, in the
order and with the settings of ``reductions verify --suite fast --seed 42``,
in one process, so later criteria reuse the pairs earlier ones built, as
they do in the verify command. For each criterion it records the wall time
and the worst status of its results, next to the Python version and the
core count. It is not a gated workload of the benchmark and takes minutes.

    python3 perfbench/battery.py [--seed 42] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import import_reductions  # noqa: E402


def _criteria(acceptance, seed):
    return [
        ("criterion_1_table", lambda: acceptance.criterion_1_table()),
        ("criterion_2_structure", lambda: acceptance.criterion_2_structure()),
        ("criterion_3_quadric", lambda: acceptance.criterion_3_quadric(seed)),
        ("criterion_4_jacobian", lambda: acceptance.criterion_4_jacobian(seed)),
        ("criterion_5_limits", lambda: acceptance.criterion_5_limits(seed, include_sp4=False)),
        ("criterion_6_rigidity", lambda: acceptance.criterion_6_rigidity(seed)),
        ("criterion_7_subvarieties", lambda: acceptance.criterion_7_subvarieties(seed)),
        ("criterion_8_families", lambda: acceptance.criterion_8_families(seed)),
        ("criterion_9_anisotropic", lambda: acceptance.criterion_9_anisotropic(seed)),
        ("criterion_10_evidence", lambda: acceptance.criterion_10_evidence(seed)),
    ]


def _worst(results):
    statuses = {r.status for r in results}
    for status in ("fail", "evidence", "pass"):
        if status in statuses:
            return status
    return "empty"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", help="also write the profile to this JSON file")
    args = parser.parse_args(argv)

    reductions = import_reductions()
    from reductions import acceptance

    rows = []
    total = time.perf_counter()
    for name, run in _criteria(acceptance, args.seed):
        start = time.perf_counter()
        try:
            status = _worst(run())
        except reductions.ReductionsError as exc:
            status = f"error: {type(exc).__name__}"
        wall = time.perf_counter() - start
        rows.append({"criterion": name, "wall_s": round(wall, 3), "status": status})
        print(f"{name:28s} {wall:8.1f} s  {status}", file=sys.stderr, flush=True)
    profile = {
        "suite": "fast",
        "seed": args.seed,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "total_s": round(time.perf_counter() - total, 3),
        "criteria": rows,
    }
    text = json.dumps(profile, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if all(r["status"] in ("pass", "evidence") for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
