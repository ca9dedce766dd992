"""Record the input and output digests of seeds in digests.json.

    python3 perfbench/record.py --workload limits --seeds 1-10 42

One untimed pass over each seed's pool. An existing record for a seed is
replaced only with ``--force``; without it a record that disagrees stops
the script, since that is the regression the digests exist to catch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import WORKLOADS, digest  # noqa: E402
from run import DIGESTS, generate, load_records, measure  # noqa: E402


def _seeds(specs):
    out = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 1-10")
    parser.add_argument("--force", action="store_true", help="replace disagreeing records")
    args = parser.parse_args(argv)

    records = load_records()
    status = 0
    for workload in args.workload:
        for seed in _seeds(args.seeds):
            inputs_text = generate(workload, seed)
            res = measure(inputs_text, 0, 0, min_passes=1)
            if res["failed"]:
                print(f"{workload} {seed}: {res['failed']} ops failed: {res['first_error']}")
                status = 1
                continue
            new = {"inputs": digest(json.loads(inputs_text)), "outputs": res["output_digest"]}
            old = records.setdefault(workload, {}).get(str(seed))
            if old not in (None, new) and not args.force:
                print(f"{workload} {seed}: disagrees with the record {old}, kept it")
                status = 1
                continue
            records[workload][str(seed)] = new
            print(f"{workload} {seed}: {new['outputs'][:16]}", flush=True)
            with open(DIGESTS, "w") as fh:
                json.dump(records, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
