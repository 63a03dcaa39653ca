"""Record the report digests that the benchmark's output checks compare against.

    python3 perfbench/record_reference.py --seeds 0-99

For every workload and seed it writes the scenarios, runs each once with every
output check except the digest (``verify_invariants`` included), and stores
the digest of each report's pinned keys (``checks.report_digest``) in
``reference.json``.  Re-record only in a change meant to alter reports; a
change that claims a host-time gain must leave the file as it is.
"""

from __future__ import annotations

import argparse
import json
import logging
import shutil
import sys

from run import REFERENCE, WORK, Bench
from workloads import WORKLOADS


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="LO-HI")
    args = parser.parse_args()
    logging.getLogger("streamring").addHandler(logging.NullHandler())
    work = WORK / "record"
    reference: dict[str, dict[str, list[str]]] = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in args.seeds:
            bench = Bench(workload, seed, None, work=work, setup_reps=1)
            bench.checked_pass()
            shutil.rmtree(work)
            if bench.failed:
                print("\n".join(bench.failures), file=sys.stderr)
                return 1
            reference[workload][str(seed)] = bench.digests
        print(f"{workload}: {len(args.seeds)} seeds", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
