"""Record the gate's output digests for seeds 0..N-1 of every workload.

Usage, from the root of a checkout whose outputs are known to be right:

    python3 bench/record_digests.py [--seeds 40] [--workloads a,b]

Runs one untraced sample per workload and seed, checks it against what
the generator planted, and writes bench/digests.json. Every later sample
of a recorded seed must reproduce these digests. For a seed not recorded,
the gate compares each sample with the first sample of the same run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS, Bench  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=40)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    path = BENCH / "digests.json"
    recorded: dict[str, dict[str, str]] = json.loads(path.read_text())
    for workload in args.workloads.split(","):
        recorded[workload] = {}
        for seed in range(args.seeds):
            bench = Bench(Path.cwd(), workload, seed, "full")
            bench.expected_digest = None
            try:
                sample = bench.sample(traced=False)
            finally:
                bench.close()
            if not sample.ok:
                raise SystemExit(f"{workload} seed {seed} fails its gate")
            recorded[workload][str(seed)] = bench.first_digest
            print(workload, seed, bench.first_digest, flush=True)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
