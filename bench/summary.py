"""Run the benchmark over several seeds and summarise every metric.

Usage, from the root of a checkout:

    python3 bench/summary.py [--workloads a,b] [--seeds 10] [--trace 0|1]
                             [--seconds S] [--save FILE] [--against FILE]

For each workload it runs bench/run.py once per seed (0..N-1, one after
another, for the run length in BENCHMARK.json) and prints, per metric,
the median, the quartiles and their distance as a share of the median
next to the metric's bound, plus ``failed_frac`` (failed over attempted
tests). ``--save`` keeps the raw results as JSON lines; ``--against``
compares these medians with a saved set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(workload: str, results: list[dict], bounds: dict,
              baseline: "list[dict] | None") -> None:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    print(f"\n{workload}: {len(results)} runs, correct={correct}, "
          f"failed_frac={failed / attempted:.6f} ({failed}/{attempted})")
    print(f"  {'metric':40} {'unit':6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}"
          + (f" {'vs saved':>9}" if baseline else ""))
    for name in results[0]["metrics"]:
        unit = results[0]["metrics"][name]["unit"]
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        line = (f"  {name:40} {unit:6} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                f"{spread:7.3f} {bound if bound is not None else '':>6}")
        if baseline:
            old = [r["metrics"][name]["value"] for r in baseline
                   if name in r["metrics"]]
            old_median = statistics.median(old) if old else 0
            if old_median:
                line += f" {median / old_median - 1:+9.3f}"
        if bound is not None and spread > bound / 3:
            line += "  <-- spread above a third of the bound"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved: dict[str, list] = {}
    if args.against:
        for line in Path(args.against).read_text().splitlines():
            entry = json.loads(line)
            saved.setdefault(entry["workload"], []).append(entry["result"])
    out = open(args.save, "a", encoding="utf-8") if args.save else None
    try:
        for workload in args.workloads.split(","):
            results = []
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                result = run_once(workload, seed,
                                  args.seconds or spec["run_seconds"],
                                  args.trace)
                results.append(result)
                if out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "result": result}) + "\n")
                    out.flush()
            summarise(workload, results, bounds, saved.get(workload))
    finally:
        if out:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
