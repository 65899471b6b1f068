"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --runs 10 [--workload chain-ref ...]

Runs `bench/run.py` once per seed (1..runs) for each workload, for the
run length in BENCHMARK.json, and prints, per metric, the median, the
quartiles and the quartile distance as a share of the median, the figure
that each metric's bound in BENCHMARK.json must exceed. Every result is
kept in bench/out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    ok = True
    with open(BENCH_DIR / "out" / "spread.jsonl", "a", encoding="utf-8") as log:
        for name in args.workload:
            results = []
            for seed in range(1, args.runs + 1):
                done = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=BENCH_DIR.parent, stdout=subprocess.PIPE, text=True, timeout=900)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
                results.append(result)
            shares = {r["failed"] / r["attempted"] for r in results}
            print(f"{name}: {args.runs} runs, failed shares {sorted(shares)}, "
                  f"all correct {all(r['correct'] for r in results)}")
            ok &= all(r["correct"] for r in results) and len(shares) == 1
            for metric, bound in bounds.items():
                values = [r["metrics"][metric]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                print(f"  {metric:<12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                      f"spread {spread:6.3f}  bound {bound}  spread/bound {spread / bound:5.2f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
