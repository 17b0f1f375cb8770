"""How steady the benchmark is: run one workload under several seeds.

    python3 perfbench/steady.py --workload estimate

Runs perfbench/run.py once for each of the seeds 0-9, one run at a time, and
prints for each end-to-end metric the median, the quartiles and the spread
(Q3 - Q1) / median next to its bound from BENCHMARK.json, plus the failed share of each run.
The bounds in BENCHMARK.json were set from this output. Raw results go to
perfbench/out/steady_<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in range(RUNS):
        result = run_once(args.workload, seed, spec["run_seconds"])
        results.append(result)
        shares = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({shares:.6f})", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"steady_{args.workload}.json").write_text(json.dumps(results))

    print(f"{'metric':24s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}  within a third")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3, rel = spread(values)
        print(f"{name:24s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} {bound:6.3f}  "
              f"{'yes' if rel < bound / 3 else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
