"""Benchmark of gridtwin: the paper protocol and online state estimation.

    python3 perfbench/run.py --workload {protocol,estimate} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src. With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see perfbench/README.md). The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

# One thread of work: BLAS threads on 42-state matrices only add noise, and
# on a two-core host they compete with the work. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _load_program():
    if not (SRC / "gridtwin" / "__init__.py").is_file():
        sys.exit(f"benchmark: no gridtwin package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("protocol", "estimate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    import layers
    import workloads

    workloads.OUT.mkdir(parents=True, exist_ok=True)

    run = workloads.RUNS[(args.workload, args.trace)]
    metrics, notes, attempted, failed, problems, correct = run(args.seed, args.seconds)
    if args.trace:
        table = layers.PER_LAYER
    else:
        metrics["peak_rss_mb"] = _peak_rss_mb()
        table = layers.END_TO_END
    for note in notes:
        print(f"# {note}")
    for problem in problems[:20]:
        print(f"# FAILED: {problem}")
    report = {}
    for name, unit, _ in table:
        value = metrics[name]
        print(f"{name:40s} {value:>16.6f} {unit}")
        report[name] = {"value": value, "unit": unit}
    print(f"# attempted {attempted}, failed {failed}, correct {correct}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
