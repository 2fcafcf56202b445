"""Compare two sets of benchmark results, workload by workload.

Usage::

    python3 perfbench/compare.py BASE_DIR_OR_FILES... -- CHANGE_DIR_OR_FILES...

Each side is any mix of result records written by ``run.py`` (files, or
directories of them).  For every workload and metric the two sides'
medians and quartiles are printed with the change's median relative to
the base's.  Records taken with different CPU counts are refused: a
concurrency effect seen on two CPUs says nothing about one, so such a
comparison exits with status 2.  Runs the load generator marked invalid
are refused the same way.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(paths: list[str]) -> list[dict]:
    records = []
    for name in paths:
        path = Path(name)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        records += [json.loads(file.read_text()) for file in files]
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base, change = load(argv[:split]), load(argv[split + 1:])
    if not base or not change:
        print("both sides need at least one result record", file=sys.stderr)
        return 2
    cpus = {record["cpus"] for record in base + change}
    if len(cpus) != 1:
        print(f"refusing to compare results taken with different CPU "
              f"counts: {sorted(cpus)}", file=sys.stderr)
        return 2
    invalid = [f"{r['workload']} seed {r['seed']}" for r in base + change
               if not r["valid"]]
    if invalid:
        print(f"refusing invalid runs (load generator fell behind): "
              f"{', '.join(invalid)}", file=sys.stderr)
        return 2
    pythons = sorted({record["python"] for record in base + change})
    print(f"cpus {cpus.pop()}; python {', '.join(pythons)}")
    keys = sorted({(r["workload"], r["trace"]) for r in base + change})
    for workload, trace in keys:
        old = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        new = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        if not old or not new:
            continue
        print(f"\n{workload} (trace {trace}): {len(old)} base runs, "
              f"{len(new)} change runs")
        for metric, entry in old[0]["metrics"].items():
            a = quartiles([r["metrics"][metric]["value"] for r in old])
            b = quartiles([r["metrics"][metric]["value"] for r in new])
            delta = f"{b[1] / a[1] - 1:+.1%}" if a[1] else "n/a"
            print(f"  {metric:44s} {a[1]:12.4f} [{a[0]:.4g}, {a[2]:.4g}] -> "
                  f"{b[1]:12.4f} [{b[0]:.4g}, {b[2]:.4g}] {delta} "
                  f"{entry['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
