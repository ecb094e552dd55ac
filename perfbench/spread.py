"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workloads serve-fft,mc-sobel --seeds 1-10

Runs each workload once per seed (untraced, ``run_seconds`` from
``BENCHMARK.json``) and prints, per metric, the median and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound.  A benchmark is steady when every spread, that of
``setup_s`` included, is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import common


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(common.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in _seeds(args.seeds):
            result, proc = common.run_workload(workload, seed, spec["run_seconds"])
            if proc.returncode != 0 or result is None:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            runs[workload].append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{'workload':<14}{'metric':<18}{'median':>12}{'spread':>9}{'bound':>7}  steady")
    for workload, results in runs.items():
        if len(results) < 2:
            continue
        for entry in spec["end_to_end"]:
            values = [r["metrics"][entry["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            steady = spread < entry["bound"] / 3
            ok &= spread <= entry["bound"]
            print(f"{workload:<14}{entry['name']:<18}{q2:>12.6g}{spread:>9.4f}"
                  f"{entry['bound']:>7.2f}  {'yes' if steady else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
