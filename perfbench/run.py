"""Benchmark entry point.

    python3 perfbench/run.py --workload serve-fft --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout.  One workload prints a detailed
JSON report, then, as its last line, ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  ``all``
runs every workload untraced, each in its own process, prints a table
of every end-to-end metric with its unit, and exits non-zero if any
correctness check failed.  ``--seconds`` defaults to ``run_seconds``
of ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common

WORKLOADS = ("serve-fft", "mc-sobel", "faults-sobel")


def _spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # every workload runs the default configuration
    sys.path.insert(0, str(common.SRC))
    if name == "serve-fft":
        import serve

        result = serve.run(seed, seconds, trace)
    elif name == "mc-sobel":
        import sobel

        result = sobel.run_mc(seed, seconds, trace)
    else:
        import sobel

        result = sobel.run_faults(seed, seconds, trace)

    spec = _spec()
    metrics = {}
    if trace:
        for entry in spec["per_layer"]:
            metrics[entry["name"]] = (result["layer"].get(entry["name"], 0.0), entry["unit"])
    else:
        for entry in spec["end_to_end"]:
            value, _unit = result["e2e"][entry["name"]]
            metrics[entry["name"]] = (value, entry["unit"])
    report = dict(result["report"], trace=trace, seconds=seconds,
                  layer=result["layer"], e2e={k: v[0] for k, v in result["e2e"].items()})
    common.emit(report, result["correct"], result["attempted"], result["failed"], metrics)
    return 0 if result["correct"] else 1


def _run_all(seed: int, seconds: float) -> int:
    spec = _spec()
    rows = []
    correct = True
    for name in WORKLOADS:
        result, proc = common.run_workload(name, seed, seconds)
        if proc.returncode != 0 or result is None:
            sys.stderr.write(proc.stderr)
            print(f"{name}: FAILED (exit {proc.returncode})")
            correct = False
            if result is None:
                continue
        correct &= bool(result["correct"]) and result["failed"] == 0
        rows.append((name, result))
    print(f"{'workload':<14}{'metric':<18}{'value':>14}  unit")
    for name, result in rows:
        for entry in spec["end_to_end"]:
            metric = result["metrics"][entry["name"]]
            print(f"{name:<14}{entry['name']:<18}{metric['value']:>14.6g}  {metric['unit']}")
        print(f"{name:<14}{'correct':<18}{str(result['correct']):>14}  "
              f"({result['failed']} of {result['attempted']} failed)")
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {common.SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(_spec()["run_seconds"])
    if args.workload == "all":
        return _run_all(args.seed, seconds)
    return _run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
