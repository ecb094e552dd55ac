"""Helpers shared by the workloads: seeds, statistics, counters, results."""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
"""Root of the checkout the benchmark runs in."""

SRC = ROOT / "src"

TRAIN_SEED = 0
"""Training seed of every workload's chip.

The trained chip is the program under test, so it is the same in every
run; the workload seed drives the inputs it is given (served payloads and
their arrival times, noise draws, defect maps).
"""

SETUP_REPEATS = 3
"""Set-ups per run; ``setup_s`` is their median."""

RUN_PY = ROOT / "perfbench" / "run.py"

HELD_BACK_SEED = 90210
"""Seed reserved for verifying a claimed gain; never used while tuning."""


def derive_seed(seed: int, *tags: int) -> int:
    """An independent 32-bit seed for one input stream of a workload."""
    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0])


def work_dir(workload: str) -> pathlib.Path:
    """A fresh scratch directory inside the checkout (removed by ``cleanup``)."""
    path = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def cleanup(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    status = pathlib.Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def reset_peak_rss(pid: Optional[int] = None) -> float:
    """Reset a process's ``VmHWM`` to its current RSS; returns the old peak (MiB).

    Called between set-up and the measured work, so ``peak_rss_mb``
    afterwards is the work's own peak, not training's.
    """
    before = peak_rss_mb(pid)
    pathlib.Path(f"/proc/{pid or 'self'}/clear_refs").write_text("5")
    return before


def rss_report(setup_peak: float, work_peak: float) -> Dict[str, object]:
    """Both phases' peaks and which one set the process's overall peak."""
    return {"setup_peak_mb": setup_peak, "work_peak_mb": work_peak,
            "overall_peak_set_by": "work" if work_peak >= setup_peak else "setup"}


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds another process has used (all its threads)."""
    fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    utime, stime = fields.split()[11:13]
    return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")


def counters() -> Dict[str, float]:
    """Snapshot of this process's ``repro.obs.metrics`` counters."""
    from repro.obs import metrics as obs_metrics

    return {k: float(v) for k, v in obs_metrics.snapshot()["counters"].items()}


def delta(after: Dict[str, float], before: Dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def train_save_load(benchmark: str, path: pathlib.Path) -> tuple:
    """Train the Table-1 MEI, save its serving artifact and load it back.

    Returns the loaded model, the training dataset and each stage's CPU
    seconds (all threads of this process).  Set-up is timed in CPU time
    because its wall time swings with what else runs on the host, far
    more than the bound of ``setup_s`` allows.
    """
    from repro.serve import artifact

    t0 = time.process_time()
    system, data = artifact.train_serve_system(benchmark, seed=TRAIN_SEED)
    t1 = time.process_time()
    artifact.save_artifact(system, path, benchmark=benchmark)
    t2 = time.process_time()
    model = artifact.load_artifact(path)
    t3 = time.process_time()
    return model, data, {"setup.train_s": t1 - t0, "serve.artifact.save_s": t2 - t1,
                         "serve.artifact.load_s": t3 - t2}


def setup_layers(setups: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each set-up stage (the per-layer ``setup.*`` metrics)."""
    return {key: median([s[key] for s in setups]) for key in setups[0] if key != "setup_s"}


def run_workload(name: str, seed: int, seconds: float
                 ) -> Tuple[Optional[dict], subprocess.CompletedProcess]:
    """Run one workload untraced in its own process.

    Returns its parsed result line (``None`` if it printed none) and the
    finished process.
    """
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return result, proc


def emit(report: Dict[str, object], correct: bool, attempted: int, failed: int,
         metrics: Dict[str, tuple]) -> None:
    """Print the detailed report, then the one-line result as the last line."""
    from repro.obs.runinfo import provenance_header

    report = {"provenance": provenance_header(), **report}
    print(json.dumps(report, sort_keys=True, default=float))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
