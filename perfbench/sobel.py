"""The two ``sobel`` workloads: a Monte-Carlo read sweep and a fault write sweep.

Both train the Table-1 pruned MEI for ``sobel``, save it as a serving
artifact and load it back, so the chip they measure is the one the
serving path would run.  ``mc-sobel`` only reads the crossbars;
``faults-sobel`` writes conductances (fault injection, spare-column
repair, restore) between reads.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

import common
import tracing

NOISE_POINTS = tuple((kind, sigma) for kind in ("pv", "sf") for sigma in (0.05, 0.1, 0.2))
"""Fig. 5's axes: process variation and signal fluctuation at three sigmas."""

MC_TRIALS = 100
SAF_RATES = (0.01, 0.05, 0.1)
MAPS_PER_RATE = 100
SPARE_COLUMNS = 4
REFERENCE_TRIALS = 4


def _setup(work):
    """Train, save and load the chip ``SETUP_REPEATS`` times; keep the last.

    Returns the loaded system, the benchmark, the training run's
    400-sample test split and each set-up's stage seconds.
    """
    from repro.workloads.registry import make_benchmark

    setups = []
    for k in range(common.SETUP_REPEATS):
        model, data, stages = common.train_save_load("sobel", work / f"sobel-{k}.npz")
        setups.append(dict(stages, **{"setup.server_ready_s": 0.0,
                                      "setup_s": sum(stages.values())}))
    return model.system, make_benchmark("sobel"), data.x_test, data.y_test, setups


def _noises(seed: int):
    from repro.device.variation import NonIdealFactors

    out = []
    for i, (kind, sigma) in enumerate(NOISE_POINTS):
        noise_seed = common.derive_seed(seed, 2, i)
        if kind == "pv":
            out.append(NonIdealFactors(sigma_pv=sigma, seed=noise_seed))
        else:
            out.append(NonIdealFactors(sigma_sf=sigma, seed=noise_seed))
    return out


def _fault_models(seed: int):
    """Defect maps in groups of three, one per SAF rate (a latency unit)."""
    from repro.device.faults import FaultModel

    return [
        FaultModel(stuck_on_rate=rate / 2, stuck_off_rate=rate / 2,
                   seed=common.derive_seed(seed, 3, r, j))
        for j in range(MAPS_PER_RATE) for r, rate in enumerate(SAF_RATES)
    ]


def _timed_passes(tracer, trace: bool, seconds: float, units: int, run_unit, check):
    """Run units ``0..units-1`` in passes until ``seconds`` are spent (at least 3).

    With ``trace`` every second pass is traced and the others are the
    untraced reference.  A unit fails when ``check`` rejects its result
    or the result differs from the first pass's: each unit is
    deterministic, so every pass must repeat the first exactly.
    Returns the ``(pass, unit, seconds, traced)`` rows, the first pass's
    results and the failure count.
    """
    rows, reference, failed = [], None, 0
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < 3 or time.perf_counter() < deadline:
        traced = trace and passes % 2 == 1
        results = []
        for i in range(units):
            tracer.unit, tracer.enabled = (passes, i), traced
            t0 = time.perf_counter()
            result = run_unit(i)
            dt = time.perf_counter() - t0
            tracer.enabled = False
            failed += int(not check(result) or (
                reference is not None
                and not np.array_equal(np.asarray(result), np.asarray(reference[i]))))
            rows.append((passes, i, dt, traced))
            results.append(result)
        if reference is None:
            reference = results
        passes += 1
    return rows, reference, failed


def _e2e(setups, rows, failed: int, rows_per_unit: int, work_per_pass: float,
         mean_error: float, rss: Dict) -> Dict:
    """End-to-end metrics; a unit of work is ``rows_per_unit`` consecutive rows."""
    unit_ms = [1e3 * sum(dt for _, _, dt, _ in rows[k:k + rows_per_unit])
               for k in range(0, len(rows), rows_per_unit)]
    passes = sorted({p for p, _, _, _ in rows})
    rates = [work_per_pass / sum(dt for q, _, dt, _ in rows if q == p) for p in passes]
    return {
        "setup_s": (common.median([s["setup_s"] for s in setups]), "s"),
        "ok_share": (1.0 - failed / len(rows), "ratio"),
        "peak_rss_mb": (rss["work_peak_mb"], "MiB"),
        "mean_error": (mean_error, "ratio"),
        "p50_ms": (common.percentile(unit_ms, 50), "ms"),
        "throughput_per_s": (common.median(rates), "1/s"),
    }


def _layer_metrics(spans, rows, rows_per_unit: int) -> Tuple[Dict[str, float], Dict]:
    """Per-unit self times (ms) of the traced units, their ledger and overhead.

    The tracing overhead pairs each row's median traced time with its
    median untraced time, so rows of different cost do not bias it.
    """
    traced = [r for r in rows if r[3]]
    units = len(traced) / rows_per_unit
    e2e_s = sum(dt for _, _, dt, _ in traced)
    selfs = tracing.self_by_layer(spans)
    budget = tracing.ledger(selfs, e2e_s)
    per = {layer: 1e3 * s / units for layer, s in selfs.items()}
    ids = sorted({i for _, i, _, _ in rows})
    overhead = rows_per_unit * np.mean([
        common.median([dt for _, j, dt, t in rows if j == i and t])
        - common.median([dt for _, j, dt, t in rows if j == i and not t])
        for i in ids
    ])
    metrics = tracing.self_time_metrics(per)
    metrics.update({
        "core.deploy.forward_ms": 1e3 * tracing.outermost_seconds(
            spans, "core.deploy.forward") / units,
        "ledger.e2e_ms": 1e3 * e2e_s / units,
        "ledger.residual_ms": 1e3 * budget["residual_s"] / units,
        "ledger.residual_share": budget["residual_share"],
        "ledger.trace_overhead_ms": 1e3 * float(overhead),
    })
    return metrics, budget


def _common_layers(setups, before, after) -> Dict[str, float]:
    layer = common.setup_layers(setups)
    hits = common.delta(after, before, "mapping_cache_hits")
    layer["xbar.mapping.cache_hit_share"] = common.share(
        hits, hits + common.delta(after, before, "mapping_cache_misses"))
    return layer


def run_mc(seed: int, seconds: float, trace: bool) -> dict:
    """Fig. 5-style sweep: {PV, SF} x 3 sigmas, 100 trials on 400 samples."""
    from repro.metrics import robustness

    tracer = tracing.Tracer()
    if trace:
        tracing.install_model_wraps(tracer)
        tracer.wrap(robustness, "evaluate_under_noise", "metrics.robustness.eval")
    work = common.work_dir("mc-sobel")
    try:
        before_all = common.counters()
        chip, bench, x, y, setups = _setup(work)
        noises = _noises(seed)
        metric = bench.error_normalized

        # Outside the timed region: the vectorized stack equals the serial
        # reference loop on a few trials, for one PV and one SF point.
        mismatches = 0
        for noise in (noises[0], noises[3]):
            fast = robustness.evaluate_under_noise(chip, x, y, metric, noise,
                                                   trials=REFERENCE_TRIALS)
            slow = robustness.evaluate_under_noise(chip, x, y, metric, noise,
                                                   trials=REFERENCE_TRIALS, vectorize=False)
            mismatches += int(not np.array_equal(fast.values, slow.values))
        robustness.evaluate_under_noise(chip, x, y, metric, noises[0], trials=MC_TRIALS)

        setup_peak = common.reset_peak_rss()
        macs_before = common.counters()
        rows, reference, failed = _timed_passes(
            tracer, trace, seconds, len(noises),
            lambda i: robustness.evaluate_under_noise(
                chip, x, y, metric, noises[i], trials=MC_TRIALS).values,
            lambda values: bool(np.all(np.isfinite(values))))
        rss = common.rss_report(setup_peak, common.peak_rss_mb())
        spans = tracer.take()
        after = common.counters()

        e2e = _e2e(setups, rows, failed, len(noises), len(noises) * len(x) * MC_TRIALS,
                   float(np.mean([values.mean() for values in reference])), rss)
        layer: Dict[str, float] = {}
        budget = None
        if trace:
            layer, budget = _layer_metrics(spans, rows, len(noises))
            layer["core.deploy.macs_ratio"] = common.share(
                common.delta(after, macs_before, "crossbar_macs"),
                chip.analog.device_count * len(rows) * len(x) * MC_TRIALS)
        layer.update(_common_layers(setups, before_all, after))
        report = {
            "workload": "mc-sobel", "seed": seed, "sweeps": rows[-1][0] + 1,
            "sweep_points": len(rows),
            "reference_mismatches": mismatches, "setups": setups, "rss": rss,
            "ledger": budget, "noise_points": [list(p) for p in NOISE_POINTS],
            "trials": MC_TRIALS, "test_samples": len(x),
        }
        return {"correct": mismatches == 0 and failed == 0 and
                (budget is None or budget["ok"]),
                "attempted": len(rows), "failed": failed,
                "e2e": e2e, "layer": layer, "report": report}
    finally:
        common.cleanup(work)


def run_faults(seed: int, seconds: float, trace: bool) -> dict:
    """Per defect map: inject -> predict -> repair -> predict -> restore."""
    from repro.device import faults

    tracer = tracing.Tracer()
    if trace:
        tracing.install_model_wraps(tracer)
        tracer.wrap(faults, "inject_faults_analog_report", "device.faults.inject")
    work = common.work_dir("faults-sobel")
    try:
        before_all = common.counters()
        chip, bench, x, y, setups = _setup(work)
        models = _fault_models(seed)
        metric = bench.error_normalized
        analog = chip.analog
        clean = chip.predict(x)
        pristine = analog.conductance_snapshot()

        def cycle(model) -> Tuple[float, float, int, int]:
            report = faults.inject_faults_analog_report(analog, model)
            faulty = metric(chip.predict(x), y)
            repairs = analog.repair_with_spares(report.defect_maps, pristine, SPARE_COLUMNS)
            repaired = metric(chip.predict(x), y)
            analog.restore_conductances(pristine)
            return faulty, repaired, report.faulty_cells, sum(r.spares_used for r in repairs)

        def restored(_outcome) -> bool:
            return bool(np.array_equal(chip.predict(x), clean))

        cycle(models[0])
        setup_peak = common.reset_peak_rss()
        macs_before = common.counters()
        rows, reference, failed = _timed_passes(
            tracer, trace, seconds, len(models), lambda j: cycle(models[j]), restored)
        rss = common.rss_report(setup_peak, common.peak_rss_mb())
        spans = tracer.take()
        after = common.counters()

        e2e = _e2e(setups, rows, failed, len(SAF_RATES), len(models),
                   float(np.mean([outcome[:2] for outcome in reference])), rss)
        layer: Dict[str, float] = {}
        budget = None
        if trace:
            layer, budget = _layer_metrics(spans, rows, 1)
            # Every cycle predicts twice, and its check once more, on all samples.
            layer["core.deploy.macs_ratio"] = common.share(
                common.delta(after, macs_before, "crossbar_macs"),
                analog.device_count * 3 * len(rows) * len(x))
            layer["device.faults.faulty_cell_share"] = float(np.mean(
                [outcome[2] for outcome in reference])) / sum(g.size for g in pristine)
            layer["core.deploy.spares_used"] = float(np.mean(
                [outcome[3] for outcome in reference]))
        layer.update(_common_layers(setups, before_all, after))
        report = {
            "workload": "faults-sobel", "seed": seed, "passes": rows[-1][0] + 1,
            "defect_maps": len(rows), "saf_rates": list(SAF_RATES),
            "maps_per_rate": MAPS_PER_RATE, "spare_columns": SPARE_COLUMNS,
            "setups": setups, "rss": rss, "ledger": budget, "test_samples": len(x),
        }
        return {"correct": failed == 0 and (budget is None or budget["ok"]),
                "attempted": len(rows), "failed": failed,
                "e2e": e2e, "layer": layer, "report": report}
    finally:
        common.cleanup(work)
