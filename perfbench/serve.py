"""The ``serve-fft`` workload: open-loop HTTP load on a separate server process.

Set-up trains the Table-1 ``fft`` MEI, saves and loads its serving
artifact and starts ``python -m repro serve --artifact ...`` with the
default ``REPRO_SERVE_*`` policy.  This process is the only client.
It sends seeded payloads (one sample each, sixteen in every tenth
request) in two fixed-rate phases; the traced run then climbs a rate
ladder to find the highest rate the server sustains.  Every response is
compared exactly against the in-process ``system.predict`` of its
payload.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional

import numpy as np

import common
import loadgen
import tracing

LOW_RATE = 50.0
HIGH_RATE = 300.0
"""Requests per second of the two fixed phases; ``high`` is about 60% of
the two-connection ceiling measured on a 2-core host."""

LOW_SHARE, HIGH_SHARE, RUNG_SHARE = 0.6, 0.4, 0.04
"""Shares of ``--seconds`` spent in each fixed-rate phase and (traced run
only) in each ladder rung."""

LADDER_STEP = 1.2
LADDER_RUNGS = 6
BISECTIONS = 2
LATENCY_LIMIT_MS = 50.0
"""A request slower than this (from its due time) fails; a ladder rung
whose p95 exceeds it is past the sustainable rate."""

PAYLOADS = 1024
WARMUP_REQUESTS = 40
MAX_SENDERS = 2


def senders() -> int:
    """Sender threads (one connection each): at most ``nproc``."""
    return max(1, min(MAX_SENDERS, len(os.sched_getaffinity(0))))


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _get(port: int, path: str, timeout: float = 10.0) -> bytes:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=timeout) as fh:
        return fh.read()


def scrape(port: int) -> Dict[str, float]:
    """Unlabelled samples of the server's OpenMetrics exposition."""
    values = {}
    for line in _get(port, "/metrics").decode().splitlines():
        if line.startswith("#") or "{" in line:
            continue
        name, _, value = line.rpartition(" ")
        if name:
            values[name] = float(value)
    return values


class Server:
    """One server process; ``stop`` interrupts it and waits for it to end."""

    def __init__(self, argv: List[str], log_path) -> None:
        self.port = _free_port()
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(common.SRC)
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, *argv, "--port", str(self.port)],
            cwd=common.ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )

    def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                self._log.flush()
                tail = pathlib.Path(self._log.name).read_text(errors="replace")[-2000:]
                raise RuntimeError(f"server exited with code {self.proc.returncode}:\n{tail}")
            try:
                if json.loads(_get(self.port, "/healthz", 1.0)).get("status") == "ok":
                    return
            except OSError:
                time.sleep(0.02)
        raise RuntimeError("server did not become ready")

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def reset_peak_rss(self) -> float:
        return common.reset_peak_rss(self.proc.pid)

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server process has used."""
        return common.process_cpu_seconds(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _payloads(seed: int):
    """Seeded payloads from the ``fft`` input domain, with their truths."""
    from repro.workloads.registry import make_benchmark

    bench = make_benchmark("fft")
    sizes = [16 if j % 10 == 9 else 1 for j in range(PAYLOADS)]
    data = bench.dataset(n_train=1, n_test=sum(sizes), seed=common.derive_seed(seed, 1))
    bounds = np.cumsum([0] + sizes)
    xs = [data.x_test[bounds[j]:bounds[j + 1]] for j in range(PAYLOADS)]
    ys = [data.y_test[bounds[j]:bounds[j + 1]] for j in range(PAYLOADS)]
    return bench, xs, ys


class Client:
    """Seeded open-loop traffic against one server, every response checked."""

    def __init__(self, seed: int, system) -> None:
        self.seed = seed
        self.bench, self.xs, self.ys = _payloads(seed)
        self.expected = [system.predict(x) for x in self.xs]
        self.requests = [
            loadgen.request_bytes(json.dumps({"inputs": x.tolist()}).encode())
            for x in self.xs
        ]
        self.senders = senders()
        self.sent = 0
        self.phases: List[loadgen.Phase] = []

    def phase(self, name: str, port: int, rate: float, seconds: float) -> loadgen.Phase:
        rng = np.random.default_rng(common.derive_seed(self.seed, 4, len(self.phases)))
        offsets = loadgen.schedule(rate, seconds, rng)
        ids = (self.sent + np.arange(len(offsets))) % PAYLOADS
        self.sent += len(offsets)
        result = loadgen.run_phase(name, port, rate, offsets, ids, self.requests,
                                   self.senders)
        self.phases.append(result)
        return result

    def warm_up(self, port: int) -> None:
        self.phase("warmup", port, 100.0, WARMUP_REQUESTS / 100.0)

    def wrong(self, phase: loadgen.Phase) -> np.ndarray:
        """Per request: non-200, unreadable or not equal to the in-process answer."""
        bad = np.zeros(len(phase.bodies), dtype=bool)
        for i, (status, body) in enumerate(zip(phase.status, phase.bodies)):
            if status != 200 or body is None:
                bad[i] = True
                continue
            try:
                outputs = np.asarray(json.loads(body)["outputs"], dtype=float)
            except (ValueError, KeyError):
                bad[i] = True
                continue
            bad[i] = not np.array_equal(outputs, self.expected[phase.payload_ids[i]])
        return bad

    def served_error(self, phases: List[loadgen.Phase]) -> float:
        """Normalized error of the served answers against ground truth."""
        ids = np.concatenate([p.payload_ids for p in phases])
        predicted = np.concatenate([self.expected[j] for j in ids])
        truth = np.concatenate([self.ys[j] for j in ids])
        return float(self.bench.error_normalized(predicted, truth))

    def ladder(self, port: int, seconds: float) -> Dict[str, object]:
        """Highest rate whose p95 meets the limit and whose lateness does not grow.

        Climbs by ``LADDER_STEP`` from the high phase's rate, then bisects
        (geometrically) between the last rung that held and the first
        that did not.  ``max_rps`` is the throughput achieved on the
        highest rung that held.
        """
        rung_seconds = RUNG_SHARE * seconds
        high = self.phases[-1]

        def holds(phase: loadgen.Phase) -> bool:
            return (phase.keeps_up()
                    and np.percentile(phase.latency_ms, 95) <= LATENCY_LIMIT_MS
                    and not self.wrong(phase).any())

        best, best_rate, failed_rate = high, high.rate, None
        rate = high.rate
        for _ in range(LADDER_RUNGS):
            rate *= LADDER_STEP
            rung = self.phase(f"ladder-{rate:.0f}", port, rate, rung_seconds)
            if not holds(rung):
                failed_rate = rate
                break
            best, best_rate = rung, rate
        if failed_rate is not None:
            for _ in range(BISECTIONS):
                rate = float(np.sqrt(best_rate * failed_rate))
                rung = self.phase(f"ladder-{rate:.0f}", port, rate, rung_seconds)
                if holds(rung):
                    best, best_rate = rung, rate
                else:
                    failed_rate = rate
        return {"max_rps": best.throughput(), "held_rate": best_rate,
                "first_failed_rate": failed_rate}


def _setup(work, servers: List[Server]) -> tuple:
    """Train, save, load and start a server, ``SETUP_REPEATS`` times.

    Each server is appended to ``servers`` as soon as it starts, so the
    caller stops it whatever happens.  Like the other stages, making the
    server ready is timed in CPU seconds: the server process's own, up
    to its first healthy ``/healthz`` answer.
    """
    setups = []
    for k in range(common.SETUP_REPEATS):
        if servers:
            servers[-1].stop()
        path = work / f"fft-{k}.npz"
        model, _, stages = common.train_save_load("fft", path)
        servers.append(Server(["-m", "repro", "serve", "--artifact", str(path)],
                              work / f"server-{k}.log"))
        servers[-1].wait_ready()
        stages["setup.server_ready_s"] = servers[-1].cpu_seconds()
        setups.append(dict(stages, setup_s=sum(stages.values())))
    return servers[-1], model, path, setups


def _serve_ledger(client: Client, phases: List[loadgen.Phase], spans_file,
                  ) -> Dict[str, object]:
    """Per-request time budget of the traced phases, across both processes.

    Client spans: due -> send (``loadgen.late``) and send -> response.
    Server spans: submit -> completion per request, and each batch's
    ``InferenceEngine.predict`` with the model layers under it.  A
    request is charged its own batch's engine and layer time (the
    latest batch to finish before the request completed).  The service
    self time is the client span minus the server span, the batcher
    self time is the server span minus the batch's engine span.
    """
    dump = json.loads(spans_file.read_text())
    spans = tracing.spans_from_rows(dump["spans"])
    lo = min(p.due.min() for p in phases)
    hi = max(p.done.max() for p in phases)
    served = [(submit, done) for submit, done in dump["requests"] if lo <= submit <= hi]
    batches = sorted((s for s in spans if s.layer == "serve.engine.predict"
                      and s.parent is None), key=lambda s: s.end)
    ends = np.array([b.end for b in batches])
    weight: Dict[object, float] = {}
    engine_s = 0.0
    for _submit, done in served:
        b = batches[int(np.searchsorted(ends, done, side="right")) - 1]
        weight[b.unit] = weight.get(b.unit, 0.0) + 1.0
        engine_s += b.end - b.start
    selfs = tracing.self_by_layer(spans, weight)
    server_s = sum(done - submit for submit, done in served)
    late_s = sum(float((p.send - p.due).sum()) for p in phases)
    client_s = sum(float((p.done - p.send).sum()) for p in phases)
    selfs["loadgen.late"] = late_s
    selfs["serve.service.http"] = client_s - server_s
    selfs["serve.batcher.wait"] = server_s - engine_s
    e2e_s = sum(float((p.done - p.due).sum()) for p in phases)
    budget = tracing.ledger(selfs, e2e_s)
    budget["requests"] = sum(len(p.due) for p in phases)
    budget["server_requests"] = len(served)
    # The residual is 0 by construction here; what can fail is matching
    # every client request to one the server recorded.
    budget["checks"]["every_request_matched"] = len(served) == budget["requests"]
    budget["ok"] = all(budget["checks"].values())
    budget["batches"] = len(weight)
    budget["forward_outermost_s"] = tracing.outermost_seconds(
        [s for s in spans if s.unit in weight], "core.deploy.forward")
    return budget


def _traced_phases(client: Client, server: Server, model, path, work,
                   servers: List[Server], seconds: float, before_all) -> tuple:
    """The traced run: per-layer metrics of the ``low`` and ``high`` phases.

    The ``low`` phase runs once against the plain server as the untraced
    reference for the tracing overhead, then the server is restarted
    with the span wrappers installed and both phases run against it.
    """
    reference = client.phase("low-untraced", server.port, LOW_RATE, LOW_SHARE * seconds)
    server.stop()
    spans_file = work / "spans.json"
    server = Server([str(pathlib.Path(__file__).with_name("traced_server.py")),
                     str(spans_file), "serve", "--artifact", str(path)],
                    work / "server-traced.log")
    servers.append(server)
    server.wait_ready()
    client.warm_up(server.port)
    setup_peak = server.reset_peak_rss()
    before = scrape(server.port)
    low = client.phase("low", server.port, LOW_RATE, LOW_SHARE * seconds)
    high = client.phase("high", server.port, HIGH_RATE, HIGH_SHARE * seconds)
    after = scrape(server.port)
    rss = common.rss_report(setup_peak, server.peak_rss_mb())
    ladder = client.ladder(server.port, seconds)
    server.stop()

    budget = _serve_ledger(client, [low, high], spans_file)
    budget["server_forward_hist_s"] = common.delta(
        after, before, "repro_forward_latency_seconds_sum")
    n = budget["requests"]
    per = {k: 1e3 * v / n for k, v in budget["self_s"].items()}
    samples = sum(len(client.xs[j]) for p in (low, high) for j in p.payload_ids)

    def served(family: str) -> float:
        return common.delta(after, before, f"repro_{family}_total")

    layer = tracing.self_time_metrics(per)
    layer.update({
        "serve.batcher.requests_per_batch": common.share(
            served("serve_requests"), served("serve_batches")),
        "serve.batcher.retries": served("serve_retries"),
        "serve.batcher.restarts": served("serve_worker_restarts"),
        "serve.batcher.shed": served("serve_shed"),
        "serve.batcher.deadline_misses": served("serve_deadline_misses"),
        "core.deploy.forward_ms": 1e3 * budget["forward_outermost_s"] / n,
        "core.deploy.macs_ratio": common.share(
            served("crossbar_macs"), model.system.analog.device_count * samples),
        "loadgen.late_p95_ms": max(float(np.percentile(p.late_ms, 95)) for p in (low, high)),
        "loadgen.late_max_ms": max(float(p.late_ms.max()) for p in (low, high)),
        "loadgen.low_p95_ms": float(np.percentile(low.latency_ms, 95)),
        "loadgen.high_p50_ms": float(np.percentile(high.latency_ms, 50)),
        "loadgen.high_p95_ms": float(np.percentile(high.latency_ms, 95)),
        "loadgen.max_rps": ladder["max_rps"],
        "ledger.e2e_ms": 1e3 * budget["e2e_s"] / n,
        "ledger.residual_ms": 1e3 * budget["residual_s"] / n,
        "ledger.residual_share": budget["residual_share"],
        "ledger.trace_overhead_ms": float(low.latency_ms.mean()
                                          - reference.latency_ms.mean()),
    })
    # Mapping-cache lookups happen at deploy time: in this process's
    # set-ups and in the server's artifact load (its counters start at 0).
    local = common.counters()
    hits = (common.delta(local, before_all, "mapping_cache_hits")
            + after.get("repro_mapping_cache_hits_total", 0.0))
    misses = (common.delta(local, before_all, "mapping_cache_misses")
              + after.get("repro_mapping_cache_misses_total", 0.0))
    layer["xbar.mapping.cache_hit_share"] = common.share(hits, hits + misses)
    budget["max_rps"] = ladder
    return low, high, rss, layer, budget


def run(seed: int, seconds: float, trace: bool) -> dict:
    work = common.work_dir("serve-fft")
    servers: List[Server] = []
    try:
        before_all = common.counters()
        server, model, path, setups = _setup(work, servers)
        client = Client(seed, model.system)
        client.warm_up(server.port)
        layer: Dict[str, float] = {}
        budget: Optional[Dict[str, object]] = None
        capacity = server_cpu = None
        if trace:
            low, high, rss, layer, budget = _traced_phases(
                client, server, model, path, work, servers, seconds, before_all)
            layer.update(common.setup_layers(setups))
        else:
            setup_peak = server.reset_peak_rss()
            cpu = [server.cpu_seconds()]
            low = client.phase("low", server.port, LOW_RATE, LOW_SHARE * seconds)
            cpu.append(server.cpu_seconds())
            high = client.phase("high", server.port, HIGH_RATE, HIGH_SHARE * seconds)
            cpu.append(server.cpu_seconds())
            capacity = (len(low.due) + len(high.due)) / (cpu[2] - cpu[0])
            server_cpu = {"low": cpu[1] - cpu[0], "high": cpu[2] - cpu[1]}
            rss = common.rss_report(setup_peak, server.peak_rss_mb())

        # Failures: non-200, transport errors, wrong answers anywhere, and
        # requests over the latency limit in the fixed-rate phases.
        failed = attempted = wrong_answers = 0
        for phase in client.phases:
            bad = client.wrong(phase)
            wrong_answers += int(bad.sum())
            if phase in (low, high):
                bad |= phase.latency_ms > LATENCY_LIMIT_MS
            attempted += len(bad)
            failed += int(bad.sum())
        e2e = {
            "setup_s": (common.median([s["setup_s"] for s in setups]), "s"),
            "ok_share": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (rss["work_peak_mb"], "MiB"),
            "mean_error": (client.served_error([low, high]), "ratio"),
            "p50_ms": (float(np.percentile(low.latency_ms, 50)), "ms"),
        }
        if capacity is not None:
            e2e["throughput_per_s"] = (capacity, "1/s")
        report = {
            "workload": "serve-fft", "seed": seed, "senders": client.senders,
            "connections": client.senders, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "latency_limit_ms": LATENCY_LIMIT_MS, "setups": setups,
            "phases": [dict(p.summary(), name=p.name) for p in client.phases],
            "wrong_answers": wrong_answers, "ledger": budget, "server_rss": rss,
            "server_cpu_s": server_cpu,
        }
        return {"correct": wrong_answers == 0 and (budget is None or budget["ok"]),
                "attempted": attempted, "failed": failed,
                "e2e": e2e, "layer": layer, "report": report}
    finally:
        for server in servers:
            server.stop()
        common.cleanup(work)
