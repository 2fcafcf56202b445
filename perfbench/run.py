"""The repository's benchmark: keep-alive gateway traffic, one command.

Run from the repository root::

    python3 perfbench/run.py --workload wide-cold --seed 1 --seconds 50 --trace 0

The gateway runs in its own process (``server.py``); this process
generates the workload from ``--seed``, drives the gateway over
persistent HTTP/1.1 connections, checks every answer (``checks.py``)
and prints every metric by name with its unit.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  A full
record of the run, with the CPU count, the Python version and the seed,
is written to ``perfbench/results/``.

``--trace 0`` starts the gateway ``SETUPS`` times and reports the
median set-up time; the last process serves the measured phase.
``--trace 1`` sends the same requests twice, each time to a fresh
gateway for half of ``--seconds``: untraced, then traced.  The traced
half gives the per-layer numbers; the ratio of the two latency medians
gives the tracing overhead.

See ``README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from loadgen import Connection, closed_loop
from spans import ROOT_SPAN, layer_summary, percentile, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Gateway processes started per untraced run; set-up time is their median.
SETUPS = 5
#: Requests sent before the measured phase (not measured).
WARMUP = 20
#: Seconds a gateway may take from spawn to ready.
READY_TIMEOUT_S = 120.0
#: Requests at the start of the measured phase that ``answers_digest``
#: covers; every workload completes more than this in any run.
DIGEST_PREFIX = 150
#: A run is invalid when the generator's own lateness exceeds this at p99.
LAG_LIMIT_MS = 10.0
#: Largest gap allowed between a request's root span and the sum of its
#: spans' self times (the two agree up to float rounding).
SUM_TOLERANCE_MS = 0.001
#: Statuses that are answers: a translation, or a rejection of input the
#: system cannot translate (adversarial fuzz cases produce these).
ANSWER_STATUSES = (200, 400, 422)


class GatewayProcess:
    """One gateway server process, from spawn to ready to shutdown."""

    def __init__(self, config: dict, work_dir: Path, trace_out: Path | None):
        work_dir.mkdir(parents=True, exist_ok=True)
        config_path = work_dir / "gateway.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        command = [sys.executable, str(HERE / "server.py"),
                   "--config", str(config_path)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.log_path = work_dir / "server.log"
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.DEVNULL,
            )
        try:
            deadline = started + READY_TIMEOUT_S
            self.port = int(self._read_line(deadline))
            self._read_line(deadline)  # "started": the engines are built
            self._wait_ready(deadline)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_line(self, deadline: float) -> bytes:
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], max(0.0, deadline - time.perf_counter())
        )
        line = self.proc.stdout.readline() if ready else b""
        if not line.strip():
            raise RuntimeError(f"gateway did not start; see {self.log_path}")
        return line

    def _get(self, path: str) -> tuple[int, bytes]:
        # A fresh connection: control requests must not pay, or cause, a
        # keep-alive stall.
        conn = Connection(self.port)
        try:
            return conn.request("GET", path)
        finally:
            conn.close()

    def _wait_ready(self, deadline: float) -> None:
        """Probe ``GET /readyz`` until it answers 200."""
        while time.perf_counter() < deadline and self.proc.poll() is None:
            if self._get("/readyz")[0] == 200:
                return
            time.sleep(0.005)
        raise RuntimeError(f"gateway never became ready; see {self.log_path}")

    def stats(self) -> dict:
        status, body = self._get("/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB (10^6 bytes)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
        raise RuntimeError("no VmHWM in /proc status")

    def mark(self) -> None:
        """Tell a traced server the measured phase starts now."""
        self.proc.send_signal(signal.SIGUSR1)
        time.sleep(0.1)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ------------------------------------------------------------------ stats


def _tenant_counters(stats: dict) -> dict:
    """Per-tenant counters, cache tallies and QFG revision from /stats."""
    out = {}
    for tenant, snapshot in stats["tenants"].items():
        engine = snapshot["engine"]
        counters = dict(engine["metrics"]["counters"])
        for cache in engine["caches"]:
            counters[f"cache.{cache['name']}.hits"] = cache["hits"]
            counters[f"cache.{cache['name']}.misses"] = cache["misses"]
        counters["qfg_revision"] = engine["qfg"]["revision"]
        out[tenant] = counters
    return out


def stats_delta(before: dict, after: dict) -> dict:
    """Counter deltas over the measured phase, summed over tenants."""
    start, end = _tenant_counters(before), _tenant_counters(after)
    delta: dict = {}
    for tenant, counters in end.items():
        for name, value in counters.items():
            previous = start[tenant].get(name, 0)
            delta[name] = delta.get(name, 0) + value - previous
    return delta


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def serve_phase(workload, requests, config, work_dir, seconds,
                *, setups=1, trace_out=None):
    """Start the gateway (``setups`` times), warm it, measure one phase."""
    setup_s = []
    for attempt in range(setups):
        directory = work_dir / f"gateway{attempt}"
        gateway = GatewayProcess(config(directory), directory, trace_out)
        setup_s.append(gateway.setup_s)
        if attempt < setups - 1:
            gateway.stop()
    payloads = [(request.tenant, request.payload) for request in requests]
    try:
        closed_loop(gateway.port, payloads[:WARMUP], workload.connections,
                    seconds)
        if trace_out is not None:
            gateway.mark()
        before = gateway.stats()
        phase = closed_loop(gateway.port, payloads[WARMUP:],
                            workload.connections, seconds)
        after = gateway.stats()
        rss_mb = gateway.peak_rss_mb()
    finally:
        gateway.stop()
    return phase, stats_delta(before, after), setup_s, rss_mb


# ----------------------------------------------------------------- metrics


def _answered(phase) -> list:
    return [o for o in phase.outcomes if o.status in ANSWER_STATUSES]


def end_to_end(workload, phase, judged, setup_s, rss_mb) -> dict:
    attempted = len(phase.outcomes)
    answered = _answered(phase)
    latencies = [o.latency_ms for o in answered]
    within = sum(1 for value in latencies if value <= workload.slo_limit_ms)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "latency_p50_ms": (percentile(latencies, 0.50), "ms"),
        "latency_p99_ms": (percentile(latencies, 0.99), "ms"),
        "throughput_rps": (len(answered) / phase.wall_s, "req/s"),
        "slo_attainment": (within / attempted, "fraction"),
        "error_rate": ((attempted - len(answered)) / attempted, "fraction"),
        "top1_accuracy": (
            _ratio(judged["gold_right"], judged["gold_checked"]), "fraction"
        ),
        "rss_peak_mb": (rss_mb, "MB"),
    }


def per_layer(phase, judged, delta, spans, extras, untraced_p50) -> dict:
    mark = extras["mark"]
    # Requests whose root span started after the mark: warm-up excluded.
    roots = {
        span[2] for span in spans if not span[1] and span[4] >= mark["time"]
    }
    summary = layer_summary([s for s in spans if s[2] in roots], ROOT_SPAN)
    layers = summary["layers"]

    def layer(name, field):
        return layers.get(name, {}).get(field, 0)

    def noted(name):
        return [value for request_id, value in extras["noted"].get(name, ())
                if request_id in roots]

    pairs = [(o, p) for o, p in zip(phase.outcomes, judged["payloads"]) if p]
    service = [p["timings_ms"]["total"] for _, p in pairs]
    wire = [o.latency_ms - p["timings_ms"]["total"] for o, p in pairs]
    parse = [p["timings_ms"]["parse"] for _, p in pairs]
    configs = noted("core.keyword_mapper.configs")
    paths = noted("core.join_inference.paths")
    edge_evals = (extras["counters"]["schema_graph.edge_weight_evals"]
                  - mark["counters"]["schema_graph.edge_weight_evals"])
    refused = sum(1 for o in phase.outcomes if o.status in (429, 503))
    traced_p50 = percentile([o.latency_ms for o in _answered(phase)], 0.50)
    join_ms = (layer("core.join_inference", "self_ms_total")
               + layer("schema_graph.steiner", "self_ms_total"))

    def hit_ratio(cache):
        hits = delta[f"cache.{cache}.hits"]
        return _ratio(hits, hits + delta[f"cache.{cache}.misses"])

    durable = delta.get("durable_cache_hits", 0)
    ms, count, fraction = "ms", "count", "fraction"
    return {
        "gateway.wire_queue_ms.p50": (percentile(wire, 0.50), ms),
        "gateway.wire_queue_ms.p99": (percentile(wire, 0.99), ms),
        "gateway.refused": (refused, count),
        "gateway.translate.self_ms.p50": (
            layer(ROOT_SPAN, "self_ms_p50"), ms),
        "gateway.translate.self_ms.p99": (
            layer(ROOT_SPAN, "self_ms_p99"), ms),
        "serving.service_ms.p50": (percentile(service, 0.50), ms),
        "serving.service_ms.p99": (percentile(service, 0.99), ms),
        "serving.translate.self_ms.p50": (
            layer("serving.translate", "self_ms_p50"), ms),
        "serving.cache.translate.hit_ratio": (hit_ratio("translate"), fraction),
        "serving.cache.keyword_mapping.hit_ratio": (
            hit_ratio("keyword_mapping"), fraction),
        "serving.cache.join_paths.hit_ratio": (
            hit_ratio("join_paths"), fraction),
        "controlplane.durable_hit_ratio": (
            _ratio(durable, durable + delta.get("durable_cache_misses", 0)),
            fraction),
        "controlplane.idempotent_replays": (
            delta.get("idempotent_replays", 0), count),
        "controlplane.admit.calls": (layer("controlplane.admit", "calls"), count),
        "controlplane.admit.self_ms.p50": (
            layer("controlplane.admit", "self_ms_p50"), ms),
        "controlplane.finish.self_ms.p50": (
            layer("controlplane.finish", "self_ms_p50"), ms),
        "nlidb.parse.calls": (layer("nlidb.parse", "calls"), count),
        "nlidb.parse.self_ms.p50": (layer("nlidb.parse", "self_ms_p50"), ms),
        "nlidb.parse.self_ms.p99": (layer("nlidb.parse", "self_ms_p99"), ms),
        "nlidb.parse.payload_ms.p50": (percentile(parse, 0.50), ms),
        "core.keyword_mapper.calls": (
            layer("core.keyword_mapper", "calls"), count),
        "core.keyword_mapper.self_ms.p50": (
            layer("core.keyword_mapper", "self_ms_p50"), ms),
        "core.keyword_mapper.self_ms.p99": (
            layer("core.keyword_mapper", "self_ms_p99"), ms),
        "core.keyword_mapper.configs_per_call": (
            _ratio(sum(configs), len(configs)), count),
        "core.keyword_mapper.truncated": (
            sum(1 for _, p in pairs
                if p["provenance"].get("configurations_truncated")), count),
        "core.join_inference.calls": (
            layer("core.join_inference", "calls"), count),
        "core.join_inference.self_ms.p50": (
            layer("core.join_inference", "self_ms_p50"), ms),
        "core.join_inference.self_ms.p99": (
            layer("core.join_inference", "self_ms_p99"), ms),
        "core.join_inference.paths_used_ratio": (
            _ratio(sum(u for u, _ in paths), sum(n for _, n in paths)),
            fraction),
        "core.join_inference.service_share": (
            _ratio(join_ms, sum(service)), fraction),
        "schema_graph.steiner.solves": (
            layer("schema_graph.steiner", "calls"), count),
        "schema_graph.steiner.self_ms.p50": (
            layer("schema_graph.steiner", "self_ms_p50"), ms),
        "schema_graph.steiner.self_ms.p99": (
            layer("schema_graph.steiner", "self_ms_p99"), ms),
        "schema_graph.edge_weight_evals": (edge_evals, count),
        "nlidb.sql_builder.calls": (layer("nlidb.sql_builder", "calls"), count),
        "nlidb.sql_builder.self_ms.p50": (
            layer("nlidb.sql_builder", "self_ms_p50"), ms),
        "core.qfg.absorb.calls": (layer("core.qfg.absorb", "calls"), count),
        "core.qfg.absorb.self_ms.total": (
            layer("core.qfg.absorb", "self_ms_total"), ms),
        "core.qfg.absorb.absorbed": (
            delta.get("observed_absorbed", 0), count),
        "core.qfg.revisions": (delta["qfg_revision"], count),
        "obs.journal.calls": (layer("obs.journal", "calls"), count),
        "obs.journal.self_ms.p50": (layer("obs.journal", "self_ms_p50"), ms),
        "loadgen.lag_ms.p99": (
            percentile([o.lag_ms for o in phase.outcomes], 0.99), ms),
        "trace.overhead_frac": (
            _ratio(traced_p50, untraced_p50) - 1.0, fraction),
        "trace.requests": (summary["requests"], count),
        "trace.sum_error_ms_max": (summary["sum_error_ms_max"], ms),
    }


# -------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "gateway").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checks import check_answers
    from repro.datasets import load_dataset
    from workloads import BUILDERS, WORKLOADS, gateway_config

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    count = WARMUP + round(workload.max_rps * args.seconds)
    requests = BUILDERS[workload.name](args.seed, count)
    catalogs = {name: load_dataset(name).database.catalog
                for name in workload.tenants}

    work_dir = HERE / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"

    def config(directory):
        return gateway_config(workload, directory)

    try:
        if args.trace == 0:
            phase, delta, setup_s, rss_mb = serve_phase(
                workload, requests, config, work_dir, args.seconds,
                setups=SETUPS,
            )
        else:
            half = args.seconds / 2.0
            plain, _, _, _ = serve_phase(
                workload, requests, config, work_dir / "plain", half
            )
            trace_out = work_dir / "spans.jsonl"
            phase, delta, _, _ = serve_phase(
                workload, requests, config, work_dir / "traced", half,
                trace_out=trace_out,
            )
            spans, extras = read_spans(trace_out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    judged = check_answers(requests[WARMUP:], phase.outcomes,
                           catalogs, DIGEST_PREFIX)
    if args.trace == 0:
        metrics = end_to_end(workload, phase, judged, setup_s, rss_mb)
        sum_ok = True
    else:
        untraced_p50 = percentile(
            [o.latency_ms for o in _answered(plain)], 0.50)
        metrics = per_layer(phase, judged, delta, spans, extras, untraced_p50)
        sum_ok = metrics["trace.sum_error_ms_max"][0] <= SUM_TOLERANCE_MS

    attempted = len(phase.outcomes)
    failed = attempted - len(_answered(phase))
    lag_p99 = percentile([o.lag_ms for o in phase.outcomes], 0.99)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "valid": lag_p99 <= LAG_LIMIT_MS,
        "generator_lag_ms_p99": lag_p99,
        "answers_digest": judged["answers_digest"],
        "digested": judged["digested"],
        "gold_checked": judged["gold_checked"],
        "problems": judged["problems"][:20],
        "correct": not judged["problems"] and sum_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    for key in ("workload", "seed", "seconds", "trace", "cpus", "python",
                "valid", "generator_lag_ms_p99", "answers_digest",
                "digested", "gold_checked", "attempted", "failed", "correct"):
        print(f"{key}: {record[key]}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    if not record["valid"]:
        print(f"INVALID: the load generator ran {lag_p99:.3f} ms late at "
              f"p99 (limit {LAG_LIMIT_MS} ms); the figures do not measure "
              f"the gateway")
    for metric, (value, unit) in metrics.items():
        print(f"metric {metric} = {value} {unit}")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = benchmark["end_to_end" if args.trace == 0 else "per_layer"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {entry["name"]: record["metrics"][entry["name"]]
                    for entry in listed},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
