"""serve-mix: the keep-alive HTTP service under a closed loop.

The server is ``python -m repro serve --demo --demo-chain --port 0``
with default settings (one process, inline validation, keep-alive on).
The client is one process with ``nproc`` threads, each on one plain
``http.client`` keep-alive connection with no socket options: every
thread sends its next request only after the previous response has been
read, as a pipeline consumer waiting for its verdict does.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import select
import subprocess
import sys
import threading
import time

import inputs
from measure import (HostSpeed, median, percentile, stop_process, tail,
                     vm_hwm_kb)

SERVE_ARGS = ["serve", "--demo", "--demo-chain", "--port", "0"]
SETUPS = 5          # server starts per run; setup_s is their median
WARMUP_S = 1.0      # requests before this are checked but not timed
REQUESTS = 4000     # generated requests, cycled through in order
HEADERS = {"Content-Type": "application/json"}
ROUTE_METRICS = {
    "/cast": "cast_p50_ms",
    "/validate": "validate_p50_ms",
    "/cast-with-mods": "mods_p50_ms",
    "/cast-chain": "chain_p50_ms",
}


def start_server(command, env, stderr_path):
    """Start a server; returns ``(process, port, seconds to ready)``,
    the last timed from launch to the ``ready:`` line."""
    started = time.perf_counter()
    stderr = open(stderr_path, "ab")
    try:
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=stderr, env=env,
            text=True,
        )
    finally:
        stderr.close()
    port = None
    deadline = started + 120.0
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or process.poll() is not None:
            stop_process(process, timeout=5.0)
            raise RuntimeError(f"server did not become ready; see {stderr_path}")
        readable, _, _ = select.select([process.stdout], [], [], remaining)
        if not readable:
            continue
        line = process.stdout.readline()
        if line.startswith("listening on http://"):
            port = int(line.rsplit(":", 1)[1])
        elif line.startswith("ready:") and port is not None:
            return process, port, time.perf_counter() - started


def stop_server(process) -> None:
    stop_process(process)
    process.stdout.close()


class ClosedLoop:
    """``clients`` threads, one keep-alive connection each."""

    def __init__(self, port: int, requests, clients: int):
        self.port = port
        self.requests = requests
        self.clients = clients
        self._rids = itertools.count()
        self._end = 0.0

    def _client(self, out: list) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=60)
        clock = time.perf_counter
        requests = self.requests
        while clock() < self._end:
            rid = next(self._rids)
            request = requests[rid % len(requests)]
            body = request.body(rid)
            sent = clock()
            try:
                connection.request("POST", request.route, body, HEADERS)
                response = connection.getresponse()
                data = response.read()
                done = clock()
                status = response.status
                verdict = json.loads(data).get("valid") if status == 200 else None
            except (OSError, http.client.HTTPException, ValueError):
                done = clock()
                status, verdict = -1, None
                connection.close()
            out.append((rid, sent, done, status, verdict))
        connection.close()

    def run(self, seconds: float) -> tuple[float, list]:
        """Warm up, then drive for ``seconds``; returns the measurement
        start and every record ``(rid, sent, done, status, verdict)``."""
        outs = [[] for _ in range(self.clients)]
        threads = [
            threading.Thread(target=self._client, args=(out,))
            for out in outs
        ]
        start = time.perf_counter()
        self._end = start + WARMUP_S + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return start + WARMUP_S, [r for out in outs for r in out]


def evaluate(requests, measure_from: float, records) -> dict:
    """Verdict check plus the end-to-end numbers of one phase."""
    wrong = [r for r in records if r[3] == 200
             and r[4] != requests[r[0] % len(requests)].valid]
    measured = [r for r in records if r[1] >= measure_from]
    ok = [r for r in measured if r[3] == 200]
    wall = max(r[2] for r in measured) - measure_from
    latency = [(r[2] - r[1]) * 1000.0 for r in ok]
    tail_label, tail_value = tail(latency)
    result = {
        "wrong": len(wrong),
        "problems": [f"wrong verdict on rid {r[0]} "
                     f"({requests[r[0] % len(requests)].route})"
                     for r in wrong[:10]],
        "attempted": len(measured),
        "failed": len(measured) - len(ok),
        "ops_per_s": len(ok) / wall,
        "mb_per_s": sum(requests[r[0] % len(requests)].size for r in ok)
        / wall / 1e6,
        "latency_p50_ms": median(latency),
        "latency_p99_ms": percentile(latency, 99.0),
        "latency_tail": f"{tail_label}={tail_value:.3f} ms (n={len(latency)})",
        "latency_by_rid": {r[0]: (r[2] - r[1]) * 1000.0 for r in ok},
    }
    for route, name in ROUTE_METRICS.items():
        route_latency = [
            (r[2] - r[1]) * 1000.0 for r in ok
            if requests[r[0] % len(requests)].route == route
        ]
        result[name] = median(route_latency)
        result[name + "_n"] = len(route_latency)
    return result


def _phase(command, env, work, requests, seconds, clients, setups):
    """Start the server ``setups`` times (timing each, scaled to host
    speed: start-up is CPU-bound), drive the last one, stop it; returns
    (scaled setup seconds, evaluation, peak RSS MB, reference ms)."""
    setup_times = []
    speed = HostSpeed()
    for attempt in range(setups):
        process, port, seconds_to_ready = start_server(
            command, env, os.path.join(work, "server.stderr")
        )
        if attempt < setups - 1:
            stop_server(process)
        setup_times.append(speed.scale(seconds_to_ready))
    try:
        measure_from, records = ClosedLoop(port, requests, clients).run(seconds)
        peak_mb = vm_hwm_kb(process.pid) / 1024.0
    finally:
        stop_server(process)
    return (setup_times, evaluate(requests, measure_from, records), peak_mb,
            speed.references)


def run(seed: int, seconds: float, trace: bool, env: dict, work: str) -> dict:
    clients = len(os.sched_getaffinity(0))
    requests, used = inputs.serve_requests(seed, REQUESTS)
    plain = [sys.executable, "-m", "repro", *SERVE_ARGS]
    phase_seconds = seconds / 2 if trace else seconds
    setup_times, result, peak_mb, references = _phase(
        plain, env, work, requests, phase_seconds, clients, SETUPS
    )
    result["reference_ms"] = references
    out = {
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_mb,
        "clients": clients,
        "untraced": result,
        "inputs": _properties(requests, used),
    }
    if trace:
        span_dir = os.path.join(work, "spans")
        os.makedirs(span_dir, exist_ok=True)
        launcher = os.path.join(os.path.dirname(__file__), "launch.py")
        traced = [sys.executable, launcher, span_dir, *SERVE_ARGS]
        _, out["traced"], _, _ = _phase(
            traced, env, work, requests, phase_seconds, clients, 1
        )
        out["span_dir"] = span_dir
    return out


def _properties(requests, used) -> dict:
    from repro.schema.registry import SchemaPair
    from repro.schema.xsd import parse_xsd

    pair = SchemaPair(parse_xsd(inputs.SCHEMAS["exp2-source"]),
                      parse_xsd(inputs.SCHEMAS["exp2-target"]))
    distinct = {}
    for order, data in used:
        distinct.setdefault(id(order), (order, data, order.valid_under(100)))
    # Document properties are over the distinct pooled documents.
    props = inputs.properties(pair, list(distinct.values()))
    props["requests_generated"] = len(requests)
    props["request_invalid_share"] = round(
        sum(1 for r in requests if not r.valid) / len(requests), 4
    )
    props["route_shares"] = {
        route: round(sum(1 for r in requests if r.route == route)
                     / len(requests), 4)
        for route, _, _ in inputs.MIX
    }
    return props
