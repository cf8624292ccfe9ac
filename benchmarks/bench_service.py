"""Load-test harness for the validation HTTP service.

Boots :class:`~repro.service.server.ValidationService` in-process on an
ephemeral port with the paper's purchase-order pairs and drives it with
concurrent ``urllib`` clients through three phases:

1. **capacity** — clients matched to worker slots measure the service's
   sustainable throughput and p50/p99 latency with no shedding.
2. **overload** — 2× capacity clients hammer the same endpoint.  The
   gates are the admission-control contract: the service *must* shed
   (bounded queue, not unbounded latency), every shed response must be
   a 503/429 carrying ``Retry-After``, every request must be answered
   (no hangs, no bare 500s), and the p99 of *accepted* requests must
   stay within the per-pair deadline budget — overload degrades
   throughput, never accepted-request latency.
3. **drain** — SIGTERM semantics under load: ``begin_drain`` fires
   while clients are mid-flight; afterwards the admission counters must
   show every admitted request completed (zero accepted-but-unanswered)
   and the listener must have stopped within the grace window.
4. **scaling** — real ``repro serve`` subprocesses at 1 and N
   processes (SO_REUSEPORT pre-fork), driven by keep-alive clients over
   persistent connections.  Mid-run a hot pair is registered through
   ``POST /admin/pairs``, validated against, and retired — reload under
   live traffic is part of the measured workload.  The speedup gate
   (>= 2.5x at 4 processes) is enforced only when ``os.cpu_count()``
   can express it; every record is stamped with ``process_count`` so a
   throughput number can never be read without its topology.

Records land in ``BENCH_cast.json`` under ``service_load``,
``service_overload``, ``service_drain``, and ``service_scaling`` via
:func:`repro.bench.reporting.update_bench_json`.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]

``--quick`` shrinks request counts for CI.  Exit status 1 if any gate
fails.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

from repro.bench.reporting import update_bench_json
from repro.guards import DEFAULT_LIMITS
from repro.service.registry import ServiceRegistry, demo_specs
from repro.service.server import ServiceConfig, ValidationService
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.serializer import serialize

DEFAULT_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_cast.json"
)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DRAIN_LINE = re.compile(
    r"drained: admitted=(\d+) completed=(\d+) lost=(\d+) processes=(\d+)"
)

#: The per-pair wall-clock budget registered for the benchmark pairs —
#: the overload gate holds accepted-request p99 under this.
PAIR_DEADLINE_SECONDS = 2.0


class ClientStats:
    """Thread-safe tally of responses by outcome."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies_ok: list[float] = []
        self.shed = 0
        self.shed_with_retry_after = 0
        self.other: dict[int, int] = {}
        self.transport_errors = 0

    def record(self, status: int, latency: float,
               retry_after: bool) -> None:
        with self.lock:
            if status == 200:
                self.latencies_ok.append(latency)
            elif status in (429, 503):
                self.shed += 1
                if retry_after:
                    self.shed_with_retry_after += 1
            else:
                self.other[status] = self.other.get(status, 0) + 1

    def record_transport_error(self) -> None:
        with self.lock:
            self.transport_errors += 1

    @property
    def answered(self) -> int:
        return (
            len(self.latencies_ok)
            + self.shed
            + sum(self.other.values())
        )


def percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


def post(base: str, path: str, payload: dict, stats: ClientStats,
         timeout: float = 30.0) -> None:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    started = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            response.read()
            stats.record(
                response.status, time.perf_counter() - started, False
            )
    except urllib.error.HTTPError as error:
        error.read()
        stats.record(
            error.code,
            time.perf_counter() - started,
            error.headers.get("Retry-After") is not None,
        )
    except (urllib.error.URLError, OSError):
        stats.record_transport_error()


def run_clients(base: str, payload: dict, *, clients: int,
                requests_each: int) -> ClientStats:
    stats = ClientStats()

    def worker() -> None:
        for _ in range(requests_each):
            post(base, "/validate", payload, stats)

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return stats


def boot_service(
    max_concurrent: int, hold_seconds: float = 0.0
) -> tuple[ValidationService, str]:
    """Boot an in-process service on an ephemeral port.

    ``hold_seconds`` pins each admitted request for that long (a
    GIL-releasing sleep through the post-admission hook) — it stands in
    for the multi-core service time this single-GIL harness cannot
    generate with real validation work, and makes queue saturation at
    2x capacity deterministic.
    """
    limits = DEFAULT_LIMITS.with_overrides(
        deadline_seconds=PAIR_DEADLINE_SECONDS
    )
    registry = ServiceRegistry(demo_specs(limits=limits))
    # A queue the size of the worker pool and a wait budget of 0.25s:
    # at 2x capacity requests either overflow the queue or outwait the
    # budget, so shedding is observable from outside the process.
    config = ServiceConfig(
        max_concurrent=max_concurrent,
        max_queue=max_concurrent,
        queue_timeout=0.25,
        request_timeout=10.0,
        drain_grace=10.0,
    )
    hook = (
        (lambda route: time.sleep(hold_seconds)) if hold_seconds else None
    )
    service = ValidationService(registry, config, after_admit_hook=hook)
    host, port = service.start()
    if not service.wait_ready(60.0):
        raise RuntimeError(f"service failed to warm: {service.warm_error}")
    return service, f"http://{host}:{port}"


# -- multi-process scaling harness --------------------------------------------


def _serve_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src if not existing else src + os.pathsep + existing
    )
    return env


def boot_prefork(processes: int):
    """``repro serve --demo --processes N`` as a real subprocess.

    Returns ``(proc, host, port)`` once the ready line is out.
    """
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--demo", "--port", "0",
            "--processes", str(processes),
            "--drain-grace", "15",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_serve_env(),
        cwd=REPO_ROOT,
    )
    boot_line = proc.stdout.readline().strip()
    if not boot_line.startswith("listening on http://"):
        proc.kill()
        raise RuntimeError(f"bad boot line: {boot_line!r}")
    address = boot_line.rsplit("/", 1)[-1]
    host, _, port_text = address.partition(":")
    ready_line = proc.stdout.readline().strip()
    if not ready_line.startswith("ready: "):
        proc.kill()
        raise RuntimeError(f"bad ready line: {ready_line!r}")
    return proc, host, int(port_text)


def keepalive_worker(host: str, port: int, payload: dict,
                     requests_each: int, stats: ClientStats) -> None:
    """One client: a persistent connection reused across requests."""
    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        for _ in range(requests_each):
            started = time.perf_counter()
            try:
                conn.request("POST", "/validate", body, headers)
                response = conn.getresponse()
                response.read()
                stats.record(
                    response.status,
                    time.perf_counter() - started,
                    response.getheader("Retry-After") is not None,
                )
                if response.will_close:
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=30.0
                    )
            except (OSError, http.client.HTTPException):
                stats.record_transport_error()
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30.0)
    finally:
        conn.close()


def exercise_hot_reload(host: str, port: int,
                        failures: list) -> None:
    """Register, serve, and retire a hot pair while load is running."""
    base = f"http://{host}:{port}"
    reload_stats = ClientStats()
    note = "<!ELEMENT note (#PCDATA)>"
    body = {
        "name": "bench-hot-note",
        "source_text": note, "source_kind": "dtd",
        "target_text": note, "target_kind": "dtd",
    }
    request = urllib.request.Request(
        base + "/admin/pairs",
        data=json.dumps(body).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            response.read()
            if response.status != 201:
                failures.append(
                    f"scaling: hot register answered {response.status}"
                )
                return
    except (urllib.error.URLError, OSError) as error:
        failures.append(f"scaling: hot register failed: {error}")
        return

    # Every child must eventually serve the pair (journal propagation).
    probe = {"pair": "bench-hot-note", "xml": "<note>x</note>",
             "schema": "source"}
    deadline = time.monotonic() + 20.0
    streak = 0
    while streak < 10:
        post(base, "/validate", probe, reload_stats, timeout=10.0)
        if reload_stats.other.get(404):
            reload_stats.other.pop(404)
            streak = 0
            if time.monotonic() > deadline:
                failures.append(
                    "scaling: hot pair never propagated to every process"
                )
                return
            time.sleep(0.1)
        else:
            streak += 1

    request = urllib.request.Request(
        base + "/admin/pairs/bench-hot-note", method="DELETE"
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            response.read()
    except (urllib.error.URLError, OSError) as error:
        failures.append(f"scaling: hot retire failed: {error}")


def measure_prefork(processes: int, *, clients: int, requests_each: int,
                    payload: dict, failures: list,
                    hot_reload: bool = False) -> dict:
    """Throughput of one server topology under keep-alive load."""
    proc, host, port = boot_prefork(processes)
    stats = ClientStats()
    try:
        threads = [
            threading.Thread(
                target=keepalive_worker,
                args=(host, port, payload, requests_each, stats),
                daemon=True,
            )
            for _ in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        if hot_reload:
            exercise_hot_reload(host, port, failures)
        for thread in threads:
            thread.join(timeout=120.0)
        elapsed = time.perf_counter() - started
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            exit_code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            exit_code = proc.wait(timeout=10)
        stdout, stderr = proc.communicate(timeout=10)

    total = clients * requests_each
    ok = len(stats.latencies_ok)
    point = {
        "process_count": processes,
        "clients": clients,
        "requests": total,
        "ok": ok,
        "shed": stats.shed,
        "rps": round(ok / elapsed, 1) if elapsed > 0 else 0.0,
        "p50_ms": round(percentile(stats.latencies_ok, 0.50) * 1000, 3),
        "p99_ms": round(percentile(stats.latencies_ok, 0.99) * 1000, 3),
        "exit_code": exit_code,
    }
    if exit_code != 0:
        failures.append(
            f"scaling: {processes}-process server exited "
            f"{exit_code}: {stderr[-500:]}"
        )
    if stats.answered + stats.transport_errors != total:
        failures.append(
            f"scaling: {total - stats.answered - stats.transport_errors} "
            f"of {total} requests vanished at {processes} processes"
        )
    if processes > 1:
        match = DRAIN_LINE.search(stdout)
        if not match:
            failures.append(
                f"scaling: no drain summary from the {processes}-process "
                "server"
            )
        else:
            admitted, completed, lost, procs = map(int, match.groups())
            point["drained"] = {
                "admitted": admitted, "completed": completed,
                "lost": lost, "processes": procs,
            }
            if lost != 0 or admitted != completed:
                failures.append(
                    f"scaling: fleet drain lost {lost} requests "
                    f"(admitted={admitted} completed={completed})"
                )
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink request counts for a CI smoke run",
    )
    parser.add_argument("--json", default=DEFAULT_JSON)
    args = parser.parse_args(argv)

    max_concurrent = 4
    requests_each = 8 if args.quick else 25
    items = 30 if args.quick else 60

    payload = {
        "pair": "po-exp2",
        "xml": serialize(make_purchase_order(items)),
        "schema": "source",
    }
    failures: list[str] = []
    entries: dict[str, dict] = {}

    # -- phase 1: capacity ---------------------------------------------------
    service, base = boot_service(max_concurrent)
    started = time.perf_counter()
    load = run_clients(
        base, payload, clients=max_concurrent, requests_each=requests_each
    )
    elapsed = time.perf_counter() - started
    total = max_concurrent * requests_each
    entries["service_load"] = {
        "process_count": 1,
        "clients": max_concurrent,
        "requests": total,
        "ok": len(load.latencies_ok),
        "shed": load.shed,
        "p50_ms": round(percentile(load.latencies_ok, 0.50) * 1000, 3),
        "p99_ms": round(percentile(load.latencies_ok, 0.99) * 1000, 3),
        "rps": round(len(load.latencies_ok) / elapsed, 1)
        if elapsed > 0 else 0.0,
    }
    print(
        f"capacity: {len(load.latencies_ok)}/{total} ok, "
        f"p50 {entries['service_load']['p50_ms']}ms, "
        f"p99 {entries['service_load']['p99_ms']}ms"
    )
    if load.answered != total:
        failures.append(
            f"capacity: {total - load.answered} of {total} requests "
            "never answered"
        )
    if load.other:
        failures.append(f"capacity: unexpected statuses {load.other}")

    service.close()

    # -- phase 2: overload at 2x capacity ------------------------------------
    # A fresh service whose admitted requests are held for 50ms each
    # (see boot_service) — at 4x the worker count in clients, the
    # bounded queue must saturate and shed.
    service, base = boot_service(max_concurrent, hold_seconds=0.05)
    overload = run_clients(
        base, payload,
        clients=max_concurrent * 4,
        requests_each=requests_each,
    )
    total2 = (max_concurrent * 4) * requests_each
    p99_accepted = percentile(overload.latencies_ok, 0.99)
    entries["service_overload"] = {
        "process_count": 1,
        "clients": max_concurrent * 4,
        "requests": total2,
        "ok": len(overload.latencies_ok),
        "shed": overload.shed,
        "shed_with_retry_after": overload.shed_with_retry_after,
        "shed_rate": round(overload.shed / total2, 3),
        "p50_ms": round(
            percentile(overload.latencies_ok, 0.50) * 1000, 3
        ),
        "p99_accepted_ms": round(p99_accepted * 1000, 3),
        "deadline_budget_ms": PAIR_DEADLINE_SECONDS * 1000,
    }
    print(
        f"overload: {len(overload.latencies_ok)}/{total2} ok, "
        f"{overload.shed} shed "
        f"({entries['service_overload']['shed_rate']:.0%}), "
        f"accepted p99 {entries['service_overload']['p99_accepted_ms']}ms"
    )
    if overload.answered != total2:
        failures.append(
            f"overload: {total2 - overload.answered} of {total2} "
            "requests never answered"
        )
    if overload.shed == 0:
        failures.append(
            "overload: 2x capacity produced zero shed responses — "
            "the admission queue is not bounding load"
        )
    if overload.shed_with_retry_after != overload.shed:
        failures.append(
            f"overload: {overload.shed - overload.shed_with_retry_after} "
            "shed responses lacked a Retry-After header"
        )
    if overload.other:
        failures.append(f"overload: unexpected statuses {overload.other}")
    # Queue wait (bounded at 1s) + validation must fit the pair budget.
    # Latency gates need real parallelism to be meaningful: on a
    # starved 1-core box accepted requests time-slice against the whole
    # client herd, so the number is recorded but not enforced — same
    # policy as bench_fleet.py's scaling floor.
    cpu_count = os.cpu_count() or 1
    accepted_budget = PAIR_DEADLINE_SECONDS + 1.0
    entries["service_overload"]["p99_gate_enforced"] = cpu_count >= 2
    if cpu_count >= 2 and p99_accepted > accepted_budget:
        failures.append(
            f"overload: accepted p99 {p99_accepted * 1000:.0f}ms exceeds "
            f"the {accepted_budget * 1000:.0f}ms queue+deadline budget"
        )

    # -- phase 3: drain under load -------------------------------------------
    drain_stats = ClientStats()
    stop = threading.Event()

    def drain_worker() -> None:
        while not stop.is_set():
            post(base, "/validate", payload, drain_stats, timeout=15.0)

    threads = [
        threading.Thread(target=drain_worker, daemon=True)
        for _ in range(max_concurrent * 2)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.5 if args.quick else 1.0)
    drain_started = time.perf_counter()
    service.begin_drain()
    stopped = service._stopped.wait(service.config.drain_grace + 5.0)
    drain_seconds = time.perf_counter() - drain_started
    stop.set()
    for thread in threads:
        thread.join(timeout=20.0)
    admission = service.admission.stats
    lost = admission.admitted - admission.completed
    entries["service_drain"] = {
        "process_count": 1,
        "stopped_within_grace": stopped,
        "drain_seconds": round(drain_seconds, 3),
        "admitted": admission.admitted,
        "completed": admission.completed,
        "accepted_but_unanswered": lost,
        "shed_during_drain": admission.shed_draining,
    }
    print(
        f"drain: stopped={stopped} in {drain_seconds:.2f}s, "
        f"admitted={admission.admitted} completed={admission.completed} "
        f"lost={lost}"
    )
    if not stopped:
        failures.append(
            "drain: listener did not stop within the grace window"
        )
    if lost != 0:
        failures.append(
            f"drain: {lost} accepted requests were never answered"
        )

    # -- phase 4: multi-process scaling --------------------------------------
    # Real subprocess servers (SO_REUSEPORT pre-fork) at 1 and N
    # processes under identical keep-alive load; the N-process run also
    # hot-registers/retires a pair mid-flight.
    scale_to = 2 if args.quick else 4
    scale_requests = 10 if args.quick else 30
    scale_clients = scale_to * 2
    scaling_floor = (
        None if args.quick
        else ((4, 2.5) if cpu_count >= 4 else None)
    )
    curve = []
    for processes in (1, scale_to):
        point = measure_prefork(
            processes,
            clients=scale_clients,
            requests_each=scale_requests,
            payload=payload,
            failures=failures,
            hot_reload=processes > 1,
        )
        curve.append(point)
        print(
            f"scaling: {processes} processes -> {point['rps']} rps "
            f"({point['ok']}/{point['requests']} ok, "
            f"p99 {point['p99_ms']}ms)"
        )
    base_rps = curve[0]["rps"] or 1e-9
    speedup = round(curve[-1]["rps"] / base_rps, 2)
    entries["service_scaling"] = {
        "process_count": scale_to,
        "curve": curve,
        "speedup": speedup,
        "hot_reload_exercised": True,
        "gate_enforced": scaling_floor is not None,
    }
    print(
        f"scaling: speedup {speedup}x at {scale_to} processes "
        f"(cpu_count={cpu_count}, "
        f"gate {'enforced' if scaling_floor else 'recorded only'})"
    )
    if scaling_floor is not None:
        gate_processes, floor = scaling_floor
        if scale_to >= gate_processes and speedup < floor:
            failures.append(
                f"scaling: {speedup}x at {scale_to} processes is below "
                f"the {floor}x floor (cpu_count={cpu_count})"
            )

    update_bench_json(args.json, entries, source="bench_service.py")
    print(f"wrote {os.path.normpath(args.json)}")

    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
