"""SIGKILL chaos against the service's worker processes.

The fleet executor and the pre-fork front both run on
:mod:`repro.core.supervisor`: every worker has its own pipe and every
death is seen at once through its process sentinel.  These tests kill
workers and children from outside and pin what that costs a client:
an idle worker's death costs nothing, a held request answers a typed
``worker-crash`` 500 at once, a spent death budget answers at once too,
and a killed pre-fork child is respawned while the port keeps
answering and the drain still loses nothing.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service.server import ServiceConfig
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.serializer import serialize

from tests.faultinject import (
    HAS_PROC,
    KeepAliveClient,
    child_pids,
    sigkill_and_wait,
    wait_until,
)
from tests.service.conftest import boot
from tests.service.test_cli_serve import REPO_ROOT, serve_env

pytestmark = pytest.mark.skipif(not HAS_PROC, reason="needs /proc")

DRAIN_LINE = re.compile(
    r"drained: admitted=(\d+) completed=(\d+) lost=(\d+) processes=(\d+)"
)

VALIDATE = {
    "pair": "po-exp1",
    "xml": serialize(make_purchase_order(3)),
    "schema": "source",
}


def new_children(known: set, count: int, timeout: float = 10.0) -> set:
    """Wait until this process has ``count`` live children outside
    ``known``; returns them (``None`` on timeout)."""
    return wait_until(
        lambda: (
            fresh if len(fresh := child_pids(os.getpid()) - known) == count
            else None
        ),
        timeout,
    )


class TestExecutorSigkill:
    def test_idle_worker_killed_replacement_answers_at_once(self):
        known = child_pids(os.getpid())
        handle = boot(ServiceConfig(fleet_workers=1))
        try:
            (worker,) = new_children(known, 1)
            status, payload, _ = handle.post("/validate", dict(VALIDATE))
            assert status == 200 and payload["valid"] is True
            sigkill_and_wait(worker)
            started = time.monotonic()
            status, payload, _ = handle.post(
                "/validate", dict(VALIDATE), timeout=2.0
            )
            assert time.monotonic() - started < 2.0
            assert status == 200 and payload["valid"] is True
            (replacement,) = new_children(known, 1)
            assert replacement != worker
        finally:
            handle.service.close()

    def test_spent_budget_with_no_worker_answers_crash_at_once(self):
        known = child_pids(os.getpid())
        handle = boot(ServiceConfig(fleet_workers=1))
        try:
            status, _, _ = handle.post("/validate", dict(VALIDATE))
            assert status == 200  # a completed job: the budget is full
            executor = handle.service.executor
            killed = set()
            while executor.describe()["alive"]:
                assert len(killed) < 10
                (worker,) = new_children(known | killed, 1)
                sigkill_and_wait(worker)
                killed.add(worker)
                # Each death is handled (and maybe replaced) at once.
                assert wait_until(
                    lambda: executor.describe()["crashed"] == len(killed),
                    5.0,
                )
            assert not child_pids(os.getpid()) - known - killed
            # max(2N, 4) replacements, then one death too many.
            assert len(killed) == 5
            started = time.monotonic()
            status, payload, _ = handle.post(
                "/validate", dict(VALIDATE), timeout=2.0
            )
            assert time.monotonic() - started < 0.5
            assert status == 500
            assert payload["error"]["code"] == "worker-crash"
            _, health, _ = handle.get("/healthz")
            assert health["executor"]["alive"] == 0
        finally:
            handle.service.close()

    def test_random_kills_under_load_answer_typed_and_recover(self):
        known = child_pids(os.getpid())
        handle = boot(ServiceConfig(fleet_workers=2))
        statuses: list = []
        lock = threading.Lock()
        stop = threading.Event()

        def client() -> None:
            while not stop.is_set():
                try:
                    status, payload, _ = handle.post(
                        "/validate", dict(VALIDATE), timeout=10.0
                    )
                except OSError as error:  # a hang or a reset: a failure
                    status, payload = None, repr(error)
                with lock:
                    statuses.append((status, payload))

        try:
            assert new_children(known, 2)
            clients = [
                threading.Thread(target=client, daemon=True)
                for _ in range(3)
            ]
            for thread in clients:
                thread.start()
            rng = random.Random(11)
            for _ in range(3):
                time.sleep(rng.uniform(0.05, 0.2))
                victims = sorted(child_pids(os.getpid()) - known)
                if victims:
                    try:
                        sigkill_and_wait(rng.choice(victims))
                    except ProcessLookupError:
                        pass
            time.sleep(0.2)
            stop.set()
            for thread in clients:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert statuses
            for status, payload in statuses:
                if status != 200:
                    assert status == 500, payload
                    assert payload["error"]["code"] == "worker-crash"
            # Full strength returns, and the service answers.
            assert new_children(known, 2)
            status, payload, _ = handle.post("/validate", dict(VALIDATE))
            assert status == 200 and payload["valid"] is True
        finally:
            stop.set()
            handle.service.close()


class TestPreforkSigkill:
    # With --fleet-workers the victim's own workers outlive it; they must
    # notice the closed pipe and exit, or the parent never sees the
    # child's death.
    @pytest.mark.parametrize("fleet", [[], ["--fleet-workers", "1"]])
    def test_killed_child_is_respawned_and_drain_loses_nothing(
        self, fleet
    ):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--demo", "--port", "0", "--processes", "2",
                "--drain-grace", "10", *fleet,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=serve_env(),
            cwd=REPO_ROOT,
        )
        stop = threading.Event()
        statuses: list = []

        def keep_alive_loop() -> None:
            client = None
            while not stop.is_set():
                try:
                    if client is None:
                        client = KeepAliveClient(host, port)
                    client.send("POST", "/validate", VALIDATE)
                    status, _, _ = client.read_response()
                    statuses.append(status)
                except OSError:
                    # The connection's child was killed: reconnect.
                    if client is not None:
                        client.close()
                    client = None
            if client is not None:
                client.close()

        try:
            boot_line = proc.stdout.readline().strip()
            assert boot_line.startswith("listening on http://"), boot_line
            host, _, port_text = boot_line.rsplit("/", 1)[-1].partition(":")
            port = int(port_text)
            assert proc.stdout.readline().startswith("ready: ")
            children = child_pids(proc.pid)
            assert len(children) == 2
            loop = threading.Thread(target=keep_alive_loop, daemon=True)
            loop.start()
            assert wait_until(lambda: len(statuses) >= 10, 30.0)

            victim = min(children)
            sigkill_and_wait(victim)
            respawned = wait_until(
                lambda: (
                    len(now := child_pids(proc.pid)) == 2
                    and victim not in now
                ),
                30.0,
            )
            assert respawned, child_pids(proc.pid)
            for _ in range(10):
                with KeepAliveClient(host, port) as client:
                    client.send("POST", "/validate", VALIDATE)
                    status, payload, _ = client.read_response()
                assert status == 200 and payload["valid"] is True
            served = len(statuses)
            assert wait_until(lambda: len(statuses) >= served + 10, 30.0)
            stop.set()
            loop.join(timeout=30.0)
            assert set(statuses) == {200}

            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0, (stdout, stderr)
            assert "respawning" in stderr
            match = DRAIN_LINE.search(stdout)
            assert match, (stdout, stderr)
            admitted, completed, lost, processes = map(int, match.groups())
            assert lost == 0 and admitted == completed
            assert processes == 2
        finally:
            stop.set()
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
