"""Fleet-backed request execution: casts leave the GIL.

A ``ThreadingHTTPServer`` front can hold many connections, but every
validation it runs inline is serialized behind one GIL — the fused
kernel made each cast CPU-bound, so a busy service is pinned to one
core no matter how many handler threads exist.  :class:`FleetExecutor`
fixes the *within-process* half of that: handler threads submit
validation jobs to a small pool of resident worker processes and block
(cheaply, releasing the GIL) until the verdict comes back, so casts
from all connections run truly in parallel.

Design points, all inherited from :mod:`repro.core.fleet`:

* **Zero-copy pair transport.**  Every registered pair gets one
  :class:`~repro.core.fleet.PairTransport` created *before* the workers
  spawn — under the ``fork`` start method the compiled tables are
  inherited copy-on-write and nothing is pickled at all.  Pairs
  hot-registered after spawn get a forced shared-memory route
  (``pickle_count == 1``), because a running worker cannot inherit new
  parent state.  Jobs carry their pair's route, so a worker resolves
  (and caches) pairs lazily — no broadcast is needed when the registry
  mutates.
* **Crash recovery.**  Workers run on the supervisor's
  :class:`~repro.core.supervisor.JobPool`: each has its own pipe, so
  the parent knows which request every worker holds.  When a worker
  dies its sentinel fires at once: the request it held answers a
  structured 500 with code ``worker-crash`` — never a hang, never a
  bare socket reset — and a replacement spawns within the death
  budget.
* **Worker recycling.**  After ``max_requests`` jobs or once its RSS
  exceeds ``max_rss_mb``, a worker finishes its current job, marks its
  last reply ``retiring``, and exits; the parent spawns a fresh
  replacement.  Leaky or fragmented workers are rotated out gracefully
  using the same respawn path as crash recovery.

Outcomes cross the process boundary as plain JSON — status, payload,
``Retry-After`` — computed worker-side by the same
:func:`~repro.service.diagnostics.http_status` /
:func:`~repro.service.diagnostics.error_payload` mapping the inline
path uses, so the two execution paths are wire-identical (exception
objects never travel, which also sidesteps unpicklable errors).
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.fleet import PairTransport, resolve_pair_route
from repro.core.supervisor import JobPool
from repro.errors import WORKER_CRASH_CODE
from repro.guards import Limits
from repro.service.registry import RegisteredPair

__all__ = ["ExecutorOutcome", "FleetExecutor", "WireOutcomeError"]


@dataclass(frozen=True)
class ExecutorOutcome:
    """One dispatched request's wire-ready result."""

    status: int
    payload: dict
    retry_after: Optional[float] = None


class WireOutcomeError(Exception):
    """A non-200 outcome computed on the far side of the process
    boundary; the handler sends it verbatim instead of re-deriving a
    status from an exception it never saw."""

    def __init__(self, outcome: ExecutorOutcome):
        self.outcome = outcome
        super().__init__(f"executor outcome {outcome.status}")


#: Every worker is dead and the death budget forbids replacements.
NO_WORKER = "no live worker left to handle this request"


def _crash_outcome(
    message: str = "worker process died while handling this request",
) -> ExecutorOutcome:
    return ExecutorOutcome(
        status=500,
        payload={
            "error": {"code": WORKER_CRASH_CODE, "message": message},
            "diagnostics": [],
        },
    )


def _worker_should_retire(
    served: int,
    max_requests: Optional[int],
    max_rss_mb: Optional[float],
) -> bool:
    if max_requests is not None and served >= max_requests:
        return True
    if max_rss_mb is not None:
        try:
            import resource

            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        except Exception:
            return False
        # ru_maxrss is KiB on Linux, bytes on macOS.
        import sys

        rss_mb = (
            rss_kb / (1024.0 * 1024.0)
            if sys.platform == "darwin"
            else rss_kb / 1024.0
        )
        if rss_mb >= max_rss_mb:
            return True
    return False


def _executor_worker_main(
    conn,
    max_requests: Optional[int],
    max_rss_mb: Optional[float],
) -> None:
    """A resident validation worker: answer the jobs sent down its pipe
    until the ``None`` stop message (or self-retirement).

    Each job is ``(kind, name, fingerprint, route, limits, request)``;
    each reply is ``(status, payload, retry_after, retiring)``.  A
    worker that hits its recycling threshold sets ``retiring`` on its
    last reply and returns; the parent spawns a replacement.
    """
    from repro.service.diagnostics import (
        error_payload,
        http_status,
        retry_after,
    )
    from repro.service.work import perform_request

    pairs: dict[str, object] = {}
    served = 0
    try:
        while True:
            job = conn.recv()
            if job is None:
                return
            kind, name, fingerprint, route, limits, request = job
            try:
                pair = pairs.get(fingerprint)
                if pair is None:
                    pair = resolve_pair_route(route)
                    pairs[fingerprint] = pair
                payload = perform_request(
                    kind,
                    pair,
                    request,
                    limits,
                    pair_name=name,
                    fingerprint=fingerprint,
                )
                reply = (200, payload, None)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as error:  # noqa: BLE001 — wire contract
                reply = (
                    http_status(error),
                    error_payload(error),
                    retry_after(error),
                )
            served += 1
            retiring = _worker_should_retire(served, max_requests, max_rss_mb)
            conn.send((*reply, retiring))
            if retiring:
                return
    except (EOFError, OSError, KeyboardInterrupt, SystemExit):
        return


@dataclass
class _Pending:
    job: tuple
    event: threading.Event = field(default_factory=threading.Event)
    outcome: Optional[ExecutorOutcome] = None


class FleetExecutor:
    """A resident pool of request workers shared by all handler threads.

    Built once per service process after warm-up (the fork routes need
    the compiled pairs parked *before* the workers exist).  ``submit``
    is thread-safe.  Workers run on a
    :class:`~repro.core.supervisor.JobPool`: a request goes straight to
    an idle worker's pipe or waits in a parent-side queue, and one
    supervising thread files replies back to the waiting submitters,
    hands queued requests to workers as they free up, and replaces dead
    workers the moment their sentinel fires.
    """

    #: Extra seconds past a request's residual deadline before the
    #: submitter declares the worker hung and kills it.
    crash_grace = 2.0

    def __init__(
        self,
        workers: int,
        *,
        start_method: Optional[str] = None,
        max_requests_per_worker: Optional[int] = None,
        max_worker_rss_mb: Optional[float] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.max_requests_per_worker = max_requests_per_worker
        self.max_worker_rss_mb = max_worker_rss_mb
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else None
        ctx = multiprocessing.get_context(start_method)
        self._start_method = ctx.get_start_method()
        self._pool = JobPool(
            ctx,
            _executor_worker_main,
            workers,
            (max_requests_per_worker, max_worker_rss_mb),
            name="repro-executor",
        )
        self._transports: dict[str, PairTransport] = {}
        self._routes: dict[str, tuple] = {}
        self._waiting: deque[_Pending] = deque()
        self._lock = threading.Lock()
        self._wake_reader, self._wake_writer = ctx.Pipe(duplex=False)
        self._spawned = False
        self._closed = False
        #: Observability: recycled + crashed worker counts.
        self.recycled = 0
        self.crashed = 0
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-executor", daemon=True
        )

    # -- lifecycle ----------------------------------------------------------

    def register_pair(self, entry: RegisteredPair) -> None:
        """Create this pair's transport.  Before :meth:`start` the
        cheapest route wins (fork COW when available); afterwards the
        route is forced through shared memory, because running workers
        cannot inherit new parent state."""
        with self._lock:
            if entry.fingerprint in self._routes:
                return
            method = self._start_method if not self._spawned else "spawn"
            transport = PairTransport(entry.pair, method)
            self._transports[entry.fingerprint] = transport
            self._routes[entry.fingerprint] = transport.route

    def start(self) -> None:
        """Spawn the workers.  Call after every boot-time pair is
        registered so fork inheritance covers them all."""
        if self._spawned:
            raise RuntimeError("executor already started")
        self._spawned = True
        self._pool.start()
        self._supervisor.start()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._waiting) + [
                w.job for w in self._pool.workers.values() if w.job
            ]
            self._waiting.clear()
        if self._supervisor.is_alive():
            self._wake_writer.send(None)
            self._supervisor.join(timeout=2.0)
        self._pool.stop()
        self._wake_reader.close()
        self._wake_writer.close()
        # Transports stay open for the executor's whole life (an
        # in-flight job may resolve its shm route at any moment); they
        # are released here, all at once.
        for transport in self._transports.values():
            transport.close()
        self._transports.clear()
        # Unblock any submitter still waiting.
        for item in pending:
            self._answer(item, _crash_outcome())

    def __enter__(self) -> "FleetExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- supervision ---------------------------------------------------------

    def _supervise(self) -> None:
        """File replies, replace dead workers, feed idle ones."""
        pool = self._pool
        while True:
            ready, dead = pool.select((self._wake_reader,))
            handoffs = []
            with self._lock:
                if self._closed:
                    return
                messages, deaths, woken = pool.collect(ready, dead)
                if woken:
                    self._wake_reader.recv()
                for worker, (status, payload, hint, retiring) in messages:
                    item, worker.job = worker.job, None
                    worker.retiring = retiring
                    pool.progress()
                    if item is not None:
                        self._answer(
                            item, ExecutorOutcome(status, payload, hint)
                        )
                for worker in deaths:
                    if worker.retiring:
                        self.recycled += 1
                    else:
                        self.crashed += 1
                    try:
                        pool.replace(worker)
                    except OSError:
                        pass  # fork failed: the pool shrinks
                    if worker.job is not None:
                        self._answer(worker.job, _crash_outcome())
                if not pool.workers:
                    # The budget is spent and nobody is left to run
                    # the queue.
                    for item in self._waiting:
                        self._answer(item, _crash_outcome(NO_WORKER))
                    self._waiting.clear()
                for worker in pool.idle():
                    if not self._waiting:
                        break
                    item = self._waiting.popleft()
                    worker.job = item
                    handoffs.append((worker, item))
            for worker, item in handoffs:
                self._deliver(worker, item)

    def _deliver(self, worker, item: _Pending) -> None:
        """Send a job reserved for ``worker``; a pipe that is already
        dead hands the request back to the front of the queue."""
        if self._pool.send(worker, item, item.job):
            return
        with self._lock:
            if item.outcome is not None or self._closed:
                return
            self._waiting.appendleft(item)
        # The supervising thread hands it to the next idle worker.
        try:
            self._wake_writer.send(None)
        except OSError:
            pass  # closed meanwhile; close() answers the queue

    @staticmethod
    def _answer(item: _Pending, outcome: ExecutorOutcome) -> None:
        if item.outcome is None:
            item.outcome = outcome
            item.event.set()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        kind: str,
        entry: RegisteredPair,
        request: dict,
        limits: Limits,
        *,
        residual_seconds: float,
    ) -> ExecutorOutcome:
        """Run one request on the pool; blocks the calling handler
        thread (GIL released) until the outcome arrives.

        ``limits`` must already carry the residual deadline — the
        worker enforces it, so a slow validation answers 408 from the
        far side.  A worker that dies holding the request answers a
        structured ``worker-crash`` 500 at once, and so does a request
        that arrives when every worker is dead and the death budget is
        spent.  The parent-side wait is only a *backstop* for a hung
        worker: at ``residual + crash_grace`` the holder is killed and
        the request answers ``worker-crash``.
        """
        if self._closed or not self._spawned:
            return _crash_outcome()
        route = self._routes.get(entry.fingerprint)
        if route is None:
            self.register_pair(entry)
            route = self._routes[entry.fingerprint]
        item = _Pending(
            (kind, entry.name, entry.fingerprint, route, limits, request)
        )
        worker = None
        with self._lock:
            if self._closed:
                return _crash_outcome()
            if not self._pool.workers:
                return _crash_outcome(NO_WORKER)
            idle = self._pool.idle()
            if idle:
                worker = idle[0]
                worker.job = item
            else:
                self._waiting.append(item)
        if worker is not None:
            self._deliver(worker, item)
        budget = max(residual_seconds, 0.1) + self.crash_grace
        if not item.event.wait(budget):
            self._give_up(item)
        return item.outcome

    def _give_up(self, item: _Pending) -> None:
        with self._lock:
            if item.outcome is not None:
                return  # the reply raced the backstop
            if item in self._waiting:
                self._waiting.remove(item)
            holders = [
                self._pool.supervisor.processes.get(worker.slot)
                for worker in self._pool.workers.values()
                if worker.job is item
            ]
            self._answer(item, _crash_outcome())
        for process in holders:
            # Hung: the supervising thread sees the death and replaces
            # the worker.
            try:
                process.kill()
            except (AttributeError, OSError, ValueError):
                pass  # already reaped

    # -- observability -------------------------------------------------------

    def describe(self) -> dict:
        supervisor = self._pool.supervisor
        with self._lock:
            return {
                "workers": self.workers,
                "alive": len(supervisor.processes),
                "start_method": self._start_method,
                "recycled": self.recycled,
                "crashed": self.crashed,
                # Replacements left before the pool stops covering
                # deaths (refilled by every completed request).
                "death_budget": supervisor.budget - supervisor.deaths,
                "pairs_routed": len(self._routes),
            }
