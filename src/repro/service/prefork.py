"""Pre-fork multi-process front: N acceptors, one port, one drain.

One ``repro serve`` process is pinned to roughly one core: the handler
threads share a GIL, and even fleet-dispatched validation still funnels
every accept, parse, and response through one interpreter.
:class:`PreforkServer` runs N full service processes — each its own
:class:`~repro.service.server.ValidationService` with its own warmed
registry, admission controller, and (optionally) fleet executor —
all accepting on the *same* TCP port:

* **SO_REUSEPORT** (preferred): every child binds its own listening
  socket with ``SO_REUSEPORT``; the kernel hashes incoming connections
  across them.  No shared accept lock, no thundering herd.  For
  ``port=0`` the parent first *reserves* a concrete port with a bound
  (never listening) ``SO_REUSEPORT`` socket, so all children bind the
  same number.
* **Inherited-listener fallback**: where ``SO_REUSEPORT`` does not
  exist, the parent binds + listens once and each forked child adopts
  the inherited socket; the kernel wakes one blocked ``accept()`` per
  connection.

**Admission is per-process** (documented semantics rather than a
shared token budget): each child owns ``max_concurrent`` slots and its
own queue, so fleet-wide capacity is ``N × max_concurrent`` and a
client's token bucket is per-child.  This keeps the admission hot path
lock-local and free of cross-process coordination; the trade-off —
shedding decisions are made on local load, which under kernel
round-robin tracks global load closely — is recorded in
``docs/ROBUSTNESS.md`` §7.

**Drain is fleet-wide**: the parent forwards SIGTERM/SIGINT to every
child, each child drains independently (in-flight requests finish,
admitted == completed per child), and the parent aggregates the
per-child admission summaries into one line::

    drained: admitted=N completed=N lost=0 processes=P

``lost`` must be zero — that is the PR 7 invariant, now fleet-wide.

**Crash resilience**: a child that dies outside a drain is respawned at
once (within the supervisor's death budget); the respawn replays the
shared :class:`~repro.service.reload.ReloadJournal` from offset zero,
so it comes back knowing every hot-registered pair.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import sys
import tempfile
import time
from dataclasses import replace
from typing import Optional, Sequence

from repro.core.supervisor import JobPool
from repro.service.registry import PairSpec, ServiceRegistry
from repro.service.server import ServiceConfig, ValidationService

__all__ = ["PreforkServer", "reuse_port_supported"]


def reuse_port_supported() -> bool:
    """Whether this platform can bind N sockets to one port."""
    return hasattr(socket, "SO_REUSEPORT")


def _reserve_port(host: str, port: int) -> tuple[socket.socket, int]:
    """Bind (but never listen) a ``SO_REUSEPORT`` socket so ``port=0``
    resolves to one concrete number every child can share.  The reserve
    socket receives no connections — only listeners do — and is closed
    once the children are up."""
    reserve = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        reserve.bind((host, port))
        return reserve, reserve.getsockname()[1]
    except BaseException:
        reserve.close()
        raise


def _child_main(
    conn,
    registry: ServiceRegistry,
    config: ServiceConfig,
    host: str,
    port: int,
    listener: Optional[socket.socket],
) -> None:
    """One acceptor process: a complete ValidationService of its own.

    ``registry`` was warmed **in the parent before the fork**, so every
    child inherits the compiled pair tables copy-on-write — one
    compilation for the whole fleet, zero pickles.  Post-fork the
    copies are independent: hot reload mutates each child's registry
    separately, coordinated only through the journal.

    Reports down its pipe: ``("ready", port, warm_seconds)`` once
    traffic-ready (or ``("failed", error_text)`` on a failed boot), and
    ``("drained", admitted, completed)`` at exit.
    """
    # The child must not inherit the parent's signal dispositions for
    # the drain window between fork and install_signal_handlers.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service = ValidationService(registry, config)
    try:
        service.start(
            host,
            port,
            reuse_port=listener is None,
            listen_socket=listener,
        )
        service.install_signal_handlers()
        if not service.wait_ready(timeout=120.0):
            raise RuntimeError(
                f"warm-up failed: {service.warm_error or 'timeout'}"
            )
    except BaseException as error:  # noqa: BLE001 — reported to parent
        conn.send(("failed", f"{type(error).__name__}: {error}"))
        os._exit(1)
    conn.send(("ready", service.port, registry.warm_seconds))
    code = service.run_forever()
    stats = service.admission.stats
    conn.send(("drained", stats.admitted, stats.completed))
    # Skip interpreter teardown races with daemon handler threads.
    os._exit(code)


class PreforkServer:
    """The parent: spawns, watches, respawns, drains, aggregates.

    Children run on the supervisor's
    :class:`~repro.core.supervisor.JobPool`, each with its own report
    pipe.  A child's boot is its job: its ready report counts as a
    completed job for the death budget.
    """

    def __init__(
        self,
        specs: Sequence[PairSpec],
        config: Optional[ServiceConfig] = None,
        *,
        processes: int,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
    ):
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.specs = list(specs)
        self.processes = processes
        self.host = host
        self.cache_dir = cache_dir
        config = config or ServiceConfig()
        if config.reload_journal is None:
            # A per-run journal: hot registrations reach every child
            # (and every future respawn) through it.
            fd, journal = tempfile.mkstemp(
                prefix="repro-serve-reload-", suffix=".jsonl"
            )
            os.close(fd)
            self._own_journal = journal
            config = replace(config, reload_journal=journal)
        else:
            self._own_journal = None
        self.config = config
        self._pool: Optional[JobPool] = None
        self._listener: Optional[socket.socket] = None
        self._reserve: Optional[socket.socket] = None
        self._draining = False
        self._failed = False
        self.port = port
        self.warm_seconds = 0.0
        #: Fleet-wide admission totals, filled at drain.
        self.admitted = 0
        self.completed = 0
        self.summaries: dict[int, tuple[int, int]] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Resolve the port, fork the children, wait until every child
        is traffic-ready.  Returns the bound ``(host, port)``."""
        if self._pool is not None:
            raise RuntimeError("prefork server already started")
        # Compile once, fork many: children inherit the warmed pair
        # tables copy-on-write.
        registry = ServiceRegistry(self.specs, cache_dir=self.cache_dir)
        self.warm_seconds = registry.warm()
        if reuse_port_supported():
            self._reserve, self.port = _reserve_port(self.host, self.port)
        else:
            # Fallback: one parent-bound listener inherited across fork.
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            listener.bind((self.host, self.port))
            listener.listen(128)
            self._listener = listener
            self.port = listener.getsockname()[1]
        self._pool = JobPool(
            multiprocessing.get_context("fork"),
            _child_main,
            self.processes,
            (registry, self.config, self.host, self.port, self._listener),
            name="repro-serve",
            # Children fork fleet workers of their own.
            daemon=False,
        )
        self._pool.start()
        self._await_ready()
        if self._reserve is not None:
            # Children hold the port now; the reservation has done its
            # job.
            self._reserve.close()
            self._reserve = None
        return self.host, self.port

    def _await_ready(self, timeout: float = 180.0) -> None:
        deadline = time.monotonic() + timeout
        booting = set(self._pool.workers)
        while booting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise RuntimeError("children failed to become ready")
            messages, deaths, _ = self._pool.wait(timeout=remaining)
            for worker, message in messages:
                if message[0] == "failed":
                    self.kill()
                    raise RuntimeError(
                        f"child {worker.slot} failed to boot: {message[1]}"
                    )
                self._report(worker, message)
                booting.discard(worker.slot)
            for worker in deaths:
                self.kill()
                raise RuntimeError(
                    f"child {worker.slot} died during boot "
                    f"(code {worker.exitcode})"
                )

    def _report(self, worker, message) -> None:
        kind, *fields = message
        if kind == "ready":
            self.warm_seconds = max(self.warm_seconds, float(fields[1]))
            self._pool.progress()
        elif kind == "drained":
            self.summaries[worker.slot] = tuple(fields)
            self.admitted = sum(a for a, _ in self.summaries.values())
            self.completed = sum(c for _, c in self.summaries.values())

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → fleet-wide drain (main thread only)."""

        def _handle(signum, frame):  # noqa: ARG001
            self.begin_drain()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def begin_drain(self) -> None:
        """Forward the drain signal to every child.  Idempotent and
        signal-safe (kill(2) only; nothing here allocates or locks)."""
        if self._draining:
            return
        self._draining = True
        if self._pool is not None:
            self._pool.supervisor.signal(signal.SIGTERM)

    def run_forever(self) -> int:
        """Watch the fleet: respawn crashed children (bounded), wait
        out the drain, aggregate summaries.  Returns the exit code — 0
        only for a clean fleet-wide drain with zero lost requests."""
        pool = self._pool
        bad_exit = False
        while pool.workers:
            messages, deaths, _ = pool.wait()
            for worker, message in messages:
                self._report(worker, message)
            for worker in deaths:
                if self._draining:
                    bad_exit = bad_exit or worker.exitcode != 0
                    continue
                respawned = pool.replace(worker) is not None
                self._failed = self._failed or not respawned
                sys.stderr.write(
                    f"repro-serve[{worker.slot}] exited unexpectedly "
                    f"(code {worker.exitcode}); "
                    + ("respawning\n" if respawned
                       else "crash budget exhausted\n")
                )
                if self._draining:
                    # The drain began mid-spawn and missed this child.
                    pool.supervisor.signal(signal.SIGTERM)
        lost = self.admitted - self.completed
        print(
            f"drained: admitted={self.admitted} "
            f"completed={self.completed} lost={lost} "
            f"processes={self.processes}",
            flush=True,
        )
        self._cleanup()
        return 1 if (self._failed or bad_exit or lost != 0) else 0

    def drain(self, timeout: Optional[float] = None) -> int:
        """:meth:`begin_drain` + :meth:`run_forever`.  Each child bounds
        its own drain by the drain grace; ``timeout`` is accepted for
        compatibility and ignored."""
        self.begin_drain()
        return self.run_forever()

    def kill(self) -> None:
        """Immediate teardown (boot failures, tests)."""
        if self._pool is not None:
            self._pool.stop(grace=0.0)
        self._cleanup()

    def _cleanup(self) -> None:
        if self._reserve is not None:
            self._reserve.close()
            self._reserve = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._own_journal is not None:
            try:
                os.unlink(self._own_journal)
            except OSError:
                pass
            self._own_journal = None
