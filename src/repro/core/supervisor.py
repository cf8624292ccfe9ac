"""One process supervisor for every worker pool in the repository.

The batch fleet (:mod:`repro.core.fleet`), the service's request
executor (:mod:`repro.service.executor`) and the pre-fork front
(:mod:`repro.service.prefork`) all run their work in child processes
and must survive a child dying at any moment.  They share this module's
two layers:

* :class:`Supervisor` — the *slot* layer.  Workers are
  ``multiprocessing.Process`` objects kept by slot number.  A death is
  noticed at once: every process sentinel sits in the same
  :func:`multiprocessing.connection.wait` call as the result pipes, so
  no liveness poll exists.  One death budget covers every pool: a dead
  worker is replaced while the deaths since the last completed job stay
  within ``max(2N, 4)``, so a pool whose workers cannot even start
  stops respawning instead of fork-bombing the box.  One stop sequence
  retires a pool: join within a grace, then kill, then join.
* :class:`JobPool` — the *job* layer.  Each worker gets its own
  ``Pipe``: the parent sends a job down one worker's pipe and reads the
  replies from it, so it always knows which job each worker holds.  No
  queue and no lock is shared between processes, so a ``SIGKILL`` at
  any moment costs exactly the job its victim held — never a wedged
  pool.

Workers stop by returning from their target when they receive ``None``
(or see their pipe close), so multiprocessing's after-fork hooks and
finalizers run as usual.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional

__all__ = ["JobPool", "Supervisor", "Worker"]


class Supervisor:
    """The slot layer: spawn, notice deaths, budget, stop."""

    def __init__(
        self,
        ctx,
        target: Callable,
        size: int,
        *,
        name: str,
        daemon: bool = True,
    ):
        self.ctx = ctx
        self.target = target
        self.name = name
        self.daemon = daemon
        #: Deaths without a completed job that still get replacements.
        self.budget = max(2 * size, 4)
        #: Deaths since the last completed job.
        self.deaths = 0
        self.processes: dict[int, object] = {}

    def spawn(self, slot: int, args: tuple):
        process = self.ctx.Process(
            target=self.target,
            args=args,
            name=f"{self.name}-{slot}",
            daemon=self.daemon,
        )
        process.start()
        self.processes[slot] = process

    def wait(self, waitables=(), timeout: Optional[float] = None):
        """Block until one of ``waitables`` is ready or a worker dies.
        Returns ``(ready waitables, dead slots)``."""
        # Imported here: a one-document CLI run never spawns a worker,
        # so it should not pay for the import at start-up.
        from multiprocessing.connection import wait

        sentinels = {p.sentinel: s for s, p in self.processes.items()}
        ready = wait([*waitables, *sentinels], timeout)
        dead = [sentinels[r] for r in ready if isinstance(r, int)]
        return [r for r in ready if not isinstance(r, int)], dead

    def bury(self, slot: int) -> Optional[int]:
        """Reap a dead slot's process; returns its exit code."""
        process = self.processes.pop(slot)
        process.join()
        code = process.exitcode
        process.close()
        return code

    def died(self) -> bool:
        """Count one death; True while the budget covers a replacement."""
        self.deaths += 1
        return self.deaths <= self.budget

    def progress(self) -> None:
        """A job completed: the pool works, so the budget refills."""
        self.deaths = 0

    def signal(self, signum: int) -> None:
        """Send ``signum`` to every live worker.  Safe in a signal
        handler: it only reads the slot table and calls ``kill(2)``."""
        for process in self.processes.values():
            if process.pid and process.exitcode is None:
                try:
                    os.kill(process.pid, signum)
                except OSError:
                    pass

    def stop(self, grace: float) -> None:
        """Join every worker within ``grace`` seconds in total, then
        kill the stragglers."""
        deadline = time.monotonic() + grace
        for process in self.processes.values():
            process.join(max(0.0, deadline - time.monotonic()))
        for process in self.processes.values():
            if process.exitcode is None:
                process.kill()
                process.join(0.5)
        self.processes.clear()


class Worker:
    """One slot's live process, its pipe, and the job it holds."""

    __slots__ = ("slot", "conn", "job", "retiring", "closed", "exitcode")

    def __init__(self, slot: int, conn):
        self.slot = slot
        self.conn = conn
        self.job = None
        #: The worker announced it exits after its current job.
        self.retiring = False
        #: Its pipe is unusable (EOF or a failed send); only its death
        #: is still to come.
        self.closed = False
        self.exitcode: Optional[int] = None


def _job_main(target: Callable, parent_end, conn, *args) -> None:
    # A forked worker also inherits its pipe's parent end; closing it
    # lets the worker see EOF, and return, once the parent is gone.
    parent_end.close()
    target(conn, *args)


class JobPool:
    """The job layer: one ``Pipe`` per worker over a :class:`Supervisor`.

    ``target(conn, *args)`` runs in each worker: it receives jobs with
    ``conn.recv()``, answers with ``conn.send()``, and returns on
    ``None`` or ``EOFError``.
    """

    def __init__(
        self,
        ctx,
        target: Callable,
        size: int,
        args: tuple = (),
        *,
        name: str,
        daemon: bool = True,
    ):
        self.size = size
        self.target = target
        self.args = args
        self.supervisor = Supervisor(
            ctx, _job_main, size, name=name, daemon=daemon
        )
        self.workers: dict[int, Worker] = {}

    def start(self) -> None:
        for slot in range(self.size):
            self.spawn(slot)

    def spawn(self, slot: int) -> Worker:
        parent, child = self.supervisor.ctx.Pipe()
        try:
            self.supervisor.spawn(
                slot, (self.target, parent, child, *self.args)
            )
        finally:
            # The worker holds the only copy of its end, so a worker
            # spawned later never inherits it.
            child.close()
        worker = self.workers[slot] = Worker(slot, parent)
        return worker

    def idle(self) -> list[Worker]:
        return [
            w for w in self.workers.values()
            if w.job is None and not (w.retiring or w.closed)
        ]

    def send(self, worker: Worker, job, message) -> bool:
        """Hand ``job`` to ``worker`` as ``message``.  False when the
        pipe is already dead: the job is not held, and the worker's
        death is reported by a later :meth:`wait`."""
        worker.job = job
        try:
            worker.conn.send(message)
        except OSError:
            worker.job = None
            worker.closed = True
            return False
        return True

    def wait(self, extra=(), timeout: Optional[float] = None):
        """Block until a reply arrives, a worker dies, or one of
        ``extra`` is ready: :meth:`collect` over :meth:`select`."""
        return self.collect(*self.select(extra, timeout))

    def select(self, extra=(), timeout: Optional[float] = None):
        """The blocking half of :meth:`wait`; changes nothing, so a
        threaded caller can run it outside its lock."""
        conns = [w.conn for w in self.workers.values() if not w.closed]
        return self.supervisor.wait([*conns, *extra], timeout)

    def collect(self, ready: list, dead: list[int]):
        """Read what :meth:`select` found ready.

        Returns ``(messages, deaths, ready extra)``: ``messages`` is a
        list of ``(worker, message)`` in arrival order, and ``deaths``
        lists the dead :class:`Worker` objects, each with its last job
        and exit code.  Every reply a worker sent before dying is in
        ``messages``, so a dead worker's job shows exactly what it
        finished.
        """
        conns = {w.conn: w for w in self.workers.values()}
        messages = []
        for conn in ready:
            worker = conns.get(conn)
            if worker is not None and worker.slot not in dead:
                self._read(worker, messages)
        deaths = []
        for slot in dead:
            worker = self.workers.pop(slot)
            if not worker.closed:
                self._read(worker, messages)
            worker.conn.close()
            worker.exitcode = self.supervisor.bury(slot)
            deaths.append(worker)
        return messages, deaths, [r for r in ready if r not in conns]

    def _read(self, worker: Worker, messages: list) -> None:
        """Every reply already in ``worker``'s pipe."""
        try:
            while worker.conn.poll():
                messages.append((worker, worker.conn.recv()))
        except (EOFError, OSError):
            worker.closed = True

    def replace(self, worker: Worker) -> Optional[Worker]:
        """Respawn a dead worker's slot: always after a retirement,
        otherwise while the death budget lasts."""
        if worker.retiring or self.supervisor.died():
            return self.spawn(worker.slot)
        return None

    def progress(self) -> None:
        self.supervisor.progress()

    def stop(self, grace: float = 2.0) -> None:
        """Ask every worker to return, then the slot layer's stop
        sequence.  ``grace=0`` kills at once."""
        if grace > 0:
            for worker in self.workers.values():
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        self.supervisor.stop(grace)
        for worker in self.workers.values():
            worker.conn.close()
        self.workers.clear()
