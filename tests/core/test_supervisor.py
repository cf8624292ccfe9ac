"""The supervisor's job layer: per-worker pipes, deaths, the budget.

:class:`~repro.core.supervisor.JobPool` is the primitive under the
batch fleet, the service executor and the pre-fork front; these tests
drive it with tiny worker targets.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.core.supervisor import JobPool


def _echo_main(conn):
    while True:
        job = conn.recv()
        if job is None:
            return
        conn.send(job * 2)


def _die_on_job_main(conn):
    """Answer once, then die with the reply still unread."""
    job = conn.recv()
    conn.send(job)
    os._exit(3)


def _die_at_start_main(conn):
    os._exit(5)


@pytest.fixture()
def ctx():
    return multiprocessing.get_context("fork")


class TestJobPool:
    def test_replies_arrive_on_the_worker_that_holds_the_job(self, ctx):
        pool = JobPool(ctx, _echo_main, 2, name="test-echo")
        pool.start()
        try:
            for index, worker in enumerate(pool.idle()):
                assert pool.send(worker, index, index + 1)
            replies = {}
            while len(replies) < 2:
                messages, deaths, _ = pool.wait(timeout=10)
                assert not deaths
                for worker, reply in messages:
                    replies[worker.job] = reply
                    worker.job = None
            assert replies == {0: 2, 1: 4}
        finally:
            pool.stop()
        assert not pool.workers

    def test_death_reports_the_job_and_every_reply_sent_before_it(
        self, ctx
    ):
        pool = JobPool(ctx, _die_on_job_main, 1, name="test-die")
        pool.start()
        try:
            (worker,) = pool.idle()
            assert pool.send(worker, "job-1", 21)
            messages, deaths = [], []
            deadline = time.monotonic() + 10
            while not deaths:
                assert time.monotonic() < deadline
                more, deaths, _ = pool.wait(timeout=10)
                messages.extend(more)
            assert [reply for _, reply in messages] == [21]
            (dead,) = deaths
            assert dead.job == "job-1" and dead.exitcode == 3
            replacement = pool.replace(dead)
            assert replacement is not None and replacement.job is None
        finally:
            pool.stop()

    def test_death_budget_stops_respawning_a_crash_loop(self, ctx):
        pool = JobPool(ctx, _die_at_start_main, 1, name="test-loop")
        pool.start()
        respawns = 0
        try:
            while pool.workers:
                _, deaths, _ = pool.wait(timeout=10)
                for worker in deaths:
                    assert worker.exitcode == 5
                    if pool.replace(worker) is not None:
                        respawns += 1
        finally:
            pool.stop()
        assert respawns == pool.supervisor.budget == 4

    def test_progress_refills_the_budget(self, ctx):
        pool = JobPool(ctx, _echo_main, 1, name="test-budget")
        supervisor = pool.supervisor
        for _ in range(supervisor.budget):
            assert supervisor.died()
        pool.progress()
        assert supervisor.died()
        for _ in range(supervisor.budget - 1):
            supervisor.died()
        assert not supervisor.died()
