"""The batch fleet under SIGKILL.

The fleet runs on :mod:`repro.core.supervisor`, which gives every
worker its own pipe and watches every process sentinel, so a worker
killed at any moment — idle or mid-chunk — costs at most the document
it held.  These tests kill
workers from outside, the way an OOM killer or an operator would, and
check that the pool neither wedges nor loses or duplicates documents.
"""

from __future__ import annotations

import os
import random
import signal
import threading

import pytest

from repro.core.batch import validate_batch
from repro.core.fleet import WorkerFleet
from repro.schema.registry import SchemaPair
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.serializer import write_file

from tests.faultinject import HAS_PROC, sigkill_and_wait

#: Seconds any one batch may take before the test calls it wedged.
BATCH_TIMEOUT = 60.0


@pytest.fixture()
def exp2_fresh_pair(exp2_source, exp2_target):
    return SchemaPair(exp2_source, exp2_target)


def write_mixed_corpus(directory, count):
    """Experiment 2 orders; every third one has a quantity in
    [100, 200), which the target rejects."""
    paths = []
    for index in range(count):
        invalid = index % 3 == 0
        document = make_purchase_order(
            2 + index % 4,
            quantity_of=(lambda i: 150) if invalid else (lambda i: 1 + i),
        )
        path = os.path.join(str(directory), f"doc{index:03d}.xml")
        write_file(document, path)
        paths.append(path)
    return paths


def verdicts(results):
    return {r.path: (r.valid, r.reason, r.error_type) for r in results}


def run_bounded(fleet, paths):
    """``fleet.validate`` in a thread, failing the test (and killing the
    fleet) if it does not finish within :data:`BATCH_TIMEOUT`."""
    results = []
    errors = []

    def target():
        try:
            fleet.validate(paths, on_result=lambda r, _s: results.append(r))
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(BATCH_TIMEOUT)
    if thread.is_alive():
        fleet.kill()
        pytest.fail(f"batch did not finish within {BATCH_TIMEOUT:.0f}s")
    if errors:
        raise errors[0]
    return results


@pytest.mark.skipif(not HAS_PROC, reason="needs /proc")
class TestFleetSurvivesSigkill:
    def test_killing_every_idle_worker_never_wedges_the_fleet(
        self, exp2_fresh_pair, tmp_path
    ):
        # With a shared task queue, an idle worker blocks in get()
        # holding the queue's reader lock; killing every idle worker
        # kills the holder, and every later batch waits forever.
        paths = write_mixed_corpus(tmp_path, 40)
        expected = verdicts(
            validate_batch(exp2_fresh_pair, paths, jobs=1).results
        )
        with WorkerFleet(exp2_fresh_pair, 2) as fleet:
            first = run_bounded(fleet, paths)
            assert verdicts(first) == expected
            for process in list(fleet._workers.values()):
                sigkill_and_wait(process.pid)
            for _ in range(2):
                results = run_bounded(fleet, paths)
                assert verdicts(results) == expected
                assert len(results) == len(paths)
                assert not any(
                    r.error_type == "WorkerCrash" for r in results
                )
            assert len(fleet._workers) == 2

    def test_random_kills_mid_batch_lose_and_duplicate_nothing(
        self, exp2_fresh_pair, tmp_path
    ):
        paths = write_mixed_corpus(tmp_path, 60)
        expected = verdicts(
            validate_batch(exp2_fresh_pair, paths, jobs=1).results
        )
        rng = random.Random(7)
        with WorkerFleet(exp2_fresh_pair, 2, chunk_size=4) as fleet:
            for _ in range(3):
                kills = []
                stop = threading.Event()

                def chaos():
                    while not stop.wait(rng.uniform(0.005, 0.03)):
                        victims = list(fleet._workers.values())
                        if victims and len(kills) < 3:
                            victim = rng.choice(victims)
                            try:
                                os.kill(victim.pid, signal.SIGKILL)
                                kills.append(victim.pid)
                            except (OSError, ValueError):
                                pass

                killer = threading.Thread(target=chaos, daemon=True)
                killer.start()
                try:
                    results = run_bounded(fleet, paths)
                finally:
                    stop.set()
                    killer.join()
                assert sorted(r.path for r in results) == sorted(paths)
                crashed = [
                    r for r in results if r.error_type == "WorkerCrash"
                ]
                # A kill costs at most the document its victim held
                # (only a kill during the culprit's solo re-run names
                # an innocent document).
                assert len(crashed) <= len(kills)
                for result in results:
                    if result.error_type != "WorkerCrash":
                        assert (
                            verdicts([result])[result.path]
                            == expected[result.path]
                        )
