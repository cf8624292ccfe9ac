"""Fault-injection: the batch contract under adversarial inputs and
worker faults.

Every test drives :func:`repro.core.batch.validate_batch` through the
harness in ``tests/faultinject.py``: adversarial documents must surface
as their specific typed error in ``DocumentResult.error_type`` (never an
unhandled exception), and injected worker faults — hard crashes,
unexpected exceptions, transient IO errors — must cost at most the one
document they hit.
"""

import os

import pytest

from tests.faultinject import (
    ADVERSARIAL_CASES,
    CORPUS_LIMITS,
    arm_fuse,
    bug_hook,
    crash_hook,
    expected_error,
    fuse_oserror_hook,
    midchunk_crash_hook,
    write_corpus,
)
from repro.core.batch import validate_batch, validate_directory
from repro.core.streaming import StreamingCastValidator
from repro.errors import BatchError, DocumentTooLargeError
from repro.guards import Limits
from repro.schema.registry import SchemaPair
from repro.workloads.adversarial import oversized_document
from repro.workloads.purchase_orders import make_purchase_order
from repro.xmltree.serializer import write_file


@pytest.fixture()
def exp2_fresh_pair(exp2_source, exp2_target):
    return SchemaPair(exp2_source, exp2_target)


def write_valid_pos(directory, names):
    """Write small, valid purchase orders; returns ``name -> path``."""
    paths = {}
    for index, name in enumerate(names):
        path = os.path.join(str(directory), f"{name}.xml")
        write_file(make_purchase_order(1 + index % 2), path)
        paths[name] = path
    return paths


def by_name(batch):
    return {os.path.basename(r.path): r for r in batch.results}


class TestAdversarialCorpus:
    """Each adversarial document yields its typed error; the good
    documents around it are unaffected."""

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_mixed_corpus_error_types(self, exp2_fresh_pair, tmp_path, jobs):
        corpus = write_corpus(tmp_path)
        good = write_valid_pos(tmp_path, ["good1", "good2"])
        batch = validate_batch(
            exp2_fresh_pair,
            sorted(list(corpus.values()) + list(good.values())),
            jobs=jobs,
            limits=CORPUS_LIMITS,
        )
        results = by_name(batch)
        for name in ADVERSARIAL_CASES:
            result = results[f"{name}.xml"]
            assert result.error, name
            assert result.error_type == expected_error(name).__name__, name
            assert not result.ok
        assert results["good1.xml"].ok
        assert results["good2.xml"].ok
        assert batch.total == len(corpus) + len(good)
        assert len(batch.errors) == len(corpus)

    def test_verdicts_independent_of_jobs(self, exp2_fresh_pair, tmp_path):
        corpus = write_corpus(tmp_path)
        paths = sorted(corpus.values())
        sequential = validate_batch(
            exp2_fresh_pair, paths, jobs=1, limits=CORPUS_LIMITS
        )
        parallel = validate_batch(
            exp2_fresh_pair, paths, jobs=3, limits=CORPUS_LIMITS
        )
        assert [
            (r.path, r.error_type) for r in sequential.results
        ] == [(r.path, r.error_type) for r in parallel.results]

    def test_per_document_deadline(self, exp2_fresh_pair, tmp_path):
        # Big enough to outlast the deadline token's check stride.
        paths = []
        for name in ("slow1", "slow2"):
            path = str(tmp_path / f"{name}.xml")
            write_file(make_purchase_order(100), path)
            paths.append(path)
        batch = validate_batch(
            exp2_fresh_pair,
            sorted(paths),
            jobs=1,
            limits=Limits(deadline_seconds=1e-9),
        )
        for result in batch.results:
            assert result.error_type == "DeadlineExceededError"


class TestWorkerCrash:
    def test_crash_costs_exactly_one_document(
        self, exp2_fresh_pair, tmp_path
    ):
        names = ["doc0", "doc1", "docCRASH", "doc3", "doc4", "doc5"]
        paths = write_valid_pos(tmp_path, names)
        batch = validate_batch(
            exp2_fresh_pair,
            sorted(paths.values()),
            jobs=3,
            fault_hook=crash_hook,
        )
        results = by_name(batch)
        assert results["docCRASH.xml"].error_type == "WorkerCrash"
        assert "died" in results["docCRASH.xml"].error
        for name in names:
            if "CRASH" not in name:
                assert results[f"{name}.xml"].ok, name
        assert batch.total == len(names)

    def test_two_crashes_still_only_cost_themselves(
        self, exp2_fresh_pair, tmp_path
    ):
        names = ["a0", "aCRASH1", "a2", "aCRASH2", "a4", "a5"]
        paths = write_valid_pos(tmp_path, names)
        batch = validate_batch(
            exp2_fresh_pair,
            sorted(paths.values()),
            jobs=2,
            fault_hook=crash_hook,
        )
        results = by_name(batch)
        crashed = [n for n, r in results.items() if r.error_type == "WorkerCrash"]
        assert sorted(crashed) == ["aCRASH1.xml", "aCRASH2.xml"]
        for name in ("a0", "a2", "a4", "a5"):
            assert results[f"{name}.xml"].ok, name


class TestMidChunkCrash:
    """A worker killed partway through a multi-document chunk."""

    def test_chunk_tail_is_recovered_and_culprit_named(
        self, exp2_fresh_pair, tmp_path
    ):
        # One worker, one chunk holding the whole batch, victim in the
        # middle: the documents before it were already reported when
        # the worker dies; the victim re-runs alone on a fresh worker
        # and the tail is dispatched again, which must blame exactly
        # the victim.
        names = ["m0", "m1", "mKILLMID", "m3", "m4", "m5"]
        paths = write_valid_pos(tmp_path, names)
        ordered = sorted(paths.values())
        batch = validate_batch(
            exp2_fresh_pair,
            ordered,
            jobs=2,
            chunk_size=len(ordered),
            fault_hook=midchunk_crash_hook,
        )
        results = by_name(batch)
        assert results["mKILLMID.xml"].error_type == "WorkerCrash"
        for name in names:
            if "KILLMID" not in name:
                assert results[f"{name}.xml"].ok, name
        assert batch.total == len(names)

    def test_midchunk_crash_keeps_checkpoint_consistent(
        self, exp2_fresh_pair, tmp_path
    ):
        names = ["c0", "c1", "cKILLMID", "c3", "c4"]
        paths = write_valid_pos(tmp_path, names)
        ordered = sorted(paths.values())
        journal = str(tmp_path / "crash.ckpt.jsonl")
        batch = validate_batch(
            exp2_fresh_pair,
            ordered,
            jobs=2,
            chunk_size=len(ordered),
            fault_hook=midchunk_crash_hook,
            checkpoint=journal,
        )
        # Every document — including the crash verdict — is journaled
        # exactly once, so a resume restores the whole batch verbatim
        # without re-running the fault hook.
        resumed = validate_batch(
            exp2_fresh_pair,
            ordered,
            checkpoint=journal,
            resume=True,
        )
        assert resumed.resumed == len(names)
        assert resumed.results == batch.results


class TestSpawnRouteFaults:
    """The artifact/shared-memory transport path (workers that cannot
    inherit the pair by fork) under the same fault contract."""

    def test_spawn_fleet_validates_and_isolates_crash(
        self, exp2_fresh_pair, tmp_path
    ):
        from repro.core.fleet import FleetConfig, WorkerFleet

        names = ["s0", "s1", "sCRASH", "s3"]
        paths = write_valid_pos(tmp_path, names)
        with WorkerFleet(
            exp2_fresh_pair,
            2,
            config=FleetConfig(fault_hook=crash_hook),
            start_method="spawn",
        ) as fleet:
            batch = validate_batch(
                exp2_fresh_pair,
                sorted(paths.values()),
                fleet=fleet,
                fault_hook=crash_hook,
            )
            assert fleet.transport.pickle_count <= 1
        results = by_name(batch)
        assert results["sCRASH.xml"].error_type == "WorkerCrash"
        for name in ("s0", "s1", "s3"):
            assert results[f"{name}.xml"].ok, name


class TestUnexpectedException:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_bug_is_reported_not_fatal(self, exp2_fresh_pair, tmp_path, jobs):
        paths = write_valid_pos(tmp_path, ["ok0", "okBUG", "ok2"])
        batch = validate_batch(
            exp2_fresh_pair,
            sorted(paths.values()),
            jobs=jobs,
            fault_hook=bug_hook,
        )
        results = by_name(batch)
        bug = results["okBUG.xml"]
        assert bug.error_type == "RuntimeError"
        assert bug.error.startswith("unexpected RuntimeError")
        assert results["ok0.xml"].ok and results["ok2.xml"].ok


class TestTransientIO:
    def test_retry_consumes_the_fuse(self, exp2_fresh_pair, tmp_path):
        paths = write_valid_pos(tmp_path, ["flaky", "steady"])
        arm_fuse(paths["flaky"])
        batch = validate_batch(
            exp2_fresh_pair,
            sorted(paths.values()),
            jobs=1,
            retries=1,
            fault_hook=fuse_oserror_hook,
        )
        results = by_name(batch)
        assert results["flaky.xml"].ok
        assert results["flaky.xml"].attempts == 2
        assert results["steady.xml"].attempts == 1

    def test_no_retries_records_the_oserror(self, exp2_fresh_pair, tmp_path):
        paths = write_valid_pos(tmp_path, ["flaky"])
        arm_fuse(paths["flaky"])
        batch = validate_batch(
            exp2_fresh_pair,
            list(paths.values()),
            jobs=1,
            retries=0,
            fault_hook=fuse_oserror_hook,
        )
        assert batch.results[0].error_type == "OSError"
        assert batch.results[0].attempts == 1

    def test_retries_must_be_non_negative(self, exp2_fresh_pair):
        with pytest.raises(ValueError, match="retries"):
            validate_batch(exp2_fresh_pair, [], retries=-1)


class TestValidateDirectory:
    def test_missing_directory_raises_batch_error(self, exp2_fresh_pair):
        with pytest.raises(BatchError, match="does not exist"):
            validate_directory(exp2_fresh_pair, "/no/such/dir")

    def test_file_as_directory_raises_batch_error(
        self, exp2_fresh_pair, tmp_path
    ):
        path = tmp_path / "file.xml"
        path.write_text("<a/>")
        with pytest.raises(BatchError):
            validate_directory(exp2_fresh_pair, str(path))

    def test_non_file_entries_are_skipped(self, exp2_fresh_pair, tmp_path):
        paths = write_valid_pos(tmp_path, ["real"])
        (tmp_path / "sub.xml").mkdir()  # a directory whose name matches
        batch = validate_directory(exp2_fresh_pair, str(tmp_path))
        assert [r.path for r in batch.results] == [paths["real"]]

    def test_limits_reach_the_workers(self, exp2_fresh_pair, tmp_path):
        write_corpus(tmp_path)
        batch = validate_directory(
            exp2_fresh_pair, str(tmp_path), jobs=2, limits=CORPUS_LIMITS
        )
        results = by_name(batch)
        for name in ADVERSARIAL_CASES:
            assert (
                results[f"{name}.xml"].error_type
                == expected_error(name).__name__
            )


class TestStreamingGuards:
    def test_streaming_cast_rejects_oversized_text(self, exp2_fresh_pair):
        validator = StreamingCastValidator(
            exp2_fresh_pair, limits=CORPUS_LIMITS
        )
        with pytest.raises(DocumentTooLargeError):
            validator.validate_text(oversized_document(20_000))
