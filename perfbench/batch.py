"""batch-skim, batch-walk, batch-dom: ``repro cast DIR`` as shipped.

Each run writes one seeded corpus and a one-document probe directory,
then alternates two CLI invocations until the run's time is used: the
probe (its wall time is the set-up time: interpreter start, imports,
schema parse, pair build, warm-up, fleet spawn and teardown around one
2-item document) and the full corpus.  Both are CPU-bound, so their
wall times are scaled to reference host speed (:class:`HostSpeed`).
Throughput excludes set-up by subtracting the probe's median scaled
time from the corpus's, and counts only the documents that got a
verdict.  Every invocation's
printed verdicts are checked against the corpus; an invocation that
exits other than 0 or 1, or prints no summary line, fails the run.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
import time

import inputs
from measure import HostSpeed, RssWatcher, median

JOBS = 2
MIN_ROUNDS = 3

#: name → (corpus builder, documents, source schema, target schema,
#: --stream-skip).
WORKLOADS = {
    "batch-skim": (inputs.skim_orders, 800, "exp1-source", "exp1-target", True),
    "batch-walk": (inputs.walk_orders, 162, "exp2-source", "zero-target", True),
    "batch-dom": (inputs.dom_orders, 300, "exp2-source", "exp2-target", False),
}

_INVALID = re.compile(r"^(?P<path>.+?): INVALID — (?P<detail>.*)$")
_ERROR_CODE = re.compile(r" \[[a-z][a-z0-9-]*\]$")
_SUMMARY = re.compile(r"^(?P<dir>.+): (?P<valid>\d+)/(?P<total>\d+) valid ")
_MEMO = re.compile(r"^memo: (?P<hits>\d+) hits / (?P<lookups>\d+) lookups")


class Invocation:
    """One CLI run over a directory, checked against expected verdicts."""

    def __init__(self, command, env, directory, docs):
        self.docs = docs
        started = time.perf_counter()
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        watcher = RssWatcher(process.pid)
        try:
            stdout, stderr = process.communicate(timeout=150)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
            self.peak_kb = watcher.stop()
        self.wall = time.perf_counter() - started
        self.stdout, self.stderr = stdout, stderr
        self.memo = (0, 0)
        self._check(process.returncode, directory)

    def _check(self, code: int, directory: str) -> None:
        expected_invalid = {d["path"] for d in self.docs if not d["valid"]}
        listed, errored, summary = set(), set(), None
        for line in self.stdout.splitlines():
            match = _INVALID.match(line)
            if match:
                target = errored if _ERROR_CODE.search(line) else listed
                target.add(match["path"])
                continue
            match = _SUMMARY.match(line)
            if match and match["dir"] == directory:
                summary = (int(match["valid"]), int(match["total"]))
            match = _MEMO.match(line)
            if match:
                self.memo = (int(match["hits"]), int(match["lookups"]))
        self.problem = None
        self.broken = code not in (0, 1) or summary is None
        if self.broken:
            # No verdicts to count: the run as a whole failed.
            self.failed, self.wrong, self.verdicted = len(self.docs), 0, []
            self.problem = (f"exit {code}, summary line "
                            f"{'missing' if summary is None else 'present'}: "
                            f"{self.stderr.strip()[-400:]}")
            return
        self.failed = len(errored)
        self.verdicted = [d for d in self.docs if d["path"] not in errored]
        wrong = (listed - expected_invalid) | (
            expected_invalid - listed - errored
        )
        self.wrong = len(wrong)
        expected_code = 1 if expected_invalid or errored else 0
        if code != expected_code or summary != (
            len(self.docs) - len(listed) - len(errored), len(self.docs)
        ):
            self.wrong = max(self.wrong, 1)
        if self.wrong:
            self.problem = f"{self.wrong} wrong verdict(s) in {directory}"


def _rounds(commands, env, corpus, probe, seconds):
    """Alternate probe and corpus invocations for ``seconds`` (at least
    MIN_ROUNDS each), scaling each one's wall time to host speed."""
    probes, fulls = [], []
    speed = HostSpeed()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(fulls) < MIN_ROUNDS:
        for (directory, docs), done in ((probe, probes), (corpus, fulls)):
            invocation = Invocation(commands(directory), env, directory, docs)
            invocation.scaled = speed.scale(invocation.wall)
            done.append(invocation)
    return probes, fulls, speed.references


def _summarize(probes, fulls, references) -> dict:
    """Throughput counts only verdicted documents (errored ones are
    failures), per corpus invocation over the marginal scaled time."""
    everything = probes + fulls
    setup = median([p.scaled for p in probes])
    marginal = median([f.scaled for f in fulls]) - setup
    problems = [i.problem for i in everything if i.problem]
    broken = sum(i.broken for i in everything)
    if marginal <= 0 and not broken:
        broken = 1
        problems.append(f"corpus wall {marginal + setup:.3f}s is no more "
                        f"than the probe's {setup:.3f}s")
    done = median([len(f.verdicted) for f in fulls])
    done_bytes = median([sum(d["bytes"] for d in f.verdicted) for f in fulls])
    return {
        "wrong": sum(i.wrong for i in everything),
        "broken": broken,
        "problems": problems,
        "attempted": sum(len(i.docs) for i in everything),
        "failed": sum(i.failed for i in everything),
        "setup_s": setup,
        "ops_per_s": done / marginal if marginal > 0 else 0.0,
        "mb_per_s": done_bytes / marginal / 1e6 if marginal > 0 else 0.0,
        "peak_rss_mb": median([f.peak_kb for f in fulls]) / 1024.0,
        "rounds": len(fulls),
        "corpus_wall_s": median([f.wall for f in fulls]),
        "walls": ([round(p.wall, 3) for p in probes],
                  [round(f.wall, 3) for f in fulls]),
        "reference_ms": references,
        "memo": [sum(f.memo[0] for f in fulls), sum(f.memo[1] for f in fulls)],
    }


def run(name: str, seed: int, seconds: float, trace: bool, env: dict,
        work: str) -> dict:
    build, count, source, target, stream_skip = WORKLOADS[name]
    schemas = inputs.write_schemas(os.path.join(work, "schemas"))
    orders = build(random.Random(seed), count)
    corpus_dir = os.path.join(work, "corpus")
    probe_dir = os.path.join(work, "probe")
    corpus_docs = inputs.write_corpus(corpus_dir, orders, 100)
    probe_docs = inputs.write_corpus(
        probe_dir, [inputs.probe_order()], 100
    )
    args = ["cast", None, "--source", schemas[source],
            "--target", schemas[target], "--jobs", str(JOBS)]
    if stream_skip:
        args.append("--stream-skip")

    def plain(directory):
        return [sys.executable, "-m", "repro",
                *[directory if a is None else a for a in args]]

    phase_seconds = seconds / 2 if trace else seconds
    out = {"untraced": _summarize(*_rounds(
        plain, env, (corpus_dir, corpus_docs), (probe_dir, probe_docs),
        phase_seconds,
    )), "jobs": JOBS}
    out["setup_s"] = out["untraced"]["setup_s"]
    out["peak_rss_mb"] = out["untraced"]["peak_rss_mb"]
    if trace:
        launcher = os.path.join(os.path.dirname(__file__), "launch.py")
        span_root = os.path.join(work, "spans")
        counter = itertools.count()

        def traced(directory):
            span_dir = os.path.join(span_root, f"run-{next(counter):04d}")
            os.makedirs(span_dir)
            return [sys.executable, launcher, span_dir,
                    *[directory if a is None else a for a in args]]

        out["traced"] = _summarize(*_rounds(
            traced, env, (corpus_dir, corpus_docs), (probe_dir, probe_docs),
            phase_seconds,
        ))
        out["span_dir"] = span_root
    pair = _pair(source, target)
    out["inputs"] = inputs.properties(
        pair, [(o, d["data"], d["valid"]) for o, d in zip(orders, corpus_docs)]
    )
    return out


def _pair(source: str, target: str):
    from repro.schema.registry import SchemaPair
    from repro.schema.xsd import parse_xsd

    return SchemaPair(parse_xsd(inputs.SCHEMAS[source]),
                      parse_xsd(inputs.SCHEMAS[target]))
