"""Span recording around the public entry points of each layer.

Spans are measured from *outside* the program: :func:`install` replaces
a fixed list of public functions and methods with thin wrappers, and
nothing under ``src/`` changes.  Each span records its name, start and
end (``time.perf_counter``), the span that was open on the same thread
when it began (its parent), a request id, whether the call raised, and
an optional value (bytes, for the document-level and skim spans).

Spans stay in memory and are written as JSON lines when the process
ends: the main process from ``launch.py`` after the CLI returns,
each forked fleet worker from a ``multiprocessing`` finalizer that runs
when the worker returns from its loop.

:func:`load` and :func:`summarize` are the reading side: they merge the
per-process files and compute per-name durations and self time (a
span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

__all__ = ["Recorder", "install", "load", "summarize"]

#: (module, attribute, span name) — module-level functions.  Every
#: ``repro`` module that imported the function by name is re-pointed at
#: the wrapper too, so ``from x import f`` call sites are covered.
FUNCTIONS = (
    ("repro.xmltree.parser", "parse", "xmltree.parser.parse"),
    ("repro.core.validator", "validate_document", "core.validator.validate"),
    ("repro.core.cast", "cast_text", "core.cast.cast_text"),
    ("repro.service.diagnostics", "report_payload",
     "service.diagnostics.payload"),
    ("repro.service.work", "apply_mods", "service.work.apply_mods"),
    ("repro.schema.xsd", "parse_xsd", "schema.xsd.parse"),
)

#: (module, class, method, span name).
METHODS = (
    ("repro.service.server", "ValidationService", "dispatch_post",
     "service.server.dispatch"),
    ("repro.service.admission", "AdmissionController", "acquire",
     "service.admission.wait"),
    ("repro.xmltree.lexer", "Scanner", "skim_subtree",
     "xmltree.lexer.skim"),
    ("repro.core.castmods", "CastWithModificationsValidator", "validate",
     "core.castmods.validate"),
    ("repro.schema.chain", "SchemaChain", "cast_text",
     "schema.chain.cast"),
    ("repro.schema.chain", "SchemaChain", "sequential_cast_text",
     "schema.chain.sequential"),
    ("repro.core.streaming", "StreamingCastValidator", "validate_pull",
     "core.streaming.validate_pull"),
    ("repro.core.cast", "CastValidator", "validate", "core.cast.validate"),
    ("repro.schema.registry", "SchemaPair", "__init__",
     "schema.registry.pair"),
    ("repro.schema.registry", "SchemaPair", "warm", "schema.registry.warm"),
    ("repro.core.fleet", "WorkerFleet", "__init__", "core.fleet.spawn"),
    ("repro.core.fleet", "WorkerFleet", "validate", "core.fleet.validate"),
)


def _request_id(args, kwargs):
    """``dispatch_post(self, route, request, deadline)`` → the client's
    ``rid`` body field."""
    request = args[2] if len(args) > 2 else kwargs.get("request")
    return request.get("rid") if isinstance(request, dict) else None


def _text_length(args, kwargs, result):
    text = args[0] if args else kwargs.get("text")
    return len(text) if isinstance(text, str) else None


def _cast_text_length(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs.get("text")
    return len(text) if isinstance(text, str) else None


def _pull_length(args, kwargs, result):
    pull = args[1] if len(args) > 1 else kwargs.get("pull")
    return len(pull.scanner.text)


#: Span name → callable giving the span's value from the call (the
#: document length for document-level spans).  A skim span's value is
#: the distance its cursor moved, computed inside the wrapper.
VALUES = {
    "xmltree.parser.parse": _text_length,
    "core.cast.cast_text": _cast_text_length,
    "core.streaming.validate_pull": _pull_length,
}


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func):
        value_of = VALUES.get(name)
        rid_of = _request_id if name == "service.server.dispatch" else None
        skim = name == "xmltree.lexer.skim"
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            # A top-level span (a batch document, a set-up step) starts
            # its own request, numbered below zero so it never meets a
            # client's id; a dispatch span takes the client's id.
            parent, rid = stack[-1] if stack else (0, -sid)
            if rid_of is not None:
                rid = rid_of(args, kwargs)
            stack.append((sid, rid))
            if skim:
                pos = args[1] if len(args) > 1 else kwargs.get("pos")
                start_pos = args[0].pos if pos is None else pos
            ok = False
            value = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                if ok and skim:
                    value = result - start_pos
                elif ok and value_of is not None:
                    value = value_of(args, kwargs, result)
                spans.append((sid, name, start, end, parent, rid, ok, value))
            return result

        return wrapper

    def reset_in_child(self) -> None:
        """After a fork: drop the parent's spans, keep the wrappers."""
        self.spans.clear()
        self._local = threading.local()
        self.pid = os.getpid()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps((self.pid,) + span) + "\n")


def _repoint(original, wrapper) -> None:
    """Replace every by-name reference to ``original`` in loaded
    ``repro`` modules."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper


def install(recorder: Recorder, span_dir: str) -> None:
    """Wrap every listed entry point; forked workers dump their own
    spans into ``span_dir`` when they exit."""
    import importlib
    import multiprocessing.util as mp_util

    # Import every module that binds a wrapped function by name before
    # re-pointing, so none keeps a reference to the unwrapped original.
    for module in (
        "repro.cli", "repro.service.server", "repro.service.work",
        "repro.service.registry", "repro.core.fleet", "repro.core.batch",
        "repro.workloads.purchase_orders", "repro.schema.chain",
        "repro.core.streaming", "repro.core.castmods",
    ):
        importlib.import_module(module)
    for module_name, attr, span in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        _repoint(original, recorder.wrap(span, original))
    for module_name, cls_name, attr, span in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, recorder.wrap(span, cls.__dict__[attr]))

    def after_fork(rec: Recorder) -> None:
        rec.reset_in_child()
        mp_util.Finalize(
            rec,
            rec.dump,
            args=(os.path.join(span_dir, f"spans-{os.getpid()}.jsonl"),),
            exitpriority=10,
        )

    mp_util.register_after_fork(recorder, after_fork)


# -- reading side -----------------------------------------------------------


def load(span_dir: str) -> list[tuple]:
    """Every span written under ``span_dir``:
    ``(pid, id, name, start, end, parent, rid, ok, value)``."""
    spans = []
    for entry in sorted(os.listdir(span_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(span_dir, entry), encoding="utf-8") as f:
                spans.extend(tuple(json.loads(line)) for line in f)
    return spans


def summarize(spans: list[tuple]) -> dict:
    """Per span name: call count, failures, inclusive and self
    durations (seconds, one per call), values, and inclusive time per
    request id."""
    child_time: dict[tuple, float] = {}
    for pid, _sid, _name, start, end, parent, *_ in spans:
        if parent:
            key = (pid, parent)
            child_time[key] = child_time.get(key, 0.0) + (end - start)
    by_name: dict[str, dict] = {}
    for pid, sid, name, start, end, parent, rid, ok, value in spans:
        entry = by_name.setdefault(
            name,
            {"calls": 0, "failed": 0, "incl": [], "self": [], "values": [],
             "by_rid": {}},
        )
        duration = end - start
        entry["calls"] += 1
        entry["failed"] += 0 if ok else 1
        entry["incl"].append(duration)
        entry["self"].append(duration - child_time.get((pid, sid), 0.0))
        if value is not None:
            entry["values"].append(value)
        if rid is not None:
            entry["by_rid"][rid] = entry["by_rid"].get(rid, 0.0) + duration
    return by_name
