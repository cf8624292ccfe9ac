"""Per-layer metrics from the spans of a traced run.

Two lists, each entry naming the end-to-end metric it should move:

* :data:`LAYER_TABLE` — per-call times and counts for every layer,
  printed for every workload; a layer the workload does not exercise
  reads 0 there (its span row shows 0 calls).
* :data:`PER_LAYER` — the result line's metrics (BENCHMARK.json
  ``per_layer``): each request-path layer's self time as a share of the
  time the workload's callers waited, the ratios and counts, and the
  set-up times every workload pays.  A time that only some workloads
  spend is carried as a share, so no workload reports a time that is
  always 0.
"""

from __future__ import annotations

import os

import spans as span_io
from measure import median, percentile, tail

#: (name, unit, what it is, end-to-end metric it should move).
LAYER_TABLE = (
    ("service.server.dispatch_ms", "ms",
     "p50 of ValidationService.dispatch_post", "latency_p50_ms"),
    ("service.server.unattributed_ms", "ms",
     "p50 per request of client latency minus its dispatch span "
     "(socket, HTTP framing, JSON, write)", "latency_p50_ms, ops_per_s"),
    ("service.server.unattributed_share", "ratio",
     "sum of unattributed time / sum of client latency",
     "latency_p50_ms, ops_per_s"),
    ("service.admission.wait_ms", "ms",
     "p99 of AdmissionController.acquire", "latency_p99_ms"),
    ("service.admission.shed", "count",
     "acquire calls that raised (shed 503/429)", "failed_ratio"),
    ("service.diagnostics.payload_ms", "ms", "p50 of report_payload",
     "latency_p50_ms"),
    ("core.cast.cast_text_ms", "ms", "p50 of cast_text", "cast_p50_ms"),
    ("xmltree.lexer.skim_ms", "ms", "p50 of Scanner.skim_subtree",
     "cast_p50_ms, chain_p50_ms (mb_per_s on batch-skim)"),
    ("xmltree.lexer.skim_calls", "count", "Scanner.skim_subtree calls",
     "cast_p50_ms, chain_p50_ms (mb_per_s on batch-skim)"),
    ("xmltree.lexer.skim_byte_share", "ratio",
     "skim cursor advance / length of documents entering cast_text or "
     "validate_pull", "cast_p50_ms, chain_p50_ms (mb_per_s on batch-skim)"),
    ("xmltree.parser.parse_ms", "ms",
     "p50 of xmltree.parser.parse on documents (not schemas)",
     "validate_p50_ms, mods_p50_ms, ops_per_s (batch-dom)"),
    ("core.validator.validate_ms", "ms", "p50 of validate_document",
     "validate_p50_ms"),
    ("core.castmods.validate_ms", "ms",
     "p50 of CastWithModificationsValidator.validate", "mods_p50_ms"),
    ("service.work.apply_mods_ms", "ms", "p50 of apply_mods", "mods_p50_ms"),
    ("schema.chain.cast_ms", "ms", "p50 of SchemaChain.cast_text",
     "chain_p50_ms"),
    ("schema.chain.fallback_share", "ratio",
     "SchemaChain.cast_text calls reaching sequential_cast_text",
     "chain_p50_ms"),
    ("core.streaming.validate_pull_ms", "ms",
     "p50 per document of StreamingCastValidator.validate_pull",
     "mb_per_s (batch-walk)"),
    ("core.streaming.validate_pull_p99_ms", "ms",
     "p99 per document of StreamingCastValidator.validate_pull",
     "mb_per_s (batch-walk)"),
    ("core.cast.validate_ms", "ms",
     "p50 per document of CastValidator.validate", "ops_per_s (batch-dom)"),
    ("core.cast.validate_p99_ms", "ms",
     "p99 per document of CastValidator.validate", "ops_per_s (batch-dom)"),
    ("core.memo.hit_ratio", "ratio",
     "ValidationMemo hits / lookups, as the CLI prints them",
     "ops_per_s (batch-dom)"),
    ("core.fleet.busy_share", "ratio",
     "worker per-document spans / (WorkerFleet.validate wall x jobs)",
     "ops_per_s (batch)"),
    ("schema.xsd.parse_s", "s", "parse_xsd per process", "setup_s"),
    ("schema.registry.pair_s", "s", "SchemaPair construction (self time) "
     "per process", "setup_s"),
    ("schema.registry.warm_s", "s", "SchemaPair.warm (self time) per "
     "process", "setup_s"),
    ("core.fleet.spawn_s", "s", "WorkerFleet construction minus its warm "
     "per process", "setup_s"),
    ("trace.overhead_share", "ratio",
     "1 - traced ops_per_s / untraced ops_per_s", "(tracing cost)"),
)


#: Request-path spans → the end-to-end metric their share should move.
SHARE_SPANS = (
    ("service.server.dispatch", "latency_p50_ms"),
    ("service.admission.wait", "latency_p99_ms"),
    ("service.diagnostics.payload", "latency_p50_ms"),
    ("core.cast.cast_text", "cast_p50_ms"),
    ("xmltree.lexer.skim",
     "cast_p50_ms, chain_p50_ms (mb_per_s on batch-skim)"),
    ("xmltree.parser.parse", "validate_p50_ms, mods_p50_ms, "
     "ops_per_s (batch-dom)"),
    ("core.validator.validate", "validate_p50_ms"),
    ("core.castmods.validate", "mods_p50_ms"),
    ("service.work.apply_mods", "mods_p50_ms"),
    ("schema.chain.cast", "chain_p50_ms"),
    ("core.streaming.validate_pull", "mb_per_s (batch-walk)"),
    ("core.cast.validate", "ops_per_s (batch-dom)"),
)

#: LAYER_TABLE entries that also go in the result line: ratios, counts,
#: and the set-up times that every workload spends.
_KEPT = ("service.server.unattributed_share","service.admission.shed",
         "xmltree.lexer.skim_calls", "xmltree.lexer.skim_byte_share",
         "schema.chain.fallback_share", "core.memo.hit_ratio",
         "core.fleet.busy_share", "schema.xsd.parse_s",
         "schema.registry.pair_s", "schema.registry.warm_s",
         "trace.overhead_share")

PER_LAYER = tuple(
    (f"{span}.self_share", "ratio",
     f"self time in {span} / time callers waited (client latency; "
     "batch wall x jobs)", moves)
    for span, moves in SHARE_SPANS
) + tuple(entry for entry in LAYER_TABLE if entry[0] in _KEPT)


def _ms(values):
    return [v * 1000.0 for v in values]


def _load_runs(span_dir: str) -> list[list[tuple]]:
    """One span list per traced process tree (a batch has one directory
    per CLI invocation; a server run writes straight into span_dir)."""
    entries = sorted(os.listdir(span_dir))
    runs = [os.path.join(span_dir, e) for e in entries
            if os.path.isdir(os.path.join(span_dir, e))]
    return [span_io.load(run) for run in runs] or [span_io.load(span_dir)]


def compute(result: dict) -> tuple[dict, dict]:
    """Returns (metric name → value, span name → summary)."""
    runs = _load_runs(result["span_dir"])
    everything = [span for run in runs for span in run]
    by_name = span_io.summarize(everything)
    empty = {"calls": 0, "failed": 0, "incl": [], "self": [], "values": [],
             "by_rid": {}}

    def get(name):
        return by_name.get(name, empty)

    metrics = {}
    dispatch = get("service.server.dispatch")
    metrics["service.server.dispatch_ms"] = median(_ms(dispatch["incl"]))
    client = result.get("traced", {}).get("latency_by_rid", {})
    joined = [(client[rid], seconds * 1000.0)
              for rid, seconds in dispatch["by_rid"].items() if rid in client]
    metrics["service.server.unattributed_ms"] = median(
        [latency - inside for latency, inside in joined]
    )
    total_latency = sum(latency for latency, _ in joined)
    metrics["service.server.unattributed_share"] = (
        sum(latency - inside for latency, inside in joined) / total_latency
        if total_latency else 0.0
    )
    wait = get("service.admission.wait")
    metrics["service.admission.wait_ms"] = percentile(_ms(wait["incl"]), 99.0)
    metrics["service.admission.shed"] = wait["failed"]
    metrics["service.diagnostics.payload_ms"] = median(
        _ms(get("service.diagnostics.payload")["incl"]))
    metrics["core.cast.cast_text_ms"] = median(
        _ms(get("core.cast.cast_text")["incl"]))
    skim = get("xmltree.lexer.skim")
    metrics["xmltree.lexer.skim_ms"] = median(_ms(skim["incl"]))
    metrics["xmltree.lexer.skim_calls"] = skim["calls"]
    read = (sum(get("core.cast.cast_text")["values"])
            + sum(get("core.streaming.validate_pull")["values"]))
    metrics["xmltree.lexer.skim_byte_share"] = (
        sum(skim["values"]) / read if read else 0.0
    )
    # Document parses only: parse_xsd runs the same parser over the
    # schema text, and those calls belong to set-up.
    schema_parses = {(pid, sid) for pid, sid, name, *_ in everything
                     if name == "schema.xsd.parse"}
    request_path = [s for s in everything
                    if not (s[2] == "xmltree.parser.parse"
                            and (s[0], s[5]) in schema_parses)
                    and (not client or s[6] in client)]
    metrics["xmltree.parser.parse_ms"] = median(
        _ms(span_io.summarize(request_path)
            .get("xmltree.parser.parse", empty)["incl"]))
    metrics["core.validator.validate_ms"] = median(
        _ms(get("core.validator.validate")["incl"]))
    metrics["core.castmods.validate_ms"] = median(
        _ms(get("core.castmods.validate")["incl"]))
    metrics["service.work.apply_mods_ms"] = median(
        _ms(get("service.work.apply_mods")["incl"]))
    chain = get("schema.chain.cast")
    metrics["schema.chain.cast_ms"] = median(_ms(chain["incl"]))
    metrics["schema.chain.fallback_share"] = (
        get("schema.chain.sequential")["calls"] / chain["calls"]
        if chain["calls"] else 0.0
    )
    pull = _ms(get("core.streaming.validate_pull")["incl"])
    metrics["core.streaming.validate_pull_ms"] = median(pull)
    metrics["core.streaming.validate_pull_p99_ms"] = percentile(pull, 99.0)
    cast = _ms(get("core.cast.validate")["incl"])
    metrics["core.cast.validate_ms"] = median(cast)
    metrics["core.cast.validate_p99_ms"] = percentile(cast, 99.0)
    hits, lookups = result.get("traced", {}).get("memo", (0, 0))
    metrics["core.memo.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["core.fleet.busy_share"] = _busy_share(runs, result.get("jobs", 1))
    metrics.update(_setup(runs))
    jobs = result.get("jobs", 1)
    waited = (sum(client.values()) / 1000.0 if client else
              jobs * sum(get("core.fleet.validate")["incl"]))
    by_path = span_io.summarize(request_path)
    # Admission runs before the body (and its rid) is read, so its spans
    # carry no client rid and are taken unfiltered.
    by_path["service.admission.wait"] = get("service.admission.wait")
    for span, _ in SHARE_SPANS:
        own = sum(by_path.get(span, empty)["self"])
        metrics[f"{span}.self_share"] = own / waited if waited else 0.0
    untraced = result["untraced"]["ops_per_s"]
    traced = result.get("traced", {}).get("ops_per_s", untraced)
    metrics["trace.overhead_share"] = 1.0 - traced / untraced
    return metrics, by_name


def _main_pid(run) -> int:
    """The CLI or server process: the one whose spans include the
    schema parse (fleet workers inherit the pair and parse nothing)."""
    for pid, _sid, name, *_ in run:
        if name == "schema.xsd.parse":
            return pid
    return run[0][0] if run else 0


def _busy_share(runs, jobs: int) -> float:
    busy = wall = 0.0
    for run in runs:
        main = _main_pid(run)
        for pid, _sid, name, start, end, parent, *_ in run:
            if pid == main:
                if name == "core.fleet.validate":
                    wall += end - start
            elif not parent:
                busy += end - start
    return busy / (wall * jobs) if wall else 0.0


def _setup(runs) -> dict:
    """Per main process: parse (inclusive), pair and warm (self time),
    fleet spawn (self time: construction minus the warm inside it);
    the median over processes."""
    per_process = {"schema.xsd.parse_s": [], "schema.registry.pair_s": [],
                   "schema.registry.warm_s": [], "core.fleet.spawn_s": []}
    names = {"schema.xsd.parse": ("schema.xsd.parse_s", "incl"),
             "schema.registry.pair": ("schema.registry.pair_s", "self"),
             "schema.registry.warm": ("schema.registry.warm_s", "self"),
             "core.fleet.spawn": ("core.fleet.spawn_s", "self")}
    for run in runs:
        main = _main_pid(run)
        # Set-up ends where the first request or batch begins; warm()
        # calls made per request after that are not set-up.
        ready = min((s[3] for s in run if s[0] == main and s[2] in (
            "service.server.dispatch", "core.fleet.validate")),
            default=float("inf"))
        summary = span_io.summarize(
            [s for s in run if s[0] == main and s[3] < ready]
        )
        for span, (metric, kind) in names.items():
            per_process[metric].append(
                sum(summary.get(span, {}).get(kind, []))
            )
    return {metric: median(values) for metric, values in per_process.items()}


def table(by_name: dict) -> list[str]:
    """The per-span table: calls, failures, inclusive p50 and tail, self
    p50 and total self time."""
    lines = [
        f"  {'span':<34} {'calls':>7} {'fail':>5} {'p50 ms':>9} "
        f"{'tail ms':>16} {'self p50':>9} {'self tot s':>10}"
    ]
    for name in sorted(by_name):
        entry = by_name[name]
        incl = _ms(entry["incl"])
        label, value = tail(incl)
        lines.append(
            f"  {name:<34} {entry['calls']:>7} {entry['failed']:>5} "
            f"{median(incl):>9.3f} {label + '=' + format(value, '.3f'):>16} "
            f"{median(_ms(entry['self'])):>9.3f} {sum(entry['self']):>10.3f}"
        )
    return lines
