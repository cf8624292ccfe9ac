"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--workload all`` runs every workload
listed in BENCHMARK.json in turn.  Workloads (see BENCHMARK.json for why
each exists):

* ``serve-mix``  — keep-alive ``repro serve`` under a closed loop of
  /cast, /validate, /cast-with-mods and /cast-chain requests;
* ``batch-walk`` — ``repro cast DIR --stream-skip`` on the
  zero-subsumption pair;
* ``batch-dom``  — ``repro cast DIR`` with CLI defaults on Experiment 2;
* ``batch-skim`` — ``repro cast DIR --stream-skip`` on Experiment 1.
  Runnable by name but not in BENCHMARK.json: it is bound by memory
  bandwidth, and on a shared 2-vCPU host its ten-run spread reached
  45-56% of the median, beyond any bound the benchmark may set.

Inputs are generated from ``--seed``; every verdict is checked against
the one fixed at generation, and a wrong verdict, or a CLI run that
ends without verdicts, fails the run (exit 1, ``"correct": false``).
CPU-bound times (every ``setup_s``, and batch throughput) are scaled
to reference host speed: a pinned pure-Python pass on every CPU
brackets each timed CLI run (``measure.HostSpeed``), so a shared host's
slow spells do not read as slow code.  With ``--trace 0`` the last
line carries the end-to-end metrics; with ``--trace 1`` half the time
runs untraced and half under ``launch.py``'s span wrappers, and the
last line carries the per-layer metrics (tracing overhead included).
Scratch files live in ``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

from measure import REF_MS, median

ROOT = os.getcwd()
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("serve-mix", "batch-walk", "batch-dom", "batch-skim")

#: End-to-end metric → unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
}
#: serve-mix only, printed with the end-to-end table.
SERVE_ONLY = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cast_p50_ms": "ms",
    "validate_p50_ms": "ms",
    "mods_p50_ms": "ms",
    "chain_p50_ms": "ms",
}


def _commit() -> str:
    """HEAD of ./.git without running git (the checkout may not be a
    repository, and git would search parent directories)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)   # runs use the default backend
    env["PYTHONPATH"] = src
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    os.environ.pop("REPRO_KERNEL", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload != "all":
        outcome = _run(args.workload, args)
        print(json.dumps(outcome))
        return 0 if outcome["correct"] else 1
    # Every benchmarked workload in turn; the last line merges their
    # results, with each metric named "<workload>.<metric>".
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        listed = [w["name"] for w in json.load(f)["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in listed:
        outcome = _run(workload, args)
        print(f"result {workload}: {json.dumps(outcome)}")
        merged["correct"] = merged["correct"] and outcome["correct"]
        merged["attempted"] += outcome["attempted"]
        merged["failed"] += outcome["failed"]
        for name, metric in outcome["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def _run(workload: str, args) -> dict:
    import repro.kernel

    work = os.path.join(WORK_ROOT, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    started = time.perf_counter()
    try:
        if workload == "serve-mix":
            import serve_mix

            result = serve_mix.run(args.seed, args.seconds, bool(args.trace),
                                   _environment(), work)
        else:
            import batch

            result = batch.run(workload, args.seed, args.seconds,
                               bool(args.trace), _environment(), work)
        return _report(workload, args, result, repro.kernel.backend_name(),
                       time.perf_counter() - started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def _report(workload, args, result, backend, elapsed) -> dict:
    """Print the stamp and the tables; return the result object."""
    untraced = result["untraced"]
    stamp = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "kernel_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "reference_ms": round(median(untraced["reference_ms"]), 3),
        "ref_ms": REF_MS,
        "inputs": result["inputs"],
    }
    print(f"stamp: {json.dumps(stamp, sort_keys=True)}")
    values = {
        "setup_s": result["setup_s"],
        "ops_per_s": untraced["ops_per_s"],
        "mb_per_s": untraced["mb_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    failed_ratio = untraced["failed"] / untraced["attempted"]
    # serve-mix throughput is paced by the client's delayed-ACK wait, not
    # the CPU, so only its set-up is scaled to host speed.
    scaled = ("setup_s" if workload == "serve-mix"
              else "setup_s, ops_per_s and mb_per_s")
    print(f"end-to-end ({workload}, untraced, run {elapsed:.1f}s; {scaled} "
          f"scaled to a {REF_MS} ms reference pass, measured "
          f"{stamp['reference_ms']} ms):")
    for name, unit in END_TO_END.items():
        print(f"  {name:<18} {values[name]:>12.4f} {unit}")
    print(f"  {'failed_ratio':<18} {failed_ratio:>12.4f} 1 "
          f"({untraced['failed']}/{untraced['attempted']})")
    if workload == "serve-mix":
        for name, unit in SERVE_ONLY.items():
            count = untraced.get(name + "_n", len(untraced["latency_by_rid"]))
            print(f"  {name:<18} {untraced[name]:>12.4f} {unit} (n={count})")
        print(f"  latency tail: {untraced['latency_tail']}, "
              f"{result['clients']} closed-loop clients")
    else:
        print(f"  rounds {untraced['rounds']}, corpus wall median "
              f"{untraced['corpus_wall_s']:.3f}s, jobs {result['jobs']}")
        print(f"  probe walls {untraced['walls'][0]}")
        print(f"  corpus walls {untraced['walls'][1]}")
    correct = untraced["wrong"] == 0 and not untraced.get("broken")
    problems = list(untraced.get("problems", []))
    metrics_out = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    attempted, failed = untraced["attempted"], untraced["failed"]
    if args.trace:
        import layers

        traced = result["traced"]
        correct = (correct and traced["wrong"] == 0
                   and not traced.get("broken"))
        problems += traced.get("problems", [])
        attempted += traced["attempted"]
        failed += traced["failed"]
        layer_values, by_name = layers.compute(result)
        print(f"per-layer ({workload}, traced):")
        for line in layers.table(by_name):
            print(line)
        shown = set()
        for name, unit, meaning, moves in layers.LAYER_TABLE + layers.PER_LAYER:
            if name not in shown:
                shown.add(name)
                print(f"  {name:<44} {layer_values[name]:>12.4f} {unit:<6} "
                      f"{meaning} -> {moves}")
        if workload == "serve-mix":
            _print_attribution(traced, layer_values)
        metrics_out = {name: {"value": layer_values[name], "unit": unit}
                       for name, unit, _, _ in layers.PER_LAYER}
    for problem in problems:
        print(f"problem: {problem}")
    if not correct:
        print("error: wrong verdicts or failed runs; see problem lines "
              "above",
              file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics_out}


def _print_attribution(traced, layer_values) -> None:
    latency = traced["latency_p50_ms"]
    dispatch = layer_values["service.server.dispatch_ms"]
    unattributed = layer_values["service.server.unattributed_ms"]
    print(
        f"  attribution: client p50 {latency:.3f} ms = dispatch p50 "
        f"{dispatch:.3f} + unattributed p50 {unattributed:.3f} "
        f"({(dispatch + unattributed) / latency:.1%} accounted); "
        f"unattributed share of all client time "
        f"{layer_values['service.server.unattributed_share']:.1%}"
    )
    print(f"  traced ops_per_s {traced['ops_per_s']:.3f}, overhead "
          f"{layer_values['trace.overhead_share']:.1%}")


if __name__ == "__main__":
    sys.exit(main())
