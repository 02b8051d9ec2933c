"""The repository benchmark: ``python3 perfbench/run.py --workload <name>``.

Run from the repository root. Builds the system from ``src/``, runs one
workload (or ``all`` of them in this one process), checks the outputs,
prints every metric by name with its unit, and ends its standard output
with one JSON line::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs the same work once untraced and once with every layer wrapped,
and reports the per-layer metrics (spans are written to
``.perfbench_out/``). A failed correctness check exits with code 1.
Workloads, metrics and the layer → end-to-end table are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("serve_open", "gateway_hot", "train_zoo", "online_replay")
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "forecast_mae": "bikes",
    "forecast_rmse": "bikes",
    "ok_fraction": "fraction",
    "peak_rss_mb": "MB",
}


def _import_system() -> None:
    """Put the checkout's ``src/`` first on the path and import the package.

    Fails (and the benchmark exits nonzero before printing a result) when
    the checkout holds no source tree.
    """
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"no source tree at {source}; run from a repository checkout")
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    # Run logs are a deployment path: keep them inside the checkout.
    os.environ["REPRO_RUNLOG_DIR"] = os.path.join(OUT_DIR, "runs")
    import repro  # noqa: F401


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import importlib

    import common
    from layers import UNITS, derive, instrument
    from repro.nn import config as nn_config
    from repro.nn import engine
    from spans import Recorder

    module = importlib.import_module(name)
    setup_s, phases, stacks = common.timed_setups(module.setup, seed, keep=2 if traced else 1)
    try:
        if not traced:
            outcome = module.measure(stacks[0], seconds, seed)
            metrics = dict(outcome.metrics, setup_s=setup_s, peak_rss_mb=common.peak_rss_mb())
            units = END_TO_END_UNITS
        else:
            reference = module.measure(stacks[0], seconds, seed, reference=True)
            recorder = Recorder()
            before = engine.plan_cache_stats()
            with instrument(recorder) as op_tracer:
                outcome = module.measure(stacks[1], seconds, seed, recorder=recorder)
            after = engine.plan_cache_stats()
            os.makedirs(OUT_DIR, exist_ok=True)
            recorder.dump(os.path.join(OUT_DIR, f"{name}-seed{seed}.spans.jsonl"))
            extra = dict(outcome.layers)
            extra.update(phases)
            extra["trace.overhead_fraction"] = outcome.cost / reference.cost - 1.0
            extra["nn.plan_cache.hits"] = after["hits"] - before["hits"]
            extra["nn.plan_cache.misses"] = after["misses"] - before["misses"]
            extra["nn.arena.bytes_reused"] = after["arena_bytes_reused"] - before["arena_bytes_reused"]
            metrics = derive(recorder, op_tracer, extra)
            units = UNITS
    finally:
        for stack in stacks:
            stack.close()

    print(
        f"== {name} (seed {seed}, {seconds:g} s, trace {int(traced)}; engine "
        f"{nn_config.engine_mode()}, dtype {nn_config.dtype().__name__}, "
        f"REPRO_NUM_THREADS {nn_config.num_threads()})"
    )
    for line in outcome.report:
        print(f"  {line}")
    for check, held in outcome.checks.items():
        print(f"  check {'ok  ' if held else 'FAIL'} {check}")
    for metric, value in metrics.items():
        print(f"  {metric:<36} {value:14.6g} {units[metric]}")
    return {
        "correct": all(outcome.checks.values()),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_system()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        began = time.perf_counter()
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"  ({time.perf_counter() - began:.1f} s)")
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
