"""One benchmark command for the whole system.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 \\
        --trace 0

runs one workload in this process (helper processes for the serving
workloads are started and stopped here) and prints, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
benchmark-side timers.  With ``--trace 1`` the same workload is first run
untraced in a child process, then again with the layer timers of
:mod:`tracer` installed; the metrics are the per-layer ones, a per-layer
table is printed above the last line, and every span is written to
``.perfbench/trace-<workload>-<seed>.json``.

Any output that fails the independent checks of :mod:`checker` makes the
command exit non-zero.  See ``perfbench/README.md`` for the workloads,
metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import SRC, WORK, child_env  # noqa: E402

WORKLOADS = ("paper-cold", "engine-vector", "serve-churn", "fleet-hot")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric with its unit; a workload that does not reach a
#: layer reports 0 for it.
PER_LAYER = {
    "graphs.ball_calls": "count/op",
    "graphs.ball_ms": "ms/op",
    "core.derandomize_ms": "ms/op",
    "core.psi_calls": "count/op",
    "core.comm_tools_ms": "ms/op",
    "core.sparsify_ms": "ms/op",
    "core.q_size.dense": "nodes",
    "core.q_size.sparse": "nodes",
    "mis.phase_ms": "ms/op",
    "congest.network_ms": "ms/op",
    "congest.engine_ms": "ms/op",
    "congest.batch_ms": "ms/op",
    "congest.msgs_per_engine_s": "1/s",
    "congest.vector_ratio": "ratio",
    "congest.rounds": "count/op",
    "congest.messages": "count/op",
    "api.plan_ms": "ms/op",
    "api.certify_ms": "ms/op",
    "api.encode_calls": "count/op",
    "api.encode_ms": "ms/op",
    "service.server_ms": "ms/op",
    "service.client_ms": "ms/op",
    "service.cache_lookup_ms": "ms/op",
    "service.cache_put_ms": "ms/op",
    "service.store_get_ms": "ms/op",
    "service.store_put_ms": "ms/op",
    "service.hits_memory": "count/run",
    "service.hits_disk": "count/run",
    "service.misses": "count/run",
    "service.hit_ratio": "ratio",
    "service.evictions": "count/run",
    "service.compactions": "count/run",
    "service.disk_mb": "MB",
    "service.solve_ms": "ms/miss",
    "service.queue_wait_ms": "ms/miss",
    "service.coalesced": "count/run",
    "service.rejected": "count/run",
    "fleet.relay_ms": "ms/op",
    "fleet.coordinator_self_ms": "ms/op",
    "fleet.affinity_ratio": "ratio",
    "fleet.retried": "count/run",
    "fleet.stolen": "count/run",
    "fleet.warm_fetches": "count/run",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _run_workload(workload: str, seed: int, seconds: float, traced: bool):
    """Compute workloads trace in this process; serving ones in their nodes."""
    if workload in ("paper-cold", "engine-vector"):
        import compute

        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer().install()
        return compute.run(workload, seed=seed, seconds=seconds,
                           tracer=tracer)
    import serving

    return serving.run(workload, seed=seed, seconds=seconds, traced=traced)


def _untraced_ops_per_s(args) -> float:
    """Run the same workload untraced in a child process; its ``ops_per_s``."""
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        env=child_env(), stdout=subprocess.PIPE, check=True, text=True)
    last = result.stdout.strip().splitlines()[-1]
    return json.loads(last)["metrics"]["ops_per_s"]["value"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    os.environ["TMPDIR"] = WORK

    untraced = _untraced_ops_per_s(args) if args.trace else None
    outcome = _run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    correct = not outcome.problems
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, count in sorted(outcome.failures.items()):
        print(f"failed ops: {count} x {name}")

    if args.trace:
        import report

        traced = outcome.end_to_end()["ops_per_s"]
        layers = dict(outcome.layers)
        layers["trace.overhead"] = 1.0 - traced / untraced
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        report.write_trace(path, args.workload, outcome, metrics,
                           untraced_ops_per_s=untraced,
                           traced_ops_per_s=traced)
        report.print_table(args.workload, outcome, metrics,
                           untraced_ops_per_s=untraced,
                           traced_ops_per_s=traced)
        print(f"per-layer JSON: {os.path.relpath(path)}")
    else:
        values = outcome.end_to_end()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
