"""Printing and writing a traced run's per-layer results."""

from __future__ import annotations

import json
from typing import Any

LAYERS = ("graphs", "core", "mis", "congest", "api", "service", "fleet")


def _per_op(outcome) -> int:
    return max(1, outcome.attempted)


def print_table(workload: str, outcome, metrics: dict[str, Any], *,
                untraced_ops_per_s: float, traced_ops_per_s: float) -> None:
    """Each layer timer's calls, busy and self time per op, then coverage."""
    table = outcome.detail.get("layer_table", {})
    ops = _per_op(outcome)
    print(f"== traced {workload}: {outcome.attempted} ops attempted, "
          f"{outcome.failed} failed")
    print(f"{'timer':44s} {'calls/op':>10s} {'busy ms/op':>11s} "
          f"{'self ms/op':>11s}")
    for layer in LAYERS:
        names = sorted(name for name in table
                       if name.split(".", 1)[0] == layer
                       and table[name]["calls"])
        for name in names:
            row = table[name]
            print(f"{name:44s} {row['calls'] / ops:10.2f} "
                  f"{1e3 * row['busy_s'] / ops:11.3f} "
                  f"{1e3 * row['self_s'] / ops:11.3f}")
    coverage = metrics["trace.coverage"]["value"]
    print(f"op wall time covered by layer timers: {100 * coverage:.1f}%")
    print(f"op wall time outside every layer timer: "
          f"{100 * (1 - coverage):.1f}%")
    print(f"tracing overhead: traced {traced_ops_per_s:.4g} ops/s against "
          f"untraced {untraced_ops_per_s:.4g} ops/s "
          f"({100 * metrics['trace.overhead']['value']:.1f}% slower)")
    for name, value in metrics.items():
        print(f"  {name} = {value['value']:.6g} {value['unit']}")


def write_trace(path: str, workload: str, outcome, metrics: dict[str, Any],
                *, untraced_ops_per_s: float,
                traced_ops_per_s: float) -> None:
    """The per-layer JSON of one traced run."""
    document = {
        "workload": workload,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "untraced_ops_per_s": untraced_ops_per_s,
        "traced_ops_per_s": traced_ops_per_s,
        "metrics": metrics,
        "layer_table": outcome.detail.get("layer_table", {}),
        "detail": {key: value for key, value in outcome.detail.items()
                   if key != "layer_table"},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True, default=str)
