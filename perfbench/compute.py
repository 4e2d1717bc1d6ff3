"""The compute workloads: ``paper-cold`` and ``engine-vector``.

Both call the library in-process, one op after another.  An op is one
``repro.solve`` or one ``repro.solve_batch`` on a graph object the program
has never seen (rebuilt from an edge list outside the timed region), so
the per-graph fingerprint and CSR memos are paid as a new user pays them.
Every output is checked by :mod:`checker` after the timed region.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import networkx as nx

import checker
import repro
from common import (SETUP_REPEATS, WORK, Outcome, derive, import_seconds,
                    pin_to_one_cpu, timed_rounds)
from tracer import Tracer, per_op


@dataclass
class Op:
    """One op of a round: what to call, on which graph, and how to check it."""

    label: str
    algorithm: str
    graph_key: str
    config: dict[str, Any]
    check: Callable[[nx.Graph, Any], list[str]]
    seeds: list[int] | None = None  # solve_batch when set
    seed: int = 0
    #: Filled while running: the reports of the last attempt.
    reports: list[Any] = field(default_factory=list)


def _regular(degree: int, n: int, seed: int) -> tuple[list, list]:
    graph = nx.random_regular_graph(degree, n, seed=seed)
    return list(graph.nodes()), list(graph.edges())


def _fresh(spec: tuple[list, list]) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(spec[0])
    graph.add_edges_from(spec[1])
    return graph


# ------------------------------------------------------------- workloads
#: paper-cold graph families: name -> (degree, n).
PAPER_GRAPHS = {
    "dense-n200-d30": (30, 200),
    "sparse-n1000-d8": (8, 1000),
    "ruling-a-n2000-d8": (8, 2000),
    "ruling-b-n2000-d8": (8, 2000),
    "mis-n2000-d8": (8, 2000),
    "shatter-n4000-d8": (8, 4000),
}

#: engine-vector graph families.  The solo ops run at 2*10^4 nodes: at
#: 10^5 one round of the five op kinds takes about a minute here.
ENGINE_GRAPHS = {
    "solo-n20000-d8": (8, 20_000),
    "batch-n10000-d8": (8, 10_000),
    "luby-n5000-d8": (8, 5_000),
}
BATCH_SIZE = 8


def _sparsify_check(k: int, must_sample: bool):
    return lambda graph, report: checker.check_sparsification(
        graph, report.output, k, must_sample=must_sample)


def paper_ops(seed: int) -> list[Op]:
    return [
        Op("sparsify-dense", "sparsify", "dense-n200-d30", {"k": 2},
           _sparsify_check(2, True), seed=derive(seed, "sparsify-dense")),
        Op("sparsify-sparse", "sparsify", "sparse-n1000-d8", {"k": 2},
           _sparsify_check(2, False), seed=derive(seed, "sparsify-sparse")),
        # Two ruling ops on two graphs: the round's median op is their mean.
        *(Op(f"det-power-ruling-{part}", "det-power-ruling",
             f"ruling-{part}-n2000-d8", {"k": 2},
             lambda g, r: checker.check_power_ruling(g, r.output, 2),
             seed=derive(seed, "det-power-ruling", part))
          for part in "ab"),
        Op("power-mis", "power-mis", "mis-n2000-d8", {"k": 2},
           lambda g, r: checker.check_mis_power(g, r.output, 2),
           seed=derive(seed, "power-mis")),
        Op("shattering-mis", "shattering-mis", "shatter-n4000-d8", {},
           lambda g, r: checker.check_mis_power(g, r.output, 1),
           seed=derive(seed, "shattering-mis")),
    ]


def _mis_check(k: int):
    return lambda graph, report: checker.check_mis_power(graph, report.output,
                                                         k)


def engine_ops(seed: int) -> list[Op]:
    vector = {"engine": "vector"}
    batch_seeds = [derive(seed, "batch", index) for index in range(BATCH_SIZE)]
    return [
        Op("det-ruling-sim", "det-ruling-sim", "solo-n20000-d8", vector,
           _mis_check(1), seed=derive(seed, "det-ruling-sim")),
        Op("power-det-ruling-sim", "power-det-ruling-sim", "solo-n20000-d8",
           {**vector, "k": 2}, _mis_check(2),
           seed=derive(seed, "power-det-ruling-sim")),
        Op("beeping-sim", "beeping-sim", "solo-n20000-d8", vector,
           _mis_check(1), seed=derive(seed, "beeping-sim")),
        Op("batch-det-ruling-sim", "det-ruling-sim", "batch-n10000-d8",
           vector, _mis_check(1), seeds=batch_seeds),
        Op("batch-power-det-ruling-sim", "power-det-ruling-sim",
           "batch-n10000-d8", {**vector, "k": 2}, _mis_check(2),
           seeds=batch_seeds),
        # Both fail on every seed today: Luby's (priority, id) message is
        # 65 bits against the 64-bit default bandwidth.
        Op("luby-sim", "luby-sim", "luby-n5000-d8", vector, _mis_check(1),
           seed=derive(seed, "luby-sim")),
        Op("power-luby-sim", "power-luby-sim", "luby-n5000-d8",
           {**vector, "k": 2}, _mis_check(2),
           seed=derive(seed, "power-luby-sim")),
    ]


WORKLOADS = {
    "paper-cold": (PAPER_GRAPHS, paper_ops),
    "engine-vector": (ENGINE_GRAPHS, engine_ops),
}


def _make_inputs(families: dict[str, tuple[int, int]],
                 seed: int) -> dict[str, tuple[list, list]]:
    return {name: _regular(degree, n, derive(seed, "graph", name))
            for name, (degree, n) in families.items()}


def run(workload: str, *, seed: int, seconds: float,
        tracer: Tracer | None) -> Outcome:
    families, make_ops = WORKLOADS[workload]
    outcome = Outcome()
    for _ in range(SETUP_REPEATS):
        imports = import_seconds("repro")
        began = time.perf_counter()
        inputs = _make_inputs(families, seed)
        outcome.setup_s.append(imports + time.perf_counter() - began)
    ops = make_ops(seed)
    pin_to_one_cpu()

    def run_round() -> None:
        for op in ops:
            graph = _fresh(inputs[op.graph_key])
            outcome.attempted += 1
            if tracer is not None:
                tracer.op_id = outcome.attempted
            began = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        op.reports = _call(graph, op)
                else:
                    op.reports = _call(graph, op)
            except Exception as error:  # noqa: BLE001 - counted by class
                outcome.timed_s += time.perf_counter() - began
                outcome.fail(error)
                op.reports = []
                continue
            elapsed = time.perf_counter() - began
            outcome.timed_s += elapsed
            outcome.latencies_s.append(elapsed)
            _check(outcome, op, graph)

    # Only the ops themselves are timed: graph rebuilding and the checks
    # between them are not.
    timed_rounds(seconds, run_round)
    outcome.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0)
    if tracer is not None:
        tracer.uninstall()
        outcome.layers = compute_layers(tracer, outcome, ops)
        outcome.detail["layer_table"] = tracer.layer_table()
        tracer.dump(os.path.join(WORK, f"spans-{workload}-{seed}.json"))
    _check_batches(outcome, ops, inputs)
    outcome.detail["ops"] = {
        op.label: [{"n": r.provenance.n, "rounds": r.rounds,
                    "output_size": len(r.output),
                    "engine_used": r.metrics.get("engine_used"),
                    "messages": r.metrics.get("messages")}
                   for r in op.reports[:1]]
        for op in ops}
    return outcome


def _call(graph: nx.Graph, op: Op) -> list[Any]:
    if op.seeds is not None:
        return repro.solve_batch(graph, op.algorithm, seeds=op.seeds,
                                 **op.config)
    return [repro.solve(graph, op.algorithm, seed=op.seed, **op.config)]


def _check(outcome: Outcome, op: Op, graph: nx.Graph) -> None:
    for report in op.reports:
        if report.certificate is None or not report.certificate.ok:
            outcome.problems.append(f"{op.label}: the program's own "
                                    f"certificate failed")
        for problem in op.check(graph, report):
            outcome.problems.append(f"{op.label}: {problem}")


def _check_batches(outcome: Outcome, ops: list[Op],
                   inputs: dict[str, tuple[list, list]]) -> None:
    """One replica of each batch op must equal its same-seed solo solve."""
    for op in ops:
        if op.seeds is None or not op.reports:
            continue
        solo = repro.solve(_fresh(inputs[op.graph_key]), op.algorithm, seed=op.seeds[-1],
                           **op.config)
        replica = op.reports[-1]
        if (solo.output != replica.output or solo.rounds != replica.rounds
                or solo.metrics.get("messages")
                != replica.metrics.get("messages")):
            outcome.problems.append(
                f"{op.label}: replica of seed {op.seeds[-1]} differs from "
                f"its solo solve")


# ------------------------------------------------------------ per layer
GRAPHS = ("graphs.bounded_bfs", "graphs.distance_neighborhood",
          "graphs.power_adjacency", "graphs.power_graph",
          "graphs.induced_power_subgraph")
DERANDOMIZE = ("core.det_sparsification",
               "core.derandomize_stage_per_variable")
COMM_TOOLS = ("core.learn_distance_ids", "core.simulate_on_power_subgraph")
MIS = ("mis.power_graph_mis", "mis.shattering_mis",
       "mis.deterministic_mis_of_virtual_graph",
       "mis.deterministic_power_ruling_set")
NETWORK = ("congest.CongestNetwork", "congest.TopologySnapshot",
           "congest.numpy_arrays")
ENGINES = ("congest.Simulator.run", "congest.simulate_replicas")


def compute_layers(tracer: Tracer, outcome: Outcome,
                   ops: list[Op]) -> dict[str, float]:
    """The per-layer metrics of a traced compute run.

    Timer metrics are per attempted op; metrics taken from the reports are
    per op of one round (every round repeats the same seeds and outputs).
    """
    table = tracer.layer_table()
    count = outcome.attempted
    per_round = len(ops)
    reports = [report for op in ops for report in op.reports]
    asked = [r for r in reports if r.metrics.get("engine_requested")
             == "vector" or r.metrics.get("engine") == "vector"]
    messages = sum(r.metrics.get("messages") or 0 for r in reports)
    rounds_run = count // per_round
    engine_s = per_op(table, ENGINES, "busy_s", rounds_run)
    q_sizes = {op.label: len(op.reports[0].output) for op in ops
               if op.algorithm == "sparsify" and op.reports}
    wall, covered = tracer.coverage()
    return {
        "trace.coverage": covered / wall if wall else 0.0,
        "graphs.ball_calls": per_op(table, GRAPHS, "calls", count),
        "graphs.ball_ms": per_op(table, GRAPHS, "self_s", count, scale=1e3),
        "core.derandomize_ms": per_op(table, DERANDOMIZE, "self_s", count,
                                      scale=1e3),
        "core.psi_calls": per_op(table, ("core.psi_expectation",), "calls",
                                 count),
        "core.comm_tools_ms": per_op(table, COMM_TOOLS, "busy_s", count,
                                     scale=1e3),
        "core.sparsify_ms": per_op(table, ("core.power_graph_sparsification",),
                                   "self_s", count, scale=1e3),
        "core.q_size.dense": float(q_sizes.get("sparsify-dense", 0)),
        "core.q_size.sparse": float(q_sizes.get("sparsify-sparse", 0)),
        "mis.phase_ms": per_op(table, MIS, "self_s", count, scale=1e3),
        "congest.network_ms": per_op(table, NETWORK, "self_s", count,
                                     scale=1e3),
        "congest.engine_ms": per_op(table, ("congest.Simulator.run",),
                                    "self_s", count, scale=1e3),
        "congest.batch_ms": per_op(table, ("congest.simulate_replicas",),
                                   "self_s", count, scale=1e3),
        "congest.msgs_per_engine_s": messages / engine_s if engine_s else 0.0,
        "congest.vector_ratio": (sum(1 for r in asked
                                     if r.metrics.get("engine_used")
                                     == "vector") / len(asked)
                                 if asked else 0.0),
        "congest.rounds": sum(r.rounds for r in reports) / per_round,
        "congest.messages": messages / per_round,
        "api.plan_ms": per_op(table, ("api.plan",), "busy_s", count,
                              scale=1e3),
        "api.certify_ms": per_op(table, ("api.certify",), "busy_s", count,
                                 scale=1e3),
    }
