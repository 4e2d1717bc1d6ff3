"""The serving workloads: ``serve-churn`` and ``fleet-hot``.

Both are closed loops: each connection sends its next ``POST /solve`` only
after the previous answer arrived.  The program runs in helper processes
(:mod:`node`), started here and stopped before the run ends; this process
is only the load generator.  An op is one HTTP request.

``serve-churn``
    One ``serve`` node: a process-pool scheduler in front of a
    :class:`SolveCache` with a small memory LRU and a persistent
    ``ShardStore`` under a size budget.  Two connections draw zipf-skewed
    ``(cell, algorithm, seed)`` keys from a key space far larger than the
    LRU and the disk budget, so memory hits, disk hits, computed misses,
    evictions and compactions all happen in every run.
``fleet-hot``
    One fleet coordinator with two enrolled workers.  Every key is solved
    once during set-up, so each timed request is a warm memory hit relayed
    through the coordinator: no solving and no disk writes.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any

import checker
from common import (HERE, SETUP_REPEATS, WORK, Outcome, child_env, derive,
                    pin_to_one_cpu, timed_rounds)

NODE = os.path.join(HERE, "node.py")

# ------------------------------------------------------------ serve-churn
SERVE_CELLS = ("regular-n24-d3", "er-n20", "tree-n18", "crown-m5", "er-n48",
               "grid-8x8", "udg-n40", "power-law-n48")
SERVE_ALGORITHMS = (("power-mis", {"k": 2}), ("det-ruling-sim", {}),
                    ("det-power-ruling", {"k": 2}))
SERVE_SEEDS = 100            # 8 cells x 3 algorithms x 100 seeds = 2400 keys
MEMORY_ENTRIES = 64          # the in-process LRU holds under 3% of the keys
CACHE_SHARDS = 4
SEGMENT_BYTES = 16 * 1024    # small segments so the budget below holds
BUDGET_BYTES = 256 * 1024    # a few hundred stored reports
SERVE_ZIPF_S = 1.0
SERVE_CONNECTIONS = 2
SERVE_PREFILL = 250          # requests that bring the tiers to steady state

# -------------------------------------------------------------- fleet-hot
FLEET_CELLS = ("regular-n24-d3", "er-n20", "tree-n18", "crown-m5",
               "cliques-6x4", "path-n16")
FLEET_ALGORITHMS = (("power-mis", {"k": 2}), ("det-ruling-sim", {}))
FLEET_SEEDS = 8              # 6 x 2 x 8 = 96 keys, all prefilled
FLEET_WORKERS = 2
FLEET_MEMORY_ENTRIES = 1024  # each worker's LRU holds every key
FLEET_ZIPF_S = 1.0

#: Requests per round on each connection; runs attempt whole rounds.
ROUND = 50
#: Timed-phase sequence length per connection (cycled if a run outlasts it).
SEQUENCE = 200_000


def _keys(cells, algorithms, seeds: int, seed: int) -> list[tuple]:
    """Keys in zipf rank order, hottest first.

    Ranks go round-robin over the ``(cell, algorithm)`` classes, so every
    run has the same mix of solve costs at every popularity; the run seed
    picks which solve seed of each class sits at which rank.
    """
    rng = random.Random(derive(seed, "key-order"))
    classes = [(cell, algorithm, config) for cell in cells
               for algorithm, config in algorithms]
    orders = [rng.sample(range(seeds), seeds) for _ in classes]
    return [(*classes[rank % len(classes)],
             orders[rank % len(classes)][rank // len(classes)])
            for rank in range(len(classes) * seeds)]


def zipf_sequence(count: int, length: int, s: float, seed: int) -> list[int]:
    weights = [1.0 / (rank + 1) ** s for rank in range(count)]
    return random.Random(seed).choices(range(count), weights=weights,
                                       k=length)


def _body(key: tuple) -> dict[str, Any]:
    cell, algorithm, config, value = key
    return {"workload": cell, "algorithm": algorithm, "config": config,
            "seed": value}


# ----------------------------------------------------------- processes
class Node:
    """One :mod:`node` helper process."""

    def __init__(self, started: list["Node"], run_dir: str, name: str,
                 role: str, traced: bool, *extra: str) -> None:
        started.append(self)
        self.name = name
        self.port_file = os.path.join(run_dir, f"{name}.port")
        self.state_file = os.path.join(run_dir, f"{name}.state.json")
        self.log_path = os.path.join(run_dir, f"{name}.log")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, NODE, role, "--port-file", self.port_file,
                 "--state-file", self.state_file,
                 "--spans-file", os.path.join(
                     WORK, f"spans-{os.path.basename(run_dir)}-{name}.json"),
                 "--trace", "1" if traced else "0", *extra],
                env=child_env(), stdout=subprocess.DEVNULL, stderr=log)
        self._url: str | None = None

    def url(self, deadline_s: float = 60.0) -> str:
        if self._url is None:
            deadline = time.monotonic() + deadline_s
            while not os.path.exists(self.port_file):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"{self.name} did not start: "
                                       f"{self._log_tail()}")
                time.sleep(0.02)
            with open(self.port_file, encoding="ascii") as handle:
                self._url = f"http://127.0.0.1:{handle.read().strip()}"
        return self._url

    def _log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as log:
            return log.read()[-2000:]

    def mark(self) -> None:
        """Tell a traced node that the timed phase starts; wait for it."""
        marked = self.port_file + ".marked"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(marked):
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.name} did not mark its trace")
            time.sleep(0.01)

    def stop(self) -> dict[str, Any]:
        """SIGTERM, wait, and return the state the node wrote on exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        try:
            with open(self.state_file, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}


def _stop_all(nodes: list[Node]) -> list[dict[str, Any]]:
    for node in nodes:
        if node.proc.poll() is None:
            node.proc.send_signal(signal.SIGTERM)
    return [node.stop() for node in nodes]


# ---------------------------------------------------------- closed loop
class Recorder:
    """Per-request results of a timed phase (kept until it ends)."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []   # (key index, latency, response, trace)
        self.failures: dict[str, int] = {}

    def absorb(self, other: "Recorder") -> None:
        self.rows.extend(other.rows)
        for name, count in other.failures.items():
            self.failures[name] = self.failures.get(name, 0) + count


def _closed_loop(url: str, keys: list[tuple], sequence: list[int],
                 seconds: float, traced: bool, recorder: Recorder) -> None:
    from repro.service import ServiceClient
    from repro.service.tracectx import TRACE_HEADER, TraceContext

    client = ServiceClient(url, timeout=120.0)
    positions = itertools.count()

    def one_round() -> None:
        for _ in range(ROUND):
            key_index = sequence[next(positions) % len(sequence)]
            headers, trace_id = None, None
            if traced:
                context = TraceContext.new()
                headers, trace_id = ({TRACE_HEADER: context.to_header()},
                                     context.trace_id)
            sent = time.perf_counter()
            try:
                response = client.request("POST", "/solve",
                                          _body(keys[key_index]),
                                          headers=headers)
            except Exception as error:  # noqa: BLE001 - counted by class
                name = type(error).__name__
                recorder.failures[name] = recorder.failures.get(name, 0) + 1
                continue
            recorder.rows.append((key_index, time.perf_counter() - sent,
                                  response, trace_id))

    timed_rounds(seconds, one_round)


def _timed_phase(url: str, keys: list[tuple], sequences: list[list[int]],
                 seconds: float, traced: bool) -> tuple[Recorder, float]:
    """One closed loop per sequence, each on its own connection."""
    pin_to_one_cpu()
    recorders = [Recorder() for _ in sequences]
    threads = [threading.Thread(
        target=_closed_loop,
        args=(url, keys, sequence, seconds, traced, recorder))
        for sequence, recorder in zip(sequences, recorders)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    merged = Recorder()
    for recorder in recorders:
        merged.absorb(recorder)
    return merged, elapsed


def _prefill(url: str, keys: list[tuple], indices: list[int]) -> None:
    from repro.service import ServiceClient

    client = ServiceClient(url, timeout=120.0)
    for key_index in indices:
        client.request("POST", "/solve", _body(keys[key_index]))


# -------------------------------------------------------------- checks
def _check_reports(keys: list[tuple], recorder: Recorder) -> list[str]:
    """Each distinct key checked once; every repeat returns the same report."""
    from repro.scenarios.registry import DEFAULT_REGISTRY

    problems: list[str] = []
    first: dict[int, dict] = {}
    graphs: dict[str, Any] = {}
    for key_index, _, response, _ in recorder.rows:
        report = response.get("report")
        if report is None:
            problems.append(f"no report for key {keys[key_index]}")
            continue
        seen = first.get(key_index)
        if seen is not None:
            if report != seen:
                problems.append(f"key {keys[key_index]} answered two "
                                f"different reports")
            continue
        first[key_index] = report
        cell, algorithm, config, _ = keys[key_index]
        if cell not in graphs:
            graphs[cell] = DEFAULT_REGISTRY.build_cell(cell, seed=0)
        for problem in checker.check_served_report(
                graphs[cell], report, algorithm, int(config.get("k", 1))):
            problems.append(f"{keys[key_index]}: {problem}")
    return problems


def _latencies(recorder: Recorder) -> list[float]:
    return [latency for _, latency, _, _ in recorder.rows]


def _span_index(states: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """trace id -> {span name: (duration ms, status)} over every node."""
    index: dict[str, dict[str, Any]] = {}
    for state in states:
        for trace_id, name, duration_ms, status in state.get("spans", ()):
            index.setdefault(trace_id, {})[name] = (duration_ms, status)
    return index


def _merge_tables(states: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    for state in states:
        for name, row in state.get("layer_table", {}).items():
            merged = table.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                             "self_s": 0.0})
            for field in merged:
                merged[field] += row[field]
    return table


def _delta(after: dict, before: dict, *path: str) -> float:
    for part in path:
        after, before = after.get(part, {}), before.get(part, {})
    return float((after or 0) - (before or 0))


def _service_layers(table, ops: int, latencies: list[float],
                    server_ms: float) -> dict[str, float]:
    def busy(*names):
        return 1e3 * sum(table.get(n, {}).get("busy_s", 0.0)
                         for n in names) / ops

    mean_ms = 1e3 * sum(latencies) / len(latencies)
    return {
        "api.plan_ms": busy("api.plan"),
        "api.certify_ms": busy("api.certify"),
        "api.encode_calls": sum(table.get(n, {}).get("calls", 0)
                                for n in ("api.report_to_json",
                                          "api.report_from_json")) / ops,
        "api.encode_ms": busy("api.report_to_json", "api.report_from_json"),
        "service.cache_lookup_ms": busy("service.cache_lookup"),
        "service.cache_put_ms": busy("service.cache_put"),
        "service.store_get_ms": busy("service.store_get"),
        "service.store_put_ms": busy("service.store_put"),
        "service.server_ms": server_ms,
        "service.client_ms": mean_ms - server_ms,
    }


# ------------------------------------------------------------ workloads
def _serve_churn(outcome: Outcome, started: list[Node], run_dir: str,
                 seed: int, seconds: float, traced: bool) -> None:
    from repro.service import ServiceClient

    keys = _keys(SERVE_CELLS, SERVE_ALGORITHMS, SERVE_SEEDS, seed)
    prefill = zipf_sequence(len(keys), SERVE_PREFILL, SERVE_ZIPF_S,
                            derive(seed, "prefill"))
    sequences = [zipf_sequence(len(keys), SEQUENCE, SERVE_ZIPF_S,
                               derive(seed, "connection", index))
                 for index in range(SERVE_CONNECTIONS)]
    node = None
    for repeat in range(SETUP_REPEATS):
        if node is not None:
            node.stop()
        began = time.perf_counter()
        node = Node(started, run_dir, f"serve{repeat}", "serve", traced,
                    "--store", os.path.join(run_dir, f"store{repeat}"))
        ServiceClient(node.url(), timeout=60.0).wait_healthy()
        _prefill(node.url(), keys, prefill)
        outcome.setup_s.append(time.perf_counter() - began)
    client = ServiceClient(node.url(), timeout=60.0)
    before = client.request("GET", "/perfbench/state")
    if traced:
        node.mark()
    recorder, outcome.timed_s = _timed_phase(node.url(), keys, sequences,
                                             seconds, traced)
    after = client.request("GET", "/perfbench/state")
    state = node.stop()
    _finish(outcome, keys, recorder)
    outcome.peak_rss_mb = state.get("peak_rss_mb", 0.0)

    disk_mb = after.get("disk_bytes", 0) / 1e6
    outcome.detail["serve"] = {
        "before": before, "after": after, "disk_budget_mb":
        BUDGET_BYTES / 1e6, "distinct_keys": len({row[0] for row in
                                                  recorder.rows})}
    if disk_mb > BUDGET_BYTES / 1e6:
        outcome.problems.append(f"store holds {disk_mb:.3f} MB over its "
                                f"{BUDGET_BYTES / 1e6:.3f} MB budget")

    def stat(*path):
        return _delta(after, before, *path)

    # The workload's reason to exist: every tier is used in every run.
    churn = {
        "memory hits": stat("stats", "cache", "memory_hits"),
        "disk hits": stat("stats", "cache", "persistent_hits"),
        "misses": stat("stats", "computed"),
        "evictions": (stat("store_counters", "evictions_lru")
                      + stat("store_counters", "evictions_ttl")),
        "compactions": stat("store_counters", "compacted_segments"),
    }
    for what, count in churn.items():
        if not count:
            outcome.problems.append(f"no {what} during the timed phase")
    if not traced:
        return

    ops = len(recorder.rows)
    hits_memory, hits_disk = churn["memory hits"], churn["disk hits"]
    spans = _span_index([state])
    server = [spans.get(row[3], {}).get("scheduler.request")
              for row in recorder.rows]
    server_ms = sum(span[0] for span in server if span) / ops
    solves = [spans[row[3]] for row, span in zip(recorder.rows, server)
              if span and span[1] == "computed"
              and "worker.solve" in spans[row[3]]]
    solve_ms = (sum(s["worker.solve"][0] for s in solves) / len(solves)
                if solves else 0.0)
    queue_ms = (sum(s["scheduler.request"][0] - s["worker.solve"][0]
                    for s in solves) / len(solves) if solves else 0.0)
    table = _merge_tables([state])
    layers = _service_layers(table, ops, _latencies(recorder), server_ms)
    layers.update({
        "service.hits_memory": hits_memory,
        "service.hits_disk": hits_disk,
        "service.misses": churn["misses"],
        "service.hit_ratio": (hits_memory + hits_disk) / ops,
        "service.evictions": churn["evictions"],
        "service.compactions": churn["compactions"],
        "service.disk_mb": disk_mb,
        "service.solve_ms": solve_ms,
        "service.queue_wait_ms": queue_ms,
        "service.coalesced": stat("stats", "coalesced"),
        "service.rejected": stat("stats", "rejected"),
        "trace.coverage": server_ms / (1e3 * sum(_latencies(recorder)) / ops),
    })
    outcome.layers = layers
    outcome.detail["layer_table"] = table


def _fleet_hot(outcome: Outcome, started: list[Node], run_dir: str,
               seed: int, seconds: float, traced: bool) -> None:
    from repro.service import ServiceClient

    keys = _keys(FLEET_CELLS, FLEET_ALGORITHMS, FLEET_SEEDS, seed)
    sequence = zipf_sequence(len(keys), SEQUENCE, FLEET_ZIPF_S,
                             derive(seed, "connection", 0))
    nodes: list[Node] = []
    for repeat in range(SETUP_REPEATS):
        _stop_all(nodes[1:])
        _stop_all(nodes[:1])
        began = time.perf_counter()
        coordinator = Node(started, run_dir, f"coordinator{repeat}",
                           "coordinator", traced)
        # Workers import the program while the coordinator boots, then
        # wait for its port file.
        workers = [Node(started, run_dir, f"worker{repeat}-{index}",
                        "worker", traced,
                        "--coordinator-port-file", coordinator.port_file,
                        "--worker-id", f"w{index}")
                   for index in range(FLEET_WORKERS)]
        nodes = [coordinator, *workers]
        client = ServiceClient(coordinator.url(), timeout=60.0)
        client.wait_healthy()
        for worker in workers:
            worker.url()
        deadline = time.monotonic() + 60.0
        while len(client.request("GET", "/fleet/workers")["workers"]) \
                < FLEET_WORKERS:
            if time.monotonic() > deadline:
                raise RuntimeError("fleet workers did not enroll")
            time.sleep(0.02)
        _prefill(coordinator.url(), keys, range(len(keys)))
        outcome.setup_s.append(time.perf_counter() - began)
    coordinator, workers = nodes[0], nodes[1:]

    def snapshot() -> dict[str, Any]:
        return {"coordinator": client.request("GET", "/stats"),
                "relay": _relay_histogram(client),
                "workers": [ServiceClient(w.url()).request("GET", "/stats")
                            for w in workers]}

    before = snapshot()
    if traced:
        for node in nodes:
            node.mark()
    recorder, outcome.timed_s = _timed_phase(coordinator.url(), keys,
                                             [sequence], seconds, traced)
    after = snapshot()
    # Workers first, so that they can leave the fleet.
    states = _stop_all(workers) + [coordinator.stop()]
    _finish(outcome, keys, recorder)
    outcome.peak_rss_mb = sum(state.get("peak_rss_mb", 0.0)
                              for state in states)
    outcome.detail["fleet"] = {"before": before, "after": after}

    def workers_delta(*path):
        return sum(_delta(a, b, *path)
                   for a, b in zip(after["workers"], before["workers"]))

    # Every key was solved during set-up: a solve now means a cold path.
    misses = workers_delta("computed")
    if misses:
        outcome.problems.append(f"fleet workers computed {misses:g} "
                                f"requests during the timed phase")
    if not traced:
        return

    def coordinator_delta(name):
        return _delta(after["coordinator"], before["coordinator"],
                      "counters", name)

    ops = len(recorder.rows)
    spans = _span_index(states)
    rows = [spans.get(row[3], {}) for row in recorder.rows]
    server_ms = sum(r["scheduler.request"][0] for r in rows
                    if "scheduler.request" in r) / ops
    front_ms = sum(r["fleet.solve"][0] for r in rows
                   if "fleet.solve" in r) / ops
    relay_count = after["relay"][1] - before["relay"][1]
    relay_ms = (1e3 * (after["relay"][0] - before["relay"][0]) / relay_count
                if relay_count else 0.0)
    routed = coordinator_delta("routed")
    table = _merge_tables(states)
    layers = _service_layers(table, ops, _latencies(recorder), server_ms)
    hits_memory = workers_delta("cache", "memory_hits")
    hits_disk = workers_delta("cache", "persistent_hits")
    layers.update({
        "service.hits_memory": hits_memory,
        "service.hits_disk": hits_disk,
        "service.misses": misses,
        "service.hit_ratio": (hits_memory + hits_disk) / ops,
        "service.coalesced": workers_delta("coalesced"),
        "service.rejected": workers_delta("rejected"),
        "fleet.relay_ms": relay_ms,
        "fleet.coordinator_self_ms": relay_ms - server_ms,
        "fleet.affinity_ratio": (coordinator_delta("affinity_hits") / routed
                                 if routed else 0.0),
        "fleet.retried": coordinator_delta("retried"),
        "fleet.stolen": coordinator_delta("stolen"),
        "fleet.warm_fetches": coordinator_delta("warm_fetches"),
        "trace.coverage": front_ms / (1e3 * sum(_latencies(recorder)) / ops),
    })
    outcome.layers = layers
    outcome.detail["layer_table"] = table


def _relay_histogram(client) -> tuple[float, float]:
    """(sum seconds, count) of the coordinator's ok relay-latency series."""
    text = client.request_bytes("GET", "/metrics").decode("utf-8")
    total = count = 0.0
    for line in text.splitlines():
        if not line.startswith("repro_fleet_relay_latency_seconds_"):
            continue
        if 'outcome="ok"' not in line:
            continue
        name, value = line.rsplit(" ", 1)
        if name.startswith("repro_fleet_relay_latency_seconds_sum"):
            total = float(value)
        elif name.startswith("repro_fleet_relay_latency_seconds_count"):
            count = float(value)
    return total, count


def _finish(outcome: Outcome, keys: list[tuple], recorder: Recorder) -> None:
    outcome.latencies_s = _latencies(recorder)
    outcome.failures = dict(recorder.failures)
    outcome.attempted = len(recorder.rows) + outcome.failed
    outcome.problems.extend(_check_reports(keys, recorder))


WORKLOADS = {"serve-churn": _serve_churn, "fleet-hot": _fleet_hot}


def run(workload: str, *, seed: int, seconds: float, traced: bool) -> Outcome:
    outcome = Outcome()
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    started: list[Node] = []
    try:
        WORKLOADS[workload](outcome, started, run_dir, seed, seconds, traced)
    finally:
        _stop_all(started)
        shutil.rmtree(run_dir, ignore_errors=True)
    return outcome
