"""One serving process of the benchmark: a server, a fleet coordinator or a
fleet worker, built through the program's public constructors.

    python3 perfbench/node.py serve --port-file P --state-file S --store DIR
    python3 perfbench/node.py coordinator --port-file P --state-file S
    python3 perfbench/node.py worker --port-file P --state-file S \\
        --coordinator-port-file C --worker-id w0

Each role's cache is sized by the constants of :mod:`serving`, next to the
rest of its workload's make-up.

The process writes its port to ``--port-file`` once it serves and runs
until SIGTERM.  It then writes ``--state-file``: the peak resident memory
of itself and its children, the program's counters, and with ``--trace 1``
the layer timers of :mod:`tracer` (its raw spans go to ``--spans-file``)
plus every span the program recorded
itself (``scheduler.request``, ``worker.solve``, ``fleet.solve``) since
the last SIGUSR1, which marks the start of the timed phase.  A
``serve`` node also answers ``GET /perfbench/state`` with the same
counters, so the load generator can take them before and after its timed
phase.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import SRC, tree_peak_rss_mb  # noqa: E402
from serving import (BUDGET_BYTES, CACHE_SHARDS,  # noqa: E402
                     FLEET_MEMORY_ENTRIES, MEMORY_ENTRIES, SEGMENT_BYTES)

sys.path.insert(0, SRC)


def _write_atomic(path: str, text: str) -> None:
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(temporary, path)


def _disk_bytes(root: str | None) -> int:
    total = 0
    for directory, _, files in os.walk(root or ""):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


def _collect_spans(recorder, sink: list) -> None:
    """Keep every span row the program records (its ring holds only 256
    traces); each row is reduced to what the per-layer metrics read."""
    original = recorder.record_row

    def record_row(row):
        sink.append((row.get("trace_id"), row.get("name"),
                     float(row.get("duration_ms") or 0.0),
                     (row.get("attrs") or {}).get("status")))
        return original(row)

    recorder.record_row = record_row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("role", choices=("serve", "coordinator", "worker"))
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--state-file", required=True)
    parser.add_argument("--spans-file")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--store")
    parser.add_argument("--coordinator-port-file")
    parser.add_argument("--worker-id")
    args = parser.parse_args(argv)

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    spans: list = []

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    from repro.service import ServiceServer, SolveCache, SolveScheduler

    cache = None
    if args.role == "coordinator":
        from repro.fleet import FleetCoordinator

        node = FleetCoordinator(port=0)
        recorder = node.trace_recorder
        stats = node.stats_row
    else:
        if args.role == "serve":
            cache = SolveCache(args.store, max_memory_entries=MEMORY_ENTRIES,
                               shards=CACHE_SHARDS,
                               size_budget_bytes=BUDGET_BYTES,
                               max_segment_bytes=SEGMENT_BYTES)
            scheduler = SolveScheduler(cache=cache)
        else:
            cache = SolveCache("", max_memory_entries=FLEET_MEMORY_ENTRIES)
            scheduler = SolveScheduler(cache=cache, inline=True)
        recorder = scheduler.trace_recorder
        stats = scheduler.stats_row

    def state() -> dict:
        row = {"stats": stats()}
        if cache is not None:
            row["store_counters"] = cache.store_counters()
            row["disk_bytes"] = _disk_bytes(args.store)
        return row

    if args.role == "serve":
        class _Server(ServiceServer):
            def handle_extra_get(self, path):
                if path == "/perfbench/state":
                    return 200, state()
                return None

        node = _Server(port=0, scheduler=scheduler)
        url = node.url
    elif args.role == "worker":
        from repro.fleet import FleetWorker

        while not os.path.exists(args.coordinator_port_file):
            if stop.wait(0.01):
                return 0
        with open(args.coordinator_port_file, encoding="ascii") as handle:
            coordinator = f"http://127.0.0.1:{handle.read().strip()}"
        node = FleetWorker(coordinator, worker_id=args.worker_id,
                           scheduler=scheduler)
        url = node.server.url
    else:
        url = node.url
    if tracer is not None:
        _collect_spans(recorder, spans)

        def mark(*_):
            # The load generator's timed phase starts now: what ran
            # before (boot, prefill) stays out of the per-layer figures.
            tracer.mark()
            del spans[:]
            _write_atomic(args.port_file + ".marked", "1")

        signal.signal(signal.SIGUSR1, mark)
    node.start()
    _write_atomic(args.port_file, url.rsplit(":", 1)[1])

    while not stop.wait(0.2):
        pass
    final = state()
    final["peak_rss_mb"] = tree_peak_rss_mb()
    if tracer is not None:
        final["layer_table"] = tracer.layer_table()
        final["spans"] = spans
        tracer.dump(args.spans_file)
    _write_atomic(args.state_file, json.dumps(final))
    node.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
