"""The serve-point server process: the full served stack, over sockets.

Started by ``serve_point.py`` as its own process::

    python3 perfbench/server.py --seed N --stats PATH [--trace]

Builds the :data:`ROWS`-row relation from the seed, stands up
``Executor.for_relation`` (default stack) behind ``QueryService`` and
``QueryServer`` with default configs (except the batcher linger, held at
its 2 ms ceiling — see ``common.LINGER_S``) and no rate limit, freezes
the collector over the built index, and prints one JSON line — the bound
ports and the index size — once it listens.  A second ``QueryService``
with the default (adaptive) linger serves the same engine on its own
port.  Standard input is the control channel: a ``trace`` line installs
the request-path probes, end of input shuts the server down, after which
it writes its statistics (engine cache and metric counters, peak RSS,
the adaptive service's final linger, and with ``--trace`` the spans) to
``--stats``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import threading

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.use_source_tree()

import probes  # noqa: E402
from ledger import counters  # noqa: E402

ROWS = 20_000


async def serve(args) -> dict:
    from repro.engine import Executor
    from repro.net import NetConfig, QueryServer
    from repro.serve import QueryService

    relation = common.make_relation(ROWS, 2, args.seed)
    engine = Executor.for_relation(relation)
    # Like a long-lived server, move the index's object graph out of the
    # collector's reach once built: collections then scan only what
    # serving allocates, not every R-tree node and cube block each time.
    gc.freeze()
    stats: dict = {"index_bytes_per_row":
                   common.index_bytes([engine]) / relation.num_tuples}
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    traced = asyncio.Event()

    def control() -> None:
        for line in iter(sys.stdin.readline, ""):
            if line.strip() == "trace":
                loop.call_soon_threadsafe(traced.set)
        loop.call_soon_threadsafe(stop.set)

    # Two fronts over the one engine: the measured one with the linger
    # held fixed, and one with ServiceConfig's defaults (the adaptive
    # linger), which serve_point.py drives briefly before timing.
    async with QueryService(engine, common.service_config()) as service, \
            QueryService(engine) as adaptive, \
            QueryServer(service, NetConfig(port=0)) as server, \
            QueryServer(adaptive, NetConfig(port=0)) as adaptive_server:
        print(json.dumps({"port": server.port,
                          "adaptive_port": adaptive_server.port, **stats}),
              flush=True)
        threading.Thread(target=control, daemon=True).start()
        trace_wait = asyncio.ensure_future(traced.wait())
        stop_wait = asyncio.ensure_future(stop.wait())
        await asyncio.wait({trace_wait, stop_wait},
                           return_when=asyncio.FIRST_COMPLETED)
        if traced.is_set() and not stop.is_set():
            stats["before_trace"] = counters(engine)
            probes.install_engine_probes()
            probes.install_serve_probes()
            probes.install_net_probes()
        await stop_wait
        trace_wait.cancel()
        await asyncio.gather(trace_wait, return_exceptions=True)
        stats["adaptive_linger_ms"] = \
            adaptive.stats_snapshot()["current_linger"] * 1000.0
    stats["after"] = counters(engine)
    stats["peak_rss_mb"] = common.peak_rss_mb([os.getpid()])
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.trace:
        probes.install_setup_probes()
    stats = asyncio.run(serve(args))
    if args.trace:
        stats["spans"] = [span.as_json() for span in probes.RECORDER.spans]
    with open(args.stats, "w") as handle:
        json.dump(stats, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
