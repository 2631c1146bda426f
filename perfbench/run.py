"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-point --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` wraps each layer's entry points (``probes.py``) and reports
the per-layer metrics instead.  Every answer is checked against a
brute-force oracle; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``), and the exit code is
non-zero when any answer was wrong or the run was invalid.  See
``DESIGN.md`` for what each workload drives and why.
"""

from __future__ import annotations

import os
import sys

# Shard workers start with the "spawn" method, which re-imports this file
# as ``__mp_main__``: keep the top level import-light, and let traced
# runs install the worker-side probes there.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.use_source_tree()

WORKER_PROBES = "PERFBENCH_WORKER_PROBES"

if __name__ == "__mp_main__" and os.environ.get(WORKER_PROBES) == "1":
    import probes

    probes.install_worker_probes()


def main() -> int:
    import argparse
    import json
    import signal

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    import repro  # noqa: F401 — fail before any work when src/ is absent

    if args.trace:
        os.environ[WORKER_PROBES] = "1"
    if args.workload == "serve-point":
        import serve_point as workload
    elif args.workload == "analyst-heavy":
        import analyst_heavy as workload
    else:
        import write_mix as workload
    # A terminated run unwinds like a failed one, so that every process
    # it started is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        out = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        common.stop_children()

    if args.trace:
        metrics = {m["name"]: (float(out["per_layer"].get(m["name"], 0.0)),
                               m["unit"]) for m in spec["per_layer"]}
        shown = {}
    else:
        metrics = {m["name"]: out["end_to_end"][m["name"]]
                   for m in spec["end_to_end"]}
        shown = {name: value for name, value in out["end_to_end"].items()
                 if name not in metrics}
    common.emit(out["correct"], out["attempted"], out["failed"], metrics,
                out["notes"], shown)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
