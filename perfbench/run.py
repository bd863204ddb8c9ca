"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload dp-honest --seed 1 --seconds 36 --trace 0

Workloads: ``dp-honest``, ``attack`` (see README.md).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also prints the per-layer self-time table and writes its spans to
``.perfbench/trace-<workload>-<seed>.json`` under the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("dp-honest", "attack")


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    try:
        import common
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    import layers

    common.build_native()
    result = common.Result()
    session = layers.TraceSession() if args.trace else None
    run = run_dataplane(args, result, session)
    if session is None:
        result.metric("setup_s", run.setup_s(), "s")
        result.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
        metrics = {name: result.metrics[name] for name in layers.END_TO_END_NAMES}
    else:
        metrics = session.metrics(run.split)
        print(session.table(run.split))
        path = os.path.join(".perfbench", f"trace-{args.workload}-{args.seed}.json")
        session.tracer.dump(path)
        print(f"spans written to {path}")
    run.drain()
    print(run.summary())
    for message in result.failures:
        print(f"failed: {message}", file=sys.stderr)
    for message in result.violations:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def run_dataplane(args, result, session):
    from dataplane import DataPlaneRun

    run = DataPlaneRun(args.seed, args.workload == "attack", result)
    run.set_up()
    if session is not None:
        session.attach(run.dep.net, run.dep.routers, run)
    run.run(args.seconds, trace=session)
    run.dataplane_metrics()
    run.control_metrics()
    if run.adversary is not None:
        versions = run.adversary.flood_live_versions()
        if session is not None:
            session.flood_live_versions = versions
    return run


if __name__ == "__main__":
    sys.exit(main())
