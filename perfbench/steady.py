"""Steadiness check: run every workload in two interleaved sets of seeds
and say whether the sets agree within the bounds of BENCHMARK.json.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads attack

For each workload and end-to-end metric it prints, per set, the median
and quartiles (``statistics.quantiles(values, n=4)``) and the spread
(interquartile distance over the median).  Two sets agree when every
spread, ``setup_s``'s included, is within the metric's bound, the
second set's median is not worse than the first's by more than the
bound, and the share of failed operations is the same in every run.
Each run lasts ``run_seconds`` of BENCHMARK.json.  Run from the root of
a checkout; runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    outcome["wall_s"] = time.perf_counter() - started
    return outcome


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def report(spec: dict, workload: str, sets: list) -> bool:
    agree = True
    print(f"\n== {workload}")
    for index, runs in enumerate(sets):
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        share = failed / attempted
        correct = all(run["correct"] for run in runs)
        print(f"set {index + 1}: {len(runs)} runs, failed share {share:.6f} "
              f"({failed}/{attempted}), all correct: {correct}")
        agree &= correct
    exact = all(
        [run["failed"] * other["attempted"] == other["failed"] * run["attempted"]
         for runs in sets for run in runs for other in sets[0][:1]]
    )
    print(f"failed share identical in every run: {exact}")
    agree &= exact
    for metric in spec["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        cells = []
        ok = True
        medians = []
        for runs in sets:
            values = [run["metrics"][name]["value"] for run in runs]
            q2, q1, q3, share = spread(values)
            medians.append(q2)
            cells.append(f"{q2:12.4f} [{q1:.4f}, {q3:.4f}] spread {100 * share:5.1f}%")
            if share > bound:
                ok = False
        drift = worse_by(medians[0], medians[1], better)
        cells.append(f"2nd worse by {100 * drift:+5.1f}%")
        if drift > bound:
            ok = False
        agree &= ok
        print(f"{name:<18} bound {100 * bound:4.1f}%  " + " | ".join(cells)
              + ("" if ok else "  <-- outside bound"))
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    results = {w: [[], []] for w in workloads}
    for index in range(args.runs):
        # Interleave the two sets, alternating which goes first.
        for which in ((0, 1) if index % 2 == 0 else (1, 0)):
            for workload in workloads:
                seed = 1 + index + 1000 * which
                outcome = run_once(spec, workload, seed, seconds)
                results[workload][which].append(outcome)
                print(f"{workload} set {which + 1} seed {seed}: "
                      f"correct={outcome['correct']} failed={outcome['failed']}"
                      f"/{outcome['attempted']} wall {outcome['wall_s']:.1f} s", flush=True)
    agree = all([report(spec, w, results[w]) for w in workloads])
    print("\nsteady: " + ("yes, within every bound" if agree else "NO"))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
