#!/usr/bin/env python3
"""The repository benchmark: simulator cost and simulated outcomes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flood --seed 1 --seconds 25 --trace 0

One process drives one workload as a closed batch loop: the jobs of a pass
run one after another, and passes repeat until ``--seconds`` of host time
have been measured.  The first pass warms caches and lazy imports and is
not timed; every later pass must reproduce its simulated outcome exactly.
A fixed reference loop (``reference.py``) is timed before the first timed
pass and after every pass, and a pass's run time is reported as a
multiple of the mean of the two walks around it, so the host's speed
drift cancels.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer ledger (see ``ledger.py``).  Lines before
it print every metric with its unit, the outcome digest, the failed-job
share and the model's latency error.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: the end-to-end metrics and their units, in print order
END_TO_END = {
    "run_ref": "ref",
    "setup_s": "s",
    "msgs_per_ref": "msg/ref",
    "events_per_msg": "count",
    "peak_rss_mb": "MiB",
    "sim_lat_us": "sim_us",
    "sim_bw_MBps": "MB/s",
    "sim_makespan_ms": "sim_ms",
    "pinned_mb": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="host time to measure, after the warm-up pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full",
                   help="'tiny' shrinks every job (self-test)")
    return p.parse_args(argv)


def _replay_problems(first, again) -> int:
    """Mark jobs of ``again`` whose simulated outcome differs from the
    warm-up pass; returns how many."""
    bad = 0
    for a, b in zip(first.jobs, again.jobs):
        if (a.outcome, a.events) != (b.outcome, b.events) and not b.problems:
            b.problems.append(f"{b.name}: outcome differs from the warm-up pass")
        bad += bool(b.problems)
    return bad


def measure(jobs, seconds: float):
    """Warm-up pass, then timed passes until ``seconds`` have elapsed, each
    bracketed by walks of the reference loop; returns the warm-up pass,
    the timed passes and the ``len(passes) + 1`` walk times."""
    from perfbench.measure import run_pass
    from perfbench.reference import ReferenceLoop

    ref = ReferenceLoop()
    first = run_pass(jobs)
    passes = []
    walks = [ref.seconds()]
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(jobs))
        walks.append(ref.seconds())
    return first, passes, walks


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: simulator source not found at {SRC}/repro; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.jobs import PAPER_LATENCY_US, WORKLOADS, make_jobs

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(know {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    jobs = make_jobs(args.workload, args.seed, args.size)

    first, passes, walks = measure(jobs, args.seconds)
    checked = [first, *passes]
    failed = first.failed + sum(_replay_problems(first, p) for p in passes)
    sim = first.sim_metrics()
    run_s = statistics.median(p.run_s for p in passes)
    run_ref = statistics.median(
        p.run_s / ((a + b) / 2.0) for p, a, b in zip(passes, walks, walks[1:]))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"size={args.size} jobs/pass={len(jobs)} timed passes={len(passes)}")
    print(f"  outcome_digest {first.digest}")
    print(f"  host wall time: run {run_s:.6g} s per pass, reference loop "
          f"{statistics.median(walks):.6g} s per walk (medians)")

    consistent = True
    if args.trace:
        from perfbench.ledger import CONSISTENCY_BOUND, traced

        ledger = traced(jobs, run_s)
        checked += ledger["passes"]
        failed += sum(_replay_problems(first, p) for p in ledger["passes"])
        coverage = ledger["coverage"]
        consistent = abs(coverage - 1.0) <= CONSISTENCY_BOUND
        print(f"  ledger coverage {coverage:.4f} of traced wall time "
              f"(bound ±{CONSISTENCY_BOUND:.0%}): "
              f"{'ok' if consistent else 'FAILED'}")
        metrics = ledger["metrics"]
    else:
        values = dict(sim)
        values["run_ref"] = run_ref
        values["setup_s"] = statistics.median(p.setup_s for p in passes)
        values["msgs_per_ref"] = first.data_msgs / run_ref
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["peak_rss_mb"] = maxrss / 1024.0  # Linux reports KiB
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    attempted = sum(len(p.jobs) for p in checked)
    print(f"  failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} jobs)")
    problems = [msg for p in checked for j in p.jobs for msg in j.problems]
    for msg in problems[:10]:
        print(f"  FAILED {msg}")
    if args.workload == "flood":  # the paper testbed's 2-node crossbar
        lat = sim["sim_lat_us"]
        print(f"  model error: sim_lat_us {lat:.4f} vs the paper testbed's "
              f"measured ~{PAPER_LATENCY_US} us "
              f"({lat / PAPER_LATENCY_US - 1:+.1%}); the model is calibrated "
              "to the testbed, not validated on data held out from tuning")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
