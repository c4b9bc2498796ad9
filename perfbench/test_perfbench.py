"""Self-test of the benchmark: ``python3 -m pytest perfbench`` from the
repository root.

Runs a tiny arm of every workload, untraced and traced, twice each, and
checks that what should repeat does, that the outcome digest sees a 1 ns
model change, and that the printed metric names are those BENCHMARK.json
declares.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.jobs import WORKLOADS, make_jobs
from perfbench.measure import outcome, run_pass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)

#: per-layer metrics measured on the host clock, so they never repeat
HOST_LAYER = ("cluster.setup_self_s", "py.residual_frac", "trace.overhead_frac")
#: per-layer counts that repeat only to within ~0.1 %: the interpreter's
#: allocated-block total also moves with allocator state the model does
#: not control
APPROX_LAYER = ("py.alloc_blocks_per_msg",)


def _run(workload: str, trace: int, seed: int = 5):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if "outcome_digest" in l)
    return json.loads(lines[-1]), digest


def _exact(name: str, trace: int) -> bool:
    if trace:
        return not (name.endswith(".self_frac") or name in HOST_LAYER
                    or name in APPROX_LAYER)
    unit = next(m["unit"] for m in BENCHMARK["end_to_end"] if m["name"] == name)
    return unit not in ("s", "ref", "msg/ref", "MiB") or name == "pinned_mb"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_arm_repeats_and_matches_benchmark_json(workload, trace):
    first, digest1 = _run(workload, trace)
    again, digest2 = _run(workload, trace)
    for res in (first, again):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert digest1 == digest2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(first["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    for name, m in first["metrics"].items():
        if _exact(name, trace):
            assert m["value"] == again["metrics"][name]["value"], name
        elif name in APPROX_LAYER:
            assert m["value"] == pytest.approx(again["metrics"][name]["value"],
                                               rel=5e-3), name


def test_digest_sees_a_one_ns_model_change():
    jobs = make_jobs("flood", 5, "tiny")
    base = run_pass(jobs).digest
    assert run_pass(jobs).digest == base

    def slower_switch(make):
        def config():
            cfg = make()
            cfg.ib.switch_delay_ns += 1
            return cfg
        return config

    for job in jobs:
        job.config = slower_switch(job.config)
    assert run_pass(jobs).digest != base


@pytest.mark.parametrize("workload", ["flood", "chaos"])
def test_harness_launch_matches_plain_run_job(workload):
    """Launching the cluster in the harness (to time set-up apart) runs the
    same model as letting ``run_job`` build it."""
    from repro.cluster import run_job

    job = make_jobs(workload, 5, "tiny")[1]
    harness = run_pass([job]).jobs[0]
    plain = run_job(job.program(), job.nranks, job.scheme, job.prepost,
                    config=job.config(), on_demand=job.on_demand,
                    finalize=job.finalize, **job.run_kwargs())
    assert harness.outcome == outcome(plain)


def test_without_the_simulator_source_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "flood", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
