"""Per-message timing digests pinned on a seeded fuzz corpus.

The golden replays (``test_determinism_replay.py``) cover five
fault-free workloads.  This corpus widens the timing contract to the
opt-in paths: specs from the differential fuzzer's generator
(:func:`repro.check.fuzz.generate_spec`) run under all four schemes on a
healthy fabric, under a receiver stall, in a lossy window and through a
rank death with the failure detector armed — plus the legacy
``use_rdma_channel`` ring.  Every cell's :class:`TimingDigest` must match
``tests/golden/timing_corpus.json`` exactly.

The cells run without the invariant auditor: they pin timing, and the
fuzz suite owns the invariants.  The one known violation on this corpus
is kept visible as a strict xfail below.

Regenerate (only for a change meant to alter the model)::

    PYTHONPATH=src python tests/test_timing_corpus.py --regen
"""

import json
import os
import sys

import pytest

from repro.check import Auditor, InvariantViolation
from repro.check.fuzz import EXTENDED_SCHEMES, build_program, generate_spec
from repro.check.timing import TimingDigest
from repro.cluster import TestbedConfig, run_job
from repro.core import make_scheme
from repro.faults import FaultPlan

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "golden", "timing_corpus.json")

SEEDS = (3, 11, 19, 27, 42, 58)
SCENARIOS = (None, "receiver-stall", "lossy-window", "rank-death")


def _cells():
    """cell id -> (seed, scenario, scheme, use_rdma_channel)."""
    cells = {}
    for seed in SEEDS:
        for scenario in SCENARIOS:
            arms = [(s, False) for s in EXTENDED_SCHEMES] + [("dynamic", True)]
            for scheme, ring in arms:
                cid = f"{seed}/{scenario or 'none'}/{scheme}" + ("/ring" if ring else "")
                cells[cid] = (seed, scenario, scheme, ring)
    return cells


CELLS = _cells()


def run_cell(seed, scenario, scheme_name, ring):
    """The cell's digest (or the error it raised, as a stable string)."""
    spec = generate_spec(seed, scenario)
    kwargs = {}
    if scheme_name in ("static", "dynamic"):
        kwargs["ecm_threshold"] = int(spec["ecm_threshold"])
    cfg = TestbedConfig(nodes=spec["nranks"])
    cfg.mpi.use_rdma_channel = ring
    faults = FaultPlan.from_spec(spec["faults"]) if spec["faults"] else None
    with TimingDigest() as td:
        result = run_job(
            build_program(spec),
            spec["nranks"],
            make_scheme(scheme_name, **kwargs),
            prepost=spec["prepost"],
            config=cfg,
            faults=faults,
            ft=spec["ft"],
        )
    return td.hexdigest(result)


@pytest.fixture(scope="module")
def corpus():
    with open(CORPUS_PATH) as f:
        return json.load(f)


def test_corpus_covers_every_cell(corpus):
    assert set(corpus) == set(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_timing_matches_corpus(cell, corpus):
    assert run_cell(*CELLS[cell]) == corpus[cell]


@pytest.mark.xfail(strict=True, raises=InvariantViolation, reason=(
    "known defect: the legacy use_rdma_channel ring under the dynamic "
    "scheme overwrites an unreclaimed slot of a 2-slot ring"))
def test_legacy_ring_dynamic_keeps_slot_conservation():
    spec = generate_spec(3, None)
    cfg = TestbedConfig(nodes=spec["nranks"])
    cfg.mpi.use_rdma_channel = True
    run_job(build_program(spec), spec["nranks"],
            make_scheme("dynamic", ecm_threshold=int(spec["ecm_threshold"])),
            prepost=spec["prepost"], config=cfg, audit=Auditor())


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    out = {cid: run_cell(*args) for cid, args in sorted(CELLS.items())}
    with open(CORPUS_PATH, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(out)} cells to {CORPUS_PATH}")
