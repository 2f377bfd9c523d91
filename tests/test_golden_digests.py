"""Golden end-to-end digests of the workload and solver engines.

Each pin is the sha256 of one case's ``RunRecord`` facts — the dump
steps, bytes per dump, bytes per level, bytes per task at the last dump
and cells per level — serialized as sorted compact JSON.  A refactor of
the layout, masking, clustering, distribution or plotfile layers must
leave every pin unchanged; a change that is meant to alter outputs
re-pins here and says so.

The set is the fast subset of the paper campaign: the two registry
cases of Figs. 6-10, the Fig. 11 ``large`` case, and the four corners of
the Table-III ladder (smallest and 2048^2 mesh, low cfl with 2 levels
and high cfl with 4 levels).

The solver engine is pinned by ``small_solver_case(64)``: its record
digest plus the sha256 of the final conserved state's bytes (ghosts
included), so a change to the hydro kernels that moves a single bit of
the solution fails here even when the dump layout does not move.
"""

import hashlib
import json

import pytest

from repro import campaign
from repro.campaign.runner import run_case
from repro.sim.castro import CastroSim

GOLDEN = {
    "case4": "ab70d877b93a1711af605e57a37e8ccb3342508d94ad5a87b48b1ebc4a4d643f",
    "case27": "34567be12b404ccb40b17d040223311455265c5254bd29ece932ab0d0a24e490",
    "large": "1ffcba20a3a8d1f0bc2e025a05ec81e247fc6dc8ea8eabbed2fae49a1b8750b4",
    "sweep_n32_cfl3_maxl2_np1": "31c9f39b72146c44157308d37054685913f1c69871a071e2265bf90e6769a59a",
    "sweep_n32_cfl6_maxl4_np1": "4e4b01a6d62a7b2f7cecd877da1c01d1ba079cb9805bf07f6c1f7e50a509b2c3",
    "sweep_n2048_cfl3_maxl2_np128": "cd1abd5c7811b45afb4b2594ab464e2b80b234b981c1233a433b43df5cf7c3a1",
    "sweep_n2048_cfl6_maxl4_np128": "f1ed175384f5e2efb2db8f8960d5b25c56a4688d279c53598b9589169f5fa6f3",
}

SOLVER_GOLDEN = {
    "record": "d4e570f76562b12161426acfba6c26605ee1c2cda169f607147a84b31da0ebbb",
    "state": "128bbe5f29ce98a7f03fabb1a30e29dc6982d78b65206bab08f41074ef098ca6",
}


def _cases():
    sweep = {c.name: c for c in campaign.paper_sweep()}
    return {name: campaign.CASE_REGISTRY.get(name) or sweep[name] for name in GOLDEN}


def record_digest(record) -> str:
    text = json.dumps({
        "steps": record.steps,
        "step_bytes": record.step_bytes,
        "level_bytes": record.level_bytes,
        "task_bytes_last": record.task_bytes_last,
        "cells_per_level_last": record.cells_per_level_last,
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_record_digest_is_pinned(name):
    case = _cases()[name]
    assert case.engine == "workload"
    record = campaign.record_from_result(case.name, run_case(case), case.nnodes, case.engine)
    assert record_digest(record) == GOLDEN[name]


def test_solver_case_is_pinned():
    # The sim is built as run_case builds it, kept to read its state.
    case = campaign.small_solver_case(64)
    assert case.engine == "solver"
    sim = CastroSim(case.inputs, nprocs=case.nprocs, nnodes=case.nnodes, machine=case.machine)
    record = campaign.record_from_result(case.name, sim.run(), case.nnodes, case.engine)
    assert record_digest(record) == SOLVER_GOLDEN["record"]
    assert hashlib.sha256(sim._U.tobytes()).hexdigest() == SOLVER_GOLDEN["state"]
