"""The three end-to-end workloads: set-up, one timed pass, output checks.

Every workload is a closed loop with one caller, run with ``jobs=1`` in
one process.  ``repro`` is reached only through public functions, and
always as ``module.function`` at call time, so the traced run's
wrappers (installed at import sites) see every call.

* ``sweep``  -- ``run_campaign(paper_sweep()[:28], jobs=1, store=...)``
  on a fresh on-disk store: the Table-III ladder, 308 dumps.
* ``solver`` -- ``run_case(small_solver_case(128))``, then
  ``calibrate_from_result`` and ``verify_proxy`` on its result.
* ``serve``  -- 10^5 seeded JSONL requests, 200 ``serve_stream`` calls
  of 500 lines each, on a ``PredictionService`` with default caches
  backed by a store of the case4 re-hostings.

``size="tiny"`` shrinks each to a seconds-long smoke pass with the same
code path (4 sweep cases, a 32^2 solver case, 2000 requests).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.campaign as campaign
import repro.campaign.cases as cases_mod
import repro.core.calibration as calibration
import repro.core.predictor as predictor
import repro.platform as platform
import repro.service as service

__all__ = ["WORKLOADS", "setup", "run_pass", "check", "stream_lines"]

WORKLOADS = ("sweep", "solver", "serve")

SWEEP_CASES = {"full": 28, "tiny": 4}
SOLVER_N = {"full": 128, "tiny": 32}
SERVE_REQUESTS = {"full": 100_000, "tiny": 2_000}
BATCH = 500
ZIPF_S = 1.1
RANKING_SEED = 20220530  # fixes which requests are popular
LOOKUP_SHARE = 0.1
PREDICT_SCENARIOS = ("case4", "case27", "large")
LOOKUP_SCENARIOS = ("case4", "case27")
NPROCS = tuple(2**i for i in range(11))  # 1 .. 1024
STEPS = tuple(range(10, 500, 10))  # 49 step counts
ORACLE_SAMPLES = 200  # predict responses re-derived with predict_sizes
MASS_DRIFT_TOL = 1e-10
LRU_SIZE = 4096  # PredictionService's default prediction-cache bound


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def record_digest(record) -> str:
    """Digest of the bytes-per-(dump, level, task) facts of one record."""
    return sha256_json({
        "steps": record.steps,
        "step_bytes": record.step_bytes,
        "level_bytes": record.level_bytes,
        "task_bytes_last": record.task_bytes_last,
        "cells_per_level_last": record.cells_per_level_last,
    })


# ----------------------------------------------------------------------
# the seeded serve stream
def stream_lines(seed: int, n: int) -> List[str]:
    """``n`` JSONL request lines drawn from ``seed``.

    90% predicts, Zipf(1.1)-distributed over a fixed popularity ranking
    of scenario x machine x nprocs x steps; 10% lookups, uniform over
    {case4, case27} x machines.  The ranking is part of the workload,
    so seeds differ in the draws, not in which requests are hot.
    """
    machines = platform.available_platforms()
    keys = [(s, m, p, k) for s in PREDICT_SCENARIOS for m in machines
            for p in NPROCS for k in STEPS]
    order = np.random.default_rng(RANKING_SEED).permutation(len(keys))
    rng = np.random.default_rng(seed)
    weights = np.arange(1, len(keys) + 1, dtype=np.float64) ** -ZIPF_S
    ranks = rng.choice(len(keys), size=n, p=weights / weights.sum())
    is_lookup = rng.random(n) < LOOKUP_SHARE
    lookups = [(s, m) for s in LOOKUP_SCENARIOS for m in machines]
    which = rng.integers(0, len(lookups), size=n)
    lines = []
    for i in range(n):
        if is_lookup[i]:
            s, m = lookups[which[i]]
            payload = {"op": "lookup", "scenario": s, "machine": m}
        else:
            s, m, p, k = keys[order[ranks[i]]]
            payload = {"op": "predict", "scenario": s, "machine": m, "nprocs": p, "steps": k}
        lines.append(json.dumps(payload, separators=(",", ":")))
    return lines


def _fresh(path: str) -> str:
    if os.path.exists(path):
        os.remove(path)
    return path


# ----------------------------------------------------------------------
def setup(workload: str, size: str, seed: int, workdir: str) -> Dict:
    """Inputs of one pass; for ``serve`` also the store and the stream."""
    if workload == "sweep":
        path = _fresh(os.path.join(workdir, "sweep-store.jsonl"))
        return {"cases": campaign.paper_sweep()[:SWEEP_CASES[size]],
                "store_path": path, "store": campaign.ResultStore(path)}
    if workload == "solver":
        return {"case": campaign.small_solver_case(SOLVER_N[size])}
    if workload == "serve":
        path = _fresh(os.path.join(workdir, "serve-store.jsonl"))
        rehosted = cases_mod.cases_on_machines([campaign.case4()],
                                              platform.available_platforms())
        built = campaign.run_campaign(rehosted, jobs=1, store=campaign.ResultStore(path))
        if built.failures:
            raise RuntimeError(f"serve store build failed: {built.failures}")
        lines = stream_lines(seed, SERVE_REQUESTS[size])
        batches = ["\n".join(lines[i:i + BATCH]) + "\n" for i in range(0, len(lines), BATCH)]
        lookup_lines = [i for i, line in enumerate(lines) if '"op":"lookup"' in line]
        predict_lines = sorted(set(range(len(lines))) - set(lookup_lines))
        rng = np.random.default_rng(seed + 1)
        sample = rng.choice(predict_lines, size=min(ORACLE_SAMPLES, len(predict_lines)),
                            replace=False).tolist()
        unique = len(set(lines))
        return {"store_path": path, "stored": {(r.name.split("@")[0], r.machine) for r in built.records},
                "lines": lines, "batches": batches, "checked": set(sample) | set(lookup_lines),
                "stream": {"unique": unique, "unique_per_lru": unique / LRU_SIZE}}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def run_pass(workload: str, state: Dict) -> Dict:
    """One timed pass: ``wall_s``, work ``units`` and latency samples."""
    clock = time.perf_counter
    if workload == "sweep":
        t0 = clock()
        result = campaign.run_campaign(state["cases"], jobs=1, store=state["store"])
        wall = clock() - t0
        state["result"] = result
        return {"wall_s": wall, "units": sum(len(r.steps) for r in result.records),
                "latency_s": [result.seconds.get(c.name, wall) for c in state["cases"]]}
    if workload == "solver":
        t0 = clock()
        result = campaign.run_case(state["case"])
        report = calibration.calibrate_from_result(result)
        calibration.verify_proxy(report)
        wall = clock() - t0
        state.update(result=result, report=report)
        inp = result.inputs
        fine = inp.ref_ratio ** inp.max_level
        zones = result.steps_taken * fine * (inp.n_cell[0] * fine) * (inp.n_cell[1] * fine)
        return {"wall_s": wall, "units": zones, "latency_s": [wall]}
    if workload == "serve":
        svc = service.PredictionService(store=campaign.ResultStore(state["store_path"]))
        checked = state["checked"]
        digests, sampled, errors, latency = [], {}, 0, []
        for b, batch in enumerate(state["batches"]):
            out = io.StringIO()
            t0 = clock()
            report = service.serve_stream(svc, io.StringIO(batch), out, batch_size=BATCH)
            latency.append(clock() - t0)
            text = out.getvalue()
            digests.append(hashlib.sha256(text.encode()).hexdigest())
            errors += report.n_errors
            lines = text.splitlines()
            base = b * BATCH
            for i in range(base, base + len(lines)):
                if i in checked:
                    sampled[i] = lines[i - base]
            errors += abs(batch.count("\n") - len(lines))  # a lost or extra answer
        state.update(digests=digests, responses=sampled, errors=errors, stats=svc.stats())
        return {"wall_s": sum(latency), "units": len(state["lines"]), "latency_s": latency}
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
def check(workload: str, size: str, seed: int, state: Dict, pinned: Dict) -> Tuple[int, int, List[str], Dict]:
    """Check a pass's outputs: ``(attempted, failed, problems, digests)``.

    ``digests`` are the values the pass produced, in ``pinned``'s
    layout, for re-pinning after a deliberate output change.
    """
    problems: List[str] = []
    if workload == "sweep":
        result = state["result"]
        records = result.by_name()
        got = {name: record_digest(r) for name, r in records.items()}
        for case in state["cases"]:
            want = pinned["records"].get(case.name)
            if case.name in result.failures:
                problems.append(f"{case.name}: {result.failures[case.name]}")
            elif got.get(case.name) != want:
                problems.append(f"{case.name}: record digest {got.get(case.name)} != pinned {want}")
        reloaded = campaign.ResultStore(state["store_path"])
        if len(reloaded) != len(state["cases"]) or result.failed_puts or result.unflushed:
            problems.append(f"store holds {len(reloaded)} of {len(state['cases'])} records")
        return len(state["cases"]) + 1, len(problems), problems, {"records": got}
    if workload == "solver":
        case, result, report = state["case"], state["result"], state["report"]
        record = campaign.record_from_result(case.name, result, case.nnodes, case.engine)
        got_record = record_digest(record)
        got_cal = {"f": repr(float(report.f)), "dataset_growth": repr(float(report.growth.growth))}
        if got_record != pinned["records"].get(case.name):
            problems.append(f"{case.name}: record digest {got_record} != pinned")
        if got_cal != pinned["calibration"].get(case.name):
            problems.append(f"{case.name}: calibration {got_cal} != pinned "
                            f"{pinned['calibration'].get(case.name)}")
        mass = np.asarray(result.mass_history)
        drift = float(np.max(np.abs(mass / mass[0] - 1.0)))
        if not drift <= MASS_DRIFT_TOL:
            problems.append(f"{case.name}: mass drift {drift:.3e} > {MASS_DRIFT_TOL:g}")
        return 3, len(problems), problems, {"records": {case.name: got_record},
                                            "calibration": {case.name: got_cal}}
    if workload == "serve":
        n = len(state["lines"])
        failed = state["errors"]
        if failed:
            problems.append(f"{failed} errored responses")
        key = f"{size}/{seed}"
        want = pinned["serve"].get(key)
        if want is not None:
            for b, (got, exp) in enumerate(zip(state["digests"], want)):
                if got != exp:
                    bad = min(BATCH, n - b * BATCH)
                    failed += bad
                    problems.append(f"batch {b}: response digest differs from pinned")
            if len(want) != len(state["digests"]):
                failed += 1
                problems.append("pinned batch count differs")
        mismatched = _oracle(state)
        failed += len(mismatched)
        problems.extend(mismatched)
        return n, min(failed, n), problems, {"serve": {key: state["digests"]}}
    raise ValueError(f"unknown workload {workload!r}")


def _oracle(state: Dict) -> List[str]:
    """Re-derive sampled answers without the service and compare."""
    problems = []
    for i, text in sorted(state["responses"].items()):
        request = json.loads(state["lines"][i])
        response = json.loads(text)
        if response.get("index") != i % BATCH or not response.get("ok"):
            problems.append(f"request {i}: bad response {text[:120]}")
            continue
        if request["op"] == "lookup":
            hit = (request["scenario"], request["machine"]) in state["stored"]
            if response.get("hit") != hit:
                problems.append(f"request {i}: lookup hit={response.get('hit')}, expected {hit}")
            continue
        inputs, nprocs, machine = service.request_from_dict(request).resolve()
        ref = predictor.predict_sizes(inputs, nprocs, platform=machine)
        want = {"machine": ref.machine, "nprocs": ref.nprocs, "f": ref.f, "growth": ref.growth,
                "growth_source": ref.growth_source, "total_bytes": ref.total_bytes,
                "step_bytes": [float(v) for v in ref.step_bytes],
                "cumulative_bytes": [float(v) for v in ref.cumulative_bytes],
                "burst_seconds": [float(v) for v in ref.burst_seconds]}
        got = {k: response.get(k) for k in want}
        if got != want:
            diff = sorted(k for k in want if got[k] != want[k])
            problems.append(f"request {i}: {', '.join(diff)} differ from predict_sizes")
    return problems
