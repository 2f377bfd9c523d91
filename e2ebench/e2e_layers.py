"""What the traced run wraps, and how spans become per-layer metrics.

Each :class:`~e2e_tracer.Target` names one public call of a layer of
``repro`` and the span it records.  A span's metrics are
``<span>.self_s`` (summed self time) and ``<span>.calls``; the count
hooks below add the work a call did, measured at the same boundary.
:data:`PER_LAYER` is the fixed metric list every traced run reports:
a layer a workload never reaches reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from e2e_tracer import Span, Target, layer_totals, self_times

__all__ = ["TARGETS", "PER_LAYER", "RECONCILE_TOL", "per_layer_metrics", "reconcile",
           "reconcile_problem"]

RECONCILE_TOL = 0.05


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_tiles(counters, args, kwargs, result, parent) -> None:
    counters["workload.mask.tiles"] += result.size


def _count_boxes(counters, args, kwargs, result, parent) -> None:
    counters["amr.cluster.boxes"] += len(result)


def _count_level_dumps(counters, args, kwargs, result, parent) -> None:
    counters["plotfile.level_dumps"] += len(_arg(args, kwargs, 4, "geoms"))


def _count_records(counters, n: int, nbytes: int, parent: Optional[str]) -> None:
    counters["iosim.trace.records"] += n
    if parent == "plotfile.write":
        counters["plotfile.write.files"] += n
        counters["plotfile.write.bytes"] += nbytes


def _count_record(counters, args, kwargs, result, parent) -> None:
    # IOTrace.record(self, step, level, rank, nbytes, path, kind)
    _count_records(counters, 1, int(_arg(args, kwargs, 4, "nbytes")), parent)


def _count_record_batch(counters, args, kwargs, result, parent) -> None:
    # IOTrace.record_batch(self, step, level, rank, nbytes, paths, kind);
    # scalars broadcast against the longest column, as in the trace.
    cols = [np.atleast_1d(_arg(args, kwargs, i, name))
            for i, name in enumerate(("step", "level", "rank", "nbytes"), start=1)]
    paths = _arg(args, kwargs, 5, "paths")
    n = max([len(c) for c in cols] + [1 if isinstance(paths, str) else len(paths)])
    nbytes = cols[3]
    total = int(nbytes.sum()) * (n if len(nbytes) == 1 else 1)
    _count_records(counters, n, total, parent)


def _count_zone_updates(counters, args, kwargs, result, parent) -> None:
    # advance_patch returns the updated interior of one ghosted patch
    counters["hydro.advance.zone_updates"] += result.shape[-2] * result.shape[-1]


TARGETS: List[Target] = [
    Target("workload.mask", "repro.workload.annulus:refined_region_mask", _count_tiles),
    Target("workload.annulus", "repro.workload.annulus:annulus_boxarray"),
    Target("workload.layout", "repro.workload.generator:SedovWorkloadGenerator.level_layout"),
    Target("amr.cluster", "repro.amr.cluster:berger_rigoutsos", _count_boxes),
    Target("amr.clip", "repro.amr.grid:clip_boxarray"),
    Target("amr.distribution", "repro.amr.distribution:make_distribution"),
    Target("amr.regrid", "repro.amr.hierarchy:AmrHierarchy.regrid"),
    Target("amr.tagging", "repro.amr.tagging:tag_gradient"),
    Target("plotfile.write", "repro.plotfile.writer:write_plotfile", _count_level_dumps),
    Target("iosim.trace", "repro.iosim.darshan:IOTrace.record", _count_record),
    Target("iosim.trace", "repro.iosim.darshan:IOTrace.record_batch", _count_record_batch),
    Target("iosim.burst_time", "repro.iosim.storage:StorageModel.burst_time"),
    Target("hydro.advance", "repro.hydro.flux:advance_patch", _count_zone_updates),
    Target("hydro.riemann", "repro.hydro.riemann:hllc_flux"),
    Target("hydro.reconstruction", "repro.hydro.reconstruction:interface_states"),
    Target("hydro.cons_to_prim", "repro.hydro.state:cons_to_prim"),
    Target("hydro.timestep", "repro.hydro.timestep:cfl_timestep"),
    Target("hydro.boundary", "repro.hydro.boundary:apply_boundary"),
    Target("sim.castro", "repro.sim.castro:CastroSim.run"),
    Target("core.calibrate", "repro.core.calibration:calibrate_from_result"),
    Target("core.verify", "repro.core.calibration:verify_proxy"),
    Target("macsio.run", "repro.macsio.dump:run_macsio"),
    Target("campaign.executor", "repro.campaign.runner:run_campaign"),
    Target("campaign.run_case", "repro.campaign.runner:run_case"),
    Target("campaign.records", "repro.campaign.records:record_from_result"),
    Target("campaign.store.put", "repro.campaign.store:ResultStore.put"),
    Target("campaign.store.refresh", "repro.campaign.store:ResultStore.refresh"),
    Target("campaign.store.get", "repro.campaign.store:ResultStore.get_labeled"),
    Target("service.write", "repro.service.serve:serve_stream"),
    Target("service.lines", "repro.service.serve:serve_lines"),
    Target("service.parse", "repro.service.request:request_from_dict"),
    Target("service.render", "repro.service.request:response_to_dict"),
    Target("service.predict", "repro.service.engine:PredictionService.predict_many"),
    Target("service.lookup", "repro.service.engine:PredictionService.lookup_many"),
    Target("service.plan", "repro.service.plans:PlatformPlan.burst_series"),
]

# (metric name, unit), in report order.
PER_LAYER: List[Tuple[str, str]] = [
    *((f"{name}.self_s", "s") for name in dict.fromkeys(t.name for t in TARGETS)),
    ("workload.mask.calls", "count"),
    ("workload.mask.tiles", "count"),
    ("amr.cluster.calls", "count"),
    ("amr.cluster.boxes", "count"),
    ("amr.distribution.calls", "count"),
    ("amr.distribution.reuse_ratio", "ratio"),
    ("plotfile.write.calls", "count"),
    ("plotfile.write.files", "count"),
    ("plotfile.write.bytes", "B"),
    ("iosim.trace.records", "count"),
    ("iosim.burst_time.calls", "count"),
    ("hydro.advance.calls", "count"),
    ("hydro.advance.zone_updates", "count"),
    ("campaign.store.put.calls", "count"),
    ("service.prediction_hit_ratio", "ratio"),
    ("service.plan_hit_ratio", "ratio"),
    ("service.store_hit_ratio", "ratio"),
    ("service.lru_evictions", "count"),
    ("service.errors", "count"),
    ("service.stream_unique", "count"),
    ("service.stream_unique_per_lru", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.reconcile_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.spans", "count"),
]


def _hit_ratio(cache: Dict) -> float:
    looked = cache["hits"] + cache["misses"]
    return cache["hits"] / looked if looked else 0.0


def reconcile(spans: List[Span], wall_s: float) -> Tuple[float, float]:
    """``(reconcile ratio, unattributed ratio)`` of a traced pass.

    ``wall_s`` must come from a clock of its own around the whole pass,
    not from the spans.  The reconcile ratio is the summed self time of
    every span over it: below 1 by the time no span covers (work the
    pass did outside any wrapped call), above 1 if spans overlap.  The
    unattributed ratio is the share of ``wall_s`` that no span below a
    root accounts for: the roots' own self time (``run_campaign``'s loop,
    ``serve_stream``'s encode) plus the uncovered time.
    """
    selfs = self_times(spans)
    inner = sum(own for own, span in zip(selfs, spans) if span.parent >= 0)
    return sum(selfs) / wall_s, (wall_s - inner) / wall_s


def reconcile_problem(ratio: float, tol: float = RECONCILE_TOL) -> Optional[str]:
    """Why a reconcile ratio fails the check, or None when it passes."""
    if abs(ratio - 1.0) <= tol:
        return None
    return (f"layer self times cover {ratio:.1%} of the traced pass's wall time "
            f"(tolerance {tol:.0%})")


def per_layer_metrics(spans: List[Span], counters: Dict[str, float], wall_s: float,
                      service_stats: Optional[Dict] = None,
                      stream: Optional[Dict] = None) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except the untraced-run ones.

    ``wall_s`` is the traced pass timed from outside the spans; see
    :func:`reconcile`.
    """
    totals = layer_totals(spans)
    out = {name: 0.0 for name, _ in PER_LAYER}
    for name, entry in totals.items():
        out[f"{name}.self_s"] = entry["self_s"]
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = entry["calls"]
    for name, value in counters.items():
        if name in out:
            out[name] = value
    level_dumps = counters.get("plotfile.level_dumps", 0)
    if level_dumps:
        out["amr.distribution.reuse_ratio"] = 1.0 - out["amr.distribution.calls"] / level_dumps
    if service_stats is not None:
        out["service.prediction_hit_ratio"] = _hit_ratio(service_stats["predictions"])
        out["service.plan_hit_ratio"] = _hit_ratio(service_stats["plans"])
        lookups = service_stats["lookups"]
        out["service.store_hit_ratio"] = service_stats["store_hits"] / lookups if lookups else 0.0
        out["service.lru_evictions"] = service_stats["predictions"]["evictions"]
        out["service.errors"] = service_stats["errors"]
    if stream is not None:
        out["service.stream_unique"] = stream["unique"]
        out["service.stream_unique_per_lru"] = stream["unique_per_lru"]
    out["trace.wall_s"] = wall_s
    out["trace.reconcile_ratio"], out["trace.unattributed_ratio"] = reconcile(spans, wall_s)
    out["trace.spans"] = len(spans)
    return out
