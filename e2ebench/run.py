"""End-to-end benchmark: the paper sweep, the solver+model pipeline and
the repro-serve wire path, each in fresh single-process children.

    python3 e2ebench/run.py --workload sweep|solver|serve|all \\
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off: closed-loop passes, each in a fresh child,
until ``--seconds`` of passes were timed (at least one pass; metrics
are medians over passes), with set-up-only children before and
after them until ``SETUPS`` set-ups were timed (``setup_s`` is their
median).  ``--trace 1`` runs a traced pass between two untraced ones
and reports the per-layer metrics of ``e2e_layers.PER_LAYER``, the
tracing overhead and how well the layers' self times reconcile with the
traced pass's wall time, taken on a clock of its own.

Every pass checks its outputs against ``digests.json`` (and, for
``serve``, against answers re-derived with ``predict_sizes``); a
mismatch counts as failed, it does not stop the run.  The report ends
with one JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``.
A full record of each run, host stamp included, is written to
``.e2ebench/result-<workload>.json`` and the traced run's spans to
``.e2ebench/spans-<workload>.jsonl``.

``--workload all`` runs the three in turn and prints every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from e2e_layers import PER_LAYER, reconcile_problem

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".e2ebench")
WORKER = os.path.join(HERE, "e2e_worker.py")
DIGESTS_PATH = os.path.join(HERE, "digests.json")

WORKLOADS = ("sweep", "solver", "serve")
# Set-ups timed per full-size run, those of the passes included.  One
# set-up is short (~1 s; ~5 s for serve, which builds a store) and its
# CPU time alone swings by a third with the host's load from one second
# to the next, so a run takes the median of several, half of the
# set-up-only ones before the passes and half after.
SETUPS = {"sweep": 9, "solver": 9, "serve": 3}
RUN_BUDGET_S = 170.0  # every child is killed past this, so a run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# End-to-end metrics, the same names on every workload.  What a unit of
# work and a latency sample are depends on the workload (UNITS).  The
# median latency is reported too but not gated: on sweep it is a
# ~50 ms case, whose run-to-run spread is wider than any useful bound.
# solver's one latency sample is its whole pipeline, so there
# latency_p95_ms is units / throughput again, not a second measurement.
END_TO_END = (("setup_s", "s"), ("throughput", "1/s"), ("latency_p95_ms", "ms"),
              ("peak_rss_mb", "MB"))
UNITS = {  # workload -> (rate name, rate unit, latency sample name)
    "sweep": ("dumps_per_s", "dumps/s", "case"),
    "solver": ("zone_updates_per_s", "zone-updates/s", "pipeline"),
    "serve": ("req_per_s", "req/s", "batch"),
}


class BenchError(RuntimeError):
    pass


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts the workers of one workload's run, inside its time budget."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def child(self, mode: str, workload: str, spans: str = "") -> Dict:
        cmd = [sys.executable, WORKER, mode, "--workload", workload,
               "--size", self.args.size, "--seed", str(self.args.seed), "--workdir", WORKDIR]
        if spans:
            cmd += ["--spans", spans]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"time budget of {RUN_BUDGET_S:.0f} s spent before the {mode} pass")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} child overran the time budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{workload} {mode} child exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def measure(self, workload: str) -> Dict:
        """Untraced: passes until --seconds of passes were timed (at
        least one), with set-up-only children before and after them
        until there are ``SETUPS`` set-ups."""
        n_setups = SETUPS[workload] if self.args.size == "full" else 1
        setups = [self.child("setup", workload)["setup_s"] for _ in range((n_setups - 1) // 2)]
        passes: List[Dict] = []
        while True:
            started = time.monotonic()
            passes.append(self.child("measure", workload))
            now = time.monotonic()
            # stop at --seconds, or when another child like this one
            # would not end inside the run's time budget
            if sum(p["wall_s"] for p in passes) >= self.args.seconds or 2 * now - started > self.deadline:
                break
        setups += [p["setup_s"] for p in passes]
        setups += [self.child("setup", workload)["setup_s"]
                   for _ in range(n_setups - len(setups))]
        rates = [p["units"] / p["wall_s"] for p in passes]
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput": statistics.median(rates),
            "latency_p50_ms": statistics.median(percentile(p["latency_s"], 50) for p in passes) * 1e3,
            "latency_p95_ms": statistics.median(percentile(p["latency_s"], 95) for p in passes) * 1e3,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        return {"metrics": metrics, "passes": passes, "setups": setups,
                "attempted": sum(p["attempted"] for p in passes),
                "failed": sum(p["failed"] for p in passes),
                "problems": [q for p in passes for q in p["problems"]]}

    def trace(self, workload: str) -> Dict:
        """A traced pass between two untraced ones, each in a fresh
        child; the overhead compares it with their mean, so a drift in
        machine speed over the run does not read as tracing cost."""
        before = self.child("measure", workload)
        traced = self.child("trace", workload, spans=os.path.join(WORKDIR, f"spans-{workload}.jsonl"))
        after = self.child("measure", workload)
        passes = [before, traced, after]
        metrics = dict(traced["per_layer"])
        metrics["trace.untraced_wall_s"] = (before["pass_s"] + after["pass_s"]) / 2
        metrics["trace.overhead_ratio"] = traced["pass_s"] / metrics["trace.untraced_wall_s"]
        problems = [q for p in passes for q in p["problems"]]
        failed = sum(p["failed"] for p in passes)
        problem = reconcile_problem(metrics["trace.reconcile_ratio"])
        if problem:
            failed += 1
            problems.append(problem)
        return {"metrics": metrics, "passes": passes, "run_id": traced["run_id"],
                "attempted": sum(p["attempted"] for p in passes) + 1,
                "failed": failed, "problems": problems}


def host_stamp(seed: int) -> Dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "src_sha256": digest.hexdigest(), "seed": seed}


def report(workload: str, trace: int, out: Dict, host: Dict) -> None:
    """Human-readable lines; every metric by name with its unit."""
    rate_name, rate_unit, sample = UNITS[workload]
    print(f"== {workload} (trace={trace}, seed={host['seed']}) on {host['cpu_count']} CPUs, "
          f"Python {host['python']}, NumPy {host['numpy']}, git {host['git_sha'] or '-'}")
    metrics = out["metrics"]
    if trace:
        for name, unit in PER_LAYER:
            print(f"  {name:36s} {metrics[name]:16.6g} {unit}")
    else:
        n = len(out["passes"])
        samples = len(out["passes"][0]["latency_s"])
        print(f"  {'setup_s':20s} {metrics['setup_s']:14.4f} s   (median of {len(out['setups'])} set-ups)")
        print(f"  {rate_name:20s} {metrics['throughput']:14.6g} {rate_unit}   "
              f"(= throughput, median of {n} pass{'es' * (n > 1)})")
        for q in ("p50", "p95"):
            alias = f"{sample}_{q}_ms"
            print(f"  {alias:20s} {metrics[f'latency_{q}_ms']:14.3f} ms  "
                  f"(= latency_{q}_ms, {samples} {sample} sample{'s' * (samples > 1)} per pass)")
        print(f"  {'peak_rss_mb':20s} {metrics['peak_rss_mb']:14.1f} MB")
        stream = out["passes"][0].get("stream")
        if stream:
            print(f"  stream: {stream['unique']} unique requests, "
                  f"{stream['unique_per_lru']:.2f}x the prediction LRU")
    rate = out["failed"] / out["attempted"]
    print(f"  {'error_rate':20s} {rate:14.6f}     ({out['failed']} failed of {out['attempted']} checked)")
    for problem in out["problems"][:20]:
        print(f"  ! {problem}")


def run_one(runner: Runner, workload: str, host: Dict) -> Dict:
    trace = runner.args.trace
    out = runner.trace(workload) if trace else runner.measure(workload)
    host = {**host, "numpy": out["passes"][0]["numpy"]}
    report(workload, trace, out, host)
    with open(os.path.join(WORKDIR, f"result-{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "trace": trace, "size": runner.args.size,
                   "host": host, **out}, fh, indent=1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="serve request-stream seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time passes until they add up to this (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    host = host_stamp(args.seed)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outs = {w: run_one(Runner(args), w, host) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = dict(PER_LAYER if args.trace else END_TO_END)
    prefix = len(workloads) > 1
    result = {
        "correct": all(o["failed"] == 0 for o in outs.values()),
        "attempted": sum(o["attempted"] for o in outs.values()),
        "failed": sum(o["failed"] for o in outs.values()),
        "metrics": {(f"{w}.{name}" if prefix else name): {"value": o["metrics"][name], "unit": unit}
                    for w, o in outs.items() for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
