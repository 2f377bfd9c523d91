"""One fresh process per measurement: ``python3 e2e_worker.py MODE ...``.

Modes:

* ``setup``   -- imports and input generation only; reports ``setup_s``.
* ``measure`` -- set-up, one untraced pass, output checks.
* ``trace``   -- set-up, one pass with every layer wrapped, output
  checks, per-layer metrics; the spans are written to ``--spans``.

The result is one JSON object on the last line of standard output.
``run.py`` starts this with ``PYTHONPATH`` naming the repository's
``src`` and the BLAS/OpenMP thread counts pinned to 1.
"""

import argparse
import json
import os
import resource
import sys
import time
import uuid

_T_START = time.perf_counter()  # set-up time counts from here

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import e2e_workloads as wl

    state = wl.setup(args.workload, args.size, args.seed, args.workdir)
    setup_s = time.perf_counter() - _T_START
    out = {"setup_s": setup_s, "numpy": sys.modules["numpy"].__version__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "trace":
        import e2e_layers
        import e2e_tracer

        tracer = e2e_tracer.Tracer(run_id=uuid.uuid4().hex)
        with e2e_tracer.patched(tracer, e2e_layers.TARGETS):
            t0 = time.perf_counter()
            timing = wl.run_pass(args.workload, state)
            pass_s = time.perf_counter() - t0
        out["per_layer"] = e2e_layers.per_layer_metrics(
            tracer.spans, tracer.counters, pass_s,
            service_stats=state.get("stats"), stream=state.get("stream"))
        out["run_id"] = tracer.run_id
        if args.spans:
            tracer.dump(args.spans)
    else:
        t0 = time.perf_counter()
        timing = wl.run_pass(args.workload, state)
        pass_s = time.perf_counter() - t0
    # pass_s: the whole pass on a clock of its own, bookkeeping included;
    # timing["wall_s"]: the region the workload's rate is taken over.
    out.update(timing, pass_s=pass_s)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    attempted, failed, problems, digests = wl.check(
        args.workload, args.size, args.seed, state, pinned)
    out.update(attempted=attempted, failed=failed, problems=problems[:20], digests=digests)
    if "stream" in state:
        out["stream"] = state["stream"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
