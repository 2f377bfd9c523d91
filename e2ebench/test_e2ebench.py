"""Tests of the end-to-end benchmark's own machinery.

    python -m pytest e2ebench -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import e2e_tracer  # noqa: E402
from e2e_layers import reconcile, reconcile_problem  # noqa: E402
from e2e_tracer import Span, Target, Tracer, layer_totals, patched, self_times  # noqa: E402
from run import END_TO_END  # noqa: E402

ROOT = os.path.dirname(HERE)


class TestSelfTime:
    # root [0, 100) with children a [10, 40) and b [50, 90);
    # a has child c [15, 25); b has children c [55, 60) and d [60, 80)
    SPANS = [
        Span("root", 0, 100, -1),
        Span("a", 10, 40, 0),
        Span("c", 15, 25, 1),
        Span("b", 50, 90, 0),
        Span("c", 55, 60, 3),
        Span("d", 60, 80, 3),
    ]

    def test_self_time_is_duration_minus_direct_children(self):
        got = [round(v * 1e9) for v in self_times(self.SPANS)]
        assert got == [100 - 30 - 40, 30 - 10, 10, 40 - 5 - 20, 5, 20]

    def test_self_times_sum_to_root_durations(self):
        assert round(sum(self_times(self.SPANS)) * 1e9) == 100

    def test_layer_totals_group_by_name(self):
        totals = layer_totals(self.SPANS)
        assert totals["c"]["calls"] == 2
        assert round(totals["c"]["self_s"] * 1e9) == 15
        assert set(totals) == {"root", "a", "b", "c", "d"}

    def test_reconcile_against_an_outside_wall_clock(self):
        # the roots cover 100 of 100 ns; 5 + 10 + 5 + 20 ns sit below a root
        ratio, unattributed = reconcile(self.SPANS, 100e-9)
        assert ratio == pytest.approx(1.0)
        assert unattributed == pytest.approx((100 - 20 - 10 - 15 - 5 - 20) / 100)
        assert reconcile_problem(ratio) is None

    def test_reconcile_fails_when_spans_miss_part_of_the_pass(self):
        # the same tree in a pass the outside clock timed at 125 ns:
        # 25 ns ran outside every wrapped call
        ratio, unattributed = reconcile(self.SPANS, 125e-9)
        assert ratio == pytest.approx(0.8)
        assert unattributed == pytest.approx((125 - 70) / 125)
        assert "80.0%" in reconcile_problem(ratio)
        assert reconcile_problem(1.06) is not None  # overlapping spans
        assert reconcile_problem(0.96) is None

    def test_tracer_records_nesting(self):
        tracer = Tracer("run")
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(x) * 2)
        assert outer(1) == 4
        names = [(s.name, s.parent) for s in tracer.spans]
        assert names == [("outer", -1), ("inner", 0)]
        assert all(s.end_ns >= s.start_ns for s in tracer.spans)


@pytest.fixture
def fake_modules():
    """A defining module, an importer of it, and a class with a method."""
    lib = types.ModuleType("e2efake")
    exec("def work(x):\n    return x * 3\n"
         "class Box:\n    def size(self):\n        return 7\n", vars(lib))
    user = types.ModuleType("e2efake.user")
    user.work = lib.work
    user.DISPATCH = {"w": lib.work}
    sys.modules.update({"e2efake": lib, "e2efake.user": user})
    yield lib, user
    del sys.modules["e2efake"], sys.modules["e2efake.user"]


class TestPatched:
    TARGETS = [Target("fake.work", "e2efake:work"), Target("fake.size", "e2efake:Box.size")]

    def test_wraps_every_import_site_and_restores(self, fake_modules):
        lib, user = fake_modules
        work, size = lib.work, lib.Box.__dict__["size"]
        tracer = Tracer("run")
        with patched(tracer, self.TARGETS, prefixes=("e2efake",)):
            assert lib.work is not work and user.work is not work
            assert user.DISPATCH["w"] is not work
            assert lib.work(1) + user.work(1) + user.DISPATCH["w"](1) == 9
            assert lib.Box().size() == 7
        assert [s.name for s in tracer.spans] == ["fake.work"] * 3 + ["fake.size"]
        assert lib.work is work and user.work is work and user.DISPATCH["w"] is work
        assert lib.Box.__dict__["size"] is size

    def test_restores_after_an_exception(self, fake_modules):
        lib, user = fake_modules
        work = lib.work
        with pytest.raises(RuntimeError):
            with patched(Tracer("run"), self.TARGETS, prefixes=("e2efake",)):
                raise RuntimeError("boom")
        assert lib.work is work and user.work is work

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer("run")

        def fail():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.wrap("f", fail)()
        (span,) = tracer.spans
        assert span.end_ns >= span.start_ns
        assert tracer.wrap("g", lambda: 1)() == 1
        assert tracer.spans[-1].parent == -1  # the failed span was closed

    def test_repro_targets_resolve(self):
        pytest.importorskip("numpy")
        sys.path.insert(0, os.path.join(ROOT, "src"))
        try:
            from e2e_layers import TARGETS

            for target in TARGETS:
                owner, attr, original = e2e_tracer._resolve(target.where)
                assert callable(original), target
        finally:
            sys.path.remove(os.path.join(ROOT, "src"))


def run_bench(*args, cwd=ROOT, timeout=240):
    return subprocess.run([sys.executable, os.path.join(cwd, "e2ebench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", ["sweep", "solver", "serve"])
def test_tiny_pass_has_no_errors(workload):
    proc = run_bench("--workload", workload, "--size", "tiny", "--seconds", "0", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_pass_reconciles():
    proc = run_bench("--workload", "sweep", "--size", "tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert abs(metrics["trace.reconcile_ratio"] - 1) <= 0.05
    assert metrics["workload.mask.calls"] > 0 and metrics["hydro.advance.calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep", "--seconds", "0", cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
