"""Tests for the parallel campaign executor and the persistent store."""

import json

import pytest

from repro.campaign.executor import CampaignExecutor
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultStore, case_key
from repro.campaign.sweep import estimated_cost, order_by_cost, sweep_cases


def small_sweep(n_meshes=2):
    ladder = [(64, 2, 1), (128, 4, 1), (256, 8, 1)][:n_meshes]
    return sweep_cases(mesh_ladder=ladder, cfls=(0.3, 0.6), max_levels=(1,),
                       max_step=20, plot_int=10)


class TestExecutor:
    def test_parallel_matches_serial(self):
        """jobs=4 must reproduce the serial records: same order, same values."""
        cases = small_sweep(3)
        serial = run_campaign(cases, jobs=1)
        parallel = run_campaign(cases, jobs=4)
        assert [r.name for r in serial.records] == [c.name for c in cases]
        assert parallel.records == serial.records

    def test_progress_covers_every_case(self):
        """Progress fires at completion — input order serially, any
        order in parallel — and covers every case exactly once."""
        cases = small_sweep(2)
        serial_seen = []
        run_campaign(cases, jobs=1, progress=lambda n, t: serial_seen.append(n))
        assert serial_seen == [c.name for c in cases]
        seen = []
        campaign = run_campaign(cases, jobs=2, progress=lambda n, t: seen.append(n))
        assert sorted(seen) == sorted(c.name for c in cases)
        assert set(campaign.seconds) == set(seen)

    def test_worker_failure_is_captured_not_fatal(self):
        """A raising case lands in failures; the rest of the sweep completes."""
        cases = small_sweep(2)
        # unknown distribution strategy raises ValueError inside the engine
        campaign = run_campaign(cases, jobs=2, distribution_strategy="bogus")
        assert len(campaign.failures) == len(cases)
        assert not campaign.records
        assert all("bogus" in err for err in campaign.failures.values())

    def test_serial_failure_capture_matches_parallel(self):
        cases = small_sweep(1)
        serial = run_campaign(cases, jobs=1, distribution_strategy="bogus")
        assert set(serial.failures) == {c.name for c in cases}

    def test_per_case_timeout(self):
        # A 131072^2 mesh: seconds of per-box layout work, far past 0.2 s.
        big = sweep_cases(mesh_ladder=[(131_072, 1024, 512)], cfls=(0.5,), max_levels=(1,))
        campaign = run_campaign(big, jobs=2, timeout=0.2)
        assert set(campaign.failures) == {big[0].name}
        assert "timed out" in campaign.failures[big[0].name]

    def test_swallowed_timeout_fires_again(self):
        """An alarm swallowed where it landed (a gc callback, say) must
        not let the case run on untimed."""
        import time

        from repro.campaign.executor import _alarm, _CaseTimeout

        with pytest.raises(_CaseTimeout):
            with _alarm(0.05):
                try:
                    time.sleep(1.0)
                except _CaseTimeout:
                    pass
                time.sleep(1.0)

    def test_duplicate_case_names_rejected(self):
        cases = small_sweep(1)
        with pytest.raises(ValueError):
            run_campaign(cases + cases)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            CampaignExecutor(max_workers=0)

    def test_pool_path_matches_serial_even_on_one_cpu(self):
        """Drive _run_parallel directly: on a single-core host run()
        falls back to the inline path, so this is the only coverage of
        the pool + initializer-shipped-kwargs machinery there."""
        from repro.iosim.filesystem import VirtualFileSystem

        cases = small_sweep(2)
        ex = CampaignExecutor(max_workers=2)
        keys = {c.name: None for c in cases}
        kwargs = {"fs": VirtualFileSystem(), "distribution_strategy": "sfc"}
        serial_out, pool_out = {}, {}
        ex._run_serial(list(cases), keys, serial_out, dict(kwargs), None)
        ex._run_parallel(list(cases), keys, pool_out, dict(kwargs), None)
        assert set(pool_out) == set(serial_out)
        for name, outcome in serial_out.items():
            assert pool_out[name].ok and outcome.ok
            assert pool_out[name].record == outcome.record


class TestStore:
    def test_cache_hit_on_identical_case(self, tmp_path):
        cases = small_sweep(1)
        store = ResultStore(str(tmp_path / "store.jsonl"))
        cold = run_campaign(cases, store=store)
        assert cold.n_executed == len(cases) and not cold.cached
        warm = run_campaign(cases, store=store)
        assert warm.n_executed == 0
        assert warm.cached == [c.name for c in cases]
        assert warm.records == cold.records

    def test_cache_survives_reload(self, tmp_path):
        """Resume: a fresh store instance over the same file serves hits."""
        path = str(tmp_path / "store.jsonl")
        cases = small_sweep(1)
        run_campaign(cases, store=ResultStore(path))
        resumed = run_campaign(cases, store=ResultStore(path))
        assert resumed.n_executed == 0

    def test_partial_store_resumes_only_missing(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        cases = small_sweep(2)
        run_campaign(cases[:2], store=ResultStore(path))
        resumed = run_campaign(cases, store=ResultStore(path))
        assert set(resumed.cached) == {c.name for c in cases[:2]}
        assert resumed.n_executed == len(cases) - 2

    def test_changed_inputs_invalidate_key(self, tmp_path):
        from dataclasses import replace

        case = small_sweep(1)[0]
        changed = replace(case, inputs=replace(case.inputs, cfl=0.55))
        assert case_key(case) != case_key(changed)
        store = ResultStore(str(tmp_path / "store.jsonl"))
        run_campaign([case], store=store)
        again = run_campaign([changed], store=store)
        assert again.n_executed == 1 and not again.cached

    def test_code_version_invalidates_key(self):
        case = small_sweep(1)[0]
        assert case_key(case, "1.0.0") != case_key(case, "2.0.0")

    def test_run_kwargs_are_part_of_key(self, tmp_path):
        """Different execution options must not hit each other's entries."""
        case = small_sweep(1)[0]
        assert (case_key(case, extra={"distribution_strategy": "sfc"})
                != case_key(case, extra={"distribution_strategy": "round_robin"}))
        store = ResultStore(str(tmp_path / "store.jsonl"))
        run_campaign([case], store=store, distribution_strategy="sfc")
        other = run_campaign([case], store=store, distribution_strategy="round_robin")
        assert other.n_executed == 1 and not other.cached

    def test_other_code_version_entries_excluded_but_preserved(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        cases = small_sweep(1)
        run_campaign(cases, store=ResultStore(path))
        other = ResultStore(path, code_version="0.0.0-other")
        assert len(other) == 0  # never served under another version...
        run_campaign(cases, store=other)
        # ...but preserved on disk: both versions' entries now coexist
        assert run_campaign(cases, store=ResultStore(path)).n_executed == 0
        assert run_campaign(
            cases, store=ResultStore(path, code_version="0.0.0-other")
        ).n_executed == 0

    def test_stateful_kwarg_still_hits_cache(self, tmp_path):
        """Keys are computed from pristine pre-run kwargs, so a kwarg the
        run mutates (a shared fs) must not break lookup-vs-put."""
        from repro.iosim.filesystem import VirtualFileSystem

        cases = small_sweep(1)
        store = ResultStore(str(tmp_path / "store.jsonl"))
        cold = run_campaign(cases, store=store, fs=VirtualFileSystem())
        assert cold.n_executed == len(cases)
        warm = run_campaign(cases, store=store, fs=VirtualFileSystem())
        assert warm.n_executed == 0

    def test_explicit_invalidation_forces_rerun(self, tmp_path):
        case = small_sweep(1)[0]
        store = ResultStore(str(tmp_path / "store.jsonl"))
        run_campaign([case], store=store)
        assert store.invalidate(store.key_for(case))
        assert not store.invalidate(store.key_for(case))  # already gone
        rerun = run_campaign([case], store=store)
        assert rerun.n_executed == 1

    def test_renamed_case_hits_and_relabels(self, tmp_path):
        """The key is content-addressed: the case name is not part of it."""
        from dataclasses import replace

        case = small_sweep(1)[0]
        store = ResultStore(str(tmp_path / "store.jsonl"))
        run_campaign([case], store=store)
        alias = replace(case, name="alias")
        hit = run_campaign([alias], store=store)
        assert hit.cached == ["alias"]
        assert hit.records[0].name == "alias"

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        """An interrupted append must not poison the store on reload."""
        path = str(tmp_path / "store.jsonl")
        cases = small_sweep(1)
        run_campaign(cases, store=ResultStore(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "deadbeef", "record": {"na')  # torn write
        reloaded = ResultStore(path)
        assert len(reloaded) == len(cases)
        assert run_campaign(cases, store=reloaded).n_executed == 0

    def test_clear_truncates_file(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        run_campaign(small_sweep(1), store=store)
        store.clear()
        assert len(ResultStore(path)) == 0

    def test_in_memory_store(self):
        store = ResultStore()  # path=None: cache semantics, no persistence
        cases = small_sweep(1)
        run_campaign(cases, store=store)
        assert run_campaign(cases, store=store).n_executed == 0

    def test_jsonl_format_one_entry_per_line(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        cases = small_sweep(1)
        run_campaign(cases, store=ResultStore(path))
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert len(lines) == len(cases)
        assert all({"key", "case", "code_version", "seconds", "record"} <= set(e) for e in lines)


class TestScheduling:
    def test_estimated_cost_orders_meshes(self):
        cases = small_sweep(3)
        costs = [estimated_cost(c) for c in cases]
        assert max(costs) > min(costs)
        ordered = order_by_cost(cases)
        assert [estimated_cost(c) for c in ordered] == sorted(costs, reverse=True)
        assert sorted(c.name for c in ordered) == sorted(c.name for c in cases)


class TestFailureRecords:
    """Satellite: broad excepts must re-record the full traceback and
    let shutdown exceptions (KeyboardInterrupt/SystemExit) through."""

    def test_failure_records_carry_the_full_traceback(self):
        cases = small_sweep(1)
        for jobs in (1, 2):
            campaign = run_campaign(
                cases, jobs=jobs, distribution_strategy="bogus"
            )
            err = campaign.failures[cases[0].name]
            assert "Traceback (most recent call last)" in err
            assert "ValueError" in err

    def test_keyboard_interrupt_propagates_from_the_worker(self, monkeypatch):
        from repro.campaign import runner
        from repro.campaign.executor import _execute_case

        def boom(case, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "run_case", boom)
        with pytest.raises(KeyboardInterrupt):
            _execute_case(small_sweep(1)[0], {})

    def test_system_exit_propagates_from_the_worker(self, monkeypatch):
        from repro.campaign import runner
        from repro.campaign.executor import _execute_case

        def bail(case, **kwargs):
            raise SystemExit(3)

        monkeypatch.setattr(runner, "run_case", bail)
        with pytest.raises(SystemExit):
            _execute_case(small_sweep(1)[0], {})
