"""Tests for the analytic Sedov workload generator."""

import numpy as np
import pytest

from repro.amr.grid import GridParams
from repro.hydro.eos import GammaLawEOS
from repro.hydro.sedov import SedovProblem
from repro.sim.inputs import CastroInputs
from repro.workload.annulus import (
    AnnulusCoefficients,
    annulus_boxarray,
    refined_region_mask,
)
from repro.workload.generator import SedovWorkloadGenerator
from repro.workload.timebase import SedovTimebase

EOS = GammaLawEOS()


class TestTimebase:
    def _tb(self, cfl=0.5, dx0=1.0 / 512):
        return SedovTimebase(SedovProblem(), EOS, dx0, cfl)

    def test_ramp_up(self):
        tb = self._tb()
        seq = tb.run(max_step=10)
        dts = [r.dt for r in seq]
        # init_shrink makes the first step tiny; change_max ramps it.
        assert dts[1] / dts[0] == pytest.approx(1.1, rel=1e-6)

    def test_times_monotone(self):
        seq = self._tb().run(max_step=50)
        times = [r.time for r in seq]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_higher_cfl_reaches_farther(self):
        t_lo = self._tb(cfl=0.3).run(max_step=100)[-1].time
        t_hi = self._tb(cfl=0.6).run(max_step=100)[-1].time
        assert t_hi > t_lo

    def test_output_times_include_step0(self):
        out = self._tb().output_times(max_step=40, plot_int=10)
        assert [s for s, _ in out] == [0, 10, 20, 30, 40]
        assert out[0][1] == 0.0

    def test_stop_time_respected(self):
        seq = self._tb().run(max_step=100000, stop_time=1e-6)
        assert seq[-1].time >= 1e-6
        # at most one step past the stop time
        assert seq[-2].time < 1e-6

    def test_wave_speed_decays_at_late_times(self):
        tb = self._tb()
        assert tb.max_wave_speed(1.0) < tb.max_wave_speed(1e-3)


class TestAnnulusMask:
    def _geom(self, n=256):
        from repro.amr.box import Box
        from repro.amr.geometry import Geometry

        return Geometry(Box.cell_centered(n, n))

    def test_band_tiles_near_radius(self):
        geom = self._geom()
        mask = refined_region_mask(geom, tile=8, radius=0.3, half_width=0.02,
                                   core_radius=0.05, center=(0.5, 0.5))
        tnx = 256 // 8
        xs = (np.arange(tnx) + 0.5) * 8 / 256
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
        # tiles well inside the band must be tagged
        assert mask[(np.abs(r - 0.3) < 0.01)].all()
        # tiles far outside must not be
        assert not mask[r > 0.45].any()

    def test_core_disk_tagged(self):
        geom = self._geom()
        mask = refined_region_mask(geom, tile=8, radius=0.4, half_width=0.01,
                                   core_radius=0.1, center=(0.5, 0.5))
        tnx = 256 // 8
        c = tnx // 2
        assert mask[c, c]

    def test_indivisible_tile_rejected(self):
        with pytest.raises(ValueError):
            refined_region_mask(self._geom(100), tile=8, radius=0.2,
                                half_width=0.01, core_radius=0.0)

    def test_mask_area_scales_with_radius(self):
        geom = self._geom()
        small = refined_region_mask(geom, 8, 0.1, 0.02, 0.0, (0.5, 0.5)).sum()
        large = refined_region_mask(geom, 8, 0.4, 0.02, 0.0, (0.5, 0.5)).sum()
        assert large > 2 * small  # circumference grows with R


class TestAnnulusBoxArray:
    def test_boxes_cover_band_and_respect_limits(self):
        geom = self._geom()
        gp = GridParams(8, 32)
        ba = annulus_boxarray(geom, 0.3, 0.02, 0.05, gp, center=(0.5, 0.5))
        assert len(ba) > 0
        ba.validate_disjoint()
        ba.validate_inside(geom.domain)
        for b in ba:
            assert b.shape[0] <= 32 and b.shape[1] <= 32

    def test_empty_when_out_of_domain(self):
        geom = self._geom()
        ba = annulus_boxarray(geom, 10.0, 0.001, 0.0, GridParams(8, 32),
                              center=(100.0, 100.0))
        assert len(ba) == 0

    _geom = TestAnnulusMask._geom


def dense_refined_region_mask(geom, tile, radius, half_width, core_radius, center=(0.0, 0.0)):
    """The full-domain ``meshgrid`` formulation of the tile mask.

    A verbatim copy of the original implementation, kept as the
    reference the windowed mask must match bit for bit.
    """
    nx, ny = geom.domain.shape
    if nx % tile or ny % tile:
        raise ValueError(f"domain {geom.domain.shape} not divisible by tile {tile}")
    tnx, tny = nx // tile, ny // tile
    dx, dy = geom.cell_size
    # Tile bounds in physical coordinates.
    x_lo = geom.prob_lo[0] + np.arange(tnx) * tile * dx
    x_hi = x_lo + tile * dx
    y_lo = geom.prob_lo[1] + np.arange(tny) * tile * dy
    y_hi = y_lo + tile * dy
    XLO, YLO = np.meshgrid(x_lo, y_lo, indexing="ij")
    XHI, YHI = np.meshgrid(x_hi, y_hi, indexing="ij")
    cx, cy = center
    # Nearest point of each tile to the center (clamped projection).
    nearest_dx = np.maximum(np.maximum(XLO - cx, cx - XHI), 0.0)
    nearest_dy = np.maximum(np.maximum(YLO - cy, cy - YHI), 0.0)
    r_min = np.sqrt(nearest_dx**2 + nearest_dy**2)
    # Farthest corner of each tile from the center.
    far_dx = np.maximum(np.abs(XLO - cx), np.abs(XHI - cx))
    far_dy = np.maximum(np.abs(YLO - cy), np.abs(YHI - cy))
    r_max = np.sqrt(far_dx**2 + far_dy**2)
    in_band = (r_min <= radius + half_width) & (r_max >= radius - half_width)
    in_core = r_min <= core_radius
    return in_band | in_core


def dense_boxes(geom, tile, radius, half_width, core_radius, grid_params, center):
    """``annulus_boxarray``'s boxes from the dense mask clustered at (0, 0)."""
    from repro.amr.box import Box
    from repro.amr.cluster import ClusterParams, berger_rigoutsos
    from repro.amr.grid import chop_to_max_size

    mask = dense_refined_region_mask(geom, tile, radius, half_width, core_radius, center)
    if not mask.any():
        return []
    boxes = []
    for b in berger_rigoutsos(mask, origin=(0, 0), params=ClusterParams(grid_eff=0.7)):
        cell_box = Box((b.lo[0] * tile, b.lo[1] * tile),
                       ((b.hi[0] + 1) * tile - 1, (b.hi[1] + 1) * tile - 1))
        clipped = cell_box.intersection(geom.domain)
        if clipped is not None:
            boxes.extend(chop_to_max_size(clipped, grid_params.max_grid_size))
    return sorted(boxes)


def _geometry(nx, ny, prob_lo=(0.0, 0.0), prob_hi=(1.0, 1.0)):
    from repro.amr.box import Box
    from repro.amr.geometry import Geometry

    return Geometry(Box.cell_centered(nx, ny), prob_lo=prob_lo, prob_hi=prob_hi)


# (label, geometry args, tile, radius, half_width, core_radius, center)
EDGE_CASES = [
    ("centred", (256, 256), 8, 0.3, 0.02, 0.05, (0.5, 0.5)),
    ("off_centre", (256, 256), 8, 0.17, 0.01, 0.03, (0.31, 0.66)),
    ("corner", (256, 256), 8, 0.4, 0.03, 0.1, (0.0, 0.0)),
    ("far_corner", (256, 256), 8, 0.2, 0.02, 0.04, (1.0, 1.0)),
    ("outside_domain", (256, 256), 8, 0.3, 0.02, 0.05, (1.2, -0.4)),
    ("far_outside", (256, 256), 8, 10.0, 0.001, 0.0, (100.0, 100.0)),
    ("outside_reaching_in", (256, 256), 8, 0.5, 0.05, 0.0, (-0.3, 0.5)),
    ("prob_bounds", ((128, 128), (-2.0, 3.0), (1.0, 4.5)), 8, 0.6, 0.05, 0.2, (-0.4, 3.8)),
    ("non_square", (512, 128), 8, 0.12, 0.01, 0.02, (0.45, 0.5)),
    ("non_square_bounds", ((128, 384), (0.0, 0.0), (2.0, 6.0)), 16, 1.1, 0.1, 0.3, (1.0, 3.0)),
    ("reversed_bounds", ((128, 128), (1.0, 1.0), (0.0, 0.0)), 8, 0.2, 0.02, 0.05, (0.4, 0.6)),
    ("radius_zero", (256, 256), 8, 0.0, 0.02, 0.0, (0.5, 0.5)),
    ("all_zero", (256, 256), 8, 0.0, 0.0, 0.0, (0.5, 0.5)),
    ("all_zero_mid_tile", (256, 256), 8, 0.0, 0.0, 0.0, (0.51, 0.47)),
    ("half_width_zero", (256, 256), 8, 0.25, 0.0, 0.05, (0.5, 0.5)),
    ("core_zero", (256, 256), 8, 0.25, 0.03, 0.0, (0.5, 0.5)),
    ("beyond_diagonal", (256, 256), 8, 2.0, 0.01, 0.0, (0.5, 0.5)),
    ("band_covers_domain", (256, 256), 8, 1.0, 1.0, 0.0, (0.5, 0.5)),
    ("negative_reach", (256, 256), 8, -0.5, 0.1, -0.2, (0.5, 0.5)),
    # Tile edges (multiples of 1/32) exactly at R - w, R + w and the core.
    ("edges_at_band", (256, 256), 8, 0.1875, 0.0625, 0.0, (0.5, 0.5)),
    ("edges_at_core", (256, 256), 8, 0.0, 0.0, 0.3125, (0.5, 0.5)),
    ("edges_at_both", (256, 256), 8, 0.25, 0.125, 0.125, (0.25, 0.75)),
    ("edges_at_domain", (256, 256), 8, 0.375, 0.125, 0.0, (0.5, 0.5)),
    ("zero_width_domain", ((64, 64), (0.5, 0.0), (0.5, 1.0)), 8, 0.3, 0.02, 0.05, (0.5, 0.5)),
    ("nan_centre", (256, 256), 8, 0.3, 0.02, 0.05, (float("nan"), 0.5)),
    ("inf_centre", (256, 256), 8, 0.3, 0.02, 0.05, (0.5, float("inf"))),
]


def _edge_case_args(case):
    _, geom_args, tile, radius, half_width, core, center = case
    if isinstance(geom_args[0], tuple):
        geom = _geometry(*geom_args[0], prob_lo=geom_args[1], prob_hi=geom_args[2])
    else:
        geom = _geometry(*geom_args)
    return geom, tile, radius, half_width, core, center


class TestWindowedMaskEquivalence:
    """The windowed mask is bit-identical to the dense formulation."""

    @pytest.mark.parametrize("case", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
    def test_edge_cases_match_dense(self, case):
        args = _edge_case_args(case)
        got = refined_region_mask(*args)
        want = dense_refined_region_mask(*args)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_only_the_expected_edge_cases_are_empty(self):
        """The other edge cases exercise the band, not just empty masks."""
        empty = {c[0] for c in EDGE_CASES if not dense_refined_region_mask(*_edge_case_args(c)).any()}
        assert empty == {"outside_domain", "far_outside", "negative_reach", "nan_centre", "inf_centre"}

    def test_seeded_grid_matches_dense(self):
        rng = np.random.default_rng(20220530)
        shapes = [(256, 256), (512, 128), (64, 320)]
        for trial in range(200):
            nx, ny = shapes[trial % len(shapes)]
            lo = tuple(rng.uniform(-1.0, 1.0, 2))
            hi = tuple(np.add(lo, rng.uniform(0.5, 3.0, 2)))
            geom = _geometry(nx, ny, prob_lo=lo, prob_hi=hi)
            tile = int(rng.choice([8, 16, 32]))
            center = tuple(rng.uniform(np.subtract(lo, 0.5), np.add(hi, 0.5)))
            radius = float(rng.uniform(0.0, 1.5))
            half_width = float(rng.uniform(0.0, 0.2)) * int(rng.integers(0, 2))
            core = float(rng.uniform(0.0, 0.3)) * int(rng.integers(0, 2))
            args = (geom, tile, radius, half_width, core, center)
            assert np.array_equal(refined_region_mask(*args), dense_refined_region_mask(*args)), args

    def test_tile_edges_at_every_bound_match_dense(self):
        """Bounds on a tile edge, and one ulp either side of it."""
        geom = _geometry(256, 256)
        for edge in np.arange(0, 33) / 32.0:
            for bound in (np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0)):
                for args in ((geom, 8, bound / 2, bound / 2, 0.0, (0.5, 0.5)),
                             (geom, 8, 0.0, 0.0, bound, (0.5, 0.5)),
                             (geom, 8, bound, 0.0, 0.0, (0.0, 0.0))):
                    assert np.array_equal(refined_region_mask(*args),
                                          dense_refined_region_mask(*args)), args

    @pytest.mark.parametrize("field", ["radius", "half_width", "core_radius"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_inputs_match_dense(self, field, value):
        kwargs = dict(radius=0.3, half_width=0.02, core_radius=0.05)
        kwargs[field] = value
        geom = _geometry(256, 256)
        got = refined_region_mask(geom, 8, center=(0.5, 0.5), **kwargs)
        want = dense_refined_region_mask(geom, 8, center=(0.5, 0.5), **kwargs)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("tile", [0, -8])
    def test_non_positive_tile_rejected(self, tile):
        with pytest.raises(ValueError, match="tile"):
            refined_region_mask(_geometry(256, 256), tile=tile, radius=0.2,
                                half_width=0.01, core_radius=0.0)

    def test_non_positive_tile_rejected_by_boxarray(self):
        with pytest.raises(ValueError, match="tile"):
            annulus_boxarray(_geometry(256, 256), 0.2, 0.01, 0.0, GridParams(8, 32), tile=0)


class TestWindowedBoxArrayEquivalence:
    """Clustering the window gives the boxes of the dense mask at (0, 0)."""

    @pytest.mark.parametrize("case", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
    def test_edge_cases_match_dense(self, case):
        geom, tile, radius, half_width, core, center = _edge_case_args(case)
        gp = GridParams(tile, 4 * tile)
        ba = annulus_boxarray(geom, radius, half_width, core, gp, tile=tile, center=center)
        assert list(ba) == dense_boxes(geom, tile, radius, half_width, core, gp, center)

    def test_seeded_grid_matches_dense(self):
        rng = np.random.default_rng(7)
        geom = _geometry(512, 512)
        gp = GridParams(8, 64)
        for _ in range(40):
            center = tuple(rng.uniform(-0.2, 1.2, 2))
            radius, half_width, core = rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.1)
            ba = annulus_boxarray(geom, radius, half_width, core, gp, center=center)
            assert list(ba) == dense_boxes(geom, 8, radius, half_width, core, gp, center)


class TestGenerator:
    def _inputs(self, **kw):
        base = dict(n_cell=(256, 256), max_level=2, max_step=40, plot_int=10,
                    stop_time=1e9, max_grid_size=64, blocking_factor=8, cfl=0.5)
        base.update(kw)
        return CastroInputs(**base)

    def test_run_structure(self):
        gen = SedovWorkloadGenerator(self._inputs(), nprocs=8)
        result = gen.run()
        assert [ev.step for ev in result.outputs] == [0, 10, 20, 30, 40]
        assert result.final_time > 0
        assert result.trace.total_bytes() > 0

    def test_levels_nested(self):
        gen = SedovWorkloadGenerator(self._inputs(), nprocs=4)
        t = gen.timebase.run(40)[-1].time
        bas = gen.level_layout(t)
        for lev in range(1, len(bas)):
            parent = bas[lev - 1].refine(gen.inputs.ref_ratio)
            for b in bas[lev]:
                assert parent.covered_cells(b) == b.numpts

    def test_l0_constant_fine_grow(self):
        """Fig. 7's shape: L0 flat, refined levels grow with time."""
        gen = SedovWorkloadGenerator(self._inputs(max_step=100, plot_int=25), nprocs=4)
        result = gen.run()
        l0 = [ev.cells_per_level[0] for ev in result.outputs]
        assert len(set(l0)) == 1
        finest = [
            ev.cells_per_level[-1] if len(ev.cells_per_level) > 2 else 0
            for ev in result.outputs
        ]
        assert finest[-1] >= finest[1]

    def test_paper_scale_large_mesh_fast(self):
        """The Fig. 11 mesh (8192^2) must generate in seconds."""
        import time

        inputs = self._inputs(n_cell=(8192, 8192), max_level=2, max_step=20,
                              plot_int=10, max_grid_size=256)
        t0 = time.perf_counter()
        gen = SedovWorkloadGenerator(inputs, nprocs=64)
        result = gen.run()
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        # L0 alone: 8192^2 * 24 * 8 bytes per dump
        assert result.trace.total_bytes() > 8192**2 * 24 * 8 * 3

    def test_solver_vs_workload_same_accounting_shape(self):
        """The two engines must produce comparable L0 output (identical
        mesh => identical L0 bytes) and refined levels within 3x."""
        from repro.sim.castro import CastroSim

        inputs = CastroInputs(
            n_cell=(64, 64), max_level=1, max_step=8, plot_int=4,
            stop_time=1e9, max_grid_size=32, blocking_factor=8, cfl=0.5,
        )
        prob = SedovProblem(r_init=0.1)
        solver_res = CastroSim(inputs, nprocs=2, problem=prob).run()
        wl_res = SedovWorkloadGenerator(inputs, nprocs=2, problem=prob).run()
        s_l0 = solver_res.trace.bytes_per_level(step=0)[0]
        w_l0 = wl_res.trace.bytes_per_level(step=0)[0]
        assert s_l0 == w_l0
        s_total = solver_res.trace.total_bytes()
        w_total = wl_res.trace.total_bytes()
        assert 1 / 3 < s_total / w_total < 3
