"""Tests for the patch Godunov update and boundary conditions."""

import numpy as np
import pytest

from repro.hydro.boundary import BC, apply_boundary
from repro.hydro.eos import GammaLawEOS
from repro.hydro import flux
from repro.hydro.flux import _CHUNK_CELLS, NGHOST_REQUIRED, advance_patch, advance_stacked
from repro.hydro.reconstruction import LIMITERS, interface_states
from repro.hydro.riemann import RIEMANN_SOLVERS
from repro.hydro.state import NCOMP, QP, QRHO, QU, QV, UEDEN, UMX, UMY, URHO, cons_to_prim, prim_to_cons

EOS = GammaLawEOS()
G = NGHOST_REQUIRED


def uniform_patch(nx, ny, rho=1.0, u=0.0, v=0.0, p=1.0, g=G):
    W = np.empty((NCOMP, nx + 2 * g, ny + 2 * g))
    W[0], W[1], W[2], W[3] = rho, u, v, p
    return prim_to_cons(W, EOS)


class TestAdvancePatch:
    def test_uniform_state_unchanged(self):
        U = uniform_patch(8, 8)
        Unew = advance_patch(U, 1e-3, 0.1, 0.1, EOS)
        assert np.allclose(Unew, U[:, G:-G, G:-G], rtol=1e-13)

    def test_uniform_advection_unchanged(self):
        U = uniform_patch(8, 8, u=2.0, v=-1.0)
        Unew = advance_patch(U, 1e-3, 0.1, 0.1, EOS)
        assert np.allclose(Unew, U[:, G:-G, G:-G], rtol=1e-12)

    def test_needs_two_ghosts(self):
        U = uniform_patch(8, 8, g=1)
        with pytest.raises(ValueError, match="ghosts"):
            advance_patch(U, 1e-3, 0.1, 0.1, EOS, nghost=1)

    def test_unknown_riemann(self):
        U = uniform_patch(4, 4)
        with pytest.raises(ValueError, match="unknown riemann"):
            advance_patch(U, 1e-3, 0.1, 0.1, EOS, riemann="roe")

    def test_conservation_with_periodic_ghosts(self):
        """With ghost cells consistent (wrap-around), interior sums of
        conserved quantities change only by boundary fluxes; for a
        symmetric blob centered in the patch with outflow-free interior,
        mass change should be tiny over one small step."""
        rng = np.random.default_rng(1)
        nx = ny = 16
        U = uniform_patch(nx, ny)
        # small central density/pressure bump
        W = np.empty((NCOMP, nx + 2 * G, ny + 2 * G))
        W[0] = 1.0
        W[1] = 0.0
        W[2] = 0.0
        W[3] = 1.0
        xi = np.arange(nx + 2 * G) - (nx + 2 * G - 1) / 2
        X, Y = np.meshgrid(xi, xi, indexing="ij")
        bump = np.exp(-(X**2 + Y**2) / 4.0)
        W[0] += 0.3 * bump
        W[3] += 0.3 * bump
        U = prim_to_cons(W, EOS)
        dt = 1e-3
        Unew = advance_patch(U, dt, 0.1, 0.1, EOS)
        mass0 = U[URHO, G:-G, G:-G].sum()
        mass1 = Unew[URHO].sum()
        # the bump decays to ~0 at the frame edge, so flux through the
        # valid-region boundary is negligible
        assert abs(mass1 - mass0) / mass0 < 1e-8

    def test_pressure_pulse_spreads_symmetrically(self):
        nx = ny = 17  # odd => exact center cell
        W = np.empty((NCOMP, nx + 2 * G, ny + 2 * G))
        W[0], W[1], W[2], W[3] = 1.0, 0.0, 0.0, 1e-3
        c = (nx + 2 * G) // 2
        W[3, c, c] = 10.0
        U = prim_to_cons(W, EOS)
        Unew = advance_patch(U, 1e-4, 0.05, 0.05, EOS)
        # x/y symmetry of the update
        assert np.allclose(Unew[URHO], Unew[URHO][::-1, :], rtol=1e-10)
        assert np.allclose(Unew[URHO], Unew[URHO][:, ::-1], rtol=1e-10)
        assert np.allclose(Unew[URHO], Unew[URHO].T, rtol=1e-10)


class TestBoundary:
    def test_outflow_copies_edge(self):
        U = uniform_patch(4, 4)
        U[URHO, G, :] = 9.0  # first valid row
        apply_boundary(U, G, (BC.OUTFLOW, BC.OUTFLOW), (BC.OUTFLOW, BC.OUTFLOW))
        assert (U[URHO, :G, G:-G] == 9.0).all()

    def test_symmetry_negates_normal_momentum(self):
        U = uniform_patch(4, 4, u=3.0)
        apply_boundary(U, G, (BC.SYMMETRY, BC.OUTFLOW), (BC.OUTFLOW, BC.OUTFLOW))
        # lo-x ghosts mirror with UMX negated
        assert np.allclose(U[UMX, G - 1, G:-G], -U[UMX, G, G:-G])
        assert np.allclose(U[URHO, G - 1, G:-G], U[URHO, G, G:-G])

    def test_y_outflow(self):
        U = uniform_patch(4, 4)
        U[URHO, :, -G - 1] = 4.0
        apply_boundary(U, G, (BC.OUTFLOW, BC.OUTFLOW), (BC.OUTFLOW, BC.OUTFLOW))
        assert (U[URHO, :, -G:] == 4.0).all()

    def test_interior_is_noop(self):
        U = uniform_patch(4, 4)
        ghost_before = U[:, :G, :].copy()
        apply_boundary(U, G, (BC.INTERIOR, BC.INTERIOR), (BC.INTERIOR, BC.INTERIOR))
        assert np.allclose(U[:, :G, :], ghost_before)

    def test_inflow_unsupported(self):
        U = uniform_patch(4, 4)
        with pytest.raises(NotImplementedError):
            apply_boundary(U, G, (BC.INFLOW, BC.OUTFLOW), (BC.OUTFLOW, BC.OUTFLOW))

    def test_zero_ghost_noop(self):
        U = uniform_patch(4, 4, g=0)
        apply_boundary(U, 0)  # must not raise


# ----------------------------------------------------------------------
# Seed reference implementation (verbatim from the pre-slab code: one
# pass of the kernel chain over full-mesh temporaries).

def seed_advance_core(U, dt, dx, dy, eos, nghost, riemann, limiter):
    """Shared Godunov update over the trailing two grid axes of ``U``."""
    if nghost < NGHOST_REQUIRED:
        raise ValueError(f"advance needs >= {NGHOST_REQUIRED} ghosts, got {nghost}")
    try:
        solver = RIEMANN_SOLVERS[riemann]
    except KeyError:
        raise ValueError(
            f"unknown riemann solver {riemann!r}; choose from {sorted(RIEMANN_SOLVERS)}"
        ) from None
    g = nghost
    X, Y = U.shape[-2], U.shape[-1]
    nx = X - 2 * g
    ny = Y - 2 * g
    W = cons_to_prim(U, eos)

    # --- x-fluxes ------------------------------------------------------
    # Work on rows [g-1, -g+1) so slopes see one extra cell each side.
    Wx = W[..., g - 2 : X - (g - 2), g : Y - g]
    WLx, WRx = interface_states(Wx, axis=-2, limiter=limiter)
    Fx = solver(WLx, WRx, eos)
    # Interface k of Wx separates its cells k,k+1; the valid faces are
    # those bounding valid cells: indices 1 .. nx+1 of Fx.
    Fx_valid = Fx[..., 1 : nx + 2, :]  # nx+1 faces

    # --- y-fluxes (solver reads the normal velocity from QV directly) --
    Wy = W[..., g : X - g, g - 2 : Y - (g - 2)]
    WLy, WRy = interface_states(Wy, axis=-1, limiter=limiter)
    Gy = solver(WLy, WRy, eos, iu=QV, iv=QU)
    Gy_valid = Gy[..., 1 : ny + 2]  # ny+1 faces

    Uv = U[..., g : g + nx, g : g + ny]
    Unew = Uv - dt / dx * (Fx_valid[..., 1:, :] - Fx_valid[..., :-1, :]) \
              - dt / dy * (Gy_valid[..., 1:] - Gy_valid[..., :-1])
    return Unew


def blast_state(lead, nx, ny, g=G, seed=0):
    """A ghosted Sedov-like blast with random flow, so every wave regime
    and every limiter branch occurs; ``lead`` is () or (nfabs,)."""
    rng = np.random.default_rng(seed)
    shape = (NCOMP,) + tuple(lead) + (nx + 2 * g, ny + 2 * g)
    W = np.empty(shape)
    W[QRHO] = rng.uniform(0.2, 2.0, shape[1:])
    W[1] = rng.uniform(-3.0, 3.0, shape[1:])
    W[2] = rng.uniform(-3.0, 3.0, shape[1:])
    W[QP] = 10.0 ** rng.uniform(-4, 4, shape[1:])
    return prim_to_cons(W, EOS)


def slab_rows(U, g):
    """Output rows per kernel slab, as ``_advance_core`` sizes them."""
    per_row = int(np.prod(U.shape[1:-2])) * (U.shape[-1] - 2 * g + 2 * G)
    return max(1, _CHUNK_CELLS // per_row - 2 * G)


def assert_matches_seed(U, g, riemann="hllc", limiter="minmod"):
    dt, dx, dy = 1e-4, 0.01, 0.02
    new = (advance_patch if U.ndim == 3 else advance_stacked)(
        U, dt, dx, dy, EOS, nghost=g, riemann=riemann, limiter=limiter)
    old = seed_advance_core(U, dt, dx, dy, EOS, g, riemann, limiter)
    assert new.shape == old.shape and new.dtype == old.dtype
    assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


class TestSlabbedAdvanceMatchesSeed:
    """The row-slab advance is bit-identical (uint64 views) to the seed's
    one-pass chain, at every slab edge and for every kernel choice."""

    @pytest.mark.parametrize("riemann", sorted(RIEMANN_SOLVERS))
    @pytest.mark.parametrize("limiter", sorted(LIMITERS))
    def test_solvers_and_limiters_across_slabs(self, riemann, limiter):
        U = blast_state((), 45, 600, seed=1)
        assert 45 > 2 * slab_rows(U, G)  # three slabs
        assert_matches_seed(U, G, riemann, limiter)

    @pytest.mark.parametrize("nx", [1, 10, 40, 51])
    def test_slab_edges(self, nx):
        # nx = 1, nx within one slab, and nx not a multiple of the slab
        # height (ny = 600 gives 17-row slabs).
        U = blast_state((), nx, 600, seed=nx)
        assert slab_rows(U, G) == 17
        assert_matches_seed(U, G)

    def test_exact_multiple_of_slab_rows(self):
        U = blast_state((), 34, 600, seed=2)
        assert 34 % slab_rows(U, G) == 0
        assert_matches_seed(U, G)

    def test_more_ghosts_than_needed(self):
        U = blast_state((), 40, 600, g=3, seed=3)
        assert 40 > slab_rows(U, 3)
        assert_matches_seed(U, 3)
        assert_matches_seed(U, 3, riemann="hll", limiter="superbee")

    def test_dense_patch_wider_than_a_slab(self):
        # One grown row alone exceeds _CHUNK_CELLS: one row per slab.
        U = blast_state((), 5, _CHUNK_CELLS, seed=4)
        assert slab_rows(U, G) == 1
        assert_matches_seed(U, G)

    @pytest.mark.parametrize("riemann", sorted(RIEMANN_SOLVERS))
    def test_stacked_across_slabs(self, riemann):
        # The fab axis counts toward the slab size: 5 fabs of 100 cells
        # wide give 20-row slabs.
        U = blast_state((5,), 45, 100, seed=5)
        assert slab_rows(U, G) == 20
        assert_matches_seed(U, G, riemann, "mc")

    @pytest.mark.parametrize("lead,nx,ny,g", [((), 51, 600, G), ((), 40, 600, 3),
                                              ((5,), 45, 100, G), ((32,), 16, 16, G)])
    def test_slabs_hold_at_most_chunk_cells(self, monkeypatch, lead, nx, ny, g):
        seen = []

        def spy(U, eos):
            seen.append(U.shape)
            return cons_to_prim(U, eos)

        monkeypatch.setattr(flux, "cons_to_prim", spy)
        U = blast_state(lead, nx, ny, g=g, seed=7)
        rows = slab_rows(U, g)
        advance_patch(U, 1e-4, 0.01, 0.01, EOS, nghost=g) if not lead else \
            advance_stacked(U, 1e-4, 0.01, 0.01, EOS, nghost=g)
        assert len(seen) == -(-nx // rows)
        assert [s[-2] - 2 * G for s in seen] == [min(rows, nx - r) for r in range(0, nx, rows)]
        assert all(np.prod(s[1:]) <= _CHUNK_CELLS for s in seen)

    def test_fused_chunk_is_one_slab(self):
        # A fused-plan chunk (32 fabs of 16^2 + 2g) fits one slab.
        U = blast_state((32,), 16, 16, seed=6)
        assert slab_rows(U, G) >= 16
        assert_matches_seed(U, G)
