"""Godunov update kernel (dimensionally unsplit, MUSCL–Hancock).

Given conserved state with ghost cells, computes one conservative
finite-volume update ``U += dt * (div F)`` using limited reconstruction
and an approximate Riemann solver.  This is the compute kernel of the
Castro-like solver; every step of it is vectorized over a *row slab*.

Row slabs: the chain ``cons_to_prim → interface_states → riemann →
flux divergence`` runs once per slab of output rows (x-indices), each
read with its 2-row stencil halo and written into one preallocated
output.  A slab holds at most ``_CHUNK_CELLS`` cells per component, so
every temporary stays cache-resident instead of going memory-bound on
full-mesh arrays; the dense 512² fine patch of a solver-engine run is
~26 slabs of 20 rows.  Only the faces bounding a slab's rows reach the
Riemann solver.  Each output cell sees the same arithmetic on the same
inputs as in one full-mesh pass, so the split is bit-identical.

The kernel chain is written once over the *trailing* two grid axes
(ellipsis indexing + axis-generic reconstruction), so the same code
serves a single ghosted patch ``(4, nx+2g, ny+2g)`` and a fused stack
of same-shape patches ``(4, nfabs, nx+2g, ny+2g)`` (see
:mod:`repro.hydro.fused`).  Per cell the arithmetic is identical, so
:func:`advance_stacked` is bit-identical to per-fab
:func:`advance_patch` calls.  The fab axis counts toward a slab's
cells; a fused chunk already fits one slab.

y-fluxes are computed directly by passing the transposed component pair
``(QV, QU)`` to the Riemann solver (see :mod:`repro.hydro.riemann`);
the old ``_swap_uv``/``_swap_uv_flux`` rotation helpers and their two
full-array copies per call are gone.
"""

from __future__ import annotations

import math

import numpy as np

from .eos import GammaLawEOS
from .reconstruction import interface_states
from .riemann import RIEMANN_SOLVERS
from .state import QU, QV, cons_to_prim

__all__ = ["advance_patch", "advance_stacked", "NGHOST_REQUIRED"]

# One layer for slopes + one for the interface states feeding the first
# interior face.
NGHOST_REQUIRED = 2

# Cells per component (every trailing axis, the fab axis included) that
# one kernel slab may hold, its stencil halo included.  Slabs this size
# keep every kernel temporary a few hundred KB -- cache-resident and
# recycled from numpy's allocator -- instead of tens of MB for one pass
# over a large patch or a paper-scale fab stack (1024 fabs), where the
# chain goes memory-bound.  ~12800 cells (32 fabs of 16^2+2g) measured
# fastest across 16^2-32^2 fab stacks, and again (against 3200-51200)
# on the dense 512^2 fine patch of a solver-engine run; the win is flat
# within 2x of this, so one constant serves every layout.
_CHUNK_CELLS = 12800


def _advance_core(
    U: np.ndarray,
    dt: float,
    dx: float,
    dy: float,
    eos: GammaLawEOS,
    nghost: int,
    riemann: str,
    limiter: str,
) -> np.ndarray:
    """Shared Godunov update over the trailing two grid axes of ``U``,
    one row slab at a time (see the module docstring)."""
    if nghost < NGHOST_REQUIRED:
        raise ValueError(f"advance needs >= {NGHOST_REQUIRED} ghosts, got {nghost}")
    try:
        solver = RIEMANN_SOLVERS[riemann]
    except KeyError:
        raise ValueError(
            f"unknown riemann solver {riemann!r}; choose from {sorted(RIEMANN_SOLVERS)}"
        ) from None
    g = nghost
    h = NGHOST_REQUIRED  # stencil halo read around each slab
    X, Y = U.shape[-2], U.shape[-1]
    nx = X - 2 * g
    ny = Y - 2 * g
    # Columns the chain reads: the valid ones plus the halo.
    cols = slice(g - h, Y - (g - h))
    # Output rows per slab: rows + 2h rows of ny + 2h cells per fab fit
    # in _CHUNK_CELLS, so a fused-plan chunk is a single slab.
    row_cells = max(1, math.prod(U.shape[1:-2]) * (ny + 2 * h))
    rows = max(1, _CHUNK_CELLS // row_cells - 2 * h)
    out = np.empty(U.shape[:-2] + (nx, ny), dtype=U.dtype)
    for r0 in range(0, nx, rows):
        r1 = min(r0 + rows, nx)
        m = r1 - r0
        # Slab rows r0..r1 of the valid region, plus h halo rows each side.
        W = cons_to_prim(U[..., g - h + r0 : g + h + r1, cols], eos)

        # --- x-fluxes: the m+1 faces bounding the slab's rows ---------
        WLx, WRx = interface_states(W[..., h : h + ny], axis=-2, limiter=limiter)
        # Interface k separates slab rows k, k+1; faces 1 .. m+1 bound
        # the valid rows (the outer two only fed the slopes).
        Fx = solver(WLx[..., 1 : m + 2, :], WRx[..., 1 : m + 2, :], eos)

        # --- y-fluxes (solver reads the normal velocity from QV directly) --
        WLy, WRy = interface_states(W[..., h : h + m, :], axis=-1, limiter=limiter)
        Gy = solver(WLy[..., 1 : ny + 2], WRy[..., 1 : ny + 2], eos, iu=QV, iv=QU)

        Uv = U[..., g + r0 : g + r1, g : g + ny]
        out[..., r0:r1, :] = Uv - dt / dx * (Fx[..., 1:, :] - Fx[..., :-1, :]) \
            - dt / dy * (Gy[..., 1:] - Gy[..., :-1])
    return out


def advance_patch(
    U: np.ndarray,
    dt: float,
    dx: float,
    dy: float,
    eos: GammaLawEOS,
    nghost: int = NGHOST_REQUIRED,
    riemann: str = "hllc",
    limiter: str = "minmod",
) -> np.ndarray:
    """One forward-Euler Godunov step on a ghosted patch.

    Parameters
    ----------
    U:
        Conserved state, shape (4, nx + 2g, ny + 2g); ghosts prefilled.
    dt, dx, dy:
        Step and cell sizes.
    nghost:
        Ghost layers present (>= 2 needed).
    riemann / limiter:
        Kernel choices; see :mod:`repro.hydro.riemann` and
        :mod:`repro.hydro.reconstruction`.

    Returns
    -------
    ndarray
        Updated conserved state on the *valid* region only,
        shape (4, nx, ny).
    """
    if U.ndim != 3:
        raise ValueError(f"advance_patch expects a (4, X, Y) patch, got shape {U.shape}")
    return _advance_core(U, dt, dx, dy, eos, nghost, riemann, limiter)


def advance_stacked(
    U: np.ndarray,
    dt: float,
    dx: float,
    dy: float,
    eos: GammaLawEOS,
    nghost: int = NGHOST_REQUIRED,
    riemann: str = "hllc",
    limiter: str = "minmod",
) -> np.ndarray:
    """One Godunov step on a stack of same-shape ghosted patches.

    ``U`` has shape (4, nfabs, nx + 2g, ny + 2g) — a shape-group of
    fabs gathered by :class:`repro.hydro.fused.FusedLevelPlan` — and the
    whole kernel chain runs once for the stack.  Returns the updated
    valid regions, shape (4, nfabs, nx, ny), bit-identical to per-fab
    :func:`advance_patch` calls.
    """
    if U.ndim != 4:
        raise ValueError(f"advance_stacked expects a (4, n, X, Y) stack, got shape {U.shape}")
    return _advance_core(U, dt, dx, dy, eos, nghost, riemann, limiter)
