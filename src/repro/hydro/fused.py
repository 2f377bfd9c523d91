"""Fused multi-fab hydro kernels: one kernel chain per shape-group.

``LevelSolver.advance`` used to run the full Godunov chain
(``cons_to_prim → interface_states → riemann → flux divergence``) once
per fab — at paper-scale layouts (512² mesh chopped into 1024 fabs of
16²) that is ~10⁵ small NumPy calls per step, dominated by per-call
overhead.  :class:`FusedLevelPlan` applies the ``derive_fields_flat``
trick (PR 4) to the solver hot path: fabs with identical shapes (the
common case after ``chop``) are gathered into
``(ncomp, nfabs, nx+2g, ny+2g)`` stacks and the chain runs once per
*cache-blocked slab* of the shape-group (at most
``repro.hydro.flux._CHUNK_CELLS`` grown cells per component per kernel
call, so each runs as one row slab) via
:func:`repro.hydro.flux.advance_stacked` — bit-identical to the per-fab
path because every kernel op is elementwise or sliced along the grid
axes only, and slab boundaries only partition the independent fab axis.

Plan lifecycle (mirrors the ghost-exchange plan of
:class:`repro.amr.multifab.MultiFab`):

- **built** from a layout: shape-group membership
  (:meth:`repro.amr.multifab.MultiFab.shape_groups`), stacked gather
  scratch per group, and the interior gather map used by ``stable_dt``;
- **cached** by :class:`repro.hydro.solver.LevelSolver` keyed on
  ``(boxarray.token, nghost, ncomp)`` — swapping in a new BoxArray
  (what a regrid does) invalidates it without caller bookkeeping;
- **checksummed** under ``REPRO_SANITIZE=1``: the replayed part
  (membership, shapes, offsets) is frozen at build and re-verified on
  every use, so drift raises :class:`repro.sanitize.SanitizeError` at
  the replay site;
- **ragged fallback**: single-member groups skip the gather/scatter
  copies and run :func:`repro.hydro.flux.advance_patch` directly.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .. import sanitize
from ..amr.multifab import MultiFab
from .eos import GammaLawEOS
from .flux import _CHUNK_CELLS, advance_patch, advance_stacked

__all__ = ["FusedLevelPlan"]


class FusedLevelPlan:
    """Per-layout plan for batched level advance and dt reduction.

    The immutable, checksummed part is the layout-derived replay state:
    ``key``, ``members`` (one frozen index array per stacked
    shape-group), ``shapes`` (grown shapes of those groups),
    ``singles`` (ragged fabs advanced per-fab), ``chunks`` (the
    cache-blocked slab size per group), and ``offsets`` (the interior
    gather map).  The stacked gather buffers are *scratch* — rewritten
    on every use, never part of the checksum.
    """

    def __init__(self, mf: MultiFab) -> None:
        self.key = (mf.boxarray.token, mf.nghost, mf.ncomp)
        groups = mf.shape_groups()
        stacked = [m for m in groups if len(m) > 1]
        self.members: Tuple[np.ndarray, ...] = tuple(stacked)
        # Grown (nx+2g, ny+2g) shape of each stacked group.
        self.shapes: Tuple[Tuple[int, int], ...] = tuple(
            tuple(int(s) for s in mf.fabs[int(m[0])].data.shape[1:]) for m in stacked
        )
        self.singles: Tuple[int, ...] = tuple(
            int(m[0]) for m in groups if len(m) == 1
        )
        # Cache-blocked slab size per group: at most _CHUNK_CELLS grown
        # cells per component per kernel call (always >= 1 fab).
        self.chunks: Tuple[int, ...] = tuple(
            max(1, min(len(m), _CHUNK_CELLS // (shp[0] * shp[1])))
            for m, shp in zip(self.members, self.shapes)
        )
        dtype = mf.fabs[0].data.dtype if len(mf) else np.float64
        # Gather scratch: one chunk-sized stacked buffer per shape-group,
        # rewritten every advance — deliberately mutable, excluded from
        # the crc.
        self._scratch: List[np.ndarray] = [
            np.empty((mf.ncomp, chunk, shp[0], shp[1]), dtype=dtype)
            for chunk, shp in zip(self.chunks, self.shapes)
        ]
        # Interior gather map for stable_dt: fab k's cells land in
        # columns offsets[k]:offsets[k+1] (fab order, row-major), the
        # same cell order as the old per-call np.concatenate.
        cells = mf.boxarray.box_sizes() if len(mf) else np.zeros(0, dtype=np.int64)
        self.offsets = sanitize.frozen(
            np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(cells, dtype=np.int64)])
        )
        # lint: allow-mutable-plan(dt gather scratch is rewritten on every stable_dt call; the replayed state above is frozen and checksummed)
        self._dt_scratch = np.empty((mf.ncomp, int(self.offsets[-1])), dtype=dtype)
        self._crc = self._checksum() if sanitize.enabled() else None

    # ------------------------------------------------------------------
    def _checksum(self) -> int:
        return sanitize.checksum(
            (self.key, self.members, self.shapes, self.singles, self.chunks,
             self.offsets)
        )

    def _verify(self, where: str) -> None:
        if not sanitize.enabled():
            return
        crc = self._checksum()
        if self._crc is None:
            self._crc = crc
        else:
            sanitize.check(
                crc == self._crc,
                f"fused level plan drifted since it was built (key={self.key}) "
                f"in {where}; a consumer mutated the cached plan",
            )

    # ------------------------------------------------------------------
    def advance_level(
        self,
        mf: MultiFab,
        dt: float,
        dx: float,
        dy: float,
        eos: GammaLawEOS,
        riemann: str = "hllc",
        limiter: str = "minmod",
    ) -> None:
        """One Godunov step on every fab of ``mf``, in place.

        Each shape-group is processed in cache-blocked slabs of
        ``chunks[g]`` fabs: gather into the stacked scratch buffer, one
        :func:`advance_stacked` call, scatter back into the fab
        interiors; ragged (single-member) groups run
        :func:`advance_patch` directly.  Groups are disjoint and each
        fab's update reads only its own ghost-filled data, so the
        scatter order cannot leak one fab's update into another —
        bit-identical to the old per-fab loop.
        """
        self._verify("advance_level")
        fabs = mf.fabs
        nghost = mf.nghost
        for buf, members, chunk in zip(self._scratch, self.members, self.chunks):
            idx = members.tolist()
            for s in range(0, len(idx), chunk):
                part = idx[s : s + chunk]
                b = buf[:, : len(part)]
                for j, i in enumerate(part):
                    b[:, j] = fabs[i].data
                out = advance_stacked(
                    b, dt, dx, dy, eos, nghost=nghost,
                    riemann=riemann, limiter=limiter,
                )
                for j, i in enumerate(part):
                    fabs[i].interior()[...] = out[:, j]
        for i in self.singles:
            fabs[i].interior()[...] = advance_patch(
                fabs[i].data, dt, dx, dy, eos, nghost=nghost,
                riemann=riemann, limiter=limiter,
            )

    # ------------------------------------------------------------------
    def gather_interiors(self, mf: MultiFab) -> np.ndarray:
        """Every fab's interior, copied into one ``(ncomp, numpts)`` buffer.

        The cell order (fab build order, row-major within a fab) matches
        the old ``np.concatenate`` fast path of ``stable_dt``; reusing
        the cached scratch avoids the per-call level-size allocation.
        The returned array is plan scratch: valid until the next call.
        """
        self._verify("gather_interiors")
        buf = self._dt_scratch
        offsets = self.offsets
        ncomp = mf.ncomp
        for k, fab in enumerate(mf.fabs):
            buf[:, offsets[k] : offsets[k + 1]] = fab.interior().reshape(ncomp, -1)
        return buf
