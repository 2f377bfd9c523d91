"""Analytic refined-region model: shock annulus + hot core.

In a Sedov blast, refinement tracks the shock front — an annulus of
radius R(t) — plus the steep-gradient core around the energy source
(Fig. 4a: "the fine-grained refined levels are generated near the source
terms").  This module turns that geometry into tag masks at *tile*
granularity so the real clustering/grid machinery can run at any mesh
size: a 131072^2 level examined at 256-cell tiles is only a 512^2
boolean array.

The band widths are the model's physical coefficients
(:class:`AnnulusCoefficients`); the validation suite fits them against
the real solver at small scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..amr.box import Box
from ..amr.boxarray import BoxArray
from ..amr.cluster import ClusterParams, berger_rigoutsos
from ..amr.geometry import Geometry
from ..amr.grid import GridParams, chop_to_max_size

__all__ = ["AnnulusCoefficients", "refined_region_mask", "annulus_boxarray"]


@dataclass(frozen=True)
class AnnulusCoefficients:
    """Geometry of the tagged region per refinement level.

    The tag band for building level ``l`` (tags live on level ``l-1``)
    is ``|r - R| <= w_l`` with
    ``w_l = max(rel_width * R / narrow^(l-1), min_cells * dx_{l-1})``,
    plus a core disk of radius ``max(core_rel * R, core_min * r_init)``.
    Finer levels get narrower bands (``narrow > 1``), reproducing the
    nested-annulus layouts of Fig. 4a.
    """

    rel_width: float = 0.08
    narrow: float = 2.0
    min_cells: float = 2.0
    core_rel: float = 0.15
    core_min: float = 1.2

    def band_half_width(self, level: int, radius: float, dx_coarse: float) -> float:
        """Half-width of the tag band for building ``level`` (>= 1)."""
        if level < 1:
            raise ValueError("bands exist for levels >= 1")
        w_phys = self.rel_width * radius / self.narrow ** (level - 1)
        w_mesh = self.min_cells * dx_coarse
        return max(w_phys, w_mesh)

    def core_radius(self, radius: float, r_init: float) -> float:
        return max(self.core_rel * radius, self.core_min * r_init)


def _tile_window(geom: Geometry, tile: int, reach: float, center: Tuple[float, float]):
    """Tile-index ``(slices, origin)`` of the disk of radius ``reach`` about
    ``center``: its tile bounding box plus one tile of margin against
    rounding, clamped to the domain (all of it when a bound is not finite)."""
    window = []
    for c, lo, d, n in zip(center, geom.prob_lo, geom.cell_size, geom.domain.shape):
        span = tile * d or math.nan  # a zero-width domain has no finite bound
        first, last = sorted(((c - reach - lo) / span, (c + reach - lo) / span))
        if not (math.isfinite(first) and math.isfinite(last)):
            first, last = 0.0, float(n)
        start = min(max(math.floor(first) - 2, 0), n // tile)
        window.append(slice(start, min(max(math.floor(last) + 2, start), n // tile)))
    return tuple(window), (window[0].start, window[1].start)


def refined_region_mask(
    geom: Geometry,
    tile: int,
    radius: float,
    half_width: float,
    core_radius: float,
    center: Tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Boolean tile mask of the tagged region on a level.

    A tile is tagged when it *geometrically intersects* the band
    ``|r - R| <= half_width`` or the core disk.  The test is exact for
    axis-aligned tiles: the nearest point of a tile to the blast center
    is the clamped projection, the farthest is the opposite corner, and
    the tile meets the band iff ``[r_min, r_max]`` overlaps
    ``[R - w, R + w]``.  (Partial tiles still count fully — the same
    whole-grid rounding a real regrid performs at blocking-factor
    granularity.)

    Every tagged tile meets the disk of radius ``max(R + w, core)``, so
    the test runs only on that disk's tile window; the rest stays False.
    """
    if tile <= 0:
        raise ValueError(f"tile must be positive, got {tile}")
    nx, ny = geom.domain.shape
    if nx % tile or ny % tile:
        raise ValueError(f"domain {geom.domain.shape} not divisible by tile {tile}")
    mask = np.zeros((nx // tile, ny // tile), dtype=bool)
    (rows, cols), _ = _tile_window(geom, tile, max(radius + half_width, core_radius), center)
    dx, dy = geom.cell_size
    # Tile bounds in physical coordinates, as a column and a row.
    x_lo = (geom.prob_lo[0] + np.arange(rows.start, rows.stop) * tile * dx)[:, None]
    x_hi = x_lo + tile * dx
    y_lo = (geom.prob_lo[1] + np.arange(cols.start, cols.stop) * tile * dy)[None, :]
    y_hi = y_lo + tile * dy
    cx, cy = center
    # Nearest point of each tile to the center (clamped projection).
    nearest_dx = np.maximum(np.maximum(x_lo - cx, cx - x_hi), 0.0)
    nearest_dy = np.maximum(np.maximum(y_lo - cy, cy - y_hi), 0.0)
    r_min = np.sqrt(nearest_dx**2 + nearest_dy**2)
    # Farthest corner of each tile from the center.
    far_dx = np.maximum(np.abs(x_lo - cx), np.abs(x_hi - cx))
    far_dy = np.maximum(np.abs(y_lo - cy), np.abs(y_hi - cy))
    r_max = np.sqrt(far_dx**2 + far_dy**2)
    in_band = (r_min <= radius + half_width) & (r_max >= radius - half_width)
    in_core = r_min <= core_radius
    mask[rows, cols] = in_band | in_core
    return mask


def annulus_boxarray(
    geom: Geometry,
    radius: float,
    half_width: float,
    core_radius: float,
    grid_params: GridParams,
    tile: Optional[int] = None,
    center: Tuple[float, float] = (0.0, 0.0),
    grid_eff: float = 0.7,
) -> BoxArray:
    """BoxArray covering the tagged region of one level.

    Clusters the tile mask with Berger–Rigoutsos, scales tile boxes back
    to cells, and chops to ``max_grid_size`` — the same pipeline a real
    regrid runs, at tile granularity.  Clustering sees only the tile
    window that holds every tag, so the boxes are the full mask's.

    ``tile`` defaults to the blocking factor, doubled (up to
    ``max_grid_size``) while the level spans more than 2048^2 tiles: it
    fixes the clustering granularity, and so the layouts, of each mesh
    size.  Memory is bounded by the window, not by the tile.
    """
    nx, ny = geom.domain.shape
    if tile is None:
        tile = grid_params.blocking_factor
        # Coarsen to at most ~2048^2 tiles: this sets the layouts.
        while (nx // tile) * (ny // tile) > 2048 * 2048 and tile * 2 <= grid_params.max_grid_size:
            tile *= 2
    if tile % grid_params.blocking_factor:
        raise ValueError("tile must be a multiple of blocking_factor")
    mask = refined_region_mask(geom, tile, radius, half_width, core_radius, center)
    window, origin = _tile_window(geom, tile, max(radius + half_width, core_radius), center)
    tags = mask[window]
    if not tags.any():
        return BoxArray()
    clustered = berger_rigoutsos(tags, origin=origin, params=ClusterParams(grid_eff=grid_eff))
    boxes: List[Box] = []
    for b in clustered:
        cell_box = Box(
            (b.lo[0] * tile, b.lo[1] * tile),
            ((b.hi[0] + 1) * tile - 1, (b.hi[1] + 1) * tile - 1),
        )
        clipped = cell_box.intersection(geom.domain)
        if clipped is None:
            continue
        boxes.extend(chop_to_max_size(clipped, grid_params.max_grid_size))
    boxes.sort()
    return BoxArray(boxes)
