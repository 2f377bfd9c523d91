"""Approximate Riemann solvers: HLL and HLLC.

Castro defaults to a full two-shock solver; HLLC captures the same wave
families (two acoustic waves + contact) and is standard for Sedov-type
blast problems.  Both solvers operate on primitive left/right states of
shape (4, ...).

HLLC is *one-sided*: the sign of the contact speed S* picks each
face's star side up front (``np.where`` on its inputs), so only one
star state and one star flux are built per face, not one per side.
Faces outside the wave fan are then overwritten, by boolean index, with
the physical flux of their upwind state.  The branch tests are Toro's
nested ``SL >= 0``, ``S* >= 0``, ``SR >= 0`` in that order, so every
face -- NaN faces included -- takes the branch the two-sided form
takes, and the fluxes are bit-identical to it (the tests keep that
form as the reference).  Total energy is computed once per state
built, in HLL too.

The *normal*/*transverse* velocity components are parameters
``(iu, iv)`` rather than hardwired to ``(QU, QV)``: the flux driver
passes ``(QV, QU)`` for the y-direction, so y-fluxes are computed
directly in place of the old rotate → solve → un-rotate sequence and
its two full-array copies per call.  The conserved momentum indices
coincide (``UMX == QU``, ``UMY == QV``), so the same pair indexes the
flux vector.  Relabeling components this way reorders only commutative
multiplications, so the direct y-flux is bit-identical to the rotated
one.
"""

from __future__ import annotations

import numpy as np

from .eos import GammaLawEOS
from .state import NCOMP, QP, QRHO, QU, QV, UEDEN, URHO

__all__ = ["euler_flux", "hll_flux", "hllc_flux", "wave_speed_estimates", "RIEMANN_SOLVERS"]


def _flux(rho, u, v, p, E, iu: int, iv: int) -> np.ndarray:
    """Physical flux of primitives whose total energy density is ``E``."""
    rhou = rho * u
    F = np.empty((NCOMP,) + rho.shape, dtype=rho.dtype)
    F[URHO] = rhou
    F[iu] = rhou * u + p
    F[iv] = rhou * v
    F[UEDEN] = u * (E + p)
    return F


def euler_flux(W: np.ndarray, eos: GammaLawEOS, iu: int = QU, iv: int = QV) -> np.ndarray:
    """Physical Euler flux in the normal (``iu``) direction from primitives."""
    rho, u, v, p = W[QRHO], W[iu], W[iv], W[QP]
    return _flux(rho, u, v, p, eos.total_energy_density(rho, u, v, p), iu, iv)


def wave_speed_estimates(WL: np.ndarray, WR: np.ndarray, eos: GammaLawEOS, iu: int = QU):
    """Davis-type signal speed estimates ``(SL, SR)``."""
    cL = eos.sound_speed(WL[QRHO], WL[QP])
    cR = eos.sound_speed(WR[QRHO], WR[QP])
    SL = np.minimum(WL[iu] - cL, WR[iu] - cR)
    SR = np.maximum(WL[iu] + cL, WR[iu] + cR)
    return SL, SR


def _flux_and_cons(W: np.ndarray, eos: GammaLawEOS, iu: int, iv: int):
    """Physical flux and conserved state of ``W``, one energy pass."""
    rho, u, v, p = W[QRHO], W[iu], W[iv], W[QP]
    E = eos.total_energy_density(rho, u, v, p)
    U = np.empty_like(W)
    U[URHO] = rho
    U[iu] = rho * u
    U[iv] = rho * v
    U[UEDEN] = E
    return _flux(rho, u, v, p, E, iu, iv), U


def hll_flux(
    WL: np.ndarray, WR: np.ndarray, eos: GammaLawEOS, iu: int = QU, iv: int = QV
) -> np.ndarray:
    """Two-wave HLL flux."""
    FL, UL = _flux_and_cons(WL, eos, iu, iv)
    FR, UR = _flux_and_cons(WR, eos, iu, iv)
    SL, SR = wave_speed_estimates(WL, WR, eos, iu)
    denom = SR - SL
    denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
    Fmid = (SR * FL - SL * FR + SL * SR * (UR - UL)) / denom
    F = np.where(SL >= 0.0, FL, np.where(SR <= 0.0, FR, Fmid))
    return F


def hllc_flux(
    WL: np.ndarray, WR: np.ndarray, eos: GammaLawEOS, iu: int = QU, iv: int = QV
) -> np.ndarray:
    """Three-wave HLLC flux (Toro's formulation), one star side per face."""
    rhoL, uL, pL = WL[QRHO], WL[iu], WL[QP]
    rhoR, uR, pR = WR[QRHO], WR[iu], WR[QP]
    SL, SR = wave_speed_estimates(WL, WR, eos, iu)
    # Contact speed S* (Toro eq. 10.37).
    num = pR - pL + rhoL * uL * (SL - uL) - rhoR * uR * (SR - uR)
    den = rhoL * (SL - uL) - rhoR * (SR - uR)
    den = np.where(np.abs(den) < 1e-300, 1e-300, den)
    Sstar = num / den

    # Star side: left of the contact where S* >= 0, right elsewhere.
    left = Sstar >= 0.0
    rho = np.where(left, rhoL, rhoR)
    u = np.where(left, uL, uR)
    v = np.where(left, WL[iv], WR[iv])
    p = np.where(left, pL, pR)
    S = np.where(left, SL, SR)
    E = eos.total_energy_density(rho, u, v, p)
    F = _flux(rho, u, v, p, E, iu, iv)
    rhoSu = rho * (S - u)
    coef = rhoSu / np.where(np.abs(S - Sstar) < 1e-300, 1e-300, S - Sstar)
    # F* = F + S (U* - U) with U = (rho, rho u, rho v, E), per component.
    F[URHO] += S * (coef - rho)
    F[iu] += S * (coef * Sstar - rho * u)
    F[iv] += S * (coef * v - rho * v)
    F[UEDEN] += S * (coef * (E / rho + (Sstar - u) * (Sstar + p / (rhoSu + 1e-300))) - E)

    # Supersonic faces take the upwind physical flux.  A face with a NaN
    # speed fails every ``>=`` test, as in Toro's nested selection.
    upwind_left = SL >= 0.0
    F[:, upwind_left] = euler_flux(WL[:, upwind_left], eos, iu, iv)
    upwind_right = ~(upwind_left | left | (SR >= 0.0))
    F[:, upwind_right] = euler_flux(WR[:, upwind_right], eos, iu, iv)
    return F


RIEMANN_SOLVERS = {"hll": hll_flux, "hllc": hllc_flux}
