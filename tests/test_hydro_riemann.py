"""Tests for the HLL/HLLC Riemann solvers."""

import numpy as np
import pytest

from repro.hydro.eos import GammaLawEOS
from repro.hydro.riemann import (
    RIEMANN_SOLVERS,
    euler_flux,
    hll_flux,
    hllc_flux,
    wave_speed_estimates,
)
from repro.hydro.state import NCOMP, QP, QRHO, QU, QV, UEDEN, UMX, URHO

EOS = GammaLawEOS()


def prim(rho, u, v, p):
    W = np.empty((NCOMP, 1))
    W[QRHO], W[QU], W[QV], W[QP] = rho, u, v, p
    return W


class TestEulerFlux:
    def test_at_rest_only_pressure(self):
        F = euler_flux(prim(1.0, 0.0, 0.0, 2.0), EOS)
        assert F[URHO][0] == 0.0
        assert F[UMX][0] == 2.0
        assert F[UEDEN][0] == 0.0

    def test_mass_flux(self):
        F = euler_flux(prim(2.0, 3.0, 0.0, 1.0), EOS)
        assert F[URHO][0] == 6.0


class TestConsistency:
    """F(W, W) must equal the physical flux — both solvers."""

    @pytest.mark.parametrize("solver", [hll_flux, hllc_flux])
    @pytest.mark.parametrize(
        "state", [(1.0, 0.0, 0.0, 1.0), (2.0, 5.0, -1.0, 0.3), (0.1, -4.0, 2.0, 10.0)]
    )
    def test_consistency(self, solver, state):
        W = prim(*state)
        F = solver(W, W, EOS)
        assert np.allclose(F, euler_flux(W, EOS), rtol=1e-12)


class TestUpwinding:
    @pytest.mark.parametrize("solver", [hll_flux, hllc_flux])
    def test_supersonic_right_takes_left_flux(self, solver):
        WL = prim(1.0, 10.0, 0.0, 1.0)  # Mach ~8.5
        WR = prim(0.5, 10.0, 0.0, 0.5)
        F = solver(WL, WR, EOS)
        assert np.allclose(F, euler_flux(WL, EOS))

    @pytest.mark.parametrize("solver", [hll_flux, hllc_flux])
    def test_supersonic_left_takes_right_flux(self, solver):
        WL = prim(1.0, -10.0, 0.0, 1.0)
        WR = prim(0.5, -10.0, 0.0, 0.5)
        F = solver(WL, WR, EOS)
        assert np.allclose(F, euler_flux(WR, EOS))


class TestWaveSpeeds:
    def test_ordering(self):
        SL, SR = wave_speed_estimates(prim(1, 0, 0, 1), prim(1, 0, 0, 1), EOS)
        assert SL[0] < 0 < SR[0]
        c = np.sqrt(1.4)
        assert SL[0] == pytest.approx(-c)
        assert SR[0] == pytest.approx(c)


class TestSodProblem:
    """Qualitative checks on the Sod shock tube initial jump."""

    def setup_method(self):
        self.WL = prim(1.0, 0.0, 0.0, 1.0)
        self.WR = prim(0.125, 0.0, 0.0, 0.1)

    @pytest.mark.parametrize("solver", [hll_flux, hllc_flux])
    def test_mass_flows_right(self, solver):
        F = solver(self.WL, self.WR, EOS)
        assert F[URHO][0] > 0  # expansion pushes mass rightward

    def test_hllc_at_least_as_sharp_as_hll(self):
        FH = hll_flux(self.WL, self.WR, EOS)
        FC = hllc_flux(self.WL, self.WR, EOS)
        # Both finite and same sign of mass flux.
        assert np.isfinite(FH).all() and np.isfinite(FC).all()
        assert FH[URHO][0] * FC[URHO][0] > 0


class TestStrongBlast:
    """Sedov-like 1e5:1 pressure jump must stay finite."""

    @pytest.mark.parametrize("name,solver", list(RIEMANN_SOLVERS.items()))
    def test_finite(self, name, solver):
        WL = prim(1.0, 0.0, 0.0, 1e5)
        WR = prim(1.0, 0.0, 0.0, 1e-5)
        F = solver(WL, WR, EOS)
        assert np.isfinite(F).all()
        # Equal densities at rest => zero instantaneous mass flux, but
        # momentum flux (pressure-driven) and energy flux flow rightward.
        assert F[UMX][0] > 0
        assert F[UEDEN][0] > 0

    def test_transverse_momentum_passively_advected(self):
        WL = prim(1.0, 2.0, 7.0, 1.0)
        WR = prim(1.0, 2.0, 7.0, 1.0)
        F = hllc_flux(WL, WR, EOS)
        # with uniform normal flow, transverse momentum flux = rho*u*v
        assert F[2][0] == pytest.approx(1.0 * 2.0 * 7.0)


# ----------------------------------------------------------------------
# Seed reference implementations (verbatim from the pre-one-sided code:
# both star states and all four candidate fluxes at full size, nested
# np.where selection, total energy computed twice per side).

def seed_euler_flux(W, eos, iu=QU, iv=QV):
    rho, u, v, p = W[QRHO], W[iu], W[iv], W[QP]
    E = eos.total_energy_density(rho, u, v, p)
    F = np.empty_like(W)
    F[URHO] = rho * u
    F[iu] = rho * u * u + p
    F[iv] = rho * u * v
    F[UEDEN] = u * (E + p)
    return F


def seed_prim_to_cons_local(W, eos, iu=QU, iv=QV):
    rho, u, v, p = W[QRHO], W[iu], W[iv], W[QP]
    U = np.empty_like(W)
    U[URHO] = rho
    U[iu] = rho * u
    U[iv] = rho * v
    U[UEDEN] = eos.total_energy_density(rho, u, v, p)
    return U


def seed_hll_flux(WL, WR, eos, iu=QU, iv=QV):
    FL = seed_euler_flux(WL, eos, iu, iv)
    FR = seed_euler_flux(WR, eos, iu, iv)
    UL = seed_prim_to_cons_local(WL, eos, iu, iv)
    UR = seed_prim_to_cons_local(WR, eos, iu, iv)
    SL, SR = wave_speed_estimates(WL, WR, eos, iu)
    denom = SR - SL
    denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
    Fmid = (SR * FL - SL * FR + SL * SR * (UR - UL)) / denom
    F = np.where(SL >= 0.0, FL, np.where(SR <= 0.0, FR, Fmid))
    return F


def seed_hllc_flux(WL, WR, eos, iu=QU, iv=QV):
    rhoL, uL, pL = WL[QRHO], WL[iu], WL[QP]
    rhoR, uR, pR = WR[QRHO], WR[iu], WR[QP]
    FL = seed_euler_flux(WL, eos, iu, iv)
    FR = seed_euler_flux(WR, eos, iu, iv)
    UL = seed_prim_to_cons_local(WL, eos, iu, iv)
    UR = seed_prim_to_cons_local(WR, eos, iu, iv)
    SL, SR = wave_speed_estimates(WL, WR, eos, iu)
    # Contact speed S* (Toro eq. 10.37).
    num = pR - pL + rhoL * uL * (SL - uL) - rhoR * uR * (SR - uR)
    den = rhoL * (SL - uL) - rhoR * (SR - uR)
    den = np.where(np.abs(den) < 1e-300, 1e-300, den)
    Sstar = num / den

    def star_state(W, U, S, eos_=eos):
        rho, u, v, p = W[QRHO], W[iu], W[iv], W[QP]
        coef = rho * (S - u) / np.where(np.abs(S - Sstar) < 1e-300, 1e-300, S - Sstar)
        Ustar = np.empty_like(U)
        Ustar[URHO] = coef
        Ustar[iu] = coef * Sstar
        Ustar[iv] = coef * v
        E = U[UEDEN]
        Ustar[UEDEN] = coef * (
            E / rho + (Sstar - u) * (Sstar + p / (rho * (S - u) + 1e-300))
        )
        return Ustar

    ULs = star_state(WL, UL, SL)
    URs = star_state(WR, UR, SR)
    FLs = FL + SL * (ULs - UL)
    FRs = FR + SR * (URs - UR)
    F = np.where(
        SL >= 0.0,
        FL,
        np.where(
            Sstar >= 0.0,
            FLs,
            np.where(SR >= 0.0, FRs, FR),
        ),
    )
    return F


SEED = {"hll": seed_hll_flux, "hllc": seed_hllc_flux}
ORIENTATIONS = [(QU, QV), (QV, QU)]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_bit_identical(new, old):
    assert new.shape == old.shape and new.dtype == old.dtype
    assert np.array_equal(bits(new), bits(old))


def random_pairs(n, seed):
    """Left/right primitive states spanning every wave regime."""
    rng = np.random.default_rng(seed)
    WL = np.empty((NCOMP, n))
    WR = np.empty((NCOMP, n))
    for W in (WL, WR):
        W[QRHO] = 10.0 ** rng.uniform(-3, 1, n)
        W[QU] = rng.uniform(-8.0, 8.0, n)
        W[QV] = rng.uniform(-8.0, 8.0, n)
        W[QP] = 10.0 ** rng.uniform(-5, 5, n)
    return WL, WR


def hllc_speeds(WL, WR, iu):
    """(SL, S*, SR) as the solver forms them, to check regime coverage."""
    SL, SR = wave_speed_estimates(WL, WR, EOS, iu)
    rhoL, uL, pL = WL[QRHO], WL[iu], WL[QP]
    rhoR, uR, pR = WR[QRHO], WR[iu], WR[QP]
    num = pR - pL + rhoL * uL * (SL - uL) - rhoR * uR * (SR - uR)
    den = rhoL * (SL - uL) - rhoR * (SR - uR)
    return SL, num / np.where(np.abs(den) < 1e-300, 1e-300, den), SR, den


class TestSeedEquivalence:
    """The one-sided HLLC and single-energy HLL are bit-identical to the
    seed solvers (uint64 views), in both (iu, iv) orientations."""

    @pytest.mark.parametrize("iu,iv", ORIENTATIONS)
    def test_all_four_hllc_regimes(self, iu, iv):
        WL, WR = random_pairs(4000, seed=13)
        SL, Sstar, SR, _ = hllc_speeds(WL, WR, iu)
        regimes = [
            SL >= 0.0,
            (SL < 0.0) & (Sstar >= 0.0),
            (Sstar < 0.0) & (SR >= 0.0),
            SR < 0.0,
        ]
        assert all(r.sum() >= 50 for r in regimes), [int(r.sum()) for r in regimes]
        assert_bit_identical(hllc_flux(WL, WR, EOS, iu, iv), seed_hllc_flux(WL, WR, EOS, iu, iv))

    @pytest.mark.parametrize("iu,iv", ORIENTATIONS)
    def test_hll_regimes(self, iu, iv):
        WL, WR = random_pairs(4000, seed=14)
        assert_bit_identical(hll_flux(WL, WR, EOS, iu, iv), seed_hll_flux(WL, WR, EOS, iu, iv))

    @pytest.mark.parametrize("riemann", sorted(SEED))
    def test_single_regime_states(self, riemann):
        # Each regime on its own, so the masked overwrite also runs with
        # an all-true and an all-false mask.
        for u in (-12.0, -0.5, 0.5, 12.0):
            WL = prim(1.0, u, 0.3, 1.0)
            WR = prim(0.4, u, -0.2, 0.2)
            assert_bit_identical(RIEMANN_SOLVERS[riemann](WL, WR, EOS),
                                 SEED[riemann](WL, WR, EOS))

    @pytest.mark.parametrize("riemann", sorted(SEED))
    @pytest.mark.parametrize("iu,iv", ORIENTATIONS)
    def test_tiny_denominator_guards(self, riemann, iu, iv):
        # den -> 0: vacuum on both sides (rho = 0) makes den exactly 0.
        # S = S*: equal pressures in vacuum give S* = 0, and u = c on
        # the left puts SL exactly on it.  rho (S - u) = 0 in the fan:
        # a cold, dense left state whose sound speed vanishes next to
        # u = -1, so SL == uL with S* > 0 picks the left star state.
        c = EOS.sound_speed(np.float64(0.0), np.float64(2.0))
        WL = np.array([[0.0, 0.0, 0.0, 1e-310, 1.0, 1e300],
                       [0.0, c, 1.0, 0.0, 0.5, -1.0],
                       [0.0, c, -1.0, 0.0, 0.5, 0.0],
                       [1.0, 2.0, 2.0, 1.0, 1.0, 1e-12]])
        WR = np.array([[0.0, 0.0, 0.0, 1e-310, 1.0, 1.0],
                       [0.0, 2 * c, -1.0, 0.0, 0.5, 1.0],
                       [0.0, 2 * c, 1.0, 0.0, 0.5, 0.0],
                       [3.0, 2.0, 2.0, 1.0, 1.0, 1.0]])
        WL[[iu, iv]] = WL[[QU, QV]]
        WR[[iu, iv]] = WR[[QU, QV]]
        SL, Sstar, SR, den = hllc_speeds(WL, WR, iu)
        assert (np.abs(den) < 1e-300).any()
        assert (SL == Sstar).any()
        assert SL[5] == WL[iu, 5] and SL[5] < 0.0 <= Sstar[5]
        with np.errstate(all="ignore"):
            new = RIEMANN_SOLVERS[riemann](WL, WR, EOS, iu, iv)
            old = SEED[riemann](WL, WR, EOS, iu, iv)
        assert_bit_identical(new, old)

    @pytest.mark.parametrize("riemann", sorted(SEED))
    @pytest.mark.parametrize("iu,iv", ORIENTATIONS)
    def test_nan_and_inf_inputs(self, riemann, iu, iv):
        WL, WR = random_pairs(3000, seed=15)
        rng = np.random.default_rng(16)
        for W in (WL, WR):
            for bad in (np.nan, np.inf, -np.inf):
                W.flat[rng.choice(W.size, 120, replace=False)] = bad
        with np.errstate(all="ignore"):
            new = RIEMANN_SOLVERS[riemann](WL, WR, EOS, iu, iv)
            old = SEED[riemann](WL, WR, EOS, iu, iv)
        assert np.isnan(old).any() and np.isinf(old).any()
        assert_bit_identical(new, old)

    @pytest.mark.parametrize("riemann", sorted(SEED))
    def test_grid_shaped_states(self, riemann):
        # The flux kernel passes (4, nx, ny) and (4, nfabs, nx, ny) states.
        WL, WR = random_pairs(2 * 3 * 7 * 5, seed=17)
        for shape in ((NCOMP, 42, 5), (NCOMP, 2, 3, 35)):
            assert_bit_identical(
                RIEMANN_SOLVERS[riemann](WL.reshape(shape), WR.reshape(shape), EOS),
                SEED[riemann](WL.reshape(shape), WR.reshape(shape), EOS))
