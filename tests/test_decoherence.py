import numpy as np
import pytest

from hsswitness.decoherence import (OhmicSpectralDensity, SqueezedBathParams,
                                    ThermalBathParams, gamma_squeezed,
                                    gamma_thermal, rtn_dn, rtn_dn_montecarlo)
from hsswitness.errors import InvalidParams


def trapezoid_oracle_thermal(t, spectral, T, nodes=10**6, omega_max=1000.0):
    # grid includes w = 0 with the analytic integrand limit so the first
    # panel is not silently dropped (it matters at finite temperature)
    w = np.linspace(0.0, omega_max, nodes)
    wk = w[1:]
    J = (spectral.alpha * wk**spectral.s_ohmic
         / spectral.omega_c ** (spectral.s_ohmic - 1) * np.exp(-wk / spectral.omega_c))
    coth = 1.0 if T == 0 else 1.0 / np.tanh(wk / (2 * T))
    f = J * coth * 2 * np.sin(wk * t / 2) ** 2 / wk**2
    f0 = spectral.alpha * T * t * t if (T > 0 and spectral.s_ohmic == 1) else 0.0
    return np.trapezoid(np.concatenate(([f0], f)), w)


def trapezoid_oracle_squeezed(t, params, nodes=10**6, omega_max=1000.0):
    sp = params.spectral
    w = np.linspace(0.0, omega_max, nodes)
    wk = w[1:]
    J = (sp.alpha * wk**sp.s_ohmic / sp.omega_c ** (sp.s_ohmic - 1)
         * np.exp(-wk / sp.omega_c))
    bracket = (np.cosh(2 * params.r)
               - np.sinh(2 * params.r) * np.cos(wk * t - params.theta))
    f = J * 2 * np.sin(wk * t / 2) ** 2 / wk**2 * bracket
    b0 = np.cosh(2 * params.r) - np.sinh(2 * params.r) * np.cos(params.theta)
    f0 = sp.alpha * t * t / 2 * b0 if sp.s_ohmic == 1 else 0.0
    return np.trapezoid(np.concatenate(([f0], f)), w)


OHMIC = OhmicSpectralDensity(alpha=0.1, s_ohmic=1.0, omega_c=20.0)
SUPER = OhmicSpectralDensity(alpha=0.1, s_ohmic=3.0, omega_c=20.0)


class TestGammaThermal:
    def test_zero_at_zero(self):
        assert gamma_thermal(0.0, ThermalBathParams(OHMIC)) == 0.0

    def test_matches_trapezoid_oracle(self):
        params = ThermalBathParams(OHMIC, temperature=0.0)
        got = gamma_thermal(0.5, params)
        want = trapezoid_oracle_thermal(0.5, OHMIC, 0.0)
        assert abs(got - want) < 1e-6

    def test_finite_temperature_oracle(self):
        params = ThermalBathParams(OHMIC, temperature=2.0)
        got = gamma_thermal(1.0, params)
        want = trapezoid_oracle_thermal(1.0, OHMIC, 2.0)
        assert abs(got - want) < 1e-6

    def test_zero_temperature_equals_unsqueezed(self):
        th = ThermalBathParams(SUPER, temperature=0.0)
        sq = SqueezedBathParams(SUPER, r=0.0)
        for t in (0.2, 0.7, 2.0):
            assert abs(gamma_thermal(t, th) - gamma_squeezed(t, sq)) < 1e-8

    def test_continuity_on_grid(self):
        params = ThermalBathParams(OHMIC, temperature=1.0)
        vals = [gamma_thermal(t, params) for t in np.linspace(0, 3, 40)]
        assert np.all(np.isfinite(vals))
        assert max(abs(np.diff(vals))) < 0.5


class TestGammaSqueezed:
    def test_zero_at_zero(self):
        assert gamma_squeezed(0.0, SqueezedBathParams(SUPER, r=0.3)) == 0.0

    def test_matches_trapezoid_oracle(self):
        params = SqueezedBathParams(SUPER, r=0.3, theta=0.0)
        got = gamma_squeezed(1.0, params)
        want = trapezoid_oracle_squeezed(1.0, params)
        assert abs(got - want) < 1e-6

    def test_nonzero_angle_oracle(self):
        params = SqueezedBathParams(SUPER, r=0.5, theta=0.8)
        got = gamma_squeezed(0.7, params)
        want = trapezoid_oracle_squeezed(0.7, params)
        assert abs(got - want) < 1e-6

    def test_super_ohmic_freezing(self):
        # gamma saturates: the long-time tail is flat
        params = SqueezedBathParams(SUPER, r=0.3)
        t_max = 3.0
        assert abs(gamma_squeezed(t_max, params)
                   - gamma_squeezed(0.9 * t_max, params)) < 1e-3

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidParams):
            gamma_squeezed(-1.0, SqueezedBathParams(SUPER))


class TestRtnClosedForm:
    @pytest.mark.parametrize("n,q", [(1, 0.1), (2, 1.0), (3, 10.0), (4, 0.5)])
    def test_unity_at_zero(self, n, q):
        assert rtn_dn(n, q, 0.0) == 1.0

    def test_degenerate_limit(self):
        # q = n: analytic limit e^{-q tau} (1 + q tau)
        assert abs(rtn_dn(1, 1.0, 2.0) - np.exp(-2.0) * 3.0) < 1e-12

    def test_no_flips_reduces_to_cosine(self):
        for tau in (0.3, 1.7, 5.0):
            assert abs(rtn_dn(2, 0.0, tau) - np.cos(2 * tau)) < 1e-12

    def test_seam_continuity(self):
        for n in (1, 2, 3):
            for tau in (0.5, 2.0, 7.0):
                lo = rtn_dn(n, n - 1.0000001e-6, tau)
                hi = rtn_dn(n, n + 1.0000001e-6, tau)
                assert abs(lo - hi) < 1e-6

    def test_bounded(self):
        qs = [0.0, 0.05, 0.5, 0.999, 1.0, 2.0, 10.0, 100.0]
        taus = np.linspace(0, 40, 200)
        for n in (1, 2, 3, 4):
            for q in qs:
                vals = np.array([rtn_dn(n, q, t) for t in taus])
                assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            rtn_dn(0, 1.0, 1.0)
        with pytest.raises(InvalidParams):
            rtn_dn(1, -0.1, 1.0)


class TestRtnMonteCarlo:
    def test_tau_zero(self):
        mean, err = rtn_dn_montecarlo(1, 0.5, 0.0, 1000, seed=0)
        assert mean == 1.0 and err == 0.0

    def test_q_zero_exact_cosine(self):
        mean, err = rtn_dn_montecarlo(3, 0.0, 1.2, 1000, seed=0)
        assert abs(mean - np.cos(3 * 1.2)) < 1e-12

    def test_matches_closed_form(self):
        mean, err = rtn_dn_montecarlo(1, 0.1, 3.0, 10**5, seed=42)
        assert abs(mean - rtn_dn(1, 0.1, 3.0)) < 3 * err

    def test_n2_slow_noise(self):
        mean, err = rtn_dn_montecarlo(2, 0.1, 2.0, 10**5, seed=9)
        assert abs(mean - rtn_dn(2, 0.1, 2.0)) < 3 * err

    def test_deterministic_for_seed(self):
        a = rtn_dn_montecarlo(2, 0.5, 2.0, 30_000, seed=5)
        b = rtn_dn_montecarlo(2, 0.5, 2.0, 30_000, seed=5)
        assert a == b

    def test_stderr_scaling(self):
        # stderr should roughly halve when trials quadruple
        _, e1 = rtn_dn_montecarlo(1, 0.5, 2.0, 25_000, seed=3)
        _, e4 = rtn_dn_montecarlo(1, 0.5, 2.0, 100_000, seed=3)
        assert abs(e4 / e1 - 0.5) < 0.2 * 0.5

    def test_trials_floor(self):
        with pytest.raises(InvalidParams):
            rtn_dn_montecarlo(1, 0.5, 1.0, 50, seed=0)
