import numpy as np
import pytest

from hsswitness import dynamics
from hsswitness.decoherence import gamma_squeezed, rtn_dn
from hsswitness.dynamics import (QUBIT_QUTRIT, Scenario, SpinLayout,
                                 bath_gamma, element_factor, evolve,
                                 initial_mixed, initial_pure,
                                 mixed_coherence_factor)
from hsswitness.errors import InvalidP, InvalidParams, UnsupportedScenario
from hsswitness.hilbert import hermitian_eigenvalues
from hsswitness.validation import (golden_mixed, golden_mixed_common,
                                   golden_pure_composite,
                                   golden_pure_rtn_common,
                                   golden_pure_rtn_independent,
                                   golden_pure_squeezed, qudit_scenario,
                                   scenario_composite, scenario_rtn,
                                   scenario_squeezed)


class TestLayout:
    def test_dims(self):
        assert QUBIT_QUTRIT.dims == (2, 3)
        assert SpinLayout((1.5,)).dims == (4,)

    def test_z_labels(self):
        assert np.allclose(QUBIT_QUTRIT.z_labels(0), [0.5, -0.5])
        assert np.allclose(QUBIT_QUTRIT.z_labels(1), [1, 0, -1])

    def test_rejects_non_half_integer(self):
        with pytest.raises(InvalidParams):
            SpinLayout((0.3,))


class TestInitialStates:
    def test_pure_phi_zero_uniform(self):
        fam = initial_pure(SpinLayout((0.5,)), 0.0)
        assert np.allclose(fam.base.matrix, np.full((2, 2), 0.5))

    def test_pure_phi_pi_negates_first_row(self):
        fam = initial_pure(QUBIT_QUTRIT, np.pi)
        m = fam.base.matrix
        assert np.allclose(m[0, 1:], -1 / 6, atol=1e-12)
        assert np.allclose(m[1:, 1:], 1 / 6, atol=1e-12)
        assert abs(m.trace() - 1.0) < 1e-12

    def test_pure_mask_structure(self):
        fam = initial_pure(QUBIT_QUTRIT, 0.3)
        mask = fam.phase_mask
        assert np.all(mask[0, 1:] == 1) and np.all(mask[1:, 0] == -1)
        assert np.all(mask[1:, 1:] == 0)

    def test_mixed_p0_is_pure_bell_like(self):
        rho = initial_mixed(0.0)
        ev = hermitian_eigenvalues(rho.matrix)
        assert abs(ev[0] - 1.0) < 1e-12

    def test_mixed_p_third_separable_at_t0(self):
        from hsswitness.witnesses import negativity
        assert negativity(initial_mixed(1 / 3)) < 1e-12

    def test_mixed_p04_spectrum(self):
        ev = hermitian_eigenvalues(initial_mixed(0.4).matrix)
        assert abs(ev.sum() - 1.0) < 1e-12
        assert ev[-1] >= -1e-12
        # spectrum is {0.4, 0.2 x3, 0 x2}: p on the |00>+|12> line, p/2 on
        # each of |01>, |11>, 1-2p on the |02>+|10> line
        assert np.sum(np.abs(ev - 0.2) < 1e-12) == 3
        assert np.sum(np.abs(ev - 0.4) < 1e-12) == 1

    def test_mixed_rejects_large_p(self):
        with pytest.raises(InvalidP):
            initial_mixed(0.6)


class TestDephaseSingle:
    """A single spin-s qudit dephases as rho_nm -> rho_nm exp(-(n-m)^2 gamma)."""

    def test_identity_at_gamma_zero(self):
        scen = qudit_scenario(1.5)
        fam = initial_pure(scen.layout, 0.7)
        assert bath_gamma(scen, 0.0) == 0.0
        out = evolve(scen, fam, 0.0)
        assert np.allclose(out.base.matrix, fam.base.matrix)

    def test_spin_half_factor(self):
        scen, tau = qudit_scenario(0.5), 0.8
        g = bath_gamma(scen, tau)
        assert g > 0.01
        out = evolve(scen, initial_pure(scen.layout, 0.0), tau)
        assert abs(out.base.matrix[0, 1] - 0.5 * np.exp(-g)) < 1e-14

    def test_extreme_element_exponent(self):
        # (n - m) = 3 coherence of a spin-3/2 damps as e^{-9 gamma}
        scen, tau = qudit_scenario(1.5), 0.8
        g = bath_gamma(scen, tau)
        out = evolve(scen, initial_pure(scen.layout, 0.0), tau)
        assert abs(out.base.matrix[0, 3] - 0.25 * np.exp(-9 * g)) < 1e-14


class TestElementFactor:
    def test_diagonal_is_one(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            assert element_factor(scen, 0.5, 0.5, 1.0, 1.0, 1.3) == pytest.approx(1.0)

    def test_common_rtn_decoherence_free_pair(self):
        scen = scenario_rtn(0.1, common=True)
        # |02><10|: qubit winding +2, qutrit winding -2 cancel exactly
        assert element_factor(scen, 0.5, -0.5, -1.0, 1.0, 5.0) == pytest.approx(1.0)

    def test_independent_rtn_mixed_element(self):
        scen = scenario_rtn(0.1)
        tau = 2.5
        # |00><11|: qubit sees D_2, qutrit sees D_1
        got = element_factor(scen, 0.5, -0.5, 1.0, 0.0, tau)
        assert abs(got - rtn_dn(2, 0.1, tau) * rtn_dn(1, 0.1, tau)) < 1e-14


class TestBathGammaOncePerState:
    """factor_matrix evaluates the bath exponent once, not once per element."""

    @pytest.mark.parametrize("make", [scenario_squeezed,
                                      lambda: scenario_composite(0.1),
                                      lambda: qudit_scenario(1.5)],
                             ids=["squeezed", "composite", "spin-3/2"])
    def test_one_call_per_evolve(self, monkeypatch, make):
        scen = make()
        calls = []

        def counted(t, params):
            calls.append(t)
            return gamma_squeezed(t, params)

        monkeypatch.setattr(dynamics, "gamma_squeezed", counted)
        for k, tau in enumerate((0.4, 0.4, 1.1), start=1):
            evolve(scen, initial_pure(scen.layout, 0.3), tau)
            assert len(calls) == k

    def test_element_factor_takes_gamma(self):
        scen = scenario_composite(0.1)
        tau = 0.7
        g = bath_gamma(scen, tau)
        for args in ((0.5, -0.5, 1, -1), (0.5, 0.5, 0, -1), (0.5, -0.5, 0, 0)):
            assert (element_factor(scen, *args, tau, g)
                    == element_factor(scen, *args, tau))


class TestGoldenTables:
    """evolve() must reproduce the reference matrices entrywise to 1e-12."""

    PHI = 0.77

    def test_pure_squeezed(self):
        scen = scenario_squeezed()
        for tau in (0.1, 0.5, 1.7):
            g = bath_gamma(scen, tau)
            got = evolve(scen, initial_pure(QUBIT_QUTRIT, self.PHI), tau)
            assert np.abs(got.base.matrix
                          - golden_pure_squeezed(g, self.PHI)).max() < 1e-12

    def test_pure_rtn_independent(self):
        scen = scenario_rtn(0.1)
        for tau in (0.5, 4.0, 15.0):
            d1, d2 = rtn_dn(1, 0.1, tau), rtn_dn(2, 0.1, tau)
            got = evolve(scen, initial_pure(QUBIT_QUTRIT, self.PHI), tau)
            assert np.abs(got.base.matrix
                          - golden_pure_rtn_independent(d1, d2, self.PHI)).max() < 1e-12

    def test_pure_rtn_common(self):
        scen = scenario_rtn(0.1, common=True)
        for tau in (0.5, 4.0, 15.0):
            d = [rtn_dn(n, 0.1, tau) for n in (1, 2, 3, 4)]
            got = evolve(scen, initial_pure(QUBIT_QUTRIT, self.PHI), tau)
            assert np.abs(got.base.matrix
                          - golden_pure_rtn_common(*d, self.PHI)).max() < 1e-12

    def test_pure_composite(self):
        scen = scenario_composite(0.1)
        for tau in (0.1, 0.8, 2.0):
            g = bath_gamma(scen, tau)
            d2 = rtn_dn(2, 0.1, 100.0 * tau)
            got = evolve(scen, initial_pure(QUBIT_QUTRIT, self.PHI), tau)
            assert np.abs(got.base.matrix
                          - golden_pure_composite(d2, g, self.PHI)).max() < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.4])
    def test_mixed_all_scenarios(self, p, all_qubit_qutrit_scenarios):
        tau = 1.5
        g = bath_gamma(scenario_squeezed(), tau)
        factors = {
            "squeezed": np.exp(-5 * g),
            "rtn-independent": rtn_dn(2, 0.1, tau) ** 2,
            "rtn-common": rtn_dn(4, 0.1, tau),
            "composite": rtn_dn(2, 0.1, 100.0 * tau) * np.exp(-4 * g),
        }
        for name, scen in all_qubit_qutrit_scenarios.items():
            F = factors[name]
            assert abs(mixed_coherence_factor(scen, tau) - F) < 1e-15
            expected = (golden_mixed_common(p, F) if name == "rtn-common"
                        else golden_mixed(p, F))
            got = evolve(scen, initial_mixed(p), tau)
            assert np.abs(got.matrix - expected).max() < 1e-12

    def test_mixed_factor_needs_qubit_qutrit(self):
        with pytest.raises(UnsupportedScenario):
            mixed_coherence_factor(qudit_scenario(2.5), 1.0)


class TestEvolutionProperties:
    def test_t0_identity(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            fam0 = initial_pure(QUBIT_QUTRIT, 0.4)
            out = evolve(scen, fam0, 0.0)
            assert np.allclose(out.base.matrix, fam0.base.matrix, atol=1e-14)

    def test_diagonal_preserved(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            out = evolve(scen, initial_mixed(0.3), 2.0)
            assert np.allclose(np.diag(out.matrix),
                               np.diag(initial_mixed(0.3).matrix), atol=1e-14)

    def test_positivity_on_grid(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            for tau in np.linspace(0, 3, 12):
                fam = evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), tau)
                # DensityMatrix construction enforces min eigenvalue >= -1e-9
                assert hermitian_eigenvalues(fam.base.matrix)[-1] >= -1e-9

    def test_phi_covariance(self, all_qubit_qutrit_scenarios):
        # evolving then shifting phi equals shifting then evolving
        for scen in all_qubit_qutrit_scenarios.values():
            tau, phi0, phi1 = 1.2, 0.3, 2.1
            shifted_then_evolved = evolve(
                scen, initial_pure(QUBIT_QUTRIT, phi1), tau).base.matrix
            evolved_then_shifted = evolve(
                scen, initial_pure(QUBIT_QUTRIT, phi0), tau).at_phi(phi1)
            assert np.abs(shifted_then_evolved - evolved_then_shifted).max() < 1e-12

    def test_common_rtn_p0_time_invariant(self):
        scen = scenario_rtn(0.1, common=True)
        rho0 = initial_mixed(0.0)
        for tau in (0.5, 3.0, 12.0, 30.0):
            drift = evolve(scen, rho0, tau).matrix - rho0.matrix
            assert np.linalg.norm(drift) / np.sqrt(2) < 1e-12

    def test_unsupported_layout(self):
        from hsswitness.decoherence import RtnParams
        from hsswitness.dynamics import RtnIndependent
        with pytest.raises(UnsupportedScenario):
            Scenario(SpinLayout((1.5,)), RtnIndependent(RtnParams(1.0, 0.1)))
