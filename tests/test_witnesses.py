import numpy as np
import pytest

from hsswitness.decoherence import rtn_dn
from hsswitness.dynamics import (QUBIT_QUTRIT, bath_gamma, evolve,
                                 initial_mixed, initial_pure,
                                 mixed_coherence_factor)
from hsswitness.errors import UnsupportedScenario
from hsswitness.hilbert import DensityMatrix
from hsswitness.validation import (qudit_scenario, scenario_composite,
                                   scenario_rtn, scenario_squeezed)
from hsswitness.witnesses import (WitnessSeries, chi_qudit_closed, chi_series,
                                  compute_series, extrema_report, hss,
                                  hss_finite_difference, mid, mid_closed,
                                  negativity, negativity_closed)

SQRT5_OVER_6 = np.sqrt(5.0) / 6.0


class TestHss:
    def test_initial_value_anchor(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            fam = evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), 0.0)
            assert abs(hss(fam) - SQRT5_OVER_6) < 1e-12

    def test_phi_independent(self, all_qubit_qutrit_scenarios):
        scen = next(iter(all_qubit_qutrit_scenarios.values()))
        vals = [hss(evolve(scen, initial_pure(QUBIT_QUTRIT, phi), 1.0))
                for phi in np.random.default_rng(0).uniform(0, 2 * np.pi, 10)]
        assert max(vals) - min(vals) < 1e-12

    def test_qudit_spin_half_closed_form(self, qudit_half):
        for tau in (0.0, 0.4, 1.5, 3.0):
            g = bath_gamma(qudit_half, tau)
            fam = evolve(qudit_half, initial_pure(qudit_half.layout, 0.2), tau)
            assert abs(hss(fam) - 0.5 * np.exp(-g)) < 1e-10

    def test_matches_finite_difference(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            for tau in (0.0, 0.7, 2.5):
                fam = evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), tau)
                fd = hss_finite_difference(scen, tau, np.pi, h=1e-4)
                assert abs(hss(fam) - fd) < 1e-6

    def test_fd_phi_shift_invariant(self):
        scen = scenario_rtn(0.1)
        a = hss_finite_difference(scen, 1.0, 0.5)
        b = hss_finite_difference(scen, 1.0, 0.5 + np.pi)
        assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("name,builder", [
        ("squeezed", lambda scen, tau: np.sqrt(
            2 * np.exp(-2 * bath_gamma(scen, tau))
            + np.exp(-4 * bath_gamma(scen, tau))
            + np.exp(-8 * bath_gamma(scen, tau))
            + np.exp(-10 * bath_gamma(scen, tau))) / 6),
        ("rtn-independent", lambda scen, tau: np.sqrt(
            rtn_dn(1, 0.1, tau)**2 + 2 * rtn_dn(2, 0.1, tau)**2
            + rtn_dn(2, 0.1, tau)**2 * rtn_dn(1, 0.1, tau)**2
            + rtn_dn(2, 0.1, tau)**4) / 6),
        ("rtn-common", lambda scen, tau: np.sqrt(
            rtn_dn(1, 0.1, tau)**2 + 2 * rtn_dn(2, 0.1, tau)**2
            + rtn_dn(3, 0.1, tau)**2 + rtn_dn(4, 0.1, tau)**2) / 6),
        ("composite", lambda scen, tau: np.sqrt(
            (np.exp(-2 * bath_gamma(scen, tau))
             + np.exp(-8 * bath_gamma(scen, tau)))
            * (1 + rtn_dn(2, 0.1, 100 * tau)**2)
            + rtn_dn(2, 0.1, 100 * tau)**2) / 6),
    ])
    def test_closed_form_expressions(self, name, builder,
                                     all_qubit_qutrit_scenarios):
        scen = all_qubit_qutrit_scenarios[name]
        for tau in (0.0, 0.4, 1.1, 2.8):
            fam = evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), tau)
            assert abs(hss(fam) - builder(scen, tau)) < 1e-12


class TestChi:
    def test_constant_series_is_zero(self):
        grid = np.linspace(0, 1, 50)
        assert np.allclose(chi_series(np.ones(50), grid), 0.0)

    def test_qudit_closed_zero_derivative(self):
        assert chi_qudit_closed(1.5, 0.3, 0.0) == 0.0

    def test_spin_half_consistency(self):
        # chi at s=1/2 must equal d/dt of (1/2) e^{-gamma}
        g, dg = 0.25, -0.4
        expected = -0.5 * dg * np.exp(-g)
        assert abs(chi_qudit_closed(0.5, g, dg, "derivative") - expected) < 1e-12

    def test_both_forms_same_sign(self):
        rng = np.random.default_rng(5)
        for s in (0.5, 1.0, 1.5, 3.0):
            for g, dg in zip(rng.uniform(0, 2, 30), rng.normal(0, 1, 30)):
                a = chi_qudit_closed(s, g, dg, "derivative")
                b = chi_qudit_closed(s, g, dg, "printed")
                assert np.sign(a) == np.sign(b)
                assert np.sign(a) == np.sign(-dg)

    def test_markov_regime_flat(self):
        grid = np.linspace(0, 30, 300)
        series = compute_series(scenario_rtn(10.0), grid)
        assert np.all(series.chi <= 1e-8)
        assert series.nonmarkov_intervals == ()

    def test_nonmarkov_regime_revivals(self):
        grid = np.linspace(0, 30, 300)
        series = compute_series(scenario_rtn(0.1), grid)
        assert len(series.nonmarkov_intervals) >= 1


class TestSeries:
    @pytest.mark.parametrize("spin", [1.5, 2.5])
    def test_mixed_p_needs_qubit_qutrit(self, spin):
        # spin 2.5 has the mixed state's 6 levels but not its two subsystems
        with pytest.raises(UnsupportedScenario):
            compute_series(qudit_scenario(spin), np.linspace(0, 1, 16),
                           mixed_p=0.3)


class TestNegativity:
    def test_separable_zero(self):
        rho = DensityMatrix(np.eye(6) / 6, (2, 3))
        assert negativity(rho) < 1e-14

    def test_bell_like_half(self):
        v = np.zeros(6, dtype=complex)
        v[0] = v[5] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(v, v.conj()), (2, 3))
        assert abs(negativity(rho) - 0.5) < 1e-12

    def test_p_third_zero_at_t0(self):
        assert negativity(initial_mixed(1 / 3)) < 1e-12

    def test_equals_trace_norm_formula(self, random_density_matrices):
        from hsswitness.hilbert import partial_transpose, trace_norm
        for rho in random_density_matrices:
            direct = negativity(rho)
            via_norm = 0.5 * (trace_norm(partial_transpose(rho, 0)) - 1.0)
            assert abs(direct - via_norm) < 1e-10

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.4])
    def test_closed_form_all_scenarios(self, p, all_qubit_qutrit_scenarios):
        for name, scen in all_qubit_qutrit_scenarios.items():
            topo = scen.topology
            for tau in (0.0, 0.6, 2.2):
                F = mixed_coherence_factor(scen, tau)
                got = negativity(evolve(scen, initial_mixed(p), tau))
                assert abs(got - negativity_closed(p, F, topo)) < 1e-10

    def test_closed_form_anchors(self):
        assert abs(negativity_closed(0.0, 1.0, "independent") - 0.5) < 1e-14
        assert abs(negativity_closed(0.0, 0.3, "common") - 0.5) < 1e-14
        # F = 0: spectrum is diagonal-plus-block, matches generic
        for p in (0.0, 0.2, 0.45):
            got = negativity(DensityMatrix(
                np.diag([p / 2, p / 2, (1 - 2 * p) / 2,
                         (1 - 2 * p) / 2, p / 2, p / 2]).astype(complex), (2, 3)))
            assert abs(negativity_closed(p, 0.0, "independent") - got) < 1e-12


class TestMid:
    def test_classical_diagonal_zero(self):
        rho = DensityMatrix(np.diag([0.3, 0.1, 0.1, 0.2, 0.2, 0.1]).astype(complex),
                            (2, 3))
        assert abs(mid(rho)) < 1e-12

    def test_nonnegative(self, random_density_matrices):
        for rho in random_density_matrices:
            assert mid(rho) >= -1e-9

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.4])
    def test_closed_form_all_scenarios(self, p, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            for tau in (0.0, 0.6, 2.2):
                F = mixed_coherence_factor(scen, tau)
                got = mid(evolve(scen, initial_mixed(p), tau))
                assert abs(got - mid_closed(p, F, scen.topology)) < 1e-10

    def test_closed_form_anchors(self):
        assert abs(mid_closed(0.0, 1.0, "independent") - 1.0) < 1e-14
        assert mid_closed(0.3, 0.0, "independent") == 0.0
        # common topology at p = 0 is frozen at 1 for any F
        for F in (0.0, 0.4, 1.0):
            assert abs(mid_closed(0.0, F, "common") - 1.0) < 1e-14


class TestExtrema:
    def test_plateau_collapses_to_single_extremum(self):
        grid = np.linspace(0, 10, 11)
        vals = np.array([0, 1, 2, 2, 2, 1, 0, 1, 2, 1, 0], dtype=float)
        series = WitnessSeries(tau_grid=grid, hss=vals, chi=np.zeros(11),
                               negativity=np.zeros(11) + 0.1, mid=vals)
        report = extrema_report(series)
        maxima = [t for t, kind in report.extrema["hss"] if kind == "max"]
        assert maxima == [3.0, 8.0]

    def test_sudden_death_detection(self):
        grid = np.linspace(0, 5, 6)
        neg = np.array([0.3, 0.1, 0.0, 0.0, 0.1, 0.2])
        series = WitnessSeries(tau_grid=grid, hss=np.ones(6),
                               chi=np.zeros(6), negativity=neg, mid=np.ones(6))
        report = extrema_report(series)
        assert report.sudden_death == ((2.0, 3.0),)

    def test_alignment_in_nonmarkov_regime(self):
        grid = np.linspace(0, 30, 600)
        series = compute_series(scenario_rtn(0.1), grid)
        report = extrema_report(series)
        step = grid[1] - grid[0]
        for t, info in report.alignment.items():
            if info["in_sudden_death"]:
                continue
            assert min(info["negativity_offset"], info["mid_offset"]) <= 2 * step


class TestContractivity:
    def test_hss_monotone_under_markovian_maps(self):
        # fast telegraph noise and a monotone thermal Ohmic bath are
        # memoryless: the speed must never increase beyond derivative noise
        grid = np.linspace(0, 30, 300)
        series = compute_series(scenario_rtn(10.0), grid)
        assert np.all(np.diff(series.hss) <= 1e-8)

        from hsswitness.decoherence import (OhmicSpectralDensity,
                                            ThermalBathParams)
        from hsswitness.dynamics import Scenario, ThermalOhmic
        scen = Scenario(QUBIT_QUTRIT, ThermalOhmic(ThermalBathParams(
            OhmicSpectralDensity(0.1, 1.0, 20.0), temperature=1.0)))
        tgrid = np.linspace(0, 3, 100)
        hvals = [hss(evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), t))
                 for t in tgrid]
        assert np.all(np.diff(hvals) <= 1e-8)
