import math
import tracemalloc

import numpy as np
import pytest

from hsswitness import witnesses
from hsswitness.cli import load_config

from hsswitness.decoherence import rtn_dn
from hsswitness.dynamics import (QUBIT_QUTRIT, bath_gamma, evolve,
                                 initial_mixed, initial_pure)
from hsswitness.errors import UnsupportedScenario
from hsswitness.hilbert import DensityMatrix
from hsswitness.validation import (chi_qudit_closed, golden_pure_composite,
                                   golden_pure_rtn_common,
                                   golden_pure_rtn_independent,
                                   golden_pure_squeezed, hss_finite_difference,
                                   mixed_coherence_factor, qudit_scenario,
                                   scenario_rtn)
from hsswitness.witnesses import (WitnessSeries, chi_series, compute_series,
                                  extrema_report, hss, mid, mid_closed,
                                  negativity, negativity_closed)

SQRT5_OVER_6 = np.sqrt(5.0) / 6.0
#: the closed-form topology of each scenario of all_qubit_qutrit_scenarios
TOPOLOGY = {"squeezed": "independent", "rtn-independent": "independent",
            "rtn-common": "common", "composite": "composite"}


class TestHss:
    def test_initial_value_anchor(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            rho = evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), 0.0)
            assert abs(hss(rho) - SQRT5_OVER_6) < 1e-12

    def test_phi_independent(self, all_qubit_qutrit_scenarios):
        scen = next(iter(all_qubit_qutrit_scenarios.values()))
        vals = [hss(evolve(scen, initial_pure(QUBIT_QUTRIT, phi), 1.0))
                for phi in np.random.default_rng(0).uniform(0, 2 * np.pi, 10)]
        assert max(vals) - min(vals) < 1e-12

    def test_qudit_spin_half_closed_form(self, qudit_half):
        for tau in (0.0, 0.4, 1.5, 3.0):
            g = bath_gamma(qudit_half, tau)
            rho = evolve(qudit_half, initial_pure(qudit_half.layout, 0.2), tau)
            assert abs(hss(rho) - 0.5 * np.exp(-g)) < 1e-10

    def test_matches_finite_difference(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            for tau in (0.0, 0.7, 2.5):
                rho = evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), tau)
                fd = hss_finite_difference(scen, tau, np.pi)
                assert abs(hss(rho) - fd) < 1e-6

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
            rho = evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), tau)
            assert abs(hss(rho) - builder(scen, tau)) < 1e-12


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
        assert abs(chi_qudit_closed(0.5, g, dg) - expected) < 1e-12

    def test_both_forms_same_sign(self):
        # the paper prints the plain sum, not its square root, as denominator
        rng = np.random.default_rng(5)
        for s in (0.5, 1.0, 1.5, 3.0):
            k = np.arange(1, int(2 * s) + 1)
            for g, dg in zip(rng.uniform(0, 2, 30), rng.normal(0, 1, 30)):
                terms = np.exp(-2.0 * k**2 * g)
                a = chi_qudit_closed(s, g, dg)
                b = -dg / (2 * s + 1) * (k**2 * terms).sum() / terms.sum()
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

    def test_stacked_witnesses_match_single_states(self, random_density_matrices):
        states = random_density_matrices + [initial_mixed(0.3), initial_mixed(0.0)]
        stack = DensityMatrix(np.array([r.matrix for r in states]), (2, 3))
        for f in (hss, negativity, mid):
            got = f(stack)
            assert got.shape == (len(states),)
            assert np.abs(got - [f(r) for r in states]).max() < 1e-12

    def test_tie_break_once_per_distinct_marginal(self, monkeypatch):
        # the mixed family's marginals are diagonal, degenerate and the same
        # at every time: one Gram-Schmidt per marginal and block
        calls = []
        tie_break = witnesses._tie_break
        monkeypatch.setattr(witnesses, "_tie_break",
                            lambda ev, vec: calls.append(1) or tie_break(ev, vec))
        compute_series(scenario_rtn(0.1), np.linspace(0, 30, 600), mixed_p=0.3)
        assert 0 < len(calls) <= 2 * math.ceil(600 / (witnesses.BLOCK_ENTRIES // 36))

    def test_memory_does_not_grow_with_the_grid(self):
        # one unblocked (20000, 6, 6) complex stack alone would take 11.5 MB
        scen = load_config("fig4", {"scenario": {"kind": "rtn_independent"}}).scenario
        grid = np.linspace(0.0, 30.0, 20_000)
        tracemalloc.start()
        try:
            compute_series(scen, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def first_ket_mask(d):
    """Winding of each entry under the phase on the first basis ket."""
    mask = np.zeros((d, d))
    mask[0, 1:] = 1
    mask[1:, 0] = -1
    return mask


def explicit_partial_transpose(m):
    """<a b| rho^T_A |a' b'> = <a' b| rho |a b'>, entry by entry."""
    out = np.empty_like(m)
    for a in range(2):
        for b in range(3):
            for a2 in range(2):
                for b2 in range(3):
                    out[..., 3 * a + b, 3 * a2 + b2] = m[..., 3 * a2 + b, 3 * a + b2]
    return out


def golden_series(kind, scen, grid, phi):
    """Golden pure states on the grid, the mixed-state F and its topology."""
    env = scen.environment
    g = bath_gamma(scen, grid) if env.bath is not None else None
    d = {n: rtn_dn(n, env.rtn.q, env.nu_ratio * grid) for n in (1, 2, 3, 4)
         } if env.rtn is not None else None
    if kind in ("squeezed", "thermal"):
        return ([golden_pure_squeezed(x, phi) for x in g], np.exp(-5 * g),
                "independent")
    if kind == "rtn_independent":
        return ([golden_pure_rtn_independent(d1, d2, phi)
                 for d1, d2 in zip(d[1], d[2])], d[2] ** 2, "independent")
    if kind == "rtn_common":
        return ([golden_pure_rtn_common(*dk, phi) for dk in zip(*d.values())],
                d[4], "common")
    return ([golden_pure_composite(d2, x, phi) for d2, x in zip(d[2], g)],
            d[2] * np.exp(-4 * g), "composite")


#: the five kinds; telegraph kinds at a slow and a fast switching rate
SERIES_CASES = [("squeezed", None), ("thermal", None)] + [
    (kind, q) for kind in ("rtn_independent", "rtn_common", "composite")
    for q in (0.1, 7.3)]


@pytest.mark.parametrize("p", [None, 0.3], ids=["pure", "mixed"])
@pytest.mark.parametrize("kind,q", SERIES_CASES,
                         ids=[f"{k}-q{q}" for k, q in SERIES_CASES])
def test_series_against_oracles(kind, q, p):
    """Every point of a 600-point series, across block boundaries."""
    spec = {"kind": kind}
    if q is not None:
        spec["q"] = q
    if kind == "thermal":
        spec["temperature"] = 1.0
    scen = load_config(kind, {"scenario": spec}).scenario
    grid = np.linspace(0.0, 30.0 if kind.startswith("rtn") else 3.0, 600)
    series = compute_series(scen, grid, mixed_p=p)

    golden, factors, topo = golden_series(kind, scen, grid, np.pi)
    golden = np.array(golden)
    # the HSS from its definition, Tr[(d rho / d phi)^2] / 2
    deriv = 1j * first_ket_mask(6) * golden
    want = np.sqrt(np.trace(deriv @ deriv, axis1=-2, axis2=-1).real / 2)
    assert np.abs(series.hss - want).max() < 1e-12
    if p is None:
        ev = np.linalg.eigvalsh(explicit_partial_transpose(golden))
        want = -np.where(ev < 0, ev, 0.0).sum(-1)
        assert np.abs(series.negativity - want).max() < 1e-12
    else:
        assert np.abs(series.negativity - [negativity_closed(p, F, topo)
                                           for F in factors]).max() < 1e-10
        assert np.abs(series.mid - [mid_closed(p, F, topo)
                                    for F in factors]).max() < 1e-10


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
        from hsswitness.hilbert import partial_transpose
        for rho in random_density_matrices:
            direct = negativity(rho)
            ev = np.linalg.eigvalsh(partial_transpose(rho, 0))
            via_norm = 0.5 * (np.abs(ev).sum() - 1.0)
            assert abs(direct - via_norm) < 1e-10

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.4])
    def test_closed_form_all_scenarios(self, p, all_qubit_qutrit_scenarios):
        for name, scen in all_qubit_qutrit_scenarios.items():
            topo = TOPOLOGY[name]
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
        for name, scen in all_qubit_qutrit_scenarios.items():
            for tau in (0.0, 0.6, 2.2):
                F = mixed_coherence_factor(scen, tau)
                got = mid(evolve(scen, initial_mixed(p), tau))
                assert abs(got - mid_closed(p, F, TOPOLOGY[name])) < 1e-10

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
        from hsswitness.dynamics import Environment, Scenario
        scen = Scenario(QUBIT_QUTRIT, Environment(
            bath=ThermalBathParams(OhmicSpectralDensity(0.1, 1.0, 20.0),
                                   temperature=1.0),
            bath_couplings=((1, 0), (0, 1))))
        tgrid = np.linspace(0, 3, 100)
        hvals = [hss(evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), t))
                 for t in tgrid]
        assert np.all(np.diff(hvals) <= 1e-8)
