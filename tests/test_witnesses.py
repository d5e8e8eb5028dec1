import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsswitness import witnesses
from hsswitness.cli import PRESETS, load_config

from hsswitness.decoherence import rtn_dn
from hsswitness.decoherence import OhmicSpectralDensity, ThermalBathParams
from hsswitness.dynamics import (QUBIT_QUTRIT, Environment, Scenario,
                                 SpinLayout, bath_gamma, evolve, initial_mixed,
                                 initial_pure)
from hsswitness.errors import NotDensityMatrix, UnsupportedScenario
from hsswitness.hilbert import DensityMatrix, reduced_matrix
from hsswitness.validation import (chi_qudit_closed, golden_pure_composite,
                                   golden_pure_rtn_common,
                                   golden_pure_rtn_independent,
                                   golden_pure_squeezed, hss_finite_difference,
                                   mixed_coherence_factor, qudit_scenario,
                                   scenario_rtn, tie_break_reference)
from hsswitness.witnesses import (DEGENERACY_GAP, PLATEAU_TOL, WitnessSeries,
                                  _intervals_where, chi_series, compute_series,
                                  extrema_report, hss, mid, mid_closed,
                                  negativity, negativity_closed)

SQRT5_OVER_6 = np.sqrt(5.0) / 6.0
FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
#: the closed-form topology of each scenario of all_qubit_qutrit_scenarios
TOPOLOGY = {"squeezed": "independent", "rtn-independent": "independent",
            "rtn-common": "common", "composite": "composite"}


def preset_states(name):
    """A preset's evolved pure states on the preset grid."""
    config = load_config(name, dict(PRESETS[name]))
    grid = np.linspace(0.0, config.tau_max, config.grid_points)
    return evolve(config.scenario,
                  initial_pure(config.scenario.layout, config.phi), grid)


def preset_series(name):
    config = load_config(name, dict(PRESETS[name]))
    grid = np.linspace(0.0, config.tau_max, config.grid_points)
    return compute_series(config.scenario, grid, phi=config.phi, mixed_p=config.p)


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

    def test_tie_break_once_per_marginal_and_block(self, monkeypatch):
        # the mixed family's marginals are diagonal and degenerate at every
        # time; fig7's qubit marginal is degenerate at 561 of its 600 points,
        # each one different in its last bits: either way one stacked
        # Gram-Schmidt per marginal and block
        calls = []
        tie_break = witnesses._tie_break
        monkeypatch.setattr(witnesses, "_tie_break",
                            lambda ev, vec: calls.append(len(ev)) or tie_break(ev, vec))
        blocks = math.ceil(600 / (witnesses.BLOCK_ENTRIES // 36))
        compute_series(scenario_rtn(0.1), np.linspace(0, 30, 600), mixed_p=0.3)
        assert 0 < len(calls) <= 2 * blocks
        calls.clear()
        preset_series("fig7")
        assert 0 < len(calls) <= 2 * blocks
        assert sum(calls) >= 561

    @pytest.mark.parametrize("mixed_p", [None, 0.3])
    def test_one_eigensolve_per_marginal(self, monkeypatch, mixed_p):
        # one block: each stack is solved once, each marginal by one eigh
        solved = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, solve=solve:
                                solved.append((name, a.shape)) or solve(a))
        compute_series(scenario_rtn(0.1), np.linspace(0, 30, 100), mixed_p=mixed_p)
        families = 1 if mixed_p is None else 2
        initial = [("eigvalsh", (6, 6))] * families
        block = ([("eigvalsh", (100, 6, 6))] * (families + 1)  # states, negativity
                 + [("eigh", (100, 2, 2)), ("eigh", (100, 3, 3))])
        assert sorted(solved) == sorted(initial + block)

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

    def test_marginal_fails_after_its_state_passes(self):
        # the state's lowest eigenvalue is -0.9e-9, inside TOL_PSD; marginal
        # A's is 3 x -0.9e-9; marginal B of b_fails has 2 x -0.9e-9
        eps = 0.9e-9
        a_fails = np.diag([-eps] * 3 + [1 / 3 + eps] * 3).astype(complex)
        b_fails = np.diag([-eps, 0.3, 0.2, -eps, 0.3, 0.2 + 2 * eps]).astype(complex)
        a_message = r"^minimum eigenvalue -2\.700e-09 < -1e-09$"
        with pytest.raises(NotDensityMatrix, match=a_message):
            mid(DensityMatrix(a_fails, (2, 3)))
        with pytest.raises(NotDensityMatrix, match=r"^minimum eigenvalue -1\.800e-09"):
            mid(DensityMatrix(b_fails, (2, 3)))
        # A is checked before B, and the first failing state first
        for stack in ([np.eye(6) / 6, a_fails], [b_fails, a_fails]):
            with pytest.raises(NotDensityMatrix, match=a_message):
                mid(DensityMatrix(np.array(stack), (2, 3)))

    def test_closed_form_anchors(self):
        assert abs(mid_closed(0.0, 1.0, "independent") - 1.0) < 1e-14
        assert mid_closed(0.3, 0.0, "independent") == 0.0
        # common topology at p = 0 is frozen at 1 for any F
        for F in (0.0, 0.4, 1.0):
            assert abs(mid_closed(0.0, F, "common") - 1.0) < 1e-14


def rotated(rng, spectrum):
    """A Hermitian matrix with the given spectrum in a random unitary basis."""
    d = len(spectrum)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q @ np.diag(spectrum) @ q.conj().T


class TestTieBreak:
    """The stacked tie-break against the one-marginal loop of validation."""

    @staticmethod
    def degenerate_agree(matrices):
        ev, vec = np.linalg.eigh(matrices)
        degenerate = (np.diff(ev) < DEGENERACY_GAP).any(-1)
        ev, vec = ev[degenerate], vec[degenerate]
        got = witnesses._tie_break(ev, vec)
        want = np.array([tie_break_reference(e, v) for e, v in zip(ev, vec)])
        assert np.abs(got - want).max() < 1e-12
        eye = np.eye(ev.shape[-1])
        assert np.abs(got.conj().swapaxes(-1, -2) @ got - eye).max() < 1e-12
        return got

    @pytest.mark.parametrize("spectrum", [
        (0.3, 0.3, 0.4), (0.2, 0.2, 0.2, 0.4), (1 / 3, 1 / 3, 1 / 3),
        (0.1, 0.1, 0.4, 0.4), (0.1, 0.2, 0.2, 0.2, 0.3), (0.5, 0.5)])
    def test_random_degenerate_marginals(self, spectrum):
        # clusters of 2 and of 3 in rotated bases
        rng = np.random.default_rng(len(spectrum))
        got = self.degenerate_agree(np.array([rotated(rng, spectrum)
                                              for _ in range(64)]))
        assert len(got) == 64

    @pytest.mark.parametrize("spectrum", [
        (0.3, 0.3, 0.4), (0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.2, 0.5)])
    def test_diagonal_marginals_give_the_computational_basis(self, spectrum):
        got = self.degenerate_agree(np.diag(spectrum)[None].astype(complex))
        assert np.abs(got[0] - np.eye(len(spectrum))).max() < 1e-15

    @pytest.mark.parametrize("gap,clusters", [(0.999e-9, 2), (1.001e-9, 3)])
    def test_gaps_either_side_of_the_threshold(self, gap, clusters):
        # 0.3 and 0.3 + gap share a cluster only below DEGENERACY_GAP
        rng = np.random.default_rng(9)
        m = np.array([rotated(rng, (0.3, 0.3 + gap, 0.2, 0.2)) for _ in range(32)])
        ev = np.linalg.eigvalsh(m)
        assert np.all((np.diff(ev) >= DEGENERACY_GAP).sum(-1) + 1 == clusters)
        self.degenerate_agree(m)

    def test_spin_pair_under_a_common_bath(self):
        # spin 2 (x) spin 3/2: marginals of dimension 5 and 4 lose their
        # coherences and pass through partly and fully degenerate spectra
        bath = ThermalBathParams(OhmicSpectralDensity(1.0, 1.0, 20.0), temperature=2.0)
        scen = Scenario(SpinLayout((2, 1.5)), Environment(
            bath=bath, bath_couplings=((1, 1),)))
        rho = evolve(scen, initial_pure(scen.layout, np.pi), np.linspace(0, 6, 300))
        for keep in (0, 1):
            assert len(self.degenerate_agree(reduced_matrix(rho, keep))) > 100
        assert np.all(np.isfinite(mid(rho)))

    def test_fig7_stack(self):
        rho = preset_states("fig7")
        assert len(self.degenerate_agree(reduced_matrix(rho, 0))) == 561

    def test_stops_when_the_cluster_is_full(self):
        # eigenvectors scaled by 1e4 leave rounding residuals above the 1e-8
        # skip threshold: only the stop rule keeps a third vector out
        rng = np.random.default_rng(3)
        ev = np.array([0.25, 0.25, 0.5])
        vec = np.array([1e4 * np.linalg.qr(rng.normal(size=(3, 3))
                                           + 1j * rng.normal(size=(3, 3)))[0]
                        for _ in range(8)])
        got = witnesses._tie_break(np.tile(ev, (8, 1)), vec)
        want = np.array([tie_break_reference(ev, v) for v in vec])
        assert np.abs(got - want).max() < 1e-12

    def test_too_few_vectors_raise(self):
        # two copies of e_0 span one direction only: no zero column is left
        vec = np.array([[[1.0, 1.0], [0.0, 0.0]]], dtype=complex)
        with pytest.raises(ValueError, match="too few vectors"):
            witnesses._tie_break(np.array([[0.5, 0.5]]), vec)


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


def oracle_local_extrema(values, grid):
    """The grid-point loop that extrema_report replaced."""
    n = values.size
    reps = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(values[j + 1] - values[i]) <= PLATEAU_TOL:
            j += 1
        reps.append((i, j))
        i = j + 1
    out = []
    for k in range(1, len(reps) - 1):
        lo, hi = reps[k]
        prev = values[reps[k - 1][1]]
        here = values[lo]
        nxt = values[reps[k + 1][0]]
        mid_idx = (lo + hi) // 2
        if here > prev and here > nxt:
            out.append((float(grid[mid_idx]), "max"))
        elif here < prev and here < nxt:
            out.append((float(grid[mid_idx]), "min"))
    return out


def oracle_extrema_report(series):
    """(extrema, alignment, sudden_death) as the loops computed them."""
    grid = series.tau_grid
    ext = {name: oracle_local_extrema(getattr(series, name), grid)
           for name in ("hss", "chi", "negativity", "mid")}
    sd = _intervals_where(series.negativity < witnesses.EPS_NEGATIVITY, grid,
                          min_len=2)

    def nearest(target, cands):
        if not cands:
            return float("inf")
        return min(abs(target - t) for t, _ in cands)

    alignment = {}
    for t, kind in ext["hss"]:
        alignment[t] = {
            "kind": kind,
            "negativity_offset": nearest(t, ext["negativity"]),
            "mid_offset": nearest(t, ext["mid"]),
            "in_sudden_death": any(a <= t <= b for a, b in sd),
        }
    return ext, alignment, sd


def assert_report_matches_oracle(series):
    report = extrema_report(series)
    assert (report.extrema, report.alignment, report.sudden_death
            ) == oracle_extrema_report(series)
    for name, found in report.extrema.items():
        assert all(type(t) is float for t, _ in found)
    for t, info in report.alignment.items():
        assert type(t) is float
        assert type(info["negativity_offset"]) is float
        assert type(info["mid_offset"]) is float


def series_of(values, grid=None):
    """Four distinct series built from one: plateaus, sudden death, ends."""
    v = np.asarray(values, dtype=float)
    grid = np.arange(v.size, dtype=float) if grid is None else grid
    return WitnessSeries(tau_grid=grid, hss=v, chi=-v,
                         negativity=np.abs(v[::-1]), mid=np.roll(v, v.size // 2))


#: steps within and just beyond PLATEAU_TOL; a run of them drifts further
_STEPS = (-0.9e-12, -0.4e-12, 0.0, 0.2e-12, 0.6e-12, 1.0e-12, 1.1e-12, 2.5e-12)
_VALUES = st.floats(-1.0, 1.0) | st.floats(-3e-12, 3e-12) | st.just(0.0)


@st.composite
def plateau_series(draw):
    parts = draw(st.lists(st.one_of(
        # an exact plateau
        st.tuples(_VALUES, st.integers(1, 6)).map(lambda p: [p[0]] * p[1]),
        # sub-tolerance steps whose drift may exceed PLATEAU_TOL
        st.tuples(_VALUES, st.lists(st.sampled_from(_STEPS), min_size=1,
                                    max_size=16)).map(
            lambda p: list(p[0] + np.cumsum([0.0] + p[1]))),
        _VALUES.map(lambda v: [v])), min_size=1, max_size=10))
    values = np.concatenate(parts)
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=values.size,
                          max_size=values.size))
    return series_of(values, np.cumsum(steps))


class TestExtremaOracle:
    """extrema_report equals the grid-point loops it replaced, exactly."""

    @settings(max_examples=300, deadline=None)
    @given(series=plateau_series())
    def test_property(self, series):
        assert_report_matches_oracle(series)

    @pytest.mark.parametrize("values", [
        [0.4], [0.4, 0.1], [0.1, 0.4, 0.1], [0.4, 0.1, 0.4],
        [0.2] * 9, [0.0] * 5,
        [0.0, -0.9e-12, 0.2e-12],  # one run: each within 1e-12 of its first
        [1.0, 0.0, -0.9e-12, 0.2e-12, 1.0],
        [0.0, 0.6e-12, 1.2e-12, 1.8e-12, 2.4e-12, 0.0],  # drifts out of its run
        [0.3, 0.3, 0.3, 0.1, 0.5, 0.5], [0.5, 0.1, 0.2, 0.2, 0.2]])
    def test_cases(self, values):
        assert_report_matches_oracle(series_of(values))

    @pytest.mark.parametrize("name", FIGURES)
    def test_presets(self, name):
        assert_report_matches_oracle(preset_series(name))


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
