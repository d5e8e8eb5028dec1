import functools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsswitness import dynamics, witnesses
from hsswitness.cli import PRESETS, load_config

from hsswitness.decoherence import rtn_dn
from hsswitness.decoherence import OhmicSpectralDensity, ThermalBathParams
from hsswitness.dynamics import (KINDS, QUBIT_QUTRIT, Scenario, SpinLayout,
                                 bath_gamma, factor_matrix, initial_mixed,
                                 initial_pure, scenario, spin_groups)
from hsswitness.errors import (InvalidParams, NotDensityMatrix, NotHermitian,
                               UnsupportedScenario)
from hsswitness.hilbert import (DensityMatrix, checked_solve, entropy_bits,
                                reduced_matrix)
from hsswitness.validation import (chi_qudit_closed, evolve,
                                   golden_pure_composite,
                                   golden_pure_rtn_common,
                                   golden_pure_rtn_independent,
                                   golden_pure_squeezed, hss_finite_difference,
                                   mixed_coherence_factor, tie_break_reference)
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


def spin_pair_common_bath():
    """Spin 2 (x) spin 3/2 under one thermal bath on the total S_z."""
    bath = ThermalBathParams(OhmicSpectralDensity(1.0, 1.0, 20.0), temperature=2.0)
    return Scenario(SpinLayout((2, 1.5)), bath, ((1, 1),))


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
        scen = scenario("rtn_independent", q=0.1)
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
        series = compute_series(scenario("rtn_independent", q=10.0), grid)
        assert np.all(series.chi <= 1e-8)
        assert series.nonmarkov_intervals == ()

    def test_nonmarkov_regime_revivals(self):
        grid = np.linspace(0, 30, 300)
        series = compute_series(scenario("rtn_independent", q=0.1), grid)
        assert len(series.nonmarkov_intervals) >= 1


class TestSeries:
    @pytest.mark.parametrize("spin", [1.5, 2.5])
    def test_mixed_p_needs_qubit_qutrit(self, spin):
        # spin 2.5 has the mixed state's 6 levels but not its two subsystems
        with pytest.raises(UnsupportedScenario):
            compute_series(scenario("squeezed", spin=spin), np.linspace(0, 1, 16),
                           mixed_p=0.3)

    def test_stacked_witnesses_match_single_states(self, random_density_matrices):
        states = random_density_matrices + [initial_mixed(0.3), initial_mixed(0.0)]
        stack = DensityMatrix(np.array([r.matrix for r in states]), (2, 3))
        for f in (hss, negativity, mid):
            got = f(stack)
            assert got.shape == (len(states),)
            assert np.abs(got - [f(r) for r in states]).max() < 1e-12

    def test_tie_break_once_per_marginal_and_block(self, monkeypatch):
        # the mixed family's marginals are diagonal at every time, so their
        # eigenbases are read off with no tie-break; fig7's qubit marginal is
        # degenerate at 561 of its 600 points, each one different in its last
        # bits: one stacked Gram-Schmidt per marginal and block
        calls = []
        tie_break = witnesses._tie_break
        monkeypatch.setattr(witnesses, "_tie_break",
                            lambda ev, vec: calls.append(len(ev)) or tie_break(ev, vec))
        blocks = math.ceil(600 / (witnesses.BLOCK_ENTRIES // 36))
        compute_series(scenario("rtn_independent", q=0.1), np.linspace(0, 30, 600),
                       mixed_p=0.3)
        assert calls == []
        preset_series("fig7")
        assert 0 < len(calls) <= 2 * blocks
        assert sum(calls) >= 561

    @pytest.mark.parametrize(
        "mixed_p,phi,kind",
        [(p, phi, kind) for kind in ("rtn_independent", "rtn_common") for p, phi
         in [(None, np.pi), (0.3, np.pi), (None, np.pi / 3), (0.3, np.pi / 3)]],
        ids=[name + suffix for suffix in ("", "-rtn_common")
             for name in ("None", "0.3", "None-phi-pi/3", "0.3-phi-pi/3")])
    def test_one_eigensolve_per_marginal(self, monkeypatch, mixed_p, phi, kind):
        # one block.  Pure family: F / d is solved as MID reads its spectrum,
        # one real solve per spin group's factor of F (the (2, 2) and (3, 3)
        # ones of independent sources, the whole (6, 6) F of the common
        # source); at phi = pi the state is real, so its initial check, the
        # partial transposes and the dense marginals' eigh are real too, at
        # phi = pi / 3 complex.  Mixed family, real: F / d is solved only at
        # the uncertified tau = 0, the mixed state's own check and the partial
        # transposes are real solves, and the diagonal marginals need none
        solved = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, solve=solve:
                                solved.append((name, a.shape, a.dtype.kind))
                                or solve(a))
        compute_series(scenario(kind, q=0.1), np.linspace(0, 30, 100),
                       phi=phi, mixed_p=mixed_p)
        factors = [(6, 6)] if kind == "rtn_common" else [(2, 2), (3, 3)]
        kind = "f" if phi == np.pi else "c"
        initial = [("eigvalsh", (6, 6), kind)]
        if mixed_p is None:
            block = [("eigvalsh", (100, 6, 6), kind),
                     ("eigh", (100, 2, 2), kind), ("eigh", (100, 3, 3), kind)]
            block += [("eigvalsh", (100,) + f, "f") for f in factors]
        else:
            initial += [("eigvalsh", (6, 6), "f")]
            block = [("eigvalsh", (100, 6, 6), "f"), ("eigvalsh", (100, 6, 6), "f")]
            block += [("eigvalsh", (1,) + f, "f") for f in factors]
        assert sorted(solved) == sorted(initial + block)

    @pytest.mark.parametrize("mixed_p", [None, 0.3])
    @pytest.mark.parametrize("grid", [
        [0.0, 1.0, 1.0, 2.0], [2.0, 1.0], [[0.0, 1.0], [2.0, 3.0]], [0.5], [],
        [0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]],
        ids=["repeated", "decreasing", "2-d", "one-point", "empty", "nan",
             "inf", "minus-inf"])
    def test_bad_grid_rejected_before_the_first_block(self, monkeypatch, grid,
                                                     mixed_p):
        monkeypatch.setattr(witnesses, "factor_matrix",
                            lambda *args: pytest.fail("a block was evaluated"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParams, match="^tau grid must be a finite, "
                               "strictly increasing 1-D array of >= 2 points$"):
                compute_series(scenario("rtn_independent"), grid, mixed_p=mixed_p)

    def test_two_point_grid(self):
        series = compute_series(scenario("rtn_independent"), [0.0, 1.0], mixed_p=0.3)
        assert series.hss.shape == series.mid.shape == (2,)

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


class TestBlockSize:
    """A series does not depend on the block budget: one state per block, 128,
    the default 300, and more than the whole grid give equal series."""

    STATES = (1, 128, 300, 2_000)  # qubit-qutrit states per block

    def assert_equal_per_budget(self, monkeypatch, scen, grid, **kw):
        series = []
        for states in self.STATES:
            monkeypatch.setattr(witnesses, "BLOCK_ENTRIES", states * 36)
            series.append(compute_series(scen, grid, **kw))
        first, *rest = series
        for other in rest:
            for name in ("tau_grid", "hss", "chi", "negativity", "mid"):
                assert np.array_equal(getattr(first, name), getattr(other, name)), name
            assert first.nonmarkov_intervals == other.nonmarkov_intervals

    @pytest.mark.parametrize("name", FIGURES)
    def test_presets(self, monkeypatch, name):
        config = load_config(name, dict(PRESETS[name]))
        grid = np.linspace(0.0, config.tau_max, config.grid_points)
        self.assert_equal_per_budget(monkeypatch, config.scenario, grid,
                                     phi=config.phi, mixed_p=config.p)

    def test_spin_five_halves(self, monkeypatch):
        self.assert_equal_per_budget(monkeypatch, scenario("squeezed", spin=2.5),
                                     np.linspace(0.0, 3.0, 600))

    def test_spin_pair_under_a_common_bath(self, monkeypatch):
        # d = 20: a block of 1 state, 11, 27 or all 300
        self.assert_equal_per_budget(monkeypatch, spin_pair_common_bath(),
                                     np.linspace(0.0, 6.0, 300))

    @pytest.mark.parametrize("mixed_p", [None, 0.3])
    def test_uneven_last_block(self, monkeypatch, mixed_p):
        # 1,001 = 3 x 300 + 101 = 7 x 128 + 105
        self.assert_equal_per_budget(monkeypatch, scenario("rtn_independent", q=0.1),
                                     np.linspace(0.0, 30.0, 1001), mixed_p=mixed_p)

    @pytest.mark.parametrize("mixed_p", [None, 0.3])
    def test_seam_failure(self, monkeypatch, mixed_p):
        # q = 3 + 9e-7 is on the q = n seam of the common source: the same
        # first failing state and message at every budget
        for states in self.STATES:
            monkeypatch.setattr(witnesses, "BLOCK_ENTRIES", states * 36)
            with pytest.raises(NotDensityMatrix,
                               match=r"^minimum eigenvalue -1\.711e-09 < -1e-09$"):
                compute_series(scenario("rtn_common", q=3 + 9e-7),
                               np.linspace(0.0, 30.0, 600), mixed_p=mixed_p)


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
    g = bath_gamma(scen, grid) if scen.bath is not None else None
    d = {n: rtn_dn(n, scen.q, scen.nu_ratio * grid) for n in (1, 2, 3, 4)
         } if scen.q is not None else None
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


def outcome(f, *args):
    """What f(*args) returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


@st.composite
def damped_pure_blocks(draw):
    """A kind (or a spin-5/2 qudit under the squeezed bath), a telegraph rate
    slow, fast or within 1e-6 of the seam q = n, a phase and a block of tau."""
    kind = draw(st.sampled_from(sorted(KINDS) + ["spin"]))
    q = draw(st.one_of(st.floats(1e-3, 0.9), st.floats(5.0, 1e4),
                       st.builds(lambda n, dq: n + dq, st.integers(1, 4),
                                 st.floats(-9.99e-7, 9.99e-7))))
    phi = draw(st.floats(-2 * np.pi, 2 * np.pi))
    start, span = draw(st.floats(0.0, 30.0)), draw(st.floats(1e-3, 30.0))
    grid = np.linspace(start, start + span, draw(st.integers(1, 64)))
    if kind == "spin":
        return scenario("squeezed", spin=2.5), phi, grid
    return scenario(kind, **({"q": q} if "q" in KINDS[kind][0] else {})), phi, grid


class TestPureStackThroughFactors:
    """|psi_i|^2 = 1/d, so the pure stack pure0 * F is unitarily similar to the
    real F / d: checking F / d checks the state, and gives its spectrum."""

    @settings(max_examples=200, deadline=None)
    @given(damped_pure_blocks())
    @example((scenario("rtn_common", q=3 + 9e-7), np.pi, np.linspace(0.0, 30.0, 600)))
    def test_property(self, case):
        scen, phi, grid = case
        pure0 = initial_pure(scen.layout, phi)
        F = factor_matrix(scen, grid)[0]
        got = outcome(checked_solve, F / pure0.dim, np.linalg.eigvalsh)
        want = outcome(lambda: DensityMatrix(pure0.matrix * F, pure0.dims).spectrum)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and np.abs(got - want).max() <= 1e-14

    def test_seam_failure(self):
        F, _ = factor_matrix(scenario("rtn_common", q=3 + 9e-7),
                             np.linspace(0, 30, 600))
        with pytest.raises(NotDensityMatrix, match=r"^minimum eigenvalue -1\.711e-09"):
            checked_solve(F / 6, np.linalg.eigvalsh)


def group_solver(scen):
    """compute_series' solver of F / d for ``scen``: one eigvalsh per spin group."""
    return functools.partial(witnesses._group_eigvalsh, scen)


@st.composite
def grouped_blocks(draw):
    """A kind with a telegraph rate slow, fast or within 1e-6 of the seam q = n,
    or a spin pair up to 5/2 (x) 5/2 under a thermal or squeezed bath and
    telegraph noise, each coupled to the spins apart or joined; and a block of
    tau that starts at tau = 0 or later."""
    q = draw(st.one_of(st.floats(1e-3, 0.9), st.floats(5.0, 1e4),
                       st.builds(lambda n, dq: n + dq, st.integers(1, 4),
                                 st.floats(-9.99e-7, 9.99e-7))))
    start = draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0)))
    grid = np.linspace(start, start + draw(st.floats(1e-3, 30.0)),
                       draw(st.integers(1, 64)))
    kind = draw(st.sampled_from(sorted(KINDS) + ["pair"]))
    if kind != "pair":
        return scenario(kind, **({"q": q} if "q" in KINDS[kind][0] else {})), grid
    spins = tuple(draw(st.integers(1, 5)) / 2 for _ in range(2))
    entry = st.integers(-2, 2)

    def couplings():  # apart (one spin each) or joined (both, nonzero)
        apart = st.tuples(st.tuples(entry, st.just(0)), st.tuples(st.just(0), entry))
        joined = st.lists(st.tuples(entry.filter(bool), entry.filter(bool)),
                          min_size=1, max_size=2).map(tuple)
        return draw(st.one_of(st.just(()), apart, joined))

    bath_c, rtn_c = couplings(), couplings()
    if not (bath_c or rtn_c):
        bath_c = ((1, 0), (0, 1))
    bath = draw(st.one_of(st.builds(lambda r: scenario("squeezed", r=r).bath,
                                    st.floats(0.0, 1.0)),
                          st.builds(lambda t: scenario("thermal", temperature=t).bath,
                                    st.floats(0.0, 3.0))))
    nu_ratio = draw(st.sampled_from([1.0, 10.0]))
    return Scenario(SpinLayout(spins), bath if bath_c else None, bath_c,
                    q if rtn_c else None, rtn_c, nu_ratio), grid


class TestGroupSolve:
    """compute_series solves F / d one spin group at a time: the outer product
    of its factors' spectra equals the dense eigvalsh to 1e-14, is eigvalsh itself
    for one group, and fails where and as the dense solve does."""

    @settings(max_examples=300, deadline=None)
    @given(grouped_blocks())
    @example((scenario("rtn_common", q=3 + 9e-7), np.linspace(0.0, 30.0, 600)))
    @example((scenario("rtn_independent", q=2 + 9e-7), np.linspace(0.0, 30.0, 600)))
    @example((scenario("rtn_common"), np.linspace(0.0, 30.0, 600)))
    def test_property(self, case):
        scen, grid = case
        F = factor_matrix(scen, grid)[0] / scen.layout.dim
        got = outcome(checked_solve, F, group_solver(scen))
        want = outcome(checked_solve, F, np.linalg.eigvalsh)
        if isinstance(want, tuple):
            assert got == want
        elif len(spin_groups(scen)) == 1:
            assert np.array_equal(got, want)
        else:
            assert isinstance(got, np.ndarray) and np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("kind", ["squeezed", "thermal", "composite"])
    @pytest.mark.parametrize("gamma", [-1e-3, -0.5, np.nan, np.inf])
    def test_bad_gamma(self, monkeypatch, kind, gamma):
        # negative, nan or infinite Gamma on split spins: the factored solve
        # raises the dense solve's type and message, through compute_series too
        scen, grid = scenario(kind), np.linspace(0.0, 1.0, 8)
        monkeypatch.setattr(dynamics, "bath_gamma",
                            lambda scen, t: np.where(t > 0.5, gamma, 0.1))
        with np.errstate(invalid="ignore"):  # inf * 0
            F = factor_matrix(scen, grid)[0] / 6
            want = outcome(checked_solve, F, np.linalg.eigvalsh)
            assert isinstance(want, tuple)
            assert outcome(checked_solve, F, group_solver(scen)) == want
            assert outcome(compute_series, scen, grid) == want


@st.composite
def certificate_blocks(draw):
    """A kind (or a squeezed or thermal qudit of spin <= 5), a telegraph rate
    slow, fast or within 1e-6 of the seam q = n, and a block of tau that starts
    at tau = 0 or later."""
    kind = draw(st.sampled_from(sorted(KINDS) + ["spin"]))
    q = draw(st.one_of(st.floats(1e-3, 0.9), st.floats(5.0, 1e4),
                       st.builds(lambda n, dq: n + dq, st.integers(1, 4),
                                 st.floats(-9.99e-7, 9.99e-7))))
    start = draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0)))
    grid = np.linspace(start, start + draw(st.floats(1e-3, 30.0)),
                       draw(st.integers(1, 64)))
    if kind == "spin":
        bath = draw(st.sampled_from(["squeezed", "thermal"]))
        return scenario(bath, spin=draw(st.integers(1, 10)) / 2), grid
    return scenario(kind, **({"q": q} if "q" in KINDS[kind][0] else {})), grid


class TestCertificate:
    """F is certified PSD from its own factors: Gamma >= 0 and the telegraph
    Toeplitz matrix [D_|j-k|] factored with positive pivots.  checked_solve of
    F / d stays the oracle: every certified state passes it, with its lowest
    eigenvalue within 1e-14 of 0."""

    @settings(max_examples=300, deadline=None)
    @given(certificate_blocks())
    @example((scenario("rtn_common", q=3 + 9e-7), np.linspace(0.0, 30.0, 600)))
    def test_property(self, case):
        scen, grid = case
        F, certified = factor_matrix(scen, grid)
        assert certified.shape == grid.shape
        if certified.any():
            ev = checked_solve(F[certified] / scen.layout.dim, np.linalg.eigvalsh)
            assert ev[:, 0].min() >= -1e-14

    def test_seam_failure_is_refused(self):
        # the seam state that fails the check is left to it, with its message
        F, certified = factor_matrix(scenario("rtn_common", q=3 + 9e-7),
                                     np.linspace(0, 30, 600))
        with pytest.raises(NotDensityMatrix, match=r"^minimum eigenvalue -1\.711e-09"):
            checked_solve(F[~certified] / 6, np.linalg.eigvalsh)

    @pytest.mark.parametrize("kind", ["rtn_independent", "rtn_common", "composite"])
    def test_tau_zero_is_refused(self, kind):
        # at tau = 0 every D_n is 1: T is the rank-one all-ones matrix
        _, certified = factor_matrix(scenario(kind), np.linspace(0, 3, 50))
        assert not certified[0] and certified[1:].all()

    @pytest.mark.parametrize("gamma,exc", [(-1e-3, NotDensityMatrix),
                                           (np.nan, ValueError), (np.inf, ValueError)])
    def test_bad_gamma_is_refused(self, monkeypatch, gamma, exc):
        # exp(+1e-3 (n - m)^2) is no PSD kernel, and a nan or infinite Gamma
        # leaves nan in F (inf * 0 on the diagonal): a single spin's series
        # solves those states, and their check raises as before
        monkeypatch.setattr(dynamics, "bath_gamma",
                            lambda scen, t: np.full(t.shape, gamma))
        scen = scenario("thermal", spin=2)
        with np.errstate(invalid="ignore"):  # inf * 0
            assert not factor_matrix(scen, np.linspace(0, 1, 8))[1].any()
            with pytest.raises(exc):
                compute_series(scen, np.linspace(0, 1, 8))

    def test_scalar_tau(self):
        F, certified = factor_matrix(scenario("composite"), 0.5)
        assert F.shape == (6, 6) and certified.shape == () and certified

    def test_spin_fifty_solves_no_state(self, monkeypatch):
        # every state of a single spin is certified by Gamma >= 0, so the only
        # 101 x 101 solve is initial_pure's check; HSS is
        # sqrt(sum_k e^{-2 k^2 Gamma}) / d
        solved = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, solve=solve:
                                solved.append((name, a.shape)) or solve(a))
        scen, grid = scenario("squeezed", spin=50), np.linspace(0.0, 3.0, 600)
        series = compute_series(scen, grid)
        assert solved == [("eigvalsh", (101, 101))]
        k2 = np.arange(1, 101) ** 2
        want = np.sqrt(np.exp(-2 * np.multiply.outer(bath_gamma(scen, grid), k2))
                       .sum(-1)) / 101
        assert np.abs(series.hss - want).max() <= 1e-15


def dense_series(scen, grid, phi, p, pure0=None):
    """HSS, negativity, MID and the entropy S(rho) that MID subtracts, from
    ``validation.evolve`` and the witnesses of checked DensityMatrix stacks, in
    compute_series' blocks: the dense route, from ``pure0`` if given."""
    pure0 = initial_pure(scen.layout, phi) if pure0 is None else pure0
    step = max(1, witnesses.BLOCK_ENTRIES // pure0.dim**2)
    out = np.zeros((4, grid.size))
    for start in range(0, grid.size, step):
        block = slice(start, start + step)
        pure = evolve(scen, pure0, grid[block])
        out[0, block] = hss(pure)
        if len(pure0.dims) == 2:
            state = pure if p is None else evolve(scen, initial_mixed(p), grid[block])
            out[1:, block] = (negativity(state), np.maximum(mid(state), 0),
                              entropy_bits(state.spectrum))
    return out


@st.composite
def series_cases(draw):
    """A kind with a telegraph rate slow, fast or within 1e-6 of the seam q = n
    (or a spin <= 5 qudit under a bath), a phase, a mixed-family p, a block
    budget in qubit-qutrit states and a grid of up to 300 points."""
    kind = draw(st.sampled_from(sorted(KINDS) + ["spin"]))
    q = draw(st.one_of(st.floats(1e-3, 0.9), st.floats(5.0, 1e4),
                       st.builds(lambda n, dq: n + dq, st.integers(1, 4),
                                 st.floats(-9.99e-7, 9.99e-7))))
    start, span = draw(st.floats(0.0, 30.0)), draw(st.floats(1e-3, 30.0))
    case = {"phi": draw(st.floats(-2 * np.pi, 2 * np.pi)),
            "p": draw(st.sampled_from([None, 0.0, 0.2, 1 / 3, 0.5])),
            "states": draw(st.sampled_from([1, 128, 300])),
            "grid": np.linspace(start, start + span, draw(st.integers(2, 300)))}
    if kind == "spin":
        bath = draw(st.sampled_from(["squeezed", "thermal"]))
        spin = draw(st.integers(1, 10)) / 2
        return dict(case, scen=scenario(bath, spin=spin), p=None)
    params = {"q": q} if "q" in KINDS[kind][0] else {}
    return dict(case, scen=scenario(kind, **params))


SEAM_CASE = {"scen": scenario("rtn_common", q=3 + 9e-7), "phi": np.pi,
             "grid": np.linspace(0.0, 30.0, 600)}


class TestSeriesAgainstDenseRoute:
    """compute_series reads each block as (rho0, F) and checks it by one solve per
    family; the dense route multiplies the states out and checks each as a
    DensityMatrix.  HSS and negativity agree bit for bit, or both raise the same
    exception and message at the same first grid point.  MID = S(Pi(rho)) - S(rho)
    agrees to 1e-14 but for S(rho): the pure family's spectrum comes from F / d,
    solved per spin group, equal to the dense one to 1e-14, and -x log2 x, steep
    near x = 0, takes that rounding to about 1e-14 per eigenvalue (2.1e-14 in
    all, near tau = 0)."""

    @settings(max_examples=100, deadline=None)
    @given(series_cases())
    @example(dict(SEAM_CASE, p=None, states=1))
    @example(dict(SEAM_CASE, p=0.3, states=300))
    def test_property(self, case):
        scen, grid, phi, p = case["scen"], case["grid"], case["phi"], case["p"]
        with mock.patch.object(witnesses, "BLOCK_ENTRIES", case["states"] * 36):
            got = outcome(compute_series, scen, grid, phi, p)
            want = outcome(dense_series, scen, grid, phi, p)
            if isinstance(want, tuple):
                assert got == want
                if case["states"] == 1:  # one point per block: pin that point
                    first = next(i for i in range(grid.size) if isinstance(
                        outcome(dense_series, scen, grid[i:i + 1], phi, p), tuple))
                    if first >= 1:
                        assert outcome(compute_series, scen, grid[:first + 1],
                                       phi, p) == want
                    if first >= 2:
                        assert not isinstance(outcome(compute_series, scen,
                                                      grid[:first], phi, p), tuple)
                return
        assert isinstance(got, WitnessSeries), got
        assert np.array_equal(got.hss, want[0])
        assert np.array_equal(got.negativity, want[1])
        entropy_moved = 0.0
        if p is None and len(scen.layout.dims) == 2:
            ev = checked_solve(factor_matrix(scen, grid)[0] / 6, group_solver(scen))
            dense_ev = evolve(scen, initial_pure(scen.layout, phi), grid).spectrum
            assert np.abs(ev - dense_ev).max() <= 1e-14
            entropy_moved = np.abs(entropy_bits(ev) - want[3])
        assert (np.abs(got.mid - want[2]) <= 1e-14 + entropy_moved).all()

    @pytest.mark.parametrize("p", [None, 0.3])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_default_phase_against_the_complex_state(self, kind, p):
        # at phi = pi, e^{i pi} is held as -1 and the series runs real; it
        # agrees to 1e-14 with the dense route from the complex state that
        # np.exp(1j * np.pi) gives
        amps = np.ones(6, dtype=complex) / np.sqrt(6)
        amps[0] *= np.exp(1j * np.pi)
        pure0 = DensityMatrix(np.outer(amps, amps.conj()), (2, 3))
        assert pure0.matrix.dtype == np.complex128
        scen, grid = scenario(kind), np.linspace(0.0, 30.0, 600)
        got = compute_series(scen, grid, np.pi, p)
        want = dense_series(scen, grid, np.pi, p, pure0)
        for a, b in zip((got.hss, got.negativity, got.mid), want):
            assert np.abs(a - b).max() <= 1e-14


def eigh_eigenbases(rho, keep):
    """The marginal's eigenbases from eigh + _tie_break, diagonal or not."""
    ev, vec = checked_solve(reduced_matrix(rho, keep), np.linalg.eigh)
    degenerate = (np.diff(ev) < DEGENERACY_GAP).any(-1)
    if degenerate.any():
        vec[degenerate] = witnesses._tie_break(ev[degenerate], vec[degenerate])
    return vec


ULP_HALF = np.nextafter(0.5, 1.0)  # 0.5 + 1 ulp


class TestDiagonalMarginals:
    """A diagonal marginal stack (the mixed family's) is read off its diagonal,
    with no eigh and no tie-break, bit for bit as eigh + _tie_break give it."""

    @staticmethod
    def mid_and_pi(monkeypatch, rho):
        """MID of rho and the Pi(rho) diagonal it reads."""
        seen = []
        with monkeypatch.context() as m:
            entropy = witnesses.entropy_bits
            m.setattr(witnesses, "entropy_bits",
                      lambda ev: seen.append(ev) or entropy(ev))
            return mid(rho), seen[0]

    def assert_bit_for_bit(self, monkeypatch, rho):
        for keep in (0, 1):
            marginal = reduced_matrix(rho, keep)
            assert not marginal[..., ~np.eye(marginal.shape[-1], dtype=bool)].any()
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", None)
            m.setattr(witnesses, "_tie_break", None)
            got = self.mid_and_pi(monkeypatch, rho)
        with monkeypatch.context() as m:
            m.setattr(witnesses, "_eigenbases", eigh_eigenbases)
            want = self.mid_and_pi(monkeypatch, rho)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_mixed_family(self, monkeypatch, kind, p):
        grid = np.linspace(0.0, 30.0 if kind.startswith("rtn") else 3.0, 300)
        self.assert_bit_for_bit(monkeypatch, evolve(scenario(kind), initial_mixed(p), grid))

    def test_near_tie_state(self, monkeypatch):
        # marginal A is diag(0.5 + 1 ulp, 0.5), B diag(1 + 1 ulp, 0, 0)
        rho = np.diag([ULP_HALF, 0, 0, 0.5, 0, 0]).astype(complex)
        self.assert_bit_for_bit(monkeypatch, DensityMatrix(rho, (2, 3)))

    @pytest.mark.parametrize("diagonal", [
        (ULP_HALF, 0.5), (0.5, ULP_HALF), (0.5, 0.5), (0.3, 0.7), (0.7, 0.3),
        (0.4, 0.3 + 0.999e-9, 0.3), (0.4, 0.3 + 1.001e-9, 0.3),
        (0.2 + 1.2e-9, 0.4, 0.2, 0.2 + 0.6e-9), (0.25, 0.25, 0.25, 0.25),
        (0.1, 0.3, 0.1, 0.3, 0.2)])
    def test_near_ties(self, diagonal):
        # every permutation of each diagonal, stacked
        rng = np.random.default_rng(len(diagonal))
        h = np.zeros((64, len(diagonal), len(diagonal)), complex)
        h[:, np.arange(len(diagonal)), np.arange(len(diagonal))] = [
            rng.permutation(diagonal) for _ in range(64)]
        ev, vec = np.linalg.eigh(h)
        degenerate = (np.diff(ev) < DEGENERACY_GAP).any(-1)
        if degenerate.any():
            vec[degenerate] = witnesses._tie_break(ev[degenerate], vec[degenerate])
        got_ev, got_vec = witnesses._diagonal_eigh(h)
        assert np.array_equal(got_ev, ev) and np.array_equal(got_vec, vec)
        assert got_vec.dtype == vec.dtype

    @pytest.mark.parametrize("flaw,exc", [
        ((-2e-9, 0.5, 0.5 + 2e-9), NotDensityMatrix),
        ((0.5, 0.5 + 2e-10, 0.0), NotDensityMatrix),
        ((np.nan, 0.5, 0.5), ValueError),
        ((0.5 + 2e-10j, 0.5, 0.0), NotHermitian)])
    def test_checks_match_eigh(self, flaw, exc):
        # the same exception and message for the first failing state
        good = np.diag([0.2, 0.3, 0.5]).astype(complex)
        bad = np.diag(flaw).astype(complex)
        for stack, fails in ((bad, True), ([good, bad], True), ([bad, good], True),
                             ([good, good], False)):
            stack = np.array(stack)
            got = outcome(checked_solve, stack, witnesses._diagonal_eigh)
            want = outcome(checked_solve, stack, np.linalg.eigh)
            assert isinstance(want[0], type) is fails
            if fails:
                assert got[0] is want[0] is exc and got[1] == want[1]
            else:
                assert all(np.array_equal(a, b) for a, b in zip(got, want))


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
        scen = spin_pair_common_bath()
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

    def test_real_stack_stays_real(self):
        # a real marginal stack (the mixed family's, or the pure one's at
        # phi = 0) is tie-broken in float64, with the complex stack's basis
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.normal(size=(16, 3, 3)))[0]
        m = q @ np.diag([0.3, 0.3, 0.4]) @ q.swapaxes(-1, -2)
        got = self.degenerate_agree(m)
        assert got.dtype == np.float64
        ev, vec = np.linalg.eigh(m.astype(complex))
        assert np.abs(got - witnesses._tie_break(ev, vec)).max() < 1e-12
        diagonal = np.diag([0.3, 0.3, 0.4])[None]
        assert witnesses._diagonal_eigh(diagonal)[1].dtype == np.float64

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
        series = compute_series(scenario("rtn_independent", q=0.1), grid)
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
        series = compute_series(scenario("rtn_independent", q=10.0), grid)
        assert np.all(np.diff(series.hss) <= 1e-8)

        scen = Scenario(QUBIT_QUTRIT, ThermalBathParams(
            OhmicSpectralDensity(0.1, 1.0, 20.0), temperature=1.0), ((1, 0), (0, 1)))
        tgrid = np.linspace(0, 3, 100)
        hvals = [hss(evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), t))
                 for t in tgrid]
        assert np.all(np.diff(hvals) <= 1e-8)
