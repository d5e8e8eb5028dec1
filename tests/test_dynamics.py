import functools
import math
import warnings

import numpy as np
import pytest

from hsswitness import dynamics
from hsswitness.decoherence import gamma_squeezed, rtn_dn
from hsswitness.dynamics import (QUBIT_QUTRIT, Scenario, SpinLayout,
                                 bath_gamma, factor_matrix, initial_mixed,
                                 initial_pure, scenario, spin_groups)
from hsswitness.errors import InvalidP, InvalidParams, UnsupportedScenario
from hsswitness.witnesses import BLOCK_ENTRIES, compute_series
from hsswitness.validation import (evolve, golden_mixed, golden_mixed_common,
                                   golden_pure_composite,
                                   golden_pure_rtn_common,
                                   golden_pure_rtn_independent,
                                   golden_pure_squeezed,
                                   mixed_coherence_factor)

#: the squeezed bath at the figure parameters
FIGURE_BATH = scenario("squeezed").bath


def first_ket_mask(d):
    """Winding of each entry under the phase on the first basis ket."""
    mask = np.zeros((d, d))
    mask[0, 1:] = 1
    mask[1:, 0] = -1
    return mask


class TestLayout:
    def test_dims(self):
        assert QUBIT_QUTRIT.dims == (2, 3)
        assert SpinLayout((1.5,)).dims == (4,)

    def test_z_labels(self):
        # the coupling tables read Delta = z_n - z_m per spin, with the z
        # labels [s, s-1, ..., -s] of each spin in tensor-product order
        zq, zt = np.repeat([0.5, -0.5], 3), np.tile([1, 0, -1], 2)
        W, K = dynamics._coupling_tables(QUBIT_QUTRIT, ((1, 0),), ((0, 1),))
        assert np.array_equal(W, (zq[:, None] - zq[None, :]) ** 2)
        assert np.array_equal(K[0], np.abs(zt[:, None] - zt[None, :]))

    def test_rejects_non_half_integer(self):
        with pytest.raises(InvalidParams):
            SpinLayout((0.3,))

    def test_dims_stored_but_identity_on_spins(self):
        # dims and dim are attributes fixed at construction; equality, hash
        # and repr read the spins alone
        layout = SpinLayout((0.5, 1))
        assert vars(layout) == {"spins": QUBIT_QUTRIT.spins, "dims": (2, 3), "dim": 6}
        assert type(layout.dim) is int
        assert layout == QUBIT_QUTRIT and hash(layout) == hash(QUBIT_QUTRIT)
        assert repr(layout) == "SpinLayout(spins=(Fraction(1, 2), Fraction(1, 1)))"
        assert SpinLayout((2.5, 2.5)).dim == 36 and SpinLayout((50,)).dims == (101,)


class TestSpinGroups:
    """Two spins share a group when some coupling vector is nonzero on both."""

    @pytest.mark.parametrize("kind,groups", [
        ("squeezed", ((0,), (1,))), ("thermal", ((0,), (1,))),
        ("rtn_independent", ((0,), (1,))), ("rtn_common", ((0, 1),)),
        ("composite", ((0,), (1,)))])
    def test_kinds(self, kind, groups):
        assert spin_groups(scenario(kind)) == groups

    @pytest.mark.parametrize("kind", ["squeezed", "thermal"])
    def test_single_spin(self, kind):
        assert spin_groups(scenario(kind, spin=2)) == ((0,),)

    @pytest.mark.parametrize("bath_c,rtn_c,groups", [
        (((1, 0),), ((0, 0),), ((0,), (1,))),  # a zero vector joins nothing
        (((1, 0),), (), ((0,), (1,))),  # an uncoupled spin is its own group
        (((2, 0), (0, -1)), ((1, 0),), ((0,), (1,))),
        (((1, 0),), ((1, -3),), ((0, 1),)),
        (((0, 1), (2, 2)), (), ((0, 1),))])
    def test_couplings(self, bath_c, rtn_c, groups):
        scen = Scenario(SpinLayout((1.5, 1)), FIGURE_BATH, bath_c,
                        0.3 if rtn_c else None, rtn_c)
        assert spin_groups(scen) == groups

    def test_split_factor_is_a_kronecker_product(self):
        # a group's factor is F where the other spin's digit is 0 (F_ii = 1);
        # F multiplies their exponentials and D_n in another order, so the
        # product agrees to rounding
        scen = Scenario(SpinLayout((1.5, 1)), FIGURE_BATH, ((2, 0), (0, 1)),
                        0.3, ((1, 0), (0, 3)))
        F = factor_matrix(scen, np.linspace(0.0, 3.0, 7))[0]
        kron = F[:, ::3, ::3, None, None] * F[:, None, None, :3, :3]
        assert np.abs(F - kron.swapaxes(2, 3).reshape(F.shape)).max() <= 1e-15


class TestInitialStates:
    def test_pure_phi_zero_uniform(self):
        rho = initial_pure(SpinLayout((0.5,)), 0.0)
        assert np.allclose(rho.matrix, np.full((2, 2), 0.5))

    def test_pure_phi_pi_negates_first_row(self):
        m = initial_pure(QUBIT_QUTRIT, np.pi).matrix
        assert np.allclose(m[0, 1:], -1 / 6, atol=1e-12)
        assert np.allclose(m[1:, 1:], 1 / 6, atol=1e-12)
        assert abs(m.trace() - 1.0) < 1e-12

    @pytest.mark.parametrize("layout", [QUBIT_QUTRIT, SpinLayout((2.5,))])
    @pytest.mark.parametrize("phi,sign", [(0.0, 1), (np.pi, -1), (-np.pi, -1),
                                          (2 * np.pi, 1), (7 * np.pi, -1)])
    def test_phase_real_to_rounding_is_held_real(self, layout, phi, sign):
        # |Im e^{i phi}| <= 4 eps: the phase is exactly +-1, so amps[0] is
        # exactly +-1/sqrt(d) and the state is float64
        amps = np.full(layout.dim, 1.0 / np.sqrt(layout.dim))
        amps[0] *= sign
        m = initial_pure(layout, phi).matrix
        assert m.dtype == np.float64
        assert np.array_equal(m, np.outer(amps, amps))

    @pytest.mark.parametrize("phi", [8 * np.pi, np.pi / 3, 1e-9, 1e17, 1e300])
    def test_other_phases_are_unchanged(self, phi):
        # the bound does not grow with |phi|: these keep np.exp(1j * phi) as
        # it comes, bit for bit, and stay complex
        amps = np.ones(6, dtype=complex) / np.sqrt(6)
        amps[0] *= np.exp(1j * phi)
        m = initial_pure(QUBIT_QUTRIT, phi).matrix
        assert m.dtype == np.complex128
        assert np.array_equal(m, np.outer(amps, amps.conj()))

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, phi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParams, match="^phase phi must be finite"):
                initial_pure(QUBIT_QUTRIT, phi)
            with pytest.raises(InvalidParams, match="^phase phi must be finite"):
                compute_series(scenario("rtn_independent"), np.linspace(0, 1, 8),
                               phi=phi)

    def test_pure_mask_structure(self):
        # phi winds entry (0, j) by +1, entry (j, 0) by -1 and no other entry
        ratio = (initial_pure(QUBIT_QUTRIT, 0.3).matrix
                 / initial_pure(QUBIT_QUTRIT, 0.0).matrix)
        assert np.allclose(ratio, np.exp(0.3j * first_ket_mask(6)), atol=1e-12)

    def test_mixed_p0_is_pure_bell_like(self):
        assert abs(initial_mixed(0.0).spectrum[-1] - 1.0) < 1e-12

    def test_mixed_p_third_separable_at_t0(self):
        from hsswitness.witnesses import negativity
        assert negativity(initial_mixed(1 / 3)) < 1e-12

    def test_mixed_p04_spectrum(self):
        ev = initial_mixed(0.4).spectrum
        assert abs(ev.sum() - 1.0) < 1e-12
        assert ev[0] >= -1e-12
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
        scen = scenario("squeezed", spin=1.5)
        rho = initial_pure(scen.layout, 0.7)
        assert bath_gamma(scen, 0.0) == 0.0
        out = evolve(scen, rho, 0.0)
        assert np.allclose(out.matrix, rho.matrix)

    def test_spin_half_factor(self):
        scen, tau = scenario("squeezed", spin=0.5), 0.8
        g = bath_gamma(scen, tau)
        assert g > 0.01
        out = evolve(scen, initial_pure(scen.layout, 0.0), tau)
        assert abs(out.matrix[0, 1] - 0.5 * np.exp(-g)) < 1e-14

    def test_extreme_element_exponent(self):
        # (n - m) = 3 coherence of a spin-3/2 damps as e^{-9 gamma}
        scen, tau = scenario("squeezed", spin=1.5), 0.8
        g = bath_gamma(scen, tau)
        out = evolve(scen, initial_pure(scen.layout, 0.0), tau)
        assert abs(out.matrix[0, 3] - 0.25 * np.exp(-9 * g)) < 1e-14


class TestElementFactor:
    """Entries of factor_matrix; ket |ab> has index 3a + b."""

    def test_diagonal_is_one(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            assert np.diag(factor_matrix(scen, 1.3)[0]) == pytest.approx(np.ones(6))

    def test_common_rtn_decoherence_free_pair(self):
        scen = scenario("rtn_common", q=0.1)
        # |02><10|: qubit winding +2, qutrit winding -2 cancel exactly
        assert factor_matrix(scen, 5.0)[0][2, 3] == pytest.approx(1.0)

    def test_independent_rtn_mixed_element(self):
        scen = scenario("rtn_independent", q=0.1)
        tau = 2.5
        # |00><11|: qubit sees D_2, qutrit sees D_1
        got = factor_matrix(scen, tau)[0][0, 4]
        assert abs(got - rtn_dn(2, 0.1, tau) * rtn_dn(1, 0.1, tau)) < 1e-14


class TestBathGammaOncePerState:
    """The bath exponent is evaluated once per state or per block of the grid."""

    @staticmethod
    def count_gamma_calls(monkeypatch):
        calls = []

        def counted(t, params):
            calls.append(t)
            return gamma_squeezed(t, params)

        monkeypatch.setattr(dynamics, "gamma_squeezed", counted)
        return calls

    @pytest.mark.parametrize("make", [lambda: scenario("squeezed"),
                                      lambda: scenario("composite", q=0.1),
                                      lambda: scenario("squeezed", spin=1.5)],
                             ids=["squeezed", "composite", "spin-3/2"])
    def test_one_call_per_evolve(self, monkeypatch, make):
        scen = make()
        calls = self.count_gamma_calls(monkeypatch)
        for k, tau in enumerate((0.4, 0.4, 1.1), start=1):
            evolve(scen, initial_pure(scen.layout, 0.3), tau)
            assert len(calls) == k

    @pytest.mark.parametrize("make,p", [
        (lambda: scenario("squeezed"), None), (lambda: scenario("squeezed"), 0.3),
        (lambda: scenario("composite", q=0.1), None),
        (lambda: scenario("composite", q=0.1), 0.3),
        (lambda: scenario("squeezed", spin=1.5), None)],
        ids=["squeezed-pure", "squeezed-mixed", "composite-pure",
             "composite-mixed", "spin-3/2-pure"])
    def test_one_call_per_block(self, monkeypatch, make, p):
        scen = make()
        calls = self.count_gamma_calls(monkeypatch)
        compute_series(scen, np.linspace(0.0, 3.0, 600), mixed_p=p)
        block = BLOCK_ENTRIES // scen.layout.dim**2
        assert len(calls) <= math.ceil(600 / block)
        assert sum(np.size(t) for t in calls) == 600


class TestGoldenTables:
    """evolve() must reproduce the reference matrices entrywise to 1e-12."""

    PHI = 0.77

    def test_pure_squeezed(self):
        scen = scenario("squeezed")
        for tau in (0.1, 0.5, 1.7):
            g = bath_gamma(scen, tau)
            got = evolve(scen, initial_pure(QUBIT_QUTRIT, self.PHI), tau)
            assert np.abs(got.matrix
                          - golden_pure_squeezed(g, self.PHI)).max() < 1e-12

    def test_pure_rtn_independent(self):
        scen = scenario("rtn_independent", q=0.1)
        for tau in (0.5, 4.0, 15.0):
            d1, d2 = rtn_dn(1, 0.1, tau), rtn_dn(2, 0.1, tau)
            got = evolve(scen, initial_pure(QUBIT_QUTRIT, self.PHI), tau)
            assert np.abs(got.matrix
                          - golden_pure_rtn_independent(d1, d2, self.PHI)).max() < 1e-12

    def test_pure_rtn_common(self):
        scen = scenario("rtn_common", q=0.1)
        for tau in (0.5, 4.0, 15.0):
            d = [rtn_dn(n, 0.1, tau) for n in (1, 2, 3, 4)]
            got = evolve(scen, initial_pure(QUBIT_QUTRIT, self.PHI), tau)
            assert np.abs(got.matrix
                          - golden_pure_rtn_common(*d, self.PHI)).max() < 1e-12

    def test_pure_composite(self):
        scen = scenario("composite", q=0.1)
        for tau in (0.1, 0.8, 2.0):
            g = bath_gamma(scen, tau)
            d2 = rtn_dn(2, 0.1, 100.0 * tau)
            got = evolve(scen, initial_pure(QUBIT_QUTRIT, self.PHI), tau)
            assert np.abs(got.matrix
                          - golden_pure_composite(d2, g, self.PHI)).max() < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.4])
    def test_mixed_all_scenarios(self, p, all_qubit_qutrit_scenarios):
        tau = 1.5
        g = bath_gamma(scenario("squeezed"), tau)
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
            mixed_coherence_factor(scenario("squeezed", spin=2.5), 1.0)


class TestEvolutionProperties:
    def test_t0_identity(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            rho0 = initial_pure(QUBIT_QUTRIT, 0.4)
            out = evolve(scen, rho0, 0.0)
            assert np.allclose(out.matrix, rho0.matrix, atol=1e-14)

    def test_diagonal_preserved(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            out = evolve(scen, initial_mixed(0.3), 2.0)
            assert np.allclose(np.diag(out.matrix),
                               np.diag(initial_mixed(0.3).matrix), atol=1e-14)

    def test_positivity_on_grid(self, all_qubit_qutrit_scenarios):
        for scen in all_qubit_qutrit_scenarios.values():
            for tau in np.linspace(0, 3, 12):
                rho = evolve(scen, initial_pure(QUBIT_QUTRIT, np.pi), tau)
                # DensityMatrix construction enforces min eigenvalue >= -1e-9
                assert rho.spectrum[0] >= -1e-9

    def test_phi_covariance(self, all_qubit_qutrit_scenarios):
        # evolving then shifting phi equals shifting then evolving
        for scen in all_qubit_qutrit_scenarios.values():
            tau, phi0, phi1 = 1.2, 0.3, 2.1
            shifted_then_evolved = evolve(
                scen, initial_pure(QUBIT_QUTRIT, phi1), tau).matrix
            evolved_then_shifted = evolve(
                scen, initial_pure(QUBIT_QUTRIT, phi0), tau).matrix * np.exp(
                    1j * first_ket_mask(6) * (phi1 - phi0))
            assert np.abs(shifted_then_evolved - evolved_then_shifted).max() < 1e-12

    def test_common_rtn_p0_time_invariant(self):
        scen = scenario("rtn_common", q=0.1)
        rho0 = initial_mixed(0.0)
        for tau in (0.5, 3.0, 12.0, 30.0):
            drift = evolve(scen, rho0, tau).matrix - rho0.matrix
            assert np.linalg.norm(drift) / np.sqrt(2) < 1e-12

    def test_unsupported_layout(self):
        # the independent-telegraph couplings name two spins
        with pytest.raises(UnsupportedScenario):
            Scenario(SpinLayout((1.5,)), q=0.1, rtn_couplings=((2, 0), (0, 1)))


class TestEnvironmentChecks:
    """The checks of a Scenario's sources, couplings and telegraph clock."""

    TELEGRAPH = 0.1

    @pytest.mark.parametrize("kwargs", [
        {},
        {"bath_couplings": ((1, 0),)},
        {"q": TELEGRAPH},
        {"q": TELEGRAPH, "rtn_couplings": ((1.5, 0),)},
        {"q": TELEGRAPH, "rtn_couplings": ((float("nan"), 0),)},
        {"q": TELEGRAPH, "rtn_couplings": ("ab",)},
        {"q": TELEGRAPH, "rtn_couplings": ((2, 1),), "nu_ratio": 0.0},
        {"q": TELEGRAPH, "rtn_couplings": ((2, 1),), "nu_ratio": float("inf")},
        {"q": TELEGRAPH, "rtn_couplings": ((2, 1),), "nu_ratio": float("nan")},
        {"q": float("nan"), "rtn_couplings": ((2, 1),)},
        {"q": float("inf"), "rtn_couplings": ((2, 1),)},
        {"q": -1.0, "rtn_couplings": ((2, 1),)},
    ], ids=["no-coupling", "bath-couplings-without-bath", "rtn-without-couplings",
            "fractional", "nan", "string", "nu_ratio-zero", "nu_ratio-inf",
            "nu_ratio-nan", "q-nan", "q-inf", "q-negative"])
    def test_rejected(self, kwargs):
        with pytest.raises(InvalidParams):
            Scenario(QUBIT_QUTRIT, **kwargs)

    def test_integer_valued_floats_accepted(self):
        scen = Scenario(QUBIT_QUTRIT, q=self.TELEGRAPH, rtn_couplings=((2.0, 1.0),))
        assert scen.rtn_couplings == ((2, 1),)

    def test_coupling_length_must_match_layout(self):
        with pytest.raises(UnsupportedScenario):
            Scenario(QUBIT_QUTRIT, FIGURE_BATH, ((1,),))

    def test_three_spins_rejected(self):
        with pytest.raises(UnsupportedScenario):
            Scenario(SpinLayout((0.5, 0.5, 0.5)), FIGURE_BATH,
                     ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_evolve_needs_the_layout_dims(self):
        # a spin-5/2 has the mixed state's 6 levels but not its two subsystems
        with pytest.raises(UnsupportedScenario):
            evolve(scenario("squeezed", spin=2.5), initial_mixed(0.3), 1.0)


def spin_z(s):
    return np.diag(np.arange(s, -s - 1, -1))


def label_gaps(*terms):
    """E_n - E_m of H = sum of kron products, one (factors...) tuple per term."""
    e = np.diag(sum(functools.reduce(np.kron, factors) for factors in terms))
    return e[:, None] - e[None, :]


def oracle_factors(scen, tau, bath_gaps, rtn_gaps, nu_ratio=1.0):
    """exp(-Gamma sum (E_n - E_m)^2) * prod D_|E_n - E_m| from brute-force spectra."""
    d = scen.layout.dim
    out = np.ones((d, d))
    if bath_gaps:
        out *= np.exp(-bath_gamma(scen, tau) * sum(g**2 for g in bath_gaps))
    q = scen.q if rtn_gaps else None
    for gaps in rtn_gaps:
        for i in range(d):
            for j in range(d):
                k = int(round(abs(gaps[i, j])))
                if k:
                    out[i, j] *= rtn_dn(k, q, nu_ratio * tau)
    return out


class TestCouplingOracle:
    """factor_matrix against H = sum_p c_p S_z^(p) built with np.kron."""

    TAUS = (0.3, 1.7, 6.0)

    @pytest.mark.parametrize("q", [0.37, 7.3])
    @pytest.mark.parametrize("kind", ["squeezed", "thermal", "rtn_independent",
                                      "rtn_common", "composite"])
    def test_qubit_qutrit_kinds(self, kind, q):
        scen = scenario(kind, **({} if kind in ("squeezed", "thermal") else {"q": q}))
        sigma_z, sz2, i2 = 2 * spin_z(0.5), spin_z(0.5), np.eye(2)
        sz3, i3 = spin_z(1), np.eye(3)
        qubit, qutrit = label_gaps((sz2, i3)), label_gaps((i2, sz3))
        # the qubit couples to telegraph noise through sigma_z = 2 S_z
        rows = {
            "squeezed": ([qubit, qutrit], []),
            "thermal": ([qubit, qutrit], []),
            "rtn_independent": ([], [label_gaps((sigma_z, i3)), qutrit]),
            "rtn_common": ([], [label_gaps((sigma_z, i3), (i2, sz3))]),
            "composite": ([qutrit], [label_gaps((sigma_z, i3))]),
        }
        bath_gaps, rtn_gaps = rows[kind]
        nu_ratio = 100.0 if kind == "composite" else 1.0
        for tau in self.TAUS:
            want = oracle_factors(scen, tau, bath_gaps, rtn_gaps, nu_ratio)
            assert np.abs(factor_matrix(scen, tau)[0] - want).max() < 1e-14

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_qudits(self, s):
        gaps = label_gaps((spin_z(s),))
        bath = Scenario(SpinLayout((s,)), FIGURE_BATH, ((1,),))
        telegraph = Scenario(SpinLayout((s,)), q=0.37, rtn_couplings=((1,),))
        for tau in self.TAUS:
            assert np.abs(factor_matrix(bath, tau)[0]
                          - oracle_factors(bath, tau, [gaps], [])).max() < 1e-14
            assert np.abs(factor_matrix(telegraph, tau)[0]
                          - oracle_factors(telegraph, tau, [], [gaps])).max() < 1e-14

    @pytest.mark.parametrize("s", [0.5, 1.0], ids=["qubit-qubit", "qutrit-qutrit"])
    def test_equal_spin_pairs(self, s):
        scen = Scenario(SpinLayout((s, s)), FIGURE_BATH, ((1, 0), (0, 1)))
        sz, eye = spin_z(s), np.eye(int(2 * s) + 1)
        gaps = [label_gaps((sz, eye)), label_gaps((eye, sz))]
        for tau in self.TAUS:
            assert np.abs(factor_matrix(scen, tau)[0]
                          - oracle_factors(scen, tau, gaps, [])).max() < 1e-14


def windings_reference(layout, couplings):
    """c . Delta of every element, one (d, d) table per vector c, rebuilt per call."""
    digits = np.indices(layout.dims).reshape(len(layout.dims), -1)
    delta = digits[:, None, :] - digits[:, :, None]
    return np.tensordot(np.array(couplings, dtype=int), delta, axes=1)


def factor_matrix_reference(scen, t):
    """The damping factors with the coupling tables rebuilt on every call."""
    layout = scen.layout
    out = np.ones(t.shape + (layout.dim, layout.dim))
    if scen.bath is not None:
        W = (windings_reference(layout, scen.bath_couplings) ** 2).sum(0)
        out = np.exp(-np.multiply.outer(bath_gamma(scen, t), W))
    if scen.q is not None:
        K = np.abs(windings_reference(layout, scen.rtn_couplings))
        D = np.stack([np.ones(t.shape)] + [
            rtn_dn(k, scen.q, scen.nu_ratio * t) for k in range(1, K.max() + 1)],
            axis=-1)
        for k in K:
            out = out * D[..., k]
    return out


TABLE_SCENARIOS = pytest.mark.parametrize(
    "make", [lambda: scenario("squeezed"), lambda: scenario("rtn_independent"),
             lambda: scenario("rtn_common", q=3.0), lambda: scenario("composite"),
             lambda: scenario("squeezed", spin=2.5)],
    ids=["squeezed", "rtn-independent", "rtn-common", "composite", "spin-5/2"])


class TestCouplingTables:
    """The integer tables W and K are built once per layout and couplings."""

    @TABLE_SCENARIOS
    def test_built_once_per_series(self, make):
        scen = make()
        tables = dynamics._coupling_tables
        tables.cache_clear()
        grid = np.linspace(0.0, 30.0, 600)
        compute_series(scen, grid, mixed_p=0.3 if scen.layout.dims == (2, 3) else None)
        blocks = math.ceil(600 / max(1, BLOCK_ENTRIES // scen.layout.dim**2))
        assert blocks > 1
        info = tables.cache_info()
        assert (info.misses, info.hits) == (1, blocks - 1)
        for table in tables(scen.layout, scen.bath_couplings, scen.rtn_couplings):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[..., 0, 1] = 7
        # a second series of another scenario with the same couplings builds nothing
        compute_series(make(), grid[:300])
        assert tables.cache_info().misses == 1

    @TABLE_SCENARIOS
    def test_factors_equal_tables_rebuilt_per_call(self, make):
        scen = make()
        for t in (np.linspace(0.0, 30.0, 257), np.array(1.3)):
            for _ in range(2):  # from a fresh and from a cached table
                assert np.array_equal(factor_matrix(scen, t)[0],
                                      factor_matrix_reference(scen, t))
