import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsswitness.decoherence import (RTN_SEAM, OhmicSpectralDensity,
                                    SqueezedBathParams, ThermalBathParams,
                                    gamma_squeezed, gamma_thermal, rtn_dn)
from hsswitness.errors import InvalidParams
from hsswitness.validation import (QUAD_EPSREL, _mc_chunk, check_montecarlo,
                                   gamma_squeezed_quadrature,
                                   gamma_thermal_quadrature, rtn_dn_montecarlo)


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


NAN = float("nan")
INF = math.inf


@pytest.mark.parametrize("make", [
    lambda: OhmicSpectralDensity(NAN, 3.0, 20.0),
    lambda: OhmicSpectralDensity(0.1, NAN, 20.0),
    lambda: OhmicSpectralDensity(0.1, 3.0, NAN),
    lambda: ThermalBathParams(SUPER, temperature=NAN),
    lambda: SqueezedBathParams(SUPER, r=NAN),
    lambda: SqueezedBathParams(SUPER, theta=NAN),
    lambda: SqueezedBathParams(SUPER, theta=math.inf),
    lambda: rtn_dn(1, NAN, 1.0),
    lambda: rtn_dn(1, 0.1, NAN),
    lambda: OhmicSpectralDensity(INF, 3.0, 20.0),
    lambda: OhmicSpectralDensity(0.1, INF, 20.0),
    lambda: OhmicSpectralDensity(0.1, 3.0, INF),
    lambda: ThermalBathParams(SUPER, temperature=INF),
    lambda: SqueezedBathParams(SUPER, r=INF),
    lambda: rtn_dn(1, INF, 1.0),
    lambda: rtn_dn(1, 0.1, INF),
], ids=["alpha", "s_ohmic", "omega_c", "temperature", "r", "theta-nan",
        "theta-inf", "rtn_dn-q", "rtn_dn-tau",
        "alpha-inf", "s_ohmic-inf", "omega_c-inf", "temperature-inf", "r-inf",
        "rtn_dn-q-inf", "rtn_dn-tau-inf"])
def test_nan_parameters_rejected(make):
    with pytest.raises(InvalidParams):
        make()


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


def _rel(got, want):
    return abs(got - want) / abs(want)


def _thermal(s, T, alpha=0.1, omega_c=20.0):
    return ThermalBathParams(OhmicSpectralDensity(alpha, s, omega_c), T)


def _squeezed(s, r, theta, alpha=0.1, omega_c=20.0):
    return SqueezedBathParams(OhmicSpectralDensity(alpha, s, omega_c), r, theta)


class TestGammaClosedFormEdges:
    """The closed forms at their edges, against mpmath literals or the oracle.

    Literals marked mpmath were computed with mpmath at 30 digits, from
    Gamma(mu) [b^-mu - Re (b - it)^-mu] (GR 3.944) and, at T > 0, its coth
    series summed to n = 3000 with an Euler-Maclaurin tail.
    """

    def test_sub_ohmic_finite_temperature(self):
        # mpmath (30 digits): 4.33671994804027957 at alpha 0.1, s 0.5,
        # omega_c 20, T 0.5, tau 3
        want = 4.33671994804029
        params = _thermal(0.5, 0.5)
        assert _rel(gamma_thermal(3.0, params), want) < 1e-12
        assert _rel(gamma_thermal_quadrature(3.0, params), want) < 1e-9

    @pytest.mark.parametrize("s_log", [1.0, 2.0])
    def test_log_limits_continuous(self, s_log):
        for tau in (1e-3, 0.3, 3.0, 30.0):
            cases = [lambda s: gamma_squeezed(tau, _squeezed(s, 0.5, 1.0))]
            cases += [lambda s, T=T: gamma_thermal(tau, _thermal(s, T))
                      for T in (0.0, 0.5, 5.0)]
            for gamma_of in cases:
                at = gamma_of(s_log)
                assert math.isfinite(at) and at > 0
                for s in (s_log - 1e-9, s_log + 1e-9):
                    assert _rel(gamma_of(s), at) < 1e-7

    @pytest.mark.parametrize("gamma_of,want,tol", [
        # mpmath literals at alpha 0.1, s 3, omega_c 20, tau 1e-6
        (lambda t: gamma_thermal(t, _thermal(3.0, 0.0)),
         1.1999999992000000004e-10, 1e-13),
        (lambda t: gamma_thermal(t, _thermal(3.0, 1.0)),
         1.2000134700057829696e-10, 1e-13),
        (lambda t: gamma_squeezed(t, _squeezed(3.0, 0.3, 0.0)),
         6.5857396592971959628e-11, 1e-13),
        # theta != 0: the harmonics at wt and 2wt cancel to first order in
        # t, so rounding grows like 1 / (omega_c t); 4e-13 here
        (lambda t: gamma_squeezed(t, _squeezed(3.0, 0.5, 0.8)),
         8.6909116577337320263e-11, 1e-11),
    ], ids=["thermal-T0", "thermal-T1", "squeezed", "squeezed-theta"])
    def test_small_tau(self, gamma_of, want, tol):
        assert _rel(gamma_of(1e-6), want) < tol

    def test_cold_limit(self):
        for tau in (0.1, 1.0, 3.0):
            assert _rel(gamma_thermal(tau, _thermal(3.0, 1e-3)),
                        gamma_thermal(tau, _thermal(3.0, 0.0))) < 1e-12

    def test_hot_bath_against_oracle(self):
        params = _thermal(3.0, 50.0)
        for tau in (0.05, 3.0, 30.0):
            assert _rel(gamma_thermal(tau, params),
                        gamma_thermal_quadrature(tau, params)) < QUAD_EPSREL
        # mpmath (30 digits): 0.51280834788954710791 at tau 3
        assert _rel(gamma_thermal(3.0, params), 0.51280834788954710791) < 1e-13

    def test_unsqueezed_equals_zero_temperature(self):
        for s in (0.5, 1.0, 3.0):
            for tau in (1e-3, 0.7, 30.0):
                assert _rel(gamma_squeezed(tau, _squeezed(s, 0.0, 1.3)),
                            gamma_thermal(tau, _thermal(s, 0.0))) < 1e-13

    def test_array_times(self):
        taus = np.linspace(0.0, 30.0, 7)
        for params, gamma in ((_thermal(2.5, 0.7), gamma_thermal),
                              (_squeezed(0.8, 0.4, 2.0), gamma_squeezed)):
            got = gamma(taus, params)
            assert got.shape == taus.shape
            # the coth series may be summed in another order: a few ulps
            assert np.allclose(got, [gamma(t, params) for t in taus],
                               rtol=1e-15, atol=0.0)
            assert isinstance(gamma(1.0, params), float)

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(0.3, 4.0), T=st.floats(0.0, 10.0),
           r=st.floats(0.0, 1.5), theta=st.floats(0.0, 2 * math.pi),
           tau=st.floats(1e-3, 50.0))
    def test_against_quadrature_oracle(self, s, T, r, theta, tau):
        thermal = _thermal(s, T)
        assert _rel(gamma_thermal(tau, thermal),
                    gamma_thermal_quadrature(tau, thermal)) < QUAD_EPSREL
        squeezed = _squeezed(s, r, theta)
        assert _rel(gamma_squeezed(tau, squeezed),
                    gamma_squeezed_quadrature(tau, squeezed)) < QUAD_EPSREL


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

    @pytest.mark.parametrize("n,want", [
        # mpmath (30 digits) of e^(-q tau) [cosh xi tau + (q / xi) sinh xi tau]
        (1, 0.99999995000000375), (2, 0.99999980000002999999)],
        ids=["n1", "n2"])
    def test_fast_noise(self, n, want):
        assert _rel(rtn_dn(n, 1e7, 1.0), want) < 1e-14

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

    @pytest.mark.parametrize("regime,q", [("slow", 0.37), ("seam", None),
                                          ("fast", 7.3)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_array_tau_equals_scalar_calls(self, n, regime, q):
        # the seam regime sits inside |q - n| < RTN_SEAM
        q = n + 0.4 * RTN_SEAM if q is None else q
        taus = np.concatenate(([0.0], np.linspace(0.0, 40.0, 301)[1:], [1e-300]))
        got = rtn_dn(n, q, taus)
        assert got.shape == taus.shape and got[0] == 1.0
        want = np.array([rtn_dn(n, q, float(t)) for t in taus])
        assert np.array_equal(got, want)
        assert np.array_equal(rtn_dn(n, q, taus.reshape(2, -1)),
                              want.reshape(2, -1))

    @pytest.mark.parametrize("bad", [-1.0, NAN, INF, -INF])
    def test_array_tau_rejects_bad_entries(self, bad):
        with pytest.raises(InvalidParams):
            rtn_dn(2, 0.3, np.array([0.0, 1.0, bad, 2.0]))


def _mc_chunk_reference(n, q, tau, m, rng):
    """The Monte-Carlo chunk as one loop over full-length arrays, for one n:
    every flip round gathers and scatters the running trajectories."""
    sign = rng.integers(0, 2, size=m) * 2 - 1
    level = sign.astype(float)
    theta = np.zeros(m)
    t = np.zeros(m)
    active = np.ones(m, dtype=bool)
    while active.any():
        idx = np.flatnonzero(active)
        if q > 0.0:
            dt = rng.exponential(1.0 / q, size=idx.size)
        else:
            dt = np.full(idx.size, np.inf)
        remaining = tau - t[idx]
        step = np.minimum(dt, remaining)
        theta[idx] += level[idx] * step
        t[idx] += step
        flipped = dt < remaining
        level[idx[flipped]] *= -1.0
        active[idx[~flipped]] = False
    x = np.cos(n * theta)
    return float(x.sum()), float((x * x).sum())


@st.composite
def _mc_cases(draw):
    """(q, tau): no flips, slow and fast noise, and the q * tau = 100 limit,
    each at tau = 0 or tau > 0 (the limit only at tau > 0)."""
    regime = draw(st.sampled_from(["zero", "slow", "fast", "limit"]))
    if regime == "limit":
        tau = draw(st.floats(1.0, 10.0))
        return 100.0 / tau, tau
    tau = draw(st.sampled_from([0.0]) | st.floats(0.01, 10.0))
    q = {"zero": st.just(0.0), "slow": st.floats(0.01, 1.0),
         "fast": st.floats(4.0, 10.0)}[regime]
    return draw(q), tau


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

    @pytest.mark.parametrize("args, want", [
        ((2, 0.5, 2.0, 15_000, 5), (-0.33593524585865997, 0.00510328250960941)),
        ((1, 0.3, 2.5, 45_000, 10), (-0.2485999996684169, 0.0031830437951276386)),
        ((3, 0.0, 1.2, 25_000, 4), (-0.8967584163341473, 0.0)),
    ], ids=["one-chunk", "partial-last-chunk", "q-zero"])
    def test_pinned_values(self, args, want):
        # fixes the chunk size, the spawned seeds and the order of summation
        assert rtn_dn_montecarlo(*args) == want

    def test_stderr_scaling(self):
        # stderr should roughly halve when trials quadruple
        _, e1 = rtn_dn_montecarlo(1, 0.5, 2.0, 25_000, seed=3)
        _, e4 = rtn_dn_montecarlo(1, 0.5, 2.0, 100_000, seed=3)
        assert abs(e4 / e1 - 0.5) < 0.2 * 0.5

    def test_trials_floor(self):
        for trials, seed in ((50, 0), (1000.5, 0), (1000, -1), (1000, 1.5)):
            with pytest.raises(InvalidParams):
                rtn_dn_montecarlo(1, 0.5, 1.0, trials, seed=seed)

    def test_check_montecarlo_rows_are_one_n_calls(self):
        # the 12 rows read 4 values of n off 3 trajectory sets; each row must
        # equal its own one-n estimate bit for bit, in (n, (q, tau)) order
        trials, seed = 45_000, 11
        want = []
        for n in (1, 2, 3, 4):
            for q, tau in ((0.1, 3.0), (1.0, 0.5), (10.0, 3.0)):
                mean, err = rtn_dn_montecarlo(n, q, tau, trials, seed)
                exact = rtn_dn(n, q, tau)
                sigmas = abs(mean - exact) / err if err > 0 else 0.0
                want.append((f"mc-dn(n={n},q={q},tau={tau})", sigmas,
                             abs(mean - exact)))
        assert check_montecarlo(trials, seed) == want

    @given(case=_mc_cases(), m=st.integers(1, 20_000),
           ns=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
           seed=st.integers(0, 2**32 - 1))
    @example(case=(100.0 / 3.0, 3.0), m=20_000, ns=(1, 2, 3, 4), seed=11)
    @example(case=(0.0, 1.2), m=1, ns=(3,), seed=0)
    @example(case=(0.5, 0.0), m=20_000, ns=(1, 2), seed=5)
    @settings(max_examples=25, deadline=None)
    def test_chunk_equals_reference_loop(self, case, m, ns, seed):
        # the compacted loop draws the flip times in the reference's order and
        # steps each trajectory through the same floating-point operations
        q, tau = case
        want = [_mc_chunk_reference(n, q, tau, m, np.random.default_rng(seed))
                for n in ns]
        assert _mc_chunk(ns, q, tau, m, np.random.default_rng(seed)) == want


@pytest.mark.parametrize("call", [
    lambda n: rtn_dn(n, 0.1, 1.0),
    lambda n: rtn_dn_montecarlo(n, 0.1, 1.0, 1000, 0)],
    ids=["closed-form", "monte-carlo"])
def test_bool_n_rejected(call):
    # True is an int to isinstance, but no telegraph winding number
    with pytest.raises(InvalidParams, match="n must be a positive integer"):
        call(True)
