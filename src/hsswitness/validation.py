"""Oracles and cross-check suites, kept apart from the production path.

Every oracle here reaches its value by a route independent of the code it
checks:

* dense route -- ``evolve`` checks each evolved state as a ``DensityMatrix``,
  the reference of ``witnesses.compute_series``, which reads it as (rho0, F);
* golden tables -- the evolved qubit-qutrit and mixed states written out
  literally, element by element, in the computational basis {|00>, |01>,
  |02>, |10>, |11>, |12>}.  ``evolve`` must reproduce them exactly, never
  the other way around;
* quadrature -- composite Gauss-Legendre panels of the bath exponents, the
  oracle of the closed forms in ``decoherence``;
* finite-difference HSS -- ``hss_finite_difference`` differentiates two
  evolved states in phi, the oracle of the analytic ``witnesses.hss``;
* closed-form chi -- ``chi_qudit_closed`` is the exact time derivative of
  the single-qudit HSS, the oracle of the sign law sign(chi) = sign(-dGamma/dt);
* Monte Carlo -- ``rtn_dn_montecarlo`` averages cos(n theta) over seeded
  telegraph trajectories, the oracle of the closed-form ``decoherence.rtn_dn``;
  theta does not depend on n, so one set per (q, tau, seed) serves every n,
  and ``check_montecarlo``'s 12 rows come from 3 sets.
* tie-break loop -- ``tie_break_reference`` Gram-Schmidt processes one
  marginal's degenerate eigenspaces vector by vector, the oracle of the
  stacked tie-break inside ``witnesses.mid``; ``run_validation`` leaves it
  to the tests.

``run_validation`` bundles the golden-matrix, closed-form-equivalence,
bath-quadrature and Monte-Carlo-vs-analytic checks into one report row per
check; the CLI prints the rows.
"""

from __future__ import annotations

import math

import numpy as np

from .decoherence import (OhmicSpectralDensity, SqueezedBathParams,
                          ThermalBathParams, gamma_squeezed, gamma_thermal,
                          rtn_dn)
from .dynamics import (QUBIT_QUTRIT, Scenario, bath_gamma, factor_matrix,
                       initial_mixed, initial_pure, scenario)
from .errors import HsswitnessError, InvalidParams, UnsupportedScenario
from .hilbert import DensityMatrix
from .witnesses import (DEGENERACY_GAP, hss, mid, mid_closed, negativity,
                        negativity_closed)

#: phase step of the central-difference HSS oracle
FD_STEP = 1e-4


def evolve(scenario: Scenario, rho: DensityMatrix, tau) -> DensityMatrix:
    """Entrywise dephasing of a state of the scenario's layout at time(s) tau
    (an array of tau gives the stack of evolved states, checked as one)."""
    if rho.dims != scenario.layout.dims:
        raise UnsupportedScenario(
            f"state dims {rho.dims} do not match the layout {scenario.layout.dims}")
    return DensityMatrix(rho.matrix * factor_matrix(scenario, tau)[0], rho.dims)


def _hermitize(upper: dict, diag: np.ndarray) -> np.ndarray:
    m = np.diag(diag.astype(complex))
    for (i, j), v in upper.items():
        m[i, j] = v
        m[j, i] = np.conj(v)
    return m


def golden_pure_squeezed(gamma: float, phi: float) -> np.ndarray:
    """Qubit-qutrit pure state under independent squeezed reservoirs."""
    e = np.exp
    ph = e(1j * phi)
    g = gamma
    upper = {
        (0, 1): ph * e(-g), (0, 2): ph * e(-4 * g), (0, 3): ph * e(-g),
        (0, 4): ph * e(-2 * g), (0, 5): ph * e(-5 * g),
        (1, 2): e(-g), (1, 3): e(-2 * g), (1, 4): e(-g), (1, 5): e(-2 * g),
        (2, 3): e(-5 * g), (2, 4): e(-2 * g), (2, 5): e(-g),
        (3, 4): e(-g), (3, 5): e(-4 * g),
        (4, 5): e(-g),
    }
    return _hermitize({k: v / 6.0 for k, v in upper.items()},
                      np.full(6, 1.0 / 6.0))


def golden_pure_rtn_independent(d1: float, d2: float, phi: float) -> np.ndarray:
    """Qubit-qutrit pure state under independent telegraph noise."""
    ph = np.exp(1j * phi)
    upper = {
        (0, 1): ph * d1, (0, 2): ph * d2, (0, 3): ph * d2,
        (0, 4): ph * d2 * d1, (0, 5): ph * d2 * d2,
        (1, 2): d1, (1, 3): d2 * d1, (1, 4): d2, (1, 5): d2 * d1,
        (2, 3): d2 * d2, (2, 4): d2 * d1, (2, 5): d2,
        (3, 4): d1, (3, 5): d2,
        (4, 5): d1,
    }
    return _hermitize({k: v / 6.0 for k, v in upper.items()},
                      np.full(6, 1.0 / 6.0))


def golden_pure_rtn_common(d1: float, d2: float, d3: float, d4: float,
                           phi: float) -> np.ndarray:
    """Qubit-qutrit pure state under a common telegraph source.

    The {|02>,|10>} coherence sees opposite windings of the shared phase and
    is decoherence free (factor 1); mixed-winding elements carry the average
    of the summed winding.
    """
    ph = np.exp(1j * phi)
    upper = {
        (0, 1): ph * d1, (0, 2): ph * d2, (0, 3): ph * d2,
        (0, 4): ph * d3, (0, 5): ph * d4,
        (1, 2): d1, (1, 3): d1, (1, 4): d2, (1, 5): d3,
        (2, 3): 1.0, (2, 4): d1, (2, 5): d2,
        (3, 4): d1, (3, 5): d2,
        (4, 5): d1,
    }
    return _hermitize({k: v / 6.0 for k, v in upper.items()},
                      np.full(6, 1.0 / 6.0))


def golden_pure_composite(d2: float, gamma: float, phi: float) -> np.ndarray:
    """Telegraph noise on the qubit, squeezed reservoir on the qutrit."""
    e = np.exp
    ph = e(1j * phi)
    g = gamma
    upper = {
        (0, 1): ph * e(-g), (0, 2): ph * e(-4 * g), (0, 3): ph * d2,
        (0, 4): ph * d2 * e(-g), (0, 5): ph * d2 * e(-4 * g),
        (1, 2): e(-g), (1, 3): d2 * e(-g), (1, 4): d2, (1, 5): d2 * e(-g),
        (2, 3): d2 * e(-4 * g), (2, 4): d2 * e(-g), (2, 5): d2,
        (3, 4): e(-g), (3, 5): e(-4 * g),
        (4, 5): e(-g),
    }
    return _hermitize({k: v / 6.0 for k, v in upper.items()},
                      np.full(6, 1.0 / 6.0))


def golden_mixed(p: float, F: float) -> np.ndarray:
    """Evolved one-parameter mixed state: both coherence blocks damped by F."""
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0] = m[1, 1] = m[4, 4] = m[5, 5] = p / 2.0
    m[2, 2] = m[3, 3] = (1.0 - 2.0 * p) / 2.0
    m[0, 5] = m[5, 0] = p / 2.0 * F
    m[2, 3] = m[3, 2] = (1.0 - 2.0 * p) / 2.0 * F
    return m


def golden_mixed_common(p: float, F: float) -> np.ndarray:
    """Common telegraph source: {|02>,|10>} block frozen, F = D_4 on the other."""
    m = golden_mixed(p, 1.0)
    m[0, 5] = m[5, 0] = p / 2.0 * F
    m[2, 3] = m[3, 2] = (1.0 - 2.0 * p) / 2.0
    return m


def golden_mixed_partial_transpose(p: float, F: float) -> np.ndarray:
    """Partial transpose (w.r.t. the qubit) of ``golden_mixed``: the F blocks swap weights."""
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0] = m[1, 1] = m[4, 4] = m[5, 5] = p / 2.0
    m[2, 2] = m[3, 3] = (1.0 - 2.0 * p) / 2.0
    m[0, 5] = m[5, 0] = (1.0 - 2.0 * p) / 2.0 * F
    m[2, 3] = m[3, 2] = p / 2.0 * F
    return m


# --- quadrature oracle of the bath exponents ---------------------------------

#: truncation of the frequency integrals, in units of the cutoff omega_c
OMEGA_MAX_CUTOFFS = 50.0
#: required bound on the integrand at the truncation point
TAIL_BOUND = 1e-14
QUAD_EPSREL = 1e-8
QUAD_EPSABS = 1e-14


class QuadratureNonConvergent(HsswitnessError):
    """Adaptive quadrature failed to reach the requested tolerance."""


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _edges(omega_max: float, t: float, omega_c: float, refine: int) -> np.ndarray:
    """Panel edges over (0, omega_max]: one panel per oscillation period,
    at least 8 per cutoff scale, geometrically graded towards omega = 0 so
    that integrable endpoint singularities (sub-Ohmic, T > 0) are resolved.
    """
    n = max(64, int(omega_max * t / math.pi) + 1,
            int(8 * omega_max / omega_c)) * refine
    if n > 400_000:
        raise QuadratureNonConvergent(f"panel count {n} too large")
    edges = np.linspace(0.0, omega_max, n + 1)
    first = edges[1]
    graded = first * 0.5 ** np.arange(40 * refine, 0, -1)
    return np.concatenate(([0.0], graded, edges[1:]))


def _panel_sum(f_vec, edges: np.ndarray) -> float:
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    # nodes: (panels, 16), all strictly inside (0, omega_max)
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f_vec(x)
    return float((half[:, None] * _GL_WEIGHTS[None, :] * vals).sum())


def _integrate(f_vec, t: float, omega_c: float, tail_probe) -> float:
    """Composite Gauss-Legendre quadrature of f over (0, Omega_max].

    The panel layout resolves the cos(omega t) oscillation; convergence is
    checked by doubling the panel count until successive values agree to
    QUAD_EPSREL (relative) or QUAD_EPSABS (absolute).
    """
    omega_max = OMEGA_MAX_CUTOFFS * omega_c
    # exponential cutoff: extend if the probe bound is not yet tiny
    for _ in range(4):
        if tail_probe(omega_max) < TAIL_BOUND:
            break
        omega_max *= 2.0
    else:
        raise QuadratureNonConvergent(
            f"integrand tail still above {TAIL_BOUND:g} at omega={omega_max:g}")
    prev = _panel_sum(f_vec, _edges(omega_max, t, omega_c, 1))
    for refine in (2, 4, 8):
        cur = _panel_sum(f_vec, _edges(omega_max, t, omega_c, refine))
        if abs(cur - prev) <= max(QUAD_EPSABS, QUAD_EPSREL * abs(cur)):
            return cur
        prev = cur
    raise QuadratureNonConvergent(
        f"no convergence to rel {QUAD_EPSREL:g} after max refinement")


def _spectral_vec(J: OhmicSpectralDensity):
    def J_vec(omega):
        return (J.alpha * omega**J.s_ohmic / J.omega_c ** (J.s_ohmic - 1.0)
                * np.exp(-omega / J.omega_c))
    return J_vec


def gamma_thermal_quadrature(t: float, params: ThermalBathParams) -> float:
    """Quadrature of J(w) coth(w / 2T) 2 sin^2(wt / 2) / w^2 over w > 0.

    2 sin^2(wt / 2) stands for 1 - cos wt, which rounds to 0 for
    wt < 1e-8 and so drops the sub-Ohmic T > 0 integrand near w = 0.
    """
    if t < 0:
        raise InvalidParams("t must be >= 0")
    if t == 0.0:
        return 0.0
    J = params.spectral
    T = params.temperature
    J_vec = _spectral_vec(J)

    def coth_half(omega):
        if T == 0.0:
            return 1.0
        # clip before dividing, so that a subnormal T does not overflow
        return 1.0 / np.tanh(np.minimum(omega, 60.0 * T) / (2.0 * T))

    def f(omega):
        return (J_vec(omega) * coth_half(omega)
                * 2.0 * np.sin(0.5 * omega * t) ** 2 / omega**2)

    def tail(omega):
        return float(J_vec(omega) * coth_half(omega) * 2.0 / omega**2)

    return _integrate(f, t, J.omega_c, tail)


def gamma_squeezed_quadrature(t: float, params: SqueezedBathParams) -> float:
    """Quadrature of J(w) 2 sin^2(wt / 2) / w^2 [cosh 2r - sinh 2r cos(wt - theta)]."""
    if t < 0:
        raise InvalidParams("t must be >= 0")
    if t == 0.0:
        return 0.0
    J = params.spectral
    ch, sh = math.cosh(2.0 * params.r), math.sinh(2.0 * params.r)
    th = params.theta
    J_vec = _spectral_vec(J)

    def f(omega):
        bracket = ch - sh * np.cos(omega * t - th)
        return J_vec(omega) * 2.0 * np.sin(0.5 * omega * t) ** 2 / omega**2 * bracket

    def tail(omega):
        return float(J_vec(omega) * 2.0 * (ch + sh) / omega**2)

    return _integrate(f, t, J.omega_c, tail)


# --- HSS and chi oracles -------------------------------------------------------

def hss_finite_difference(scenario: Scenario, tau, phi: float) -> float | np.ndarray:
    """Central-difference HSS oracle in phi at time(s) tau, O(FD_STEP^2) accurate."""
    rp = evolve(scenario, initial_pure(scenario.layout, phi + FD_STEP), tau)
    rm = evolve(scenario, initial_pure(scenario.layout, phi - FD_STEP), tau)
    d = (rp.matrix - rm.matrix) / (2.0 * FD_STEP)
    val = np.trace(d @ d, axis1=-2, axis2=-1).real / 2.0
    return np.sqrt(np.maximum(val, 0.0))


def chi_qudit_closed(s: float, gamma: float, dgamma_dt: float) -> float:
    """Closed-form chi for the spin-s qudit from HSS = sqrt(sum_k e^{-2k^2 g})/(2s+1).

    The exact time derivative, with denominator sqrt(sum).  The paper prints
    the plain sum as the denominator; that differs in magnitude but has the
    same sign, -dgamma_dt, which is all the witness uses.
    """
    two_s = int(round(2 * float(s)))
    k = np.arange(1, two_s + 1)
    terms = np.exp(-2.0 * k**2 * gamma)
    num = float((k**2 * terms).sum())
    return -dgamma_dt / (two_s + 1) * num / np.sqrt(float(terms.sum()))


# --- Monte-Carlo oracle of the telegraph average --------------------------------

_MC_CHUNK = 20_000
#: bounds on the Monte-Carlo work: a trajectory flips about q * tau times
MC_MAX_Q_TAU = 100.0
MC_MAX_TRIALS = 1_000_000


def _mc_chunk(ns: tuple[int, ...], q: float, tau: float, m: int,
              rng: np.random.Generator) -> list[tuple[float, float]]:
    """Sum and sum of squares of cos(n * theta) over m trajectories, per n.

    Only running trajectories are stepped, kept in index order, so the flip
    times are drawn in the same order; theta holds each one's latest phase."""
    level = (rng.integers(0, 2, size=m) * 2 - 1).astype(float)
    theta, th, t, run = np.zeros(m), np.zeros(m), np.zeros(m), np.arange(m)
    while run.size:
        dt = (rng.exponential(1.0 / q, size=run.size) if q > 0.0
              else np.full(run.size, np.inf))
        remaining = tau - t
        step = np.minimum(dt, remaining)
        th += level * step
        t += step
        theta[run] = th
        keep = np.flatnonzero(dt < remaining)
        run, th, t, level = run[keep], th[keep], t[keep], -level[keep]
    return [(float(x.sum()), float((x * x).sum()))
            for x in (np.cos(n * theta) for n in ns)]


def rtn_dn_montecarlo(n: int, q: float, tau: float, trials: int,
                      seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, stderr) of <cos(n * theta(tau))>.

    Telegraph trajectories flip between +/-1 at rate q (in tau units) with
    an equiprobable initial sign; theta(tau) is accumulated exactly between
    exponential flip times.  Trials run in chunks of _MC_CHUNK, each with a
    seed spawned from ``seed``, and are summed in chunk order, so memory
    stays bounded and a seed always gives the same result.
    """
    return _montecarlo((n,), q, tau, trials, seed)[0]


def _montecarlo(ns: tuple[int, ...], q: float, tau: float, trials: int,
                seed: int) -> list[tuple[float, float]]:
    """``rtn_dn_montecarlo`` per n in ns, all read off one trajectory set."""
    if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1
           for n in ns):
        raise InvalidParams("n must be a positive integer")
    if not (0 <= q < math.inf and 0 <= tau < math.inf):
        raise InvalidParams("q and tau must be finite and >= 0")
    if q * tau > MC_MAX_Q_TAU:
        raise InvalidParams(f"q * tau must be <= {MC_MAX_Q_TAU:g}")
    if not (isinstance(trials, (int, np.integer))
            and 100 <= trials <= MC_MAX_TRIALS):
        raise InvalidParams(f"trials must be an integer in [100, {MC_MAX_TRIALS}]")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParams("seed must be an integer >= 0")

    sizes = [min(_MC_CHUNK, trials - k) for k in range(0, trials, _MC_CHUNK)]
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    parts = [_mc_chunk(ns, q, tau, m, np.random.default_rng(ss))
             for m, ss in zip(sizes, seeds)]
    out = []
    for sums in zip(*parts):
        s1 = sum(p[0] for p in sums)
        s2 = sum(p[1] for p in sums)
        var = max(s2 - s1 * s1 / trials, 0.0) / (trials - 1)
        out.append((s1 / trials, math.sqrt(var / trials)))
    return out


# --- the mixed family's coherence factor ----------------------------------------

def mixed_coherence_factor(scenario: Scenario, tau) -> float | np.ndarray:
    """The scalar F damping the mixed state's coherences: the |00><12| entry.

    F = exp(-5 gamma) for independent baths, D_2^2 for independent
    telegraph noise, D_4 for a common telegraph source, and
    D_2 * exp(-4 gamma) in the composite scenario; an array for array tau.
    """
    if scenario.layout.dims != (2, 3):
        raise UnsupportedScenario("F is defined for the qubit-qutrit layout only")
    F = factor_matrix(scenario, tau)[0][..., 0, 5]
    return float(F) if F.ndim == 0 else F


# --- MID tie-break, one marginal at a time ---------------------------------------

def tie_break_reference(ev: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Eigenbasis of one marginal with the degenerate tie-break of ``mid``.

    Within each cluster (eigenvalue gap < DEGENERACY_GAP) the eigenspace is
    re-orthonormalized against the computational basis: projections of e_0,
    e_1, ... onto the eigenspace are Gram-Schmidt processed in index order,
    skipping residuals of norm <= 1e-8.  The oracle of the stacked
    ``witnesses._tie_break``: a plain loop over clusters and vectors.
    """
    out = np.empty_like(vec)
    cluster = np.concatenate(([0], np.cumsum(np.diff(ev) >= DEGENERACY_GAP)))
    for c in range(cluster[-1] + 1):
        cols = np.flatnonzero(cluster == c)
        P = vec[:, cols] @ vec[:, cols].conj().T
        basis: list[np.ndarray] = []
        for v in P.T:  # P e_k, k = 0, 1, ...
            for u in basis:
                v = v - u * (u.conj() @ v)
            norm = np.linalg.norm(v)
            if norm > 1e-8:
                basis.append(v / norm)
            if len(basis) == cols.size:
                break
        out[:, cols] = np.transpose(basis)
    return out


# --- check suites ----------------------------------------------------------------

def check_golden_matrices(n_times: int = 20, seed: int = 7,
                          ) -> list[tuple[str, float]]:
    """Max entrywise deviation of stacked evolve() from each golden table, for
    the scenario kinds at their defaults, the figure parameters."""
    rng = np.random.default_rng(seed)
    phi = np.pi / 3.0
    pure0, mixed0 = initial_pure(QUBIT_QUTRIT, phi), initial_mixed(0.3)

    def worst(scen, rho0, taus, want):
        return float(np.abs(evolve(scen, rho0, taus).matrix - np.array(want)).max())

    sq = scenario("squeezed")
    taus = rng.uniform(0.05, 3.0, n_times)
    g = bath_gamma(sq, taus)
    results = [
        ("pure-squeezed", worst(sq, pure0, taus,
                                [golden_pure_squeezed(x, phi) for x in g])),
        ("mixed-squeezed", worst(sq, mixed0, taus,
                                 [golden_mixed(0.3, np.exp(-5 * x)) for x in g])),
    ]

    ind, com = scenario("rtn_independent"), scenario("rtn_common")
    taus = rng.uniform(0.05, 30.0, n_times)
    d = np.transpose([rtn_dn(n, ind.q, taus) for n in (1, 2, 3, 4)])
    dc = np.transpose([rtn_dn(n, com.q, taus) for n in (1, 2, 3, 4)])
    results += [
        ("pure-rtn-independent", worst(ind, pure0, taus, [
            golden_pure_rtn_independent(d1, d2, phi) for d1, d2, _, _ in d])),
        ("mixed-rtn-independent", worst(ind, mixed0, taus, [
            golden_mixed(0.3, d2 ** 2) for _, d2, _, _ in d])),
        ("pure-rtn-common", worst(com, pure0, taus, [
            golden_pure_rtn_common(*dk, phi) for dk in dc])),
        ("mixed-rtn-common", worst(com, mixed0, taus, [
            golden_mixed_common(0.3, d4) for *_, d4 in dc])),
    ]

    comp = scenario("composite")
    taus = rng.uniform(0.05, 3.0, n_times)
    pairs = list(zip(rtn_dn(2, comp.q, comp.nu_ratio * taus),
                     bath_gamma(comp, taus)))
    results += [
        ("pure-composite", worst(comp, pure0, taus, [
            golden_pure_composite(d2, x, phi) for d2, x in pairs])),
        ("mixed-composite", worst(comp, mixed0, taus, [
            golden_mixed(0.3, d2 * np.exp(-4 * x)) for d2, x in pairs])),
    ]
    return results


def check_closed_forms(p_values=(0.0, 0.1, 0.3, 0.4), n_times: int = 40,
                       ) -> list[tuple[str, float]]:
    """Stacked negativity/MID vs closed forms, and HSS vs finite differences,
    for the pair's scenario kinds at their defaults."""
    out = []
    cases = [("squeezed", "squeezed", 3.0, "independent"),
             ("rtn-independent", "rtn_independent", 30.0, "independent"),
             ("rtn-common", "rtn_common", 30.0, "common"),
             ("composite", "composite", 3.0, "composite")]
    pure0 = initial_pure(QUBIT_QUTRIT, np.pi)
    for name, kind, tau_max, topo in cases:
        scen, taus = scenario(kind), np.linspace(0.0, tau_max, n_times)
        dev_n = dev_m = 0.0
        factors = mixed_coherence_factor(scen, taus)
        for p in p_values:
            state = evolve(scen, initial_mixed(p), taus)
            want_n = [negativity_closed(p, F, topo) for F in factors]
            want_m = [mid_closed(p, F, topo) for F in factors]
            dev_n = max(dev_n, np.abs(negativity(state) - want_n).max())
            dev_m = max(dev_m, np.abs(mid(state) - want_m).max())
        dev_h = np.abs(hss(evolve(scen, pure0, taus))
                       - hss_finite_difference(scen, taus, np.pi)).max()
        out += [(f"negativity-closed/{name}", float(dev_n)),
                (f"mid-closed/{name}", float(dev_m)), (f"hss-fd/{name}", float(dev_h))]
    return out


def check_gamma_closed_forms() -> float:
    """Max relative deviation of the closed-form bath exponents from quadrature.

    Twelve baths with alpha = 0.1 and omega_c = 20, sub- to super-Ohmic,
    at tau <= 3: thermal (s, T, tau) and squeezed (s, r, theta, tau).
    """
    def spectral(s):
        return OhmicSpectralDensity(alpha=0.1, s_ohmic=s, omega_c=20.0)

    cases = [(gamma_thermal, gamma_thermal_quadrature,
              ThermalBathParams(spectral(s), temperature=T), tau)
             for s, T, tau in ((0.5, 0.5, 3.0), (1.0, 2.0, 0.3), (2.0, 0.0, 1.0),
                               (3.0, 1.0, 3.0), (3.0, 5.0, 0.05), (1.5, 0.05, 2.0))]
    cases += [(gamma_squeezed, gamma_squeezed_quadrature,
               SqueezedBathParams(spectral(s), r=r, theta=theta), tau)
              for s, r, theta, tau in ((3.0, 0.3, 0.0, 1.0), (3.0, 1.0, 2.0, 3.0),
                                       (0.5, 0.5, 0.8, 0.7),
                                       (1.0, 0.3, math.pi / 2, 2.0),
                                       (2.0, 1.5, 1.0, 0.1), (4.0, 0.0, 0.0, 3.0))]
    worst = 0.0
    for closed, oracle, bath, tau in cases:
        want = oracle(tau, bath)
        worst = max(worst, abs(closed(tau, bath) - want) / abs(want))
    return worst


def check_montecarlo(trials: int = 100_000, seed: int = 11,
                     ) -> list[tuple[str, float, float]]:
    """(|mc - closed| in stderr units, absolute error) at sampled (n, q, tau)."""
    ns, points = (1, 2, 3, 4), ((0.1, 3.0), (1.0, 0.5), (10.0, 3.0))
    draws = [_montecarlo(ns, q, tau, trials, seed) for q, tau in points]
    out = []
    for k, n in enumerate(ns):
        for (q, tau), draw in zip(points, draws):
            mean, err = draw[k]
            dev = abs(mean - rtn_dn(n, q, tau))
            out.append((f"mc-dn(n={n},q={q},tau={tau})",
                        dev / err if err > 0 else 0.0, dev))
    return out


def run_validation(trials: int = 100_000, seed: int = 11,
                   ) -> list[tuple[bool, str]]:
    """Run all cross-check suites: one (passed, description) row per check."""
    mc = check_montecarlo(trials=trials, seed=seed)  # rejects bad arguments first
    rows = []
    for name, dev in check_golden_matrices():
        rows.append((dev <= 1e-12, f"golden/{name}: max deviation {dev:.2e}"))
    for name, dev in check_closed_forms():
        tol = 1e-6 if name.startswith("hss-fd") else 1e-10
        rows.append((dev <= tol, f"{name}: max deviation {dev:.2e}"))
    dev = check_gamma_closed_forms()
    rows.append((dev <= QUAD_EPSREL, "gamma-closed/quadrature: "
                 f"max rel deviation {dev:.2e} (tol {QUAD_EPSREL:g})"))
    for name, sigmas, err in mc:
        rows.append((sigmas <= 3.0 and err <= 5e-3,
                     f"{name}: {sigmas:.2f} sigma, |err| {err:.2e}"))
    return rows
