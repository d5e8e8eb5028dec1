"""Initial states and the damping factors of a scenario under pure dephasing.

A ``Scenario`` (a record of ``scenarios``) is a spin layout (one spin-s qudit
or a pair of spins) and its dephasing sources.  Every environment here is pure dephasing, so evolution
multiplies each matrix element by a real damping factor.  Element (n, m),
whose z labels differ by the integer vector Delta (one entry per spin), gets
one formula:

    exp(-Gamma(tau) * sum_bath (c . Delta)^2) * prod_rtn D_|c . Delta|(nu_ratio * tau)

with one integer coupling vector c per independent copy of the bath or of
the telegraph process, and D_0 := 1.  The paper's five kinds are the rows of
``scenarios.KINDS``, each with the figure parameters as defaults and its
coupling rows; ``scenarios.scenario(kind, **params)`` builds one.  The qubit couples to
telegraph noise via sigma_z = 2 S_z, hence its doubled winding, and the
common source's (2, 1) leaves opposite windings (the {|02>, |10>} block)
decoherence free.

``factor_matrix`` evaluates it, with its certificate, on a whole array of
tau: integer tables of sum_bath (c . Delta)^2 and |c . Delta| index one Gamma
and one D_1 ... D_max per time, with no Python loop over elements.  An
evolved state is rho0 o F(tau); ``witnesses.compute_series`` reads it as
that pair, and ``validation.evolve`` multiplies it out as the dense reference.
F is the Kronecker product of one factor per group of ``spin_groups``.

Dimensionless time conventions: tau = omega_0 * t for quantum baths,
tau = nu * t for telegraph-only scenarios, nu the telegraph coupling, so
that q is the switching rate per unit tau.  The composite scenario uses
tau = omega_0 * t and evaluates the telegraph averages at nu_ratio * tau.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .decoherence import gamma_squeezed, gamma_thermal, rtn_dn
from .errors import InvalidP, InvalidParams, UnsupportedScenario
from .hilbert import DensityMatrix
from .scenarios import Scenario, SpinLayout, ThermalBathParams


def bath_gamma(scenario: Scenario, tau) -> float | np.ndarray:
    """Quantum-bath decoherence exponent of the scenario at scaled time(s) tau."""
    bath = scenario.bath
    if bath is None:
        raise UnsupportedScenario("scenario has no quantum bath")
    if isinstance(bath, ThermalBathParams):
        return gamma_thermal(tau, bath)
    return gamma_squeezed(tau, bath)


# --- initial states ---------------------------------------------------------

def initial_pure(layout: SpinLayout, phi: float) -> DensityMatrix:
    """Uniform superposition with phase e^{i phi} on the first basis ket.

    A phase real to rounding, |Im e^{i phi}| <= 4 eps (phi = k pi, |k| <= 7,
    the default pi included), is taken as its real part, then exactly +-1:
    the state is held real, so its stacks run in float64.  The bound does not
    grow with |phi|: any other phase is np.exp(1j * phi) as it comes."""
    if not math.isfinite(phi):
        raise InvalidParams(f"phase phi must be finite, got {phi}")
    d = layout.dim
    phase = np.exp(1j * phi)
    if abs(phase.imag) <= 4 * np.finfo(float).eps:
        phase = phase.real
    amps = np.ones(d, dtype=complex) / np.sqrt(d)
    amps[0] *= phase
    return DensityMatrix(np.outer(amps, amps.conj()), layout.dims)


def initial_mixed(p: float) -> DensityMatrix:
    """One-parameter qubit-qutrit mixed state.

    Weights p/2 on |01> and |11>, p on (|00>+|12>)/sqrt(2), and 1-2p on
    (|02>+|10>)/sqrt(2); positivity requires 0 <= p <= 1/2.  Entangled for
    every p except p = 1/3.
    """
    if not 0.0 <= p <= 0.5:
        raise InvalidP(f"p={p} outside [0, 1/2]")
    rho = np.diag([p, p, 1.0 - 2.0 * p, 1.0 - 2.0 * p, p, p]) / 2.0 + 0j
    rho[0, 5] = rho[5, 0] = p / 2.0
    rho[2, 3] = rho[3, 2] = (1.0 - 2.0 * p) / 2.0
    return DensityMatrix(rho, (2, 3))


# --- dephasing factors -------------------------------------------------------

@lru_cache(maxsize=32)
def _coupling_tables(layout: SpinLayout, bath_couplings: tuple, rtn_couplings: tuple):
    """W = sum_bath (c . Delta)^2 and K = |c . Delta| (a (d, d) table per telegraph
    vector c), built once per layout and couplings and read-only.  Delta = z_n - z_m
    per spin; with z = s - digit it is digit_m - digit_n, the digits of each ket in
    the order of the tensor product."""
    digits = np.indices(layout.dims).reshape(len(layout.dims), -1)
    delta = digits[:, None, :] - digits[:, :, None]
    W, K = (np.tensordot(np.array(c, dtype=int).reshape(-1, len(delta)), delta, axes=1)
            for c in (bath_couplings, rtn_couplings))
    W, K = (W**2).sum(0), np.abs(K)
    W.flags.writeable = K.flags.writeable = False
    return W, K


def spin_groups(scenario: Scenario) -> tuple[tuple[int, ...], ...]:
    """The spins (indices) in groups that no coupling vector joins: two share a
    group when some bath or telegraph vector is nonzero on both."""
    groups = [{i} for i in range(len(scenario.layout.spins))]
    for c in scenario.bath_couplings + scenario.rtn_couplings:
        hit = [g for g in groups if any(c[i] for i in g)]
        groups = [g for g in groups if g not in hit] + [set().union(*hit)]
    return tuple(sorted(tuple(sorted(g)) for g in groups if g))


def factor_matrix(scenario: Scenario, tau) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise damping factors F at time(s) tau, (d, d) or tau's shape + (d, d),
    and per state whether F's own factors certify it PSD.

    F = exp(-Gamma W) * prod_rtn D_K with the integer tables W = sum_bath
    (c . Delta)^2 and K = |c . Delta|; Gamma and D_1 ... D_max K are evaluated
    once on all of tau.  F is the Schur product of one factor per copy: a bath
    copy's Gaussian kernel exp(-Gamma (c . Delta)^2), PSD if Gamma >= 0, and a
    telegraph copy's principal submatrix (indices repeated) of T = [D_|j-k|],
    j, k <= max K, PSD if T passes LDL^T with every pivot > 0, which also bounds
    each |D| by 1 (so F is finite where Gamma is).  That pass is exact for T + E,
    |E| ~ (max K)^2 eps as T_jj = 1, and F's entries add a few eps: a certified
    F / d has lambda_min >= about -1e-14 and passes checked_solve(F / d, eigvalsh)."""
    layout = scenario.layout
    t = np.asarray(tau, dtype=float)
    W, K = _coupling_tables(layout, scenario.bath_couplings, scenario.rtn_couplings)
    out = np.ones(t.shape + (layout.dim, layout.dim))
    certified = np.full(t.shape, True)
    if scenario.bath is not None:
        gamma = bath_gamma(scenario, t)
        out = np.exp(-np.multiply.outer(gamma, W))
        certified &= (gamma >= 0.0) & np.isfinite(gamma)
    if scenario.q is not None:
        D = np.stack([np.ones(t.shape)] + [rtn_dn(k, scenario.q, scenario.nu_ratio * t)
                                           for k in range(1, K.max() + 1)], axis=-1)
        for k in K:
            out = out * D[..., k]
        j = np.arange(D.shape[-1])
        T = np.moveaxis(D, -1, 0)[abs(j[:, None] - j)]  # states last; LDL^T in place
        with np.errstate(all="ignore"):  # a failed pivot may leave inf or nan
            for i in j[:-1]:
                T[i + 1:, i + 1:] -= T[i + 1:, i, None] * (T[i, i + 1:] / T[i, i])
        certified &= (T[j, j] > 0.0).all(0)  # the pivots
    return out, certified
