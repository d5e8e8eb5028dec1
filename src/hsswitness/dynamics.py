"""Evolved density matrices under pure dephasing.

A scenario pairs a spin layout (one spin-s qudit or a pair of spins) with an
:class:`Environment`.  Every environment here is pure dephasing, so evolution
multiplies each matrix element by a real damping factor.  Element (n, m),
whose z labels differ by the integer vector Delta (one entry per spin), gets
one formula:

    exp(-Gamma(tau) * sum_bath (c . Delta)^2) * prod_rtn D_|c . Delta|(nu_ratio * tau)

with one integer coupling vector c per independent copy of the bath or of
the telegraph process, and D_0 := 1.  The paper's kinds are rows of couplings:

* thermal or squeezed baths on each spin: (1,), or (1, 0) and (0, 1);
* independent telegraph noise: (2, 0) and (0, 1) -- the qubit couples via
  sigma_z = 2 S_z, hence its doubled winding;
* common telegraph noise: (2, 1), so opposite windings (the {|02>, |10>}
  block) are decoherence free;
* composite: telegraph noise on (2, 0), squeezed reservoir on (0, 1).

Dimensionless time conventions: tau = omega_0 * t for quantum baths,
tau = nu * t for telegraph-only scenarios.  The composite scenario uses
tau = omega_0 * t and evaluates the telegraph averages at nu_ratio * tau.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .decoherence import (RtnParams, SqueezedBathParams, ThermalBathParams,
                          gamma_squeezed, gamma_thermal, rtn_dn)
from .errors import InvalidP, InvalidParams, UnsupportedScenario
from .hilbert import DensityMatrix


@dataclass(frozen=True)
class SpinLayout:
    """Ordered subsystem spins; each spin s contributes 2s+1 levels."""

    spins: tuple

    def __post_init__(self):
        if not self.spins:
            raise InvalidParams("layout needs at least one spin")
        spins = []
        for s in self.spins:
            f = Fraction(s).limit_denominator(2)
            if f != Fraction(s) or f <= 0:
                raise InvalidParams(f"spin {s} is not a positive half-integer")
            spins.append(f)
        object.__setattr__(self, "spins", tuple(spins))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(int(2 * s) + 1 for s in self.spins)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def z_labels(self, k: int) -> np.ndarray:
        """z eigenvalues [s, s-1, ..., -s] of subsystem k."""
        s = float(self.spins[k])
        return s - np.arange(self.dims[k])


QUBIT_QUTRIT = SpinLayout((Fraction(1, 2), Fraction(1)))


# --- environments -------------------------------------------------------------

def _integer_vector(c) -> tuple[int, ...]:
    try:
        v = tuple(int(x) for x in c)
        ok = v == tuple(c)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidParams(f"coupling {c!r} is not an integer vector")
    return v


@dataclass(frozen=True)
class Environment:
    """What the dephasing formula reads: its sources and their couplings.

    ``bath`` (thermal or squeezed) acts once on each vector of
    ``bath_couplings``, as independent copies; ``rtn`` likewise on each
    vector of ``rtn_couplings``.  A coupling vector holds one integer per
    spin.  ``nu_ratio`` is the telegraph clock: telegraph time per unit tau.
    """

    bath: ThermalBathParams | SqueezedBathParams | None = None
    bath_couplings: tuple = ()
    rtn: RtnParams | None = None
    rtn_couplings: tuple = ()
    nu_ratio: float = 1.0

    def __post_init__(self):
        bath_c = tuple(_integer_vector(c) for c in self.bath_couplings)
        rtn_c = tuple(_integer_vector(c) for c in self.rtn_couplings)
        if (self.bath is None) != (not bath_c) or (self.rtn is None) != (not rtn_c):
            raise InvalidParams("a source needs coupling vectors, and a "
                                "coupling vector needs its source")
        if not (bath_c or rtn_c):
            raise InvalidParams("an environment needs at least one coupling")
        if not 0 < self.nu_ratio < math.inf:
            raise InvalidParams("nu_ratio must be finite and > 0")
        object.__setattr__(self, "bath_couplings", bath_c)
        object.__setattr__(self, "rtn_couplings", rtn_c)


@dataclass(frozen=True)
class Scenario:
    layout: SpinLayout
    environment: Environment

    def __post_init__(self):
        n = len(self.layout.spins)
        if n > 2:
            raise UnsupportedScenario(f"a layout holds one or two spins, not {n}")
        env = self.environment
        for c in env.bath_couplings + env.rtn_couplings:
            if len(c) != n:
                raise UnsupportedScenario(
                    f"coupling {c} does not fit a layout of {n} spin(s)")


def bath_gamma(scenario: Scenario, tau: float) -> float:
    """Quantum-bath decoherence exponent of the scenario at scaled time tau."""
    bath = scenario.environment.bath
    if bath is None:
        raise UnsupportedScenario("scenario has no quantum bath")
    if isinstance(bath, ThermalBathParams):
        return gamma_thermal(tau, bath)
    return gamma_squeezed(tau, bath)


# --- initial states ---------------------------------------------------------

def initial_pure(layout: SpinLayout, phi: float) -> DensityMatrix:
    """Uniform superposition with phase e^{i phi} on the first basis ket."""
    d = layout.dim
    amps = np.ones(d, dtype=complex) / np.sqrt(d)
    amps[0] *= np.exp(1j * phi)
    return DensityMatrix(np.outer(amps, amps.conj()), layout.dims)


def _bell_like(i: int, j: int) -> np.ndarray:
    v = np.zeros(6, dtype=complex)
    v[i] = v[j] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def initial_mixed(p: float) -> DensityMatrix:
    """One-parameter qubit-qutrit mixed state.

    Weights p/2 on |01> and |11>, p on (|00>+|12>)/sqrt(2), and 1-2p on
    (|02>+|10>)/sqrt(2); positivity requires 0 <= p <= 1/2.  Entangled for
    every p except p = 1/3.
    """
    if not 0.0 <= p <= 0.5:
        raise InvalidP(f"p={p} outside [0, 1/2]")
    rho = np.zeros((6, 6), dtype=complex)
    rho[1, 1] += p / 2.0
    rho[4, 4] += p / 2.0
    rho += p * _bell_like(0, 5)
    rho += (1.0 - 2.0 * p) * _bell_like(2, 3)
    return DensityMatrix(rho, (2, 3))


# --- dephasing factors -------------------------------------------------------

def _winding(c: tuple, delta: tuple) -> float:
    return sum(map(operator.mul, c, delta))


def element_factor(scenario: Scenario, delta: tuple, tau: float,
                   gamma: float | None = None) -> float:
    """Damping factor of a matrix element whose z labels differ by ``delta``.

    exp(-gamma * sum_bath (c . delta)^2) * prod_rtn D_|c . delta|(nu_ratio tau),
    with D_0 = 1.  ``gamma`` is the bath exponent at tau, when the caller
    has it already.
    """
    env = scenario.environment
    f = 1.0
    if env.bath is not None:
        if gamma is None:
            gamma = bath_gamma(scenario, tau)
        windings = sum(_winding(c, delta) ** 2 for c in env.bath_couplings)
        f = float(np.exp(-windings * gamma))
    for c in env.rtn_couplings:
        k = abs(int(round(_winding(c, delta))))
        if k:
            f *= rtn_dn(k, env.rtn.q, env.nu_ratio * tau)
    return f


def factor_matrix(scenario: Scenario, tau: float) -> np.ndarray:
    """Entrywise damping factors for the scenario at time tau.

    The bath exponent, if the scenario has a bath, is evaluated once here.
    """
    layout = scenario.layout
    g = None if scenario.environment.bath is None else bath_gamma(scenario, tau)
    # the z labels of each basis ket, in the order of the tensor product
    kets = list(itertools.product(*map(layout.z_labels, range(len(layout.spins)))))
    d = len(kets)
    out = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            delta = tuple(a - b for a, b in zip(kets[i], kets[j]))
            out[i, j] = out[j, i] = element_factor(scenario, delta, tau, g)
    return out


def evolve(scenario: Scenario, rho: DensityMatrix, tau: float) -> DensityMatrix:
    """Entrywise dephasing of a state of the scenario's layout at time tau."""
    if rho.dims != scenario.layout.dims:
        raise UnsupportedScenario(
            f"state dims {rho.dims} do not match the layout {scenario.layout.dims}")
    return DensityMatrix(rho.matrix * factor_matrix(scenario, tau), rho.dims)


def mixed_coherence_factor(scenario: Scenario, tau: float) -> float:
    """The scalar F damping the mixed state's coherences: the |00><12| entry.

    F = exp(-5 gamma) for independent baths, D_2^2 for independent
    telegraph noise, D_4 for a common telegraph source, and
    D_2 * exp(-4 gamma) in the composite scenario.
    """
    if scenario.layout.dims != (2, 3):
        raise UnsupportedScenario("F is defined for the qubit-qutrit layout only")
    return float(factor_matrix(scenario, tau)[0, 5])
