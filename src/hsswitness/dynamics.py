"""Evolved, phase-parameterized density matrices under pure dephasing.

A scenario pairs a spin layout (single spin-s qudit or qubit-qutrit) with an
environment model.  Every environment here is pure dephasing, so evolution is
an entrywise product of the initial matrix with a real damping factor
determined by the z quantum numbers of the element:

* independent squeezed/thermal baths: ``exp(-(dA^2 + dB^2) * gamma(t))``
* independent telegraph noise: ``D_|2 dA|(tau) * D_|dB|(tau)`` -- the qubit
  couples via sigma_z (eigenvalues +/-1), hence the effective splitting 2 dA
* common telegraph noise: ``D_|2 dA + dB|(tau)``, so opposite-winding
  coherences (the {|02>, |10>} block) are decoherence free
* composite: telegraph noise on the qubit, squeezed reservoir on the qutrit

with ``dA = nA - mA`` and ``dB = nB - mB`` in spin labels and ``D_0 := 1``.

Dimensionless time conventions: tau = omega_0 * t for quantum baths,
tau = nu * t for telegraph-only scenarios.  The composite scenario uses
tau = omega_0 * t and evaluates the telegraph averages at nu_ratio * tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .decoherence import (RtnParams, SqueezedBathParams, ThermalBathParams,
                          gamma_squeezed, gamma_thermal, rtn_dn)
from .errors import InvalidP, InvalidParams, UnsupportedScenario
from .hilbert import DensityMatrix, PhiFamily


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


# --- environment models ------------------------------------------------------
# Each kind carries its facts as class data: the topology of its closed forms,
# whether it needs the qubit-qutrit layout, its quantum bath (None for pure
# telegraph noise) and nu_ratio, the telegraph clock in units of tau.

@dataclass(frozen=True)
class ThermalOhmic:
    bath: ThermalBathParams
    topology: ClassVar[str] = "independent"
    needs_qubit_qutrit: ClassVar[bool] = False
    nu_ratio: ClassVar[float] = 1


@dataclass(frozen=True)
class SqueezedVacuum:
    bath: SqueezedBathParams
    topology: ClassVar[str] = "independent"
    needs_qubit_qutrit: ClassVar[bool] = False
    nu_ratio: ClassVar[float] = 1


@dataclass(frozen=True)
class RtnIndependent:
    rtn: RtnParams
    topology: ClassVar[str] = "independent"
    needs_qubit_qutrit: ClassVar[bool] = True
    bath: ClassVar[None] = None
    nu_ratio: ClassVar[float] = 1


@dataclass(frozen=True)
class RtnCommon:
    rtn: RtnParams
    topology: ClassVar[str] = "common"
    needs_qubit_qutrit: ClassVar[bool] = True
    bath: ClassVar[None] = None
    nu_ratio: ClassVar[float] = 1


@dataclass(frozen=True)
class CompositeRtnSqueezed:
    """Telegraph noise on the qubit, squeezed reservoir on the qutrit.

    nu_ratio = nu / omega_0 converts the shared dimensionless time
    tau = omega_0 t to the telegraph time nu t.
    """

    rtn: RtnParams
    bath: SqueezedBathParams
    nu_ratio: float = 100.0
    topology: ClassVar[str] = "composite"
    needs_qubit_qutrit: ClassVar[bool] = True

    def __post_init__(self):
        if not self.nu_ratio > 0:
            raise InvalidParams("nu_ratio must be > 0")


@dataclass(frozen=True)
class Scenario:
    layout: SpinLayout
    environment: object

    def __post_init__(self):
        env = self.environment
        needs_qq = getattr(env, "needs_qubit_qutrit", None)
        if needs_qq is None:
            raise UnsupportedScenario(f"unknown environment {type(env).__name__}")
        if self.layout.dims != (2, 3):
            if needs_qq:
                raise UnsupportedScenario(
                    "telegraph-noise scenarios require the qubit-qutrit layout")
            if len(self.layout.spins) == 2:
                raise UnsupportedScenario("bipartite layouts are qubit-qutrit only")

    @property
    def topology(self) -> str:
        return self.environment.topology


@lru_cache(maxsize=None)
def _gamma_cached(bath, t: float) -> float:
    if isinstance(bath, ThermalBathParams):
        return gamma_thermal(t, bath)
    return gamma_squeezed(t, bath)


def bath_gamma(scenario: Scenario, tau: float) -> float:
    """Quantum-bath decoherence exponent of the scenario at scaled time tau."""
    bath = scenario.environment.bath
    if bath is None:
        raise UnsupportedScenario("scenario has no quantum bath")
    return _gamma_cached(bath, tau)


def rtn_tau(scenario: Scenario, tau: float) -> float:
    return scenario.environment.nu_ratio * tau


def _dn(q: float, k: int, tau: float) -> float:
    return 1.0 if k == 0 else rtn_dn(k, q, tau)


# --- initial states ---------------------------------------------------------

def initial_pure(layout: SpinLayout, phi: float) -> PhiFamily:
    """Uniform superposition with phase e^{i phi} on the first basis ket."""
    d = layout.dim
    amps = np.ones(d, dtype=complex) / np.sqrt(d)
    amps[0] *= np.exp(1j * phi)
    rho = np.outer(amps, amps.conj())
    mask = np.zeros((d, d), dtype=int)
    mask[0, 1:] = 1
    mask[1:, 0] = -1
    return PhiFamily(base=DensityMatrix(rho, layout.dims),
                     phase_mask=mask, phi_ref=phi)


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

def element_factor(scenario: Scenario, nA: float, mA: float,
                   nB: float, mB: float, tau: float) -> float:
    """Damping factor of the (nA nB, mA mB) matrix element at time tau."""
    dA = nA - mA
    dB = nB - mB
    env = scenario.environment
    if isinstance(env, (ThermalOhmic, SqueezedVacuum)):
        g = bath_gamma(scenario, tau)
        return float(np.exp(-(dA**2 + dB**2) * g))
    q = env.rtn.q
    kA = abs(int(round(2 * dA)))
    kB = abs(int(round(dB)))
    if isinstance(env, RtnIndependent):
        tr = rtn_tau(scenario, tau)
        return _dn(q, kA, tr) * _dn(q, kB, tr)
    if isinstance(env, RtnCommon):
        k = abs(int(round(2 * dA + dB)))
        return _dn(q, k, rtn_tau(scenario, tau))
    if isinstance(env, CompositeRtnSqueezed):
        g = bath_gamma(scenario, tau)
        return _dn(q, kA, rtn_tau(scenario, tau)) * float(np.exp(-dB**2 * g))
    raise UnsupportedScenario(type(env).__name__)


def factor_matrix(scenario: Scenario, tau: float) -> np.ndarray:
    """Entrywise damping factors for the scenario at time tau."""
    layout = scenario.layout
    if len(layout.spins) == 1:
        labels = layout.z_labels(0)
        dn = labels[:, None] - labels[None, :]
        return np.exp(-dn**2 * bath_gamma(scenario, tau))
    a = layout.z_labels(0)
    b = layout.z_labels(1)
    dA, dB = layout.dims
    out = np.empty((dA * dB, dA * dB))
    for i in range(dA * dB):
        iA, iB = divmod(i, dB)
        for j in range(i, dA * dB):
            jA, jB = divmod(j, dB)
            f = element_factor(scenario, a[iA], a[jA], b[iB], b[jB], tau)
            out[i, j] = out[j, i] = f
    return out


def evolve(scenario: Scenario, initial, tau: float):
    """Entrywise dephasing of a PhiFamily or DensityMatrix at time tau."""
    factor = factor_matrix(scenario, tau)
    if isinstance(initial, PhiFamily):
        return PhiFamily(
            base=DensityMatrix(initial.base.matrix * factor, initial.base.dims),
            phase_mask=initial.phase_mask, phi_ref=initial.phi_ref)
    if isinstance(initial, DensityMatrix):
        return DensityMatrix(initial.matrix * factor, initial.dims)
    raise TypeError(f"cannot evolve {type(initial).__name__}")


def mixed_coherence_factor(scenario: Scenario, tau: float) -> float:
    """The scalar F damping the mixed state's coherences: the |00><12| entry.

    F = exp(-5 gamma) for independent baths, D_2^2 for independent
    telegraph noise, D_4 for a common telegraph source, and
    D_2 * exp(-4 gamma) in the composite scenario.
    """
    if scenario.layout.dims != (2, 3):
        raise UnsupportedScenario("F is defined for the qubit-qutrit layout only")
    return float(factor_matrix(scenario, tau)[0, 5])
