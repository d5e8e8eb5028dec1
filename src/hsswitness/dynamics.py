"""Scenarios, initial states and their damping factors under pure dephasing.

A :class:`Scenario` is a spin layout (one spin-s qudit or a pair of spins) and
its dephasing sources.  Every environment here is pure dephasing, so evolution
multiplies each matrix element by a real damping factor.  Element (n, m),
whose z labels differ by the integer vector Delta (one entry per spin), gets
one formula:

    exp(-Gamma(tau) * sum_bath (c . Delta)^2) * prod_rtn D_|c . Delta|(nu_ratio * tau)

with one integer coupling vector c per independent copy of the bath or of
the telegraph process, and D_0 := 1.  The paper's five kinds are the rows of
``KINDS``, each with the figure parameters as defaults and its coupling
rows; ``scenario(kind, **params)`` builds one.  The qubit couples to
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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .decoherence import (OhmicSpectralDensity, SqueezedBathParams,
                          ThermalBathParams, gamma_squeezed, gamma_thermal,
                          rtn_dn)
from .errors import InvalidP, InvalidParams, UnsupportedScenario
from .hilbert import DensityMatrix


@dataclass(frozen=True)
class SpinLayout:
    """Ordered subsystem spins; spin s contributes 2s+1 levels (``dims``, set once)."""

    spins: tuple
    dims: tuple = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "dims", tuple(int(2 * s) + 1 for s in spins))
        object.__setattr__(self, "dim", math.prod(self.dims))


QUBIT_QUTRIT = SpinLayout((Fraction(1, 2), Fraction(1)))


# --- scenarios ----------------------------------------------------------------

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
class Scenario:
    """A spin layout and what the dephasing formula reads: sources and couplings.

    ``bath`` (thermal or squeezed) acts once on each vector of
    ``bath_couplings``, as independent copies; telegraph noise switching at
    rate ``q`` per unit of telegraph time likewise on each vector of
    ``rtn_couplings``.  q = gamma / nu, switching rate over coupling,
    separates fast (q >> 1, memoryless) from slow (q << 1, memory-bearing)
    noise.  A coupling vector holds one integer per spin.  ``nu_ratio`` is
    the telegraph clock: telegraph time per unit tau.
    """

    layout: SpinLayout
    bath: ThermalBathParams | SqueezedBathParams | None = None
    bath_couplings: tuple = ()
    q: float | None = None
    rtn_couplings: tuple = ()
    nu_ratio: float = 1.0

    def __post_init__(self):
        if self.q is not None and not 0 <= self.q < math.inf:
            raise InvalidParams("switching rate must be finite and >= 0")
        bath_c = tuple(_integer_vector(c) for c in self.bath_couplings)
        rtn_c = tuple(_integer_vector(c) for c in self.rtn_couplings)
        if (self.bath is None) != (not bath_c) or (self.q is None) != (not rtn_c):
            raise InvalidParams("a source needs coupling vectors, and a "
                                "coupling vector needs its source")
        if not (bath_c or rtn_c):
            raise InvalidParams("an environment needs at least one coupling")
        if not 0 < self.nu_ratio < math.inf:
            raise InvalidParams("nu_ratio must be finite and > 0")
        n = len(self.layout.spins)
        if n > 2:
            raise UnsupportedScenario(f"a layout holds one or two spins, not {n}")
        for c in bath_c + rtn_c:
            if len(c) != n:
                raise UnsupportedScenario(
                    f"coupling {c} does not fit a layout of {n} spin(s)")
        object.__setattr__(self, "bath_couplings", bath_c)
        object.__setattr__(self, "rtn_couplings", rtn_c)


def bath_gamma(scenario: Scenario, tau) -> float | np.ndarray:
    """Quantum-bath decoherence exponent of the scenario at scaled time(s) tau."""
    bath = scenario.bath
    if bath is None:
        raise UnsupportedScenario("scenario has no quantum bath")
    if isinstance(bath, ThermalBathParams):
        return gamma_thermal(tau, bath)
    return gamma_squeezed(tau, bath)


# --- the paper's scenario kinds ------------------------------------------------

_BATH = {"alpha": 0.1, "s_ohmic": 3.0, "omega_c": 20.0}
_SQUEEZING = {"r": 0.3, "theta": 0.0}

#: kind -> (keys with their defaults, the figure parameters; bath coupling rows;
#: telegraph coupling rows), rows for the qubit-qutrit pair.  ``spin`` (default
#: None, the pair, and kept last) selects a single spin-s qudit with one bath copy.
KINDS = {
    "squeezed": ({**_BATH, **_SQUEEZING, "spin": None}, ((1, 0), (0, 1)), ()),
    "thermal": ({**_BATH, "temperature": 0.0, "spin": None}, ((1, 0), (0, 1)), ()),
    "rtn_independent": ({"q": 0.1}, (), ((2, 0), (0, 1))),
    "rtn_common": ({"q": 0.1}, (), ((2, 1),)),
    "composite": ({**_BATH, **_SQUEEZING, "q": 0.1, "nu_ratio": 100.0},
                  ((0, 1),), ((2, 0),)),
}


def scenario(kind: str, number=None, /, **params) -> Scenario:
    """The scenario of ``kind``, a key of KINDS, with ``params`` over its defaults.

    ``number(key, value)``, if given, converts each value of ``params`` in the
    order of the defaults, after the kind and the keys are checked."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise InvalidParams(f"unknown scenario kind {kind!r}")
    defaults, bath_c, rtn_c = KINDS[kind]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise InvalidParams(f"unknown key(s) {unknown} for kind {kind!r}")
    convert = number or (lambda key, value: value)
    kw = {k: convert(k, params[k]) if k in params else v for k, v in defaults.items()}
    layout = QUBIT_QUTRIT
    if kw.get("spin") is not None:
        layout, bath_c = SpinLayout((kw["spin"],)), ((1,),)
    bath = None
    if bath_c:
        J = OhmicSpectralDensity(kw["alpha"], kw["s_ohmic"], kw["omega_c"])
        bath = (ThermalBathParams(J, kw["temperature"]) if "temperature" in kw
                else SqueezedBathParams(J, kw["r"], kw["theta"]))
    return Scenario(layout, bath, bath_c, kw["q"] if rtn_c else None, rtn_c,
                    kw.get("nu_ratio", 1.0))


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
