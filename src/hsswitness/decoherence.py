"""Environment response functions.

Three families of decoherence functions are evaluated here:

* ``gamma_thermal`` -- the accumulated dephasing exponent of a spin coupled
  to a thermal bosonic bath with an Ohmic-like spectral density, computed by
  adaptive quadrature.
* ``gamma_squeezed`` -- the same for a squeezed vacuum reservoir, whose
  integrand carries the squeezing bracket ``cosh 2r - sinh 2r cos(wt - theta)``.
* ``rtn_dn`` -- the ensemble average ``<cos(n * theta(tau))>`` of the phase
  accumulated under random telegraph noise, in closed piecewise form, plus a
  seeded Monte-Carlo trajectory oracle ``rtn_dn_montecarlo``.

Units: hbar = k_B = 1, frequencies in units of the system splitting omega_0.
RTN times are the scaled tau = nu * t.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, QuadratureNonConvergent

#: truncation of the frequency integrals, in units of the cutoff omega_c
OMEGA_MAX_CUTOFFS = 50.0
#: required bound on the integrand at the truncation point
TAIL_BOUND = 1e-14
#: |q - n| below which the degenerate closed form of D_n is used
RTN_SEAM = 1e-6

QUAD_EPSREL = 1e-8
QUAD_EPSABS = 1e-14


@dataclass(frozen=True)
class OhmicSpectralDensity:
    """J(w) = alpha * w^s / w_c^(s-1) * exp(-w / w_c)."""

    alpha: float
    s_ohmic: float
    omega_c: float

    def __post_init__(self):
        if self.alpha < 0:
            raise InvalidParams("alpha must be >= 0")
        if self.s_ohmic <= 0:
            raise InvalidParams("Ohmic exponent must be > 0")
        if self.omega_c <= 0:
            raise InvalidParams("cutoff frequency must be > 0")


@dataclass(frozen=True)
class ThermalBathParams:
    spectral: OhmicSpectralDensity
    temperature: float = 0.0

    def __post_init__(self):
        if self.temperature < 0:
            raise InvalidParams("temperature must be >= 0")


@dataclass(frozen=True)
class SqueezedBathParams:
    spectral: OhmicSpectralDensity
    r: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise InvalidParams("squeezing amplitude must be >= 0")


@dataclass(frozen=True)
class RtnParams:
    """Telegraph noise with coupling nu and switching rate gamma_rate.

    q = gamma_rate / nu separates fast (q >> 1, memoryless) from slow
    (q << 1, memory-bearing) noise.
    """

    nu: float = 1.0
    gamma_rate: float = 0.0

    def __post_init__(self):
        if self.nu <= 0:
            raise InvalidParams("nu must be > 0")
        if self.gamma_rate < 0:
            raise InvalidParams("switching rate must be >= 0")

    @property
    def q(self) -> float:
        return self.gamma_rate / self.nu


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


def gamma_thermal(t: float, params: ThermalBathParams) -> float:
    """Thermal-bath decoherence exponent at time t (>= 0).

    Integrates J(w) * coth(w / 2T) * (1 - cos(w t)) / w^2 over w > 0.
    T = 0 is allowed (coth -> 1).
    """
    if t < 0:
        raise InvalidParams("t must be >= 0")
    if t == 0.0:
        return 0.0
    J = params.spectral
    T = params.temperature

    def coth_half(omega):
        if T == 0.0:
            return 1.0
        x = np.minimum(omega / (2.0 * T), 30.0)
        return 1.0 / np.tanh(x)

    def J_vec(omega):
        return (J.alpha * omega**J.s_ohmic / J.omega_c ** (J.s_ohmic - 1.0)
                * np.exp(-omega / J.omega_c))

    def f(omega):
        return J_vec(omega) * coth_half(omega) * (1.0 - np.cos(omega * t)) / omega**2

    def tail(omega):
        return float(J_vec(omega) * coth_half(omega) * 2.0 / omega**2)

    return _integrate(f, t, J.omega_c, tail)


def gamma_squeezed(t: float, params: SqueezedBathParams) -> float:
    """Squeezed-reservoir decoherence exponent at time t (>= 0).

    Integrates J(w) * (1 - cos(w t)) / w^2
    * [cosh(2r) - sinh(2r) * cos(w t - theta)].  r = 0 reduces to the
    zero-temperature thermal case.
    """
    if t < 0:
        raise InvalidParams("t must be >= 0")
    if t == 0.0:
        return 0.0
    J = params.spectral
    ch, sh = math.cosh(2.0 * params.r), math.sinh(2.0 * params.r)
    th = params.theta

    def J_vec(omega):
        return (J.alpha * omega**J.s_ohmic / J.omega_c ** (J.s_ohmic - 1.0)
                * np.exp(-omega / J.omega_c))

    def f(omega):
        bracket = ch - sh * np.cos(omega * t - th)
        return J_vec(omega) * (1.0 - np.cos(omega * t)) / omega**2 * bracket

    def tail(omega):
        return float(J_vec(omega) * 2.0 * (ch + sh) / omega**2)

    return _integrate(f, t, J.omega_c, tail)


def rtn_dn(n: int, q: float, tau: float) -> float:
    """Closed-form telegraph-noise average D_n(tau) = <cos(n * theta(tau))>.

    Piecewise: hyperbolic for q > n, trigonometric for q < n, and the
    analytic degenerate limit exp(-q tau) (1 + q tau) on the q = n seam.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParams("n must be a positive integer")
    if q < 0 or tau < 0:
        raise InvalidParams("q and tau must be >= 0")
    if tau == 0.0:
        return 1.0
    if abs(q - n) < RTN_SEAM:
        return math.exp(-q * tau) * (1.0 + q * tau)
    if q > n:
        xi = math.sqrt(q * q - n * n)
        # rewrite e^{-q tau} cosh/sinh in stable exponential form
        ep = math.exp((xi - q) * tau)
        em = math.exp((-xi - q) * tau)
        return 0.5 * (ep + em) + (q / xi) * 0.5 * (ep - em)
    xi = math.sqrt(n * n - q * q)
    return math.exp(-q * tau) * (math.cos(xi * tau)
                                 + (q / xi) * math.sin(xi * tau))


_MC_CHUNK = 20_000


def _mc_chunk(n: int, q: float, tau: float, m: int,
              rng: np.random.Generator) -> tuple[float, float]:
    """Sum and sum of squares of cos(n * theta) over m trajectories."""
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


def rtn_dn_montecarlo(n: int, q: float, tau: float, trials: int,
                      seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, stderr) of <cos(n * theta(tau))>.

    Telegraph trajectories flip between +/-1 at rate q (in tau units) with
    an equiprobable initial sign; theta(tau) is accumulated exactly between
    exponential flip times.  Trials are processed in fixed-size chunks, each
    with a seed derived from (seed, chunk index), so the result is
    deterministic independent of the worker count.  Set the environment
    variable HSSWITNESS_WORKERS to parallelize over chunks.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParams("n must be a positive integer")
    if q < 0 or tau < 0:
        raise InvalidParams("q and tau must be >= 0")
    if trials < 100:
        raise InvalidParams("trials must be >= 100")

    sizes = [_MC_CHUNK] * (trials // _MC_CHUNK)
    if trials % _MC_CHUNK:
        sizes.append(trials % _MC_CHUNK)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))

    def work(args):
        m, ss = args
        return _mc_chunk(n, q, tau, m, np.random.default_rng(ss))

    workers = int(os.environ.get("HSSWITNESS_WORKERS", "1"))
    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, zip(sizes, seeds)))
    else:
        parts = [work(a) for a in zip(sizes, seeds)]

    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    mean = s1 / trials
    var = max(s2 - s1 * s1 / trials, 0.0) / (trials - 1)
    stderr = math.sqrt(var / trials)
    return mean, stderr

