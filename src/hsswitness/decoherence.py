"""Environment response functions, all in closed form.

* ``gamma_thermal`` -- the accumulated dephasing exponent
  Gamma(t) = int J(w) coth(w / 2T) (1 - cos wt) / w^2 dw of a spin coupled
  to a thermal bosonic bath with the Ohmic-family spectral density
  J(w) = alpha w^s w_c^(1-s) e^(-w / w_c).
* ``gamma_squeezed`` -- the same for a squeezed vacuum reservoir, whose
  integrand carries the squeezing bracket ``cosh 2r - sinh 2r cos(wt - theta)``.
* ``rtn_dn`` -- the ensemble average ``<cos(n * theta(tau))>`` of the phase
  accumulated under random telegraph noise, in closed piecewise form.

Both bath integrals reduce to one kernel (Gradshteyn-Ryzhik 3.944), with
mu = s - 1 and b > 0:

    I_mu(b) = int w^(mu-1) e^(-bw) (1 - cos wt) dw
            = Gamma(mu) [b^-mu - Re (b - it)^-mu]
            = Gamma(s) b^-mu Re E(-mu, log(1 - it/b)),  E(nu, L) = expm1(nu L) / nu.

The expm1 form keeps small t free of cancellation, and E(0, L) = L gives
the s = 1 logarithm.  At T = 0, Gamma = alpha w_c^(1-s) I_mu(1/w_c); the
squeezing bracket adds the phase-shifted harmonics at wt and 2wt.  At
T > 0, coth(w / 2T) = 1 + 2 sum_n e^(-nw/T) turns Gamma into a sum of
kernels at b = 1/w_c + n/T, summed to n = 32 and closed by Euler-Maclaurin.
The panel quadrature of the same integrals is kept in ``validation`` as an
independent oracle.  Rounding stays near 1e-15 relative for s >= 0.3; it
grows like 1/s as s -> 0, and under squeezing with theta != 0 like
1e-15 / (w_c t) at small t, where the harmonics at wt and 2wt cancel to
first order.

The bath records these functions read are defined in ``scenarios``, with
their checks, and importable from here too.

Units: hbar = k_B = 1, frequencies in units of the system splitting omega_0.
RTN times are the scaled tau = nu * t.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InvalidParams
from .scenarios import (OhmicSpectralDensity, SqueezedBathParams,  # noqa: F401
                        ThermalBathParams)

#: |q - n| below which the degenerate closed form of D_n is used
RTN_SEAM = 1e-6
#: coth-series terms of the thermal bath summed before the Euler-Maclaurin tail
THERMAL_TERMS = 32


def _log1m_i(u):
    """log(1 - iu) for real u >= 0: accurate for small u, finite for huge u."""
    v, w = np.minimum(u, 1.0), np.maximum(u, 1.0)
    modulus = np.where(u <= 1.0, 0.5 * np.log1p(v * v),
                       np.log(w) + 0.5 * np.log1p((1.0 / w) ** 2))
    return modulus - 1j * np.arctan(u)


def _expm1_ratio(nu: float, L):
    """expm1(nu L) / nu for real nu and complex L, exactly L at nu = 0."""
    if nu == 0.0:
        return L
    x, y = nu * L.real, nu * L.imag
    return (np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2
            + 1j * np.exp(x) * np.sin(y)) / nu


def _kernel_sum(s: float, k: float, x):
    """sum_{n>=1} rho_n^(1-s) Re E(1-s, log(1 - i x / rho_n)), rho_n = 1 + n k.

    With k = omega_c / T this is the coth series of the thermal bath in
    units of Gamma(s).  THERMAL_TERMS terms are summed; the rest is closed
    by Euler-Maclaurin from n = N: the integral, f(N)/2 and the B_2, B_4,
    B_6 terms.  Each is a kernel of a neighbouring order, because
    d/db I_mu = -I_(mu+1) and int_b^inf I_mu = I_(mu-1).
    """
    n = np.arange(1, THERMAL_TERMS + 1)
    rho = 1.0 + n * k
    head = (rho ** (1.0 - s)
            * _expm1_ratio(1.0 - s, _log1m_i(x[..., None] / rho)).real).sum(-1)
    rho_n = 1.0 + (THERMAL_TERMS + 1) * k
    ic = k / rho_n  # 1 / (T b_N)
    u = x / rho_n
    L = _log1m_i(u)
    e0 = _expm1_ratio(1.0 - s, L)
    p3 = s * (s + 1.0) * (s + 2.0)
    p5 = p3 * (s + 3.0) * (s + 4.0)
    tail = ((_expm1_ratio(2.0 - s, L).real - e0.real - u * e0.imag) / ic
            + 0.5 * e0.real
            + s * ic / 12.0 * _expm1_ratio(-s, L).real
            - p3 * ic**3 / 720.0 * _expm1_ratio(-2.0 - s, L).real
            + p5 * ic**5 / 30240.0 * _expm1_ratio(-4.0 - s, L).real)
    return head + rho_n ** (1.0 - s) * tail


def _times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidParams("t must be >= 0")
    return t


def gamma_thermal(t, params: ThermalBathParams) -> float | np.ndarray:
    """Thermal-bath decoherence exponent at time(s) t >= 0.

    Gamma = int J(w) coth(w / 2T) (1 - cos wt) / w^2 dw in closed form:
    alpha Gamma(s) Re E(1-s, log(1 - i w_c t)) at T = 0, plus twice the
    coth series ``_kernel_sum`` at T > 0.  A float for scalar t, else an
    array of t's shape.
    """
    t = _times(t)
    J, T = params.spectral, params.temperature
    s, x = J.s_ohmic, t * J.omega_c
    total = _expm1_ratio(1.0 - s, _log1m_i(x)).real
    # the thermal terms scale like (T / w_c)^(s+1): below T = 1e-200 w_c
    # they vanish in double precision
    if T > 0.0 and J.omega_c / T < 1e200:
        total = total + 2.0 * _kernel_sum(s, J.omega_c / T, x)
    out = J.alpha * math.gamma(s) * total
    return float(out) if t.ndim == 0 else out


def gamma_squeezed(t, params: SqueezedBathParams) -> float | np.ndarray:
    """Squeezed-reservoir decoherence exponent at time(s) t >= 0.

    The squeezing bracket times (1 - cos wt) is
    cosh 2r (1 - cos wt) + sinh 2r [cos theta - cos(wt - theta)]
    - (sinh 2r / 2) [cos theta - cos(2wt - theta)], and each bracket is a
    phase-shifted kernel.  r = 0 gives the zero-temperature thermal value
    bit for bit.  A float for scalar t, else an array of t's shape.
    """
    t = _times(t)
    J = params.spectral
    s, x = J.s_ohmic, t * J.omega_c
    ch, sh = math.cosh(2.0 * params.r), math.sinh(2.0 * params.r)
    tilt = sh * cmath.exp(-1j * params.theta)
    e1 = _expm1_ratio(1.0 - s, _log1m_i(x))
    e2 = _expm1_ratio(1.0 - s, _log1m_i(2.0 * x))
    out = J.alpha * math.gamma(s) * ((ch + tilt) * e1 - 0.5 * tilt * e2).real
    return float(out) if t.ndim == 0 else out


def rtn_dn(n: int, q: float, tau) -> float | np.ndarray:
    """Closed-form telegraph-noise average D_n(tau) = <cos(n * theta(tau))>.

    Piecewise: hyperbolic for q > n, trigonometric for q < n, and the
    analytic degenerate limit exp(-q tau) (1 + q tau) on the q = n seam.
    The branch depends on (n, q) only, so a grid of tau >= 0 is one call;
    D_n(0) = 1.  A float for scalar tau, else an array of tau's shape.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParams("n must be a positive integer")
    t = np.asarray(tau, dtype=float)
    if not (0 <= q < math.inf and np.all((0 <= t) & (t < math.inf))):
        raise InvalidParams("q and tau must be finite and >= 0")
    out = np.ones(t.shape)
    moving = t > 0.0
    t = t[moving]
    if abs(q - n) < RTN_SEAM:
        out[moving] = np.exp(-q * t) * (1.0 + q * t)
    elif q > n:
        # q * q would overflow above q ~ 1.3e154
        xi = math.sqrt(q - n) * math.sqrt(q + n)
        # rewrite e^{-q tau} cosh/sinh in stable exponential form
        ep = np.exp(-n * n / (xi + q) * t)  # xi - q without cancellation
        em = np.exp((-xi - q) * t)
        out[moving] = 0.5 * (ep + em) + (q / xi) * 0.5 * (ep - em)
    else:
        xi = math.sqrt(n * n - q * q)
        out[moving] = np.exp(-q * t) * (np.cos(xi * t) + (q / xi) * np.sin(xi * t))
    return float(out) if out.ndim == 0 else out
