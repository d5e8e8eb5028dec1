"""Independent correctness oracles for the benchmark.

Nothing here calls the code under test except the literal golden tables in
``hsswitness.validation`` and the closed-form mixed-state witnesses, which
the checks feed with values computed here.  Every check returns a
``(name, deviation, tolerance)`` triple; a check fails when the deviation
exceeds the tolerance (or is not finite).

Tolerances are fixed here, before any run:

* ``QUAD_EPSREL`` -- the library's stated quadrature target at the seed;
  bath Γ must match the closed form to it.
* ``TOL_BATH`` -- witnesses built from a quadrature Γ inherit its relative
  error (up to ~5 Γ * QUAD_EPSREL on the 6x6 entries).
* ``TOL_CLOSED`` -- witnesses built from closed forms on both sides.
* ``TOL_CSV`` -- values read back from 12-significant-digit CSV output.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

QUAD_EPSREL = 1e-8
TOL_BATH = 1e-7
TOL_CLOSED = 1e-10
TOL_CSV = 1e-10
RTN_SEAM = 1e-6


# --- decoherence functions ----------------------------------------------------

def gamma_zero_temperature(tau, alpha, s_ohmic, omega_c, r=0.0, theta=0.0):
    """Γ(τ) at T = 0 for the squeezed (r > 0) or plain (r = 0) Ohmic bath.

    The squeezing bracket times (1 - cos ωτ) expands into cos(kωτ - φ)
    terms with k = 0, 1, 2; each is integrated with Gradshteyn-Ryzhik
    3.944: ∫ ω^(μ-1) e^(-βω) cos(δω - φ) dω = Re[e^(-iφ) Γ(μ) (β - iδ)^(-μ)]
    with μ = s - 1 and β = 1/ω_c.  Valid (by continuation) for μ > -1, μ ≠ 0.
    """
    if tau == 0.0:
        return 0.0
    mu = s_ohmic - 1.0
    if mu == 0.0:
        raise ValueError("the s = 1 logarithmic limit is not implemented")
    beta = 1.0 / omega_c
    gmu = math.gamma(mu)

    def term(delta, phase):
        return (cmath.exp(-1j * phase) * gmu * (beta - 1j * delta) ** (-mu)).real

    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    total = ((ch + 0.5 * sh * math.cos(theta)) * term(0.0, 0.0)
             - ch * term(tau, 0.0)
             - sh * term(tau, theta)
             + 0.5 * sh * term(2.0 * tau, theta))
    return alpha * omega_c ** (1.0 - s_ohmic) * total


def gamma_thermal_quad(tau, alpha, s_ohmic, omega_c, temperature):
    """Γ(τ) at T > 0 by ``scipy.integrate.quad``.

    The first half-period [0, π/τ] is integrated directly with
    2 sin²(ωτ/2) in place of 1 - cos ωτ; the rest splits into a plain
    integral and a QAWO cosine-weighted one.  The cutoff is 60 ω_c.
    """
    from scipy import integrate
    if tau == 0.0:
        return 0.0

    def g(w):
        return (alpha * w ** (s_ohmic - 2.0) * omega_c ** (1.0 - s_ohmic)
                * math.exp(-w / omega_c) / math.tanh(w / (2.0 * temperature)))

    top = 60.0 * omega_c
    split = min(math.pi / tau, top)
    kw = dict(epsabs=1e-15, epsrel=1e-12, limit=1000)
    head = integrate.quad(lambda w: g(w) * 2.0 * math.sin(0.5 * w * tau) ** 2,
                          0.0, split, **kw)[0]
    if split >= top:
        return head
    flat = integrate.quad(g, split, top, **kw)[0]
    osc = integrate.quad(g, split, top, weight="cos", wvar=tau, **kw)[0]
    return head + flat - osc


def dn(n, q, tau):
    """Telegraph average D_n(τ) = <cos nθ(τ)>, one complex formula.

    D_n = e^(-qτ) [cosh ξτ + (q/ξ) sinh ξτ] with ξ = sqrt(q² - n²) taken
    complex, so one expression covers q > n and q < n; |q - n| < RTN_SEAM
    uses the degenerate limit e^(-qτ)(1 + qτ).  D_0 = 1.
    """
    if n == 0 or tau == 0.0:
        return 1.0
    if abs(q - n) < RTN_SEAM:
        return math.exp(-q * tau) * (1.0 + q * tau)
    xi = cmath.sqrt(q * q - n * n)
    val = cmath.exp(-q * tau) * (cmath.cosh(xi * tau)
                                 + q / xi * cmath.sinh(xi * tau))
    return val.real


# --- states and witnesses -------------------------------------------------------

_PHASE_MASK = np.zeros((6, 6))
_PHASE_MASK[0, 1:] = 1.0
_PHASE_MASK[1:, 0] = -1.0


def hss_of(matrix):
    """HSS of the phase-encoded pure family whose member at φ is ``matrix``."""
    d = 1j * _PHASE_MASK * matrix
    return math.sqrt(max(np.trace(d @ d).real / 2.0, 0.0))


def negativity_pt(matrix):
    """Negativity by an explicit qubit partial transpose and eigensolve."""
    r = np.asarray(matrix).reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6)
    ev = np.linalg.eigvalsh(0.5 * (r + r.conj().T))
    return float(-ev[ev < 0].sum())


class Channels:
    """Oracle values of one scenario at one τ: Γ, D_n and the mixed factor F.

    ``spec`` is the scenario block of a run config, with every bath
    parameter spelled out (see ``workloads.Op``).
    """

    def __init__(self, spec, tau):
        kind = spec["kind"]
        self.kind = kind
        self.gamma = 0.0
        if kind in ("squeezed", "composite"):
            self.gamma = gamma_zero_temperature(
                tau, spec["alpha"], spec["s_ohmic"], spec["omega_c"],
                spec["r"], spec["theta"])
        elif kind == "thermal":
            if spec["temperature"] > 0.0:
                self.gamma = gamma_thermal_quad(
                    tau, spec["alpha"], spec["s_ohmic"], spec["omega_c"],
                    spec["temperature"])
            else:
                self.gamma = gamma_zero_temperature(
                    tau, spec["alpha"], spec["s_ohmic"], spec["omega_c"])
        q = spec.get("q", 0.0)
        t_rtn = spec.get("nu_ratio", 1.0) * tau if kind == "composite" else tau
        self.d = [dn(n, q, t_rtn) for n in range(5)]

    @property
    def topology(self):
        if self.kind == "rtn_common":
            return "common"
        return "composite" if self.kind == "composite" else "independent"

    @property
    def mixed_factor(self):
        g, d = self.gamma, self.d
        return {"squeezed": math.exp(-5.0 * g), "thermal": math.exp(-5.0 * g),
                "rtn_independent": d[2] ** 2, "rtn_common": d[4],
                "composite": d[2] * math.exp(-4.0 * g)}[self.kind]

    def golden_pure(self, phi):
        from hsswitness import validation as v
        g, d = self.gamma, self.d
        if self.kind in ("squeezed", "thermal"):
            return v.golden_pure_squeezed(g, phi)
        if self.kind == "rtn_independent":
            return v.golden_pure_rtn_independent(d[1], d[2], phi)
        if self.kind == "rtn_common":
            return v.golden_pure_rtn_common(d[1], d[2], d[3], d[4], phi)
        return v.golden_pure_composite(d[2], g, phi)


def check_point(spec, tau, got, phi, mixed_p, tol):
    """Checks of one grid point's (hss, negativity, mid) against the oracles."""
    from hsswitness.witnesses import mid_closed, negativity_closed
    ch = Channels(spec, tau)
    hss_got, neg_got, mid_got = got
    if "spin" in spec:
        # single spin-s qudit: HSS = sqrt(sum_k e^(-2 k^2 Γ)) / (2s + 1)
        d = int(round(2 * spec["spin"])) + 1
        k = np.arange(1, d)
        want = math.sqrt(float(np.exp(-2.0 * k**2 * ch.gamma).sum())) / d
        return [("hss-qudit", abs(hss_got - want), tol)]
    out = [("hss-golden", abs(hss_got - hss_of(ch.golden_pure(phi))), tol)]
    if mixed_p is None:
        out.append(("negativity-pt",
                    abs(neg_got - negativity_pt(ch.golden_pure(phi))), tol))
    else:
        F = ch.mixed_factor
        out.append(("negativity-closed",
                    abs(neg_got - negativity_closed(mixed_p, F, ch.topology)), tol))
        out.append(("mid-closed",
                    abs(mid_got - mid_closed(mixed_p, F, ch.topology)), tol))
    return out


def check_gamma(spec, tau):
    """Library Γ at τ against the closed form (T = 0) or scipy quad (T > 0)."""
    from hsswitness import decoherence as dec
    sd = dec.OhmicSpectralDensity(spec["alpha"], spec["s_ohmic"], spec["omega_c"])
    if spec["kind"] == "thermal":
        got = dec.gamma_thermal(tau, dec.ThermalBathParams(sd, spec["temperature"]))
        name = "gamma-quad" if spec["temperature"] > 0 else "gamma-gr3944"
    else:
        got = dec.gamma_squeezed(tau, dec.SqueezedBathParams(sd, spec["r"],
                                                             spec["theta"]))
        name = "gamma-gr3944"
    want = Channels(spec, tau).gamma
    return (name, abs(got - want) / max(abs(want), 1e-300), QUAD_EPSREL)


def check_dn_cli(line, n, q, tau):
    """Checks of one ``oracle-dn`` output line against D_n."""
    parts = line.split()
    mean, err = float(parts[1]), float(parts[3])
    closed = float(parts[5])
    want = dn(n, q, tau)
    return [("oracle-dn-closed", abs(closed - want), 5.1e-7),
            ("oracle-dn-mc-5sigma", abs(mean - want), 5.0 * err + 5.1e-7)]


def failed(checks):
    """Names of the checks whose deviation is above tolerance or not finite."""
    return [name for name, dev, tol in checks
            if not (math.isfinite(dev) and dev <= tol)]
