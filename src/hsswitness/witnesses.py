"""Non-Markovianity quantifiers along time grids.

Four quantities are computed: the Hilbert-Schmidt speed (HSS) of a
phase-encoded family, its time derivative chi (the memory witness: chi > 0
flags non-Markovian intervals), the entanglement negativity, and the
measurement-induced disturbance (MID).  Generic eigensolve paths are paired
with the closed-form specializations valid for the implemented scenarios,
and an extrema report aligning HSS revivals with those of negativity/MID.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Scenario, evolve, initial_mixed, initial_pure
from .errors import InvalidParams, UnsupportedScenario
from .hilbert import (DensityMatrix, PhiFamily, hermitian_eigenvalues,
                      partial_trace, partial_transpose, von_neumann_entropy)

EPS_CHI = 1e-8
EPS_NEGATIVITY = 1e-6
DEGENERACY_GAP = 1e-9
PLATEAU_TOL = 1e-12
FD_STEP = 1e-4


# --- Hilbert-Schmidt speed ----------------------------------------------------

def hss(family: PhiFamily) -> float:
    """sqrt(Tr[(d rho / d phi)^2] / 2) via the analytic entrywise derivative."""
    d = family.dphi()
    val = np.trace(d @ d).real / 2.0
    return float(np.sqrt(max(val, 0.0)))


def hss_finite_difference(scenario: Scenario, tau: float, phi: float,
                          h: float = FD_STEP) -> float:
    """Central-difference oracle for the HSS, O(h^2) accurate."""
    rp = evolve(scenario, initial_pure(scenario.layout, phi + h), tau)
    rm = evolve(scenario, initial_pure(scenario.layout, phi - h), tau)
    d = (rp.base.matrix - rm.base.matrix) / (2.0 * h)
    val = np.trace(d @ d).real / 2.0
    return float(np.sqrt(max(val, 0.0)))


def chi_series(hss_values, tau_grid) -> np.ndarray:
    """Time derivative of the HSS: central differences inside, one-sided at ends."""
    h = np.asarray(hss_values, dtype=float)
    t = np.asarray(tau_grid, dtype=float)
    if h.shape != t.shape or h.ndim != 1 or h.size < 2:
        raise InvalidParams("need matching 1-D series of length >= 2")
    return np.gradient(h, t)


def chi_qudit_closed(s: float, gamma: float, dgamma_dt: float,
                     form: str = "derivative") -> float:
    """Closed-form chi for the spin-s qudit from HSS = sqrt(sum_k e^{-2k^2 g})/(2s+1).

    ``form="derivative"`` is the exact time derivative (denominator
    sqrt(sum)); ``form="printed"`` divides by the plain sum instead.  The two
    differ in magnitude but always share the sign of -dgamma_dt, which is all
    the witness uses.
    """
    two_s = int(round(2 * float(s)))
    k = np.arange(1, two_s + 1)
    terms = np.exp(-2.0 * k**2 * gamma)
    num = float((k**2 * terms).sum())
    tot = float(terms.sum())
    if form == "derivative":
        return -dgamma_dt / (two_s + 1) * num / np.sqrt(tot)
    if form == "printed":
        return -dgamma_dt / (two_s + 1) * num / tot
    raise InvalidParams(f"unknown form {form!r}")


# --- negativity ---------------------------------------------------------------

def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose w.r.t. A."""
    ev = hermitian_eigenvalues(partial_transpose(rho, 0))
    return float(-ev[ev < 0].sum())


def negativity_closed(p: float, F: float, topology: str = "independent") -> float:
    """Closed-form negativity of the evolved one-parameter mixed state.

    ``topology="independent"`` covers every scenario whose evolved state has
    both coherence blocks damped by the same factor F (independent baths,
    independent telegraph noise with F = D_2^2, composite with
    F = D_2 e^{-4 gamma}).  ``topology="common"`` covers the common telegraph
    source, whose {|02>,|10>} block is decoherence free.

    Note: the independent-case expression circulating in the literature
    swaps two of its absolute-value arguments; the form used here is the one
    that matches the partial-transpose spectrum for all p and F.
    """
    if topology in ("independent", "composite"):
        return ((p - 1.0) / 2.0
                + 0.25 * (abs((1 - 2 * p) + p * F)
                          + abs((1 - 2 * p) - p * F)
                          + abs(p - (1 - 2 * p) * F)
                          + abs(p + (1 - 2 * p) * F)))
    if topology == "common":
        return 0.25 * ((p - 1.0) + abs(3 * p - 1.0)
                       + abs((1 - 2 * p) - p * F)
                       + abs((1 - 2 * p) + p * F))
    raise InvalidParams(f"unknown topology {topology!r}")


# --- measurement-induced disturbance -------------------------------------------

def _spectral_projectors(marginal: DensityMatrix) -> list[np.ndarray]:
    """Rank-1 eigenprojectors with a deterministic degenerate tie-break.

    Within each degenerate cluster (eigenvalue gap < DEGENERACY_GAP) the
    eigenspace is re-orthonormalized against the computational basis:
    projections of e_0, e_1, ... onto the eigenspace are Gram-Schmidt
    processed in index order.  This reproduces computational-basis
    projectors whenever the marginal is diagonal.
    """
    m = marginal.matrix
    ev, vec = np.linalg.eigh((m + m.conj().T) / 2.0)
    d = m.shape[0]
    projs: list[np.ndarray] = []
    i = 0
    while i < d:
        j = i + 1
        while j < d and ev[j] - ev[j - 1] < DEGENERACY_GAP:
            j += 1
        sub = vec[:, i:j]
        P = sub @ sub.conj().T
        basis: list[np.ndarray] = []
        for k in range(d):
            v = P @ np.eye(d, dtype=complex)[:, k]
            for u in basis:
                v = v - u * (u.conj() @ v)
            norm = np.linalg.norm(v)
            if norm > 1e-8:
                basis.append(v / norm)
            if len(basis) == j - i:
                break
        projs.extend(np.outer(v, v.conj()) for v in basis)
        i = j
    return projs


def mid(rho: DensityMatrix) -> float:
    """Mutual-information loss under local measurements in the marginal eigenbases.

    I(rho) - I(Pi(rho)) with Pi the dephasing in the product of the
    marginals' spectral projectors.  Degenerate marginals use the
    computational-basis-aligned tie-break of ``_spectral_projectors``.
    """
    pa = _spectral_projectors(partial_trace(rho, 0))
    pb = _spectral_projectors(partial_trace(rho, 1))
    m = rho.matrix
    dephased = np.zeros_like(m)
    for Pa in pa:
        for Pb in pb:
            P = np.kron(Pa, Pb)
            dephased += P @ m @ P
    pi_rho = DensityMatrix(dephased, rho.dims)
    # the marginals are invariant under Pi, so I - I(Pi) = S(Pi(rho)) - S(rho)
    return von_neumann_entropy(pi_rho) - von_neumann_entropy(rho)


def mid_closed(p: float, F: float, topology: str = "independent") -> float:
    """Closed-form MID of the evolved one-parameter mixed state (base-2 logs)."""
    def xlog(x: float) -> float:
        return x * np.log2(x) if x > 1e-300 else 0.0

    body = xlog(1.0 + F) + xlog(1.0 - F)
    if topology in ("independent", "composite"):
        return (1.0 - p) / 2.0 * body
    if topology == "common":
        return (1.0 - 2.0 * p) + p / 2.0 * body
    raise InvalidParams(f"unknown topology {topology!r}")


# --- series assembly and extrema ------------------------------------------------

@dataclass(frozen=True)
class WitnessSeries:
    """All four quantifiers on a common time grid."""

    tau_grid: np.ndarray
    hss: np.ndarray
    chi: np.ndarray
    negativity: np.ndarray
    mid: np.ndarray
    nonmarkov_intervals: tuple = ()

    def __post_init__(self):
        t = np.asarray(self.tau_grid, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise InvalidParams("tau grid must be strictly increasing")
        for name in ("hss", "chi", "negativity", "mid"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != t.shape or not np.all(np.isfinite(v)):
                raise InvalidParams(f"series {name} invalid")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "tau_grid", t)


def _intervals_where(mask: np.ndarray, grid: np.ndarray,
                     min_len: int = 1) -> tuple:
    out = []
    i = 0
    n = mask.size
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            if j - i + 1 >= min_len:
                out.append((float(grid[i]), float(grid[j])))
            i = j + 1
        else:
            i += 1
    return tuple(out)


def compute_series(scenario: Scenario, tau_grid, phi: float = np.pi,
                   mixed_p: float | None = None) -> WitnessSeries:
    """Evaluate HSS/chi (pure phase-encoded state) and negativity/MID.

    Negativity and MID are computed from the evolved mixed state when
    ``mixed_p`` is given (qubit-qutrit layout only), otherwise from the pure
    state at phase ``phi``, mirroring how the quantifiers are compared in
    practice.  A single spin has no bipartition: under the trivial split
    both are exactly 0.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    bipartite = len(scenario.layout.spins) == 2
    if mixed_p is not None and scenario.layout.dims != (2, 3):
        raise UnsupportedScenario("mixed_p needs the qubit-qutrit layout")
    pure0 = initial_pure(scenario.layout, phi)
    corr0 = initial_mixed(mixed_p) if mixed_p is not None else None

    hss_vals = np.empty(tau_grid.size)
    neg_vals = np.zeros(tau_grid.size)
    mid_vals = np.zeros(tau_grid.size)
    for k, tau in enumerate(tau_grid):
        fam = evolve(scenario, pure0, tau)
        hss_vals[k] = hss(fam)
        if not bipartite:
            continue
        state = (evolve(scenario, corr0, tau) if corr0 is not None
                 else fam.state_at(phi))
        neg_vals[k] = negativity(state)
        mid_vals[k] = max(mid(state), 0.0)
    chi_vals = chi_series(hss_vals, tau_grid)
    intervals = _intervals_where(chi_vals > EPS_CHI, tau_grid)
    return WitnessSeries(tau_grid=tau_grid, hss=hss_vals, chi=chi_vals,
                         negativity=neg_vals, mid=mid_vals,
                         nonmarkov_intervals=intervals)


@dataclass(frozen=True)
class ExtremaReport:
    """Local extrema per series plus HSS-vs-correlation alignment offsets."""

    extrema: dict
    alignment: dict
    sudden_death: tuple


def _local_extrema(values: np.ndarray, grid: np.ndarray) -> list[tuple[float, str]]:
    """3-point sign-change extrema; plateaus collapse to their midpoint."""
    n = values.size
    # compress plateaus (runs equal within PLATEAU_TOL) to representatives
    reps: list[tuple[int, int]] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(values[j + 1] - values[i]) <= PLATEAU_TOL:
            j += 1
        reps.append((i, j))
        i = j + 1
    out = []
    for k in range(1, len(reps) - 1):
        lo, hi = reps[k]
        prev = values[reps[k - 1][1]]
        here = values[lo]
        nxt = values[reps[k + 1][0]]
        mid_idx = (lo + hi) // 2
        if here > prev and here > nxt:
            out.append((float(grid[mid_idx]), "max"))
        elif here < prev and here < nxt:
            out.append((float(grid[mid_idx]), "min"))
    return out


def extrema_report(series: WitnessSeries,
                   eps_N: float = EPS_NEGATIVITY) -> ExtremaReport:
    """Extrema of every series, alignment of HSS extrema, sudden-death spans.

    ``alignment`` maps each HSS extremum time to the grid distance (in tau)
    of the nearest negativity and MID extremum.
    """
    grid = series.tau_grid
    ext = {name: _local_extrema(getattr(series, name), grid)
           for name in ("hss", "chi", "negativity", "mid")}
    sd = _intervals_where(series.negativity < eps_N, grid, min_len=2)

    def nearest(target: float, cands: list[tuple[float, str]]) -> float:
        if not cands:
            return float("inf")
        return min(abs(target - t) for t, _ in cands)

    alignment = {}
    for t, kind in ext["hss"]:
        alignment[t] = {
            "kind": kind,
            "negativity_offset": nearest(t, ext["negativity"]),
            "mid_offset": nearest(t, ext["mid"]),
            "in_sudden_death": any(a <= t <= b for a, b in sd),
        }
    return ExtremaReport(extrema=ext, alignment=alignment, sudden_death=sd)
