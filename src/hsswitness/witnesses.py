"""Non-Markovianity quantifiers along time grids.

Four quantities are computed: the Hilbert-Schmidt speed (HSS) of a
phase-encoded family, its time derivative chi (the memory witness: chi > 0
flags non-Markovian intervals), the entanglement negativity, and the
measurement-induced disturbance (MID).  Generic eigensolve paths are paired
with the closed-form specializations valid for the implemented scenarios,
and an extrema report aligning HSS revivals with those of negativity/MID.
Every witness takes a single state or a stack of them; ``compute_series``
evaluates the grid in fixed blocks of stacked states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Scenario, factor_matrix, initial_mixed, initial_pure
from .errors import InvalidParams, UnsupportedScenario
from .hilbert import (DensityMatrix, entropy_bits, hermitian_eigenvalues,
                      partial_trace, partial_transpose, raise_first,
                      spectrum_checks, symmetrized, von_neumann_entropy)

EPS_CHI = 1e-8
EPS_NEGATIVITY = 1e-6
DEGENERACY_GAP = 1e-9
PLATEAU_TOL = 1e-12
#: matrix entries per stacked call of compute_series: 128 qubit-qutrit
#: states, which bounds a series' memory whatever its grid
BLOCK_ENTRIES = 128 * 36


# --- Hilbert-Schmidt speed ----------------------------------------------------

def hss(rho: DensityMatrix) -> float | np.ndarray:
    """sqrt(Tr[(d rho / d phi)^2] / 2) for the phase phi on the first basis ket.

    The phase winds entry (0, j) by +1 and (j, 0) by -1, so the trace is
    2 sum_{j>=1} |rho_0j|^2: the HSS is read off the first row, with no
    eigensolve.  An array for a stack of states."""
    row = rho.matrix[..., 0, 1:]
    return np.sqrt((row.real**2 + row.imag**2).sum(-1))


def chi_series(hss_values, tau_grid) -> np.ndarray:
    """Time derivative of the HSS: central differences inside, one-sided at ends."""
    h = np.asarray(hss_values, dtype=float)
    t = np.asarray(tau_grid, dtype=float)
    if h.shape != t.shape or h.ndim != 1 or h.size < 2:
        raise InvalidParams("need matching 1-D series of length >= 2")
    return np.gradient(h, t)


# --- negativity ---------------------------------------------------------------

def negativity(rho: DensityMatrix) -> float | np.ndarray:
    """Sum of |negative eigenvalues| of the partial transpose w.r.t. A."""
    ev = hermitian_eigenvalues(partial_transpose(rho, 0))
    return -np.where(ev < 0.0, ev, 0.0).sum(-1)


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

def _tie_break(ev: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Eigenbasis of one marginal with a deterministic degenerate tie-break.

    Within each degenerate cluster (eigenvalue gap < DEGENERACY_GAP) the
    eigenspace is re-orthonormalized against the computational basis:
    projections of e_0, e_1, ... onto the eigenspace are Gram-Schmidt
    processed in index order.  This reproduces the computational basis
    whenever the marginal is diagonal.
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


def _eigenbases(marginal: DensityMatrix) -> np.ndarray:
    """Eigenvectors (columns) of each marginal of a stack, by one ``eigh``; the
    tie-break runs only on degenerate marginals, once per distinct one."""
    m = marginal.matrix.reshape(-1, *marginal.matrix.shape[-2:])
    ev, vec = np.linalg.eigh(symmetrized(m))
    done: dict[bytes, np.ndarray] = {}
    for k in np.flatnonzero((np.diff(ev) < DEGENERACY_GAP).any(-1)):
        key = m[k].tobytes()
        if key not in done:
            done[key] = _tie_break(ev[k], vec[k])
        vec[k] = done[key]
    return vec.reshape(marginal.matrix.shape)


def mid(rho: DensityMatrix) -> float | np.ndarray:
    """Mutual-information loss under local measurements in the marginal eigenbases.

    I(rho) - I(Pi(rho)) with Pi the dephasing in the product U = U_A (x) U_B
    of the marginals' eigenbases (degenerate ones tie-broken by ``_tie_break``).
    The spectrum of Pi(rho) is the diagonal of U^dagger rho U, checked like a
    density matrix's."""
    ua = _eigenbases(partial_trace(rho, 0))
    ub = _eigenbases(partial_trace(rho, 1))
    u = ua[..., :, None, :, None] * ub[..., None, :, None, :]  # U_A (x) U_B
    u = u.reshape(rho.matrix.shape)
    p = (u.conj() * (rho.matrix @ u)).sum(-2).real
    raise_first(spectrum_checks(p.sum(-1), p.min(-1)))
    # the marginals are invariant under Pi, so I - I(Pi) = S(Pi(rho)) - S(rho)
    return entropy_bits(p) - von_neumann_entropy(rho)


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
    """(first, last) grid value of each run of True in mask of >= min_len points."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(int), [0]))))
    return tuple((float(grid[a]), float(grid[b - 1]))
                 for a, b in zip(edges[::2], edges[1::2]) if b - a >= min_len)


def compute_series(scenario: Scenario, tau_grid, phi: float = np.pi,
                   mixed_p: float | None = None) -> WitnessSeries:
    """Evaluate HSS/chi (pure phase-encoded state) and negativity/MID.

    Negativity and MID are computed from the evolved mixed state when
    ``mixed_p`` is given (qubit-qutrit layout only), otherwise from the pure
    state at phase ``phi``, mirroring how the quantifiers are compared in
    practice.  A single spin has no bipartition: under the trivial split
    both are exactly 0.

    Each block of BLOCK_ENTRIES matrix entries evaluates the damping
    factors once, for both families, and checks each family as one stack."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    if mixed_p is not None and scenario.layout.dims != (2, 3):
        raise UnsupportedScenario("mixed_p needs the qubit-qutrit layout")
    pure0 = initial_pure(scenario.layout, phi)
    corr0 = initial_mixed(mixed_p) if mixed_p is not None else None

    hss_vals, neg_vals, mid_vals = np.zeros((3, tau_grid.size))
    step = max(1, BLOCK_ENTRIES // pure0.dim**2)
    for start in range(0, tau_grid.size, step):
        block = slice(start, start + step)
        F = factor_matrix(scenario, tau_grid[block])
        pure = DensityMatrix(pure0.matrix * F, pure0.dims)
        hss_vals[block] = hss(pure)
        if len(pure0.dims) == 1:
            continue
        state = pure if corr0 is None else DensityMatrix(corr0.matrix * F, corr0.dims)
        neg_vals[block] = negativity(state)
        mid_vals[block] = np.maximum(mid(state), 0.0)
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
