"""Non-Markovianity quantifiers along time grids.

Four quantities are computed: the Hilbert-Schmidt speed (HSS) of a
phase-encoded family, its time derivative chi (the memory witness: chi > 0
flags non-Markovian intervals), the entanglement negativity, and the
measurement-induced disturbance (MID), plus an extrema report aligning HSS
revivals with those of negativity/MID.  Every witness takes a single state
or a stack, with no Python loop over states: MID solves each marginal by
one ``eigh`` and tie-breaks degenerate ones as one stack.  ``compute_series``
evaluates the grid in fixed blocks of stacked states; ``extrema_report``
loops in Python once per plateau, not per grid point.  The closed forms
are the oracles of the mixed family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Scenario, factor_matrix, initial_mixed, initial_pure
from .errors import InvalidParams, UnsupportedScenario
from .hilbert import (DensityMatrix, checked_solve, entropy_bits,
                      hermitian_eigenvalues, partial_transpose, raise_first,
                      reduced_matrix, spectrum_checks, von_neumann_entropy)

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
    """Eigenbases of a stack of k marginals, ``ev`` (k, d) and ``vec`` (k, d, d).

    Within each cluster (gap < DEGENERACY_GAP), P = V_c V_c^dag: P e_0, P e_1,
    ... are Gram-Schmidt processed in index order, skipping residuals of norm
    <= 1e-8, until the cluster is full; its i-th vector fills its i-th column,
    so a diagonal marginal gives the computational basis.  Each cluster label
    is a lane of every state; loops run over columns and slots, never states."""
    k, d = ev.shape
    label = np.cumsum(np.diff(ev, prepend=ev[:, :1]) >= DEGENERACY_GAP, -1)
    member = label.T == np.arange(d)[:, None, None]  # (lane, column, state)
    V = vec.transpose(1, 2, 0)  # (component, column, state)
    size, filled = member.sum(1), np.zeros((d, k), int)
    basis = np.zeros((d, d, d, k), complex)  # (slot, component, lane, state)
    for m in range(d):  # v = P e_m, with P the eigenprojector of each lane
        v = sum(V[:, i, None] * (V[m, i].conj() * member[:, i]) for i in range(d))
        for u in basis[:m]:  # the slots in the order they fill
            v = v - u * (u.conj() * v).sum(0)
        norm = np.sqrt((v.real**2 + v.imag**2).sum(0))
        c, s = np.nonzero((norm > 1e-8) & (filled < size))
        basis[filled[c, s], :, c, s] = (v[:, c, s] / norm[c, s]).T
        filled[c, s] += 1
    if (filled != size).any():
        raise ValueError("tie-break found too few vectors for a degenerate eigenspace")
    first = np.argmax(member, 1)[label, np.arange(k)[:, None]]  # of each column's lane
    return basis[np.arange(d) - first, :, label, np.arange(k)[:, None]].swapaxes(-1, -2)


def _eigenbases(rho: DensityMatrix, keep: int) -> np.ndarray:
    """Eigenvectors (columns) of marginal ``keep`` of a state or stack, from
    the one ``eigh`` that checks it; degenerate ones tie-broken together."""
    ev, vec = checked_solve(reduced_matrix(rho, keep), np.linalg.eigh)
    degenerate = (np.diff(ev) < DEGENERACY_GAP).any(-1)
    if degenerate.any():
        vec[degenerate] = _tie_break(ev[degenerate], vec[degenerate])
    return vec


def mid(rho: DensityMatrix) -> float | np.ndarray:
    """Mutual-information loss under local measurements in the marginal eigenbases.

    I(rho) - I(Pi(rho)) with Pi the dephasing in the product U = U_A (x) U_B
    of the marginals' eigenbases (degenerate ones tie-broken by ``_tie_break``),
    A's checked before B's.  The spectrum of Pi(rho) is the diagonal of
    U^dagger rho U, checked like a density matrix's."""
    ua, ub = _eigenbases(rho, 0), _eigenbases(rho, 1)
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
    """3-point sign-change extrema; plateaus, runs of values within PLATEAU_TOL
    of their first one, collapse to their midpoint.  Every point up to the
    next step of at most PLATEAU_TOL is a one-point run, so Python loops once
    per longer run, scanning for its end in windows that double in length."""
    n = values.size
    # j starts a run that holds j + 1; n - 1 stands for the end
    joins = np.append(np.flatnonzero(np.abs(np.diff(values)) <= PLATEAU_TOL), n - 1)
    starts, i = [np.arange(0)], 0
    while i < n:
        j = joins[np.searchsorted(joins, i)]
        starts.append(np.arange(i, j + 1))
        i, w = j + 2, 8
        while i < n:
            far = np.flatnonzero(np.abs(values[i:i + w] - values[j]) > PLATEAU_TOL)
            if far.size:
                i += far[0]
                break
            i, w = i + w, 2 * w
    lo = np.concatenate(starts)
    hi = np.append(lo[1:], n) - 1
    here, prev, nxt = values[lo[1:-1]], values[hi[:-2]], values[lo[2:]]
    is_max = (here > prev) & (here > nxt)
    pick = is_max | ((here < prev) & (here < nxt))
    times = grid[((lo + hi) // 2)[1:-1][pick]]
    return [(float(t), "max" if m else "min") for t, m in zip(times, is_max[pick])]


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
    t_hss = np.array([t for t, _ in ext["hss"]])
    offset = {}
    for name in ("negativity", "mid"):  # the +-inf pads give inf when there is none
        c = np.array([-np.inf] + [t for t, _ in ext[name]] + [np.inf])
        i = np.searchsorted(c, t_hss)
        offset[name] = np.minimum(t_hss - c[i - 1], c[i] - t_hss)
    alignment = {t: {"kind": kind, "negativity_offset": float(a),
                     "mid_offset": float(b),
                     "in_sudden_death": any(lo <= t <= hi for lo, hi in sd)}
                 for (t, kind), a, b in zip(ext["hss"], *offset.values())}
    return ExtremaReport(extrema=ext, alignment=alignment, sudden_death=sd)
