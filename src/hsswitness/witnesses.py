"""Non-Markovianity quantifiers along time grids.

Four quantities are computed: the Hilbert-Schmidt speed (HSS) of a
phase-encoded family, its time derivative chi (the memory witness: chi > 0
flags non-Markovian intervals), the entanglement negativity, and the
measurement-induced disturbance (MID), plus an extrema report aligning HSS
revivals with those of negativity/MID.  Every witness takes a single state
or a stack, with no Python loop over states: MID reads a diagonal marginal
off its diagonal, else solves it by one ``eigh`` and tie-breaks degenerate
ones as one stack.  ``compute_series`` evaluates the grid in blocks of
states rho0 o F, each family checked once (the pure one by F's factors or
F / d solved per spin group); ``extrema_report`` loops in Python once per
plateau, not per grid point.  The closed forms are the oracles of the mixed family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .dynamics import Scenario, factor_matrix, initial_mixed, initial_pure, spin_groups
from .errors import InvalidParams, UnsupportedScenario
from .hilbert import (DensityMatrix, checked_solve, entropy_bits,
                      partial_transpose, raise_first, reduced_matrix,
                      spectrum_checks)

EPS_CHI = 1e-8
EPS_NEGATIVITY = 1e-6
DEGENERACY_GAP = 1e-9
PLATEAU_TOL = 1e-12
#: matrix entries per block of compute_series, a memory budget: 300 qubit-qutrit
#: states (a telegraph sweep's peak RSS grows 3-8 % over 128, 11-12 % at 512)
BLOCK_ENTRIES = 300 * 36


# --- Hilbert-Schmidt speed ----------------------------------------------------

def hss(rho: DensityMatrix) -> float | np.ndarray:
    """sqrt(Tr[(d rho / d phi)^2] / 2) for the phase phi on the first basis ket.

    The phase winds entry (0, j) by +1 and (j, 0) by -1, so the trace is
    2 sum_{j>=1} |rho_0j|^2: the HSS is read off the first row, with no
    eigensolve.  An array for a stack of states."""
    return _row_speed(rho.matrix[..., 0, 1:])


def _row_speed(row: np.ndarray) -> float | np.ndarray:
    """sqrt(sum_j |row_j|^2) over the last axis: the HSS of first rows (j >= 1)."""
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
    """Sum of |negative eigenvalues| of the partial transpose w.r.t. A, solved
    unchecked: a transpose permutes entries, so it is as finite and Hermitian as rho."""
    pt = partial_transpose(rho, 0)
    ev = np.linalg.eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2.0)[..., ::-1]
    return -np.where(ev < 0.0, ev, 0.0).sum(-1)  # summed from the largest


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
    basis = np.zeros((d, d, d, k), vec.dtype)  # (slot, component, lane, state)
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


def _diagonal_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` + ``_tie_break`` of a diagonal stack, read off: the diagonal ascending,
    and unit vectors by cluster (gap < DEGENERACY_GAP), then by index within one."""
    ev = h.diagonal(0, -2, -1).real
    at = np.argsort(ev, -1)
    ev = np.take_along_axis(ev, at, -1)
    label = np.cumsum(np.diff(ev, prepend=ev[..., :1]) >= DEGENERACY_GAP, -1)
    order = np.sort(label * ev.shape[-1] + at, -1) % ev.shape[-1]
    return ev, (np.arange(ev.shape[-1])[:, None] == order[..., None, :]).astype(h.dtype)


def _eigenbases(rho: DensityMatrix, keep: int) -> np.ndarray:
    """Eigenvectors (columns) of marginal ``keep`` of a state or stack, from
    the one solve that checks it: read off a diagonal stack, else one ``eigh``
    with the degenerate ones tie-broken together."""
    m = reduced_matrix(rho, keep)
    if not m[..., ~np.eye(m.shape[-1], dtype=bool)].any():
        return checked_solve(m, _diagonal_eigh)[1]
    ev, vec = checked_solve(m, np.linalg.eigh)
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
    return entropy_bits(p) - entropy_bits(rho.spectrum)


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


class _Dephased(NamedTuple):
    """A block's states rho0 o F, read as a DensityMatrix: with F real symmetric and
    F_ii = 1 they keep rho0's trace and Hermiticity, so the one checked solve that
    gives ``spectrum`` only has finiteness and positivity left to find."""

    dims: tuple
    matrix: np.ndarray
    spectrum: np.ndarray


def _group_eigvalsh(scenario: Scenario, m: np.ndarray) -> np.ndarray:
    """eigvalsh of a stack m = F / d, F the Kronecker product of one factor per spin
    group with F_ii = 1 (F where each other spin's digit is 0): the sorted product of
    their spectra (Horn and Johnson, Thm 4.2.12), bit for bit eigvalsh(m) for one."""
    groups, dims, lead = spin_groups(scenario), scenario.layout.dims, m.shape[:-2]
    r, ev = m.reshape(lead + dims * 2), np.ones(lead + (1,))
    for g in groups:  # m's factors are F_g / d, so their product lacks d^(groups - 1)
        at = tuple(slice(None) if i in g else 0 for i in range(len(dims))) * 2
        f = r[(...,) + at].reshape(lead + (np.prod([dims[i] for i in g]),) * 2)
        ev = (ev[..., None] * np.linalg.eigvalsh(f)[..., None, :]).reshape(lead + (-1,))
    return np.sort(ev, -1) * m.shape[-1] ** (len(groups) - 1)


def compute_series(scenario: Scenario, tau_grid, phi: float = np.pi,
                   mixed_p: float | None = None) -> WitnessSeries:
    """Evaluate HSS/chi (pure phase-encoded state) and negativity/MID.

    Negativity and MID are computed from the evolved mixed state when
    ``mixed_p`` is given (qubit-qutrit layout only), otherwise from the pure
    state at phase ``phi``, mirroring how the quantifiers are compared in
    practice.  A single spin has no bipartition: under the trivial split
    both are exactly 0.  ``phi`` must be finite; within rounding of k pi
    (the default pi; see ``initial_pure``) the pure state is real and its
    stacks run in float64, at any other phase in complex128.

    The grid (1-D, finite, strictly increasing, >= 2 points) runs in blocks of
    BLOCK_ENTRIES entries (>= 16 states for a single spin), each evaluating F once
    for both families.  The pure one is checked as F / d, solved per spin group for
    a pure pair (MID reads S(F / d)), else where F's factors do not certify it; HSS
    is read off the first rows of pure0 and F: no series depends on the block size."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    if (tau_grid.ndim != 1 or tau_grid.size < 2 or not np.isfinite(tau_grid).all()
            or (np.diff(tau_grid) <= 0).any()):
        raise InvalidParams("tau grid must be a finite, strictly increasing "
                            "1-D array of >= 2 points")
    if mixed_p is not None and scenario.layout.dims != (2, 3):
        raise UnsupportedScenario("mixed_p needs the qubit-qutrit layout")
    pure0 = initial_pure(scenario.layout, phi)
    corr0 = pure0 if mixed_p is None else initial_mixed(mixed_p)

    hss_vals, neg_vals, mid_vals = np.zeros((3, tau_grid.size))
    pair = len(pure0.dims) == 2  # a single spin's block holds only the real F
    solve_all = pair and mixed_p is None  # a pure pair's MID reads S(F / d)
    step = max(1 if pair else 16, BLOCK_ENTRIES // pure0.dim**2)
    for start in range(0, tau_grid.size, step):
        block = slice(start, start + step)
        F, certified = factor_matrix(scenario, tau_grid[block])
        solve = ~certified | solve_all
        # |psi_i|^2 = 1/d, so pure0 * F = D (F / d) D^dagger with D unitary diagonal
        if solve.any():
            spectrum = checked_solve(F[solve] / pure0.dim,
                                     partial(_group_eigvalsh, scenario))
        hss_vals[block] = _row_speed(pure0.matrix[0, 1:] * F[..., 0, 1:])
        if not pair:
            continue
        m = corr0.matrix * F
        state = _Dephased(corr0.dims, m, spectrum if corr0 is pure0
                          else checked_solve(m, np.linalg.eigvalsh))
        neg_vals[block] = negativity(state)
        mid_vals[block] = np.maximum(mid(state), 0.0)
    chi_vals = chi_series(hss_vals, tau_grid)
    return WitnessSeries(tau_grid, hss_vals, chi_vals, neg_vals, mid_vals,
                         _intervals_where(chi_vals > EPS_CHI, tau_grid))


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


def extrema_report(series: WitnessSeries) -> ExtremaReport:
    """Extrema of every series, alignment of HSS extrema, sudden-death spans.

    ``alignment`` maps each HSS extremum time to the grid distance (in tau)
    of the nearest negativity and MID extremum.
    """
    grid = series.tau_grid
    ext = {name: _local_extrema(getattr(series, name), grid)
           for name in ("hss", "chi", "negativity", "mid")}
    sd = _intervals_where(series.negativity < EPS_NEGATIVITY, grid, min_len=2)
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
