"""Dense complex Hermitian linear algebra for small open-system states.

All states are plain ``numpy`` complex arrays wrapped in :class:`DensityMatrix`,
which records how the Hilbert space factors into subsystems.  Operations are
pure functions; nothing here mutates its inputs.

Convention: the von Neumann entropy uses the base-2 logarithm everywhere.
The literature often writes a bare "log"; we fix bits so that the general
eigensolve path and the closed-form correlation expressions agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSubsystemIndex, NotDensityMatrix, NotHermitian

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9


def _as_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    return a


def herm_defect(m: np.ndarray) -> float:
    """Max entrywise deviation from Hermiticity."""
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(m: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    m = _as_complex(m)
    d = herm_defect(m)
    if d > tol:
        raise NotHermitian(f"Hermiticity defect {d:.3e} exceeds {tol:.1e}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace Hermitian PSD matrix over an ordered tensor factorization.

    ``dims`` lists the subsystem dimensions; their product must equal the
    matrix dimension (e.g. ``(2, 3)`` for a qubit-qutrit pair, ``(2s+1,)``
    for a single spin-s qudit).
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = require_hermitian(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 1 for d in self.dims):
            raise ValueError("subsystem dims must be positive")
        if int(np.prod(self.dims)) != m.shape[0]:
            raise ValueError(
                f"dims {self.dims} inconsistent with matrix dim {m.shape[0]}")
        tr = m.trace()
        if abs(tr - 1.0) > TOL_TRACE:
            raise NotDensityMatrix(f"trace {tr} != 1")
        lo = hermitian_eigenvalues(m)[-1]
        if lo < -TOL_PSD:
            raise NotDensityMatrix(f"minimum eigenvalue {lo:.3e} < -{TOL_PSD:.0e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PhiFamily:
    """A phase-encoded family of density matrices.

    ``base`` is the state evaluated at the reference phase ``phi_ref``;
    the integer ``phase_mask`` gives the winding of each entry, so that
    ``entry(phi) = entry(phi_ref) * exp(i * m_ij * (phi - phi_ref))``.
    The mask must be antisymmetric with zero diagonal, which keeps every
    member of the family Hermitian.
    """

    base: DensityMatrix
    phase_mask: np.ndarray
    phi_ref: float = 0.0

    def __post_init__(self):
        mask = np.asarray(self.phase_mask, dtype=int)
        if mask.shape != self.base.matrix.shape:
            raise ValueError("phase_mask shape mismatch")
        if np.any(mask != -mask.T) or np.any(np.diag(mask) != 0):
            raise ValueError("phase_mask must be antisymmetric with zero diagonal")
        object.__setattr__(self, "phase_mask", mask)

    def at_phi(self, phi: float) -> np.ndarray:
        """Matrix of the family member at phase ``phi``."""
        return self.base.matrix * np.exp(1j * self.phase_mask * (phi - self.phi_ref))

    def state_at(self, phi: float) -> DensityMatrix:
        return DensityMatrix(self.at_phi(phi), self.base.dims)

    def dphi(self) -> np.ndarray:
        """Analytic derivative d(rho)/d(phi), entrywise ``i * m_ij * entry``."""
        return 1j * self.phase_mask * self.base.matrix


def hermitian_eigenvalues(m: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, descending.

    The matrix is explicitly symmetrized as (m + m^dagger)/2 before the
    solve, which suppresses roundoff drift without changing the spectrum
    within the Hermiticity tolerance.
    """
    m = require_hermitian(m, tol)
    ev = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return ev[::-1]


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Partial transpose of a bipartite state w.r.t. subsystem 0 (A) or 1 (B)."""
    if len(rho.dims) != 2:
        raise BadSubsystemIndex("partial transpose needs a bipartite state")
    if subsystem not in (0, 1):
        raise BadSubsystemIndex(f"subsystem must be 0 or 1, got {subsystem}")
    dA, dB = rho.dims
    r = rho.matrix.reshape(dA, dB, dA, dB)
    if subsystem == 0:
        r = r.transpose(2, 1, 0, 3)
    else:
        r = r.transpose(0, 3, 2, 1)
    return r.reshape(dA * dB, dA * dB)


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one subsystem of a bipartite density matrix."""
    if len(rho.dims) != 2:
        raise BadSubsystemIndex("partial trace needs a bipartite state")
    if keep not in (0, 1):
        raise BadSubsystemIndex(f"keep must be 0 or 1, got {keep}")
    dA, dB = rho.dims
    r = rho.matrix.reshape(dA, dB, dA, dB)
    if keep == 0:
        red = np.einsum("ikjk->ij", r)
        dims = (dA,)
    else:
        red = np.einsum("kikj->ij", r)
        dims = (dB,)
    return DensityMatrix(red, dims)


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum(lam * log2 lam) with the 0*log0 := 0 convention.

    Eigenvalues in (-TOL_PSD, 0) arising from roundoff are clipped to 0.
    """
    ev = hermitian_eigenvalues(rho.matrix)
    ev = np.clip(ev.real, 0.0, None)
    nz = ev[ev > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def hs_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Hilbert-Schmidt distance sqrt(Tr[(rho - sigma)^2] / 2)."""
    d = rho.matrix - sigma.matrix
    val = np.trace(d @ d).real / 2.0
    return float(np.sqrt(max(val, 0.0)))
