"""Dense complex Hermitian linear algebra for small open-system states.

All states are plain ``numpy`` complex arrays wrapped in :class:`DensityMatrix`,
which records how the Hilbert space factors into subsystems.  A matrix may
carry leading axes (a stack of states, one per grid point); every operation
acts state by state, and a stack is checked by one batched eigensolve.
Operations are pure functions; nothing here mutates its inputs.

Convention: the von Neumann entropy uses the base-2 logarithm everywhere.
The literature often writes a bare "log"; we fix bits so that the general
eigensolve path and the closed-form correlation expressions agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadSubsystemIndex, NotDensityMatrix, NotHermitian

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9


def _as_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _hermitian_checks(m: np.ndarray) -> tuple[np.ndarray, list]:
    """The stack with non-finite states zeroed, and its finite-entry and
    Hermiticity checks in the form ``raise_first`` takes."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    m = np.where(finite[..., None, None], m, 0.0)
    defect = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return m, [(~finite, ValueError, "matrix has non-finite entries", defect),
               (defect > TOL_HERM, NotHermitian,
                "Hermiticity defect {:.3e} exceeds " f"{TOL_HERM:.1e}", defect)]


def spectrum_checks(trace, lowest) -> list:
    """Unit-trace and positivity checks from traces and lowest eigenvalues."""
    return [(np.abs(trace - 1.0) > TOL_TRACE, NotDensityMatrix, "trace {} != 1", trace),
            (lowest < -TOL_PSD, NotDensityMatrix,
             "minimum eigenvalue {:.3e} < " f"-{TOL_PSD:.0e}", lowest)]


def raise_first(checks: list) -> None:
    """Raise what checking the states of a stack one by one would raise first.

    Each check is (failed flags, exception type, message format, values),
    with flags and values shaped like the stack."""
    failed = np.array([np.ravel(flags) for flags, *_ in checks])
    states = np.flatnonzero(failed.any(axis=0))
    if states.size:
        k = states[0]
        _, exc, message, values = checks[int(np.argmax(failed[:, k]))]
        raise exc(message.format(np.ravel(values)[k]))


def symmetrized(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 of a matrix or of each of a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def checked_solve(m: np.ndarray, solver):
    """``solver`` (``eigvalsh`` or ``eigh``) of a symmetrized state or stack,
    which is checked as a density matrix: one eigensolve per state."""
    m, checks = _hermitian_checks(m)
    out = solver(symmetrized(m))
    ev = out[0] if isinstance(out, tuple) else out
    raise_first(checks + spectrum_checks(np.trace(m, axis1=-2, axis2=-1), ev[..., 0]))
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace Hermitian PSD matrix over an ordered tensor factorization.

    ``dims`` lists the subsystem dimensions; their product must equal the
    matrix dimension (e.g. ``(2, 3)`` for a qubit-qutrit pair, ``(2s+1,)``
    for a single spin-s qudit).  ``matrix`` may carry leading axes, a stack
    of states such as one per grid point: every state is checked, by one
    batched eigensolve.  ``spectrum`` keeps its eigenvalues, ascending.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _as_complex(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 1 for d in self.dims):
            raise ValueError("subsystem dims must be positive")
        if int(np.prod(self.dims)) != m.shape[-1]:
            raise ValueError(
                f"dims {self.dims} inconsistent with matrix dim {m.shape[-1]}")
        object.__setattr__(self, "spectrum", checked_solve(m, np.linalg.eigvalsh))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix (or of each of a stack), descending.

    The matrix is explicitly symmetrized as (m + m^dagger)/2 before the
    solve, which suppresses roundoff drift without changing the spectrum
    within the Hermiticity tolerance.
    """
    m = _as_complex(m)
    raise_first(_hermitian_checks(m)[1])
    return np.linalg.eigvalsh(symmetrized(m))[..., ::-1]


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Partial transpose of a bipartite state (or stack) w.r.t. subsystem 0 or 1."""
    if len(rho.dims) != 2:
        raise BadSubsystemIndex("partial transpose needs a bipartite state")
    if subsystem not in (0, 1):
        raise BadSubsystemIndex(f"subsystem must be 0 or 1, got {subsystem}")
    m = rho.matrix
    r = m.reshape(m.shape[:-2] + rho.dims + rho.dims)
    return r.swapaxes(subsystem - 4, subsystem - 2).reshape(m.shape)


def reduced_matrix(rho: DensityMatrix, keep: int) -> np.ndarray:
    """Unchecked reduced matrix of one subsystem of a bipartite state (or stack)."""
    if len(rho.dims) != 2:
        raise BadSubsystemIndex("partial trace needs a bipartite state")
    if keep not in (0, 1):
        raise BadSubsystemIndex(f"keep must be 0 or 1, got {keep}")
    m = rho.matrix
    r = m.reshape(m.shape[:-2] + rho.dims + rho.dims)
    return np.einsum("...ikjk->...ij" if keep == 0 else "...kikj->...ij", r)


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one subsystem of a bipartite density matrix (or stack)."""
    return DensityMatrix(reduced_matrix(rho, keep), (rho.dims[keep],))


def entropy_bits(ev: np.ndarray) -> np.ndarray:
    """-sum(lam * log2 lam) over the last axis, 0*log0 := 0; roundoff
    eigenvalues in (-TOL_PSD, 0) are clipped to 0."""
    ev = np.clip(ev, 0.0, None)
    return -(ev * np.log2(ev, out=np.zeros_like(ev), where=ev > 0.0)).sum(-1)


def von_neumann_entropy(rho: DensityMatrix) -> float | np.ndarray:
    """Base-2 entropy of a state, or of each state of a stack."""
    return entropy_bits(rho.spectrum)
