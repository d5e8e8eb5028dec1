"""Dense Hermitian linear algebra for small open-system states.

All states are plain ``numpy`` arrays, real or complex, wrapped in
:class:`DensityMatrix`, which records how the Hilbert space factors into
subsystems.  A matrix may carry leading axes (a stack of states, one per grid
point): operations act state by state; ``checked_solve`` checks a stack by one
batched eigensolve, whether a ``DensityMatrix`` holds it or a series checks it
in its own form.  Operations are pure functions; nothing here mutates its inputs.

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


def checked_solve(m: np.ndarray, solver):
    """``solver`` (``eigvalsh`` or ``eigh``) of (m + m^dagger) / 2 for a state or
    stack m, checked as a density matrix: one eigensolve per state.  Non-finite
    states are zeroed first, in a copy made only if any; a message shows a trace
    as complex, a real state's too."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        m = np.where(finite[..., None, None], m, 0.0)
    mh = m.conj().swapaxes(-1, -2)
    defect = np.abs(m - mh).max(axis=(-2, -1))
    out = solver((m + mh) / 2.0)
    ev = out[0] if isinstance(out, tuple) else out
    raise_first([(~finite, ValueError, "matrix has non-finite entries", defect),
                 (defect > TOL_HERM, NotHermitian,
                  "Hermiticity defect {:.3e} exceeds " f"{TOL_HERM:.1e}", defect)]
                + spectrum_checks(np.trace(m, axis1=-2, axis2=-1) + 0j, ev[..., 0]))
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace Hermitian PSD matrix over an ordered tensor factorization.

    ``dims`` lists the subsystem dimensions, integers whose product is the
    matrix dimension (e.g. ``(2, 3)`` for a qubit-qutrit pair, ``(2s+1,)``
    for a single spin-s qudit).  ``matrix`` may carry leading axes, a stack
    of states such as one per grid point: every state is checked, by one
    batched eigensolve.  ``spectrum`` keeps its eigenvalues, ascending.
    ``matrix`` is held real (float64) where its imaginary part is exactly 0.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        m = m.astype(complex) if m.imag.any() else np.ascontiguousarray(m.real, float)
        if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        if not all(isinstance(d, (int, np.integer)) and d >= 1 for d in self.dims):
            raise ValueError(f"dims {self.dims!r} must be positive integers")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if int(np.prod(self.dims)) != m.shape[-1]:
            raise ValueError(
                f"dims {self.dims} inconsistent with matrix dim {m.shape[-1]}")
        object.__setattr__(self, "spectrum", checked_solve(m, np.linalg.eigvalsh))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


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


def entropy_bits(ev: np.ndarray) -> np.ndarray:
    """-sum(lam * log2 lam) over the last axis, 0*log0 := 0; eigenvalues below
    d eps, a zero one's rounding (or roundoff in (-TOL_PSD, 0)), count as 0."""
    ev = np.where(ev > ev.shape[-1] * np.finfo(float).eps, ev, 0.0)
    return -(ev * np.log2(ev, out=np.zeros_like(ev), where=ev > 0.0)).sum(-1)
