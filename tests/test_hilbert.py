import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsswitness.errors import BadSubsystemIndex, NotDensityMatrix, NotHermitian
from hsswitness.hilbert import (TOL_HERM, TOL_PSD, TOL_TRACE, DensityMatrix,
                                checked_solve, entropy_bits, partial_transpose,
                                raise_first, reduced_matrix, spectrum_checks)
from hsswitness.witnesses import negativity


def bell_like_00_12():
    """(|00> + |12>)/sqrt(2) on the qubit-qutrit space."""
    v = np.zeros(6, dtype=complex)
    v[0] = v[5] = 1 / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()), (2, 3))


def partial_trace(rho, keep):
    """The reduced state of one subsystem, checked as a density matrix."""
    return DensityMatrix(reduced_matrix(rho, keep), (rho.dims[keep],))


def random_dm(rng, dims):
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace(), dims)


class TestHermitianEigenvalues:
    """Spectra from the checked solve (ascending) and from negativity."""

    def test_diagonal(self):
        ev = checked_solve(np.diag([0.75, 0.25]), np.linalg.eigvalsh)
        assert np.allclose(ev, [0.25, 0.75])

    def test_maximally_mixed(self):
        assert np.allclose(checked_solve(np.eye(2) / 2, np.linalg.eigvalsh), [0.5, 0.5])

    def test_bell_like_partial_transpose_spectrum(self):
        # brute-force 6x6 eigensolve: the PT of a Bell-like state has -1/2
        pt = partial_transpose(bell_like_00_12(), 0)
        with pytest.raises(NotDensityMatrix, match="^minimum eigenvalue -5.000e-01"):
            checked_solve(pt, np.linalg.eigvalsh)
        assert abs(negativity(bell_like_00_12()) - 0.5) < 1e-12

    def test_sum_equals_trace(self, random_density_matrices):
        for rho in random_density_matrices:
            ev = checked_solve(rho.matrix, np.linalg.eigvalsh)
            assert abs(ev.sum() - 1.0) < 1e-10
            assert np.all(np.diff(ev) >= -1e-12)  # ascending

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitian, match="^Hermiticity defect 1.000e[+]00"):
            checked_solve(np.array([[0.0, 1.0], [0.0, 0.0]]), np.linalg.eigvalsh)


class TestPartialTranspose:
    def test_product_state_stays_psd(self, rng):
        a = random_dm(rng, (2,)).matrix
        b = random_dm(rng, (3,)).matrix
        rho = DensityMatrix(np.kron(a, b), (2, 3))
        pt = partial_transpose(rho, 0)
        assert np.allclose(pt, np.kron(a.T, b), atol=1e-12)
        assert checked_solve(pt, np.linalg.eigvalsh)[0] > -1e-12

    def test_identity_fixed_point(self):
        rho = DensityMatrix(np.eye(6) / 6, (2, 3))
        assert np.allclose(partial_transpose(rho, 1), np.eye(6) / 6)

    def test_mixed_state_block_swap(self):
        # the PT of the one-parameter mixed state swaps the weights of the
        # two coherence blocks
        from hsswitness.validation import (golden_mixed,
                                           golden_mixed_partial_transpose)
        p, F = 0.3, 0.7
        rho = DensityMatrix(golden_mixed(p, F), (2, 3))
        assert np.allclose(partial_transpose(rho, 0),
                           golden_mixed_partial_transpose(p, F), atol=1e-14)

    def test_trace_and_hermiticity_preserved(self, random_density_matrices):
        for rho in random_density_matrices:
            for sub in (0, 1):
                pt = partial_transpose(rho, sub)
                assert abs(pt.trace() - 1.0) < 1e-12
                assert np.abs(pt - pt.conj().T).max() < 1e-12

    def test_bad_subsystem(self):
        rho = DensityMatrix(np.eye(6) / 6, (2, 3))
        with pytest.raises(BadSubsystemIndex):
            partial_transpose(rho, 2)
        with pytest.raises(BadSubsystemIndex):
            partial_transpose(DensityMatrix(np.eye(2) / 2, (2,)), 0)


class TestPartialTrace:
    def test_product_state(self, rng):
        a = random_dm(rng, (2,)).matrix
        b = random_dm(rng, (3,)).matrix
        rho = DensityMatrix(np.kron(a, b), (2, 3))
        assert np.allclose(partial_trace(rho, 0).matrix, a, atol=1e-12)
        assert np.allclose(partial_trace(rho, 1).matrix, b, atol=1e-12)

    def test_pure_phase_state_qubit_marginal(self):
        # direct 6x6 partial trace by hand: off-diagonal (e^{i phi} + 2)/6
        from hsswitness.dynamics import QUBIT_QUTRIT, initial_pure
        phi = 0.9
        red = partial_trace(initial_pure(QUBIT_QUTRIT, phi), 0).matrix
        assert abs(red[0, 0] - 0.5) < 1e-14
        assert abs(red[0, 1] - (np.exp(1j * phi) + 2) / 6) < 1e-14

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(6) / 6, (2, 3))
        assert np.allclose(partial_trace(rho, 1).matrix, np.eye(3) / 3)

    def test_both_sides_compose_to_full_transpose(self, random_density_matrices):
        for rho in random_density_matrices:
            pt_a = partial_transpose(rho, 0)
            pt_b = partial_transpose(rho, 1)
            # transposing the remaining subsystem by hand recovers rho^T
            full = pt_a.reshape(2, 3, 2, 3).transpose(0, 3, 2, 1).reshape(6, 6)
            assert np.allclose(full, rho.matrix.T, atol=1e-14)
            full = pt_b.reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6)
            assert np.allclose(full, rho.matrix.T, atol=1e-14)


def trace_norm(m):
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return np.abs(np.linalg.eigvalsh(m)).sum()


class TestTraceNorm:
    def test_density_matrix_is_one(self, random_density_matrices):
        for rho in random_density_matrices:
            assert abs(trace_norm(rho.matrix) - 1.0) < 1e-10

    def test_diag(self):
        assert abs(trace_norm(np.diag([0.5, -0.5])) - 1.0) < 1e-14

    def test_bell_like_pt(self):
        assert abs(trace_norm(partial_transpose(bell_like_00_12(), 0)) - 2.0) < 1e-12

    def test_consistency_with_negative_eigenvalue_sum(self, random_density_matrices):
        for rho in random_density_matrices:
            pt = partial_transpose(rho, 0)
            assert abs(trace_norm(pt) - (1.0 + 2.0 * negativity(rho))) < 1e-10


class TestEntropy:
    def test_pure_state(self):
        assert entropy_bits(bell_like_00_12().spectrum) < 1e-12

    def test_maximally_mixed_qutrit(self):
        rho = DensityMatrix(np.eye(3) / 3, (3,))
        assert abs(entropy_bits(rho.spectrum) - np.log2(3)) < 1e-12

    def test_three_quarters(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]), (2,))
        expected = 2.0 - 0.75 * np.log2(3)
        assert abs(entropy_bits(rho.spectrum) - expected) < 1e-12

    def test_rounding_eigenvalues_count_as_zero(self):
        # below d eps an eigenvalue is a zero one's rounding: at full weight
        # 1e-16 alone would add 5.3e-15 bits
        assert entropy_bits(np.array([1e-16, 2e-16, 0.5, 0.5])) == 1.0
        assert entropy_bits(np.array([-1e-16, 1.0])) == 0.0

    def test_random_pure_states(self):
        # their solved spectra hold rounding-level eigenvalues, which once
        # gave S up to 2.2e-14
        rng = np.random.default_rng(11)
        v = rng.normal(size=(200, 6)) + 1j * rng.normal(size=(200, 6))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        rho = DensityMatrix(v[:, :, None] * v[:, None, :].conj(), (2, 3))
        assert entropy_bits(rho.spectrum).max() < 5e-15


class TestDensityMatrixInvariants:
    def test_rejects_bad_trace(self):
        with pytest.raises(NotDensityMatrix):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_negative(self):
        with pytest.raises(NotDensityMatrix):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    @pytest.mark.parametrize("dims", [(2.9, 3.9), (2, 2.5), (2.0, 3.0), ("2", 3),
                                      (-2, -3), (6, 1, 0)],
                             ids=["truncated", "half", "float", "string", "negative",
                                  "zero"])
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(ValueError, match=r"^dims .* must be positive integers$"):
            DensityMatrix(np.eye(6) / 6, dims)

    @pytest.mark.parametrize("matrix,dtype", [
        (np.eye(2) / 2, np.float64), (np.eye(2, dtype=complex) / 2, np.float64),
        ([[0.5, 0], [0, 0.5]], np.float64),
        ([[0.5, 0.1j], [-0.1j, 0.5]], np.complex128)])
    def test_held_real_where_its_imaginary_part_is_zero(self, matrix, dtype):
        rho = DensityMatrix(matrix, (2,))
        assert rho.matrix.dtype == dtype and rho.matrix.flags.c_contiguous
        assert np.array_equal(rho.matrix, matrix)

    def test_accepts_numpy_integer_dims(self):
        rho = DensityMatrix(np.eye(6) / 6, (np.int64(2), np.uint8(3)))
        assert rho.dims == (2, 3) and {type(d) for d in rho.dims} == {int}


class TestStacks:
    """A leading axis of states: every operation acts state by state."""

    def test_operations_match_single_states(self, random_density_matrices):
        stack = DensityMatrix(np.array([r.matrix for r in random_density_matrices]),
                              (2, 3))
        for k, rho in enumerate(random_density_matrices):
            for sub in (0, 1):
                assert np.array_equal(partial_transpose(stack, sub)[k],
                                      partial_transpose(rho, sub))
                assert np.abs(partial_trace(stack, sub).matrix[k]
                              - partial_trace(rho, sub).matrix).max() < 1e-15
            assert abs(entropy_bits(stack.spectrum)[k]
                       - entropy_bits(rho.spectrum)) < 1e-12
        assert stack.spectrum.shape == (12, 6)
        assert negativity(stack).shape == (12,)

    def test_first_failing_state_raises(self):
        good, mixed = np.diag([0.5, 0.5]), np.diag([1.5, -0.5])
        with pytest.raises(NotDensityMatrix, match="minimum eigenvalue -5.000e-01"):
            DensityMatrix(np.array([good, mixed, 2 * good]), (2,))
        with pytest.raises(NotDensityMatrix, match=r"trace \(2\+0j\) != 1"):
            DensityMatrix(np.array([good, 2 * good, mixed]), (2,))

    def test_first_failing_check_of_that_state(self):
        # a state failing trace and positivity reports its trace, as alone
        both = np.diag([2.0, -0.5])
        with pytest.raises(NotDensityMatrix, match="trace"):
            DensityMatrix(np.array([np.eye(2) / 2, both]), (2,))
        # a later non-finite state does not mask an earlier failure
        later = np.array([np.diag([1.5, -0.5]), np.full((2, 2), np.nan)])
        with pytest.raises(NotDensityMatrix, match="minimum eigenvalue"):
            DensityMatrix(later, (2,))
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(later[::-1], (2,))
        skew = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(NotHermitian, match="Hermiticity defect 1.000e-01"):
            DensityMatrix(np.array([np.eye(2) / 2, skew]), (2,))


# --- the checks of a stack against their state-copying form ---------------------

def reference_hermitian_checks(m):
    """Zero the non-finite states of a copy, then check it."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    m = np.where(finite[..., None, None], m, 0.0)
    defect = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return m, [(~finite, ValueError, "matrix has non-finite entries", defect),
               (defect > TOL_HERM, NotHermitian,
                "Hermiticity defect {:.3e} exceeds " f"{TOL_HERM:.1e}", defect)]


def reference_symmetrized(m):
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def reference_checked_solve(m, solver):
    m, checks = reference_hermitian_checks(m)
    out = solver(reference_symmetrized(m))
    ev = out[0] if isinstance(out, tuple) else out
    raise_first(checks + spectrum_checks(np.trace(m, axis1=-2, axis2=-1), ev[..., 0]))
    return out


def outcome(f, *args):
    """The arrays f returns, or the type and message of what it raises."""
    try:
        out = f(*args)
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)
    return [(a.shape, a.dtype, a.tobytes())
            for a in (out if isinstance(out, tuple) else (out,))]


def flawed_state(rng, d, flaw, size):
    """A random d x d density matrix, then one flaw of about its tolerance's size."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    m = m / m.trace().real
    if flaw == "nan":
        m[rng.integers(d), rng.integers(d)] = np.nan
    elif flaw == "inf":
        m[rng.integers(d), rng.integers(d)] = -np.inf
    elif flaw == "hermiticity":  # one entry without its mirror
        m[0, d - 1] += size * TOL_HERM
    elif flaw == "trace":  # an imaginary diagonal within TOL_HERM shows in the message
        m = m * (1.0 + size * TOL_TRACE)
        m[0, 0] += 0.4j * TOL_HERM
    elif flaw == "psd":  # pull the lowest eigenvalue to about -size * TOL_PSD
        ev, vec = np.linalg.eigh(m)
        ev[0] = -size * TOL_PSD
        ev[1:] += (1.0 - ev.sum()) / (d - 1)
        m = (vec * ev) @ vec.conj().T
    return m


FLAWS = ("none", "nan", "inf", "hermiticity", "trace", "psd")


@st.composite
def flawed_stacks(draw):
    d = draw(st.sampled_from([2, 3, 6]))
    seed = draw(st.integers(0, 2**32 - 1))
    flaws = draw(st.lists(st.sampled_from(FLAWS), min_size=1, max_size=6))
    # sizes either side of the tolerance, so a flaw may pass or fail
    sizes = draw(st.lists(st.sampled_from([0.5, 0.99, 1.01, 2.0, 3.0]),
                          min_size=len(flaws), max_size=len(flaws)))
    rng = np.random.default_rng(seed)
    return np.array([flawed_state(rng, d, f, s) for f, s in zip(flaws, sizes)])


class TestChecksAgainstCopyingForm:
    """One conjugate transpose per stack, and no copy of a finite one, change
    no spectrum and no exception: type, message, check order and state order."""

    @settings(max_examples=300, deadline=None)
    @given(flawed_stacks())
    def test_property(self, stack):
        for m in (stack, stack[0]):
            for solver in (np.linalg.eigvalsh, np.linalg.eigh):
                assert (outcome(checked_solve, m, solver)
                        == outcome(reference_checked_solve, m, solver))

    def test_flaws_reach_every_check(self):
        # each flaw of the strategy raises what it should at twice its tolerance
        rng = np.random.default_rng(5)
        raised = {f: outcome(checked_solve, flawed_state(rng, 3, f, 2.0),
                             np.linalg.eigvalsh) for f in FLAWS}
        assert isinstance(raised["none"], list)
        assert raised["nan"][0] is ValueError and raised["inf"][0] is ValueError
        assert raised["hermiticity"][0] is NotHermitian
        assert raised["trace"][1].startswith("trace (1.0000000002+3.9")
        assert raised["psd"][1].startswith("minimum eigenvalue -2.000e-09")
