import numpy as np
import pytest

from hsswitness.dynamics import scenario


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def random_density_matrices(rng):
    """A batch of random 6x6 qubit-qutrit density matrices."""
    from hsswitness.hilbert import DensityMatrix
    out = []
    for _ in range(12):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = a @ a.conj().T
        out.append(DensityMatrix(m / m.trace(), (2, 3)))
    return out


@pytest.fixture(scope="session")
def all_qubit_qutrit_scenarios():
    """The pair's kinds at their defaults, the figure parameters (q = 0.1)."""
    return {name: scenario(name.replace("-", "_"))
            for name in ("squeezed", "rtn-independent", "rtn-common", "composite")}


@pytest.fixture(scope="session")
def qudit_half():
    return scenario("squeezed", spin=0.5)
