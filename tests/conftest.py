import numpy as np
import pytest

from gatemem.channels import GateLabel


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def single_qubit_labels():
    return [GateLabel(name, (0,)) for name in ("H", "S", "T", "X", "Y", "Z")]


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state from a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def is_cp(choi, tol: float) -> bool:
    """Complete positivity of a Choi matrix: no eigenvalue below -tol."""
    return bool(np.linalg.eigvalsh(choi.data)[0] >= -tol)


def is_tp(choi, tol: float) -> bool:
    """Trace preservation of a Choi matrix: its output-traced marginal is
    the identity, to tol."""
    d = choi.dim
    marginal = np.einsum(choi.data.reshape(d, d, d, d), [0, 2, 1, 2], [0, 1])
    return bool(np.max(np.abs(marginal - np.eye(d))) <= tol)


def hermitian_entries(stack):
    """The entries of the Hermitian part of each matrix in a stack of
    shape (n, 4, 4), as ``qcore._half_trace_norm_4x4_entries`` takes
    them: the four real diagonals, then the real and the imaginary parts
    of the six entries above the diagonal, row by row."""
    rows, cols = np.triu_indices(4, 1)
    diag = [stack[:, i, i].real for i in range(4)]
    upper = [0.5 * (stack[:, i, j] + np.conj(stack[:, j, i])) for i, j in zip(rows, cols)]
    return diag, [x.real for x in upper], [x.imag for x in upper]
