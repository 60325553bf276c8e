import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gatemem
from gatemem.channels import (
    GateLabel,
    QuantumChannel,
    _fitted_gates,
    choi_from_superop,
    gate_unitary,
)
from gatemem.exceptions import DimensionError
from gatemem.qcore import _complex_normals, _from_spectrum, _half_trace_norm, _hermitian_part
from gatemem.tomography import CircuitDescriptor, TomographyFrame

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gatemem.__file__)))


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
    return bool(np.linalg.eigvalsh(choi)[0] >= -tol)


def is_tp(choi, tol: float) -> bool:
    """Trace preservation of a Choi matrix: its output-traced marginal is
    the identity, to tol."""
    d = math.isqrt(choi.shape[0])
    marginal = np.einsum(choi.reshape(d, d, d, d), [0, 2, 1, 2], [0, 1])
    return bool(np.max(np.abs(marginal - np.eye(d))) <= tol)


def hermitian_entries(stack):
    """The entries of the Hermitian part of each matrix in a stack of
    shape (n, 4, 4), as ``qcore._half_trace_norm_4x4_entries`` takes
    them: the four real diagonals, then the real and the imaginary parts
    of the six entries above the diagonal, row by row, and a workspace of
    14 real and 8 complex rows."""
    rows, cols = np.triu_indices(4, 1)
    diag = [stack[:, i, i].real for i in range(4)]
    upper = [0.5 * (stack[:, i, j] + np.conj(stack[:, j, i])) for i, j in zip(rows, cols)]
    work = np.empty((14, len(stack))), np.empty((8, len(stack)), dtype=complex)
    return diag, [x.real for x in upper], [x.imag for x in upper], work


def purification(rho: np.ndarray) -> np.ndarray:
    """``|psi><psi|`` of ``|psi> = sum_i (sqrt(rho^T) e_i) (x) e_i``, a
    joint system (x) ancilla input whose output under a map with Choi
    matrix J has the half trace norm of ``(sqrt(rho) (x) I) J (sqrt(rho)
    (x) I)``: the input that achieves a diamond result's ``primal_bound``
    at its ``input_state``."""
    w, v = np.linalg.eigh(rho.T)
    psi = ((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T).reshape(-1)
    return np.outer(psi, psi.conj())


def fresh_python(args, cwd, **env) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that runs in ``cwd``,
    imports this checkout's gatemem and sees ``env`` added to the
    environment; its output is captured as text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]), **env)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


# Fixtures and references the program never runs: channels, states and
# configurations to test it on, and a brute-force bound on the diamond
# distance that the certified solver is checked against.

#: Coupling strengths used for detectability studies; detection strength
#: grows monotonically across this grid.
DEFAULT_COUPLING_GRID = (0.05, 0.1, 0.2, 0.4, 0.55)


def _haar_vectors(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-random unit vectors as rows: the complex Gaussians
    of :func:`_complex_normals`, normalized."""
    re, im = _complex_normals(dim, count, rng)
    z = re + 1j * im
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if dim < 2:
        raise DimensionError(f"need dim >= 2, got {dim}")
    re, im = _complex_normals(dim, dim, rng)
    z = (re + 1j * im) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def ideal_channel(gate: GateLabel, n_qubits: int | None = None) -> QuantumChannel:
    """Noiseless channel ``rho -> U rho U+`` for a standard gate, on the
    gate's own wires unless ``n_qubits`` is given."""
    u = gate_unitary(gate, max(gate.qubits) + 1 if n_qubits is None else n_qubits)
    return QuantumChannel(np.kron(u.conj(), u))


def random_channel(
    dim: int, rng: np.random.Generator, kraus_rank: int | None = None
) -> QuantumChannel:
    """Random CPTP channel from a Haar-random Stinespring isometry."""
    k = dim * dim if kraus_rank is None else int(kraus_rank)
    re, im = _complex_normals(dim, dim * k, rng)
    q, _ = np.linalg.qr(re + 1j * im)
    kraus = q.reshape(k, dim, dim)
    superop = sum(np.kron(op.conj(), op) for op in kraus)
    return QuantumChannel(superop)


def enumerate_circuits(gate_sequence, frame: TomographyFrame) -> list[CircuitDescriptor]:
    """All 4^N x 3^N configurations for one gate sequence."""
    gates = _fitted_gates(gate_sequence, frame.n_qubits)
    return [
        CircuitDescriptor(p, m, gates)
        for p in frame.prep_labels
        for m in frame.meas_labels
    ]


def diamond_lower_bound(
    a: QuantumChannel,
    b: QuantumChannel,
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Brute-force lower bound on the diamond distance.

    Maximizes the output trace distance over Haar-random pure inputs on
    system (x) ancilla, then locally refines the best five candidates,
    up to 300 steps each, by alternating between the optimal
    discriminating projector and the top eigenvector of its pullback.
    Every reported value is an achieved distance, hence a true lower
    bound.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    rng = np.random.default_rng() if rng is None else rng
    d = a.dim
    delta = choi_from_superop(a) - choi_from_superop(b)
    choi4 = delta.reshape(d, d, d, d)  # [in, out, in', out']

    def output(psi_mat: np.ndarray) -> np.ndarray:
        # psi_mat[s, anc]; joint density |psi><psi|
        return np.einsum("stuv,sa,ub->tavb", choi4, psi_mat, psi_mat.conj()).reshape(
            d * d, d * d
        )

    # batched random search
    psis = _haar_vectors(d * d, n_samples, rng).reshape(n_samples, d, d)
    outs = np.einsum("stuv,nsa,nub->ntavb", choi4, psis, psis.conj()).reshape(
        n_samples, d * d, d * d
    )
    values = _half_trace_norm(outs)

    best = float(values.max())
    order = np.argsort(values)[::-1][:5]
    for idx in order:
        psi = psis[idx].copy()
        current = values[idx]
        for _ in range(300):
            w, v = np.linalg.eigh(_hermitian_part(output(psi)))
            proj = _from_spectrum((w > 0).astype(float), v)
            # pull the discriminating projector back through the map
            h = np.einsum(
                "stuv,tavb->saub", choi4.conj(), proj.reshape(d, d, d, d)
            ).reshape(d * d, d * d)
            psi_new = np.linalg.eigh(_hermitian_part(h))[1][:, -1].reshape(d, d)
            new_value = float(_half_trace_norm(output(psi_new)))
            if new_value <= current + 1e-13:
                break
            psi, current = psi_new, new_value
        best = max(best, current)
    return best
