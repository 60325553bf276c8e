"""States, Gaussian draws, and trace norms.

Conventions shared by the whole package:

* matrices are dense ``complex128`` numpy arrays,
* subsystem index 0 is the leftmost tensor factor,
* Hermitian eigendecomposition is the numerical kernel: every trace
  norm of a matrix comes from ``eigvalsh``,
* any eigenvalue within ``ZERO_TOL`` of zero is treated as zero.

The linear algebra every other module builds on lives here, once.  Its
Hermitian helpers take one matrix or a stack: ``_hermitian_part``,
``_from_spectrum`` (``v diag(w) v^dagger``, every rebuild from an
eigendecomposition), ``_hermitian_function`` (``eigh``, then
``_from_spectrum``: PSD parts and unitaries from generators),
``_trace_out_last`` (the one partial trace: the simulator's environment,
the output factor of a Choi matrix) and ``_half_trace_norm``.  Beside
them sits ``_complex_normals``, the one Gaussian draw: behind SPAM kicks,
and behind the Haar inputs of :mod:`.avgdist`, which uses them
unnormalized.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError

#: Magnitude below which an eigenvalue counts as zero.  Dimensions stay
#: small (d <= 64), so double precision leaves ample headroom.
ZERO_TOL = 1e-10

# The analysis defaults live in this bottom module so that the command
# line binds its option defaults without importing the analysis modules.

#: Default Monte-Carlo sample count for the averaged trace distance.
DEFAULT_AVG_SAMPLES = 100_000

#: Default upper sequence length of a memory-length scan.
DEFAULT_SCAN_NMAX = 15


def _as_matrix(obj) -> np.ndarray:
    """Return the underlying matrix of a state-like object."""
    if isinstance(obj, DensityMatrix):
        return obj.data
    return np.asarray(obj, dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """A d x d Hermitian, positive-semidefinite, unit-trace matrix.

    Construction validates all three invariants (each to ``ZERO_TOL``)
    and freezes the underlying array.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValidationError(f"state matrix must be square, got shape {data.shape}")
        # each check in the "not x <= tol" form, so that a NaN fails it too
        if not np.max(np.abs(data - data.conj().T)) <= ZERO_TOL:
            raise ValidationError("state matrix is not Hermitian")
        if not abs(np.trace(data) - 1.0) <= ZERO_TOL:
            raise ValidationError(f"state matrix has trace {np.trace(data):.12g}, expected 1")
        if not np.linalg.eigvalsh(data)[0] >= -ZERO_TOL:
            raise ValidationError("state matrix has a negative eigenvalue")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """``(mat + mat^dagger) / 2``, of one matrix or a stack (..., d, d)."""
    return 0.5 * (mat + np.swapaxes(mat.conj(), -1, -2))


def _from_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v diag(w) v^dagger``, of one eigendecomposition or a stack."""
    return (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _trace_out_last(mat: np.ndarray, d_last: int) -> np.ndarray:
    """The partial trace over the last tensor factor, of dimension ``d_last``."""
    d = mat.shape[-1] // d_last
    return np.einsum("...ikjk->...ij", mat.reshape(*mat.shape[:-2], d, d_last, d, d_last))


def _half_trace_norm(mat: np.ndarray):
    """Half the trace norm of the Hermitian part of a matrix, or of each
    matrix in a stack of shape (..., d, d), by ``eigvalsh``.  No
    validation: batched callers sit on hot paths."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(_hermitian_part(mat))), axis=-1)


def _hermitian_function(mat: np.ndarray, fn) -> np.ndarray:
    """``f(mat)`` for a Hermitian matrix, with ``fn`` mapping its
    eigenvalue array to the new eigenvalues."""
    w, v = np.linalg.eigh(mat)
    return _from_spectrum(fn(w), v)


def _complex_normals(dim: int, count: int, rng: np.random.Generator, block: int | None = None):
    """Real and imaginary parts of ``count`` standard complex Gaussian
    vectors, as rows: yields the real parts, of shape (count, dim), then
    the imaginary parts in blocks of ``block`` rows (one block of all
    ``count`` by default), each drawn only when it is asked for and
    written over the last.  The generator fills arrays one value after
    the next, so neither the values nor the generator's final state
    depend on ``block``.  Every Gaussian draw of the package goes through
    here, so one generator state gives one set of inputs whether a caller
    normalizes them or not."""
    yield rng.standard_normal((count, dim))
    block = count if block is None else block
    buf = np.empty((min(block, count), dim))
    for lo in range(0, count, block):
        yield rng.standard_normal(out=buf[: min(block, count - lo)])
