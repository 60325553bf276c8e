"""States, Haar sampling, and state-level metrics.

Conventions shared by the whole package:

* matrices are dense ``complex128`` numpy arrays,
* subsystem index 0 is the leftmost tensor factor,
* Hermitian eigendecomposition is the numerical kernel, with one
  exception: the trace norm of a 2 x 2 block (a qubit state or output)
  is taken in closed form,
* any eigenvalue within ``ZERO_TOL`` of zero is treated as zero.

The linear algebra every other module builds on lives here, once:
``_half_trace_norm`` (one matrix or a stack; trace distances, SDP
bounds, CP violation; closed form for 2 x 2, ``eigvalsh`` otherwise),
``_hermitian_function`` (PSD parts, square roots, density projections,
unitaries from generators), ``_project_simplex``, ``_haar_vectors``
(every Haar pure-state draw), and ``_relative_entropy_core`` (the
spectral part of both relative entropies).

All types are immutable after construction and all operations are pure
functions, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, SupportError, ValidationError

#: Magnitude below which an eigenvalue counts as zero.  Dimensions stay
#: small (d <= 64), so double precision leaves ample headroom.
ZERO_TOL = 1e-10


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
        if np.max(np.abs(data - data.conj().T)) > ZERO_TOL:
            raise ValidationError("state matrix is not Hermitian")
        if abs(np.trace(data) - 1.0) > ZERO_TOL:
            raise ValidationError(f"state matrix has trace {np.trace(data):.12g}, expected 1")
        if np.linalg.eigvalsh(data)[0] < -ZERO_TOL:
            raise ValidationError("state matrix has a negative eigenvalue")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @classmethod
    def computational(cls, dim: int, index: int = 0) -> "DensityMatrix":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls(np.outer(v, v.conj()))


def _half_trace_norm(mat: np.ndarray):
    """Half the trace norm of the Hermitian part of a matrix, or of each
    matrix in a stack of shape (..., d, d).  No validation: batched
    callers sit on hot paths.

    For 2 x 2 blocks the Hermitian part has eigenvalues ``mid +- rad``
    (``mid`` half its trace, ``rad`` the spectral norm of its traceless
    part), so half the trace norm is ``max(|mid|, rad)`` in closed form;
    larger blocks go through ``eigvalsh``."""
    if mat.shape[-2:] == (2, 2):
        p, r = mat[..., 0, 0].real, mat[..., 1, 1].real
        q = 0.5 * (mat[..., 0, 1] + np.conj(mat[..., 1, 0]))
        return np.maximum(np.abs(0.5 * (p + r)), np.hypot(0.5 * (p - r), np.abs(q)))
    herm = 0.5 * (mat + np.conj(np.swapaxes(mat, -1, -2)))
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(herm)), axis=-1)


def _hermitian_function(mat: np.ndarray, fn) -> np.ndarray:
    """``f(mat)`` for a Hermitian matrix, with ``fn`` mapping its
    eigenvalue array to the new eigenvalues."""
    w, v = np.linalg.eigh(mat)
    return (v * fn(w)) @ v.conj().T


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, w.size + 1)
    k = np.nonzero(u * idx > (css - 1.0))[0][-1]
    tau = (css[k] - 1.0) / (k + 1.0)
    return np.clip(w - tau, 0.0, None)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of ``rho - sigma``.

    Equals ``0.5 * sum(|eigenvalues|)`` of the (Hermitian) difference.
    Symmetric, satisfies the triangle inequality, and lies in [0, 1]
    for valid states; matrices that violate positivity (conditional-map
    outputs) are accepted and may yield values above 1.
    """
    a, b = _as_matrix(rho), _as_matrix(sigma)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(_half_trace_norm(a - b))


def relative_entropy(rho, sigma) -> float:
    """Base-2 relative entropy ``tr[rho (log2 rho - log2 sigma)]``.

    Requires the support of ``rho`` to lie inside the support of
    ``sigma`` (rank tolerance ``ZERO_TOL``); otherwise raises
    :class:`SupportError` carrying the offending kernel weight.
    """
    a, b = _as_matrix(rho), _as_matrix(sigma)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    lam, u = np.linalg.eigh(0.5 * (a + a.conj().T))
    mu, v = np.linalg.eigh(0.5 * (b + b.conj().T))

    kernel = mu <= ZERO_TOL
    if kernel.any():
        weights = np.real(np.einsum("ij,ik,kj->j", v[:, kernel].conj(), a, v[:, kernel]))
        worst = float(weights.max()) if weights.size else 0.0
        if worst > ZERO_TOL:
            raise SupportError(
                f"first state has weight {worst:.3e} outside the reference support", worst
            )

    good = mu > ZERO_TOL
    return _relative_entropy_core(lam, u, mu[good], v[:, good], ZERO_TOL)


def _relative_entropy_core(lam, u, mu, v, tol: float) -> float:
    """Base-2 relative entropy from the eigendecomposition ``(lam, u)``
    of rho and the eigenpairs ``(mu, v)`` spanning the support of sigma.
    Eigenvalues of rho at or below ``tol`` contribute nothing."""
    lam = np.clip(lam, 0.0, None)
    pos = lam > tol
    entropy_term = float(np.sum(lam[pos] * np.log2(lam[pos])))

    overlap = np.abs(u.conj().T @ v) ** 2  # overlap[i, j] = |<u_i|v_j>|^2
    cross_term = float(lam @ overlap @ np.log2(mu))
    return max(entropy_term - cross_term, 0.0)


def _haar_vectors(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-random unit vectors as rows: normalized complex
    Gaussians, real parts drawn before imaginary parts."""
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if dim < 2:
        raise DimensionError(f"need dim >= 2, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def _partial_trace_raw(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of an arbitrary square matrix (no state validation)."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"keep indices {keep} out of range for {n} subsystems")
    total = math.prod(dims)
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (total, total):
        raise DimensionError(f"matrix shape {mat.shape} inconsistent with dims {dims}")
    tensor = mat.reshape(dims + dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    reduced = np.einsum(tensor, row + col, out)
    d_keep = math.prod(dims[i] for i in keep) if keep else 1
    return reduced.reshape(d_keep, d_keep)
