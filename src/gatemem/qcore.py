"""States, Gaussian draws, and trace norms.

Conventions shared by the whole package:

* matrices are dense ``complex128`` numpy arrays,
* subsystem index 0 is the leftmost tensor factor,
* Hermitian eigendecomposition is the numerical kernel: every trace
  norm of a matrix comes from ``eigvalsh``, and closed forms act only on
  the entries of an averaged distance's outputs (qubits in
  :mod:`.nonmarkov`, two qubits in ``_half_trace_norm_4x4_entries``),
* any eigenvalue within ``ZERO_TOL`` of zero is treated as zero.

The linear algebra every other module builds on lives here, once.  Its
Hermitian helpers take one matrix or a stack: ``_hermitian_part``,
``_from_spectrum`` (``v diag(w) v^dagger``, every rebuild from an
eigendecomposition), ``_hermitian_function`` (``eigh``, then
``_from_spectrum``: PSD parts and unitaries from generators),
``_trace_out_last`` (the one partial trace: the simulator's environment,
the output factor of a Choi matrix) and ``_half_trace_norm``.  Beside
them sits ``_complex_normals``, the one Gaussian draw: behind SPAM kicks,
and behind the averaged distance's Haar inputs, which it uses
unnormalized.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError

#: Magnitude below which an eigenvalue counts as zero.  Dimensions stay
#: small (d <= 64), so double precision leaves ample headroom.
ZERO_TOL = 1e-10

# The analysis defaults live in this bottom module so that the command
# line binds its option defaults without importing :mod:`.nonmarkov`.

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

    @property
    def dim(self) -> int:
        return self.data.shape[0]


#: Smallest relative spacing ``(y1 - y2)(y2 - y3) / y1**2`` of the
#: resolvent roots at which the stacked 4 x 4 closed form is trusted.
#: Measured on spectra with close pairs, triples, two pairs and
#: quadruples, and on ``(a, -a, e, e')``, scaled from 1e-8 to 1e3, its
#: error against ``eigvalsh`` stays below about 5e-16 / spacing times
#: the spectral norm (5.7e-14 at this bound).
_RESOLVENT_GAP = 1e-2

_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


@functools.cache
def _upper_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a dim x dim
    matrix, row by row (``_PAIRS`` order for dim = 4)."""
    return np.triu_indices(dim, 1)


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


def _half_trace_norm_4x4_entries(diag, re, im) -> np.ndarray:
    """Half the trace norm of n Hermitian 4 x 4 matrices given by their
    entries: ``diag`` the four real diagonals, ``re`` and ``im`` the real
    and imaginary parts of the six entries above it in ``_PAIRS`` order,
    each an array of length n.  The resolvent cubic of the characteristic
    polynomial gives it in closed form.

    The matrix is shifted by ``t = tr / 4`` to a traceless ``B`` with
    eigenvalues ``mu``; ``s2, s3, s4 = tr B^2, tr B^3, tr B^4`` come
    entry by entry from the upper triangles of ``B`` and ``B^2``.  Each
    ``|B_ij|^2`` comes from the two parts of the entry, and each
    conjugate entry of ``B`` is formed where a product uses it; the upper
    entries of ``B^2`` are formed one pair at a time, added into ``s3``
    and ``s4`` and dropped, so few arrays of length n are alive at once.
    The pair sums ``(mu_1 + mu_k)^2``, k = 2, 3, 4, are the roots
    ``y1 >= y2 >= y3 >= 0`` of

        y^3 - s2 y^2 + (s4 - s2^2 / 4) y - (s3 / 3)^2 = 0.

    ``y1`` and ``y2`` come from the trigonometric solution and ``y3``
    from Vieta (``y1 y2 y3 = (s3 / 3)^2``), which keeps ``sqrt(y3)``
    accurate near zero.  With ``a, b, c`` their square roots, the
    eigenvalues are ``sign(s3) / 2`` times ``a + b + c``, ``a - b - c``,
    ``-a + b - c`` and ``-a - b + c``, and the result is
    ``sum |mu + t| / 2``.

    Close roots mean close eigenvalues, where the cubic loses about half
    its digits; matrices whose roots are closer than ``_RESOLVENT_GAP``
    (zero and rank-1 matrices among them) are assembled and go through
    ``eigvalsh``."""
    t = 0.25 * (diag[0] + diag[1] + diag[2] + diag[3])
    s2, s3, s4 = _power_sums_4x4([x - t for x in diag], re, im)

    # in x = y - m the cubic reads x^3 - 3 r^2 x + q = 0, with roots
    # 2 r cos(phi - 2 pi k / 3) for cos(3 phi) = -q / (2 r^3), k = 0, 1
    c1 = s4 - 0.25 * s2 * s2
    c0 = (s3 / 3.0) ** 2
    m = s2 / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(np.maximum(m * m - c1 / 3.0, 0.0))
        q = m * (c1 - 2.0 * m * m) - c0
        cos_phi = np.cos(np.arccos(np.clip(-q / (2.0 * r**3), -1.0, 1.0)) / 3.0)
        y1 = m + 2.0 * r * cos_phi
        y2 = m + r * (np.sqrt(3.0 * (1.0 - cos_phi * cos_phi)) - cos_phi)
        y3 = c0 / (y1 * y2)
        # False on NaN, and only true for y1 > y2 > y3 >= 0
        trusted = (y3 >= 0.0) & ((y1 - y2) * (y2 - y3) >= _RESOLVENT_GAP * y1 * y1)
        a, bb, c = np.sqrt(y1), np.sqrt(y2), np.sqrt(y3)

    h = np.copysign(0.5, s3)
    u, v = h * (a + bb), h * (a - bb)
    hc = h * c
    out = 0.5 * (np.abs(t + u + hc) + np.abs(t + v - hc) + np.abs(t - v - hc) + np.abs(t - u + hc))
    if not trusted.all():
        rest = ~trusted
        herm = _hermitian_from_entries(*([x[rest] for x in part] for part in (diag, re, im)))
        out[rest] = _half_trace_norm(herm)
    return out


def _power_sums_4x4(d, re, im):
    """``tr B^2, tr B^3, tr B^4`` of n Hermitian 4 x 4 matrices ``B``
    with real diagonals ``d`` and entries ``re + i im`` above them, as
    :func:`_half_trace_norm_4x4_entries` takes them.  Only the sums
    outlive the call."""
    b = np.empty((6, len(d[0])), dtype=complex)
    b.real, b.imag = re, im
    upper = dict(zip(_PAIRS, b))

    def entry(i, j):  # B_ij off the diagonal
        return upper[i, j] if i < j else np.conj(upper[j, i])

    norm2 = {}
    for (i, j), x, y in zip(_PAIRS, re, im):
        norm2[i, j] = norm2[j, i] = x * x + y * y

    # B^2: a real diagonal, then the upper triangle, whose entries
    # (B^2)_ij add 2 Re(conj(B_ij) (B^2)_ij) to s3 and 2 |(B^2)_ij|^2 to s4
    sq_diag = [d[i] * d[i] + sum(norm2[i, k] for k in range(4) if k != i) for i in range(4)]
    s2 = sum(sq_diag)
    s3 = sum(d[i] * sq_diag[i] for i in range(4))
    s4 = sum(x * x for x in sq_diag)
    acc3, acc4 = np.zeros(len(s2), dtype=complex), np.zeros(len(s2), dtype=complex)
    for (i, j), b_ij in upper.items():
        k, l = (k for k in range(4) if k not in (i, j))
        sq = entry(i, k) * entry(k, j)
        sq += entry(i, l) * entry(l, j)
        sq += (d[i] + d[j]) * b_ij
        acc3 += np.conj(b_ij) * sq
        acc4 += np.conj(sq) * sq
    return s2, s3 + 2.0 * acc3.real, s4 + 2.0 * acc4.real


def _hermitian_from_entries(diag, re, im) -> np.ndarray:
    """The stack of shape (n, d, d) of Hermitian matrices with real
    diagonals ``diag`` (d arrays of length n) and upper triangles with
    real parts ``re`` and imaginary parts ``im`` (d(d - 1)/2 arrays each,
    in :func:`_upper_indices` order)."""
    dim = len(diag)
    rows, cols = _upper_indices(dim)
    herm = np.empty((len(diag[0]), dim, dim), dtype=complex)
    herm[:, range(dim), range(dim)] = np.transpose(diag)
    herm.real[:, rows, cols] = np.transpose(re)
    herm.imag[:, rows, cols] = np.transpose(im)
    herm[:, cols, rows] = np.conj(herm[:, rows, cols])
    return herm


def _hermitian_function(mat: np.ndarray, fn) -> np.ndarray:
    """``f(mat)`` for a Hermitian matrix, with ``fn`` mapping its
    eigenvalue array to the new eigenvalues."""
    w, v = np.linalg.eigh(mat)
    return _from_spectrum(fn(w), v)


def _complex_normals(dim: int, count: int, rng: np.random.Generator):
    """Real and imaginary parts, each of shape (count, dim), of ``count``
    standard complex Gaussian vectors: the real parts are drawn first,
    then the imaginary parts.  Every Gaussian draw of the package goes
    through here, so one generator state gives one set of inputs whether
    a caller normalizes them or not."""
    return rng.standard_normal((count, dim)), rng.standard_normal((count, dim))

