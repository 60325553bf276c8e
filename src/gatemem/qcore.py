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


def _half_trace_norm_4x4_entries(diag, re, im, work) -> np.ndarray:
    """Half the trace norm of n Hermitian 4 x 4 matrices given by their
    entries: ``diag`` the four real diagonals, ``re`` and ``im`` the real
    and imaginary parts of the six entries above it in ``_PAIRS`` order,
    each an array of length n.  The resolvent cubic of the characteristic
    polynomial gives it in closed form.

    The matrix is shifted by ``t = tr / 4`` to a traceless ``B`` with
    eigenvalues ``mu``; ``s2, s3, s4 = tr B^2, tr B^3, tr B^4`` come
    entry by entry from the upper triangles of ``B`` and ``B^2``
    (:func:`_power_sums_4x4`).  The pair sums ``(mu_1 + mu_k)^2``,
    k = 2, 3, 4, are the roots ``y1 >= y2 >= y3 >= 0`` of

        y^3 - s2 y^2 + (s4 - s2^2 / 4) y - (s3 / 3)^2 = 0.

    ``y1`` and ``y2`` come from the trigonometric solution and ``y3``
    from Vieta (``y1 y2 y3 = (s3 / 3)^2``), which keeps ``sqrt(y3)``
    accurate near zero.  With ``a, b, c`` their square roots, the
    eigenvalues are ``sign(s3) / 2`` times ``a + b + c``, ``a - b - c``,
    ``-a + b - c`` and ``-a - b + c``, and the result is
    ``sum |mu + t| / 2``.

    ``work`` is a pair of at least 14 real and 8 complex rows of length
    n that holds every intermediate and the result.  The upper entries
    are copied into its complex rows first, and only ``diag`` is read
    after that, so ``re`` and ``im`` may be among its real rows.  Each
    array operation is one step of the formula in the comment above it,
    taken in the formula's order, so the result has the bits of the
    formula written out.

    Close roots mean close eigenvalues, where the cubic loses about half
    its digits; matrices whose roots are closer than ``_RESOLVENT_GAP``
    (zero and rank-1 matrices among them) are assembled and go through
    ``eigvalsh``."""
    rows, crows = work
    b = crows[:6]
    b.real, b.imag = re, im
    t, shifted = rows[0], rows[1:5]
    # t = (diag_0 + diag_1 + diag_2 + diag_3) / 4, and B's diagonal
    np.add(diag[0], diag[1], out=t)
    t += diag[2]
    t += diag[3]
    t *= 0.25
    for x, row in zip(diag, shifted):
        np.subtract(x, t, out=row)
    s2, s3, s4 = _power_sums_4x4(shifted, b, rows[5:], crows[6:])

    # in x = y - m the cubic reads x^3 - 3 r^2 x + q = 0, with roots
    # 2 r cos(phi - 2 pi k / 3) for cos(3 phi) = -q / (2 r^3), k = 0, 1.
    # B's diagonal is spent: its rows take c0, r, y1, y2 and a spare
    c0, r, y1, y2, x = rows[1:6]
    with np.errstate(divide="ignore", invalid="ignore"):
        # c1 = s4 - s2^2 / 4, into s4
        c1 = np.subtract(s4, np.multiply(np.multiply(0.25, s2, out=x), s2, out=x), out=s4)
        np.square(np.divide(s3, 3.0, out=c0), out=c0)  # c0 = (s3 / 3)^2
        m = np.divide(s2, 3.0, out=s2)  # m = s2 / 3, into s2
        # r = sqrt(max(m^2 - c1 / 3, 0))
        np.multiply(m, m, out=r)
        r -= np.divide(c1, 3.0, out=x)
        np.sqrt(np.maximum(r, 0.0, out=r), out=r)
        # q = m (c1 - 2 m^2) - c0, into c1
        np.multiply(np.multiply(2.0, m, out=x), m, out=x)
        q = np.subtract(c1, x, out=c1)
        q *= m
        q -= c0
        # cos(phi) = cos(arccos(clip(-q / (2 r^3), -1, 1)) / 3), into q
        np.multiply(2.0, np.power(r, 3, out=x), out=x)
        cos_phi = np.negative(q, out=q)
        cos_phi /= x
        np.arccos(np.clip(cos_phi, -1.0, 1.0, out=cos_phi), out=cos_phi)
        cos_phi /= 3.0
        np.cos(cos_phi, out=cos_phi)
        # y1 = m + 2 r cos(phi)
        np.multiply(np.multiply(2.0, r, out=y1), cos_phi, out=y1)
        y1 += m
        # y2 = m + r (sqrt(3 (1 - cos(phi)^2)) - cos(phi))
        np.subtract(1.0, np.multiply(cos_phi, cos_phi, out=y2), out=y2)
        np.sqrt(np.multiply(3.0, y2, out=y2), out=y2)
        y2 -= cos_phi
        y2 *= r
        y2 += m
        y3 = np.divide(c0, np.multiply(y1, y2, out=x), out=c0)  # y3 = c0 / (y1 y2), into c0
        # (y1 - y2)(y2 - y3) >= _RESOLVENT_GAP y1^2 and y3 >= 0: False on
        # NaN, and only true for y1 > y2 > y3 >= 0
        np.multiply(np.subtract(y1, y2, out=x), np.subtract(y2, y3, out=r), out=x)
        trusted = x >= np.multiply(np.multiply(_RESOLVENT_GAP, y1, out=m), y1, out=m)
        trusted &= y3 >= 0.0
        a, bb, c = np.sqrt(y1, out=y1), np.sqrt(y2, out=y2), np.sqrt(y3, out=y3)

    # u, v, hc = h (a + b), h (a - b), h c for h = sign(s3) / 2, into the
    # rows of x, a and c
    h = np.copysign(0.5, s3, out=s3)
    u = np.multiply(h, np.add(a, bb, out=x), out=x)
    v = np.multiply(h, np.subtract(a, bb, out=a), out=a)
    hc = np.multiply(h, c, out=c)
    # (|t + u + hc| + |t + v - hc| + |t - v - hc| + |t - u + hc|) / 2
    half, e = rows[6], rows[7]
    np.abs(np.add(np.add(t, u, out=half), hc, out=half), out=half)
    half += np.abs(np.subtract(np.add(t, v, out=e), hc, out=e), out=e)
    half += np.abs(np.subtract(np.subtract(t, v, out=e), hc, out=e), out=e)
    half += np.abs(np.add(np.subtract(t, u, out=e), hc, out=e), out=e)
    half *= 0.5
    if not trusted.all():
        rest = ~trusted
        herm = _hermitian_from_entries([x[rest] for x in diag], b.real[:, rest], b.imag[:, rest])
        half[rest] = _half_trace_norm(herm)
    return half


def _power_sums_4x4(d, b, rows, crows):
    """``tr B^2, tr B^3, tr B^4`` of n Hermitian 4 x 4 matrices ``B``
    with real diagonals ``d`` and the six complex rows ``b`` of entries
    above them, in ``_PAIRS`` order: three of the 9 real rows of length n
    in ``rows``, which with the 2 complex rows of ``crows`` hold every
    intermediate.

    Each ``|B_ij|^2`` comes from the two parts of the entry, and each
    conjugate entry of ``B`` is formed in a spare row where a product
    uses it; the upper entries of ``B^2`` are formed one pair at a time,
    added into ``s3`` and ``s4`` and dropped.  Every sum starts from zero
    and adds its terms in index order."""
    sq_diag, (s2, s3, s4, x, y) = rows[:4], rows[4:9]
    sq, tmp = crows[0], crows[1]
    upper = dict(zip(_PAIRS, b))

    def entry(i, j):  # B_ij off the diagonal; no product takes two conjugates
        return upper[i, j] if i < j else np.conj(upper[j, i], out=tmp)

    # B^2: a real diagonal, d_i^2 plus the |B_ik|^2 of row i, then the
    # upper triangle, whose entries (B^2)_ij add 2 Re(conj(B_ij) (B^2)_ij)
    # to s3 and 2 |(B^2)_ij|^2 to s4
    for row in sq_diag:
        row.fill(0.0)
    for (i, j), b_ij in upper.items():
        np.multiply(b_ij.real, b_ij.real, out=x)
        x += np.multiply(b_ij.imag, b_ij.imag, out=y)
        sq_diag[i] += x
        sq_diag[j] += x
    for d_i, row in zip(d, sq_diag):
        row += np.multiply(d_i, d_i, out=x)
    for s in (s2, s3, s4):
        s.fill(0.0)
    for d_i, row in zip(d, sq_diag):
        s2 += row
        s3 += np.multiply(d_i, row, out=x)
        s4 += np.multiply(row, row, out=x)
    acc3, acc4 = sq_diag[:2]  # the diagonal of B^2 is spent
    acc3.fill(0.0)
    acc4.fill(0.0)
    for (i, j), b_ij in upper.items():
        k, l = (k for k in range(4) if k not in (i, j))
        np.multiply(entry(i, k), entry(k, j), out=sq)
        sq += np.multiply(entry(i, l), entry(l, j), out=tmp)
        sq += np.multiply(np.add(d[i], d[j], out=x), b_ij, out=tmp)
        acc3 += np.multiply(np.conj(b_ij, out=tmp), sq, out=tmp).real
        acc4 += np.multiply(np.conj(sq, out=tmp), sq, out=tmp).real
    s3 += np.multiply(2.0, acc3, out=x)
    s4 += np.multiply(2.0, acc4, out=x)
    return s2, s3, s4


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
