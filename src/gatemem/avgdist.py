"""Mean output trace distance over Haar-random pure inputs, beside the
diamond distance of :mod:`.sdp`, with its whole kernel: the sliced
Gaussian draw, the transfer matrix, the qubit and 4 x 4 closed forms of
the half trace norm, and the one workspace whose rows they share."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel
from .exceptions import DimensionError, ValidationError
from .qcore import DEFAULT_AVG_SAMPLES, _complex_normals, _half_trace_norm


@dataclass(frozen=True)
class AvgDistanceResult:
    """Monte-Carlo averaged trace distance with its raw sample distances."""

    mean: float
    stderr: float
    samples: np.ndarray


def avg_trace_distance(
    a: QuantumChannel,
    b: QuantumChannel,
    m_samples: int = DEFAULT_AVG_SAMPLES,
    rng: np.random.Generator | None = None,
) -> AvgDistanceResult:
    """Mean output trace distance over Haar-random pure inputs.

    Inputs are pure states of the system dimension (no ancilla), so
    this is the typical-case counterpart of the worst-case diamond
    distance.  The raw per-sample distances are returned for
    distribution plots, along with the Monte-Carlo standard error.

    Inputs are drawn in batches of 20,000, one :func:`.qcore._complex_normals`
    call each, so the batch size fixes the random stream.  :func:`_half_norms`
    takes each sample straight from its draw, unnormalized, in slices of
    ``16_000 // d`` samples: a batch's real parts are drawn whole, its
    imaginary parts one slice at a time after them, and every slice works
    in one :func:`_workspace`, allocated once per call.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if m_samples < 1:
        raise ValidationError(f"need at least one sample, got {m_samples}")
    rng = np.random.default_rng() if rng is None else rng

    d = a.dim
    samples = np.empty(m_samples)
    transfer = _hermitian_transfer(a.superop - b.superop)
    # the width, unlike the draw size, leaves the stream as it is.  It
    # spreads each of the d = 4 closed form's hundred or so array operations
    # over 4,000 samples that stay in cache (a fifth faster than 2,000); the
    # sliced draw and the workspace keep a paper-scale call at 2.9 MB
    width = min(16_000 // d, m_samples)
    work = _workspace(d, width)
    for start in range(0, m_samples, 20_000):
        parts = _complex_normals(d, min(20_000, m_samples - start), rng, width)
        re = next(parts)
        for lo, im in zip(range(start, start + len(re), width), parts):
            hi = lo + len(im)
            _half_norms(transfer, re[lo - start : hi - start], im, work, samples[lo:hi])
        del re, parts  # so that the next draw does not sit beside this one
    del work  # nor the workspace beside the deviations that std takes

    stderr = float(samples.std(ddof=1) / math.sqrt(m_samples)) if m_samples > 1 else 0.0
    return AvgDistanceResult(mean=float(samples.mean()), stderr=stderr, samples=samples)


def _workspace(d: int, width: int) -> np.ndarray:
    """The rows :func:`_half_norms` writes into, for up to ``width``
    samples: the input coordinates, the output coordinates and d spare
    rows, 2 d^2 + d rows of ``width`` rounded up to a multiple of 16."""
    return np.empty((2 * d * d + d, -(-width // 16) * 16))


def _hermitian_transfer(delta: np.ndarray) -> np.ndarray:
    """Real d^2 x d^2 transfer matrix of a column-stacked superoperator
    ``delta`` (``D``) on the coordinates of :func:`_half_norms`: it maps
    those of a Hermitian ``rho`` to those of the Hermitian part of
    ``D(rho)``, so ``D`` need not preserve trace or Hermiticity.

    Coordinate ``m`` is the weight of the basis matrix ``B_m``: ``E_ii``,
    then ``E_ij + E_ji`` and ``i E_ij - i E_ji`` for i < j.  The
    Hermitian part of ``M`` has coordinates ``w_m Re tr(B_m^dag M)``,
    with ``w_m`` 1 on the diagonal and 1/2 above it, so the matrix is
    ``Re(w_m tr(B_m^dag D(B_l)))``."""
    d = math.isqrt(len(delta))
    rows, cols = _upper_indices(d)
    n = len(rows)
    # column m is vec(B_m): entry (i, j) of a matrix sits at j * d + i
    vecs = np.zeros((d * d, d * d), dtype=complex)
    vecs[np.arange(d) * (d + 1), np.arange(d)] = 1.0
    k = d + np.arange(n)  # the real parts; the imaginary parts follow at k + n
    vecs[cols * d + rows, k] = vecs[rows * d + cols, k] = 1.0
    vecs[cols * d + rows, k + n], vecs[rows * d + cols, k + n] = 1j, -1j
    weights = np.where(np.arange(d * d) < d, 1.0, 0.5)
    return weights[:, None] * (vecs.conj().T @ delta @ vecs).real


def _half_norms(transfer: np.ndarray, re: np.ndarray, im: np.ndarray,
                work: np.ndarray, samples: np.ndarray) -> None:
    """Write into ``samples`` half the trace norm of the Hermitian part of
    ``D(|z><z|)`` for the Haar-random states ``|z>`` of the rows of a
    Gaussian draw ``re + i im``, ``D`` given by its
    :func:`_hermitian_transfer` matrix, in a :func:`_workspace` ``work``.

    From the normals ``z = a + i b`` of one row, the d^2 real
    coordinates of ``|z><z|`` are its diagonal ``a_i^2 + b_i^2``, and
    ``Re z_i conj(z_j) = a_i a_j + b_i b_j`` and ``Im z_i conj(z_j) =
    b_i a_j - a_i b_j`` over the upper triangle.  The transfer matrix
    maps them to the output's coordinates.  A 2 x 2 output with diagonal
    ``o_0, o_1`` and upper entry ``x + i y`` has eigenvalues ``mid +-
    sqrt(h^2 + x^2 + y^2)``, ``mid, h = (o_0 +- o_1) / 2``, so half its
    trace norm is the larger magnitude of the two; 4 x 4 outputs take the
    closed form of :func:`_half_trace_norm_4x4_entries` and larger
    ones ``eigvalsh``.  Half the trace norm is homogeneous of degree 1,
    so dividing by ``|z|^2`` takes the place of normalizing ``z``.

    BLAS takes the last columns of a product that do not fill a block of
    its kernel (16 wide with AVX-512) through other instructions, with
    other roundings, so the transfer product runs over whole blocks of 16
    columns, the extra ones zero: no sample's bits depend on where its
    slice ends, and a one-sample slice is not a matrix-vector product."""
    d, count = re.shape[1], len(re)
    wide = work[:, : -(-count // 16) * 16]
    rows = wide[:, :count]
    a, b = re.T, im.T
    n = d * (d - 1) // 2
    coords, out, spare = rows[: d * d], rows[d * d : 2 * d * d], rows[2 * d * d :]
    np.multiply(a, a, out=coords[:d])
    coords[:d] += np.multiply(b, b, out=spare)
    # products go into coords and the spare rows (a new temporary per
    # product made a d = 4 slice ~12% slower); the m pairs (i, i + 1..d - 1)
    # of row i of the upper triangle are one block of rows in each half,
    # so one call takes each product of a row
    top = d
    for i, m in enumerate(range(d - 1, 0, -1)):
        x, y, tmp = coords[top : top + m], coords[top + n : top + n + m], spare[:m]
        np.multiply(a[i], a[i + 1 :], out=x)
        x += np.multiply(b[i], b[i + 1 :], out=tmp)
        np.multiply(b[i], a[i + 1 :], out=y)
        y -= np.multiply(a[i], b[i + 1 :], out=tmp)
        top += m
    wide[: d * d, count:] = 0.0
    np.matmul(transfer, wide[: d * d], out=wide[d * d : 2 * d * d])
    norm = np.sum(coords[:d], axis=0, out=spare[0])
    if d == 2:  # max(|mid|, sqrt(h^2 + x^2 + y^2)), in the spent input rows
        mid, h, tmp = coords[:3]
        np.multiply(0.5, np.add(out[0], out[1], out=mid), out=mid)
        np.multiply(0.5, np.subtract(out[0], out[1], out=h), out=h)
        np.multiply(h, h, out=h)
        h += np.multiply(out[2], out[2], out=tmp)
        h += np.multiply(out[3], out[3], out=tmp)
        half = np.maximum(np.abs(mid, out=mid), np.sqrt(h, out=h), out=mid)
    elif d == 4:
        # the input coordinates are spent: their 16 whole rows take the
        # closed form's 8 complex rows, the upper entries first, and the
        # rows those leave and the spare rows take its real ones
        crows = work[: d * d].reshape(8, -1).view(complex)[:, :count]
        half = _half_trace_norm_4x4_entries(out[:d], out[d : d + n], out[d + n :],
                                            ([*spare[1:], *out[d:]], crows))
    else:
        half = _half_trace_norm(_hermitian_from_entries(out[:d], out[d : d + n], out[d + n :]))
    np.divide(half, norm, out=samples)


#: Smallest relative spacing ``(y1 - y2)(y2 - y3) / y1**2`` of the
#: resolvent roots at which the stacked 4 x 4 closed form is trusted.
#: Measured on spectra with close pairs, triples, two pairs and
#: quadruples, and on ``(a, -a, e, e')``, scaled from 1e-8 to 1e3, its
#: error against ``eigvalsh`` stays below about 5e-16 / spacing times
#: the spectral norm (5.7e-14 at this bound).
_RESOLVENT_GAP = 1e-2


@functools.cache
def _upper_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a dim x dim
    matrix, row by row."""
    return np.triu_indices(dim, 1)


def _half_trace_norm_4x4_entries(diag, re, im, work) -> np.ndarray:
    """Half the trace norm of n Hermitian 4 x 4 matrices given by their
    entries: ``diag`` the four real diagonals, ``re`` and ``im`` the real
    and imaginary parts of the six entries above it in
    :func:`_upper_indices` order, each an array of length n.  The
    resolvent cubic of the characteristic polynomial gives it in closed
    form.

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
    above them, in :func:`_upper_indices` order: three of the 9 real rows
    of length n in ``rows``, which with the 2 complex rows of ``crows``
    hold every intermediate.

    Each ``|B_ij|^2`` comes from the two parts of the entry, and each
    conjugate entry of ``B`` is formed in a spare row where a product
    uses it; the upper entries of ``B^2`` are formed one pair at a time,
    added into ``s3`` and ``s4`` and dropped.  Every sum starts from zero
    and adds its terms in index order."""
    sq_diag, (s2, s3, s4, x, y) = rows[:4], rows[4:9]
    sq, tmp = crows[0], crows[1]
    upper = dict(zip(zip(*_upper_indices(4)), b))  # (i, j): B_ij

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
