"""Memory tests on reconstructed channels.

Three complementary witnesses of gate-history dependence:

1. complete-positivity violation of the history-conditioned map
   ``compose(joint, invert(first))``,
2. distance between the conditioned map and the unconditioned one, and
3. dependence of the conditioned map on *which* gate preceded it.

Two channel distances back these tests: the worst-case (diamond)
distance via the certified SDP in :mod:`gatemem.sdp`, and the typical-
case distance averaged over Haar-random pure inputs.  A memory-length
scan compares an n-step map against concatenations of its shorter
reconstructions, and a relative-entropy proxy scores the multi-step
process against its memoryless reference.

Each analysis call computes its plan, a list of ``(kind, label, rng, a,
b)`` cells, in one :func:`_evaluate` call and returns views of the
results; an error a cell raises names the cell's kind and label, and
one raised building a conditioned map names its first gate.
The matrix functions return unscaled distances: :func:`analyze_grid`
alone applies the display conventions (1/d for diamond entries, a factor
2 for two-qubit target columns), once, to its finished matrices, and only
when asked.

:func:`analyze_grid` runs every witness of a channel grid at once, as
``gatemem analyze`` does, and :func:`repetitions` picks the channels a
memory scan compares, as ``gatemem scan`` does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    QuantumChannel,
    choi_from_superop,
    compose,
    condition_number,
    invert,
)
from .exceptions import DimensionError, GatememError, IncompleteDataError, ValidationError
from .qcore import (
    DEFAULT_AVG_SAMPLES,
    _as_matrix,
    _complex_normals,
    _half_trace_norm,
    _half_trace_norm_4x4_entries,
    _hermitian_from_entries,
    _hermitian_part,
    _upper_indices,
)
from .sdp import DiamondResult, diamond_sdp

#: Weight of the maximally mixed state that :func:`process_tensor_proxy`
#: blends into its memoryless reference.
PTENSOR_REGULARIZATION = 1e-12

@dataclass(frozen=True)
class ConditionalMap:
    """Effective map of a gate given the gate that preceded it.

    ``channel`` may be non-CP; that is the point.  ``cond_number`` is
    the condition number of the inverted first-gate superoperator and
    bounds the reconstruction error of the composition.
    """

    channel: QuantumChannel
    cond_number: float = float("nan")


@dataclass(frozen=True)
class DistanceMatrix:
    """Labelled matrix of channel distances plus applied display scalings."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: np.ndarray
    metric: str
    scaling: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValidationError("distance matrix shape does not match labels")
        if not np.all(np.isfinite(values)) or values.min() < -1e-9:
            raise ValidationError("distance matrix entries must be finite and >= -1e-9")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class MemoryScan:
    """Distances between n-step maps and their (m, n-m) concatenations,
    defined on the strict lower triangle 1 <= m < n <= n_max."""

    n_max: int
    entries: dict

    def __post_init__(self):
        expected = {(n, m) for n in range(2, self.n_max + 1) for m in range(1, n)}
        if set(self.entries) != expected:
            raise ValidationError("memory scan must cover exactly the strict lower triangle")


@dataclass(frozen=True)
class AvgDistanceResult:
    """Monte-Carlo averaged trace distance with its raw sample distances."""

    mean: float
    stderr: float
    samples: np.ndarray


@dataclass(frozen=True)
class GridAnalysis:
    """Every memory witness of one channel grid.  ``cond_vs_marginal``
    is keyed by metric, ``gate_dependence`` by (second gate, metric), and
    the histogram holds the ``pair`` cell's per-sample distances."""

    cp_violation: DistanceMatrix
    cond_vs_marginal: dict
    gate_dependence: dict
    pair: tuple[str, str]
    histogram: AvgDistanceResult


def conditional_map(phi_vu: QuantumChannel, phi_u: QuantumChannel) -> ConditionalMap:
    """Divide the joint two-gate map by the first-gate map.

    Returns ``compose(phi_vu, invert(phi_u))``; for memoryless data this
    reproduces the unconditioned second-gate map, and any CP violation
    or dependence on the first gate witnesses memory.  A first-gate map
    whose singular-value ratio is below :func:`invert`'s threshold 1e-8
    raises :class:`SingularChannelError`.  The check and ``cond_number``
    read the same singular values, computed once per first-gate map.
    """
    chan = compose(phi_vu, invert(phi_u))
    return ConditionalMap(channel=chan, cond_number=condition_number(phi_u))


def _channel_of(obj) -> QuantumChannel:
    return obj.channel if isinstance(obj, ConditionalMap) else obj


def cp_violation(cm) -> float:
    """Trace-norm excess of the normalized operator representation.

    Computes ``sum_i |lambda_i| - 1`` over the eigenvalues of the Choi
    matrix divided by d: exactly zero for CP maps, positive as soon as
    any eigenvalue dips below zero.
    """
    chan = _channel_of(cm)
    choi = choi_from_superop(chan).data / chan.dim
    return max(float(2.0 * _half_trace_norm(choi) - 1.0), 0.0)


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

    Inputs are drawn in batches of 20,000, each batch the normals of
    one :func:`.qcore._complex_normals` call, so the batch size fixes
    the random stream.  Each sample is computed in the real coordinates
    of :func:`_half_norms`, straight from its Gaussian draw and with no
    normalization, in slices of ``16_000 // d`` samples: a batch's real
    parts are drawn whole, and its imaginary parts one slice at a time
    after them, which leaves the stream as it is.  Every slice works in
    one workspace (:func:`_workspace`), allocated once per call.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if m_samples < 1:
        raise ValidationError(f"need at least one sample, got {m_samples}")
    rng = np.random.default_rng() if rng is None else rng

    d = a.dim
    samples = np.empty(m_samples)
    transfer = _hermitian_transfer(a.superop - b.superop)
    # the draw size fixes the random stream; the width does not.  It
    # spreads each of the d = 4 closed form's hundred or so array
    # operations over 4,000 samples, whose rows still stay in cache (a
    # cell takes a fifth less time than at 2,000).  Drawing the imaginary
    # parts by slice and writing every intermediate into the workspace pay
    # for the wider rows: a paper-scale call peaks at 2.9 MB, not 3.3 MB
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
    closed form of :func:`.qcore._half_trace_norm_4x4_entries` and larger
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


def diamond_distance(a: QuantumChannel, b: QuantumChannel) -> DiamondResult:
    """Half the diamond norm of the difference, with a solver certificate.

    Each Choi matrix is Hermitian to 1e-8 (:class:`ChoiMatrix`), and the
    solver takes the Hermitian part of their difference.  The result
    carries the certified primal-dual gap (at most ``sdp.GAP_TOL``), the
    Newton steps taken as ``iterations``, and the optimizing input state.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return diamond_sdp(choi_from_superop(a).data - choi_from_superop(b).data)


@contextlib.contextmanager
def _named(prefix: str):
    """An error of the package raised in the block keeps its type and
    fields and gains the prefix ``<prefix>: ``."""
    try:
        yield
    except GatememError as err:
        err.args = (f"{prefix}: {err}", *err.args[1:])
        raise


def _evaluate(cells, m_samples: int):
    """Yield each ``(kind, label, rng, a, b)`` cell's result in order:
    ``"cp"`` the CP violation of ``a``; ``"avg"`` (drawing from ``rng``) and
    ``"diamond"`` the distance of ``a`` to ``b``; ``"histogram"`` the whole
    averaged result, samples and all.  An error of the package gains the
    prefix ``<kind> cell <label>: `` (:func:`_named`).  Functions are
    looked up at call time: wrappers see all."""
    for kind, label, rng, a, b in cells:
        with _named(f"{kind} cell {label}"):
            if kind == "cp":
                result = cp_violation(a)
            elif kind == "diamond":
                result = diamond_distance(a, b).value
            elif kind == "avg":  # keeps only the mean: samples go before the next cell draws
                result = avg_trace_distance(a, b, m_samples, rng).mean
            else:
                result = avg_trace_distance(a, b, m_samples, rng)
        yield result


def _metric_cells(metric: str, rng, pairs) -> list:
    """One ``metric`` cell per (label, a, b) of ``pairs``; the metric is avg or diamond."""
    if metric not in ("avg", "diamond"):
        raise ValidationError(f"unknown metric {metric!r}; use 'avg' or 'diamond'")
    return [(metric, label, rng, a, b) for label, a, b in pairs]


def _labelled_pairs(labelled) -> list:
    """``(label vs label, a, b)`` for each pair of the ``(label, channel)``
    items of ``labelled``, in :func:`itertools.combinations` order."""
    return [(f"{x} vs {y}", a, b) for (x, a), (y, b) in itertools.combinations(labelled, 2)]


def _grid_view(results, u_labels, v_labels, metric: str) -> DistanceMatrix:
    """The matrix of a grid's next cells, row-major, in ``results``."""
    values = np.fromiter(results, float, len(u_labels) * len(v_labels))
    return DistanceMatrix(tuple(map(str, u_labels)), tuple(map(str, v_labels)),
                          values.reshape(len(u_labels), len(v_labels)), metric)


def _dependence_view(results, labels, metric: str) -> DistanceMatrix:
    """The symmetric matrix of the next upper-triangle cells in ``results``."""
    values = np.zeros((len(labels), len(labels)))
    for i, j in itertools.combinations(range(len(labels)), 2):
        values[i, j] = values[j, i] = next(results)
    return DistanceMatrix(tuple(map(str, labels)), tuple(map(str, labels)), values, metric)


def _display_scaled(matrix: DistanceMatrix, dim: int, targets) -> DistanceMatrix:
    """``matrix`` under the figure conventions, given the target gate of
    each of its columns: diamond entries divided by ``dim``, and the
    columns whose target is the two-qubit gate doubled."""
    scale, applied = np.ones(len(targets)), set()
    if matrix.metric == "diamond":
        scale /= dim
        applied.add(f"diamond/{dim}")
    two_qubit = [str(t).startswith("CX") for t in targets]
    if any(two_qubit):
        scale[two_qubit] *= 2.0
        applied.add("x2-two-qubit-target")
    return dataclasses.replace(matrix, values=matrix.values * scale,
                               scaling=tuple(sorted(applied)))


def gate_dependence_matrix(
    conditionals,
    metric: str = "avg",
    m_samples: int = DEFAULT_AVG_SAMPLES,
    rng: np.random.Generator | None = None,
) -> DistanceMatrix:
    """Pairwise distances between maps conditioned on different first gates.

    ``conditionals`` maps each first-gate label to its conditioned map,
    all for the same target gate and on one common dimension.  A
    clock-like memory that ignores which gate came first produces the
    zero matrix; structure in the entries is dependence on the past.
    """
    labels = [str(k) for k in conditionals]
    if len(labels) < 2:
        raise ValidationError("need at least two conditioning gates")
    chans = zip(labels, map(_channel_of, conditionals.values()))
    cells = _metric_cells(metric, rng, _labelled_pairs(chans))
    return _dependence_view(_evaluate(cells, m_samples), labels, metric)


def conditional_grid(marginals, joints) -> tuple[list, list, dict]:
    """Every history-conditioned map of a complete grid.

    ``marginals`` maps gate labels to single-gate channels and
    ``joints`` maps (first, second) label pairs to two-gate channels.
    The grid spans every first and second gate in ``joints``.  Returns
    the sorted first-gate labels, the sorted second-gate labels, and the
    :class:`ConditionalMap` of each (first, second) cell, the one
    :func:`conditional_map` builds, with each first-gate map inverted
    once.  Raises
    :class:`IncompleteDataError` listing every absent joint map and
    single-gate marginal, or when ``joints`` is empty.  An error of the
    package building a map, such as the :class:`SingularChannelError` of
    a singular first-gate map, gains the prefix ``first gate <label>: ``.
    """
    u_labels = sorted({u for (u, _) in joints}, key=str)
    v_labels = sorted({v for (_, v) in joints}, key=str)
    missing = [f"{u},{v}" for u in u_labels for v in v_labels if (u, v) not in joints]
    missing += [str(g) for g in sorted({*u_labels, *v_labels}, key=str) if g not in marginals]
    if missing or not joints:
        missing = missing or ["two-gate maps"]
        raise IncompleteDataError(f"channel grid is incomplete: {missing}", missing)
    maps = {}
    for u in u_labels:
        with _named(f"first gate {u}"):
            inverse, cond = invert(marginals[u]), condition_number(marginals[u])
            for v in v_labels:
                maps[u, v] = ConditionalMap(compose(joints[(u, v)], inverse), cond)
    return u_labels, v_labels, maps


def conditional_vs_marginal_matrix(
    marginals,
    joints,
    metric: str = "avg",
    m_samples: int = DEFAULT_AVG_SAMPLES,
    rng: np.random.Generator | None = None,
) -> DistanceMatrix:
    """Distance between each history-conditioned map and its marginal.

    ``marginals`` and ``joints`` form a complete grid, all on one common
    dimension (see :func:`conditional_grid`).  Rows are the first gate,
    columns the second.  Memoryless data gives the zero matrix;
    non-constant columns are the signature of a past-dependent process.
    """
    u_labels, v_labels, maps = conditional_grid(marginals, joints)
    cells = _metric_cells(metric, rng, [(f"{u},{v}", cm.channel, marginals[v])
                                        for (u, v), cm in maps.items()])
    return _grid_view(_evaluate(cells, m_samples), u_labels, v_labels, metric)


def analyze_grid(
    marginals,
    joints,
    metrics=("avg",),
    m_samples: int = DEFAULT_AVG_SAMPLES,
    seed: int = 0,
    scale_figure: bool = False,
    pair=None,
) -> GridAnalysis:
    """Every memory witness of a complete grid (see :func:`conditional_grid`).

    One :func:`_evaluate` call computes the CP cells, then per metric the
    conditioned-vs-marginal cells (a fresh ``default_rng(seed)`` each) and
    each target's gate-dependence cells (a fresh ``default_rng(seed + 1)``
    each, so the targets share their Haar inputs), then the histogram of
    the ``pair`` cell from ``default_rng(seed + 2)``: two gate labels or
    canonical tokens (``"X@0"``), the first cell by default.
    ``scale_figure`` applies the display conventions to the finished
    distance matrices, and records them in each matrix's ``scaling``.
    """
    u_labels, v_labels, conditionals = conditional_grid(marginals, joints)
    by_token = {(str(u), str(v)): (u, v) for u, v in conditionals}
    pair = next(iter(by_token)) if pair is None else tuple(map(str, pair))
    if pair not in by_token:
        raise ValidationError(f"pair {','.join(pair)} is not in the channel grid")
    pair_u, pair_v = by_token[pair]

    # a gate-dependence matrix compares at least two first gates
    targets = v_labels if len(u_labels) > 1 else []
    grid = [(f"{u},{v}", cm.channel, marginals[v]) for (u, v), cm in conditionals.items()]
    cells = [("cp", label, None, a, b) for label, a, b in grid]  # row-major
    for m in metrics:
        cells += _metric_cells(m, np.random.default_rng(seed), grid)
        for v in targets:
            cells += _metric_cells(m, np.random.default_rng(seed + 1), _labelled_pairs(
                [(f"{u},{v}", conditionals[(u, v)].channel) for u in u_labels]))
    cells.append(("histogram", ",".join(pair), np.random.default_rng(seed + 2),
                  conditionals[(pair_u, pair_v)].channel, marginals[pair_v]))
    results = _evaluate(cells, m_samples)
    cp_matrix = _grid_view(results, u_labels, v_labels, "cp-violation")
    cvm, gdm = {}, {}
    for m in metrics:
        cvm[m] = _grid_view(results, u_labels, v_labels, m)
        gdm.update({(str(v), m): _dependence_view(results, u_labels, m) for v in targets})
    histogram = next(results)
    if scale_figure:
        dim = marginals[pair_v].dim
        cvm = {m: _display_scaled(matrix, dim, v_labels) for m, matrix in cvm.items()}
        gdm = {key: _display_scaled(matrix, dim, [key[0]] * len(u_labels))
               for key, matrix in gdm.items()}
    return GridAnalysis(cp_matrix, cvm, gdm, (str(pair_u), str(pair_v)), histogram)


def repetitions(channels, nmax: int) -> list[QuantumChannel]:
    """The maps of the gate that the ``nmax``-gate sequences of
    ``channels`` (keyed by gate-token tuples) repeat, applied 1, ...,
    ``nmax`` times.  Raises :class:`ValidationError` when those sequences
    repeat different gates, :class:`IncompleteDataError` for gaps."""
    longest = sorted(",".join(key) for key in channels if len(key) == nmax)
    gates = tuple({gate for key in channels if len(key) == nmax for gate in key})
    if len(gates) > 1:
        raise ValidationError(f"the {nmax}-gate files must all repeat one gate: {longest}")
    runs = [gates * n for n in range(1, nmax + 1)]
    missing = [str(n) for n, key in enumerate(runs, 1) if not gates or key not in channels]
    if missing:
        raise IncompleteDataError(f"missing sequence lengths: {missing}", missing)
    return [channels[key] for key in runs]


def memory_scan(
    channels,
    metrics=("avg", "diamond"),
    m_samples: int = DEFAULT_AVG_SAMPLES,
    rng: np.random.Generator | None = None,
) -> MemoryScan:
    """Compare n-step maps against every (m, n-m) concatenation.

    ``channels[k]`` must hold the reconstructed map of k+1 sequential
    gate applications, all of one dimension.  For a divisible
    (memoryless) family every entry vanishes; structure as a function of
    the cut position m reveals the range of the memory.
    """
    chans = list(channels)
    n_max = len(chans)
    if n_max < 2:
        raise ValidationError("memory scan needs channels up to n >= 2")
    cuts = [(n, m) for n in range(2, n_max + 1) for m in range(1, n)]
    pairs = [(f"n={n},m={m}", chans[n - 1], compose(chans[m - 1], chans[n - m - 1]))
             for n, m in cuts]
    # metric after metric in cut order; only "avg" cells draw from rng
    cells = [c for metric in metrics for c in _metric_cells(metric, rng, pairs)]
    rows = np.fromiter(_evaluate(cells, m_samples), float).reshape(len(metrics), len(cuts)).T
    entries = {cut: dict(zip(metrics, map(float, row))) for cut, row in zip(cuts, rows)}
    return MemoryScan(n_max=n_max, entries=entries)


def statistical_floor(values) -> float:
    """Mean + 3 sigma of a metric evaluated on noise-only reconstructions."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        raise ValidationError("floor estimate needs at least two samples")
    return float(arr.mean() + 3.0 * arr.std(ddof=1))


def markovian_choi_reference(chan_u: QuantumChannel, chan_v: QuantumChannel) -> np.ndarray:
    """Product of the trace-1 operator representations of two maps.

    This is the multi-step state a memoryless process would produce;
    compare it against a measured one with
    :func:`process_tensor_proxy`.
    """
    cu = choi_from_superop(chan_u).data / chan_u.dim
    cv = choi_from_superop(chan_v).data / chan_v.dim
    return _hermitian_part(np.kron(cu, cv))


def process_tensor_proxy(measured, markovian_reference) -> float:
    """Relative entropy of a measured multi-step state to its memoryless
    reference.

    The reference is blended with :data:`PTENSOR_REGULARIZATION` times
    the maximally mixed state, which makes it full rank by construction,
    so the base-2 entropy ``tr[m (log2 m - log2 r)]`` is evaluated on the
    exact regularized spectrum (every eigenvalue is at least
    ``PTENSOR_REGULARIZATION / d``); eigenvalues of the measured state at
    or below 1e-12 contribute nothing.
    """
    m = _as_matrix(measured)
    r = _as_matrix(markovian_reference)
    if m.shape != r.shape or m.shape[0] != m.shape[1]:
        raise DimensionError(f"incompatible shapes {m.shape} vs {r.shape}")
    reg = PTENSOR_REGULARIZATION
    d = m.shape[0]
    r = (1.0 - reg) * _hermitian_part(r) + reg * np.eye(d) / d

    lam, u = np.linalg.eigh(_hermitian_part(m))
    mu, v = np.linalg.eigh(r)
    mu = np.maximum(mu, 0.5 * reg / d)  # guards roundoff only
    lam = np.clip(lam, 0.0, None)
    pos = lam > 1e-12
    entropy_term = float(np.sum(lam[pos] * np.log2(lam[pos])))
    overlap = np.abs(u.conj().T @ v) ** 2  # overlap[i, j] = |<u_i|v_j>|^2
    cross_term = float(lam @ overlap @ np.log2(mu))
    return max(entropy_term - cross_term, 0.0)
