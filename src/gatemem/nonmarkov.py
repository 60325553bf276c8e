"""Memory tests on reconstructed channels.

Three complementary witnesses of gate-history dependence:

1. complete-positivity violation of the history-conditioned map
   ``compose(joint, invert(first))``,
2. distance between the conditioned map and the unconditioned one, and
3. dependence of the conditioned map on *which* gate preceded it.

Two channel distances back these tests: the worst-case (diamond)
distance via the certified SDP in :mod:`gatemem.sdp`, and the typical-
case distance averaged over Haar-random pure inputs in
:mod:`gatemem.avgdist`.  A memory-length
scan compares an n-step map against concatenations of its shorter
reconstructions.  The two-step process state and its relative entropy
to the memoryless reference are :mod:`gatemem.process`'s.

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

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .avgdist import AvgDistanceResult, avg_trace_distance
from .channels import QuantumChannel, choi_from_superop, compose, condition_number, invert
from .exceptions import DimensionError, IncompleteDataError, ValidationError, context
from .qcore import DEFAULT_AVG_SAMPLES, _half_trace_norm
from .sdp import DiamondResult, diamond_sdp


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
    choi = choi_from_superop(chan) / chan.dim
    return max(float(2.0 * _half_trace_norm(choi) - 1.0), 0.0)


def diamond_distance(a: QuantumChannel, b: QuantumChannel) -> DiamondResult:
    """Half the diamond norm of the difference, with a solver certificate.

    Each Choi matrix is Hermitian to 1e-8 (:func:`choi_from_superop`), and
    the solver takes the Hermitian part of their difference.  The result
    carries the certified primal-dual gap (at most ``sdp.GAP_TOL``), the
    Newton steps taken as ``iterations``, and the optimizing input state.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return diamond_sdp(choi_from_superop(a) - choi_from_superop(b))


def _evaluate(cells, m_samples: int):
    """Yield each ``(kind, label, rng, a, b)`` cell's result in order:
    ``"cp"`` the CP violation of ``a``; ``"avg"`` (drawing from ``rng``) and
    ``"diamond"`` the distance of ``a`` to ``b``; ``"histogram"`` the whole
    averaged result, samples and all.  An error of the package gains the
    prefix ``<kind> cell <label>: `` (:func:`exceptions.context`).  Functions are
    looked up at call time: wrappers see all."""
    for kind, label, rng, a, b in cells:
        with context(f"{kind} cell {label}"):
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
        with context(f"first gate {u}"):
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
    repeat different gates, :class:`IncompleteDataError` for gaps, and,
    before building any run, when no sequence has ``nmax`` gates."""
    longest = sorted(",".join(key) for key in channels if len(key) == nmax)
    gates = tuple({gate for key in channels if len(key) == nmax for gate in key})
    if len(gates) > 1:
        raise ValidationError(f"the {nmax}-gate files must all repeat one gate: {longest}")
    if not gates:
        present = max(map(len, channels), default=0)
        raise IncompleteDataError(
            f"no sequence has nmax = {nmax} gates; the longest has {present}", [str(nmax)])
    runs = [gates * n for n in range(1, nmax + 1)]
    missing = [str(n) for n, key in enumerate(runs, 1) if key not in channels]
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
    gate applications, all of one dimension; an error composing a cut's
    maps gains the prefix ``cut n=<n>,m=<m>: ``.  For a divisible
    (memoryless) family every entry vanishes; structure as a function of
    the cut position m reveals the range of the memory.
    """
    chans = list(channels)
    n_max = len(chans)
    if n_max < 2:
        raise ValidationError("memory scan needs channels up to n >= 2")
    cuts = [(n, m) for n in range(2, n_max + 1) for m in range(1, n)]
    pairs = []
    for n, m in cuts:
        with context(f"cut n={n},m={m}"):
            pairs.append((f"n={n},m={m}", chans[n - 1], compose(chans[m - 1], chans[n - m - 1])))
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
