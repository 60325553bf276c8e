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

Stored distance values are never scaled; the display conventions
(1/d for diamond entries, a factor 2 for two-qubit columns) are opt-in
presentation flags.

:func:`analyze_grid` runs every witness of a channel grid at once, as
``gatemem analyze`` does, and :func:`repetitions` picks the channels a
memory scan compares, as ``gatemem scan`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    GateLabel,
    QuantumChannel,
    choi_from_superop,
    compose,
    condition_number,
    invert,
)
from .exceptions import DimensionError, IncompleteDataError, ValidationError
from .qcore import (
    DEFAULT_AVG_SAMPLES,
    DEFAULT_SCAN_NMAX,  # noqa: F401  (re-exported with the scan it bounds)
    _as_matrix,
    _complex_normals,
    _half_trace_norm,
    _haar_vectors,
    _relative_entropy_core,
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
    conditioned_on: GateLabel | None = None
    target: GateLabel | None = None
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

    def __float__(self) -> float:
        return self.mean


@dataclass(frozen=True)
class GridAnalysis:
    """Every memory witness of one channel grid.  ``cond_vs_marginal``
    is keyed by metric, ``gate_dependence`` by (second gate, metric), and
    the histograms hold the ``pair`` cell's per-sample distances, in the
    grid and in a memoryless baseline grid when one was given."""

    cp_violation: DistanceMatrix
    cond_vs_marginal: dict
    gate_dependence: dict
    pair: tuple[str, str]
    histogram: AvgDistanceResult
    baseline_histogram: AvgDistanceResult | None = None


def conditional_map(
    phi_vu: QuantumChannel,
    phi_u: QuantumChannel,
    conditioned_on: GateLabel | None = None,
    target: GateLabel | None = None,
) -> ConditionalMap:
    """Divide the joint two-gate map by the first-gate map.

    Returns ``compose(phi_vu, invert(phi_u))``; for memoryless data this
    reproduces the unconditioned second-gate map, and any CP violation
    or dependence on the first gate witnesses memory.  A first-gate map
    whose singular-value ratio is below :func:`invert`'s threshold 1e-8
    raises :class:`SingularChannelError`.  The check and ``cond_number``
    read the same singular values, computed once per first-gate map.
    """
    if phi_vu.dim != phi_u.dim:
        raise DimensionError(f"dimension mismatch: {phi_vu.dim} vs {phi_u.dim}")
    chan = compose(phi_vu, invert(phi_u))
    return ConditionalMap(
        channel=chan,
        conditioned_on=conditioned_on,
        target=target,
        cond_number=condition_number(phi_u),
    )


def _channel_of(obj) -> QuantumChannel:
    return obj.channel if isinstance(obj, ConditionalMap) else obj


def cp_violation(cm) -> float:
    """Trace-norm excess of the normalized operator representation.

    Computes ``sum_i |lambda_i| - 1`` over the eigenvalues of the
    trace-1-rescaled Choi matrix: exactly zero for CP maps, positive as
    soon as any eigenvalue dips below zero.
    """
    choi = choi_from_superop(_channel_of(cm)).rescaled("trace-1").data
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

    Inputs are drawn in batches of 20,000 and handled in slices of
    4,000.  On a qubit, each sample is computed in real Bloch
    coordinates straight from its Gaussian draw, with no normalization
    (see :func:`_qubit_half_norms`).  Larger inputs are normalized and
    go once through the difference map ``a - b``, and their outputs
    take the trace norms of :mod:`.qcore`.  Both paths draw the same
    normals as :func:`.qcore._haar_vectors`, so a generator gives the
    same inputs and ends in the same state either way.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if m_samples < 1:
        raise ValidationError(f"need at least one sample, got {m_samples}")
    rng = np.random.default_rng() if rng is None else rng

    delta = a.superop - b.superop
    samples = np.empty(m_samples)
    # the draw size fixes the random stream; each path goes over slices
    # of the draw to keep the temporaries small: on a qubit, unsliced
    # rows of 20,000 doubles are large enough for the allocator to map
    # and unmap each one, which made the path about 1.5x slower
    if a.dim == 2:
        transfer = _bloch_transfer(delta)
        for start in range(0, m_samples, 20_000):
            re, im = _complex_normals(2, min(20_000, m_samples - start), rng)
            for lo in range(0, len(re), 4_000):
                hi = min(lo + 4_000, len(re))
                samples[start + lo : start + hi] = _qubit_half_norms(transfer, re[lo:hi], im[lo:hi])
    else:
        d, delta_t = a.dim, delta.T
        for start in range(0, m_samples, 20_000):
            z = _haar_vectors(d, min(20_000, m_samples - start), rng)
            for lo in range(0, len(z), 4_000):
                zs = z[lo : lo + 4_000]
                # column-stacked |z><z|: entry j*d + i is z_i conj(z_j)
                vecs = (np.conj(zs)[:, :, None] * zs[:, None, :]).reshape(len(zs), d * d)
                # reshaping a column-stacked output gives its transpose,
                # which has the same trace norm
                out = (vecs @ delta_t).reshape(len(zs), d, d)
                samples[start + lo : start + lo + len(zs)] = _half_trace_norm(out)

    stderr = float(samples.std(ddof=1) / math.sqrt(m_samples)) if m_samples > 1 else 0.0
    return AvgDistanceResult(mean=float(samples.mean()), stderr=stderr, samples=samples)


#: The Pauli basis I, X, Y, Z of a qubit.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch_transfer(delta: np.ndarray) -> np.ndarray:
    """Real 4 x 4 transfer matrix ``R[k, l] = Re tr(P_k D(P_l)) / 2`` of
    a column-stacked qubit superoperator ``delta`` (``D``), P = I, X, Y, Z.

    For ``rho = sum_l u_l P_l / 2`` the Hermitian part of ``D(rho)`` is
    ``sum_k c_k P_k / 2`` with ``c = R u``; taking the real part keeps
    exactly that Hermitian part, so ``D`` need not preserve trace or
    Hermiticity."""
    # tr(P_k M) = P_k.ravel() . vec(M), and vec(P_l) = P_l.T.ravel()
    rows = _PAULIS.reshape(4, 4)
    cols = _PAULIS.transpose(0, 2, 1).reshape(4, 4).T
    return 0.5 * (rows @ delta @ cols).real


def _qubit_half_norms(transfer: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Half the trace norm of the Hermitian part of ``D(|z><z|)`` for
    the Haar-random qubit states ``|z>`` of the rows of a Gaussian draw
    ``re + i im`` (see :func:`.qcore._complex_normals`), ``D`` given by
    its :func:`_bloch_transfer` matrix.

    From the normals ``z = (a0 + i b0, a1 + i b1)`` of one row, the
    unnormalized Bloch coordinates of ``|z><z|`` are ``u = (|z|^2,
    2(a0 a1 + b0 b1), 2(a0 b1 - b0 a1), a0^2 + b0^2 - a1^2 - b1^2)``.
    With ``c = R u`` and ``r = |(c_1, c_2, c_3)|``, the output's
    Hermitian part has eigenvalues ``(c_0 +- r) / 2``, so half its trace
    norm is ``max(|c_0|, r) / 2``.  That is homogeneous of degree 1 in
    ``u``, so dividing by ``|z|^2`` takes the place of normalizing ``z``."""
    (a0, a1), (b0, b1) = re.T, im.T
    p = a0 * a0 + b0 * b0
    q = a1 * a1 + b1 * b1
    u = np.stack([p + q, a0 * a1 + b0 * b1, a0 * b1 - b0 * a1, p - q])
    # the factor 2 of u_1, u_2 and the final 1/2 are folded into R
    c = (0.5 * transfer * [1.0, 2.0, 2.0, 1.0]) @ u
    r = np.sqrt(c[1] * c[1] + c[2] * c[2] + c[3] * c[3])
    return np.maximum(np.abs(c[0]), r) / u[0]


def diamond_distance(a: QuantumChannel, b: QuantumChannel) -> DiamondResult:
    """Half the diamond norm of the difference, with a solver certificate.

    The difference map must be Hermiticity-preserving (Hermitian
    difference Choi).  The result carries the certified primal-dual gap
    (at most ``sdp.GAP_TOL``), the Newton steps taken as ``iterations``,
    and the optimizing input.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    delta = choi_from_superop(a).data - choi_from_superop(b).data
    if np.max(np.abs(delta - delta.conj().T)) > 1e-8:
        raise ValidationError("difference map is not Hermiticity-preserving")
    return diamond_sdp(delta)


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
    delta = choi_from_superop(a).data - choi_from_superop(b).data
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
            out = output(psi)
            out = 0.5 * (out + out.conj().T)
            w, v = np.linalg.eigh(out)
            pos = v[:, w > 0]
            proj = pos @ pos.conj().T
            # pull the discriminating projector back through the map
            h = np.einsum(
                "stuv,tavb->saub", choi4.conj(), proj.reshape(d, d, d, d)
            ).reshape(d * d, d * d)
            h = 0.5 * (h + h.conj().T)
            psi_new = np.linalg.eigh(h)[1][:, -1].reshape(d, d)
            new_value = float(_half_trace_norm(output(psi_new)))
            if new_value <= current + 1e-13:
                break
            psi, current = psi_new, new_value
        best = max(best, current)
    return best


def _distance(a, b, metric, m_samples, rng) -> float:
    if metric == "avg":
        return avg_trace_distance(a, b, m_samples, rng).mean
    if metric == "diamond":
        return diamond_distance(a, b).value
    raise ValidationError(f"unknown metric {metric!r}; use 'avg' or 'diamond'")


def _figure_scale(metric: str, dim: int, target_label) -> tuple[float, tuple[str, ...]]:
    """Display scaling: diamond entries by 1/d, everything doubled when
    the target gate is the two-qubit one."""
    scale, applied = 1.0, []
    if metric == "diamond":
        scale /= dim
        applied.append(f"diamond/{dim}")
    if str(target_label).startswith("CX"):
        scale *= 2.0
        applied.append("x2-two-qubit-target")
    return scale, tuple(applied)


def gate_dependence_matrix(
    conditionals,
    metric: str = "avg",
    m_samples: int = DEFAULT_AVG_SAMPLES,
    rng: np.random.Generator | None = None,
    scale_figure: bool = False,
    target_label=None,
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
    chans = [_channel_of(v) for v in conditionals.values()]
    if len({c.dim for c in chans}) != 1:
        raise DimensionError("conditioned maps must share one dimension")
    n = len(labels)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = _distance(
                chans[i], chans[j], metric, m_samples, rng
            )
    applied: tuple[str, ...] = ()
    if scale_figure:
        scale, applied = _figure_scale(metric, chans[0].dim, target_label)
        values = values * scale
    return DistanceMatrix(tuple(labels), tuple(labels), values, metric, applied)


def conditional_grid(marginals, joints, pair=None) -> tuple[list, list, dict]:
    """Every history-conditioned map of a complete grid.

    ``marginals`` maps gate labels to single-gate channels and
    ``joints`` maps (first, second) label pairs to two-gate channels.
    The grid spans every first and second gate in ``joints``, or only
    the (first, second) cell ``pair`` when given.  Returns the sorted
    first-gate labels, the sorted second-gate labels, and the
    :class:`ConditionalMap` of each (first, second) cell.  Raises
    :class:`IncompleteDataError` listing every absent joint map and
    single-gate marginal, or when ``joints`` is empty.
    """
    if pair is None:
        u_labels = sorted({u for (u, _) in joints}, key=str)
        v_labels = sorted({v for (_, v) in joints}, key=str)
    else:
        u_labels, v_labels = [pair[0]], [pair[1]]
    missing = [f"{u},{v}" for u in u_labels for v in v_labels if (u, v) not in joints]
    missing += [str(g) for g in sorted({*u_labels, *v_labels}, key=str) if g not in marginals]
    if missing or not joints:
        missing = missing or ["two-gate maps"]
        raise IncompleteDataError(f"channel grid is incomplete: {missing}", missing)
    maps = {(u, v): conditional_map(joints[(u, v)], marginals[u])
            for u in u_labels for v in v_labels}
    return u_labels, v_labels, maps


def conditional_vs_marginal_matrix(
    marginals,
    joints,
    metric: str = "avg",
    m_samples: int = DEFAULT_AVG_SAMPLES,
    rng: np.random.Generator | None = None,
    scale_figure: bool = False,
) -> DistanceMatrix:
    """Distance between each history-conditioned map and its marginal.

    ``marginals`` and ``joints`` form a complete grid, all on one common
    dimension (see :func:`conditional_grid`).  Rows are the first gate,
    columns the second.  Memoryless data gives the zero matrix;
    non-constant columns are the signature of a past-dependent process.
    """
    u_labels, v_labels, maps = conditional_grid(marginals, joints)
    return _cond_vs_marginal(u_labels, v_labels, maps, marginals, metric, m_samples, rng,
                             scale_figure)


def _cond_vs_marginal(u_labels, v_labels, maps, marginals, metric, m_samples, rng,
                      scale_figure) -> DistanceMatrix:
    """:func:`conditional_vs_marginal_matrix` over the conditioned maps
    of :func:`conditional_grid`, built once by the caller."""
    values = np.zeros((len(u_labels), len(v_labels)))
    applied: set[str] = set()
    for i, u in enumerate(u_labels):
        for j, v in enumerate(v_labels):
            chan = maps[(u, v)].channel
            cell = _distance(chan, marginals[v], metric, m_samples, rng)
            if scale_figure:
                scale, tags = _figure_scale(metric, chan.dim, v)
                cell *= scale
                applied.update(tags)
            values[i, j] = cell
    return DistanceMatrix(
        tuple(str(u) for u in u_labels),
        tuple(str(v) for v in v_labels),
        values,
        metric,
        tuple(sorted(applied)),
    )


def analyze_grid(
    marginals,
    joints,
    metrics=("avg",),
    m_samples: int = DEFAULT_AVG_SAMPLES,
    seed: int = 0,
    scale_figure: bool = False,
    pair=None,
    baseline=None,
    baseline_name: str = "baseline",
) -> GridAnalysis:
    """Every memory witness of a complete grid (see :func:`conditional_grid`).

    Each conditioned-vs-marginal matrix draws from ``default_rng(seed)``,
    each gate-dependence matrix from ``default_rng(seed + 1)`` and each
    histogram from ``default_rng(seed + 2)``.  ``pair`` holds the gate
    tokens of the histogram's cell (default: the first cell).
    ``baseline`` is a memoryless run's (marginals, joints), which needs
    only the pair's maps; ``baseline_name`` prefixes its errors.
    """
    u_labels, v_labels, conditionals = conditional_grid(marginals, joints)
    if pair is None:
        pair_u, pair_v = u_labels[0], v_labels[0]
    else:
        tokens = [str(GateLabel.parse(t)) for t in pair]
        if len(tokens) != 2:
            raise ValidationError(
                f"--pair needs exactly two gates, e.g. X,Z; got {','.join(pair)!r}")
        pair_u, pair_v = tokens
        if (pair_u, pair_v) not in conditionals:
            raise ValidationError(f"--pair {pair_u},{pair_v} is not in the channel grid")
    # the histogram's conditioned map and marginal, per channel set
    histogram_sets = [(conditionals[(pair_u, pair_v)], marginals[pair_v])]
    if baseline is not None:
        base_marginals, base_joints = baseline
        try:
            base = conditional_grid(base_marginals, base_joints, (pair_u, pair_v))[2]
        except IncompleteDataError as err:
            raise IncompleteDataError(f"{baseline_name}: {err}", err.missing) from err
        histogram_sets.append((base[(pair_u, pair_v)], base_marginals[pair_v]))

    cpv = [[cp_violation(conditionals[(u, v)]) for v in v_labels] for u in u_labels]
    cp_matrix = DistanceMatrix(
        tuple(str(u) for u in u_labels), tuple(str(v) for v in v_labels), cpv,
        metric="cp-violation",
    )
    # a gate-dependence matrix compares at least two first gates
    targets = v_labels if len(u_labels) > 1 else []
    cvm, gdm = {}, {}
    for m in metrics:
        cvm[m] = _cond_vs_marginal(u_labels, v_labels, conditionals, marginals, m, m_samples,
                                   np.random.default_rng(seed), scale_figure)
        for v in targets:
            gdm[(str(v), m)] = gate_dependence_matrix(
                {u: conditionals[(u, v)] for u in u_labels}, metric=m, m_samples=m_samples,
                rng=np.random.default_rng(seed + 1), scale_figure=scale_figure, target_label=v,
            )
    hists = [avg_trace_distance(cm.channel, marginal, m_samples, np.random.default_rng(seed + 2))
             for cm, marginal in histogram_sets]
    return GridAnalysis(cp_matrix, cvm, gdm, (str(pair_u), str(pair_v)), *hists)


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
    gate applications.  For a divisible (memoryless) family every entry
    vanishes; structure as a function of the cut position m reveals the
    range of the memory.
    """
    chans = list(channels)
    n_max = len(chans)
    if n_max < 2:
        raise ValidationError("memory scan needs channels up to n >= 2")
    if len({c.dim for c in chans}) != 1:
        raise DimensionError("memory scan channels must share one dimension")
    entries: dict = {}
    for n in range(2, n_max + 1):
        for m in range(1, n):
            concat = compose(chans[m - 1], chans[n - m - 1])
            entries[(n, m)] = {
                metric: _distance(chans[n - 1], concat, metric, m_samples, rng)
                for metric in metrics
            }
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
    cu = choi_from_superop(chan_u).rescaled("trace-1").data
    cv = choi_from_superop(chan_v).rescaled("trace-1").data
    ref = np.kron(cu, cv)
    return 0.5 * (ref + ref.conj().T)


def process_tensor_proxy(measured, markovian_reference) -> float:
    """Relative entropy of a measured multi-step state to its memoryless
    reference.

    The reference is blended with :data:`PTENSOR_REGULARIZATION` times
    the maximally mixed state, which makes it full rank by construction,
    so the entropy is evaluated against the exact regularized spectrum
    (every eigenvalue is at least ``PTENSOR_REGULARIZATION / d``)
    instead of the generic support-checked path.
    """
    m = _as_matrix(measured)
    r = _as_matrix(markovian_reference)
    if m.shape != r.shape or m.shape[0] != m.shape[1]:
        raise DimensionError(f"incompatible shapes {m.shape} vs {r.shape}")
    reg = PTENSOR_REGULARIZATION
    d = m.shape[0]
    r = (1.0 - reg) * 0.5 * (r + r.conj().T) + reg * np.eye(d) / d

    lam, u = np.linalg.eigh(0.5 * (m + m.conj().T))
    mu, v = np.linalg.eigh(r)
    mu = np.maximum(mu, 0.5 * reg / d)  # guards roundoff only
    return _relative_entropy_core(lam, u, mu, v, 1e-12)
