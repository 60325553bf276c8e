"""Full reconstruction signal chain: frames, measurement statistics,
maximum-likelihood state estimation, and linear-inversion process
tomography.

Label grammar (version 1): preparations and measurement settings are
per-qubit symbols joined by ``*`` with qubit 0 leftmost.  Preparation
symbols are ``Z+`` (|0>), ``Z-`` (|1>), ``X+`` (|+>), ``Y+`` (|+i>);
measurement symbols are ``X``, ``Y``, ``Z``, realized as a basis-change
rotation followed by a computational-basis measurement.  Outcome keys
are bitstrings with qubit 0 leftmost.

Likelihood estimation (:func:`mle_estimate`) runs on all preparations
of a record set at once (:func:`mle_estimates`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import _GATE_MATRICES, GateLabel, QuantumChannel, vec
from .exceptions import (
    ConvergenceError,
    DimensionError,
    IncompleteDataError,
    LabelError,
    ValidationError,
)
from .qcore import DensityMatrix, _as_matrix, _from_spectrum, _hermitian_part

LABEL_GRAMMAR_VERSION = 1

PREP_SYMBOLS = ("Z+", "Z-", "X+", "Y+")
MEAS_SYMBOLS = ("X", "Y", "Z")

_H, _S, _X = (_GATE_MATRICES[name] for name in ("H", "S", "X"))
_I = np.eye(2, dtype=complex)

#: Unitary taking |0> to the labelled preparation.
PREP_UNITARIES = {
    "Z+": _I,
    "Z-": _X,
    "X+": _H,
    "Y+": _S @ _H,
}

#: Rotation applied before the computational-basis measurement so that
#: the Z outcome reports the labelled Pauli.
MEAS_ROTATIONS = {
    "X": _H,
    "Y": _H @ _S.conj().T,
    "Z": _I,
}

def split_label(label: str) -> tuple[str, ...]:
    return tuple(label.split("*"))


def join_label(symbols) -> str:
    return "*".join(symbols)


def _tensor_operator(label: str, table: dict, kind: str) -> np.ndarray:
    """Read-only Kronecker product of the per-qubit operators a label
    names."""
    mats = []
    for symbol in split_label(label):
        if symbol not in table:
            raise LabelError(f"unknown {kind} symbol {symbol!r} in {label!r}")
        mats.append(table[symbol])
    op = np.array(functools.reduce(np.kron, mats))
    op.setflags(write=False)
    return op


@functools.lru_cache(maxsize=64)  # every label of the one- and two-qubit frames
def prep_unitary(label: str) -> np.ndarray:
    """Tensor-product unitary preparing the labelled state from |0...0>
    (memoized by label, read-only)."""
    return _tensor_operator(label, PREP_UNITARIES, "preparation")


@functools.lru_cache(maxsize=64)
def meas_rotation(label: str) -> np.ndarray:
    """Tensor-product basis-change rotation for the labelled setting
    (memoized by label, read-only)."""
    return _tensor_operator(label, MEAS_ROTATIONS, "measurement")


def outcome_bitstrings(n_qubits: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=n_qubits)]


@dataclass(frozen=True)
class TomographyFrame:
    """Spanning preparation set, its duals, and the measurement settings.

    ``duals`` satisfy ``tr(D_i+ rho_j) = delta_ij`` against the
    preparations, enabling linear channel reconstruction.
    """

    n_qubits: int
    prep_labels: tuple[str, ...]
    prep_states: tuple[np.ndarray, ...]
    duals: tuple[np.ndarray, ...]
    meas_labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def _frame_width(n_qubits, name: str = "the qubit count") -> int:
    """``n_qubits`` as an int, once it is 1 or 2, the widths of the frames
    and so of every model, record set and channel; errors name ``name``."""
    if isinstance(n_qubits, bool) or not isinstance(n_qubits, (int, np.integer)) \
            or n_qubits not in (1, 2):
        raise DimensionError(f"{name} must be 1 or 2, got {n_qubits!r}")
    return int(n_qubits)


def build_frame(n_qubits: int) -> TomographyFrame:
    """Frame of 4^N preparations and 3^N Pauli measurement settings: one
    frame per width, built once and shared, its arrays read-only.  Every
    other layer derives a frame from its data's width through here."""
    return _shared_frame(_frame_width(n_qubits))


@functools.lru_cache(maxsize=None)  # keyed by a checked int width, 1 or 2
def _shared_frame(n_qubits: int) -> TomographyFrame:
    ket0 = np.zeros(2**n_qubits, dtype=complex)
    ket0[0] = 1.0
    prep_labels = tuple(join_label(s) for s in itertools.product(PREP_SYMBOLS, repeat=n_qubits))
    kets = [prep_unitary(label) @ ket0 for label in prep_labels]
    prep_states = tuple(np.outer(v, v.conj()) for v in kets)
    # the Gram matrix of these fixed states has condition number 10.4 (1 qubit) or 108 (2)
    gram_inv = np.linalg.inv(np.array(
        [[np.trace(a.conj().T @ b) for b in prep_states] for a in prep_states]))
    duals = tuple(sum(gram_inv[k, i] * p for k, p in enumerate(prep_states))
                  for i in range(len(prep_states)))
    for array in prep_states + duals:
        array.setflags(write=False)
    meas_labels = tuple(join_label(s) for s in itertools.product(MEAS_SYMBOLS, repeat=n_qubits))
    return TomographyFrame(n_qubits, prep_labels, prep_states, duals, meas_labels)


@dataclass(frozen=True)
class CountRecord:
    """One measured configuration: preparation, setting, and outcomes.

    ``shots`` is the repetition count, an ``int``; ``shots=None`` marks
    exact mode, where ``counts`` holds outcome probabilities summing to one
    instead of integers, none below -1e-9 (the rounding tolerance of the sum).
    ``seed`` records the sampling seed when one was used.
    """

    prep_label: str
    meas_label: str
    counts: dict
    shots: int | None
    seed: int | None = None

    def __post_init__(self):
        n = len(split_label(self.prep_label))
        if len(split_label(self.meas_label)) != n:
            raise ValidationError(
                f"prep {self.prep_label!r} and meas {self.meas_label!r} disagree on qubits"
            )
        for key, value in self.counts.items():
            if len(key) != n or set(key) - {"0", "1"}:
                raise ValidationError(f"bad outcome key {key!r} for {n} qubit(s)")
            if isinstance(value, bool):
                raise ValidationError(f"count of {key!r} is a boolean, not a number")
        total = sum(self.counts.values())
        if self.shots is None:
            if not abs(total - 1.0) <= 1e-9:  # a NaN sum fails too
                raise ValidationError(f"exact-mode probabilities sum to {total}, not 1")
            lowest = min(self.counts.values())
            if lowest < -1e-9:
                raise ValidationError(f"exact-mode probability {lowest} is negative")
        else:
            if isinstance(self.shots, bool) or not isinstance(self.shots, (int, np.integer)) \
                    or self.shots <= 0:
                raise ValidationError(f"shots must be a positive integer, got {self.shots!r}")
            if any(not math.isfinite(v) or v < 0 or int(v) != v for v in self.counts.values()):
                raise ValidationError("counts must be nonnegative integers")
            if total != self.shots:
                raise ValidationError(f"counts sum to {total}, shots say {self.shots}")

    @property
    def n_qubits(self) -> int:
        return len(split_label(self.prep_label))

    def frequencies(self) -> np.ndarray:
        """Outcome frequencies (or exact probabilities) as a dense vector."""
        n = self.n_qubits
        freq = np.zeros(2**n)
        for i, key in enumerate(outcome_bitstrings(n)):
            freq[i] = self.counts.get(key, 0)
        if self.shots is not None:
            freq = freq / self.shots
        return freq


@dataclass(frozen=True)
class CircuitDescriptor:
    """One tomography configuration: prepare, run the sequence, rotate,
    and measure in the computational basis."""

    prep_label: str
    meas_label: str
    gates: tuple[GateLabel, ...]


def _rotated_probabilities(rho: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Computational-basis outcome probabilities of ``rot rho rot+``;
    roundoff below 1e-15 in magnitude is set to zero."""
    probs = np.real(np.diag(rot @ rho @ rot.conj().T)).copy()
    probs[np.abs(probs) < 1e-15] = 0.0
    return probs


def _normalized(probs: np.ndarray) -> np.ndarray:
    """Clip negative roundoff and rescale to unit sum."""
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def _spawn_seeds(seed: int | None, count: int) -> list[int]:
    """Independent per-configuration sampling seeds spawned from ``seed``."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(child) for child in state]


def _count_record(prep: str, meas: str, probs, shots: int | None, rng) -> CountRecord:
    """Record of one configuration from its normalized outcome
    probabilities: the probabilities themselves when ``shots`` is None,
    otherwise a multinomial draw from the generator ``rng``.  An integer
    ``rng`` seeds a dedicated generator and is recorded as the record's
    seed."""
    keys = outcome_bitstrings(len(split_label(prep)))
    if shots is None:
        return CountRecord(prep, meas, {k: float(p) for k, p in zip(keys, probs)}, None)
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)
    draw = rng.multinomial(int(shots), probs)
    counts = {k: int(c) for k, c in zip(keys, draw)}
    return CountRecord(prep, meas, counts, int(shots), seed=seed)


def _measurement_effects(meas_label: str) -> np.ndarray:
    """Stack of projective effects R+|o><o|R for one setting."""
    rot = meas_rotation(meas_label)
    d = rot.shape[0]
    effects = np.empty((d, d, d), dtype=complex)
    for o in range(d):
        effects[o] = np.outer(rot[o].conj(), rot[o])
    return effects


def _embedded(m: np.ndarray) -> np.ndarray:
    """Half the real embedding ``[[X, -Y], [Y, X]] / 2`` of each ``X + iY``
    of a stack; a product of two is half the embedding of the product."""
    x, y = 0.5 * m.real, 0.5 * m.imag
    return np.block([[x, -y], [y, x]])


def _unembedded(h: np.ndarray) -> np.ndarray:
    """The complex matrices whose half-embeddings lie nearest ``h``."""
    d = h.shape[-1] // 2
    return (h[..., :d, :d] + h[..., d:, d:]) + 1j * (h[..., d:, :d] - h[..., :d, d:])


@functools.lru_cache(maxsize=None)
def _likelihood_design(meas_labels: tuple[str, ...]):
    """Maps between states and the probabilities of every outcome of the
    settings, whose effects ``E_k`` are stacked in setting order.

    Returns the complex design ``A`` with ``A @ rho.ravel() = tr(E_k
    rho)`` for the exact-mode least-squares state, and two maps on
    flattened half-embeddings: the effects as rows ``(K, 4*d*d)``, so a
    coefficient row times them embeds ``sum_k c_k E_k``, and the
    probability map ``(4*d*d, K)``, so a state times it is ``Re tr(E_k rho)``.
    """
    effects = np.concatenate([_measurement_effects(m) for m in meas_labels])
    k, d = effects.shape[0], effects.shape[1]
    design = effects.transpose(0, 2, 1).reshape(k, d * d)
    embedded = _embedded(effects)
    effect_rows = embedded.reshape(k, 4 * d * d)
    # tr(E rho) = 2 tr(half(E) half(rho)) for the half-embeddings
    probability_map = np.ascontiguousarray(2.0 * embedded.transpose(0, 2, 1).reshape(k, -1).T)
    for array in (design, effect_rows, probability_map):
        array.setflags(write=False)
    return design, effect_rows, probability_map


@dataclass(frozen=True)
class MleEstimate:
    state: DensityMatrix
    loglik: float
    iterations: int


def _set_shots(records) -> int | None:
    """The one ``shots`` of a record set, None when all are exact (or none
    is there); mixed modes or shot counts raise :class:`ValidationError`."""
    shots = {rec.shots for rec in records}
    if None in shots and len(shots) > 1:
        raise ValidationError("record set mixes exact-mode records (shots null) with sampled ones")
    if len(shots) > 1:
        raise ValidationError(f"record set mixes shot counts {sorted(shots)}")
    return shots.pop() if shots else None


def _records_by_config(records, frame: TomographyFrame, preps) -> dict:
    """The records keyed by ``(prep, meas)``, once they meet the one
    record-set rule: every record takes its labels from ``frame`` and its
    preparation from ``preps``, all have one ``shots`` (:func:`_set_shots`),
    and each configuration of ``preps`` and the frame's settings has
    exactly one record.  Errors name a configuration ``prep/meas`` or a
    record index."""
    records, by_config, repeated = list(records), {}, set()
    for i, rec in enumerate(records):
        config = (rec.prep_label, rec.meas_label)
        if rec.prep_label not in frame.prep_labels or rec.meas_label not in frame.meas_labels:
            raise ValidationError(
                f"record {i}: prep {rec.prep_label!r} or meas {rec.meas_label!r}"
                f" is not in the {frame.n_qubits}-qubit frame")
        if rec.prep_label not in preps:
            raise ValidationError(f"record {i}: prep {rec.prep_label!r} not in {preps}")
        if config in by_config:
            repeated.add("/".join(config))
        by_config[config] = rec
    _set_shots(records)
    if repeated:
        raise ValidationError(f"record set repeats configurations {sorted(repeated)}")
    missing = [f"{p}/{m}" for p in preps for m in frame.meas_labels if (p, m) not in by_config]
    if missing:
        raise IncompleteDataError(f"record set is missing configurations {missing}", missing)
    return by_config


#: Iteration cap of the likelihood estimator.
MLE_MAX_ITERATIONS = 10_000


def _mle_batch(by_config, labels, frame: TomographyFrame) -> list[MleEstimate]:
    """The estimates of :func:`mle_estimate` for the preparations
    ``labels`` at once, from the records of :func:`_records_by_config`,
    whose one ``shots`` sets every row's weight and the one step
    tolerance.  Only unfinished rows advance."""
    design, effect_rows, probability_map = _likelihood_design(frame.meas_labels)
    d, n_preps = frame.dim, len(labels)
    shots = next(iter(by_config.values())).shots  # one per record set
    weight = 1.0 if shots is None else float(shots)
    total_weight = len(frame.meas_labels) * weight
    keys = outcome_bitstrings(frame.n_qubits)
    freqs = np.array([[by_config[p, m].counts.get(k, 0) for m in frame.meas_labels for k in keys]
                      for p in labels], dtype=float)
    if shots is not None:
        freqs = freqs / shots
    wft = weight * freqs / total_weight
    # Exact data left to iterate heads for a sublinear boundary optimum that
    # needs no exactness; counts stop at the shot-noise radius.
    tol = 1e-9 if shots is None else max(1e-12, 1e-3 / math.sqrt(total_weight))

    def normalized(rho):  # each trace is the sum of a strided diagonal of the flat stack
        n = rho.shape[-1]
        return rho / rho.reshape(len(rho), n * n)[:, :: n + 1].real.sum(axis=1)[:, None, None]

    def probabilities(rho):  # of a stack of half-embedded states
        return np.maximum(rho.reshape(len(rho), 4 * d * d) @ probability_map, 1e-300)

    def loglik(probs, wft):
        return np.vecdot(wft, np.log(probs))

    states = np.empty((n_preps, d, d), dtype=complex)
    logliks = np.empty(n_preps)
    iterations = np.zeros(n_preps, dtype=int)
    idx = np.arange(n_preps)

    # With exact probabilities the unconstrained likelihood maximum is
    # the least-squares state reproducing them; when that state is
    # physical it is the estimate, to machine precision rather than to
    # the step tolerance of the iteration.
    if shots is None:
        solution, *_ = np.linalg.lstsq(design, freqs.T.astype(complex), rcond=None)
        rho_lin = np.ascontiguousarray(solution.T).reshape(n_preps, d, d)
        rho_lin = normalized(_hermitian_part(rho_lin))
        residual = np.max(np.abs(probabilities(_embedded(rho_lin)) - freqs), axis=1)
        w, v = np.linalg.eigh(rho_lin)
        physical = (residual < 1e-10) & (w[:, 0] >= -1e-11)
        w = np.clip(w[physical], 0.0, None)
        rho_lin = _from_spectrum(w / w.sum(axis=1, keepdims=True), v[physical])
        states[physical] = rho_lin
        logliks[physical] = loglik(probabilities(_embedded(rho_lin)), wft[physical])
        idx = idx[~physical]

    wft, half_tol_sq = wft[idx], 0.5 * (tol * tol)  # embedding halves |.|^2
    rho = np.repeat(0.5 * np.eye(2 * d)[None] / d, len(idx), axis=0)  # half-embedded I / d
    probs = probabilities(rho)
    iteration = 0
    while idx.size and iteration < MLE_MAX_ITERATIONS:
        iteration += 1
        r = ((wft / probs) @ effect_rows).reshape(len(idx), 2 * d, 2 * d)
        cand = normalized(r @ rho @ r)
        diff = (cand - rho).reshape(len(idx), 4 * d * d)
        rho, probs = cand, probabilities(cand)  # for the next R, or the log-likelihood
        steps = np.vecdot(diff, diff)
        # one reduction per iteration, true when any row's step is below the
        # tolerance (fmin skips a NaN step), and a mask only when one is
        if np.fmin.reduce(steps) < half_tol_sq:
            finished = steps < half_tol_sq
            out = idx[finished]
            states[out] = normalized(_hermitian_part(_unembedded(rho[finished])))
            logliks[out] = loglik(probs[finished], wft[finished])
            iterations[out] = iteration
            going = ~finished
            idx, rho, probs, wft = idx[going], rho[going], probs[going], wft[going]
    if idx.size:
        raise ConvergenceError(
            f"MLE did not converge in {MLE_MAX_ITERATIONS} iterations"
            f" (preparation {labels[idx[0]]!r})",
            _unembedded(rho[0]),
            MLE_MAX_ITERATIONS,
        )
    return [
        MleEstimate(state=DensityMatrix(states[i]), loglik=float(logliks[i]),
                    iterations=int(iterations[i]))
        for i in range(n_preps)
    ]


def mle_estimates(records, frame: TomographyFrame) -> dict[str, MleEstimate]:
    """Likelihood estimates of every preparation of the frame from one
    record set that meets :func:`_records_by_config`, keyed by
    preparation label.  All preparations run the iteration of
    :func:`mle_estimate` together, each stopping on its own step.
    If preparations hit the iteration cap, :class:`ConvergenceError`
    names the first of them in frame order."""
    by_config = _records_by_config(records, frame, frame.prep_labels)
    estimates = _mle_batch(by_config, frame.prep_labels, frame)
    return dict(zip(frame.prep_labels, estimates))


def mle_estimate(records, frame: TomographyFrame) -> MleEstimate:
    """Maximum-likelihood state estimate: the R-rho-R fixed point
    (Hradil, PRA 55, R1561, 1997).

    ``records`` hold one record per setting of the frame, all of the
    first record's preparation, and are all exact or share one shot
    count (:func:`_set_shots`).  From the maximally mixed state, each
    step is ``rho -> R rho R / tr``, with R the effects weighted by
    frequency over probability, so the iterate stays positive
    semidefinite.  Exact-mode data that a physical state reproduces to
    1e-10 short-circuits to the least-squares state, the exact optimum
    (``iterations`` 0).  Otherwise the iteration stops when the
    Frobenius step falls below 1e-9 for exact data and below
    ``1e-3 / sqrt(settings * shots)`` (at least 1e-12) for counts;
    ``MLE_MAX_ITERATIONS`` (10,000) iterations raise
    :class:`ConvergenceError`.  ``loglik`` is the log-likelihood of the
    final iterate over the total weight (settings times shots, or the
    settings in exact mode).

    This is the batched kernel of :func:`mle_estimates` on one
    preparation.  The data is one row of weighted frequencies over the
    frame's full outcome list, read in one pass over the set's counts (a
    missing key counts 0); an outcome with zero counts has weight 0 and
    drops out of the likelihood and of R.  Each iterate's outcome
    probabilities are computed once, for the next R or, at the end, for
    the log-likelihood.  The iteration runs in real arithmetic, on half
    the real embeddings ``[[X, -Y], [Y, X]] / 2`` of the states and of R
    (:func:`_embedded`), so the probabilities of a stack of states are
    one real product, and so is each update.
    """
    records = list(records)
    preps = (records[0].prep_label if records else frame.prep_labels[0],)
    return _mle_batch(_records_by_config(records, frame, preps), preps, frame)[0]


def process_tomography(results, frame: TomographyFrame) -> QuantumChannel:
    """Linear-inversion channel from per-preparation output states.

    The superoperator is the dual-frame expansion
    ``sum_i vec(rho'_i) vec(D_i)+``; no CP constraint is applied, so a
    physically impossible reconstruction stays visible.
    """
    missing = [p for p in frame.prep_labels if p not in results]
    if missing:
        raise IncompleteDataError(f"missing preparations: {missing}", missing)
    d = frame.dim
    superop = np.zeros((d * d, d * d), dtype=complex)
    for label, dual in zip(frame.prep_labels, frame.duals):
        out = _as_matrix(results[label])
        superop += np.outer(vec(out), vec(dual).conj())
    return QuantumChannel(superop)


@dataclass(frozen=True)
class TomographyResult:
    """Reconstructed channel with its per-preparation MLE metadata."""

    channel: QuantumChannel
    loglik: dict
    iterations: dict
