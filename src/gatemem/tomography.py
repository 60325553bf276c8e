"""Full reconstruction signal chain: frames, measurement statistics,
maximum-likelihood state estimation, and linear-inversion process
tomography.

Label grammar (version 1): preparations and measurement settings are
per-qubit symbols joined by ``*`` with qubit 0 leftmost.  Preparation
symbols are ``Z+`` (|0>), ``Z-`` (|1>), ``X+`` (|+>), ``Y+`` (|+i>);
measurement symbols are ``X``, ``Y``, ``Z``, realized as a basis-change
rotation followed by a computational-basis measurement.  Outcome keys
are bitstrings with qubit 0 leftmost.

Likelihood estimation runs on all preparations of a record set at once
(:func:`mle_estimates`).  The preparations share the frame's effect
stack, so the outcome probabilities of a whole stack of states are one
real product, and so is each update, on real half-embeddings of the
states and of R (:func:`_embedded`).  Each preparation is one row of
weighted frequencies over the full outcome list; an outcome with zero
counts has weight 0.  A candidate's probabilities serve both its
log-likelihood and the next R operator.  Each preparation keeps its own
stopping state, and only unfinished preparations advance.
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


def build_frame(n_qubits: int) -> TomographyFrame:
    """Frame of 4^N preparations and 3^N Pauli measurement settings."""
    if isinstance(n_qubits, bool) or n_qubits not in (1, 2):
        raise DimensionError(f"supported qubit counts are 1 and 2, got {n_qubits!r}")
    ket0 = np.zeros(2**n_qubits, dtype=complex)
    ket0[0] = 1.0

    prep_labels = []
    prep_states = []
    for symbols in itertools.product(PREP_SYMBOLS, repeat=n_qubits):
        label = join_label(symbols)
        u = prep_unitary(label)
        v = u @ ket0
        prep_labels.append(label)
        prep_states.append(np.outer(v, v.conj()))

    gram = np.array(
        [[np.trace(a.conj().T @ b) for b in prep_states] for a in prep_states]
    )
    cond = np.linalg.cond(gram)
    if cond > 1e6:
        raise ValidationError(f"preparation set is ill-conditioned (kappa={cond:.3g})")
    gram_inv = np.linalg.inv(gram)
    duals = []
    for i in range(len(prep_states)):
        d = sum(gram_inv[k, i] * prep_states[k] for k in range(len(prep_states)))
        duals.append(d)

    meas_labels = [
        join_label(symbols) for symbols in itertools.product(MEAS_SYMBOLS, repeat=n_qubits)
    ]
    return TomographyFrame(
        n_qubits=n_qubits,
        prep_labels=tuple(prep_labels),
        prep_states=tuple(prep_states),
        duals=tuple(duals),
        meas_labels=tuple(meas_labels),
    )


@dataclass(frozen=True)
class CountRecord:
    """One measured configuration: preparation, setting, and outcomes.

    ``shots`` is the repetition count; ``shots=None`` marks exact mode,
    where ``counts`` holds outcome probabilities summing to one instead
    of integers, none below -1e-9 (the rounding tolerance of the sum).
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
        for key in self.counts:
            if len(key) != n or set(key) - {"0", "1"}:
                raise ValidationError(f"bad outcome key {key!r} for {n} qubit(s)")
        total = sum(self.counts.values())
        if self.shots is None:
            if not abs(total - 1.0) <= 1e-9:  # a NaN sum fails too
                raise ValidationError(f"exact-mode probabilities sum to {total}, not 1")
            lowest = min(self.counts.values())
            if lowest < -1e-9:
                raise ValidationError(f"exact-mode probability {lowest} is negative")
        else:
            if self.shots <= 0:
                raise ValidationError("shots must be positive")
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

    @property
    def weight(self) -> float:
        """Statistical weight of this record (1 in exact mode)."""
        return 1.0 if self.shots is None else float(self.shots)


@dataclass(frozen=True)
class CircuitDescriptor:
    """One tomography configuration: prepare, run the sequence, rotate,
    and measure in the computational basis."""

    prep_label: str
    meas_label: str
    gates: tuple[GateLabel, ...]


def _fitted_gates(gate_sequence, n_qubits: int) -> tuple[GateLabel, ...]:
    """The sequence as a tuple, once every gate fits on ``n_qubits``."""
    gates = tuple(gate_sequence)
    for gate in gates:
        if max(gate.qubits) >= n_qubits:
            raise DimensionError(f"gate {gate} does not fit on {n_qubits} qubit(s)")
    return gates


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


def _count_record(prep: str, meas: str, probs, shots: int | None, rng=None) -> CountRecord:
    """Record of one configuration from its normalized outcome
    probabilities: the probabilities themselves when ``shots`` is None,
    otherwise a multinomial draw.  An integer ``rng`` seeds a dedicated
    generator and is recorded as the record's seed."""
    keys = outcome_bitstrings(len(split_label(prep)))
    if shots is None:
        return CountRecord(prep, meas, {k: float(p) for k, p in zip(keys, probs)}, None)
    seed = None
    if rng is None:
        rng = np.random.default_rng()
    elif isinstance(rng, (int, np.integer)):
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


def _group_by_setting(records) -> dict[str, CountRecord]:
    grouped: dict[str, CountRecord] = {}
    for rec in records:
        if rec.meas_label in grouped:
            raise ValidationError(f"duplicate records for setting {rec.meas_label!r}")
        grouped[rec.meas_label] = rec
    return grouped


def _likelihood_row(records, frame: TomographyFrame):
    """One preparation's data over the frame's outcome list: frequencies,
    weighted frequencies over the total weight, step tolerance, and
    whether every setting is exact."""
    grouped = _group_by_setting(records)
    settings = frame.meas_labels
    missing = [m for m in settings if m not in grouped]
    if missing:
        raise IncompleteDataError(f"missing measurement settings: {missing}", missing)
    freqs = np.concatenate([grouped[m].frequencies() for m in settings])
    weights = np.repeat([grouped[m].weight for m in settings], frame.dim)
    total_weight = float(sum(grouped[m].weight for m in settings))
    step_tol = 1e-12
    exact = all(grouped[m].shots is None for m in settings)
    # Beyond the shot-noise radius extra iterations buy nothing.
    if not exact:
        step_tol = max(step_tol, 1e-3 / math.sqrt(total_weight))
    return freqs, weights * freqs / total_weight, step_tol, exact


#: Iteration cap of the likelihood estimator.
MLE_MAX_ITERATIONS = 10_000


def _mle_batch(record_sets, labels, frame: TomographyFrame) -> list[MleEstimate]:
    """Diluted fixed-point estimates of several preparations at once;
    ``record_sets[i]`` holds the records of preparation ``labels[i]``.
    See :func:`mle_estimate` for the iteration.  Iterates, R and the
    dilution gates are half-embeddings (:func:`_embedded`) until their
    rows finish or hit the cap."""
    design, effect_rows, probability_map = _likelihood_design(frame.meas_labels)
    d, n_preps = frame.dim, len(labels)
    rows = [_likelihood_row(records, frame) for records in record_sets]
    freqs, wft, step_tol, exact = (np.array(column) for column in zip(*rows))

    def normalized(rho):
        return rho / np.einsum("pii->p", rho.real)[:, None, None]

    def real_probabilities(rho):  # of a stack of half-embedded states
        return rho.reshape(len(rho), 4 * d * d) @ probability_map

    def probabilities(rho):
        return np.maximum(real_probabilities(rho), 1e-300)

    def loglik(probs, wft):
        return np.einsum("pk,pk->p", wft, np.log(probs))

    def r_operators(probs, wft):
        return ((wft / probs) @ effect_rows).reshape(len(probs), 2 * d, 2 * d)

    states = np.empty((n_preps, d, d), dtype=complex)
    logliks = np.empty(n_preps)
    iterations = np.zeros(n_preps, dtype=int)
    live = np.ones(n_preps, dtype=bool)

    # With exact probabilities the unconstrained likelihood maximum is
    # the least-squares state reproducing them; when that state is
    # physical it is the estimate, to machine precision rather than the
    # sqrt(eps) floor of likelihood-monitored iteration.
    if exact.any():
        ex = np.flatnonzero(exact)
        solution, *_ = np.linalg.lstsq(design, freqs[ex].T.astype(complex), rcond=None)
        rho_lin = np.ascontiguousarray(solution.T).reshape(len(ex), d, d)
        rho_lin = normalized(_hermitian_part(rho_lin))
        residual = np.max(np.abs(real_probabilities(_embedded(rho_lin)) - freqs[ex]), axis=1)
        w, v = np.linalg.eigh(rho_lin)
        physical = (residual < 1e-10) & (w[:, 0] >= -1e-11)
        w = np.clip(w[physical], 0.0, None)
        v = v[physical]
        rho_lin = _from_spectrum(w / w.sum(axis=1, keepdims=True), v)
        solved = ex[physical]
        states[solved] = rho_lin
        logliks[solved] = loglik(probabilities(_embedded(rho_lin)), wft[solved])
        live[solved] = False
        # inconsistent or unphysical exact-mode data heads for a boundary
        # optimum, where the fixed point contracts sublinearly; such
        # pseudo-data carries no exactness requirement
        step_tol[ex[~physical]] = np.maximum(step_tol[ex[~physical]], 1e-9)

    idx = np.flatnonzero(live)
    wft, half_tol_sq = wft[idx], 0.5 * step_tol[idx] ** 2  # embedding halves |.|^2
    ident = 0.5 * np.eye(2 * d)  # the half-embedded identity
    rho = np.repeat(ident[None] / d, len(idx), axis=0)
    probs = probabilities(rho)
    ll = loglik(probs, wft)
    # Likelihood gating resolves improvements only down to sqrt(machine
    # epsilon) in state error; once it stalls, the plain fixed-point
    # update keeps contracting for interior optima, so a bounded
    # terminal phase runs ungated on the step criterion alone.
    stalled, any_stalled = np.zeros(len(idx), dtype=bool), False
    polish_left = np.full(len(idx), 1_000)
    iteration = 0
    while idx.size and iteration < MLE_MAX_ITERATIONS:
        iteration += 1
        r = r_operators(probs, wft)
        cand = normalized(r @ rho @ r)
        probs_cand = probabilities(cand)  # for the likelihood and the next R
        ll_cand = loglik(probs_cand, wft)
        if any_stalled:
            ll_cand[stalled] = ll[stalled]
            polish_left -= stalled
        dropped = (ll_cand < ll).nonzero()[0]
        eps = 0.5
        while dropped.size and eps > 1e-8:  # dilute toward the identity
            g = ident + eps * (r[dropped] - ident)
            diluted = normalized(g @ rho[dropped] @ g)
            probs_diluted = probabilities(diluted)
            ll_diluted = loglik(probs_diluted, wft[dropped])
            kept = ll_diluted >= ll[dropped]
            taken = dropped[kept]
            cand[taken], probs_cand[taken], ll_cand[taken] = (
                diluted[kept], probs_diluted[kept], ll_diluted[kept])
            dropped = dropped[~kept]
            eps *= 0.5
        if dropped.size:  # no dilution improves these: stall on the undiluted candidate
            ll_cand[dropped] = ll[dropped]
            stalled[dropped] = True
            any_stalled = True
        diff = (cand - rho).reshape(len(idx), 4 * d * d)
        step_sq = np.einsum("pk,pk->p", diff, diff)
        rho, probs, ll = cand, probs_cand, ll_cand
        finished = step_sq < half_tol_sq
        if any_stalled:
            finished |= stalled & (polish_left <= 0)
        if finished.any():
            out = idx[finished]
            states[out] = normalized(_hermitian_part(_unembedded(rho[finished])))
            logliks[out] = ll[finished]
            iterations[out] = iteration
            going = ~finished
            idx, rho, probs, ll = idx[going], rho[going], probs[going], ll[going]
            wft, half_tol_sq = wft[going], half_tol_sq[going]
            stalled, polish_left = stalled[going], polish_left[going]
            any_stalled = bool(stalled.any())
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
    record set, keyed by preparation label; records of preparations the
    frame does not name are ignored.  All preparations run the iteration
    of :func:`mle_estimate` together, each with its own stopping rule.
    The batch changes a preparation's iterates only by roundoff, which
    matters only where the likelihood gate compares two values equal to
    the last bits (exact-mode data iterating to the 1e-9 tolerance).
    If preparations hit the iteration cap, :class:`ConvergenceError`
    names the first of them in frame order."""
    by_prep = {label: [] for label in frame.prep_labels}
    for rec in records:
        if rec.prep_label in by_prep:
            by_prep[rec.prep_label].append(rec)
    estimates = _mle_batch(list(by_prep.values()), frame.prep_labels, frame)
    return dict(zip(frame.prep_labels, estimates))


def mle_estimate(records, frame: TomographyFrame) -> MleEstimate:
    """Diluted fixed-point maximum-likelihood state estimate.

    ``records`` must cover every measurement setting of the frame for a
    single preparation.  The iteration is the multiplicative R-rho-R
    update with the step diluted whenever the log-likelihood would
    decrease, so the likelihood is non-decreasing and the iterate stays
    positive semidefinite throughout.  Convergence is declared when the
    Frobenius step falls below 1e-12 (loosened to the statistical
    resolution of the data when counts are finite, and to 1e-9 for
    exact data no physical state reproduces), or 1,000 ungated
    iterations after no dilution raises the likelihood; 10,000
    iterations raise :class:`ConvergenceError`.  Exact-mode data that
    is consistent with a physical state short-circuits to that state,
    the least-squares solution, which is the exact optimum.

    This is the batched kernel of :func:`mle_estimates` on one
    preparation.  The data is one row of weighted frequencies over the
    frame's full outcome list; an outcome with zero counts has weight 0
    and drops out of the likelihood and of R.  Each candidate's outcome
    probabilities are computed once, for its log-likelihood, and reused
    for the next R.  The iteration runs in real arithmetic, on half the
    real embeddings ``[[X, -Y], [Y, X]] / 2`` of the states and of R.
    """
    records = list(records)
    label = records[0].prep_label if records else ""
    return _mle_batch([records], (label,), frame)[0]


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
