"""The two-step process witness of ``gatemem ptensor``: the relative
entropy of a measured two-step process state to the product of its
one-step maps, the state a memoryless process would produce, built from
a model's exact or reconstructed one-gate maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pipeline
from .channels import GateLabel, QuantumChannel, choi_from_superop
from .exceptions import DimensionError
from .qcore import _as_matrix, _hermitian_part
from .simulator import SEModel, cji_circuit, extract_channel

#: Weight of the maximally mixed state that :func:`process_tensor_proxy`
#: blends into its memoryless reference.
PTENSOR_REGULARIZATION = 1e-12


def markovian_choi_reference(chan_u: QuantumChannel, chan_v: QuantumChannel) -> np.ndarray:
    """Product of the trace-1 operator representations of two maps: the
    multi-step state a memoryless process would produce."""
    cu = choi_from_superop(chan_u) / chan_u.dim
    cv = choi_from_superop(chan_v) / chan_v.dim
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


@dataclass(frozen=True)
class ProcessTensorPair:
    """A measured two-step process state, its memoryless reference, and
    the relative entropy of the first to the second."""

    measured: np.ndarray
    reference: np.ndarray
    relative_entropy: float


def process_tensor_pair(
    model: SEModel, u: GateLabel, v: GateLabel, shots: int | None, seed: int = 0
) -> ProcessTensorPair:
    """Two-step process state of ``u`` then ``v`` against its memoryless
    reference, built from the model's exact single-gate maps when
    ``shots`` is None and otherwise from maps reconstructed with seeds
    ``seed`` (for ``u``) and ``seed + 1`` (for ``v``)."""
    measured = cji_circuit(model, u, v)
    if shots is None:
        chan_u, chan_v = extract_channel(model, [u]), extract_channel(model, [v])
    else:
        chan_u, chan_v = (
            pipeline.reconstruct_channel(pipeline.simulate_records(model, [g], shots, s)).channel
            for g, s in ((u, seed), (v, seed + 1)))
    reference = markovian_choi_reference(chan_u, chan_v)
    value = process_tensor_proxy(measured, reference)
    return ProcessTensorPair(measured.data, reference, float(value))
