"""Quantum channels as superoperators, and their Choi matrices.

Vectorization is column-stacking throughout the package: ``vec`` stacks
matrix columns, so the superoperator of a unitary conjugation
``rho -> U rho U+`` is ``kron(conj(U), U)``.  Choi matrices put the
input factor first and have total trace d for trace-preserving maps;
measures defined on the trace-1 operator representation divide by d
themselves.  A Choi matrix is a plain array, checked Hermitian to 1e-8
when :func:`choi_from_superop` builds it.

Channels are never forced to be CP or TP: maps reconstructed from data
or obtained by inversion are first-class values, and structure checks
are explicit queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DimensionError, LabelError, SingularChannelError, ValidationError
from .qcore import _as_matrix

_SQ2 = 1.0 / math.sqrt(2.0)

_GATE_MATRICES = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    # control on the first listed wire, target on the second
    "CX": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}

SINGLE_QUBIT_GATES = ("H", "S", "T", "X", "Y", "Z")
GATE_SET = SINGLE_QUBIT_GATES + ("CX",)


@dataclass(frozen=True)
class GateLabel:
    """A named gate together with the wire indices it acts on."""

    name: str
    qubits: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.name not in _GATE_MATRICES:
            raise LabelError(f"unknown gate {self.name!r}; known: {GATE_SET}")
        qubits = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if self.name == "CX":
            if len(qubits) != 2 or qubits[0] == qubits[1]:
                raise ValidationError("CX takes exactly two distinct wire indices")
        elif len(qubits) != 1:
            raise ValidationError(f"{self.name} takes exactly one wire index")
        if min(qubits) < 0:
            raise ValidationError(f"wire indices are non-negative, got {self}")

    def __str__(self) -> str:
        return f"{self.name}@{'.'.join(str(q) for q in self.qubits)}"

    @classmethod
    def parse(cls, text: str) -> "GateLabel":
        """Parse ``NAME`` or ``NAME@q`` or ``CX@c.t`` (default wires 0 / 0.1).

        The wire separator is ``.`` so that comma-separated gate lists
        stay unambiguous; ``,`` is accepted outside such lists.
        """
        name, _, wires = text.strip().partition("@")
        if wires:
            try:
                qubits = tuple(int(q) for q in wires.replace(",", ".").split("."))
            except ValueError:
                raise LabelError(f"bad wire indices in gate {text!r}") from None
        else:
            qubits = (0, 1) if name == "CX" else (0,)
        return cls(name, qubits)


@dataclass(frozen=True)
class QuantumChannel:
    """A linear map on density matrices, held as a d^2 x d^2 superoperator
    of finite entries."""

    superop: np.ndarray

    def __post_init__(self):
        superop = np.array(self.superop, dtype=complex)
        if superop.ndim != 2 or superop.shape[0] != superop.shape[1]:
            raise ValidationError(f"superoperator must be square, got {superop.shape}")
        d = math.isqrt(superop.shape[0])
        if d * d != superop.shape[0]:
            raise ValidationError(f"superoperator size {superop.shape[0]} is not a square")
        if not np.isfinite(superop).all():
            raise ValidationError("superoperator has non-finite entries")
        superop.setflags(write=False)
        object.__setattr__(self, "superop", superop)

    @property
    def dim(self) -> int:
        return math.isqrt(self.superop.shape[0])

    @property
    def n_qubits(self) -> int:
        if self.dim & (self.dim - 1):  # not a power of two
            raise DimensionError(f"'dim' must be a power of two, got {self.dim}")
        return self.dim.bit_length() - 1

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of the superoperator, descending; computed once
        per channel and shared by :func:`invert` and
        :func:`condition_number`."""
        s = np.linalg.svd(self.superop, compute_uv=False)
        s.setflags(write=False)
        return s


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(mat, dtype=complex).reshape(-1, order="F")


def unvec(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` (square target)."""
    vector = np.asarray(vector, dtype=complex).ravel()
    d = math.isqrt(vector.size)
    if d * d != vector.size:
        raise DimensionError(f"vector length {vector.size} is not a square")
    return vector.reshape(d, d, order="F")


def _reshuffle(mat: np.ndarray) -> np.ndarray:
    """Involution exchanging superoperator and Choi orderings."""
    n = mat.shape[0]
    d = math.isqrt(n)
    return mat.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(n, n)


def embed_unitary(u: np.ndarray, wires, dims) -> np.ndarray:
    """Embed a unitary acting on ``wires`` into the full tensor space.

    ``dims`` lists all subsystem dimensions (index 0 leftmost); ``wires``
    gives the subsystems ``u`` acts on, in the order of its own tensor
    factors.
    """
    dims = tuple(int(d) for d in dims)
    wires = tuple(int(w) for w in wires)
    n = len(dims)
    if len(set(wires)) != len(wires) or any(w < 0 or w >= n for w in wires):
        raise DimensionError(f"invalid wires {wires} for {n} subsystems")
    d_act = math.prod(dims[w] for w in wires)
    u = np.asarray(u, dtype=complex)
    if u.shape != (d_act, d_act):
        raise DimensionError(f"unitary shape {u.shape} does not match wires {wires}")
    rest = [i for i in range(n) if i not in wires]
    full = np.kron(u, np.eye(math.prod(dims[r] for r in rest) if rest else 1))
    order = list(wires) + rest  # current factor order of `full`
    cur_dims = [dims[i] for i in order]
    inv = [order.index(i) for i in range(n)]
    tensor = full.reshape(cur_dims + cur_dims)
    tensor = tensor.transpose(inv + [i + n for i in inv])
    total = math.prod(dims)
    return tensor.reshape(total, total)


def _fitted_gates(gate_sequence, n_qubits: int) -> tuple[GateLabel, ...]:
    """The sequence as a tuple, once every gate fits on ``n_qubits``."""
    gates = tuple(gate_sequence)
    for gate in gates:
        if max(gate.qubits) >= n_qubits:
            raise DimensionError(f"gate {gate} does not fit on {n_qubits} qubit(s)")
    return gates


def gate_unitary(gate: GateLabel, n_qubits: int) -> np.ndarray:
    """Unitary matrix of a gate embedded on ``n_qubits`` wires."""
    return embed_unitary(_GATE_MATRICES[gate.name], gate.qubits, (2,) * n_qubits)


def compose(second: QuantumChannel, first: QuantumChannel) -> QuantumChannel:
    """The map "first, then second": superoperator product second @ first."""
    if second.dim != first.dim:
        raise DimensionError(f"dimension mismatch: {second.dim} vs {first.dim}")
    return QuantumChannel(second.superop @ first.superop)


#: Smallest ``sigma_min / sigma_max`` that :func:`invert` treats as invertible.
INVERT_COND_THRESHOLD = 1e-8


def invert(chan: QuantumChannel) -> QuantumChannel:
    """Matrix inverse of the superoperator.

    Raises :class:`SingularChannelError` when ``sigma_min / sigma_max``
    falls below :data:`INVERT_COND_THRESHOLD`.
    """
    s = chan.singular_values
    sigma_max, sigma_min = float(s[0]), float(s[-1])
    if sigma_max == 0.0 or sigma_min / sigma_max < INVERT_COND_THRESHOLD:
        raise SingularChannelError(
            f"superoperator is singular (sigma_min={sigma_min:.3e}, "
            f"sigma_max={sigma_max:.3e})",
            sigma_min,
            sigma_max,
        )
    return QuantumChannel(np.linalg.inv(chan.superop))


def condition_number(chan: QuantumChannel) -> float:
    s = chan.singular_values
    return float(s[0] / s[-1]) if s[-1] > 0 else float("inf")


def choi_from_superop(chan: QuantumChannel) -> np.ndarray:
    """Choi matrix (input factor first, total trace d for TP maps), once
    it is Hermitian to 1e-8; CP and TP are not checked."""
    choi = _reshuffle(chan.superop)
    if not np.max(np.abs(choi - choi.conj().T)) <= 1e-8:  # a NaN fails too
        raise ValidationError("Choi matrix is not Hermitian")
    return choi


def apply(chan: QuantumChannel, rho) -> np.ndarray:
    """Act on a state: ``unvec(superop @ vec(rho))``.

    The result is returned unchecked: outputs of non-CP maps may
    legitimately violate positivity, and that violation is signal.
    """
    mat = _as_matrix(rho)
    if mat.shape != (chan.dim, chan.dim):
        raise DimensionError(f"state shape {mat.shape} does not match dim {chan.dim}")
    return unvec(chan.superop @ vec(mat))

