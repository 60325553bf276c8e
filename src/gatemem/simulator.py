"""Ground-truth generator with a controllable quantum memory.

Gates act jointly on the system and a small environment; resetting the
environment between gates yields a memoryless (factorizing) process,
while letting it persist produces genuine history dependence.  The
default model couples each system qubit to one shared environment qubit
through a ZZ interaction of tunable strength and gives the environment
an always-on transverse rotation, so the noise a gate sees depends on
what the previous gates did to the environment.

A tomography configuration is evaluated in two steps.  The circuit up
to the measurement depends only on the preparation, so
:func:`output_state` runs it once per preparation: preparation unitary,
preparation SPAM kick, joint evolution, trace over the environment.
:func:`setting_rotation` builds each measurement setting's basis change
with its SPAM kick, and a configuration's outcome probabilities are the
diagonal of the rotated output state.  :func:`circuit_distribution` is
the two steps for one configuration; ``pipeline.simulate_records`` runs
the first once per preparation and the second once per setting.

The sampler emits count records with the same schema as externally
supplied data; analysis code cannot distinguish provenance.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    _GATE_MATRICES,
    GateLabel,
    QuantumChannel,
    embed_unitary,
    gate_unitary,
    vec,
)
from .exceptions import DimensionError, LabelError, ValidationError
from .qcore import (
    DensityMatrix,
    _as_matrix,
    _complex_normals,
    _hermitian_function,
    _hermitian_part,
    _trace_out_last,
)
from .tomography import (
    CircuitDescriptor,
    CountRecord,
    _count_record,
    _normalized,
    _rotated_probabilities,
    meas_rotation,
    prep_unitary,
)

#: Default memory coupling for detection demonstrations: strong enough
#: that every gate pair's conditioned map is visibly non-CP, while all
#: single-gate maps stay well-conditioned for inversion.
DEFAULT_COUPLING = 0.55

_X, _Z, _H, _CX = (_GATE_MATRICES[name] for name in ("X", "Z", "H", "CX"))


@dataclass(frozen=True)
class SpamSpec:
    """Preparation/measurement imperfection strengths.

    Each distinct preparation or measurement label gets one fixed
    random small-angle unitary kick, drawn once from ``seed`` and scaled
    by the corresponding strength; zero strength skips the kick path
    entirely, so it is bit-identical to a noiseless run.  ``seed`` is a
    non-negative integer.
    """

    prep_strength: float = 0.0
    meas_strength: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.prep_strength < 0 or self.meas_strength < 0:
            raise ValidationError("SPAM strengths must be nonnegative")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise ValidationError(
                f"'spam.seed' must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class SEModel:
    """System + environment model: per-gate joint unitaries and a reset
    policy.

    ``gate_unitaries`` maps :class:`GateLabel` to a unitary on
    system (x) environment (system factors first), and ``env_initial``
    is an ``env_dim`` x ``env_dim`` density matrix.  ``reset_policy`` is
    ``"persistent"`` or ``"reset_each_gate"``.
    """

    sys_qubits: int
    env_dim: int
    env_initial: np.ndarray
    gate_unitaries: dict
    reset_policy: str
    spam: SpamSpec = field(default_factory=SpamSpec)

    def __post_init__(self):
        if self.reset_policy not in ("persistent", "reset_each_gate"):
            raise ValidationError(f"unknown reset policy {self.reset_policy!r}")
        env = np.array(self.env_initial, dtype=complex)
        if env.shape != (self.env_dim, self.env_dim):
            raise DimensionError(f"'env_initial' must be {self.env_dim} x {self.env_dim},"
                                 f" got shape {env.shape}")
        DensityMatrix(env)  # validates the environment state
        env.setflags(write=False)
        object.__setattr__(self, "env_initial", env)
        d_joint = self.sys_dim * self.env_dim
        unitaries = {}
        for label, u in self.gate_unitaries.items():
            u = np.array(u, dtype=complex)
            if u.shape != (d_joint, d_joint):
                raise DimensionError(f"joint unitary for {label} has shape {u.shape}")
            if not np.max(np.abs(u @ u.conj().T - np.eye(d_joint))) <= 1e-12:  # a NaN fails too
                raise ValidationError(f"joint operator for {label} is not unitary")
            u.setflags(write=False)
            unitaries[label] = u
        object.__setattr__(self, "gate_unitaries", types.MappingProxyType(unitaries))

    @property
    def sys_dim(self) -> int:
        return 2**self.sys_qubits

    def joint_unitary(self, gate: GateLabel) -> np.ndarray:
        try:
            return self.gate_unitaries[gate]
        except KeyError:
            raise LabelError(f"model has no unitary for gate {gate}") from None


def _env_rotation(omega: float, duration: float) -> np.ndarray:
    angle = omega * duration
    return math.cos(angle) * np.eye(2) - 1j * math.sin(angle) * _X


#: Relative weight of the transverse coupling term; keeps the
#: system-environment interaction from commuting with any system gate,
#: so every gate pair feels the memory.
COUPLING_MIX = 0.5


def _coupling_unitary(sys_qubits: int, strength: float, duration: float) -> np.ndarray:
    """exp(-i g t sum_q (Z_q Z_env + mix * X_q X_env))."""
    dims = (2,) * sys_qubits
    generator = np.zeros((2**sys_qubits * 2,) * 2, dtype=complex)
    for q in range(sys_qubits):
        generator += np.kron(embed_unitary(_Z, (q,), dims), _Z)
        generator += COUPLING_MIX * np.kron(embed_unitary(_X, (q,), dims), _X)
    return _hermitian_function(strength * duration * generator, lambda w: np.exp(-1j * w))


def build_default_model(
    labels,
    coupling: float = DEFAULT_COUPLING,
    reset_policy: str = "persistent",
    sys_qubits: int | None = None,
    env_omega: float = 0.7,
    durations: dict | None = None,
    env_initial: np.ndarray | None = None,
    spam: SpamSpec | None = None,
) -> SEModel:
    """One-environment-qubit model with tunable memory ``coupling``.

    Each gate's joint unitary is (U_gate (x) R_env) exp(-i g C t) with C
    the sum of system-qubit (ZZ + mix XX) couplings to the shared
    environment qubit, t the per-gate duration (default 1, two-qubit
    gates 2), and R_env a transverse environment rotation that keeps the
    memory moving between gates.  At ``coupling=0`` every joint unitary
    is a product, so the model reproduces ideal gates under either reset
    policy.  ``sys_qubits`` is the widest gate's width when None, and
    otherwise must be a positive integer.  ``durations`` maps gate names
    of ``labels`` to durations.
    """
    labels = [l if isinstance(l, GateLabel) else GateLabel.parse(l) for l in labels]
    if sys_qubits is None:
        sys_qubits = max(max(l.qubits) for l in labels) + 1
    if isinstance(sys_qubits, bool) or not isinstance(sys_qubits, (int, np.integer)) \
            or sys_qubits < 1:
        raise ValidationError(f"'sys_qubits' must be a positive integer, got {sys_qubits!r}")
    n = int(sys_qubits)
    durations = dict(durations or {})
    names = {label.name for label in labels}
    unknown = sorted(set(durations) - names, key=str)
    if unknown:
        raise ValidationError(f"'durations.{unknown[0]}' names no gate of the model;"
                              f" its gates are {sorted(names)}")
    unitaries = {}
    for label in labels:
        t = durations.get(label.name, 2.0 if label.name == "CX" else 1.0)
        u_sys = gate_unitary(label, n)
        joint = np.kron(u_sys, _env_rotation(env_omega, t)) @ _coupling_unitary(n, coupling, t)
        unitaries[label] = joint
    if env_initial is None:
        env_initial = np.full((2, 2), 0.5, dtype=complex)  # |+><+|
    return SEModel(
        sys_qubits=n,
        env_dim=2,
        env_initial=np.asarray(env_initial, dtype=complex),
        gate_unitaries=unitaries,
        reset_policy=reset_policy,
        spam=spam or SpamSpec(),
    )


def _noisy_step(model: SEModel, u: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Conjugate ``state`` by the full-space unitary ``u``; under the
    ``reset_each_gate`` policy, then re-prepare the environment, which is
    the last tensor factor."""
    state = u @ state @ u.conj().T
    if model.reset_policy == "reset_each_gate":
        state = np.kron(_trace_out_last(state, model.env_dim), model.env_initial)
    return state


def _run_sequence_raw(model: SEModel, gates, system_mat: np.ndarray) -> np.ndarray:
    joint = np.kron(system_mat, model.env_initial)
    for gate in gates:
        joint = _noisy_step(model, model.joint_unitary(gate), joint)
    return _trace_out_last(joint, model.env_dim)


def run_sequence(model: SEModel, gates, input_state) -> DensityMatrix:
    """Apply a gate sequence to a system state, tracing out the
    environment at the end.  The environment starts fresh at the start
    of the sequence and is re-fed between gates only under the
    ``reset_each_gate`` policy."""
    mat = _as_matrix(input_state)
    if mat.shape != (model.sys_dim, model.sys_dim):
        raise DimensionError(f"input shape {mat.shape} does not fit {model.sys_qubits} qubit(s)")
    return DensityMatrix(_run_sequence_raw(model, gates, mat))


def extract_channel(model: SEModel, gates) -> QuantumChannel:
    """Exact superoperator of the map a gate sequence induces on the
    system, built by propagating the matrix-unit basis."""
    d = model.sys_dim
    superop = np.empty((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            basis = np.zeros((d, d), dtype=complex)
            basis[i, j] = 1.0
            superop[:, j * d + i] = vec(_run_sequence_raw(model, gates, basis))
    return QuantumChannel(superop)


def _spam_kick(spec: SpamSpec, kind: str, label: str, dim: int, strength: float) -> np.ndarray:
    """Fixed small-angle unitary for one preparation/measurement label."""
    entropy = [int(spec.seed), 0 if kind == "prep" else 1] + [ord(c) for c in label]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    re, im = _complex_normals(dim, dim, rng)
    herm = _hermitian_part(re + 1j * im)
    herm = herm / np.linalg.norm(herm, 2)
    return _hermitian_function(herm, lambda w: np.exp(-1j * strength * w))


def output_state(model: SEModel, gates, prep_label: str) -> np.ndarray:
    """System state after ``gates`` act on the labelled preparation: the
    preparation unitary with its SPAM kick, the joint evolution from a
    fresh environment, and the trace over the environment.  Every
    measurement setting of that preparation reads this one state."""
    d = model.sys_dim
    prep = prep_unitary(prep_label)
    if prep.shape[0] != d:
        raise DimensionError(
            f"preparation {prep_label!r} has dimension {prep.shape[0]}, the system {d}")
    if model.spam.prep_strength > 0:
        prep = _spam_kick(model.spam, "prep", prep_label, d, model.spam.prep_strength) @ prep
    ket0 = np.zeros(d, dtype=complex)
    ket0[0] = 1.0
    psi = prep @ ket0
    return _run_sequence_raw(model, gates, np.outer(psi, psi.conj()))


def setting_rotation(model: SEModel, meas_label: str) -> np.ndarray:
    """Basis change of the labelled setting with its measurement SPAM
    kick; outcome probabilities of a state are the diagonal of the
    rotated state (``tomography._rotated_probabilities``)."""
    d = model.sys_dim
    rot = meas_rotation(meas_label)
    if rot.shape[0] != d:
        raise DimensionError(
            f"setting {meas_label!r} has dimension {rot.shape[0]}, the system {d}")
    if model.spam.meas_strength > 0:
        rot = rot @ _spam_kick(model.spam, "meas", meas_label, d, model.spam.meas_strength)
    return rot


def circuit_distribution(model: SEModel, descriptor: CircuitDescriptor) -> np.ndarray:
    """Exact outcome probabilities of one tomography configuration,
    including any configured preparation/measurement kicks: the
    configuration's :func:`output_state` read through its
    :func:`setting_rotation`."""
    rho_out = output_state(model, descriptor.gates, descriptor.prep_label)
    rot = setting_rotation(model, descriptor.meas_label)
    return _normalized(_rotated_probabilities(rho_out, rot))


def sample_counts(
    model: SEModel,
    descriptor: CircuitDescriptor,
    shots: int | None,
    rng=None,
) -> CountRecord:
    """Multinomial counts (or exact probabilities when ``shots`` is
    None) for one configuration.  Passing an integer ``rng`` seeds a
    dedicated generator and records the seed on the record."""
    probs = circuit_distribution(model, descriptor)
    return _count_record(descriptor.prep_label, descriptor.meas_label, probs, shots, rng)


def cji_circuit(model: SEModel, u_gate: GateLabel, v_gate: GateLabel) -> DensityMatrix:
    """Four-qubit entangled state encoding a two-step process.

    Two Bell pairs are prepared cleanly (Hadamard then controlled-NOT);
    the noisy gates act in sequence on one physical wire, with an exact
    swap (three controlled-NOTs) moving the first step's output aside in
    between.  Wire order of the result is (kept half 1, step-1 output,
    kept half 2, step-2 output), so for memoryless noise it equals the
    product of the two steps' trace-1 operator representations.
    """
    if model.sys_qubits != 1:
        raise DimensionError("the process-encoding circuit drives a single-qubit model")
    dims = (2, 2, 2, 2, model.env_dim)
    ket = np.zeros(16, dtype=complex)
    ket[0] = 1.0
    state = np.kron(np.outer(ket, ket.conj()), model.env_initial)

    def clean(u, wires):
        nonlocal state
        full = embed_unitary(u, wires, dims)
        state = full @ state @ full.conj().T

    def noisy(gate):
        nonlocal state
        joint = model.joint_unitary(gate)  # acts on (system wire, env)
        state = _noisy_step(model, embed_unitary(joint, (1, 4), dims), state)

    clean(_H, (0,))
    clean(_CX, (0, 1))
    noisy(u_gate)
    clean(_H, (2,))
    clean(_CX, (2, 3))
    # swap wires 1 and 3 as three controlled-NOTs
    clean(_CX, (1, 3))
    clean(_CX, (3, 1))
    clean(_CX, (1, 3))
    noisy(v_gate)

    reduced = _trace_out_last(state, model.env_dim)
    # reorder wires (0, 1, 2, 3) -> (0, 3, 2, 1)
    tensor = reduced.reshape((2,) * 8)
    perm = (0, 3, 2, 1)
    tensor = tensor.transpose(perm + tuple(p + 4 for p in perm))
    return DensityMatrix(tensor.reshape(16, 16))
