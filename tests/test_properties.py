"""Property tests of the closed-form trace norms (the 4 x 4 form on the
entries of stacked blocks, and the qubit form on the averaged distance's
real coordinates), of the trace distance, of the certified diamond
distance against the averaged one, and of the algebra under every
channel: column stacking, the Choi representation, composition, gate
labels, and the CP test on maps known to be CP or not.

Examples are derandomized, so every run checks the same cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatemem.channels import (
    GATE_SET,
    GateLabel,
    QuantumChannel,
    _reshuffle,
    apply,
    choi_from_superop,
    compose,
    unvec,
    vec,
)
from gatemem.nonmarkov import avg_trace_distance, cp_violation, diamond_distance
from gatemem.qcore import _half_trace_norm, _half_trace_norm_4x4_entries

from conftest import (
    _haar_vectors,
    haar_random_unitary,
    hermitian_entries,
    purification,
    random_channel,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

unit = st.floats(-1.0, 1.0, allow_nan=False)
angles = st.floats(-np.pi, np.pi, allow_nan=False)


@st.composite
def qubit_states(draw):
    """A density matrix from a Bloch vector in the unit ball."""
    r = np.array([draw(unit) for _ in range(3)])
    r /= max(1.0, np.linalg.norm(r))
    return 0.5 * (np.eye(2) + sum(c * p for c, p in zip(r, PAULIS)))


@st.composite
def unitaries(draw):
    """``Rz(a) Ry(b) Rz(c)`` times a global phase."""
    a, b, c, phase = (draw(angles) for _ in range(4))

    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

    ry = np.array([[np.cos(b / 2), -np.sin(b / 2)], [np.sin(b / 2), np.cos(b / 2)]])
    return np.exp(1j * phase) * rz(a) @ ry @ rz(c)


@st.composite
def hermitian_4x4(draw):
    """``U diag(lam) U+`` for a Haar unitary ``U`` and four eigenvalues,
    generic or with the structure where the 4 x 4 closed form is least
    accurate or falls back: degenerate, rank 1, rank 2 as ``(a, -a, 0,
    0)``, or nearly a multiple of the identity; optionally split by
    relative gaps of 1e-9 to 1e-3; scaled by 1e-8 to 1e3.  The values
    come from a drawn seed, so that they are typical rather than shrunk
    towards simple numbers."""
    kind = draw(st.sampled_from(
        ["generic", "pair", "triple", "two-pairs", "rank-1", "rank-2", "shifted"]
    ))
    near = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.uniform(-1.0, 1.0, 4)
    if kind == "pair":
        lam[1] = lam[0]
    elif kind == "triple":
        lam[1:3] = lam[0]
    elif kind == "two-pairs":
        lam[1], lam[3] = lam[0], lam[2]
    elif kind == "rank-1":
        lam[1:] = 0.0
    elif kind == "rank-2":
        lam[1], lam[2:] = -lam[0], 0.0
    elif kind == "shifted":
        lam = 1.0 + 1e-3 * lam
    if near:
        lam += 10.0 ** rng.uniform(-9.0, -3.0) * rng.uniform(-1.0, 1.0, 4)
    lam *= 10.0 ** rng.uniform(-8.0, 3.0)
    u = haar_random_unitary(4, rng)
    return (u * lam) @ u.conj().T


@PROPERTY
@given(st.lists(hermitian_4x4(), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_stacked_4x4_closed_form_matches_eigvalsh(blocks, seed):
    # one non-Hermitian complex block in every stack: the closed form
    # takes the entries of the Hermitian part of each block
    rng = np.random.default_rng(seed)
    blocks.append(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    stack = np.array(blocks)
    herm = 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))
    eigs = np.linalg.eigvalsh(herm)
    expected = 0.5 * np.sum(np.abs(eigs), axis=-1)
    bound = 1e-12 * np.maximum(1.0, np.max(np.abs(eigs), axis=-1))
    got = _half_trace_norm_4x4_entries(*hermitian_entries(stack))
    assert np.all(np.abs(got - expected) <= bound)


@PROPERTY
@given(st.lists(st.floats(-10.0, 10.0), min_size=32, max_size=32), st.integers(0, 2**32 - 1))
def test_qubit_averaged_distance_matches_eigvalsh(parts, seed):
    # any complex 4 x 4 superoperator difference, trace- and
    # Hermiticity-preserving or not
    parts = np.array(parts)
    delta = (parts[:16] + 1j * parts[16:]).reshape(4, 4)
    result = avg_trace_distance(QuantumChannel(delta), QuantumChannel(np.zeros((4, 4))), 50,
                                np.random.default_rng(seed))

    z = _haar_vectors(2, 50, np.random.default_rng(seed))
    vecs = np.einsum("ni,nj->nij", z, z.conj()).reshape(50, 4, order="F")
    out = (vecs @ delta.T).reshape(50, 2, 2, order="F")
    eigs = np.linalg.eigvalsh(0.5 * (out + np.conj(np.swapaxes(out, -1, -2))))
    expected = 0.5 * np.sum(np.abs(eigs), axis=-1)
    bound = 1e-12 * np.maximum(1.0, np.max(np.abs(eigs), axis=-1))
    assert np.all(np.abs(result.samples - expected) <= bound)


@PROPERTY
@given(qubit_states(), qubit_states(), unitaries())
def test_unitary_invariance(rho, sigma, u):
    rotated = _half_trace_norm(u @ rho @ u.conj().T - u @ sigma @ u.conj().T)
    assert rotated == pytest.approx(_half_trace_norm(rho - sigma), abs=1e-12)


@PROPERTY
@given(qubit_states(), qubit_states(), qubit_states())
def test_triangle_inequality(a, b, c):
    assert _half_trace_norm(a - b) <= _half_trace_norm(a - c) + _half_trace_norm(c - b) + 1e-12


@st.composite
def qubit_channel_pairs(draw):
    """Two random qubit channels from Stinespring isometries: both
    unitary (Kraus rank 1), one unitary, or both of Kraus rank 2 to 4.
    Unitary pairs have pure optimal inputs, the hard case for the
    diamond solver."""
    kind = draw(st.sampled_from(["unitaries", "unitary-channel", "channels"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranks = {"unitaries": (1, 1), "unitary-channel": (1, rng.integers(2, 5)),
             "channels": rng.integers(2, 5, size=2)}[kind]
    return tuple(random_channel(2, rng, kraus_rank=int(k)) for k in ranks)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(qubit_channel_pairs(), st.integers(0, 2**32 - 1))
def test_diamond_distance_dominates_averaged_distance(pair, seed):
    a, b = pair
    result = diamond_distance(a, b)
    avg = avg_trace_distance(a, b, 4_000, np.random.default_rng(seed))
    assert result.gap <= 1e-6
    assert result.primal_bound <= result.value
    assert result.value >= avg.mean - 3.0 * avg.stderr - 1e-6
    # the purified input state reproduces the primal bound
    choi4 = (choi_from_superop(a) - choi_from_superop(b)).reshape(2, 2, 2, 2)
    out = np.einsum("stuv,saub->tavb", choi4, purification(result.input_state).reshape((2,) * 4))
    assert _half_trace_norm(out.reshape(4, 4)) == pytest.approx(result.primal_bound, abs=1e-9)


seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from([2, 4])


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _channel(dim, rng):
    """A random CPTP map of random Kraus rank."""
    return random_channel(dim, rng, kraus_rank=int(rng.integers(1, dim * dim + 1)))


def _matrix_units(d):
    for j in range(d):
        for i in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            yield i, j, unit


@PROPERTY
@given(st.integers(1, 5), seeds)
def test_vec_unvec_round_trip_and_column_stacking(d, seed):
    rng = np.random.default_rng(seed)
    x, a, b = (_complex(rng, (d, d)) for _ in range(3))
    np.testing.assert_array_equal(unvec(vec(x)), x)
    v = _complex(rng, d * d)
    np.testing.assert_array_equal(vec(unvec(v)), v)
    # column stacking: vec(A X B) = (B^T (x) A) vec(X)
    np.testing.assert_allclose(vec(a @ x @ b), np.kron(b.T, a) @ vec(x), atol=1e-12)


@PROPERTY
@given(dims, st.floats(-2.0, 2.0), seeds)
def test_choi_superoperator_round_trip(d, weight, seed):
    # any Hermiticity-preserving map, CP or not: a real mixture of channels
    rng = np.random.default_rng(seed)
    chan = QuantumChannel(_channel(d, rng).superop + weight * _channel(d, rng).superop)
    choi = choi_from_superop(chan)
    np.testing.assert_array_equal(_reshuffle(choi), chan.superop)
    # input factor first: J = sum_ij |i><j| (x) map(|i><j|)
    expected = sum(np.kron(unit, apply(chan, unit)) for _, _, unit in _matrix_units(d))
    np.testing.assert_allclose(choi, expected, atol=1e-12)


@PROPERTY
@given(dims, seeds)
def test_compose_is_associative_and_applies_first_then_second(d, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_channel(d, rng) for _ in range(3))
    left, right = compose(compose(a, b), c), compose(a, compose(b, c))
    np.testing.assert_allclose(left.superop, right.superop, atol=1e-12)
    rho = _complex(rng, (d, d))
    np.testing.assert_allclose(apply(compose(a, b), rho), apply(a, apply(b, rho)), atol=1e-12)


@st.composite
def gate_labels(draw):
    name = draw(st.sampled_from(GATE_SET))
    if name == "CX":
        control = draw(st.integers(0, 20))
        target = draw(st.integers(0, 20).filter(lambda q: q != control))
        return GateLabel(name, (control, target))
    return GateLabel(name, (draw(st.integers(0, 20)),))


@PROPERTY
@given(st.lists(gate_labels(), min_size=1, max_size=4))
def test_gate_label_parse_str_round_trip(labels):
    for label in labels:
        assert GateLabel.parse(str(label)) == label
        assert str(GateLabel.parse(str(label))) == str(label)
    # a comma-joined sequence splits back into its gates, as the CLI reads one
    text = ",".join(str(label) for label in labels)
    assert [GateLabel.parse(token) for token in text.split(",")] == labels


def _transpose_superop(d):
    superop = np.zeros((d * d, d * d), dtype=complex)
    for i, j, unit in _matrix_units(d):
        superop[:, j * d + i] = vec(unit.T)
    return superop


@PROPERTY
@given(dims, seeds)
def test_cp_violation_vanishes_exactly_on_cp_maps(d, seed):
    rng = np.random.default_rng(seed)
    assert cp_violation(_channel(d, rng)) <= 1e-12
    # after a transpose a unitary channel's trace-1 Choi matrix has trace
    # norm d, so the violation is d - 1
    unitary = random_channel(d, rng, kraus_rank=1)
    transposed = QuantumChannel(_transpose_superop(d) @ unitary.superop)
    assert cp_violation(transposed) == pytest.approx(d - 1, abs=1e-9)
