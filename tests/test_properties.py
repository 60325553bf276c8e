"""Property tests of the qubit trace-norm kernel and the trace distance.

Examples are derandomized, so every run checks the same cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatemem.qcore import _half_trace_norm, trace_distance

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
unit = st.floats(-1.0, 1.0, allow_nan=False)
angles = st.floats(-np.pi, np.pi, allow_nan=False)


@st.composite
def matrices(draw):
    """Any complex 2 x 2 matrix, Hermitian or not."""
    parts = np.array(draw(st.lists(entries, min_size=8, max_size=8)))
    return (parts[:4] + 1j * parts[4:]).reshape(2, 2)


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


@PROPERTY
@given(matrices())
def test_closed_form_matches_eigvalsh(mat):
    herm = 0.5 * (mat + mat.conj().T)
    expected = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(herm)))
    assert _half_trace_norm(mat) == pytest.approx(expected, rel=1e-12, abs=1e-300)


@PROPERTY
@given(qubit_states(), qubit_states(), unitaries())
def test_unitary_invariance(rho, sigma, u):
    rotated = trace_distance(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
    assert rotated == pytest.approx(trace_distance(rho, sigma), abs=1e-12)


@PROPERTY
@given(qubit_states(), qubit_states(), qubit_states())
def test_triangle_inequality(a, b, c):
    assert trace_distance(a, b) <= trace_distance(a, c) + trace_distance(c, b) + 1e-12
