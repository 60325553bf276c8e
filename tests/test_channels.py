import re

import numpy as np
import pytest

from gatemem.channels import (
    GateLabel,
    QuantumChannel,
    _reshuffle,
    apply,
    choi_from_superop,
    compose,
    embed_unitary,
    gate_unitary,
    invert,
    unvec,
    vec,
)
from gatemem.exceptions import (
    DimensionError,
    LabelError,
    SingularChannelError,
    ValidationError,
)
from gatemem.qcore import DensityMatrix

from conftest import ideal_channel, is_cp, is_tp, random_channel, random_density

IDENTITY = QuantumChannel(np.eye(4))
KET0 = DensityMatrix(np.diag([1.0, 0.0]))


def depolarizing_channel(dim: int) -> QuantumChannel:
    superop = np.outer(vec(np.eye(dim) / dim), vec(np.eye(dim)).conj())
    return QuantumChannel(superop)


class TestGateLabel:
    def test_unknown_name(self):
        with pytest.raises(LabelError):
            GateLabel("Q", (0,))

    def test_cx_needs_two_distinct_wires(self):
        with pytest.raises(ValidationError):
            GateLabel("CX", (1, 1))
        with pytest.raises(ValidationError):
            GateLabel("CX", (0,))

    def test_single_gate_needs_one_wire(self):
        with pytest.raises(ValidationError):
            GateLabel("H", (0, 1))

    @pytest.mark.parametrize("token", ["X@-1", "CX@0.-1", "CX@-2.0"])
    def test_wires_are_non_negative(self, token):
        with pytest.raises(ValidationError, match=f"non-negative, got {re.escape(token)}"):
            GateLabel.parse(token)

    def test_parse_round_trip(self):
        assert GateLabel.parse("H@1") == GateLabel("H", (1,))
        assert GateLabel.parse("CX@1,0") == GateLabel("CX", (1, 0))
        assert GateLabel.parse("X") == GateLabel("X", (0,))


class TestQuantumChannel:
    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_superop(self, entry):
        superop = IDENTITY.superop.copy()
        superop[1, 2] = entry
        with pytest.raises(ValidationError, match="non-finite"):
            QuantumChannel(superop)

    @pytest.mark.parametrize("dim, n_qubits", [(1, 0), (2, 1), (4, 2), (8, 3)])
    def test_n_qubits_is_the_log2_of_dim(self, dim, n_qubits):
        assert QuantumChannel(np.eye(dim * dim)).n_qubits == n_qubits

    def test_n_qubits_needs_a_power_of_two(self):
        with pytest.raises(DimensionError, match="'dim' must be a power of two, got 3"):
            QuantumChannel(np.eye(9)).n_qubits


class TestIdealChannels:
    def test_x_flips_ground_state(self):
        out = apply(ideal_channel(GateLabel("X", (0,))), KET0)
        np.testing.assert_allclose(out, np.diag([0, 1]).astype(complex), atol=1e-14)

    def test_s_fourth_power_is_identity(self):
        plus = DensityMatrix(np.full((2, 2), 0.5))
        s = ideal_channel(GateLabel("S", (0,)))
        state = plus.data
        for _ in range(4):
            state = apply(s, state)
        np.testing.assert_allclose(state, plus.data, atol=1e-13)

    def test_t_squared_is_s(self):
        t = ideal_channel(GateLabel("T", (0,)))
        s = ideal_channel(GateLabel("S", (0,)))
        np.testing.assert_allclose(compose(t, t).superop, s.superop, atol=1e-12)

    def test_hadamard_makes_plus(self):
        h = ideal_channel(GateLabel("H", (0,)))
        out = apply(h, KET0)
        np.testing.assert_allclose(out, np.full((2, 2), 0.5, dtype=complex), atol=1e-14)

    def test_all_gates_cptp(self, single_qubit_labels):
        labels = single_qubit_labels + [GateLabel("CX", (0, 1))]
        for label in labels:
            choi = choi_from_superop(ideal_channel(label))
            assert is_cp(choi, 1e-12), label
            assert is_tp(choi, 1e-12), label

    def test_embedding_on_second_wire(self):
        u = gate_unitary(GateLabel("H", (1,)), 2)
        h = gate_unitary(GateLabel("H", (0,)), 1)
        np.testing.assert_allclose(u, np.kron(np.eye(2), h), atol=1e-15)

    def test_cx_reversed_control(self):
        u = gate_unitary(GateLabel("CX", (1, 0)), 2)
        # control on wire 1, target on wire 0: |01> -> |11>, |11> -> |01>
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[2, 2] = 1
        expected[3, 1] = expected[1, 3] = 1
        np.testing.assert_allclose(u, expected, atol=1e-15)

    def test_embed_unitary_rejects_bad_wires(self):
        with pytest.raises(DimensionError):
            embed_unitary(np.eye(2), (2,), (2, 2))


class TestCompose:
    def test_identity_is_neutral(self, rng):
        chan = random_channel(2, rng)
        np.testing.assert_allclose(
            compose(chan, IDENTITY).superop, chan.superop, atol=1e-15
        )

    def test_zx_on_ground_state(self):
        zx = compose(ideal_channel(GateLabel("Z", (0,))), ideal_channel(GateLabel("X", (0,))))
        out = apply(zx, KET0)
        np.testing.assert_allclose(out, np.diag([0, 1]).astype(complex), atol=1e-14)

    def test_composition_of_random_cptp_is_cptp(self, rng):
        for _ in range(10):
            chan = compose(random_channel(2, rng), random_channel(2, rng))
            choi = choi_from_superop(chan)
            assert is_cp(choi, 1e-8)
            assert is_tp(choi, 1e-8)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            compose(random_channel(2, rng), random_channel(4, rng))


class TestInvert:
    def test_x_is_involution(self):
        x = ideal_channel(GateLabel("X", (0,)))
        np.testing.assert_allclose(invert(x).superop, x.superop, atol=1e-12)

    def test_inverse_composes_to_identity(self, rng):
        for _ in range(10):
            u = ideal_channel(GateLabel("H", (0,)))
            chan = compose(random_channel(2, rng, kraus_rank=1), u)
            np.testing.assert_allclose(
                compose(chan, invert(chan)).superop, np.eye(4), atol=1e-10
            )

    def test_depolarizing_is_singular(self):
        with pytest.raises(SingularChannelError) as excinfo:
            invert(depolarizing_channel(2))
        assert excinfo.value.sigma_min < 1e-10 * excinfo.value.sigma_max

    def test_condition_scaled_identity_error(self, rng):
        from gatemem.channels import condition_number

        for _ in range(10):
            chan = random_channel(2, rng)
            kappa = condition_number(chan)
            residual = np.max(
                np.abs(compose(invert(chan), chan).superop - np.eye(4))
            )
            assert residual <= 1e-8 * max(kappa, 1.0)


class TestChoiConversions:
    def test_identity_choi_eigenvalues(self):
        choi = choi_from_superop(IDENTITY)
        eigs = np.sort(np.linalg.eigvalsh(choi))
        np.testing.assert_allclose(eigs, [0, 0, 0, 2], atol=1e-12)

    def test_identity_choi_is_entangled_projector(self):
        choi = choi_from_superop(IDENTITY)
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        np.testing.assert_allclose(choi, 2 * np.outer(phi, phi.conj()), atol=1e-12)

    def test_round_trip_on_random_channels(self, rng):
        for _ in range(50):
            chan = random_channel(2, rng)
            back = _reshuffle(choi_from_superop(chan))
            assert np.linalg.norm(back - chan.superop) <= 1e-12

    def test_depolarizing_choi_is_maximally_mixed(self):
        choi = choi_from_superop(depolarizing_channel(2))
        np.testing.assert_allclose(choi, np.eye(4) / 2, atol=1e-12)

    def test_rejects_non_hermitian_choi(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValidationError):
            choi_from_superop(QuantumChannel(_reshuffle(bad)))  # the reshuffle is an involution


class TestApply:
    def test_identity_returns_input(self, rng):
        rho = random_density(2, rng)
        np.testing.assert_allclose(apply(IDENTITY, rho), rho, atol=1e-15)

    def test_trace_preserved_on_random_pairs(self, rng):
        for _ in range(20):
            chan = random_channel(2, rng)
            rho = random_density(2, rng)
            assert np.trace(apply(chan, rho)).real == pytest.approx(1.0, abs=1e-10)

    def test_vec_convention_cross_check(self, rng):
        # apply() must agree with direct Choi-matrix contraction
        for _ in range(50):
            chan = random_channel(2, rng)
            rho = random_density(2, rng)
            choi4 = choi_from_superop(chan).reshape(2, 2, 2, 2)
            via_choi = np.einsum("stuv,su->tv", choi4, rho)
            np.testing.assert_allclose(apply(chan, rho), via_choi, atol=1e-10)

    def test_vec_unvec_round_trip(self, rng):
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_array_equal(unvec(vec(mat)), mat)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            apply(IDENTITY, random_density(4, rng))
