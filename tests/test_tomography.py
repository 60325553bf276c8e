import numpy as np
import pytest

from gatemem.channels import GateLabel, apply
from gatemem.exceptions import (
    DimensionError,
    IncompleteDataError,
    LabelError,
    ValidationError,
)
from gatemem.qcore import _half_trace_norm
from gatemem.tomography import (
    CountRecord,
    _rotated_probabilities,
    build_frame,
    meas_rotation,
    mle_estimate,
    prep_unitary,
    process_tomography,
)

from conftest import enumerate_circuits, ideal_channel, random_channel, random_density

PAULIS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

ZERO = np.diag([1.0, 0.0]).astype(complex)


class TestFrame:
    def test_single_qubit_counts(self):
        frame = build_frame(1)
        assert len(frame.prep_labels) == 4
        assert len(frame.meas_labels) == 3
        assert len(frame.prep_labels) * len(frame.meas_labels) == 12

    def test_two_qubit_counts(self):
        frame = build_frame(2)
        assert len(frame.prep_labels) == 16
        assert len(frame.meas_labels) == 9
        assert len(frame.prep_labels) * len(frame.meas_labels) == 144

    def test_unsupported_size(self):
        with pytest.raises(DimensionError):
            build_frame(3)

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_dual_frame_identities(self, n_qubits):
        # direct Gram evaluation: tr(D_i+ rho_j) must be the identity matrix
        frame = build_frame(n_qubits)
        gram = np.array(
            [
                [np.trace(d.conj().T @ p) for p in frame.prep_states]
                for d in frame.duals
            ]
        )
        np.testing.assert_allclose(gram, np.eye(4**n_qubits), atol=1e-12)


class TestRotatedProbabilities:
    def test_plus_state_in_x_basis(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        np.testing.assert_allclose(_rotated_probabilities(plus, meas_rotation("X")), [1, 0],
                                   atol=1e-12)

    def test_ground_state_in_x_basis(self):
        np.testing.assert_allclose(_rotated_probabilities(ZERO, meas_rotation("X")), [0.5, 0.5],
                                   atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            meas_rotation("Q")

    def test_probabilities_sum_to_one(self, rng):
        rho = random_density(4, rng)
        for label in build_frame(2).meas_labels:
            probs = _rotated_probabilities(rho, meas_rotation(label))
            assert probs.min() >= 0.0
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_qubit_expectations_match_operator_oracle(self, rng):
        # oracle: <P (x) Q> from direct operator expectation values
        rho = random_density(4, rng)
        for la in "XYZ":
            for lb in "XYZ":
                probs = _rotated_probabilities(rho, meas_rotation(f"{la}*{lb}"))
                # parity-weighted sums of outcome probabilities give the
                # expectation of the Pauli product
                signs = np.array([1, -1, -1, 1])
                expect = float(probs @ signs)
                oracle = np.trace(np.kron(PAULIS[la], PAULIS[lb]) @ rho).real
                assert expect == pytest.approx(oracle, abs=1e-12)


class TestMleEstimate:
    def test_noiseless_fixed_point(self):
        frame = build_frame(1)
        records = [
            CountRecord("Z+", m, dict(zip(("0", "1"),
                                          _rotated_probabilities(ZERO, meas_rotation(m)))), None)
            for m in frame.meas_labels
        ]
        est = mle_estimate(records, frame).state
        assert _half_trace_norm(est.data - ZERO) <= 1e-8

    def test_missing_setting_raises(self):
        frame = build_frame(1)
        records = [CountRecord("Z+", "Z", {"0": 1.0, "1": 0.0}, None)]
        with pytest.raises(IncompleteDataError) as excinfo:
            mle_estimate(records, frame)
        assert "X" in excinfo.value.missing and "Y" in excinfo.value.missing

    @pytest.mark.parametrize("count", [float("inf"), float("nan"), -1, 0.5])
    def test_count_must_be_a_nonnegative_integer(self, count):
        with pytest.raises(ValidationError, match="nonnegative integers"):
            CountRecord("Z+", "Z", {"0": count, "1": 10}, 10)

    def test_exact_probability_below_rounding_is_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            CountRecord("Z+", "Z", {"0": 1.5, "1": -0.5}, None)
        CountRecord("Z+", "Z", {"0": 1.0 + 1e-10, "1": -1e-10}, None)  # rounding passes

    def test_hundred_thousand_shots_close_to_truth(self, rng):
        frame = build_frame(1)
        truth = random_density(2, rng)
        records = []
        for m in frame.meas_labels:
            probs = _rotated_probabilities(truth, meas_rotation(m))
            counts = rng.multinomial(100_000, probs)
            records.append(CountRecord("Z+", m, {"0": int(counts[0]), "1": int(counts[1])}, 100_000))
        est = mle_estimate(records, frame).state
        assert _half_trace_norm(est.data - truth) <= 1e-2

    def test_nonphysical_expectations_projected_to_physical(self):
        # counts implying <X> = <Y> = <Z> = 0.9: the least-squares state
        # has a negative eigenvalue, the estimate must not
        frame = build_frame(1)
        shots = 10_000
        plus_counts = int(round(shots * 0.95))
        records = [
            CountRecord(
                "Z+", m, {"0": plus_counts, "1": shots - plus_counts}, shots
            )
            for m in frame.meas_labels
        ]
        bloch = np.array([0.9, 0.9, 0.9])
        linear_inversion = 0.5 * (
            np.eye(2) + sum(b * PAULIS[p] for b, p in zip(bloch, "XYZ"))
        )
        assert np.linalg.eigvalsh(linear_inversion)[0] < -1e-3  # oracle: not physical
        est = mle_estimate(records, frame).state
        assert np.linalg.eigvalsh(est.data)[0] >= -1e-10

    def test_record_order_invariance(self, rng):
        frame = build_frame(1)
        truth = random_density(2, rng)
        records = []
        for m in frame.meas_labels:
            counts = rng.multinomial(2048, _rotated_probabilities(truth, meas_rotation(m)))
            records.append(CountRecord("Z+", m, {"0": int(counts[0]), "1": int(counts[1])}, 2048))
        a = mle_estimate(records, frame).state
        b = mle_estimate(records[::-1], frame).state
        assert _half_trace_norm(a.data - b.data) <= 1e-8

    def test_loglik_and_iterations_reported(self):
        frame = build_frame(1)
        records = [
            CountRecord("Z+", m, {"0": 512, "1": 512}, 1024) for m in frame.meas_labels
        ]
        est = mle_estimate(records, frame)
        assert est.loglik <= 0.0
        assert est.iterations >= 1


class TestProcessTomography:
    def test_identity_process(self):
        frame = build_frame(1)
        results = dict(zip(frame.prep_labels, frame.prep_states))
        chan = process_tomography(results, frame)
        np.testing.assert_allclose(chan.superop, np.eye(4), atol=1e-12)

    def test_ideal_x_process(self):
        frame = build_frame(1)
        x = ideal_channel(GateLabel("X", (0,)))
        results = {p: apply(x, s) for p, s in zip(frame.prep_labels, frame.prep_states)}
        chan = process_tomography(results, frame)
        np.testing.assert_allclose(chan.superop, x.superop, atol=1e-12)

    def test_exact_round_trip_on_random_channels(self, rng):
        frame = build_frame(1)
        for _ in range(10):
            truth = random_channel(2, rng)
            results = {p: apply(truth, s) for p, s in zip(frame.prep_labels, frame.prep_states)}
            chan = process_tomography(results, frame)
            assert np.linalg.norm(chan.superop - truth.superop) <= 1e-10

    def test_missing_preparation(self):
        frame = build_frame(1)
        results = dict(zip(frame.prep_labels[:-1], frame.prep_states))
        with pytest.raises(IncompleteDataError):
            process_tomography(results, frame)


class TestEnumerateCircuits:
    def test_single_qubit_count(self):
        frame = build_frame(1)
        descriptors = enumerate_circuits([GateLabel("H", (0,))], frame)
        assert len(descriptors) == 12

    def test_two_qubit_count(self):
        frame = build_frame(2)
        descriptors = enumerate_circuits([GateLabel("CX", (0, 1))], frame)
        assert len(descriptors) == 144

    def test_preparation_realized_by_gates(self):
        # |1> preparation is a bit-flip on the ground state
        frame = build_frame(1)
        descriptors = enumerate_circuits([GateLabel("H", (0,))], frame)
        assert {d.prep_label for d in descriptors} >= {"Z-"}
        np.testing.assert_array_equal(prep_unitary("Z-"), PAULIS["X"])

    def test_x_measurement_realized_by_hadamard(self):
        frame = build_frame(1)
        descriptors = enumerate_circuits([GateLabel("H", (0,))], frame)
        assert {d.meas_label for d in descriptors} >= {"X"}
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(meas_rotation("X"), hadamard, atol=1e-15)

    @pytest.mark.parametrize("build, label", [(prep_unitary, "X+*Z-"), (meas_rotation, "Y*X")])
    def test_label_operators_are_memoized_read_only(self, build, label):
        op = build(label)
        assert build(label) is op
        with pytest.raises(ValueError):
            op[0, 0] = 0.0

    def test_sequence_must_fit_frame(self):
        frame = build_frame(1)
        with pytest.raises(DimensionError):
            enumerate_circuits([GateLabel("CX", (0, 1))], frame)


class TestStatisticalScaling:
    def test_state_error_scales_as_inverse_sqrt_shots(self):
        # reconstruction error should follow the 1/sqrt(N) shot-noise law
        rng = np.random.default_rng(77)
        frame = build_frame(1)
        truth = random_density(2, np.random.default_rng(5))
        shot_grid = [100, 1_000, 10_000, 100_000]
        mean_errors = []
        for shots in shot_grid:
            errors = []
            for _ in range(30):
                records = []
                for m in frame.meas_labels:
                    probs = _rotated_probabilities(truth, meas_rotation(m))
                    counts = rng.multinomial(shots, probs)
                    records.append(
                        CountRecord("Z+", m, {"0": int(counts[0]), "1": int(counts[1])}, shots)
                    )
                errors.append(_half_trace_norm(mle_estimate(records, frame).state.data - truth))
            mean_errors.append(np.mean(errors))
        slope = np.polyfit(np.log10(shot_grid), np.log10(mean_errors), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)
