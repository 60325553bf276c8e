import re

import numpy as np
import pytest

from gatemem import simulator
from gatemem.channels import GateLabel, apply, compose
from gatemem.exceptions import DimensionError, LabelError, ValidationError
from gatemem.nonmarkov import (
    avg_trace_distance,
    conditional_map,
    cp_violation,
    markovian_choi_reference,
    process_tensor_proxy,
)
from gatemem.qcore import DensityMatrix, _half_trace_norm
from gatemem.simulator import (
    DEFAULT_COUPLING,
    SEModel,
    SpamSpec,
    build_default_model,
    circuit_distribution,
    cji_circuit,
    extract_channel,
    run_sequence,
    sample_counts,
)
from gatemem.tomography import build_frame

from conftest import (
    DEFAULT_COUPLING_GRID,
    enumerate_circuits,
    ideal_channel,
    is_cp,
    is_tp,
    random_density,
)

LABELS = [GateLabel(n, (0,)) for n in ("H", "S", "T", "X", "Y", "Z")]
H, S, T, X, Y, Z = LABELS


@pytest.fixture(scope="module")
def persistent_model():
    return build_default_model(LABELS, coupling=DEFAULT_COUPLING, reset_policy="persistent")


@pytest.fixture(scope="module")
def markovian_model():
    return build_default_model(LABELS, coupling=DEFAULT_COUPLING, reset_policy="reset_each_gate")


class TestModelValidation:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            SEModel(
                sys_qubits=1,
                env_dim=2,
                env_initial=np.eye(2) / 2,
                gate_unitaries={X: np.ones((4, 4), dtype=complex)},
                reset_policy="persistent",
            )

    def test_rejects_nan_unitary(self):
        with pytest.raises(ValidationError, match="not unitary"):
            SEModel(1, 2, np.eye(2) / 2, {X: np.full((4, 4), np.nan)}, "persistent")

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValidationError):
            SEModel(1, 2, np.eye(2) / 2, {}, "sometimes")

    def test_joint_unitaries_are_unitary(self, persistent_model):
        for label, u in persistent_model.gate_unitaries.items():
            np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("width", [0, -1, True, 1.0, "1", 3])
    def test_rejects_a_width_that_is_not_a_positive_integer(self, width):
        # the widths of the tomography frames, 1 and 2, are the only ones
        with pytest.raises(DimensionError, match="'sys_qubits', or else the widest gate's width,"
                                                 " must be 1 or 2"):
            build_default_model([X], sys_qubits=width)

    @pytest.mark.parametrize("seed", [-1, 1.7, True, "3"])
    def test_spam_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="'spam.seed' must be a non-negative integer"):
            SpamSpec(prep_strength=0.01, seed=seed)
        assert SpamSpec(seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 3)])
    def test_environment_state_must_match_the_environment(self, shape):
        env = np.zeros(shape)
        env[0, 0] = 1.0
        with pytest.raises(DimensionError, match="'env_initial' must be 2 x 2"):
            SEModel(1, 2, env, {}, "persistent")
        with pytest.raises(DimensionError, match="'env_initial'"):
            build_default_model([X], env_initial=env)

    def test_durations_name_gates_of_the_model(self):
        with pytest.raises(ValidationError, match="'durations.Q' names no gate of the model"):
            build_default_model([X], durations={"X": 1.0, "Q": 1.0})
        assert build_default_model([X], durations={"X": 1.5}).sys_qubits == 1

    @pytest.mark.parametrize("make, error, named", [
        (lambda: build_default_model([X], coupling=np.nan), ValidationError, "'coupling'"),
        (lambda: build_default_model([X], coupling="0.55"), ValidationError, "'coupling'"),
        (lambda: build_default_model([X], coupling=True), ValidationError, "'coupling'"),
        (lambda: build_default_model([X], coupling=10**400), ValidationError, "'coupling'"),
        (lambda: build_default_model([X], env_omega=np.inf), ValidationError, "'env_omega'"),
        (lambda: build_default_model([X], env_omega="0.7"), ValidationError, "'env_omega'"),
        (lambda: build_default_model([X], durations={"X": np.nan}), ValidationError,
         "'durations.X'"),
        (lambda: build_default_model([X], durations={"X": True}), ValidationError,
         "'durations.X'"),
        (lambda: build_default_model([X], sys_qubits=40), DimensionError, "'sys_qubits'"),
        (lambda: build_default_model([X], sys_qubits=3), DimensionError, "'sys_qubits'"),
        (lambda: build_default_model([GateLabel("X", (2,))]), DimensionError, "'sys_qubits'"),
        (lambda: build_default_model([GateLabel("CX", (0, 1))], sys_qubits=1), DimensionError,
         "CX@0.1 does not fit on 1 qubit"),
        (lambda: build_default_model([]), ValidationError, "'gates'"),
        (lambda: build_default_model(["X@-1"]), ValidationError, "X@-1"),
        (lambda: build_default_model([X], env_initial=np.full((2, 2), np.inf)), ValidationError,
         "'env_initial' must be finite"),
        (lambda: SpamSpec(prep_strength=np.nan), ValidationError, "'spam.prep'"),
        (lambda: SpamSpec(prep_strength="0.01"), ValidationError, "'spam.prep'"),
        (lambda: SpamSpec(meas_strength=True), ValidationError, "'spam.meas'"),
        (lambda: SpamSpec(meas_strength=np.inf), ValidationError, "'spam.meas'"),
        (lambda: SpamSpec(meas_strength=-0.01), ValidationError, "'spam.meas'"),
        (lambda: build_default_model([X], spam={"prep": 0.1}), ValidationError, "'spam'"),
        (lambda: build_default_model([X], env_initial="abc"), ValidationError, "'env_initial'"),
        (lambda: build_default_model([X], durations=[1]), ValidationError, "'durations'"),
    ], ids=["coupling-nan", "coupling-str", "coupling-bool", "coupling-huge-int", "omega-inf",
            "omega-str", "duration-nan", "duration-bool", "width-40", "width-3", "wide-gate",
            "gate-wider-than-width", "no-gates", "negative-wire", "env-inf", "prep-nan",
            "prep-str", "meas-bool", "meas-inf", "meas-negative", "spam-dict", "env-str",
            "durations-list"])
    def test_unusable_parameter_is_named_before_any_unitary_is_built(self, monkeypatch, make,
                                                                    error, named):
        def unbuilt(*args):
            raise AssertionError("a unitary was built")

        monkeypatch.setattr(simulator, "gate_unitary", unbuilt)
        monkeypatch.setattr(simulator, "_coupling_unitary", unbuilt)
        with pytest.raises(error, match=re.escape(named)):
            make()

    def test_width_defaults_to_the_widest_gate(self):
        assert build_default_model([X]).sys_qubits == 1
        assert build_default_model([GateLabel("CX", (1, 0))]).sys_qubits == 2
        assert build_default_model([X], sys_qubits=np.int64(2)).sys_qubits == 2

    def test_unknown_gate_raises(self, persistent_model):
        with pytest.raises(LabelError):
            run_sequence(persistent_model, [GateLabel("CX", (0, 1))], DensityMatrix(np.eye(2) / 2))


class TestRunSequence:
    def test_product_unitaries_match_ideal_composition(self, rng):
        model = build_default_model(LABELS, coupling=0.0, reset_policy="persistent")
        rho = random_density(2, rng)
        out = run_sequence(model, [X, Z], rho)
        expected = apply(compose(ideal_channel(Z), ideal_channel(X)), rho)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_reset_policy_factorizes(self, markovian_model, rng):
        phi_u = extract_channel(markovian_model, [X])
        phi_v = extract_channel(markovian_model, [Z])
        rho = random_density(2, rng)
        out = run_sequence(markovian_model, [X, Z], rho)
        expected = apply(compose(phi_v, phi_u), rho)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_persistent_policy_does_not_factorize(self, persistent_model, rng):
        phi_u = extract_channel(persistent_model, [X])
        phi_v = extract_channel(persistent_model, [Z])
        rho = random_density(2, rng)
        out = run_sequence(persistent_model, [X, Z], rho)
        expected = apply(compose(phi_v, phi_u), rho)
        assert _half_trace_norm(out.data - expected) > 1e-3

    def test_input_dimension_checked(self, persistent_model):
        with pytest.raises(DimensionError):
            run_sequence(persistent_model, [X], DensityMatrix(np.eye(4) / 4))


class TestExtractChannel:
    def test_empty_sequence_is_identity(self, persistent_model):
        chan = extract_channel(persistent_model, [])
        np.testing.assert_allclose(chan.superop, np.eye(4), atol=1e-12)

    def test_product_unitary_gives_ideal_channel(self):
        model = build_default_model(LABELS, coupling=0.0, reset_policy="reset_each_gate")
        for label in LABELS:
            np.testing.assert_allclose(
                extract_channel(model, [label]).superop,
                ideal_channel(label).superop,
                atol=1e-12,
            )

    def test_consistent_with_run_sequence(self, persistent_model, rng):
        chan = extract_channel(persistent_model, [X, H, Z])
        for _ in range(20):
            rho = random_density(2, rng)
            direct = run_sequence(persistent_model, [X, H, Z], rho)
            np.testing.assert_allclose(apply(chan, rho), direct.data, atol=1e-10)

    def test_extracted_channels_cptp(self, persistent_model):
        from gatemem.channels import choi_from_superop

        chan = extract_channel(persistent_model, [X, Z])
        choi = choi_from_superop(chan)
        assert is_cp(choi, 1e-12)
        assert is_tp(choi, 1e-12)


class TestSampleCounts:
    def test_exact_mode_matches_circuit_distribution(self, persistent_model):
        frame = build_frame(1)
        descriptors = enumerate_circuits([X], frame)
        for desc in descriptors[:4]:
            record = sample_counts(persistent_model, desc, None, rng=None)
            assert record.shots is None
            probs = circuit_distribution(persistent_model, desc)
            np.testing.assert_allclose(
                [record.counts["0"], record.counts["1"]], probs, atol=1e-12
            )

    def test_shot_concentration(self, persistent_model):
        frame = build_frame(1)
        desc = enumerate_circuits([X], frame)[0]
        probs = circuit_distribution(persistent_model, desc)
        shots = 100_000
        record = sample_counts(persistent_model, desc, shots, rng=7)
        for key, p in zip(("0", "1"), probs):
            assert abs(record.counts[key] / shots - p) <= 5 / np.sqrt(shots)

    def test_seeded_determinism(self, persistent_model):
        frame = build_frame(1)
        desc = enumerate_circuits([X], frame)[2]
        a = sample_counts(persistent_model, desc, 1024, rng=123)
        b = sample_counts(persistent_model, desc, 1024, rng=123)
        assert a.counts == b.counts
        assert a.seed == b.seed == 123

    def test_exact_mode_with_spam_off_is_bit_identical(self):
        base = build_default_model(LABELS, coupling=0.3, reset_policy="persistent")
        spammed = build_default_model(
            LABELS, coupling=0.3, reset_policy="persistent",
            spam=SpamSpec(prep_strength=0.0, meas_strength=0.0, seed=9),
        )
        frame = build_frame(1)
        for desc in enumerate_circuits([H], frame):
            a = circuit_distribution(base, desc)
            b = circuit_distribution(spammed, desc)
            np.testing.assert_array_equal(a, b)

    def test_spam_kicks_shift_distributions(self):
        spammed = build_default_model(
            LABELS, coupling=0.0, reset_policy="persistent",
            spam=SpamSpec(prep_strength=0.01, meas_strength=0.01, seed=9),
        )
        clean = build_default_model(LABELS, coupling=0.0, reset_policy="persistent")
        frame = build_frame(1)
        diffs = [
            np.max(np.abs(circuit_distribution(spammed, d) - circuit_distribution(clean, d)))
            for d in enumerate_circuits([H], frame)
        ]
        assert max(diffs) > 1e-4


class TestDetectability:
    def test_markovian_regime_passes_all_null_tests(self, markovian_model, rng):
        singles = {l: extract_channel(markovian_model, [l]) for l in LABELS}
        for u, v in [(X, Z), (H, S), (T, Y)]:
            joint = extract_channel(markovian_model, [u, v])
            cm = conditional_map(joint, singles[u])
            assert cp_violation(cm) <= 1e-8
            dist = avg_trace_distance(cm.channel, singles[v], 2_000, rng)
            assert dist.mean <= 1e-8

    def test_detectability_monotone_in_coupling(self):
        means = []
        for g in DEFAULT_COUPLING_GRID:
            model = build_default_model(LABELS, coupling=g, reset_policy="persistent")
            singles = {l: extract_channel(model, [l]) for l in LABELS}
            values = [
                cp_violation(conditional_map(extract_channel(model, [u, v]), singles[u]))
                for u in LABELS
                for v in LABELS
            ]
            means.append(np.mean(values))
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))


class TestCjiCircuit:
    def test_ideal_gates_give_two_entangled_pairs(self):
        model = build_default_model(LABELS, coupling=0.0, reset_policy="persistent")
        state = cji_circuit(model, S, T)
        # wires ordered (kept1, out1, kept2, out2): each pair is the
        # corresponding gate's trace-1 operator representation
        ref = markovian_choi_reference(ideal_channel(S), ideal_channel(T))
        np.testing.assert_allclose(state.data, ref, atol=1e-12)

    def test_markovian_noise_factorizes(self, markovian_model):
        state = cji_circuit(markovian_model, X, Z)
        ref = markovian_choi_reference(
            extract_channel(markovian_model, [X]), extract_channel(markovian_model, [Z])
        )
        assert process_tensor_proxy(state, ref) <= 1e-8

    def test_persistent_memory_scores_above_floor(self, persistent_model, markovian_model):
        measured = cji_circuit(persistent_model, X, Z)
        ref = markovian_choi_reference(
            extract_channel(persistent_model, [X]), extract_channel(persistent_model, [Z])
        )
        value = process_tensor_proxy(measured, ref)
        floor_state = cji_circuit(markovian_model, X, Z)
        floor_ref = markovian_choi_reference(
            extract_channel(markovian_model, [X]), extract_channel(markovian_model, [Z])
        )
        floor = process_tensor_proxy(floor_state, floor_ref)
        assert value > 10 * max(floor, 1e-8)
