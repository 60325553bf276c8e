import numpy as np
import pytest

from gatemem import simulator
from gatemem.channels import GateLabel, QuantumChannel, vec
from gatemem.exceptions import DimensionError, IncompleteDataError, ValidationError
from gatemem.pipeline import (
    reconstruct_channel,
    reconstruct_from_model,
    records_from_channel,
    simulate_records,
)
from gatemem.simulator import SpamSpec, build_default_model, extract_channel, sample_counts
from gatemem.tomography import CountRecord, _spawn_seeds, build_frame

from conftest import enumerate_circuits, ideal_channel, random_channel

LABELS = [GateLabel(n, (0,)) for n in ("H", "S", "T", "X", "Y", "Z")]


class TestRoundTrips:
    def test_exact_statistics_recover_random_channels(self, rng):
        frame = build_frame(1)
        for _ in range(10):
            truth = random_channel(2, rng)
            records = records_from_channel(truth, None)
            result = reconstruct_channel(records, frame)
            assert np.linalg.norm(result.channel.superop - truth.superop) <= 1e-8

    def test_finite_shots_stay_close(self, rng):
        frame = build_frame(1)
        truth = random_channel(2, rng)
        records = records_from_channel(truth, 100_000, seed=8)
        result = reconstruct_channel(records, frame)
        assert np.linalg.norm(result.channel.superop - truth.superop) <= 3e-2

    def test_channel_width_comes_from_its_dim(self):
        with pytest.raises(DimensionError, match="'dim' must be a power of two, got 3"):
            records_from_channel(QuantumChannel(np.eye(9)), None)

    @pytest.mark.parametrize("shots", [None, 1000])
    def test_a_negative_outcome_probability_is_refused(self, shots):
        # a Bloch x stretch by 1.25 sends X+ to p(1) = -0.125 under the X setting
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1.0, -1.0])]
        stretch = QuantumChannel(sum(scale * np.outer(vec(p), vec(p).conj())
                                     for scale, p in zip((1.0, 1.25, 1.0, 1.0), paulis)) / 2)
        with pytest.raises(ValidationError,
                           match=r"^X\+/X: outcome probability -0\.125 is negative$"):
            records_from_channel(stretch, shots, seed=3)

    def test_simulator_exact_reconstruction(self):
        model = build_default_model(LABELS, coupling=0.4, reset_policy="persistent")
        truth = extract_channel(model, [LABELS[3], LABELS[5]])
        result = reconstruct_from_model(model, [LABELS[3], LABELS[5]], shots=None)
        assert np.linalg.norm(result.channel.superop - truth.superop) <= 1e-8

    def test_reconstructed_channels_nearly_tp_but_not_clamped(self, rng):
        frame = build_frame(1)
        truth = random_channel(2, rng)
        records = records_from_channel(truth, 2_000, seed=5)
        chan = reconstruct_channel(records, frame).channel
        ident = np.eye(2, dtype=complex).reshape(-1, order="F")
        marginal_error = np.max(np.abs(chan.superop.conj().T @ ident - ident))
        assert marginal_error <= 0.1  # near TP at this shot count
        # no CP projection: the raw linear inversion is returned


class TestSeeding:
    def test_simulate_records_deterministic(self):
        model = build_default_model(LABELS, coupling=0.4, reset_policy="persistent")
        a = simulate_records(model, [LABELS[3]], 512, seed=3)
        b = simulate_records(model, [LABELS[3]], 512, seed=3)
        assert [r.counts for r in a] == [r.counts for r in b]

    def test_records_carry_seeds(self):
        model = build_default_model(LABELS, coupling=0.4, reset_policy="persistent")
        records = simulate_records(model, [LABELS[3]], 512, seed=3)
        assert all(r.seed is not None for r in records)


CX = GateLabel("CX", (1, 0))
SPAM = SpamSpec(prep_strength=0.01, meas_strength=0.02, seed=4)


def _models():
    """(name, model, gate sequence) over one and two qubits, both reset
    policies, and zero and nonzero preparation/measurement kicks."""
    cases = []
    for policy in ("persistent", "reset_each_gate"):
        for spam in (SpamSpec(), SPAM):
            tag = f"{policy}-{'spam' if spam.prep_strength else 'clean'}"
            one = build_default_model(LABELS, reset_policy=policy, spam=spam)
            two = build_default_model([CX, GateLabel("X", (1,))], reset_policy=policy, spam=spam)
            cases.append((f"1q-{tag}", one, (LABELS[3], LABELS[0])))
            cases.append((f"2q-{tag}", two, (GateLabel("X", (1,)), CX)))
    return cases


MODELS = _models()


class TestTwoStepSimulation:
    """``simulate_records`` runs each preparation once and reads every
    setting off its output state; it must equal the one-configuration
    path record for record."""

    @pytest.mark.parametrize("shots", [None, 1000], ids=["exact", "finite"])
    @pytest.mark.parametrize("name, model, gates", MODELS, ids=[m[0] for m in MODELS])
    def test_equals_per_configuration_sampling(self, name, model, gates, shots):
        frame = build_frame(model.sys_qubits)
        descriptors = enumerate_circuits(gates, frame)
        seeds = _spawn_seeds(11, len(descriptors))
        expected = [sample_counts(model, d, shots, s) for d, s in zip(descriptors, seeds)]
        records = simulate_records(model, gates, shots, seed=11, frame=frame)
        assert len(records) == len(expected) == 4**model.sys_qubits * 3**model.sys_qubits
        for got, want in zip(records, expected):
            assert (got.prep_label, got.meas_label) == (want.prep_label, want.meas_label)
            assert (got.shots, got.seed) == (want.shots, want.seed)
            assert list(got.counts) == list(want.counts)
            # exact-mode probabilities bit for bit, finite counts exactly
            assert [float(v).hex() for v in got.counts.values()] == [
                float(v).hex() for v in want.counts.values()]

    def test_one_sequence_run_per_preparation(self, monkeypatch):
        calls = []
        original = simulator._run_sequence_raw

        def counting(model, gates, system_mat):
            calls.append(tuple(gates))
            return original(model, gates, system_mat)

        monkeypatch.setattr(simulator, "_run_sequence_raw", counting)
        model = build_default_model([CX], spam=SPAM)
        records = simulate_records(model, [CX], 1000, seed=3)
        assert len(records) == 144
        assert calls == [(CX,)] * 16

    def test_frame_must_match_the_model(self):
        model = build_default_model(LABELS)
        with pytest.raises(DimensionError):
            simulate_records(model, [LABELS[3]], None, frame=build_frame(2))
        with pytest.raises(DimensionError):
            simulate_records(build_default_model([CX]), [GateLabel("X", (2,))], None)


def _x_records():
    """1,000-shot records of the ideal X gate, in frame order: record 4
    is configuration ``Z-/Y``."""
    return records_from_channel(ideal_channel(LABELS[3]), 1000, seed=11)


def _exact(record):
    return CountRecord(record.prep_label, record.meas_label,
                       dict(zip(("0", "1"), record.frequencies())), None)


# (rows, error, message) of record sets the reconstruction must refuse,
# whether they come from a file or not
MALFORMED_RECORD_SETS = {
    "out-of-frame": (lambda rs: rs + [CountRecord("X-", "Z", {"0": 500, "1": 500}, 1000)],
                     ValidationError, "record 12: prep 'X-' or meas 'Z' is not in the 1-qubit"),
    "mixed-mode": (lambda rs: [rs[0]] + [_exact(r) for r in rs[1:3]] + rs[3:],
                   ValidationError, "mixes exact-mode records"),
    "duplicate": (lambda rs: rs + [rs[4]], ValidationError, "repeats configurations ['Z-/Y']"),
    "missing": (lambda rs: rs[:4] + rs[5:], IncompleteDataError,
                "missing configurations ['Z-/Y']"),
    "empty": (lambda rs: [], IncompleteDataError, "empty record set"),
}


@pytest.mark.parametrize("edit, error, message", MALFORMED_RECORD_SETS.values(),
                         ids=list(MALFORMED_RECORD_SETS))
def test_malformed_record_set_is_refused_in_process(edit, error, message):
    with pytest.raises(error) as excinfo:
        reconstruct_channel(edit(_x_records()))
    assert message in str(excinfo.value)
