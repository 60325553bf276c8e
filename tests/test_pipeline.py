import numpy as np

from gatemem.channels import GateLabel, random_channel
from gatemem.pipeline import (
    reconstruct_channel,
    reconstruct_from_model,
    records_from_channel,
    simulate_records,
)
from gatemem.simulator import build_default_model, extract_channel
from gatemem.tomography import build_frame

LABELS = [GateLabel(n, (0,)) for n in ("H", "S", "T", "X", "Y", "Z")]


class TestRoundTrips:
    def test_exact_statistics_recover_random_channels(self, rng):
        frame = build_frame(1)
        for _ in range(10):
            truth = random_channel(2, rng)
            records = records_from_channel(truth, None, frame=frame)
            result = reconstruct_channel(records, frame)
            assert np.linalg.norm(result.channel.superop - truth.superop) <= 1e-8

    def test_finite_shots_stay_close(self, rng):
        frame = build_frame(1)
        truth = random_channel(2, rng)
        records = records_from_channel(truth, 100_000, seed=8, frame=frame)
        result = reconstruct_channel(records, frame)
        assert np.linalg.norm(result.channel.superop - truth.superop) <= 3e-2

    def test_simulator_exact_reconstruction(self):
        model = build_default_model(LABELS, coupling=0.4, reset_policy="persistent")
        truth = extract_channel(model, [LABELS[3], LABELS[5]])
        result = reconstruct_from_model(model, [LABELS[3], LABELS[5]], shots=None)
        assert np.linalg.norm(result.channel.superop - truth.superop) <= 1e-8

    def test_reconstructed_channels_nearly_tp_but_not_clamped(self, rng):
        frame = build_frame(1)
        truth = random_channel(2, rng)
        records = records_from_channel(truth, 2_000, seed=5, frame=frame)
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

