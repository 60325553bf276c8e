import re

import numpy as np
import pytest

from gatemem import pipeline
from gatemem.channels import GateLabel, apply
from gatemem.errprop import propagate_statistics, spam_scaling
from gatemem.exceptions import ConvergenceError, ValidationError
from gatemem.pipeline import reconstruct_channel, records_from_channel, simulate_records
from gatemem.qcore import _half_trace_norm
from gatemem.simulator import build_default_model
from gatemem.tomography import build_frame, mle_estimate

from conftest import random_channel

LABELS = [GateLabel(n, (0,)) for n in ("H", "S", "T", "X", "Y", "Z")]


def state_pipeline(frame, truth):
    """Trace distance of the estimated state for one preparation."""

    def run(records):
        prep = records[0].prep_label
        subset = [r for r in records if r.prep_label == prep]
        return float(_half_trace_norm(mle_estimate(subset, frame).state.data - truth))

    return run


class TestPropagateStatistics:
    def test_exact_records_have_zero_std(self, rng):
        frame = build_frame(1)
        chan = random_channel(2, rng)
        records = [r for r in records_from_channel(chan, None) if r.prep_label == "Z+"]
        from gatemem.channels import apply

        truth = apply(chan, frame.prep_states[frame.prep_labels.index("Z+")])
        report = propagate_statistics(records, state_pipeline(frame, truth), 10, rng)
        assert report.std == 0.0
        assert report.shots is None

    def test_needs_two_trials(self, rng):
        chan = random_channel(2, rng)
        records = records_from_channel(chan, None)
        with pytest.raises(ValidationError):
            propagate_statistics(records, lambda r: 0.0, 1, rng)

    def test_matches_direct_resampling_oracle_within_factor_two(self, rng):
        # oracle: regenerate fresh multinomial counts from the truth and
        # rerun the identical pipeline
        frame = build_frame(1)
        chan = random_channel(2, np.random.default_rng(21))
        from gatemem.channels import apply

        truth = apply(chan, frame.prep_states[frame.prep_labels.index("Z+")])
        shots, trials = 1024, 120
        records = [
            r
            for r in records_from_channel(chan, shots, seed=3)
            if r.prep_label == "Z+"
        ]
        pipeline = state_pipeline(frame, truth)
        report = propagate_statistics(records, pipeline, trials, rng)

        oracle_values = []
        for k in range(trials):
            fresh = [
                r
                for r in records_from_channel(chan, shots, seed=1000 + k)
                if r.prep_label == "Z+"
            ]
            oracle_values.append(pipeline(fresh))
        oracle_std = np.std(oracle_values, ddof=1)
        assert report.std <= 2 * oracle_std
        assert report.std >= oracle_std / 2

    def test_std_scales_as_inverse_sqrt_shots(self, rng):
        frame = build_frame(1)
        chan = random_channel(2, np.random.default_rng(4))
        from gatemem.channels import apply

        truth = apply(chan, frame.prep_states[frame.prep_labels.index("Z+")])
        pipeline = state_pipeline(frame, truth)
        stds = []
        shot_grid = [100, 1_000, 10_000]
        for shots in shot_grid:
            records = [
                r
                for r in records_from_channel(chan, shots, seed=6)
                if r.prep_label == "Z+"
            ]
            stds.append(propagate_statistics(records, pipeline, 120, rng).std)
        slope = np.polyfit(np.log10(shot_grid), np.log10(stds), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_trial_records_are_count_draws_at_the_data_shots(self, rng):
        # each trial is a multinomial redraw, not exact-mode pseudo-data,
        # so the estimator weighs and stops it as it does the data
        chan = random_channel(2, np.random.default_rng(21))
        records = records_from_channel(chan, 1024, seed=3)
        seen = []

        def spy(trial_records):
            seen.append(trial_records)
            return 0.0 if len(seen) == 1 else float(len(seen))

        propagate_statistics(records, spy, 3, rng)
        for trial in seen[1:]:
            assert [(r.prep_label, r.meas_label) for r in trial] == [
                (r.prep_label, r.meas_label) for r in records
            ]
            for r in trial:
                assert r.shots == 1024
                assert all(isinstance(c, int) for c in r.counts.values())
                assert sum(r.counts.values()) == 1024

    def test_failed_trials_are_excluded_and_counted(self, rng):
        # the closure raises a package error on the chosen trials (call 0
        # is the point estimate); fewer than two survivors leave no spread
        records = records_from_channel(random_channel(2, np.random.default_rng(21)), 1024,
                                       seed=3)

        def failing_on(trials):
            calls = []

            def run(trial_records):
                calls.append(trial_records)
                if len(calls) - 1 in trials:
                    raise ConvergenceError("trial did not converge", None, 0)
                return float(len(calls))

            return run

        report = propagate_statistics(records, failing_on({2, 4}), 5, rng)
        assert report.failed_trials == 2
        assert report.values == (2.0, 4.0, 6.0)
        assert report.std == pytest.approx(2.0)
        with pytest.raises(ValidationError, match="only 1 trials survived"):
            propagate_statistics(records, failing_on({1, 2, 3, 4}), 5, rng)

    @pytest.mark.parametrize("other_shots, message", [
        (2048, "record set mixes shot counts [1024, 2048]"),
        (None, "record set mixes exact-mode records (shots null) with sampled ones"),
    ])
    def test_mixed_record_set_is_refused_before_the_closure_runs(self, rng, other_shots,
                                                                 message):
        chan = random_channel(2, np.random.default_rng(21))
        records = records_from_channel(chan, 1024, seed=3)
        records[-1] = records_from_channel(chan, other_shots, seed=3)[-1]
        calls = []
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            propagate_statistics(records, lambda r: calls.append(r) or 0.0, 3, rng)
        assert calls == []

    def test_spread_matches_direct_resampling_oracle_within_forty_percent(self):
        # the setup of acceptance criterion 09, held to a tighter band
        frame = build_frame(1)
        chan = random_channel(2, np.random.default_rng(41))
        truth = apply(chan, frame.prep_states[frame.prep_labels.index("Z+")])
        pipeline = state_pipeline(frame, truth)
        shots, trials = 1024, 200

        def z_plus(seed):
            return [
                r for r in records_from_channel(chan, shots, seed=seed)
                if r.prep_label == "Z+"
            ]

        report = propagate_statistics(z_plus(77), pipeline, trials, np.random.default_rng(13))
        oracle_std = np.std([pipeline(z_plus(5000 + k)) for k in range(trials)], ddof=1)
        assert 1 / 1.4 <= report.std / oracle_std <= 1.4

    def test_two_qubit_trials_converge(self):
        # finite-shot trials stop at the data's statistical resolution
        # instead of running into the estimator's iteration cap
        model = build_default_model(
            ["H@1", "S@1", "T@1", "X@1", "Y@1", "Z@1", "CX@1.0"],
            coupling=0.55, reset_policy="persistent",
        )
        frame = build_frame(2)
        records = simulate_records(model, [GateLabel("CX", (1, 0))], 100_000, seed=7, frame=frame)
        point = reconstruct_channel(records, frame).channel.superop

        def metric(trial_records):
            result = reconstruct_channel(trial_records, frame)
            return float(np.linalg.norm(result.channel.superop - point))

        report = propagate_statistics(records, metric, 3, np.random.default_rng(7))
        assert report.failed_trials == 0
        assert report.std > 0.0


class TestSpamScaling:
    def test_zero_strength_reconstructs_exactly(self):
        model = build_default_model(LABELS, coupling=0.3, reset_policy="persistent")
        result = spam_scaling(model, GateLabel("X", (0,)), [0.0, 1e-3, 1e-2])
        assert result.errors[0] <= 1e-8

    def test_first_order_scaling(self):
        model = build_default_model(LABELS, coupling=0.3, reset_policy="persistent")
        grid = [0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
        result = spam_scaling(model, GateLabel("X", (0,)), grid)
        assert result.slope == pytest.approx(1.0, abs=0.15)
        assert result.r_squared >= 0.99

    def test_doubling_smallest_strength_doubles_error(self):
        model = build_default_model(LABELS, coupling=0.3, reset_policy="persistent")
        result = spam_scaling(model, GateLabel("H", (0,)), [0.0, 1e-4, 2e-4])
        ratio = result.errors[2] / result.errors[1]
        assert 1.8 <= ratio <= 2.2

    def test_grid_must_include_zero(self):
        model = build_default_model(LABELS, coupling=0.3, reset_policy="persistent")
        with pytest.raises(ValidationError):
            spam_scaling(model, GateLabel("X", (0,)), [1e-3, 1e-2])

    def test_grid_must_stay_small(self):
        model = build_default_model(LABELS, coupling=0.3, reset_policy="persistent")
        with pytest.raises(ValidationError):
            spam_scaling(model, GateLabel("X", (0,)), [0.0, 0.2])

    @pytest.mark.parametrize("grid", [[0.0, 1e-20, 1e-19], [0.0, 1e-30, 1e-25, 1e-20]])
    def test_errors_at_the_roundoff_floor_get_no_fit(self, grid):
        # the kicks vanish against 1.0, so every error is the same roundoff
        model = build_default_model(LABELS, coupling=0.3, reset_policy="persistent")
        with pytest.raises(ValidationError, match="no log-log fit"):
            spam_scaling(model, GateLabel("X", (0,)), grid)

    def test_a_failing_strength_is_named_and_keeps_its_type(self, monkeypatch):
        model = build_default_model(LABELS, coupling=0.3, reset_policy="persistent")
        reconstruct = pipeline.reconstruct_from_model

        def failing_at_1e_3(noisy, gates, shots):
            if noisy.spam.prep_strength == 1e-3:
                raise ConvergenceError("MLE did not converge in 7 iterations", None, 7)
            return reconstruct(noisy, gates, shots)

        monkeypatch.setattr(pipeline, "reconstruct_from_model", failing_at_1e_3)
        with pytest.raises(ConvergenceError) as err:
            spam_scaling(model, GateLabel("X", (0,)), [0.0, 1e-4, 1e-3, 1e-2])
        assert str(err.value) == "strength 0.001: MLE did not converge in 7 iterations"
        assert err.value.iterations == 7
