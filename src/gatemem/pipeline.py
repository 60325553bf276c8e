"""End-to-end reconstruction flows shared by the CLI, the error
analysis, the process witness and the test suite: enumerate
configurations, sample (or evaluate exactly), estimate output states,
and invert to a channel."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .channels import QuantumChannel, _fitted_gates, apply
from .exceptions import IncompleteDataError, ValidationError
from .tomography import (
    CountRecord,
    TomographyFrame,
    TomographyResult,
    _count_record,
    _normalized,
    _rotated_probabilities,
    _spawn_seeds,
    build_frame,
    meas_rotation,
    mle_estimates,
    process_tomography,
)

# Not called here: perfbench/tracer.py wraps ``pipeline.mle_estimate`` and
# ``pipeline.sample_counts`` (served by ``__getattr__`` below), and
# tests/test_bench_sites.py checks that these import sites exist.
from .tomography import mle_estimate  # noqa: F401

if TYPE_CHECKING:
    from .simulator import SEModel

# :mod:`.simulator` loads inside the functions that use it, so
# reconstructing a channel from records does not import it.


def __getattr__(name: str):
    if name == "sample_counts":
        from .simulator import sample_counts

        return sample_counts
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sampled_records(
    frame: TomographyFrame, outputs, rotations, shots: int | None, seed: int | None
) -> list[CountRecord]:
    """The one record loop: a record for every (preparation, setting) of
    ``frame`` in preparation-major order, each with its own seed spawned
    from ``seed``.  ``outputs`` yields each preparation's output state in
    frame order, and ``rotations`` holds each setting's basis change.  An
    outcome probability below -1e-12, which no positive map gives, raises
    :class:`ValidationError` naming its configuration ``prep/meas``;
    roundoff above that is clipped."""
    seeds = iter(_spawn_seeds(seed, len(frame.prep_labels) * len(frame.meas_labels)))
    records = []
    for prep, out in zip(frame.prep_labels, outputs):
        for meas, rot in zip(frame.meas_labels, rotations):
            probs = _rotated_probabilities(out, rot)
            if probs.min() < -1e-12:
                raise ValidationError(
                    f"{prep}/{meas}: outcome probability {probs.min():.6g} is negative")
            records.append(_count_record(prep, meas, _normalized(probs), shots, next(seeds)))
    return records


def simulate_records(
    model: SEModel,
    gates,
    shots: int | None,
    seed: int | None = None,
    frame: TomographyFrame | None = None,
) -> list[CountRecord]:
    """Count records for every tomography configuration of one sequence.

    Two steps: the sequence runs once per preparation
    (``simulator.output_state``), each setting's rotation is built once
    (``simulator.setting_rotation``), and every record reads its
    probabilities off its preparation's output state.  The records are
    those of ``sample_counts`` on each (preparation, setting)
    configuration of the frame, bit for bit.  Sampling seeds are spawned
    per configuration from ``seed`` so runs are reproducible and records
    carry their own seeds.  ``frame`` is the model's own (the default);
    ``perfbench/workloads.py`` passes it.
    """
    from .simulator import output_state, setting_rotation

    frame = frame or build_frame(model.sys_qubits)
    gates = _fitted_gates(gates, frame.n_qubits)
    rotations = [setting_rotation(model, meas) for meas in frame.meas_labels]
    outputs = (output_state(model, gates, prep) for prep in frame.prep_labels)
    return _sampled_records(frame, outputs, rotations, shots, seed)


def records_from_channel(
    channel: QuantumChannel, shots: int | None, seed: int | None = None
) -> list[CountRecord]:
    """Count records an ideal experiment on ``channel`` would produce.

    Exact mode (``shots=None``) emits the channel's true outcome
    probabilities; otherwise each configuration is sampled
    multinomially with its own spawned seed.  A map that sends a
    preparation to a negative outcome probability raises
    :class:`ValidationError` in both modes.
    """
    frame = build_frame(channel.n_qubits)
    rotations = [meas_rotation(meas) for meas in frame.meas_labels]
    outputs = (apply(channel, state) for state in frame.prep_states)
    return _sampled_records(frame, outputs, rotations, shots, seed)


def reconstruct_channel(records, frame: TomographyFrame | None = None) -> TomographyResult:
    """Full reconstruction chain over a record set: check and group the
    records by configuration, run the likelihood estimator on all
    preparations at once, then invert the frame to a channel.  ``frame``
    is the records' own (the default); ``perfbench/workloads.py`` passes it."""
    records = list(records)
    if not (frame or records):
        raise IncompleteDataError("an empty record set names no frame", [])
    frame = frame or build_frame(records[0].n_qubits)
    estimates = mle_estimates(records, frame)
    states = {prep: est.state for prep, est in estimates.items()}
    logliks = {prep: est.loglik for prep, est in estimates.items()}
    iterations = {prep: est.iterations for prep, est in estimates.items()}
    channel = process_tomography(states, frame)
    return TomographyResult(channel=channel, loglik=logliks, iterations=iterations)
