"""Error propagation: Monte-Carlo statistical uncertainty through the
reconstruction pipeline, and scaling of preparation/measurement
imperfections.

Shot statistics enter as a parametric bootstrap: each trial redraws
every finite-shot record's counts with ``tomography._count_record``,
the multinomial sampler that also simulates data, at the record's own
shot count and from its observed frequencies.  Trial records keep
``shots``, so the likelihood estimator weighs and stops them as it does
the data.  A direct count-resampling oracle lives in the test suite to
bound the bias of the whole procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import pipeline
from .channels import GateLabel
from .exceptions import GatememError, ValidationError
from .tomography import TomographyFrame, _count_record

if TYPE_CHECKING:
    from .simulator import SEModel


@dataclass(frozen=True)
class UncertaintyReport:
    """Spread of a pipeline metric, named ``metric``, under resampled
    statistics."""

    metric: str
    point_estimate: float
    std: float
    trials: int
    shots: int | None
    values: tuple[float, ...]
    failed_trials: int = 0

    def __post_init__(self):
        if self.trials < 2:
            raise ValidationError("uncertainty estimate needs at least two trials")
        if self.std < 0:
            raise ValidationError("standard deviation must be nonnegative")


@dataclass(frozen=True)
class SpamDecomposition:
    """Reconstruction error against preparation/measurement strength.

    ``errors[i]`` is the Frobenius distance between the true channel
    and the one tomography recovers at strength ``strengths[i]``; the
    log-log fit over the nonzero strengths exposes the leading order.
    """

    strengths: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float


def propagate_statistics(
    records,
    pipeline,
    trials: int,
    rng: np.random.Generator,
    metric_name: str = "metric",
) -> UncertaintyReport:
    """Push resampled statistics through an analysis closure.

    ``pipeline`` maps a list of records to a real number.  Each trial
    redraws every finite-shot record's counts from its observed
    frequencies at its own shot count, reruns the closure, and
    contributes one value; trials whose reconstruction fails are
    excluded and counted.  Exact-mode records carry no statistical
    noise: they pass through unchanged, and when every record is exact
    the reported spread is zero.
    """
    if trials < 2:
        raise ValidationError("need at least two trials")
    records = list(records)
    point = float(pipeline(records))
    shots = records[0].shots if records else None

    if all(r.shots is None for r in records):
        return UncertaintyReport(
            metric=metric_name,
            point_estimate=point,
            std=0.0,
            trials=trials,
            shots=None,
            values=(point,) * trials,
        )

    values = []
    failed = 0
    for _ in range(trials):
        try:
            resampled = [
                r if r.shots is None
                else _count_record(r.prep_label, r.meas_label, r.frequencies(), r.shots, rng)
                for r in records
            ]
            values.append(float(pipeline(resampled)))
        except GatememError:
            failed += 1
    if len(values) < 2:
        raise ValidationError(f"only {len(values)} trials survived, cannot report a spread")
    arr = np.asarray(values)
    return UncertaintyReport(
        metric=metric_name,
        point_estimate=point,
        std=float(arr.std(ddof=1)),
        trials=trials,
        shots=shots,
        values=tuple(values),
        failed_trials=failed,
    )


def reconstruction_uncertainty(
    records, frame: TomographyFrame, trials: int, rng: np.random.Generator
) -> UncertaintyReport:
    """Statistical spread of a reconstructed channel: the Frobenius
    distance of each trial's reconstruction to the point estimate's,
    through :func:`propagate_statistics`."""
    point = pipeline.reconstruct_channel(records, frame).channel.superop

    def metric(trial_records) -> float:
        trial = pipeline.reconstruct_channel(trial_records, frame).channel.superop
        return float(np.linalg.norm(trial - point))

    return propagate_statistics(
        records, metric, trials, rng, metric_name="frobenius-to-point-estimate"
    )


def spam_scaling(model: SEModel, gate: GateLabel, strengths) -> SpamDecomposition:
    """Reconstruction error of one gate's channel versus SPAM strength.

    Runs exact-statistics tomography at each strength (preparation and
    measurement set equal) and compares against the model's true
    channel; to first order the error is linear in the strength, so the
    fitted log-log slope should sit near one.  Errors that are zero, or
    all equal, carry no slope (below roundoff they are the
    floating-point floor), and are rejected rather than fitted.
    """
    from .simulator import SpamSpec, extract_channel

    strengths = sorted(float(s) for s in strengths)
    if not np.all(np.isfinite(strengths)):
        raise ValidationError(f"strengths must be finite, got {strengths}")
    if 0.0 not in strengths:
        raise ValidationError("strength grid must include 0")
    if len({s for s in strengths if s > 0}) < 2:
        raise ValidationError("the log-log fit needs at least two distinct positive strengths")
    if strengths[-1] > 0.05:
        raise ValidationError("strengths beyond 0.05 leave the small-kick regime")
    truth = extract_channel(model, [gate])
    errors = []
    for eps in strengths:
        spec = SpamSpec(prep_strength=eps, meas_strength=eps, seed=model.spam.seed)
        noisy = replace(model, spam=spec)
        result = pipeline.reconstruct_from_model(noisy, [gate], shots=None)
        errors.append(float(np.linalg.norm(result.channel.superop - truth.superop)))

    positive = [e for s, e in zip(strengths, errors) if s > 0]
    log_err = np.log10(positive) if min(positive) > 0 else None
    if log_err is None or np.ptp(log_err) == 0:
        raise ValidationError(
            f"the errors at positive strengths, {positive}, are zero or all equal, "
            "so they admit no log-log fit"
        )
    log_eps = np.log10([s for s in strengths if s > 0])
    slope, intercept = np.polyfit(log_eps, log_err, 1)
    fitted = slope * log_eps + intercept
    ss_res = float(np.sum((log_err - fitted) ** 2))
    ss_tot = float(np.sum((log_err - log_err.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    return SpamDecomposition(
        strengths=tuple(strengths),
        errors=tuple(errors),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
    )
