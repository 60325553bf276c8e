"""Error propagation: Monte-Carlo statistical uncertainty through the
reconstruction pipeline, and scaling of preparation/measurement
imperfections.

Shot statistics enter as a parametric bootstrap: each trial redraws
every record's counts with ``tomography._count_record``, the
multinomial sampler that also simulates data, at the record set's one
shot count and from the record's observed frequencies.  Trial records
keep ``shots``, so the likelihood estimator weighs and stops them as it
does the data.  A direct count-resampling oracle lives in the test suite to
bound the bias of the whole procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import pipeline
from .channels import GateLabel
from .exceptions import GatememError, ValidationError, context
from .tomography import _count_record, _set_shots

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

    ``pipeline`` maps a list of records to a real number.  ``records``
    have one ``shots`` (``tomography._set_shots``; a mixed set raises
    before the closure runs).  Each trial redraws every record's counts
    from its observed frequencies at that shot count, reruns the
    closure, and contributes one value; trials whose reconstruction
    fails are excluded and counted.  A set of exact-mode records carries
    no statistical noise: the closure runs once and the reported spread
    is zero.
    """
    if trials < 2:
        raise ValidationError("need at least two trials")
    records = list(records)
    shots = _set_shots(records)
    point = float(pipeline(records))
    if shots is None:
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
            resampled = [_count_record(r.prep_label, r.meas_label, r.frequencies(), shots, rng)
                         for r in records]
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


def reconstruction_uncertainty(records, trials: int, rng: np.random.Generator) -> UncertaintyReport:
    """Statistical spread of a reconstructed channel: the Frobenius
    distance of each trial's reconstruction to the point estimate's,
    through :func:`propagate_statistics`, whose first call of the metric,
    on ``records`` themselves, reconstructs the point estimate."""
    first: dict = {}

    def metric(trial_records) -> float:
        trial = pipeline.reconstruct_channel(trial_records).channel.superop
        return float(np.linalg.norm(trial - first.setdefault("point", trial)))

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
    floating-point floor), and are rejected rather than fitted.  An error
    reconstructing at strength ``s`` gains the prefix ``strength <s>: ``.
    """
    from .simulator import SpamSpec, extract_channel

    strengths = sorted(float(s) for s in strengths)
    bad = [s for s in strengths if not (np.isfinite(s) and s >= 0.0)]
    if bad:
        raise ValidationError(f"strength grid: every strength must be finite and non-negative,"
                              f" got {bad[0]!r}")
    if 0.0 not in strengths:
        raise ValidationError("strength grid must include 0")
    if len({s for s in strengths if s > 0}) < 2:
        raise ValidationError("the log-log fit needs at least two distinct positive strengths")
    if strengths[-1] > 0.05:
        raise ValidationError("strengths beyond 0.05 leave the small-kick regime")
    truth = extract_channel(model, [gate])
    errors = []
    for eps in strengths:
        with context(f"strength {eps}"):
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
