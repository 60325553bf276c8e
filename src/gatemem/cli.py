"""Command-line pipeline: simulate, reconstruct, analyze, scan, and
report.

Commands compose through files: ``simulate`` writes count records,
``tomo`` turns a records file into a channel file, ``analyze``/``scan``/
``ptensor`` consume channel files and the model, and ``errors`` runs the
uncertainty analyses.  Outputs are deterministic for a fixed seed and
configuration; exit codes are 0 (success), 2 (validation), 3
(numerical), 4 (I/O).
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys

import click
import numpy as np

from . import errprop, nonmarkov, pipeline, serialize
from .channels import GateLabel
from .exceptions import (
    ConvergenceError,
    DimensionError,
    IncompleteDataError,
    LabelError,
    SingularChannelError,
    SolverError,
    SupportError,
    ValidationError,
)
from .nonmarkov import DEFAULT_AVG_SAMPLES, DEFAULT_SCAN_NMAX
from .simulator import (
    DEFAULT_COUPLING,
    SEModel,
    SpamSpec,
    build_default_model,
    cji_circuit,
    extract_channel,
)
from .tomography import build_frame

_VALIDATION_ERRORS = (ValidationError, DimensionError, LabelError, IncompleteDataError)
_NUMERICAL_ERRORS = (SolverError, ConvergenceError, SingularChannelError, SupportError)


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _VALIDATION_ERRORS as err:
            click.echo(f"validation error: {err}", err=True)
            if isinstance(err, IncompleteDataError):
                click.echo(f"missing: {err.missing}", err=True)
            sys.exit(2)
        except _NUMERICAL_ERRORS as err:
            click.echo(f"numerical error: {err}", err=True)
            sys.exit(3)
        except (OSError, json.JSONDecodeError) as err:
            click.echo(f"i/o error: {err}", err=True)
            sys.exit(4)

    return wrapper


def _load_model(path: str) -> tuple[SEModel, dict]:
    spec = serialize.load_json(path)
    if not isinstance(spec, dict) or not isinstance(spec.get("gates"), list):
        raise ValidationError(f"model file {path} has no 'gates' list")
    try:
        spam_cfg = spec.get("spam", {})
        spam = SpamSpec(
            prep_strength=float(spam_cfg.get("prep", 0.0)),
            meas_strength=float(spam_cfg.get("meas", 0.0)),
            seed=int(spam_cfg.get("seed", 0)),
        )
        env_initial = None
        if "env_initial" in spec:
            env_initial = serialize.decode_matrix(spec["env_initial"])
        model = build_default_model(
            labels=spec["gates"],
            coupling=float(spec.get("coupling", DEFAULT_COUPLING)),
            reset_policy=spec.get("reset_policy", "persistent"),
            sys_qubits=spec.get("sys_qubits"),
            env_omega=float(spec.get("env_omega", 0.7)),
            durations=spec.get("durations"),
            env_initial=env_initial,
            spam=spam,
        )
    except (TypeError, ValueError, AttributeError) as err:
        raise ValidationError(f"model file {path} is malformed: {err}") from err
    return model, spec


def _parse_sequences(text: str) -> list[tuple[GateLabel, ...]]:
    """Sequences are ';'-separated; gates within one are ','-separated.
    Wire indices use '.' (e.g. 'CX@1.0,H@1;X')."""
    sequences = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sequences.append(tuple(GateLabel.parse(tok) for tok in chunk.split(",")))
    if not sequences:
        raise ValidationError("no gate sequences given")
    return sequences


def _slug(text: str) -> str:
    """File-name form of a label: 'CX@1.0' -> 'CX10', 'X@0,Z@0' -> 'X0_Z0'."""
    return text.replace("@", "").replace(".", "").replace(",", "_")


def _sequence_slug(gates) -> str:
    return "-".join(_slug(str(g)) for g in gates)


def _gate_tokens(gates) -> list[str]:
    return [str(g) for g in gates]


@click.group()
def main():
    """Memory analysis for gate sequences: tomography, conditional-map
    tests, channel distances, and error propagation."""


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--gates", required=True, help="semicolon-separated gate sequences, e.g. 'X;Z;X,Z'")
@click.option("--shots", default=1024, show_default=True, type=int)
@click.option("--exact", is_flag=True, help="emit exact probabilities instead of counts")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_exit_codes
def simulate(model_path, gates, shots, exact, seed, out_dir):
    """Sample tomography count records for each gate sequence."""
    model, model_spec = _load_model(model_path)
    sequences = _parse_sequences(gates)
    cfg = {
        "command": "simulate",
        "model": model_spec,
        "gates": gates,
        "shots": None if exact else shots,
        "seed": seed,
    }
    cfg_hash = serialize.config_hash(cfg)
    frame = build_frame(model.sys_qubits)
    for index, sequence in enumerate(sequences):
        records = pipeline.simulate_records(
            model, sequence, None if exact else shots, seed=seed + index, frame=frame
        )
        payload = serialize.records_payload(records, model.sys_qubits, cfg_hash, seed)
        payload["gates"] = _gate_tokens(sequence)
        path = os.path.join(out_dir, f"records_{_sequence_slug(sequence)}.json")
        serialize.dump_json(path, payload)
        click.echo(f"wrote {path} ({len(records)} records)")


@main.command()
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes
def tomo(records_path, out_path):
    """Reconstruct a channel from a records file."""
    payload, records, frame = _load_records(records_path)
    gates = payload.get("gates")
    if not gates:
        raise ValidationError(f"records file {records_path} has no 'gates' sequence")
    result = pipeline.reconstruct_channel(records, frame, provenance="+".join(gates))
    cfg = {"command": "tomo", "records": payload}
    out = serialize.channel_payload(
        result.channel,
        gates=gates,
        shots=records[0].shots,
        cfg_hash=serialize.config_hash(cfg),
        seed=payload.get("seed"),
    )
    out["loglik"] = {k: float(v) for k, v in result.loglik.items()}
    out["iterations"] = {k: int(v) for k, v in result.iterations.items()}
    serialize.dump_json(out_path, out)
    click.echo(f"wrote {out_path}")


def _load_records(path: str):
    """A records file as (payload, records, tomography frame)."""
    payload = serialize.load_json(path)
    records = serialize.records_from_payload(payload, path)
    return payload, records, build_frame(payload["n_qubits"])


def _load_channel_dir(channels_dir: str) -> dict:
    """The directory's ``channel_*.json`` files keyed by gate sequence (a
    tuple of canonical gate tokens).  A file without a gate sequence
    cannot be placed, and two files for one sequence are ambiguous; both
    are rejected."""
    paths = sorted(glob.glob(os.path.join(channels_dir, "channel_*.json")))
    if not paths:
        raise IncompleteDataError(f"no channel files in {channels_dir}", [channels_dir])
    channels, sources = {}, {}
    for path in paths:
        payload = serialize.load_json(path)
        channel = serialize.channel_from_payload(payload, path)
        if not payload.get("gates"):
            raise ValidationError(f"channel file {path} has no 'gates' sequence")
        key = tuple(str(GateLabel.parse(tok)) for tok in payload["gates"])
        if key in sources:
            raise ValidationError(
                f"{sources[key]} and {path} both hold the sequence {','.join(key)}"
            )
        sources[key] = path
        channels[key] = channel
    return channels


def _load_grid(channels_dir: str):
    """Single-gate marginals and (first, second) two-gate joints of a
    channel directory; longer sequences are ignored."""
    channels = _load_channel_dir(channels_dir)
    marginals = {key[0]: chan for key, chan in channels.items() if len(key) == 1}
    joints = {key: chan for key, chan in channels.items() if len(key) == 2}
    return marginals, joints


def _write_matrix(stem: str, matrix, cfg_hash: str, seed) -> None:
    """A distance matrix as ``stem.csv`` plus its ``stem.json`` twin."""
    serialize.atomic_write_text(stem + ".csv", serialize.matrix_csv(matrix, cfg_hash, seed))
    serialize.dump_json(stem + ".json", serialize.matrix_payload(matrix, cfg_hash, seed))


@main.command()
@click.option("--channels", "channels_dir", required=True, type=click.Path(exists=True))
@click.option("--baseline", "baseline_dir", type=click.Path(exists=True), default=None,
              help="channel files of a memoryless run at the same shot count")
@click.option("--metric", type=click.Choice(["avg", "diamond", "both"]), default="avg",
              show_default=True)
@click.option("--samples", default=DEFAULT_AVG_SAMPLES, show_default=True, type=int)
@click.option("--scale-figure", is_flag=True, help="apply display scalings to matrix output")
@click.option("--pair", default=None, help="U,V pair for the distance histogram")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_exit_codes
def analyze(channels_dir, baseline_dir, metric, samples, scale_figure, pair, seed, out_dir):
    """Conditional-map analyses over a set of reconstructed channels."""
    marginals, joints = _load_grid(channels_dir)
    u_labels, v_labels, conditionals = nonmarkov.conditional_grid(marginals, joints)
    if pair is None:
        pair_u, pair_v = u_labels[0], v_labels[0]
    else:
        tokens = [str(GateLabel.parse(t)) for t in pair.split(",")]
        if len(tokens) != 2:
            raise ValidationError(f"--pair needs exactly two gates, e.g. X,Z; got {pair!r}")
        pair_u, pair_v = tokens
        if (pair_u, pair_v) not in conditionals:
            raise ValidationError(f"--pair {pair_u},{pair_v} is not in the channel grid")
    # the per-sample histogram's conditioned map and marginal, per channel set
    histogram_sets = [("", conditionals[(pair_u, pair_v)], marginals[pair_v])]
    if baseline_dir is not None:
        base_marginals, base_joints = _load_grid(baseline_dir)
        try:
            base = nonmarkov.conditional_grid(base_marginals, base_joints, (pair_u, pair_v))[2]
        except IncompleteDataError as err:
            raise IncompleteDataError(f"baseline {baseline_dir}: {err}", err.missing) from err
        histogram_sets.append(("baseline_", base[(pair_u, pair_v)], base_marginals[pair_v]))

    cfg = {
        "command": "analyze",
        "channels": sorted(marginals) + [f"{u},{v}" for u, v in sorted(joints)],
        "metric": metric,
        "samples": samples,
        "scale_figure": scale_figure,
        "pair": pair,
        "seed": seed,
    }
    cfg_hash = serialize.config_hash(cfg)
    metrics = ["avg", "diamond"] if metric == "both" else [metric]
    os.makedirs(out_dir, exist_ok=True)

    cpv = [[nonmarkov.cp_violation(conditionals[(u, v)]) for v in v_labels] for u in u_labels]
    cp_matrix = nonmarkov.DistanceMatrix(
        tuple(u_labels), tuple(v_labels), cpv, metric="cp-violation"
    )
    _write_matrix(os.path.join(out_dir, "cp_violation"), cp_matrix, cfg_hash, seed)

    # a gate-dependence matrix compares at least two first gates
    targets = v_labels if len(u_labels) > 1 else []
    for m in metrics:
        rng = np.random.default_rng(seed)
        cvm = nonmarkov.conditional_vs_marginal_matrix(
            marginals, joints, metric=m, m_samples=samples, rng=rng,
            scale_figure=scale_figure,
        )
        _write_matrix(os.path.join(out_dir, f"cond_vs_marginal_{m}"), cvm, cfg_hash, seed)
        for v in targets:
            rng = np.random.default_rng(seed + 1)
            gdm = nonmarkov.gate_dependence_matrix(
                {u: conditionals[(u, v)] for u in u_labels}, metric=m, m_samples=samples,
                rng=rng, scale_figure=scale_figure, target_label=v,
            )
            serialize.atomic_write_text(
                os.path.join(out_dir, f"gate_dependence_{_slug(v)}_{m}.csv"),
                serialize.matrix_csv(gdm, cfg_hash, seed),
            )

    payload = serialize._meta("histogram", cfg_hash, seed)
    payload["pair"] = [pair_u, pair_v]
    for prefix, cm, marginal in histogram_sets:
        rng = np.random.default_rng(seed + 2)
        dist = nonmarkov.avg_trace_distance(cm.channel, marginal, samples, rng)
        payload[prefix + "mean"] = dist.mean
        payload[prefix + "stderr"] = dist.stderr
        payload[prefix + "samples"] = [float(x) for x in dist.samples]
    serialize.dump_json(
        os.path.join(out_dir, f"histogram_{_slug(f'{pair_u}_{pair_v}')}.json"), payload
    )
    click.echo(f"wrote analysis to {out_dir}")


@main.command()
@click.option("--channels", "channels_dir", required=True, type=click.Path(exists=True))
@click.option("--nmax", default=DEFAULT_SCAN_NMAX, show_default=True, type=int)
@click.option("--metric", type=click.Choice(["avg", "diamond", "both"]), default="avg",
              show_default=True)
@click.option("--samples", default=DEFAULT_AVG_SAMPLES, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_exit_codes
def scan(channels_dir, nmax, metric, samples, seed, out_dir):
    """Memory-length scan over channels for repeated gate applications."""
    channels = _load_channel_dir(channels_dir)
    longest = sorted(",".join(key) for key in channels if len(key) == nmax)
    gates = tuple({gate for key in channels if len(key) == nmax for gate in key})
    if len(gates) > 1:
        raise ValidationError(f"the {nmax}-gate files must all repeat one gate: {longest}")
    runs = [gates * n for n in range(1, nmax + 1)]
    missing = [str(n) for n, key in enumerate(runs, 1) if not gates or key not in channels]
    if missing:
        raise IncompleteDataError(f"missing sequence lengths: {missing}", missing)
    cfg = {"command": "scan", "nmax": nmax, "metric": metric, "samples": samples, "seed": seed}
    cfg_hash = serialize.config_hash(cfg)
    metrics = ("avg", "diamond") if metric == "both" else (metric,)
    rng = np.random.default_rng(seed)
    result = nonmarkov.memory_scan(
        [channels[key] for key in runs],
        metrics=metrics, m_samples=samples, rng=rng,
    )
    os.makedirs(out_dir, exist_ok=True)
    for m in metrics:
        serialize.atomic_write_text(
            os.path.join(out_dir, f"scan_{m}.csv"), serialize.scan_csv(result, m, cfg_hash, seed)
        )
    serialize.dump_json(
        os.path.join(out_dir, "scan.json"), serialize.scan_payload(result, cfg_hash, seed)
    )
    click.echo(f"wrote scan to {out_dir}")


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--gates", default="S,T", show_default=True, help="U,V pair for the two-step circuit")
@click.option("--shots", default=None, type=int, help="shot count for the reference maps")
@click.option("--exact", is_flag=True, help="exact-statistics reference maps")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes
def ptensor(model_path, gates, shots, exact, seed, out_path):
    """Two-step process state against its memoryless reference."""
    model, model_spec = _load_model(model_path)
    tokens = [GateLabel.parse(t) for t in gates.split(",")]
    if len(tokens) != 2:
        raise ValidationError("ptensor needs exactly two gates, e.g. --gates S,T")
    u_gate, v_gate = tokens
    shots_val = None if (exact or shots is None) else int(shots)
    cfg = {
        "command": "ptensor", "model": model_spec, "gates": gates,
        "shots": shots_val, "seed": seed,
    }
    measured = cji_circuit(model, u_gate, v_gate)
    if shots_val is None:
        chan_u = extract_channel(model, [u_gate])
        chan_v = extract_channel(model, [v_gate])
    else:
        chan_u = pipeline.reconstruct_from_model(model, [u_gate], shots_val, seed).channel
        chan_v = pipeline.reconstruct_from_model(model, [v_gate], shots_val, seed + 1).channel
    reference = nonmarkov.markovian_choi_reference(chan_u, chan_v)
    value = nonmarkov.process_tensor_proxy(measured, reference)
    payload = serialize._meta("ptensor", serialize.config_hash(cfg), seed)
    payload.update({
        "gates": _gate_tokens(tokens),
        "shots": shots_val,
        "relative_entropy": float(value),
        "regularization": nonmarkov.PTENSOR_REGULARIZATION,
        "measured": serialize.encode_matrix(measured.data),
        "reference": serialize.encode_matrix(reference),
    })
    serialize.dump_json(out_path, payload)
    click.echo(f"relative entropy to memoryless reference: {value:.6f}")
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--records", "records_path", type=click.Path(exists=True), default=None)
@click.option("--trials", default=200, show_default=True, type=int)
@click.option("--model", "model_path", type=click.Path(exists=True), default=None)
@click.option("--gate", default=None, help="gate token for the SPAM scaling study")
@click.option("--eps-grid", default="0,1e-4,3e-4,1e-3,3e-3,1e-2", show_default=True)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes
def errors(records_path, trials, model_path, gate, eps_grid, seed, out_path):
    """Uncertainty reports: statistical propagation or SPAM scaling."""
    if records_path is not None:
        payload, records, frame = _load_records(records_path)
        point = pipeline.reconstruct_channel(records, frame)

        def metric(trial_records) -> float:
            result = pipeline.reconstruct_channel(trial_records, frame)
            return float(
                np.linalg.norm(result.channel.superop - point.channel.superop)
            )

        rng = np.random.default_rng(seed)
        report = errprop.propagate_statistics(
            records, metric, trials, rng, metric_name="frobenius-to-point-estimate"
        )
        cfg = {"command": "errors", "records": payload, "trials": trials, "seed": seed}
        out = serialize._meta("uncertainty", serialize.config_hash(cfg), seed)
        out.update({
            "metric": report.metric_name,
            "point_estimate": report.point_estimate,
            "std": report.std,
            "trials": report.trials,
            "failed_trials": report.failed_trials,
            "shots": report.shots,
            "values": list(report.values),
        })
        serialize.dump_json(out_path, out)
        click.echo(f"{report.metric_name}: std={report.std:.6g} over {report.trials} trials")
        click.echo(f"wrote {out_path}")
        return

    if model_path is None or gate is None:
        raise ValidationError("need either --records or both --model and --gate")
    model, model_spec = _load_model(model_path)
    try:
        strengths = [float(tok) for tok in eps_grid.split(",")]
    except ValueError:
        raise ValidationError(f"--eps-grid takes comma-separated numbers: {eps_grid!r}") from None
    decomposition = errprop.spam_scaling(model, GateLabel.parse(gate), strengths)
    cfg = {
        "command": "errors-spam", "model": model_spec, "gate": gate,
        "eps_grid": eps_grid, "seed": seed,
    }
    out = serialize._meta("spamscaling", serialize.config_hash(cfg), seed)
    out.update({
        "gate": gate,
        "strengths": list(decomposition.strengths),
        "errors": list(decomposition.errors),
        "slope": decomposition.slope,
        "intercept": decomposition.intercept,
        "r_squared": decomposition.r_squared,
    })
    serialize.dump_json(out_path, out)
    click.echo(
        f"error vs strength: slope={decomposition.slope:.3f} "
        f"r^2={decomposition.r_squared:.4f}"
    )
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
