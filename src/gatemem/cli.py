"""Command-line pipeline: simulate, reconstruct, analyze, scan, and
report.

Commands compose through files: ``simulate`` writes count records,
``tomo`` turns a records file into a channel file, ``analyze``/``scan``/
``ptensor`` consume channel files and the model, and ``errors`` runs the
uncertainty analyses.  Outputs are deterministic for a fixed seed and
configuration; exit codes are 0 (success), 2 (validation, including
out-of-range options), 3 (numerical), 4 (I/O).  The command group maps
the package's errors to these codes in one place, so a command raises
and never exits.

A command parses its flags, loads its inputs with a :mod:`.serialize`
loader, declares what the run reads in one :func:`_declare` call, makes
one library call, and hands the result to a ``serialize`` writer; the
README's "Library" section shows each call in process.  A flag the run
does not read exits 2, except ``--seed``: a run that draws nothing
ignores it and writes ``"seed": null``.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import pipeline, serialize
from .channels import GateLabel
from .exceptions import GatememError, IncompleteDataError, ValidationError
from .qcore import DEFAULT_AVG_SAMPLES, DEFAULT_SCAN_NMAX

_seed_option = click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
_metric_option = click.option("--metric", type=click.Choice(["avg", "diamond", "both"]),
                              default="avg", show_default=True)
_samples_option = click.option("--samples", default=DEFAULT_AVG_SAMPLES, show_default=True,
                               type=click.IntRange(min=1))


class _ExitCodes(click.Group):
    """The command group, and the one boundary where a command's errors
    become exit codes: 2 for a :class:`ValidationError` of any kind, 3
    for every other error of the package (numerical), 4 I/O."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValidationError as err:
            click.echo(f"validation error: {err}", err=True)
            if isinstance(err, IncompleteDataError):
                click.echo(f"missing: {err.missing}", err=True)
            sys.exit(2)
        except GatememError as err:
            click.echo(f"numerical error: {err}", err=True)
            sys.exit(3)
        except (OSError, json.JSONDecodeError) as err:
            click.echo(f"i/o error: {err}", err=True)
            sys.exit(4)


def _parse_sequences(text: str) -> list[tuple[GateLabel, ...]]:
    """Sequences are ';'-separated; gates within one are ','-separated.
    Wire indices use '.' (e.g. 'CX@1.0,H@1;X').  Each sequence names one
    records file, so two sequences naming the same file (a sequence given
    twice, or 'CX@11.0;CX@1.10') are an error."""
    by_file = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sequence = tuple(GateLabel.parse(tok) for tok in chunk.split(","))
        name = serialize.records_filename(sequence)
        if name in by_file:
            first, second = (",".join(map(str, s)) for s in (by_file[name], sequence))
            raise ValidationError(f"--gates sequences {first} and {second} both write {name}")
        by_file[name] = sequence
    if not by_file:
        raise ValidationError("no gate sequences given")
    return list(by_file.values())


def _gate_pair(text: str, flag: str) -> tuple[GateLabel, GateLabel]:
    """The two gates of a ``flag`` value ``U,V``."""
    gates = tuple(GateLabel.parse(tok) for tok in text.split(","))
    if len(gates) != 2:
        raise ValidationError(f"{flag} takes exactly two gates U,V, got {text!r}")
    return gates


def _declare(draws: bool, **config) -> tuple[str, int | None]:
    """A run's one statement of what it reads: ``config`` names the command
    and holds each option it reads, keyed by option name, at what it
    resolves to (the model spec, the channel digests, the records payload);
    a None entry is hashed but not read, and a run that ``draws`` reads
    ``--seed``.  Refuses every other flag the command line gives, then
    returns the stamp each written file carries: config hash and seed."""
    ctx = click.get_current_context()
    if draws:
        config["seed"] = ctx.params["seed"]
    read = {"out", "exact", "seed"} | {name for name, value in config.items() if value is not None}
    unread = [f"'{param.opts[0]}'" for param in ctx.command.params
              if param.opts[0][2:].replace("-", "_") not in read
              and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE]
    if unread:
        raise ValidationError(f"this {ctx.info_name} run does not read {', '.join(unread)}")
    return serialize.config_hash(config), config.get("seed")


def _metrics(metric: str) -> tuple[str, ...]:
    return ("avg", "diamond") if metric == "both" else (metric,)


@click.group(cls=_ExitCodes)
def main():
    """Memory analysis for gate sequences: tomography, conditional-map
    tests, channel distances, and error propagation."""


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--gates", required=True, help="semicolon-separated gate sequences, e.g. 'X;Z;X,Z'")
@click.option("--shots", default=1024, show_default=True, type=click.IntRange(min=1))
@click.option("--exact", is_flag=True, help="emit exact probabilities instead of counts")
@_seed_option
@click.option("--out", "out_dir", required=True, type=click.Path())
def simulate(model_path, gates, shots, exact, seed, out_dir):
    """Sample tomography count records for each gate sequence."""
    model, model_spec = serialize.load_model(model_path)
    sequences = _parse_sequences(gates)
    shots_val = None if exact else shots  # exact probabilities draw nothing
    stamp = _declare(shots_val is not None, command="simulate", model=model_spec, gates=gates,
                     shots=shots_val)
    for index, sequence in enumerate(sequences):
        records = pipeline.simulate_records(model, sequence, shots_val, seed=seed + index)
        path = serialize.write_records(out_dir, sequence, records, *stamp)
        click.echo(f"wrote {path} ({len(records)} records)")


@main.command()
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def tomo(records_path, out_path):
    """Reconstruct a channel from a records file."""
    payload, records = serialize.load_records(records_path)
    gates = payload.get("gates")
    with serialize.input_file("records", records_path):
        if not gates:
            raise ValidationError("no 'gates' sequence")
    cfg_hash, _ = _declare(False, command="tomo", records=payload)
    result = pipeline.reconstruct_channel(records)
    # a channel carries the seed its records were drawn with
    serialize.dump_json(out_path, serialize.tomography_payload(
        result, gates, records[0].shots, cfg_hash, payload.get("seed")
    ))
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--channels", "channels_dir", required=True, type=click.Path(exists=True))
@_metric_option
@_samples_option
@click.option("--scale-figure", is_flag=True, help="apply display scalings to matrix output")
@click.option("--pair", default=None, help="U,V pair for the distance histogram")
@_seed_option
@click.option("--out", "out_dir", required=True, type=click.Path())
def analyze(channels_dir, metric, samples, scale_figure, pair, seed, out_dir):
    """Conditional-map analyses over a set of reconstructed channels."""
    from . import nonmarkov

    marginals, joints = serialize.load_grid(channels_dir)
    stamp = _declare(  # the histogram draws whatever the metric
        True, command="analyze", channels=serialize.channel_digests({**marginals, **joints}),
        metric=metric, samples=samples, scale_figure=scale_figure, pair=pair,
    )
    analysis = nonmarkov.analyze_grid(
        marginals, joints, metrics=_metrics(metric), m_samples=samples, seed=seed,
        scale_figure=scale_figure, pair=None if pair is None else _gate_pair(pair, "--pair"),
    )
    serialize.write_analysis(out_dir, analysis, *stamp)
    click.echo(f"wrote analysis to {out_dir}")


@main.command()
@click.option("--channels", "channels_dir", required=True, type=click.Path(exists=True))
@click.option("--nmax", default=DEFAULT_SCAN_NMAX, show_default=True,
              type=click.IntRange(min=2))
@_metric_option
@_samples_option
@_seed_option
@click.option("--out", "out_dir", required=True, type=click.Path())
def scan(channels_dir, nmax, metric, samples, seed, out_dir):
    """Memory-length scan over channels for repeated gate applications."""
    from . import nonmarkov

    runs = nonmarkov.repetitions(serialize.load_channel_dir(channels_dir), nmax)
    draws = metric != "diamond"  # only the averaged distance draws
    stamp = _declare(
        draws, command="scan", channels=serialize.channel_digests(dict(enumerate(runs, 1))),
        nmax=nmax, metric=metric, **({"samples": samples} if draws else {}),
    )
    result = nonmarkov.memory_scan(
        runs, metrics=_metrics(metric), m_samples=samples, rng=np.random.default_rng(seed)
    )
    serialize.write_scan(out_dir, result, *stamp)
    click.echo(f"wrote scan to {out_dir}")


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--gates", default="S,T", show_default=True, help="U,V pair for the two-step circuit")
@click.option("--shots", default=None, type=click.IntRange(min=1),
              help="shot count for the reference maps")
@click.option("--exact", is_flag=True, help="exact-statistics reference maps")
@_seed_option
@click.option("--out", "out_path", required=True, type=click.Path())
def ptensor(model_path, gates, shots, exact, seed, out_path):
    """Two-step process state against its memoryless reference."""
    from . import nonmarkov

    model, model_spec = serialize.load_model(model_path)
    tokens = _gate_pair(gates, "--gates")
    shots_val = None if exact else shots  # exact reference maps draw nothing
    stamp = _declare(shots_val is not None, command="ptensor", model=model_spec, gates=gates,
                     shots=shots_val)
    result = pipeline.process_tensor_pair(model, *tokens, shots_val, seed)
    serialize.dump_json(out_path, serialize.report_payload(
        "ptensor", *stamp, gates=[str(g) for g in tokens], shots=shots_val,
        regularization=nonmarkov.PTENSOR_REGULARIZATION, **dataclasses.asdict(result),
    ))
    click.echo(f"relative entropy to memoryless reference: {result.relative_entropy:.6f}")
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--records", "records_path", type=click.Path(exists=True), default=None)
@click.option("--trials", default=200, show_default=True, type=click.IntRange(min=2))
@click.option("--model", "model_path", type=click.Path(exists=True), default=None)
@click.option("--gate", default=None, help="gate token for the SPAM scaling study")
@click.option("--eps-grid", default="0,1e-4,3e-4,1e-3,3e-3,1e-2", show_default=True)
@_seed_option
@click.option("--out", "out_path", required=True, type=click.Path())
def errors(records_path, trials, model_path, gate, eps_grid, seed, out_path):
    """Uncertainty reports: statistical propagation or SPAM scaling."""
    from . import errprop

    if records_path is not None:
        payload, records = serialize.load_records(records_path)
        # a records file has one mode, and only sampled records are redrawn
        stamp = _declare(records[0].shots is not None, command="errors", records=payload,
                         trials=trials)
        rng = np.random.default_rng(seed)
        report = errprop.reconstruction_uncertainty(records, trials, rng)
        serialize.dump_json(out_path, serialize.report_payload(
            "uncertainty", *stamp, **dataclasses.asdict(report)
        ))
        click.echo(f"{report.metric}: std={report.std:.6g} over {report.trials} trials")
        click.echo(f"wrote {out_path}")
        return

    if model_path is None or gate is None:
        raise ValidationError("need either --records or both --model and --gate")
    model, model_spec = serialize.load_model(model_path)
    # exact-mode tomography draws nothing
    stamp = _declare(False, command="errors-spam", model=model_spec, gate=gate, eps_grid=eps_grid)
    try:
        strengths = [float(tok) for tok in eps_grid.split(",")]
    except ValueError:
        raise ValidationError(f"--eps-grid takes comma-separated numbers: {eps_grid!r}") from None
    decomposition = errprop.spam_scaling(model, GateLabel.parse(gate), strengths)
    serialize.dump_json(out_path, serialize.report_payload(
        "spamscaling", *stamp, gate=gate, **dataclasses.asdict(decomposition)
    ))
    click.echo(
        f"error vs strength: slope={decomposition.slope:.3f} "
        f"r^2={decomposition.r_squared:.4f}"
    )
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
