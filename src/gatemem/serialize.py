"""Every file format of the package: the loaders of model, records and
channel files, and the writers of every artifact the command line emits.

Complex matrices serialize as nested arrays of [re, im] pairs.  Every
written file embeds a schema tag, the configuration hash, and the seed,
and all writes are atomic (temp file + rename) with deterministic
content, so a rerun with the same configuration is byte-identical.
:func:`report_payload` builds every JSON payload and ``_table_csv``
every CSV table.  Each loader checks a file inside :func:`input_file`,
so every error it raises names the file.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import inspect
import json
import os
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from .channels import GateLabel, QuantumChannel, _fitted_gates
from .exceptions import IncompleteDataError, ValidationError, context
from .tomography import (
    LABEL_GRAMMAR_VERSION,
    CountRecord,
    TomographyResult,
    _check_seed,
    _frame_width,
    _records_by_config,
    build_frame,
)

if TYPE_CHECKING:
    from .nonmarkov import DistanceMatrix, GridAnalysis, MemoryScan
    from .simulator import SEModel

SCHEMA_VERSION = 1

#: Largest real or imaginary part, in magnitude, of a channel file's
#: superoperator entries: far above any reconstruction (a CPTP map's entries
#: are at most 1), and the product of two loaded maps stays finite.
CHANNEL_ENTRY_BOUND = 1e6


def encode_matrix(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def decode_matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def channel_digests(channels: dict) -> dict:
    """Content digest of each channel of ``channels``: a SHA-256 prefix
    of its superoperator's bytes, keyed as in ``channels`` with a gate
    sequence written as its tokens joined by commas (``"X@0,Z@0"``).  A
    configuration that includes them hashes the data an analysis read,
    not only its labels."""
    return {
        ",".join(map(str, key)) if isinstance(key, tuple) else str(key): hashlib.sha256(
            np.ascontiguousarray(chan.superop, dtype="<c16").tobytes()
        ).hexdigest()[:16]
        for key, chan in channels.items()
    }


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and a rename, so a reader sees the old file or the new one.
    The file gets the mode ``open`` would give it, ``0o666`` less the
    umask, not the owner-only mode of the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # os.umask only reads the mask by setting it; the command line is single-threaded
    umask = os.umask(0o077)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_json(path: str) -> dict:
    """The JSON document in ``path``; a file that is not JSON, or not
    text, raises :class:`json.JSONDecodeError` naming the file."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as err:
            raise json.JSONDecodeError(f"{path} is not JSON: {err.msg}", err.doc, err.pos) from None
        except UnicodeDecodeError as err:  # positioned at the first undecodable byte
            text = err.object[:err.start].decode(err.encoding, "replace")
            raise json.JSONDecodeError(f"{path} is not JSON: not {err.encoding} text", text,
                                       len(text)) from None


def _schema_tag(kind: str) -> str:
    return f"gatemem.{kind}/{SCHEMA_VERSION}"


def report_payload(kind: str, cfg_hash: str, seed, **fields) -> dict:
    """A JSON file of schema ``kind``: the configuration hash, the seed,
    and ``fields``, with array fields written as complex matrices.  Every
    JSON writer builds its payload here."""
    return {"schema": _schema_tag(kind), "config_hash": cfg_hash, "seed": seed, **{
        k: encode_matrix(v) if isinstance(v, np.ndarray) else v for k, v in fields.items()
    }}


def _slug(text: str) -> str:
    """File-name form of a label: 'CX@1.0' -> 'CX10', 'X@0,Z@0' -> 'X0_Z0'."""
    return text.replace("@", "").replace(".", "").replace(",", "_")


def records_payload(records, cfg_hash: str, seed, gates=None) -> dict:
    """A records file, on the qubits of its records' labels; ``gates``,
    when given, is the simulated sequence."""
    return report_payload(
        "records", cfg_hash, seed,
        n_qubits=records[0].n_qubits,
        grammar_version=LABEL_GRAMMAR_VERSION,
        **({} if gates is None else {"gates": [str(g) for g in gates]}),
        records=[
            {
                "prep": r.prep_label,
                "meas": r.meas_label,
                "counts": dict(sorted(r.counts.items())),
                "shots": r.shots,
                "seed": r.seed,
            }
            for r in records
        ],
    )


def records_filename(gates) -> str:
    """File name of one gate sequence's records, ``records_<sequence>.json``
    (e.g. ``records_X0-Z0.json``); distinct sequences may share one
    (``CX@11.0`` and ``CX@1.10``)."""
    return f"records_{'-'.join(_slug(str(g)) for g in gates)}.json"


def write_records(out_dir: str, gates, records, cfg_hash: str, seed) -> str:
    """Write the records of one gate sequence as :func:`records_filename`
    in ``out_dir``; returns the path."""
    path = os.path.join(out_dir, records_filename(gates))
    dump_json(path, records_payload(records, cfg_hash, seed, gates))
    return path


@contextlib.contextmanager
def input_file(kind: str, path: str):
    """Checks of the ``kind`` file at ``path``, each error naming the file:
    an error of the package gains the prefix ``<kind> file <path>: ``
    (:func:`exceptions.context`), and a ``TypeError``, ``ValueError``,
    ``AttributeError`` or ``ArithmeticError`` of a field of the wrong type,
    shape or size becomes ``<kind> file <path>: malformed: ...``."""
    with context(f"{kind} file {path}"):
        try:
            yield
        except (TypeError, ValueError, AttributeError, ArithmeticError) as err:
            raise ValidationError(f"malformed: {err}") from err


def _check_schema(payload: dict, kind: str) -> None:
    """The file holds a JSON object, and its schema tag, when present,
    names this kind at this version; hand-written files carry none."""
    if not isinstance(payload, dict):
        raise ValidationError("must hold a JSON object")
    expected = _schema_tag(kind)
    tag = payload.get("schema", expected)
    if tag != expected:
        raise ValidationError(f"schema {tag!r}, expected {expected!r}")


def _check_gates(payload: dict, n_qubits: int) -> None:
    """``gates``, when present, lists gate tokens that fit on ``n_qubits``."""
    gates = payload.get("gates", [])
    if not isinstance(gates, list) or not all(isinstance(tok, str) for tok in gates):
        raise ValidationError("'gates' must be a list of gate tokens")
    _fitted_gates([GateLabel.parse(tok) for tok in gates], n_qubits)


def records_from_payload(payload: dict, path: str = "<payload>") -> list[CountRecord]:
    """The count records of a records file, once they meet the record-set
    rule of ``tomography._records_by_config`` in the frame of its
    ``n_qubits``; error messages name ``path``."""
    with input_file("records", path):
        _check_schema(payload, "records")
        version = payload.get("grammar_version", LABEL_GRAMMAR_VERSION)
        if version != LABEL_GRAMMAR_VERSION:
            raise ValidationError(
                f"label grammar version {version!r}, expected {LABEL_GRAMMAR_VERSION}")
        entries = payload.get("records", [])
        if not isinstance(entries, list):
            raise ValidationError("'records' must be a list of JSON objects")
        for i, entry in enumerate(entries):  # before a key test reads a list by membership
            if not isinstance(entry, dict):
                raise ValidationError(f"record {i}: must be a JSON object")
        missing = [key for key in ("n_qubits", "records") if key not in payload]
        missing += [f"records[{i}].{key}" for i, entry in enumerate(entries)
                    for key in ("prep", "meas", "counts", "shots") if key not in entry]
        if missing or not entries:
            raise ValidationError(f"missing {missing or 'every record'}")
        _check_seed(payload.get("seed"))
        frame = build_frame(_frame_width(payload["n_qubits"], "'n_qubits'"))
        _check_gates(payload, frame.n_qubits)
        records = []
        for i, entry in enumerate(entries):
            with context(f"record {i}"):  # a record's own checks do not know its index
                if not isinstance(entry["counts"], dict):  # dict() would take [key, value] pairs
                    raise ValidationError("'counts' must be a JSON object")
                records.append(CountRecord(
                    prep_label=entry["prep"],
                    meas_label=entry["meas"],
                    counts=dict(entry["counts"]),
                    shots=entry["shots"],
                    seed=entry.get("seed"),
                ))
        _records_by_config(records, frame, frame.prep_labels)
        return records


def load_records(path: str) -> tuple[dict, list[CountRecord]]:
    """A records file as (payload, records)."""
    payload = load_json(path)
    return payload, records_from_payload(payload, path)


def load_model(path: str) -> tuple[SEModel, dict]:
    """A model file as (simulator model, the file's specification).  Its
    keys are the parameters of ``simulator.build_default_model``, with
    ``gates`` for ``labels``, and ``spam`` is an object of ``prep``,
    ``meas`` and ``seed``; any other key is an error.  The builder and
    ``SpamSpec`` check every present key and default every absent one."""
    from .simulator import SpamSpec, build_default_model

    spec = load_json(path)
    with input_file("model", path):
        if not isinstance(spec, dict) or not isinstance(spec.get("gates"), list):
            raise ValidationError("needs a non-empty 'gates' list")
        if not isinstance(spec.get("spam", {}), dict):
            raise ValidationError("'spam' must be an object")
        params = {"gates" if name == "labels" else name: name
                  for name in inspect.signature(build_default_model).parameters}
        spam_fields = {"prep": "prep_strength", "meas": "meas_strength", "seed": "seed"}
        unknown = sorted(set(spec) - set(params)) + [
            f"spam.{key}" for key in sorted(set(spec.get("spam", {})) - set(spam_fields))]
        if unknown:
            raise ValidationError(f"unknown keys {unknown}")
        kwargs = {params[key]: value for key, value in spec.items()}
        if "env_initial" in spec:
            kwargs["env_initial"] = decode_matrix(spec["env_initial"])
        if "spam" in spec:
            kwargs["spam"] = SpamSpec(**{spam_fields[k]: value for k, value in spec["spam"].items()})
        model = build_default_model(**kwargs)
    return model, spec


def channel_payload(
    channel: QuantumChannel, gates, shots, cfg_hash: str, seed
) -> dict:
    """A channel file of ``channel``, the map of the gate tokens ``gates``;
    its ``provenance`` label is the tokens joined by ``+``."""
    return report_payload(
        "channel", cfg_hash, seed,
        dim=channel.dim,
        normalization="column-stacking",
        superop=channel.superop,
        provenance="+".join(gates),
        gates=list(gates),
        shots=shots,
    )


def channel_from_payload(payload: dict, path: str = "<payload>") -> QuantumChannel:
    """The channel of a channel file, which names its gate sequence;
    error messages name ``path``."""
    with input_file("channel", path):
        _check_schema(payload, "channel")
        normalization = payload.get("normalization")
        if normalization != "column-stacking":
            raise ValidationError(f"unknown vectorization {normalization!r}")
        missing = [key for key in ("superop", "dim") if key not in payload]
        if missing:
            raise ValidationError(f"missing {missing}")
        channel = QuantumChannel(decode_matrix(payload["superop"]))
        if np.abs(channel.superop.view(float)).max() > CHANNEL_ENTRY_BOUND:
            raise ValidationError(f"superop entries must be at most {CHANNEL_ENTRY_BOUND:g}")
        if payload["dim"] != channel.dim:
            raise ValidationError("superop size disagrees with dim")
        if not payload.get("gates"):
            raise ValidationError("no 'gates' sequence")
        _check_gates(payload, _frame_width(channel.n_qubits, f"the width of 'dim' {channel.dim}"))
        return channel


def tomography_payload(result: TomographyResult, gates, shots, cfg_hash: str, seed) -> dict:
    """A channel file of a reconstruction, with its per-preparation
    log-likelihoods and likelihood iterations."""
    payload = channel_payload(result.channel, gates, shots, cfg_hash, seed)
    payload["loglik"] = {k: float(v) for k, v in result.loglik.items()}
    payload["iterations"] = {k: int(v) for k, v in result.iterations.items()}
    return payload


def load_channel_dir(channels_dir: str) -> dict:
    """The directory's ``channel_*.json`` files keyed by gate sequence (a
    tuple of canonical gate tokens).  A file without a gate sequence
    cannot be placed, and two files for one sequence are ambiguous; both
    are rejected."""
    paths = sorted(glob.glob(os.path.join(channels_dir, "channel_*.json")))
    if not paths:
        raise IncompleteDataError(f"no channel files in {channels_dir}", [channels_dir])
    channels, sources = {}, {}
    for path in paths:
        payload = load_json(path)
        channel = channel_from_payload(payload, path)
        key = tuple(str(GateLabel.parse(tok)) for tok in payload["gates"])
        if key in sources:
            raise ValidationError(
                f"{sources[key]} and {path} both hold the sequence {','.join(key)}"
            )
        sources[key] = path
        channels[key] = channel
    return channels


def load_grid(channels_dir: str) -> tuple[dict, dict]:
    """Single-gate marginals and (first, second) two-gate joints of a
    channel directory; longer sequences are ignored."""
    channels = load_channel_dir(channels_dir)
    marginals = {key[0]: chan for key, chan in channels.items() if len(key) == 1}
    joints = {key: chan for key, chan in channels.items() if len(key) == 2}
    return marginals, joints


def _table_csv(kind: str, cfg_hash: str, seed, fields: dict, corner: str, col_labels,
               rows) -> str:
    """A CSV table of schema ``kind``: a ``#`` line of the schema tag,
    ``fields``, the config hash and the seed (``none`` if the run draws
    nothing), ``corner`` and the column labels, then each labelled row of
    ``rows`` with its values written as ``repr`` floats."""
    meta = [f"schema={_schema_tag(kind)}", *(f"{k}={v}" for k, v in fields.items()),
            f"config_hash={cfg_hash}", f"seed={'none' if seed is None else seed}"]
    lines = ["# " + " ".join(meta), ",".join([corner, *col_labels])]
    lines += [",".join([label, *(repr(float(v)) for v in values)]) for label, values in rows]
    return "\n".join(lines) + "\n"


def matrix_csv(matrix: DistanceMatrix, cfg_hash: str, seed) -> str:
    return _table_csv(
        "matrix", cfg_hash, seed,
        {"metric": matrix.metric, "scaling": "|".join(matrix.scaling) or "none"},
        "", matrix.col_labels, zip(matrix.row_labels, matrix.values),
    )


def write_matrix(stem: str, matrix: DistanceMatrix, cfg_hash: str, seed) -> None:
    """A distance matrix as ``stem.csv`` plus its ``stem.json`` twin."""
    atomic_write_text(stem + ".csv", matrix_csv(matrix, cfg_hash, seed))
    dump_json(stem + ".json", report_payload(
        "matrix", cfg_hash, seed,
        metric=matrix.metric,
        scaling=list(matrix.scaling),
        row_labels=list(matrix.row_labels),
        col_labels=list(matrix.col_labels),
        values=[[float(v) for v in row] for row in matrix.values],
    ))


def write_analysis(out_dir: str, analysis: GridAnalysis, cfg_hash: str, seed) -> None:
    """The files of a grid analysis in ``out_dir``: the ``cp_violation``
    and ``cond_vs_marginal_<metric>`` matrices (CSV and JSON), one
    ``gate_dependence_<target>_<metric>.csv`` per target gate, and the
    pair's ``histogram_<U>_<V>.json``."""
    write_matrix(os.path.join(out_dir, "cp_violation"), analysis.cp_violation, cfg_hash, seed)
    for metric, matrix in analysis.cond_vs_marginal.items():
        write_matrix(os.path.join(out_dir, f"cond_vs_marginal_{metric}"), matrix, cfg_hash, seed)
    for (target, metric), matrix in analysis.gate_dependence.items():
        atomic_write_text(
            os.path.join(out_dir, f"gate_dependence_{_slug(target)}_{metric}.csv"),
            matrix_csv(matrix, cfg_hash, seed),
        )
    u, v = analysis.pair
    dump_json(os.path.join(out_dir, f"histogram_{_slug(f'{u}_{v}')}.json"), report_payload(
        "histogram", cfg_hash, seed,
        pair=[u, v],
        mean=analysis.histogram.mean,
        stderr=analysis.histogram.stderr,
        samples=[float(x) for x in analysis.histogram.samples],
    ))


def scan_csv(scan: MemoryScan, metric: str, cfg_hash: str, seed) -> str:
    return _table_csv(
        "scan", cfg_hash, seed, {"metric": metric}, "n\\m",
        [str(m) for m in range(1, scan.n_max)],
        [(str(n), [scan.entries[(n, m)][metric] for m in range(1, n)])
         for n in range(2, scan.n_max + 1)],
    )


def write_scan(out_dir: str, scan: MemoryScan, cfg_hash: str, seed) -> None:
    """A memory scan in ``out_dir``: one ``scan_<metric>.csv`` per metric
    it holds, and ``scan.json`` with every entry."""
    for metric in scan.entries[(2, 1)]:
        atomic_write_text(
            os.path.join(out_dir, f"scan_{metric}.csv"), scan_csv(scan, metric, cfg_hash, seed)
        )
    dump_json(os.path.join(out_dir, "scan.json"), report_payload(
        "scan", cfg_hash, seed,
        n_max=scan.n_max,
        entries=[
            {"n": n, "m": m, **{k: float(v) for k, v in metrics.items()}}
            for (n, m), metrics in sorted(scan.entries.items())
        ],
    ))
